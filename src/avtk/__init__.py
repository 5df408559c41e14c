"""Exact arithmetic for polarised complex tori with formal period entries.

The package treats a polarised torus as pure data: a big period matrix
whose entries are polynomials over Q in declared formal generators,
together with an alternating integer form on the lattice basis.  Every
operation (types, kernels, quotients, duals, homomorphism modules,
bounded searches) is carried out exactly over Z and Q.
"""

__version__ = "0.1.0"

from .scalars import FormalScalar, GeneratorSet, parse_scalar
from .torus import PolarisedTorus, SubvarietyEmbedding, TorsionPoint

__all__ = [
    "FormalScalar",
    "GeneratorSet",
    "parse_scalar",
    "PolarisedTorus",
    "SubvarietyEmbedding",
    "TorsionPoint",
    "__version__",
]
