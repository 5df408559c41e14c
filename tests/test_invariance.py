"""Answers about a pair of tori do not depend on their lattice bases.

A unimodular U = [[A, 0], [C, B]], with A and B unimodular n x n and C
any integer n x n, changes the lattice basis of a torus: P -> P @ U and
E -> U^T @ E @ U.  It keeps the right period block constant (it becomes
D @ B), as hom_module needs of its source.  Seeded changes are applied
to the source, the target or both, on S x S^ -> S^ x S at d = 3 and 5
and on ex-4.1's quotient-standard -> dual at n = 2.  Each must leave
unchanged the polarisation types, the rank of Hom(source, target), the
rank of the admissible family, and the pp_search verdict and
coefficients at bound 2.  The family is a set of matrices H on the
ambient spaces, which a lattice change does not touch, and its basis is
a Hermite basis of those H, so a hit has the same coefficients.

isom_search is left out.  It enumerates coefficients in the Hermite
basis of the rational representations, which a lattice change conjugates
(M -> U_Y^-1 @ M @ U_X), so the box |c_i| <= bound covers other
homomorphisms, and a bounded verdict can change: with seed 2, a change
on both sides turns its Found at bound 2 into NotFoundUpToBound on
S x S^ -> S^ x S at d = 3 and at d = 5 (the last test pins this).
"""

import functools
import random

import pytest

from avtk.demos import run_demo, surface_pair
from avtk.documents import torus_from_doc
from avtk.homs import hom_module, isom_search
from avtk.intlinalg import identity, matmul, transpose
from avtk.ppsearch import admissible_family, pp_search
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, product
from avtk.verdicts import Found, NotFoundUpToBound

BOUND = 2
SEEDS = (1, 2, 3, 7)


def surfaces(d):
    S, Sd = surface_pair(GeneratorSet(("a", "b", "c")), d)
    return product([S, Sd]), product([Sd, S])


def ex41():
    docs = run_demo("ex-4.1", n=2).documents
    return torus_from_doc(docs["quotient-standard"]), torus_from_doc(docs["dual"])


PAIRS = {"SxS^-d3": lambda: surfaces(3), "SxS^-d5": lambda: surfaces(5), "ex-4.1-n2": ex41}


def random_unimodular(rng, n, ops=8):
    U = identity(n)
    for _ in range(ops):  # column j += c * column i
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for row in U:
            row[j] += c * row[i]
    return U


def lattice_change(T, rng):
    """T in the lattice basis U = [[A, 0], [C, B]], with U != identity."""
    n = T.dim
    A, B = random_unimodular(rng, n), random_unimodular(rng, n)
    C = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    C[0][0] += 1 if C[0][0] >= 0 else -1  # never 0, so U is never the identity
    U = [A[i] + [0] * n for i in range(n)] + [C[i] + B[i] for i in range(n)]
    return PolarisedTorus(T.gens, matmul([list(r) for r in T.periods], U),
                          matmul(transpose(U), matmul([list(r) for r in T.gram], U)))


def answers(X, Y):
    """What must not change: types, Hom rank, family rank, pp_search outcome."""
    family = admissible_family(X, Y)
    pp = pp_search(X, Y, BOUND, family=family)
    return {
        "types": (X.polarisation_type(), Y.polarisation_type()),
        "hom rank": len(hom_module(X, Y)),
        "family rank": family.rank,
        "pp_search": (type(pp).__name__, getattr(pp, "coefficients", None)),
    }


@functools.cache
def pair_and_answers(label):
    X, Y = PAIRS[label]()
    return X, Y, answers(X, Y)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("side", ["source", "target", "both"])
@pytest.mark.parametrize("label", list(PAIRS))
def test_a_lattice_change_leaves_the_answers_unchanged(label, side, seed):
    X, Y, expected = pair_and_answers(label)
    rng = random.Random(seed)
    X2 = lattice_change(X, rng) if side in ("source", "both") else X
    Y2 = lattice_change(Y, rng) if side in ("target", "both") else Y
    assert (X2, Y2) != (X, Y)
    assert answers(X2, Y2) == expected


def test_the_pairs_cover_both_pp_search_verdicts():
    found = {label: pair_and_answers(label)[2]["pp_search"][0] for label in PAIRS}
    assert found == {"SxS^-d3": "NotFoundUpToBound", "SxS^-d5": "Found",
                     "ex-4.1-n2": "NotFoundUpToBound"}


@pytest.mark.parametrize("label", ["SxS^-d3", "SxS^-d5"])
def test_the_bounded_isom_search_verdict_depends_on_the_lattice_bases(label):
    X, Y, _ = pair_and_answers(label)
    rng = random.Random(2)
    X2, Y2 = lattice_change(X, rng), lattice_change(Y, rng)
    assert isinstance(isom_search(X, Y, BOUND), Found)
    assert isinstance(isom_search(X2, Y2, BOUND), NotFoundUpToBound)
