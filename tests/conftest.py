import pytest

from avtk import documents
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, standard_gram


@pytest.fixture(autouse=True)
def no_kept_tori():
    """Each test starts with no tori kept by torus_from_doc, so a count of
    calls or a patched function never depends on the tests run before."""
    documents._TORI.clear()
    yield
    documents._TORI.clear()


@pytest.fixture
def tau_gens():
    return GeneratorSet(("tau",))


@pytest.fixture
def curve_gens():
    return GeneratorSet(("tau_E", "tau_F"))


@pytest.fixture
def surface_gens():
    return GeneratorSet(("a", "b", "c"))


@pytest.fixture
def principal_curve(tau_gens):
    tau = tau_gens.scalar("tau")
    return PolarisedTorus(tau_gens, [[tau, 1]], standard_gram([1]))


@pytest.fixture
def generic_surface(surface_gens):
    a, b, c = (surface_gens.scalar(x) for x in ("a", "b", "c"))
    periods = [[a, b, 1, 0], [b, c, 0, 1]]
    return PolarisedTorus(surface_gens, periods, standard_gram([1, 1]))
