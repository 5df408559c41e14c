"""The value objects of avtk: immutable, and equal exactly when their keys are.

Every class below derives from errors.Immutable, and those in KEYED from
errors.Value; test_source_hygiene.py checks that no other class states
either rule.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from avtk.elliptic import QuadNumber
from avtk.errors import Value
from avtk.homs import HomGenerator, hom_module, idempotent
from avtk.parallel import Pencil
from avtk.ppsearch import PPCandidate, admissible_family
from avtk.scalars import GeneratorSet
from avtk.torus import PolarisedTorus, SubvarietyEmbedding, TorsionPoint, product, standard_gram


def curve(d=1, name="tau"):
    """A fresh elliptic curve tau*Z + d*Z of type (d), over fresh generators."""
    gens = GeneratorSet((name,))
    return PolarisedTorus(gens, [[gens.scalar(name), d]], standard_gram([d]))


def opposite(T):
    """T with the opposite form: the same periods, so only the gram differs."""
    return PolarisedTorus(T.gens, T.periods, [[-x for x in row] for row in T.gram])


def surface():
    E = curve()
    return product([E, E])


# One instance of each immutable class, built fresh on every call.
IMMUTABLE = {
    "GeneratorSet": lambda: GeneratorSet(("a", "b")),
    "FormalScalar": lambda: GeneratorSet(("a",)).scalar("a"),
    "TorsionPoint": lambda: TorsionPoint([Fraction(1, 2), 0]),
    "PolarisedTorus": curve,
    "QuotientResult": lambda: curve(2).quotient(TorsionPoint([0, Fraction(1, 2)])),
    "DualResult": lambda: curve(2).dual(),
    "SubvarietyEmbedding": lambda: SubvarietyEmbedding.from_spanning_vectors(
        surface(), [[1, 0, 0, 0], [0, 0, 1, 0]]),
    "HomGenerator": lambda: hom_module(curve(), curve())[0],
    "IdempotentData": lambda: idempotent(SubvarietyEmbedding.from_spanning_vectors(
        surface(), [[1, 0, 0, 0], [0, 0, 1, 0]])),
    "PPCandidate": lambda: PPCandidate([[2, 1], [1, 2]]),
    "AdmissibleFamily": lambda: admissible_family(curve(), curve()),
    "Pencil": lambda: Pencil([[[2]], [[5]]]),
    "QuadNumber": lambda: QuadNumber(1, 1, 2, -3),
}


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_assignment_and_deletion_are_refused(name):
    obj = IMMUTABLE[name]()
    assert type(obj).__name__ == name
    message = f"^{name} is immutable$"
    for slot in type(obj).__slots__:
        before = getattr(obj, slot)
        with pytest.raises(AttributeError, match=message):
            setattr(obj, slot, None)
        with pytest.raises(AttributeError, match=message):
            delattr(obj, slot)
        assert getattr(obj, slot) is before
    with pytest.raises(AttributeError, match=message):
        obj.extra = 1
    if isinstance(obj, Value):  # a refused del leaves the key whole
        assert hash(obj) == hash(IMMUTABLE[name]())


# For each keyed class: two builders of equal objects, made independently,
# and one of an object whose key differs.
KEYED = {
    "GeneratorSet": (lambda: GeneratorSet(("a", "b")), lambda: GeneratorSet(["a", "b"]),
                     lambda: GeneratorSet(("a", "c"))),
    "TorsionPoint": (lambda: TorsionPoint([Fraction(1, 2), 0]),
                     lambda: TorsionPoint([Fraction(3, 2), 1]),
                     lambda: TorsionPoint([0, Fraction(1, 2)])),
    "PolarisedTorus": (curve, curve, lambda: curve(2)),
    "PolarisedTorus-gram": (curve, curve, lambda: opposite(curve())),
    "PolarisedTorus-gens": (curve, curve, lambda: curve(name="sigma")),
    "SubvarietyEmbedding": (
        lambda: SubvarietyEmbedding.from_spanning_vectors(surface(), [[1, 0, 0, 0], [0, 0, 1, 0]]),
        lambda: SubvarietyEmbedding(surface(), [[1, 0], [0, 0], [0, 1], [0, 0]]),
        lambda: SubvarietyEmbedding(surface(), [[0, 0], [1, 0], [0, 0], [0, 1]])),
    "HomGenerator": (lambda: hom_module(curve(), curve())[0],
                     lambda: HomGenerator(curve(), curve(), [[1, 0], [0, 1]], [[1]]),
                     lambda: HomGenerator(curve(), curve(), [[2, 0], [0, 2]], [[2]])),
    "HomGenerator-codomain": (lambda: HomGenerator(curve(), curve(), [[1, 0], [0, 1]], [[1]]),
                              lambda: HomGenerator(curve(), curve(), [[1, 0], [0, 1]], [[1]]),
                              lambda: HomGenerator(curve(), opposite(curve()), [[1, 0], [0, 1]],
                                                   [[1]])),
    "PPCandidate": (lambda: PPCandidate([[2, 1], [1, 2]]),
                    lambda: PPCandidate(((Fraction(2), 1), (1, Fraction(4, 2)))),
                    lambda: PPCandidate([[2, 0], [0, 2]])),
    "QuadNumber": (lambda: QuadNumber(1, 1, 2, -3), lambda: QuadNumber(-2, -2, -4, -3),
                   lambda: QuadNumber(1, 1, 2, -7)),
}


@pytest.mark.parametrize("case", sorted(KEYED))
def test_equal_values_hash_equal_and_a_changed_key_is_unequal(case):
    make, make_again, make_other = KEYED[case]
    a, b, other = make(), make_again(), make_other()
    assert a is not b and type(a) is type(b) is type(other)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other and not a == other and len({a, b, other}) == 2


def test_values_of_different_classes_are_unequal():
    point, candidate = TorsionPoint([0]), PPCandidate([[0]])
    assert point != candidate and candidate != point
    assert GeneratorSet(("a",)) != ("a",) and ("a",) != GeneratorSet(("a",))
    assert GeneratorSet(("a",)) != 1 and QuadNumber(0, 1, 1, -1) != 1j


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_a_copy_equals_the_original_slot_by_slot_and_stays_immutable(name, how):
    obj = IMMUTABLE[name]()
    dup = COPIES[how](obj)
    assert type(dup) is type(obj) and dup is not obj
    for slot in type(obj).__slots__:
        assert getattr(dup, slot) == getattr(obj, slot)
    if isinstance(obj, Value):
        assert dup == obj and hash(dup) == hash(obj)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(dup, type(obj).__slots__[0], None)


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_hom_generator_copies_whether_or_not_its_analytic_rep_was_rendered(how, read):
    # F is kept as an integer slice and rendered into the _analytic slot on
    # first read; a copy made on either side of that read is the same value
    g = hom_module(curve(2), curve())[0]
    if read:
        assert g.analytic_rep is g.analytic_rep
    dup = COPIES[how](g)
    for slot in HomGenerator.__slots__:
        assert getattr(dup, slot) == getattr(g, slot)
    assert (dup._analytic is not None) == read  # the cache is copied as it stood
    assert dup == g and hash(dup) == hash(g)
    assert dup.analytic_rep == g.analytic_rep and dup.analytic_rep is dup.analytic_rep
    for obj in (g, dup):
        with pytest.raises(AttributeError, match="^HomGenerator is immutable$"):
            del obj._analytic
        with pytest.raises(AttributeError, match="^HomGenerator is immutable$"):
            obj._analytic = None
        assert obj._analytic is not None


def warm(T):
    """T with every fact of its periods built and kept."""
    T.period_slice, T.periods_independent, T.lattice_det, T.right_frame()
    return T


FACTS = ("_slice", "_independent", "_lattice", "_frame")


def test_a_warm_torus_equals_and_hashes_like_a_cold_one():
    # the kept facts are outside the key: building them changes no comparison
    cold, hot = curve(), warm(curve())
    assert all(getattr(cold, slot) is None for slot in FACTS)
    assert all(getattr(hot, slot) is not None for slot in FACTS)
    assert hot == cold and cold == hot and hash(hot) == hash(cold)
    assert len({hot, cold}) == 1 and hot != warm(curve(2)) and hot != warm(opposite(curve()))


@pytest.mark.parametrize("built", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_polarised_torus_copies_whether_or_not_its_facts_were_built(how, built):
    T = warm(curve()) if built else curve()
    dup = COPIES[how](T)
    for slot in PolarisedTorus.__slots__:
        assert getattr(dup, slot) == getattr(T, slot)
    assert all((getattr(dup, slot) is not None) == built for slot in FACTS)
    assert dup == T and hash(dup) == hash(T) and dup == curve()
    assert (dup.period_slice, dup.right_frame()) == (T.period_slice, T.right_frame())
    for obj in (T, dup):
        for slot in FACTS:
            with pytest.raises(AttributeError, match="^PolarisedTorus is immutable$"):
                setattr(obj, slot, None)
            with pytest.raises(AttributeError, match="^PolarisedTorus is immutable$"):
                delattr(obj, slot)
        assert obj._slice is not None  # read above, so built on either side
