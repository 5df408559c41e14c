"""Static checks on the sources of avtk, with the standard library's ast only.

Every module may import only standard-library modules or avtk itself,
every name a module imports must be used in it, and every module-level
function or class must be referred to outside its own definition, so that
a deletion leaves no dead import or helper behind.  A public one may
instead be listed in UNREFERENCED_PUBLIC, with the caller outside
src/avtk that keeps it.  Only scalars.py reads the term map of a
FormalScalar, so formal matrices reach integers by one route,
scalars.monomial_flatten, and only scalars.py adds exponent tuples or
shifts bit fields, so every monomial outside a scalar is packed and
unpacked by one layout, scalars._packing.
Only scalars.py and torus.py ask whether a scalar is constant, so the
right period block of a frame is read by one set of helpers in torus.py,
and only torus.py calls standard_gram, so a standard frame's form is
built in one place.  Only intlinalg.py refers to _over_common_denominator,
so rational rows are cleared in one place, and rational matrices are
inverted by intlinalg.rat_inverse.  Only the bases errors.Immutable and
errors.Value, and FormalScalar, define assignment, deletion, equality or
hash, so the value-object rules are stated once.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "avtk").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree):
    """(top-level module or None for a relative import, bound name) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = None if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield top, alias.asname or alias.name


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_the_sources_are_found():
    assert {"homs.py", "intlinalg.py", "ppsearch.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_avtk(path):
    foreign = {top for top, _ in _imports(_tree(path))
               if top is not None and top != "avtk" and top not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = {name for _, name in _imports(tree)} - used
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def _referenced_names(node):
    """The names loaded or looked up as attributes anywhere under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unreferenced(public):
    """module:name of each module-level function or class, public or private
    as asked, that no module refers to outside the definition itself."""
    # the names each top-level node refers to, collected once per module
    nodes = {path.name: [(node, _referenced_names(node)) for node in _tree(path).body]
             for path in SOURCES}
    per_module = {name: set().union(*(names for _, names in body))
                  for name, body in nodes.items()}
    out = []
    for name, body in nodes.items():
        elsewhere = set().union(*(names for other, names in per_module.items() if other != name))
        for definition, _ in body:
            if (isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and definition.name.startswith("_") != public
                    and definition.name not in elsewhere
                    and not any(definition.name in names
                                for node, names in body if node is not definition)):
                out.append(f"{name}:{definition.name}")
    return sorted(out)


def test_every_private_module_level_definition_is_referenced():
    unreferenced = _unreferenced(public=False)
    assert not unreferenced, f"private definitions nothing refers to: {unreferenced}"


# The public definitions that no module of avtk refers to, and what keeps each.
UNREFERENCED_PUBLIC = {
    "intlinalg.py:det_mod2": "bench/tracer.py wraps it by name (ROADMAP item 5)",
    "intlinalg.py:rat_inv": "bench/tracer.py wraps it by name (ROADMAP item 5)",
    "intlinalg.py:symplectic_basis": "acceptance criterion 11 tests it",
    "torus.py:subgroup_elements": "bench/tracer.py wraps it by name (ROADMAP item 5)",
}


def test_every_public_module_level_definition_is_referenced_or_listed():
    # a listed name that gains a caller must leave the table, too
    assert _unreferenced(public=True) == sorted(UNREFERENCED_PUBLIC)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_only_scalars_reads_the_term_map(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Attribute) and node.attr == "terms")
    assert not lines, f"{path.name} reads .terms on lines {lines}; use monomial_flatten"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("scalars.py", "torus.py")],
                         ids=lambda p: p.name)
def test_only_torus_reads_constant_period_entries(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("is_constant", "constant_value"))
    assert not lines, (f"{path.name} reads a constant on lines {lines}; "
                       "use torus.constant_right_block or torus.standard_diagonal")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "torus.py"],
                         ids=lambda p: p.name)
def test_only_torus_builds_a_standard_form(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Call)
                   and "standard_gram" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None)))
    assert not lines, (f"{path.name} calls standard_gram on lines {lines}; "
                       "use torus.standard_torus or a frame's own gram")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "intlinalg.py"],
                         ids=lambda p: p.name)
def test_only_intlinalg_clears_rational_rows(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if "_over_common_denominator" in (getattr(node, "id", None),
                                                     getattr(node, "attr", None),
                                                     getattr(node, "name", None)))
    assert not lines, (f"{path.name} refers to _over_common_denominator on lines {lines}; "
                       "use intlinalg.rat_inverse, rat_solve or det")


def _packs_monomials(node):
    """Whether node shifts bit fields (<< or >>) or is tuple(map(add, ...)),
    exponent tuples added entry by entry."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.LShift, ast.RShift))
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tuple"
            and len(node.args) == 1 and isinstance(node.args[0], ast.Call)):
        return False
    inner = node.args[0]
    return (getattr(inner.func, "id", None) == "map" and bool(inner.args)
            and getattr(inner.args[0], "id", None) == "add")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "scalars.py"],
                         ids=lambda p: p.name)
def test_only_scalars_packs_monomials(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path)) if _packs_monomials(node))
    assert not lines, (f"{path.name} adds exponent tuples or shifts bit fields on lines {lines}; "
                       "use scalars._packing or scalars._slice_packing")


# The only classes that state immutability or equality; a value class gets
# both rules by deriving from errors.Immutable or errors.Value.
VALUE_RULES = {
    ("errors.py", "Immutable"): {"__setattr__", "__delattr__"},
    ("errors.py", "Value"): {"__eq__", "__hash__"},
    # equal to ints and Fractions, so not a Value
    ("scalars.py", "FormalScalar"): {"__eq__", "__hash__"},
}


def test_only_the_value_bases_state_immutability_and_equality():
    rules = {"__setattr__", "__delattr__", "__eq__", "__ne__", "__hash__"}
    found = {}
    for path in SOURCES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {node.name}
                else:  # __delattr__ = __setattr__, or __hash__ = None
                    targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                for name in names & rules:
                    found.setdefault((path.name, cls.name), set()).add(name)
    assert found == VALUE_RULES
