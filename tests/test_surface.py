"""The package's surface carries nothing that nothing uses.

- Every name a module imports with `from ... import` is used in it.
- Every public top-level function or class is referenced beyond its own
  definition in the package or in a non-test file under `bench/`; a name
  that only tests or the README mention has no caller, and none is exempt.
- Every private top-level function or class is referenced in the package
  beyond its own definition.
- Every name the README's "What it computes" documents is defined in the
  package.
- Only `IdealPresentation` touches the caches by which a derived ideal
  extends its parent's basis.
- Only `IdealPresentation.signature` renders a reduced basis as text.

`__init__.py` only re-exports, so its imports count as uses of nothing.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "conesign").glob("*.py") if p.name != "__init__.py")
BENCH = sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(tree) -> set:
    """Names a module reads, calls or imports, as bare names or through
    `from ... import`.  An attribute does not count: `args.ideal` names a
    parsed option, not the function `ideal`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _documented() -> set:
    """The names the README's "What it computes" documents: the leading
    name of each code span, so `ideal(ring, text)` documents `ideal`, and
    the plural s after `ModuleVector`s is no name."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## What it computes", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", section)
    return {m.group() for m in map(re.compile(r"\w+").match, spans) if m}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_public_name_has_a_caller():
    tops = [(path.stem, node) for path in MODULES for node in _tree(path).body]
    names = [_referenced(node) for _, node in tops]
    bench = set().union(*(_referenced(_tree(path)) for path in BENCH))
    unused = {f"{module}.{node.name}" for k, (module, node) in enumerate(tops)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in bench
              and not any(node.name in used for j, used in enumerate(names) if j != k)}
    assert sorted(unused) == []


def test_every_documented_name_is_defined():
    # a deleted function must not leave its documentation behind; methods
    # count, as `contains` documents IdealPresentation.contains
    defined = {node.name for path in MODULES for node in ast.walk(_tree(path))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(_documented() - defined) == []


def test_every_private_name_is_used_beyond_its_definition():
    tops = [(path.stem, node) for path in MODULES for node in _tree(path).body]
    names = [_referenced(node) for _, node in tops]
    unused = [f"{module}.{node.name}" for k, (module, node) in enumerate(tops)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and not any(node.name in used for j, used in enumerate(names) if j != k)]
    assert unused == []


def test_only_ideal_presentation_touches_its_basis_caches():
    # whether a derived ideal starts from its parent's reduced basis is
    # decided in one class, so no other code reads or writes what it keeps
    private = {"_basis"}

    def uses(node):
        return [n for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and n.attr in private
                or isinstance(n, ast.Name) and n.id in private
                or isinstance(n, ast.Constant) and n.value in private]

    inside, outside = [], []
    for path in sorted((ROOT / "src" / "conesign").glob("*.py")):
        tree = _tree(path)
        owner = [n for n in tree.body if isinstance(n, ast.ClassDef)
                 and n.name == "IdealPresentation" and path.name == "ideals.py"]
        mine = {id(n) for cls in owner for n in uses(cls)}
        for n in uses(tree):
            (inside if id(n) in mine else outside).append(f"{path.name}:{n.lineno}")
    assert inside and outside == []


def test_only_signature_renders_a_reduced_basis():
    # reports show an ideal as its signature(), so how one looks is decided
    # in one place; a comprehension over X.gb() calling to_text() on each
    # element is such a rendering
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)

    def renders(node):
        elt = getattr(node, "elt", None)
        return isinstance(node, comprehensions) and any(
            isinstance(gen.iter, ast.Call) and isinstance(gen.iter.func, ast.Attribute)
            and gen.iter.func.attr == "gb" and isinstance(gen.target, ast.Name)
            and isinstance(elt, ast.Call) and isinstance(elt.func, ast.Attribute)
            and elt.func.attr == "to_text" and isinstance(elt.func.value, ast.Name)
            and elt.func.value.id == gen.target.id
            for gen in node.generators)

    def sites(node, scope):
        """The dotted scope of each rendering under node."""
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if renders(node):
            yield ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from sites(child, scope)

    found = [f"{path.name}:{site}" for path in sorted((ROOT / "src" / "conesign").glob("*.py"))
             for site in sites(_tree(path), ())]
    assert found == ["ideals.py:IdealPresentation.signature"]
