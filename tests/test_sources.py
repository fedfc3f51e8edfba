"""Static checks on the sources of the mal package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mal"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_imported_name_is_used(module):
    tree = ast.parse((SRC / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a; `from m import x as y` binds y
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _walk_outside(node, skip):
    """Nodes of the tree under node, leaving out the subtree rooted at skip."""
    if node is not skip:
        yield node
        for child in ast.iter_child_nodes(node):
            yield from _walk_outside(child, skip)


def _references(tree, skip=None):
    """Names a module reads, as a bare name, an attribute or an import."""
    refs = set()
    for node in _walk_outside(tree, skip):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def _private_definitions(tree):
    """(name, statement) for every module-level _name bound by def, class or assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_private_name_is_used(module):
    """Each module-level _name is read somewhere in the package outside its own definition."""
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    own = trees.pop(module)
    elsewhere = set().union(*map(_references, trees.values()))
    unused = [
        name for name, stmt in _private_definitions(own)
        if name not in elsewhere | _references(own, skip=stmt)
    ]
    assert unused == []


def _public_definitions(tree):
    """(name, statement) for every public module-level def or class and every public method."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_public_name_is_reached_outside_unit_tests(module):
    """Each public def, class or method is read by the package outside its own
    definition, or by the acceptance checks; code only unit tests reach
    belongs in tests/helpers.py.

    Names are matched as bare names and as attributes alike, so two methods
    that share a name count as one: a read of either keeps both.
    """
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    own = trees.pop(module)
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    elsewhere = set().union(_references(acceptance), *map(_references, trees.values()))
    unreached = [
        name for name, stmt in _public_definitions(own)
        if name not in elsewhere | _references(own, skip=stmt)
    ]
    assert unreached == []


def test_grid_derivatives_have_one_path():
    """In grid.py only the grid type, laplacian_symbol and axis_matrices read
    .scheme: every derivative runs through the axis matrices on both schemes."""
    tree = ast.parse((SRC / "grid.py").read_text())
    readers = {
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr == "scheme"
    }
    assert readers <= {"Grid", "laplacian_symbol", "axis_matrices"}
