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
