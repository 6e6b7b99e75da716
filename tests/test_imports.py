"""Every name a module of the package, a tool or a test imports is used in that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The package's __init__ imports names only to re-export them.
MODULES = sorted(p for p in (ROOT / "src" / "ngdbf").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tools").glob("*.py"))
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tests" / "support").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == [(1, "os")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"support/{p.name}" if p.parent.name == "support" else p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
