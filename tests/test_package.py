import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rfilab

MODULES = [rfilab.__name__] + [f"{rfilab.__name__}.{m.name}" for m in pkgutil.iter_modules(rfilab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def unused_imports(source: str) -> list:
    """Names bound by an import of ``source`` and never read, nor listed in
    ``__all__``; an import whose first line carries ``# noqa: F401`` is
    exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {alias.name}")
    return unused


def test_no_unused_imports():
    assert unused_imports("import json\nimport os.path\nfrom x import y  # noqa: F401\nos.sep\n") == ["1: json"]
    found = {
        path.name: unused
        for path in sorted(Path(rfilab.__file__).parent.glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
