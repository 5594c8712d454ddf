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


def unreferenced_names(sources: dict) -> list:
    """``<file>: <name>`` for each top-level def, class or assignment in
    ``sources`` (file name -> source) that no file reads, imports or lists in
    ``__all__``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
    unreferenced = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [f"{file}: {name}" for name in names if name not in read and name != "__all__"]
    return unreferenced


def test_no_unreferenced_module_names():
    sample = {
        "a.py": "X = 1\nY: int = 2\n__all__ = ['Y']\n"
        "def f():\n    return g()\ndef g():\n    pass\nclass C:\n    pass\n",
        "b.py": "from a import C\nimport a\nZ = a.X\n",
    }
    assert unreferenced_names(sample) == ["a.py: f", "b.py: Z"]
    package = Path(rfilab.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert unreferenced_names(sources) == []


def test_no_unused_imports():
    assert unused_imports("import json\nimport os.path\nfrom x import y  # noqa: F401\nos.sep\n") == ["1: json"]
    found = {
        path.name: unused
        for path in sorted(Path(rfilab.__file__).parent.glob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
