import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rfilab

MODULES = [rfilab.__name__] + [f"{rfilab.__name__}.{m.name}" for m in pkgutil.iter_modules(rfilab.__path__)]
ROOT = Path(__file__).resolve().parents[1]


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


def read_names(tree: ast.AST, imports: bool = True) -> set:
    """Names that ``tree`` reads, as a name or an attribute, and, when
    ``imports``, the names it imports with ``from ... import``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports:
            read |= {alias.name for alias in node.names}
    return read


def unreferenced_names(sources: dict) -> list:
    """``<file>: <name>`` for each top-level def, class or assignment in
    ``sources`` (file name -> source) that no file reads, imports or lists in
    ``__all__``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= read_names(tree)
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


def readme_sketch() -> str:
    """The Python block under the README's "Library sketch" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_sketch_runs():
    src = str(Path(rfilab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", readme_sketch()], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_has_a_caller():
    # a name in a module's __all__, or a public method of a class in src/, is
    # read by the program, by the README's library sketch or by the benchmark;
    # the package's re-exports are no caller
    assert read_names(ast.parse("from m import a\nb.c(d)\n"), imports=False) == {"b", "c", "d"}
    read = read_names(ast.parse(readme_sketch()))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rfilab.__file__).parent.glob("*.py"))}
    for stem, tree in trees.items():
        read |= read_names(tree, imports=stem != "__init__")
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        read |= read_names(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = {module: [n for n in importlib.import_module(module).__all__ if n not in read] for module in MODULES}
    assert {module: names for module, names in uncalled.items() if names} == {}
    methods = [f"{stem}.{cls.name}.{node.name}" for stem, tree in trees.items() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert [method for method in methods if method.rsplit(".", 1)[1] not in read] == []


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/spans.py wraps rfilab attributes by name (cli.monte_carlo_floor,
    # transport.linear_sum_assignment, ...): a rename fails here, not in `--trace 1`.
    # cli imports monte_carlo_floor and estimate_violation only to be wrapped
    from rfilab import cli, transport

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    names = ("monte_carlo_floor", "estimate_violation", "estimate_violation_in_expectation")
    before = {name: getattr(cli, name) for name in names}
    solver = transport.linear_sum_assignment
    with spans.installed(spans.Tracer()):
        assert [name for name in names if getattr(cli, name) is before[name]] == []
    assert {name: getattr(cli, name) for name in names} == before
    assert transport.linear_sum_assignment is solver
