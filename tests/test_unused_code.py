"""Nothing in the package lives for the tests alone: every function, method and
class it defines is used by name in the package or in the benchmark.  No file
of the package or of the tests imports a name it never reads."""

import ast
from pathlib import Path

import neural_atoms

PACKAGE = Path(neural_atoms.__file__).parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent


def defined_names(tree: ast.AST) -> set[str]:
    """Functions, methods and classes defined anywhere in ``tree``, dunders aside."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def used_names(tree: ast.AST) -> set[str]:
    """Names read or assigned, attributes, and string constants in ``tree``.

    A string counts because the benchmark's tracer looks functions up with
    ``getattr`` by their names.
    """
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def parse(paths) -> list[ast.AST]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)]


def unused_definitions(package_dir: Path, benchmark_dir: Path) -> set[str]:
    package = parse(package_dir.glob("*.py"))
    defined = set().union(*map(defined_names, package))
    used = set().union(*map(used_names, package + parse(benchmark_dir.glob("*.py"))))
    return defined - used


def test_every_definition_is_used_outside_the_tests():
    assert BENCHMARK.is_dir()
    assert unused_definitions(PACKAGE, BENCHMARK) == set()


def test_an_unused_helper_is_found(tmp_path):
    package, benchmark = tmp_path / "package", tmp_path / "benchmark"
    package.mkdir()
    benchmark.mkdir()
    (package / "module.py").write_text(
        "class Used:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def method(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return Used().method()\n"
        "def hooked():\n"
        "    pass\n"
        "def only_tests_call_this():\n"
        "    pass\n", encoding="utf-8")
    (benchmark / "bench.py").write_text("getattr(module, 'hooked')\n", encoding="utf-8")
    assert unused_definitions(package, benchmark) == {"only_tests_call_this"}


def unused_imports(path: Path) -> set[str]:
    """Names that ``path`` imports and never reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_no_file_imports_a_name_it_never_reads():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 20
    unused = {path.name: sorted(unused_imports(path)) for path in files}
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as decode\n"
        "from csv import writer\n"
        "def f(x: int) -> str:\n"
        "    writer = None\n"
        "    return dumps(np.zeros(x).tolist()) + os.sep\n", encoding="utf-8")
    assert unused_imports(module) == {"decode", "writer"}
