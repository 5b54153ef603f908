"""Static checks over the package and its tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = (sorted((ROOT / "src").rglob("*.py"))
         + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, nor listed in `__all__`.

    `from __future__` imports are skipped. A name counts as read when it
    appears as a variable anywhere in the module, annotations included. An
    `__all__` that is not a literal (the package's is built from `dir()`)
    re-exports every name.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                           ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            try:
                exported.update(ast.literal_eval(node.value))
            except ValueError:
                return []
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read and name not in exported]


def test_the_scan_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import gcd as g, lcm\n"
              "from x import y\n"
              "__all__ = ['y']\n"
              "def f(a: lcm) -> int:\n"
              "    return sys.maxsize\n")
    assert unused_imports(source) == ["g (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def importers(source: str, package: str) -> tuple[list[str], list[str]]:
    """(functions whose body imports `package`, its top-level imports).

    A function is named by its dotted path inside the module; an import is
    top level when no function encloses it.
    """
    functions: set[str] = set()
    top: list[str] = []

    def imports_package(node) -> bool:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            return False
        return any(n.partition(".")[0] == package for n in names)

    def visit(node, path, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                is_function = not isinstance(child, ast.ClassDef)
                visit(child, path + (child.name,), in_function or is_function)
            elif imports_package(child):
                if in_function:
                    functions.add(".".join(path))
                else:
                    top.append(f"line {child.lineno}")
            else:
                visit(child, path, in_function)

    visit(ast.parse(source), (), False)
    return sorted(functions), top


def test_the_scan_sees_sympy_imports():
    source = ("import sympy.abc\n"
              "def f():\n"
              "    from sympy import Matrix\n"
              "class C:\n"
              "    def g(self):\n"
              "        if True:\n"
              "            import sympy\n"
              "def h():\n"
              "    import os\n")
    assert importers(source, "sympy") == (["C.g", "f"], ["line 1"])


# The verdict routes that still run on sympy; each leaves this list once
# an exact linear-algebra certificate replaces it.
SYMPY_FUNCTIONS = [
    "flatmodels._det_poly", "flatmodels._exact_small_dim",
    "flatmodels._rational_roots", "flatmodels._rational_zero_search",
    "invariants._flat_existence_exact_small",
]


def test_sympy_is_imported_only_by_the_listed_functions():
    found, top = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        functions, imports = importers(path.read_text(), "sympy")
        found += [f"{path.stem}.{f}" for f in functions]
        top += [f"{path.relative_to(ROOT)} {line}" for line in imports]
    assert sorted(found) == SYMPY_FUNCTIONS
    assert top == []


def test_the_scan_sees_numpy_imports():
    source = ("import numpy as np\n"
              "from numpy.linalg import inv\n"
              "def f():\n"
              "    try:\n"
              "        import numpy\n"
              "    except ImportError:\n"
              "        pass\n"
              "def g():\n"
              "    import numpyro, sympy\n")
    assert importers(source, "numpy") == (["f"], ["line 1", "line 2"])


def test_numpy_is_imported_only_by_statmodel_and_jsonable():
    # exact Fractions everywhere but the floating-point statmodel;
    # io.jsonable imports numpy only to convert the arrays statmodel returns
    found, top = [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        functions, imports = importers(path.read_text(), "numpy")
        found += [f"{path.stem}.{f}" for f in functions]
        top += [str(path.relative_to(ROOT / "src")) for _ in imports]
    assert found == ["io.jsonable"]
    assert top == ["koszul/statmodel.py"]


def test_random_is_imported_only_by_the_seeded_searches():
    # the involutivity basis search is the one search left that draws
    # random numbers; every other verdict is seed-free
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        functions, imports = importers(path.read_text(), "random")
        if functions or imports:
            found.append(str(path.relative_to(ROOT / "src")))
    assert found == ["koszul/spencer.py"]
