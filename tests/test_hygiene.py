"""Static checks over the package and its tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = (sorted((ROOT / "src").rglob("*.py"))
         + sorted((ROOT / "tests").glob("*.py")))


# the oldest Python that pyproject.toml's requires-python admits
OLDEST_PYTHON = (3, 10)


@pytest.mark.parametrize(
    "path", FILES + sorted((ROOT / "koszulbench").glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)))
def test_every_file_parses_on_the_oldest_supported_python(path):
    ast.parse(path.read_text(), filename=str(path),
              feature_version=OLDEST_PYTHON)


def test_the_parse_check_sees_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=OLDEST_PYTHON)


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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def dead_stores(source: str) -> list[str]:
    """Function locals assigned and never read, as "function: name (line n)".

    A local is a name stored in the function's own scope (comprehensions
    included; nested functions, lambdas and classes have their own). It
    counts as read when the function, or a scope nested in it, loads it.
    Names that begin with "_" and names declared nonlocal or global are
    skipped.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, stack = [], list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            own.append(node)
            if not isinstance(node, SCOPES):
                stack.extend(ast.iter_child_nodes(node))
        declared = {name for node in own
                    if isinstance(node, (ast.Global, ast.Nonlocal))
                    for name in node.names}
        stored: dict[str, int] = {}
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno,
                                      stored.get(node.id, node.lineno))
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        found += [f"{fn.name}: {name} (line {line})"
                  for name, line in sorted(stored.items())
                  if name not in read and name not in declared
                  and not name.startswith("_")]
    return found


def test_the_scan_sees_dead_and_live_stores():
    source = ("def f(a):\n"
              "    b, c = a\n"
              "    d = 1\n"
              "    d += 1\n"
              "    _ = [e for e in a]\n"
              "    def g():\n"
              "        nonlocal h\n"
              "        h = c\n"
              "        k = 2\n"
              "        return lambda: c\n"
              "    h = 0\n"
              "    return g\n"
              "def m():\n"
              "    global n\n"
              "    n = 1\n")
    assert dead_stores(source) == ["f: b (line 2)", "f: d (line 3)",
                                   "f: h (line 11)", "g: k (line 9)"]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_stores_in_src(path):
    assert dead_stores(path.read_text()) == []


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
    "flatmodels._det_poly", "flatmodels._rational_zero",
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


def callers(source: str, name: str) -> list[str]:
    """Functions, by dotted path inside the module, whose body calls `name`,
    as a bare name or as an attribute such as `linalg.integer_rows`."""
    found: set[str] = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if name in (getattr(f, "id", None), getattr(f, "attr", None)):
                    found.add(".".join(path))
            visit(child, path)

    visit(ast.parse(source), ())
    return sorted(found)


def test_the_scan_sees_integer_rows_calls():
    source = ("def f(rows):\n"
              "    return linalg.integer_rows(rows)[0]\n"
              "class C:\n"
              "    def g(self):\n"
              "        return [integer_rows(r) for r in self.rows]\n"
              "def h(rows):\n"
              "    return linalg.integer_row(rows), linalg.integer_rows\n")
    assert callers(source, "integer_rows") == ["C.g", "f"]


# The functions of src/ that scale dense rational rows with
# `linalg.integer_rows`. Each reads a dense rational input; a solution or
# symbol basis is held as integer rows over scales from the solver on, so
# no round trip through `Fraction` vectors comes back unseen.
INTEGER_ROWS_CALLERS = [
    "connections.form_dual", "linalg._reduce_dense", "linalg.det",
    "linalg.integer_inverse", "linalg.rank",
]


def test_integer_rows_is_called_only_by_the_listed_functions():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        found += [f"{path.stem}.{f}"
                  for f in callers(path.read_text(), "integer_rows")]
    assert sorted(found) == INTEGER_ROWS_CALLERS


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes, as "module.name", that no
    module of `sources` (module name -> source) reads.

    A name counts as read when it appears as a variable, or as an attribute
    of any object (`linalg.rank`, but also `form.rank`), in any of the
    modules, its own included. An import alone, such as the package's
    re-exports, is not a read.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{m}.{name}" for m, name in defined if name not in read)


def test_the_scan_sees_unread_names():
    sources = {"a": ("def f(): pass\n"
                     "def g(): return h\n"
                     "def _p(): pass\n"
                     "class C: pass\n"
                     "def h(): return b.k\n"),
               "b": ("from a import f\n"
                     "def k(): pass\n"
                     "class D: pass\n"
                     "x = C()\n")}
    assert unread_public_names(sources) == ["a.f", "a.g", "b.D"]


# Public functions and classes of the package that no module of src/ reads.
# Each is library API, named in README as koszul.<module>.<name>; test
# fixtures and reference formulas live under tests/. A new one is added
# here and to README on purpose, or given a reader, or deleted.
UNREAD_PUBLIC_NAMES = [
    "cli.run", "cohomology.ce_coboundary_matrix",
    "cohomology.hochschild_coboundary", "cohomology.kv_coboundary",
    "cohomology.maurer_cartan_defect", "cohomology.zero_cochain",
    "connections.curvature_operators",
    "gauge.kernel_image_split", "gauge.phi_split",
    "gauge.solve_fe_double_star", "invariants.generic_rank",
    "invariants.hessian_cocycle_space", "linalg.commutator",
    "linalg.mat_vec", "linalg.row_space_basis",
]


def test_public_names_with_no_reader_in_src_are_listed():
    sources = {path.stem: path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert unread_public_names(sources) == UNREAD_PUBLIC_NAMES


def test_every_unread_public_name_is_documented_in_the_readme():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in UNREAD_PUBLIC_NAMES
            if f"koszul.{name}" not in readme] == []


def taking(source: str, name: str) -> list[str]:
    """Functions, by dotted path inside the module, that take a parameter
    called `name`: positional, keyword-only or variadic."""
    found: list[str] = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, ast.ClassDef):
                inner = path + (child.name,)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                inner = path + (getattr(child, "name", "<lambda>"),)
                a = child.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                names += [x.arg for x in (a.vararg, a.kwarg) if x]
                if name in names:
                    found.append(".".join(inner))
            visit(child, inner)

    visit(ast.parse(source), ())
    return sorted(found)


def test_the_scan_sees_adjoint_parameters():
    source = ("def f(sp, m, adjoint):\n"
              "    return adjoint\n"
              "class C:\n"
              "    def g(self, *, adjoint=False):\n"
              "        h = lambda adjoint: adjoint\n"
              "        return h\n"
              "def k(x, **adjoint):\n"
              "    adjoint = x == 'adjoint'\n"
              "    return adjoint\n"
              "def n(width, act):\n"
              "    adjoint = width > 1\n"
              "    return adjoint(act)\n")
    assert taking(source, "adjoint") == ["C.g", "C.g.<lambda>", "f", "k"]


def test_no_function_of_src_takes_an_adjoint_flag():
    # a coefficient module is a width and an action table, read from
    # `cohomology._module`; no generator chooses its formula by a flag
    found = [f"{path.stem}.{f}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for f in taking(path.read_text(), "adjoint")]
    assert found == []


def test_no_module_of_src_imports_the_tests():
    found = [f"{path.stem} imports {package}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for package in ("tests", "conftest", "oracles")
             if importers(path.read_text(), package) != ([], [])]
    assert found == []


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


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Lines that read the process environment: an attribute `environ`,
    `environb`, `getenv` or `getenvb` of any object, or one of those names
    imported from `os`."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ENVIRONMENT_NAMES for alias in node.names):
            lines.add(node.lineno)
    return [f"line {n}" for n in sorted(lines)]


def test_the_scan_sees_environment_reads():
    source = ("import os\n"
              "from os import getenv as g, sep\n"
              "def f():\n"
              "    return os.environ.get('X', os.path.join('a', sep))\n"
              "def h():\n"
              "    return os.getenv('Y')\n"
              "environ = {}\n")
    assert environment_reads(source) == ["line 2", "line 4", "line 6"]


def test_no_module_of_src_reads_the_environment():
    # a report depends on its argv alone: every option is a flag
    found = [f"{path.relative_to(ROOT)} {line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in environment_reads(path.read_text())]
    assert found == []
