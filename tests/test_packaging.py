"""The runtime imports of ``src/embedflow`` are exactly the declared
dependencies, and the verification routes import nothing of the code they
check: the solve (``embedding``), the flow (``flow``) and the ODE oracle
(``oracle``) are read for their import edges with ``ast``, without running.
The same reading finds that every name the package exports is run by a
verb or by the benchmark.

``pyproject.toml`` is read with a small line parser rather than ``tomllib``,
which Python 3.10 lacks; it understands the string arrays this project uses.
"""

import ast
import functools
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "embedflow"


def _arrays(section: str) -> dict:
    """``name = [ "..." , ... ]`` string arrays of one pyproject section."""
    out, current, name = {}, None, None
    for raw in (ROOT / "pyproject.toml").read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and not line.startswith("[["):
            current = line.strip("[]").strip()
            name = None
            continue
        if current != section or not line:
            continue
        if name is None:
            match = re.match(r"([A-Za-z0-9_.-]+)\s*=\s*\[(.*)$", line)
            if match is None:
                continue
            name, line = match.group(1), match.group(2)
            out[name] = []
        out[name] += re.findall(r'"([^"]*)"', line)
        if "]" in line:
            name = None
    return out


def _distribution(requirement: str) -> str:
    """Import name of a requirement such as ``numpy>=1.24``."""
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    return name.lower().replace("-", "_")


def _third_party_imports() -> set:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in (
                    "__future__",
                    "embedflow",
                ):
                    found.add(top)
    return found


def test_runtime_imports_are_the_declared_dependencies():
    declared = {_distribution(r) for r in _arrays("project")["dependencies"]}
    assert declared == {"numpy"}
    assert _third_party_imports() == declared


def test_no_test_only_dependency_is_imported():
    test_only = {
        _distribution(r) for r in _arrays("project.optional-dependencies")["test"]
    }
    assert test_only == {"pytest", "scipy", "sympy"}
    assert not _third_party_imports() & test_only


def _benchmark_imports():
    """``(path, module, name)`` for every name that ``perfbench/*.py``
    imports from embedflow, or reads off the package as ``embedflow.<name>``."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] != "embedflow":
                    continue
                module = node.module
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id != "embedflow":
                    continue
                module = "embedflow"
                names = [node.attr]
            else:
                continue
            for name in names:
                yield path, module, name


def test_benchmark_imports_exist():
    """Every name that ``perfbench/*.py`` imports from embedflow, or reads
    off the package as ``embedflow.<name>``, is there: a deletion in
    ``src/`` that would break the benchmark fails here."""
    import importlib.util

    checked = 0
    for path, module_name, name in _benchmark_imports():
        module = importlib.import_module(module_name)
        submodule = f"{module.__name__}.{name}"
        if not hasattr(module, name) and importlib.util.find_spec(submodule):
            importlib.import_module(submodule)  # an attribute once imported
        assert hasattr(module, name), (path.name, module.__name__, name)
        checked += 1
    assert checked


# -- the verification routes stay independent -----------------------------------


def _imports(module: str) -> dict:
    """``{module: names}`` that ``embedflow/<module>.py`` imports anywhere
    in its body, read with ``ast``: package modules by their full name,
    and ``"*"`` among the names of a module imported whole."""
    path = PACKAGE / f"{module}.py"
    found: dict = {}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, "*") for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            pairs = [(f"embedflow.{alias.name}", "*") for alias in node.names]  # from . import x
        elif isinstance(node, ast.ImportFrom):
            prefix = "embedflow." if node.level else ""
            pairs = [(prefix + node.module, alias.name) for alias in node.names]
        else:
            continue
        for name, attr in pairs:
            found.setdefault(name, set()).add(attr)
    return found


def _reaches(module: str) -> set:
    """The package modules that ``module`` imports, directly or through
    other package modules."""
    seen, todo = set(), [module]
    while todo:
        for name in _imports(todo.pop()):
            if name.startswith("embedflow.") and name not in seen:
                seen.add(name)
                todo.append(name.removeprefix("embedflow."))
    return seen


ROUTES = {"embedflow.flow", "embedflow.oracle", "embedflow.verdict"}


def test_solve_imports_no_verification_route():
    assert not _reaches("embedding") & ROUTES


def test_flow_imports_neither_the_solve_nor_the_oracle():
    assert not _reaches("flow") & {"embedflow.embedding", "embedflow.oracle", "embedflow.verdict"}


def test_oracle_imports_only_numpy_jet_types_and_its_tolerances():
    imports = _imports("oracle")
    allowed = {
        "__future__": {"annotations"},
        "math": None,
        "operator": {"add"},
        "numpy": None,
        "embedflow.jets": {"MODE_FLOAT", "MultiIndex", "PolyJet"},
    }
    tolerances = imports.pop("embedflow.tolerances", {"*"})
    assert tolerances and all(name.startswith("ODE_") for name in tolerances)
    for module, names in imports.items():
        assert module in allowed, module
        assert allowed[module] is None or names <= allowed[module], (module, names)


def test_only_the_verdict_imports_both_routes():
    both = [
        path.stem
        for path in PACKAGE.glob("*.py")
        if {"embedflow.flow", "embedflow.oracle"} <= _imports(path.stem).keys()
    ]
    assert both == ["verdict"]


# -- every export is run by a verb or by the benchmark ---------------------------


def _bindings(module: str) -> dict:
    """``{name: (module, name)}``: the names that ``embedflow/<module>.py``
    binds by importing them from another package module."""
    return {
        name: (source.removeprefix("embedflow."), name)
        for source, names in _imports(module).items()
        if source.startswith("embedflow.")
        for name in names
    }


def _references(module: str) -> dict:
    """``{name: names}``: every name that each top-level function, class or
    assignment of ``embedflow/<module>.py`` refers to in its body."""
    path = PACKAGE / f"{module}.py"
    found: dict = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [target.id for target in node.targets if isinstance(target, ast.Name)]
        else:
            continue
        used = {ref.id for ref in ast.walk(node) if isinstance(ref, ast.Name)}
        for name in defined:
            found.setdefault(name, set()).update(used)
    return found


def _reachable(roots) -> set:
    """The ``(module, name)`` definitions that the ``(module, name)`` roots
    refer to, directly or through other definitions, with every imported
    name followed to the module that defines it."""

    @functools.cache
    def tables(module):
        return _references(module), _bindings(module)

    def resolve(module, name):
        while True:
            references, bindings = tables(module)
            if name in references:
                return module, name
            if name not in bindings:
                return None  # a builtin, a third-party or a local name
            module, name = bindings[name]

    seen, todo = set(), [resolve(*root) for root in roots]
    while todo:
        node = todo.pop()
        if node is None or node in seen:
            continue
        seen.add(node)
        module, name = node
        todo += [resolve(module, used) for used in tables(module)[0][name]]
    return seen


def test_every_export_is_reachable_from_a_verb_or_the_benchmark():
    """Every name that ``embedflow`` exports is reached, through the names
    that function and class bodies refer to, from ``cli.main`` or from a
    name that ``perfbench/*.py`` imports: the package exports nothing that
    only tests run."""
    roots = [("cli", "main")]
    for _, module, name in _benchmark_imports():
        roots.append((module.removeprefix("embedflow").lstrip(".") or "__init__", name))
    reachable = _reachable(roots)
    exports = _bindings("__init__")
    dead = sorted(name for name, definition in exports.items() if definition not in reachable)
    assert exports
    assert dead == []
