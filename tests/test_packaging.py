"""The runtime imports of ``src/embedflow`` are exactly the declared dependencies.

``pyproject.toml`` is read with a small line parser rather than ``tomllib``,
which Python 3.10 lacks; it understands the string arrays this project uses.
"""

import ast
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


def test_benchmark_imports_exist():
    """Every name that ``perfbench/*.py`` imports from embedflow, or reads
    off the package as ``embedflow.<name>``, is there: a deletion in
    ``src/`` that would break the benchmark fails here."""
    import importlib.util

    checked = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] != "embedflow":
                    continue
                module = importlib.import_module(node.module)
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id != "embedflow":
                    continue
                module = importlib.import_module("embedflow")
                names = [node.attr]
            else:
                continue
            for name in names:
                submodule = f"{module.__name__}.{name}"
                if not hasattr(module, name) and importlib.util.find_spec(submodule):
                    importlib.import_module(submodule)  # an attribute once imported
                assert hasattr(module, name), (path.name, module.__name__, name)
                checked += 1
    assert checked
