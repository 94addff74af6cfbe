"""Structure of the package: exact-only source, module-level imports that
form a layered (acyclic) graph (the shared test helpers import at module
level too), and demos that run."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpezzo"
MODULES = sorted(PACKAGE.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
HELPERS = ROOT / "tests" / "_helpers.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(path):
    """Names of the sibling modules a module imports."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                names.update(alias.name for alias in node.names)
            else:
                names.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("delpezzo."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("delpezzo.")
            )
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_constants(path):
    floats = [
        node.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert floats == [], f"float constants on lines {floats}"


@pytest.mark.parametrize("path", MODULES + [HELPERS], ids=lambda p: p.name)
def test_no_function_level_imports(path):
    nested = [
        inner.lineno
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert nested == [], f"imports inside functions on lines {nested}"


def test_no_assert_statements():
    """``python -O`` strips asserts, so the package checks with raises."""
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == [], f"assert statements at {asserts}"


def test_import_graph_is_acyclic():
    graph = {path.stem: package_imports(path) for path in MODULES}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, "import cycle: " + " -> ".join(path + [name])
        if name in done:
            return
        for dep in sorted(graph.get(name, ())):
            visit(dep, path + [name])
        done.add(name)

    for name in graph:
        visit(name, [])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_from_siblings(path):
    private = [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").startswith("delpezzo"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"private names imported: {private}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
