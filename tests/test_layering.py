"""Structure of the package: exact-only source, module-level imports that
form a layered (acyclic) graph (the shared test helpers import at module
level too), one lattice kernel, and demos that run."""

import ast
import json
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
SAME_WORK = ROOT / "tests" / "same_work.py"


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


# Calls that build the class H = -K or K.  A product with one of them is
# picard.anticanonical_degree (K.D is its negative), so none reaches dot.
H_OR_K_BUILDERS = {
    "canonical_divisor",
    "anticanonical_divisor",
    "canonical_class",
    "anticanonical_class",
}


def call_name(node):
    """f for a call f(...) or x.f(...), else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def builds_h_or_k(node):
    return call_name(node) in H_OR_K_BUILDERS


def h_or_k_products(tree):
    """Lines of dot(...) calls with an argument that builds H or K, or reads
    a name the same function bound to such a call."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and any(map(builds_h_or_k, ast.walk(node.value)))
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(fn):
            if call_name(call) == "dot" and any(
                builds_h_or_k(node) or (isinstance(node, ast.Name) and node.id in bound)
                for arg in call.args
                for node in ast.walk(arg)
            ):
                found.append(call.lineno)
    return sorted(found)


def test_h_or_k_product_lint_catches_each_form():
    tree = ast.parse(
        "def f(S, C, x):\n"
        "    K = canonical_divisor(S.d)\n"
        "    H = S.anticanonical_class()\n"
        "    dot(C, K)\n"
        "    dot(H, x.c1)\n"
        "    dot(anticanonical_divisor(S.d), x.c1)\n"
        "    picard.dot(C, -S.canonical_class())\n"
        "    dot(C, C)\n"
    )
    assert h_or_k_products(tree) == [4, 5, 6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dot_with_h_or_k(path):
    lines = h_or_k_products(parse(path))
    assert lines == [], f"dot with a built H or K on lines {lines}; use anticanonical_degree"


def run_script(path, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_script(demo)
    assert proc.returncode == 0, proc.stderr


def test_same_work_sweep_smoke_runs():
    proc = run_script(SAME_WORK, "--smoke")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) > 1000
    assert all(("ok" in r) != ("error" in r) for r in records)
    assert any(r["call"].startswith("cli ") for r in records)
