"""Structure of the package: exact-only source, module-level imports that
form a layered (acyclic) graph (the shared test helpers import at module
level too), one lattice kernel, no public name, method or operator that
only tests call, no public parameter that its function never reads, no
flag parameter, and demos that run."""

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
BENCH = sorted((ROOT / "bench").glob("*.py"))
INIT = PACKAGE / "__init__.py"
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


@pytest.mark.parametrize("name", ["pipeline.py", "pairs.py"])
def test_slope_order_modules_import_nothing_from_fractions(name):
    """The pipeline and the pair layer order slopes by integer
    cross-multiplication (``chern.compare_mu``); a Fraction is built only
    where a slope is shown."""
    found = [
        node.lineno
        for node in ast.walk(parse(PACKAGE / name))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]
    assert found == [], f"fractions imported on lines {found}"


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


def test_only_mutation_names_the_certificate_flag():
    """``mutation`` owns the exceptionality certificate: no other module
    reads or sets ``_certified``."""
    found = [
        path.name
        for path in MODULES
        if path.name != "mutation.py" and "_certified" in path.read_text(encoding="utf-8")
    ]
    assert found == []


# Each function that grants the exceptionality certificate, with why its
# output is exceptional.  A grant is a call _set_certified(x, flag) whose
# flag is not the constant False.
CERTIFICATE_GRANTS = {
    "mutation.require_numerically_exceptional": "a full scan passed",
    "mutation._certify_move": "a move's new row and column passed",
    "mutation.mutate_collection": "the undo record's members were certified",
    "mutation.rotate_twist": "a helix window of a certified foundation",
    "mutation.global_twist": "a twist keeps every chi",
    "mutation.is_recorded_state": "equal to a certified collection",
}


def certificate_grants(tree, module):
    """module.function (module.Class.method for a method) for each
    top-level function or method whose body, nested functions included,
    may set the certificate."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(fn.name, fn) for fn in tree.body if isinstance(fn, functions)]
    defs += [
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, functions)
    ]
    return sorted(
        f"{module}.{name}"
        for name, fn in defs
        if any(
            call_name(node) == "_set_certified"
            and not (
                len(node.args) == 2
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value is False
            )
            for node in ast.walk(fn)
        )
    )


def test_certificate_grant_lint_names_a_planted_grant():
    tree = ast.parse(
        "def reflect(c):\n"
        '    """_set_certified(out, True) is not a call."""\n'
        "    out = Collection(c.surface, c.members[::-1])\n"
        "    _set_certified(out, True)\n"
        "    return out\n"
        "def fresh(c):\n"
        "    _set_certified(c, False)\n"
        "def relay(c, out):\n"
        "    def inner():\n"
        "        _set_certified(out, c._certified)\n"
        "    inner()\n"
        "class Collection:\n"
        "    def certify(self):\n"
        "        _set_certified(self, True)\n"
    )
    assert certificate_grants(tree, "mutation") == [
        "mutation.Collection.certify", "mutation.reflect", "mutation.relay"
    ]


def test_every_certificate_grant_is_listed():
    """Only the listed functions grant the certificate: no unlisted site in
    any module, and no listed entry that grants nothing."""
    found = {
        site for path in MODULES for site in certificate_grants(parse(path), path.stem)
    }
    assert sorted(found - CERTIFICATE_GRANTS.keys()) == [], "unlisted grants"
    assert sorted(CERTIFICATE_GRANTS.keys() - found) == [], "stale entries"


def test_only_mutation_names_the_undo_record():
    """``mutation`` owns the record of the move that undoes a mutation's
    output: no other module reads or sets ``_undo``."""
    found = [
        path.name
        for path in MODULES
        if path.name != "mutation.py" and "_undo" in path.read_text(encoding="utf-8")
    ]
    assert found == []


def collector_reach(tree):
    """(imports, reads): the lines that import ``gc``, and the lines that
    read ``gc.<name>`` outside the top-level function ``main``.  A
    ``from gc import`` or an ``import gc as`` hides the name, so it counts
    as both."""
    inside_main = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
        for inner in ast.walk(node)
    }
    imports, reads = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases = [a for a in node.names if a.name == "gc"]
            if aliases:
                imports.append(node.lineno)
            if any(a.asname for a in aliases):
                reads.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            imports.append(node.lineno)
            reads.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
            and id(node) not in inside_main
        ):
            reads.append(node.lineno)
    return sorted(imports), sorted(reads)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_process_entry_touches_the_collector(path):
    """``cli.main`` alone may freeze or collect: a program that imports the
    library, or calls ``cli.run``, keeps its own collector as it was."""
    imports, reads = collector_reach(parse(path))
    if path.name != "cli.py":
        assert imports == [], f"gc imported on lines {imports}"
    assert reads == [], f"gc reached outside main on lines {reads}"


def test_collector_lint_catches_each_form():
    tree = ast.parse(
        "import gc\n"
        "gc.freeze()\n"
        "def run(argv):\n"
        '    """gc.collect() is not a call."""\n'
        "    gc.collect()\n"
        "def main():\n"
        "    gc.freeze()\n"
        "    run([])\n"
        "class C:\n"
        "    def main(self):\n"
        "        gc.disable()\n"
        "from gc import freeze\n"
        "import os, gc as g\n"
    )
    assert collector_reach(tree) == ([1, 12, 13], [2, 5, 11, 12, 13])


def object_setattr_calls(tree):
    """Lines of object.__setattr__(...) calls."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_slots_are_set_through_their_setters(path):
    """A value's slots are set through the setters ``values.slot_setters``
    binds at import, not by name through ``object.__setattr__``; tests may
    still forge a slot that way."""
    lines = object_setattr_calls(parse(path))
    assert lines == [], f"object.__setattr__ calls on lines {lines}"


def test_object_setattr_lint_catches_a_call_not_a_mention():
    tree = ast.parse(
        'def f(x):\n'
        '    """object.__setattr__(x, "a", 1) is not a call."""\n'
        '    object.__setattr__(x, "a", 1)\n'
        '    super().__setattr__("a", 1)\n'
        '    setattr(x, "a", 1)\n'
    )
    assert object_setattr_calls(tree) == [3]


def isinstance_int_calls(tree):
    """Lines of isinstance(x, int) calls, int alone or inside a tuple: a
    bool passes such a check, and json.dumps writes it as true."""

    def names_int(node):
        if isinstance(node, ast.Tuple):
            return any(names_int(e) for e in node.elts)
        return isinstance(node, ast.Name) and node.id == "int"

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and names_int(node.args[1])
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_integers_are_checked_by_exact_type(path):
    """An integer argument is checked with ``type(x) is int``."""
    lines = isinstance_int_calls(parse(path))
    assert lines == [], f"isinstance(..., int) calls on lines {lines}"


def test_isinstance_int_lint_catches_each_form():
    tree = ast.parse(
        "def f(x):\n"
        '    """isinstance(x, int) is not a call."""\n'
        "    isinstance(x, int)\n"
        "    isinstance(x.n, (str, int))\n"
        "    isinstance(x, ((int, str), float))\n"
        "    isinstance(x, float)\n"
        "    isinstance(x, Interval)\n"
        "    type(x) is int\n"
    )
    assert isinstance_int_calls(tree) == [3, 4, 5]


def hand_key_checks(tree, whole_module):
    """Lines that check a JSON object's keys or type by hand, in each
    function whose name ends in ``from_json`` or, given whole_module, in the
    whole tree: isinstance(x, dict), type(x) is dict, set(x), frozenset(x),
    x.keys() and a "key" in x test.  Such checks belong to
    ``values.JsonFormat.read``, the one reader of an object."""

    def names_dict(node):
        if isinstance(node, ast.Tuple):
            return any(names_dict(e) for e in node.elts)
        return isinstance(node, ast.Name) and node.id == "dict"

    def is_check(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, args = node.func.id, node.args
            if name == "isinstance" and len(args) == 2 and names_dict(args[1]):
                return True
            return name in ("set", "frozenset") and bool(args)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr == "keys"
        if isinstance(node, ast.Compare):
            left_is_key = isinstance(node.left, ast.Constant) and type(node.left.value) is str
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.In, ast.NotIn)) and left_is_key:
                    return True
                if isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) and names_dict(right):
                    return True
        return False

    scopes = [tree] if whole_module else [
        fn
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.endswith("from_json")
    ]
    return sorted({node.lineno for scope in scopes for node in ast.walk(scope) if is_check(node)})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_objects_are_read_by_the_one_reader(path):
    """No ``from_json`` and no code in ``logs`` checks an object's keys by
    hand; each declares its keys to ``values.JsonFormat``."""
    lines = hand_key_checks(parse(path), path.name == "logs.py")
    assert lines == [], f"hand-written key checks on lines {lines}"


def test_hand_key_check_lint_catches_each_form():
    tree = ast.parse(
        "def from_json(data):\n"
        "    isinstance(data, dict)\n"
        "    isinstance(data, (list, dict))\n"
        "    type(data) is not dict\n"
        "    {'r', 'c1'} <= set(data)\n"
        "    data.keys() == KEYS\n"
        "    'r' in data\n"
        "    'r' not in data\n"
        "    isinstance(data, list)\n"
        "    x in data\n"
        "    return FORMAT.read(data)\n"
        "def _state_from_json(data):\n"
        "    return 'class' in data\n"
        "def replay(step):\n"
        "    return 'j' in step.params\n"
    )
    assert hand_key_checks(tree, False) == [2, 3, 4, 5, 6, 7, 8, 13]
    assert hand_key_checks(tree, True) == [2, 3, 4, 5, 6, 7, 8, 13, 15]


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
# picard.anticanonical_degree (K.D is its negative), so none reaches dot or
# intersect.
H_OR_K_BUILDERS = {"canonical_divisor", "anticanonical_divisor"}
PRODUCTS = {"dot", "intersect"}


def call_name(node):
    """f for a call f(...) or x.f(...), else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def builds_h_or_k(node):
    return call_name(node) in H_OR_K_BUILDERS


def h_or_k_products(tree):
    """Lines of dot(...) or intersect(...) calls with an argument that builds
    H or K, or reads a name the same function bound to such a call."""
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
            if call_name(call) in PRODUCTS and any(
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
        "    H = anticanonical_divisor(S.d)\n"
        "    dot(C, K)\n"
        "    dot(H, x.c1)\n"
        "    dot(anticanonical_divisor(S.d), x.c1)\n"
        "    picard.dot(C, -canonical_divisor(S.d))\n"
        "    intersect(S, H, x.c1)\n"
        "    picard.intersect(S, C, 2 * canonical_divisor(S.d))\n"
        "    dot(C, C)\n"
        "    intersect(S, C, x.c1)\n"
        "    twist(S, x, H)\n"
    )
    assert h_or_k_products(tree) == [4, 5, 6, 7, 8, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dot_with_h_or_k(path):
    lines = h_or_k_products(parse(path))
    assert lines == [], (
        f"dot or intersect with a built H or K on lines {lines}; use anticanonical_degree"
    )


def referenced_names(path):
    """Names a file reads, bare or as an attribute, outside the top-level
    definition of the same name."""
    names = set()
    for stmt in parse(path).body:
        read = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        read.discard(getattr(stmt, "name", None))
        names |= read
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    """Each name ``delpezzo/__init__.py`` imports is read by the package,
    a demo or the benchmark.  A name that only tests call is deleted, not
    exported."""
    exported = {
        alias.asname or alias.name
        for node in parse(INIT).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [path for path in MODULES if path != INIT] + DEMOS + BENCH
    unused = exported - set().union(*map(referenced_names, users))
    assert sorted(unused) == []


def attribute_reads(tree, skip=()):
    """Attribute names a tree reads, outside the subtrees in ``skip``."""
    skipped = {id(node) for top in skip for node in ast.walk(top)}
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in skipped
    ]


def public_methods(tree):
    """(class, method) for each public method or property of each class
    defined at the top level of a module."""
    return [
        (cls, fn)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
    ]


def unread_methods(package, others):
    """Class.method names that no tree in ``package`` reads as an attribute
    outside the method's own definition, and no tree in ``others`` reads."""
    outside = set().union(*(attribute_reads(t) for t in others))
    unread = []
    for tree in package:
        for cls, fn in public_methods(tree):
            if fn.name in outside:
                continue
            if not any(
                fn.name in attribute_reads(t, skip=[fn] if t is tree else [])
                for t in package
            ):
                unread.append(f"{cls.name}.{fn.name}")
    return sorted(unread)


def test_unread_method_lint_catches_a_method_read_only_by_itself():
    package = [
        ast.parse(
            "class A:\n"
            "    def used(self):\n"
            "        return self.own()\n"
            "    def own(self):\n"
            "        return self.own()\n"
            "    @property\n"
            "    def shown(self):\n"
            "        return 1\n"
            "    def _private(self):\n"
            "        return 2\n"
            "def f(a):\n"
            "    return a.used()\n"
        )
    ]
    assert unread_methods(package, []) == ["A.shown"]
    assert unread_methods(package, [ast.parse("A().shown")]) == []


def test_every_public_method_has_a_reader_outside_the_tests():
    """Each public method or property of a package class is read by the
    package outside its own definition, by a demo or by the benchmark."""
    package = [parse(path) for path in MODULES]
    others = [parse(path) for path in DEMOS + BENCH]
    assert unread_methods(package, others) == []


# Constructors and the machinery of ``values.Value``: every value type has
# them, and ``==``, hashing, copies and the repr read them.
VALUE_MACHINERY = {
    "__init__",
    "__post_init__",
    "__init_subclass__",
    "__eq__",
    "__hash__",
    "__repr__",
    "__reduce__",
    "__setattr__",
    "__delattr__",
}

# Every other dunder a package class defines, with the files outside the
# tests whose syntax calls it.
DUNDER_READERS = {
    # check_pair_orbit negates a class; ROADMAP item 7 moves it to weighted_sum.
    "KClass.__neg__": ["bench/workloads.py"],
    "DivisorClass.__add__": ["src/delpezzo/pipeline.py"],
    "DivisorClass.__sub__": ["src/delpezzo/pairs.py", "src/delpezzo/picard.py", "src/delpezzo/cli.py"],
    "DivisorClass.__neg__": ["src/delpezzo/chern.py"],  # KClass.__neg__
    "DivisorClass.__rmul__": [
        "src/delpezzo/mutation.py",
        "src/delpezzo/pipeline.py",
        "src/delpezzo/logs.py",
        "demos/01_lattice_and_euler_pairing.py",
    ],
    "SlopeVector.__add__": ["src/delpezzo/stability.py"],  # hn_coarsen
    "PairOrbit.__getitem__": ["demos/04_markov_correspondence.py"],
    "Collection.__len__": ["src/delpezzo/cli.py", "bench/workloads.py"],
    "MutationLog.__len__": [
        "src/delpezzo/cli.py",
        "src/delpezzo/pipeline.py",
        "demos/03_mutations_and_helices.py",
    ],
}

# The syntax that calls each dunder: a binary, augmented or unary operator,
# a subscript, or len().
DUNDER_SYNTAX = {
    "__add__": lambda node: isinstance(getattr(node, "op", None), ast.Add),
    "__sub__": lambda node: isinstance(getattr(node, "op", None), ast.Sub),
    "__rmul__": lambda node: isinstance(getattr(node, "op", None), ast.Mult),
    "__neg__": lambda node: isinstance(getattr(node, "op", None), ast.USub),
    "__getitem__": lambda node: isinstance(node, ast.Subscript),
    "__len__": lambda node: isinstance(node, ast.Call)
    and getattr(node.func, "id", None) == "len",
}


def class_dunders(trees):
    """Class.__dunder__ for each dunder method that a class defined at the
    top level of a module defines, constructors and Value machinery left
    out."""
    return {
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and fn.name.startswith("__")
        and fn.name.endswith("__")
        and fn.name not in VALUE_MACHINERY
    }


def test_dunder_lint_catches_an_unlisted_operator():
    planted = ast.parse(
        "class KClass:\n"
        "    def __init__(self, r):\n"
        "        self._r = r\n"
        "    def __neg__(self):\n"
        "        return KClass(-self._r)\n"
        "    def __add__(self, other):\n"
        "        return KClass(self._r + other._r)\n"
        "    def _private(self):\n"
        "        return self._r\n"
    )
    assert class_dunders([planted]) - DUNDER_READERS.keys() == {"KClass.__add__"}


def test_every_dunder_has_a_reader_outside_the_tests():
    """Each operator or protocol method of a package class is in
    ``DUNDER_READERS``, and each file listed there lies outside the tests
    and uses the dunder's syntax.  An operator that only tests use is
    deleted, not listed."""
    defined = class_dunders(parse(path) for path in MODULES)
    assert sorted(defined - DUNDER_READERS.keys()) == []
    assert sorted(DUNDER_READERS.keys() - defined) == []
    for name, paths in DUNDER_READERS.items():
        uses = DUNDER_SYNTAX[name.split(".")[1]]
        for path in map(ROOT.joinpath, paths):
            assert path.is_file() and "tests" not in path.relative_to(ROOT).parts, path
            assert any(map(uses, ast.walk(parse(path)))), f"{path} has no {name} syntax"


def unread_parameters(tree):
    """function(parameter) for each parameter that a public function or
    method of the tree never reads in its body; ``self`` and ``cls`` are
    left out, and so are dunders and underscore functions."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if fn.name.startswith("_"):
            continue
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            node.id
            for stmt in fn.body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
        }
        found += [
            f"{fn.name}({a.arg})"
            for a in params
            if a.arg not in read and a.arg not in ("self", "cls")
        ]
    return found


def test_unread_parameter_lint_catches_each_form():
    tree = ast.parse(
        "def f(S, E, *rest, key=None, **options):\n"
        "    return E\n"
        "def g(S, E):\n"
        "    def inner():\n"
        "        return S\n"
        "    return inner, E\n"
        "def _stage(S, c):\n"
        "    return c\n"
        "class A:\n"
        "    def m(self, x):\n"
        "        return self\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
    )
    assert unread_parameters(tree) == [
        "f(S)", "f(key)", "f(rest)", "f(options)", "m(x)"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_parameter_is_read(path):
    assert unread_parameters(parse(path)) == []


def flag_parameters(tree):
    """function(parameter) for each parameter annotated ``bool`` or with a
    default of True or False: a flag that picks one of two behaviours."""

    def is_bool(annotation):
        if isinstance(annotation, ast.Constant):  # a string annotation
            return annotation.value == "bool"
        return isinstance(annotation, ast.Name) and annotation.id == "bool"

    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        for a, default in zip(positional + args.kwonlyargs, defaults + args.kw_defaults):
            flag_default = isinstance(default, ast.Constant) and type(default.value) is bool
            if is_bool(a.annotation) or flag_default:
                found.append(f"{fn.name}({a.arg})")
    return found


def test_flag_parameter_lint_catches_each_form():
    tree = ast.parse(
        "def _reflection(a: int, X, Y, build: bool = True):\n"
        "    return build\n"
        "def f(x, *, strict=False, name: str = 'bool', count=1):\n"
        "    return x\n"
        "def g(x: 'bool', y=None):\n"
        "    return x\n"
    )
    assert flag_parameters(tree) == ["_reflection(build)", "f(strict)", "g(x)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_flag_parameters(path):
    """One way per job: a function that does two jobs by a flag is two."""
    assert flag_parameters(parse(path)) == []


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


def test_cli_import_leaves_out_heavy_modules():
    """A cold command-line call pays for every module it imports.
    ``dataclasses`` alone brings ``inspect``, ``ast``, ``dis`` and
    ``tokenize``; ``typing`` is not needed for annotations that are never
    evaluated.  ``-S`` keeps site-packages' start-up hooks out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    heavy = ("dataclasses", "inspect", "typing")
    code = f"import sys, delpezzo.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
