"""Same-work sweep: run the public API over seeded inputs on d = 0..8 and
print one JSON line per call, with its result or its exception type and
message.

Two trees that should do the same work print identical output:

    PYTHONPATH=<tree>/src python tests/same_work.py > <tree>.jsonl
    cmp parent.jsonl change.jsonl

``--smoke`` runs a small slice in under 2 s; the test suite runs it once.
Only names that are public at the package top level (and ``cli.run`` and
``chern.weighted_sum``) are used, directly or through the shared test
helpers, so the script runs unchanged on older trees.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import io
import json
import os
import random
import tempfile
from fractions import Fraction

from delpezzo import (
    BraidWord,
    Collection,
    Direction,
    DivisorClass,
    GradedObject,
    KClass,
    MarkovTriple,
    MutationLog,
    SlopeVector,
    Surface,
    apply_braid,
    basic_collection,
    check_helix_period,
    classify_pair,
    curve_class,
    default_ample,
    global_twist,
    gram_matrix,
    helix_extend,
    hn_coarsen,
    is_numerically_exceptional,
    line_class,
    line_divisor,
    markov_tree,
    mutate_collection,
    mutate_pair,
    normalize_and_descend,
    pair_orbit,
    peel_curve,
    replay,
    rotate_twist,
    splitting_type,
    structure_class,
    twist,
    vector_slope,
)
from delpezzo import cli
from delpezzo.chern import weighted_sum

from _helpers import E8_SIMPLE_ROOTS, ext_seed, oracle_roots, torsion_last

DIRECTIONS = (Direction.LEFT, Direction.RIGHT)


def show(x):
    """A JSON-able form of any result the sweep meets."""
    if isinstance(x, MutationLog):
        return x.to_jsonl()
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, enum.Enum):
        return x.value
    # A value type names its fields in _fields; older trees' data classes
    # in __dataclass_fields__, where the private ones are left out.
    names = getattr(x, "_fields", None) or getattr(x, "__dataclass_fields__", None)
    if names is not None:
        return {n: show(getattr(x, n)) for n in names if not n.startswith("_")}
    if isinstance(x, (list, tuple)):
        return [show(v) for v in x]
    if isinstance(x, dict):
        return {str(k): show(v) for k, v in x.items()}
    return x


def call(label: str, fn, *args):
    """Print fn(*args) or its exception as one JSON line; return the value,
    or None on an exception."""
    value = None
    try:
        value = fn(*args)
        record = {"ok": show(value)}
    except Exception as exc:  # every outcome is a record, refusals included
        record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps({"call": label, **record}))
    return value


def random_word(rng: random.Random, n: int, letters: int) -> BraidWord:
    """Letters on positions 1..n, so a position n letter is out of range."""
    return BraidWord(
        tuple((rng.randint(1, n), rng.choice(DIRECTIONS)) for _ in range(letters))
    )


def word_text(w: BraidWord) -> str:
    """The letters as ``BraidWord.parse`` reads them: 'L1 R2'."""
    return " ".join(f"{'L' if d is Direction.LEFT else 'R'}{p}" for p, d in w.letters)


def braid_and_replay(c: Collection, word: BraidWord):
    result, log = apply_braid(c, word)
    text = log.to_jsonl()
    return result, text, replay(MutationLog.from_jsonl(text))


def descend_and_replay(c: Collection, mults):
    G, log = normalize_and_descend(c, mults)
    return G, log, replay(log)


def sweep_collection(tag: str, c: Collection, rng: random.Random, full: bool) -> None:
    S, members = c.surface, c.members
    n = len(members)
    call(f"{tag} gram_matrix", gram_matrix, c)
    call(f"{tag} is_numerically_exceptional", is_numerically_exceptional, c)
    for pos in range(n + 1):
        for direction in DIRECTIONS:
            label = f"{tag} mutate_collection {pos} {direction.value}"
            call(label, mutate_collection, c, pos, direction)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if not full:
        pairs = [(i, i + 1) for i in range(n - 1)]
    for i, j in pairs:
        E, F = members[i], members[j]
        for direction in DIRECTIONS:
            label = f"{tag} mutate_pair {i} {j} {direction.value}"
            call(label, mutate_pair, S, E, F, direction)
        call(f"{tag} classify_pair {i} {j}", classify_pair, S, E, F)
    for i, E in enumerate(members):
        call(f"{tag} vector_slope {i}", vector_slope, S, E)
        call(f"{tag} vector_slope {i} h", vector_slope, S, E, line_divisor(S.d))
    call(f"{tag} check_helix_period", check_helix_period, c)
    for j in range(n + 2) if full else (1, 2):
        call(f"{tag} rotate_twist {j}", rotate_twist, c, j)
    call(f"{tag} global_twist h", global_twist, c, line_divisor(S.d))
    for letters in (0, 3, 8) if full else (4,):
        word = random_word(rng, max(n, 1), letters)
        call(f"{tag} apply_braid {word_text(word)}", braid_and_replay, c, word)
    mult_choices = [None, [rng.randint(1, 3) for _ in members], [1] * (n + 1)]
    if full:
        mult_choices += [[0] + [1] * (n - 1), [rng.randint(1, 9) for _ in members]]
        mult_choices += [[rng.randint(-2, 2) for _ in members], [1] * (n - 1) + [-1]]
    for mults in mult_choices:
        call(f"{tag} normalize_and_descend {mults}", descend_and_replay, c, mults)
    for _ in range(3 if full else 1):
        D = DivisorClass(tuple(rng.randint(-9, 9) for _ in range(S.d + 1)))
        E = rng.choice(members)
        call(f"{tag} twist {list(D.coeffs)}", twist, S, E, D)
        terms = tuple((E, rng.randint(-3, 3)) for E in rng.sample(members, min(n, 3)))
        label = f"{tag} weighted_sum {[m for _, m in terms]}"
        call(label, weighted_sum, terms)
    bundles = tuple((E, rng.randint(1, 3)) for E in members if E.r > 0)
    if bundles:
        g = GradedObject(bundles)
        call(f"{tag} hn_coarsen", hn_coarsen, g, default_ample(S))
        call(f"{tag} hn_coarsen h", hn_coarsen, g, line_divisor(S.d))


def collections(d: int, rng: random.Random, full: bool):
    S = Surface(d)
    basic = basic_collection(S)
    yield "basic", basic
    yield "torsion-last", torsion_last(S)
    n = len(basic.members)
    for k in range(12 if full else 1):
        word = random_word(rng, max(n - 1, 1), rng.randint(1, 8))
        yield f"scrambled-{k} {word_text(word)}", apply_braid(basic, word)[0]
    if full and d >= 1:
        # Torsion only: exceptional for d >= 2, one member twice at d = 1.
        torsion = (curve_class(S, 1, -1), curve_class(S, d, -1))
        yield "torsion-pair", Collection(S, torsion)
        yield "twisted-basic", global_twist(basic, DivisorClass((2,) + (1,) * d))


def special_pairs(full: bool):
    """Equal-slope pairs: inconsistent numerics (the forced -2-class
    equations fail, with C.K = 0, -6 and -12), and pairs on surfaces with
    declared roots: one root, an A2 chain and E8, each with a root and a
    positive root that is not simple.  A refused configuration is a record
    of its own."""
    S = Surface(4)
    O = structure_class(S)
    F = KClass(3, DivisorClass((0, -2, 2, -1, 1)), -6)
    h = line_divisor(4)
    for t in (0, 1, 2) if full else (1,):
        D = t * h
        yield f"inconsistent-{t}h", S, twist(S, O, D), twist(S, F, D)
    configurations = {
        "one-root": (2, [(0, -1, 1)], []),
        "a2-chain": (4, [(0, -1, 1, 0, 0), (0, 0, -1, 1, 0)], [(0, -1, 0, 1, 0)]),
        # The highest root of E8, of height 29.
        "e8": (8, E8_SIMPLE_ROOTS, [(3, 1, 1, 1, 1, 1, 1, 1, 2)]),
    }
    for name, (d, roots, others) in configurations.items():
        S = call(f"{name} Surface", Surface, d, tuple(DivisorClass(r) for r in roots))
        if S is None:
            continue
        O = structure_class(S)
        for r in (roots[:1] + others) if full else roots[:1]:
            for sign in (1, -1):
                C = DivisorClass(tuple(sign * x for x in r))
                yield f"{name} {list(C.coeffs)}", S, O, line_class(S, C)


def sweep_special(full: bool) -> None:
    for tag, S, E, F in special_pairs(full):
        for direction in DIRECTIONS:
            call(f"{tag} mutate_pair {direction.value}", mutate_pair, S, E, F, direction)
            label = f"{tag} mutate_collection {direction.value}"
            call(label, mutate_collection, Collection(S, (E, F)), 1, direction)
        call(f"{tag} classify_pair", classify_pair, S, E, F)
        call(f"{tag} check_helix_period", check_helix_period, Collection(S, (E, F)))


def sweep_configurations(full: bool) -> None:
    """Surface construction on seeded subsets of the roots of d = 2..8,
    each as drawn and with every root negated, and classify_pair of O
    against O(C) on each accepted configuration, for C its roots and one
    drawn root, with both signs.  The subsets come from the oracle's root
    list, not from a validity oracle, so both trees see the same inputs."""
    for d in range(2, 9):
        rng = random.Random(300 + d)
        roots = sorted(oracle_roots(d))
        for k in range(40 if full else 2):
            drawn = rng.sample(roots, rng.randint(1, d))
            negated = [tuple(-x for x in r) for r in drawn]
            probes = drawn + [rng.choice(roots)]
            for sign, simple in ((1, drawn), (-1, negated)):
                tag = f"config d{d}-{k} {sign:+d}"
                classes = tuple(DivisorClass(r) for r in simple)
                S = call(f"{tag} Surface {[list(r) for r in simple]}", Surface, d, classes)
                if S is None:
                    continue
                O = structure_class(S)
                for r in probes:
                    for s in (1, -1):
                        C = DivisorClass(tuple(s * x for x in r))
                        label = f"{tag} classify_pair {list(C.coeffs)}"
                        call(label, classify_pair, S, O, line_class(S, C))


def sweep_weighted(full: bool) -> None:
    """pair_orbit for h = 2..10 and its refusals; twist and weighted_sum
    refusals (wrong surface, no terms, non-integer multiplicities)."""
    for h in range(2, 11) if full else (2, 5):
        S, E0, E1 = ext_seed(h)
        for n in (1, 2, 7, 20) if full else (3,):
            call(f"pair_orbit h{h} n{n}", pair_orbit, S, E0, E1, n)
    S, E0, E1 = ext_seed(3)
    for n in (0, -1, True, "2"):
        call(f"pair_orbit n {n!r}", pair_orbit, S, E0, E1, n)
    call("pair_orbit hom", pair_orbit, S, E0, twist(S, E0, line_divisor(8)), 3)
    call("pair_orbit reversed", pair_orbit, S, E1, E0, 3)
    call("pair_orbit not exceptional", pair_orbit, S, weighted_sum(((E0, 2),)), E1, 3)
    T = Surface(1)
    call("pair_orbit small", pair_orbit, T, line_class(T, DivisorClass((1, 1))),
         line_class(T, DivisorClass((0, -1))), 3)
    O1, O2 = structure_class(Surface(1)), structure_class(Surface(2))
    call("twist wrong surface", twist, Surface(1), O1, line_divisor(2))
    call("weighted_sum empty", weighted_sum, ())
    call("weighted_sum mixed surfaces", weighted_sum, ((O1, 1), (O2, 1)))
    for m in (Fraction(1, 2), "2", 1.0, None):
        call(f"weighted_sum multiplicity {m!r}", weighted_sum, ((O1, 1), (O1, m)))
    call("weighted_sum bool", weighted_sum, ((O1, True), (O1, 2)))


def braid_letter_and_replay(c: Collection, position):
    return braid_and_replay(c, BraidWord(((position, Direction.LEFT),)))


def peel_and_replay(c: Collection, mults, e_index):
    G, alpha, log = peel_curve(c, mults, e_index)
    return G, alpha, log, replay(MutationLog.from_jsonl(log.to_jsonl()))


def sweep_bools() -> None:
    """The entries that write an integer into a log, given True and 1: a
    step must record a JSON integer, or replay refuses it."""
    c = basic_collection(Surface(1))
    for v in (True, 1):
        call(f"normalize_and_descend mult {v!r}", descend_and_replay, c, [v, 1, 1, 1])
        call(f"apply_braid position {v!r}", braid_letter_and_replay, c, v)
        call(f"peel_curve e_index {v!r}", peel_and_replay, c, [1, 1, 1, 1], v)


def sweep_value_bools() -> None:
    """Value constructors given a bool where an integer goes: json.dumps
    writes a bool as true, which the JSON readers refuse."""
    O = DivisorClass((0,))
    call("KClass r True", KClass, True, O, 0)
    call("KClass two_ch2 False", KClass, 1, O, False)
    call("DivisorClass coeffs (False,)", DivisorClass, (False,))
    call("DivisorClass coeffs (3, True)", DivisorClass, (3, True))
    call("KClass c1 (3, True)", lambda: KClass(1, DivisorClass((3, True)), 0))
    call("Surface d True", Surface, True)
    call("Surface d False", Surface, False)
    E = KClass(1, O, 0)
    call("True * KClass", lambda: True * E)
    call("True * DivisorClass", lambda: True * O)
    call("GradedObject mult True", GradedObject, ((E, True),))
    call("MarkovTriple True True True", MarkovTriple, True, True, True)
    call("markov_tree limit True", lambda: list(markov_tree(True)))
    call("splitting_type r True", splitting_type, True, 1)
    call("SlopeVector scaled True", SlopeVector(1, (1,)).scaled, True)


def sweep_argument_types() -> None:
    """Arguments of the wrong type: a direction that is not a Direction, a
    mutation position or helix bound whose type is not int, multiplicities
    that are not a list or a tuple; and multiplicities in a tuple."""
    c = basic_collection(Surface(2))
    S, O, Oh = c.surface, c.members[2], c.members[3]
    for direction in ("left", "right", None):
        call(f"mutate_collection direction {direction!r}", mutate_collection, c, 3, direction)
        call(f"mutate_pair direction {direction!r}", mutate_pair, S, O, Oh, direction)
    for position in (1.0, True, "1"):
        label = f"mutate_collection position {position!r}"
        call(label, mutate_collection, c, position, Direction.LEFT)
    c = basic_collection(Surface(1))
    for lo, hi in ((0.5, 2), (0, 2.0), (True, 2), (-1, 2)):
        call(f"helix_extend {lo!r} {hi!r}", helix_extend, c, lo, hi)
    for mults in (None, 5, "1111", (1, 2, 1, 3)):
        call(f"peel_curve mults {mults!r}", peel_and_replay, c, mults, 1)
        call(f"normalize_and_descend mults {mults!r}", descend_and_replay, c, mults)


def replay_text(text: str) -> bool:
    return replay(MutationLog.from_jsonl(text))


def sweep_directions() -> None:
    """replay of a one-step mutate log whose recorded direction is each of
    these JSON values: the two a log writes, and values it refuses."""
    c = basic_collection(Surface(1))
    _, log = apply_braid(c, BraidWord(((1, Direction.LEFT),)))
    step = json.loads(log.to_jsonl())
    for direction in ("left", "right", "LEFT", "l", 1, None, ["left"], {"left": 1}):
        step["params"]["direction"] = direction
        text = json.dumps(step) + "\n"
        call(f"replay direction {json.dumps(direction)}", replay_text, text)


def run_cli(label: str, argv: list[str], out_dir: str) -> None:
    """cli.run in process: exit code, stdout, stderr and the --out file."""
    log_path = os.path.join(out_dir, "log.jsonl")
    if os.path.exists(log_path):
        os.remove(log_path)
    argv = [log_path if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    log = None
    if os.path.exists(log_path):
        with open(log_path, encoding="utf-8") as fh:
            log = fh.read()
    record = {"code": code, "out": stdout.getvalue(), "err": stderr.getvalue(), "log": log}
    print(json.dumps({"call": f"cli {label}", "ok": record}))


def sweep_cli(d: int, rng: random.Random, out_dir: str) -> None:
    S = Surface(d)
    c = basic_collection(S)
    n = len(c.members)
    surface, coll = json.dumps(S.to_json()), json.dumps(c.to_json())
    E, F, T = (json.dumps(c.members[i].to_json()) for i in (0, 1, -1))
    broken = json.dumps(torsion_last(S).to_json())
    word = word_text(random_word(rng, max(n - 1, 1), 4))
    quotients = [{"class": m.to_json(), "mult": 2} for m in c.members if m.r > 0]
    graded = json.dumps({"quotients": quotients})
    mults = ",".join(str(rng.randint(1, 3)) for _ in range(n))
    commands = {
        "chi": ["chi", "--surface", surface, "--e", E, "--f", F],
        "slope": ["slope", "--surface", surface, "--e", E],
        "slope-torsion": ["slope", "--surface", surface, "--e", T],
        "classify-pair": ["classify-pair", "--surface", surface, "--e", E, "--f", F],
        "roots": ["roots", "--surface", surface],
        "mutate": ["mutate", "--collection", coll, "--pos", "1", "--dir", "right"],
        "braid": ["braid", "--collection", coll, "--word", word, "--out", "{out}"],
        "helix": ["helix", "--collection", coll, "--lo", "-2", "--hi", "5"],
        "gram": ["gram", "--collection", coll],
        "check": ["check", "--collection", broken],
        "hn": ["hn", "--graded", graded],
        "markov": ["markov", "--limit", str(10 + d)],
        "markov-braid": ["markov", "--braid", word],
        "orbit": ["orbit", "--surface", surface, "--e", E, "--f", F, "--limit", "3"],
        "normalize": ["normalize", "--collection", coll, "--mults", mults, "--out", "{out}"],
        "peel": ["peel", "--collection", coll, "--mults", mults, "--out", "{out}"],
        "descend": ["descend", "--surface", surface, "--e", E],
        "bad-json": ["gram", "--collection", "{oops"],
    }
    for name, argv in commands.items():
        run_cli(f"d{d} {name}", argv, out_dir)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="a small slice, under 2 s")
    args = parser.parse_args()
    full = not args.smoke
    with tempfile.TemporaryDirectory() as out_dir:
        for d in range(9):
            rng = random.Random(100 + d)
            for name, c in collections(d, rng, full):
                sweep_collection(f"d{d} {name}", c, rng, full)
            if full or d in (1, 2):
                sweep_cli(d, rng, out_dir)
    sweep_special(full)
    sweep_configurations(full)
    sweep_weighted(full)
    sweep_directions()
    sweep_bools()
    sweep_argument_types()
    sweep_value_bools()


if __name__ == "__main__":
    main()
