"""The four benchmark workloads.

Each workload is a closed loop: ``ops()`` yields one ``Op`` at a time and
is sent the op's result (None when it raised) before it yields the next.
Inputs come only from the seed.  Ops come in rounds with the same mix of
work; ``rounds_done`` counts the complete ones.  The first round is a
fixed, seeded unit of work: the descriptors in ``desc`` and the per-layer
metrics describe it, so they repeat exactly for a seed.  Later rounds
draw fresh seeded inputs, so repeated ops do not replay the same states
through the program's caches.

Every answer is checked with oracle.py's own arithmetic; a check returns
None or the name of the failed check.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle
from delpezzo import chern, logs, markov, mutation, picard, pipeline, stability

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LEFT, RIGHT = mutation.Direction.LEFT, mutation.Direction.RIGHT


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


class Refused(Exception):
    """A documented refusal seen from outside the process (CLI exit 2)."""

    def __init__(self, stage: str):
        super().__init__(stage)
        self.stage = stage


def random_word(rng: random.Random, n: int, length: int) -> mutation.BraidWord:
    return mutation.BraidWord(
        tuple((rng.randint(1, n - 1), rng.choice((LEFT, RIGHT))) for _ in range(length))
    )


def json_bits(doc) -> int:
    """Largest bit length of an integer, or of a "p/q" part, in a JSON value."""
    if isinstance(doc, bool) or doc is None:
        return 0
    if isinstance(doc, int):
        return abs(doc).bit_length()
    if isinstance(doc, str):
        p, _, q = doc.partition("/")
        return max(json_bits(int(x)) for x in (p, q or "0")) if p.lstrip("-").isdigit() else 0
    items = doc.values() if isinstance(doc, dict) else doc
    return max((json_bits(x) for x in items), default=0)


def own_members(c) -> list:
    return [oracle.from_kclass(k) for k in c.members]


class Workload:
    name = ""
    min_ops = 100

    def __init__(self, seed: int, smoke: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.smoke = smoke
        self.rounds_done = 0
        self.desc: Counter = Counter()

    @property
    def first_round_done(self) -> bool:
        return self.rounds_done > 0

    def note(self, **counts) -> None:
        """Add to the first round's descriptors."""
        if not self.first_round_done:
            self.desc.update(counts)

    def note_bits(self, members) -> None:
        if not self.first_round_done and members:
            bits = max(oracle.int_bits(E) for E in members)
            self.desc["max_int_bits"] = max(self.desc["max_int_bits"], bits)


class OrbitP2(Workload):
    """Breadth-first braid orbit of a P^2 collection, one mutation per op."""

    name = "orbit-p2"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.depth = 4 if smoke else 10
        self.S = picard.Surface(0)
        self.basic = mutation.basic_collection(self.S)
        # Twists 10h apart keep one round's orbit out of the next round's
        # cache: moving a foundation by 3h takes 6 mutations, so a depth-10
        # ball reaches twists of about 5h at most.
        self.twists = [s * k for k in range(100, 1001, 10) for s in (1, -1)]
        self.rng.shuffle(self.twists)
        self.tree = None
        self.checked = 0

    def start(self, round_: int):
        """Basic collection, a seeded 2-letter braid prefix, a twist by O(kh)."""
        c, _ = mutation.apply_braid(self.basic, random_word(self.rng, 3, 2))
        D = picard.DivisorClass((self.twists[round_ % len(self.twists)],))
        return mutation.Collection(self.S, tuple(chern.twist(self.S, m, D) for m in c.members))

    def ops(self):
        round_ = 0
        while True:
            start = self.start(round_)
            seen = {start.members}
            frontier = [start]
            for _ in range(self.depth):
                new = []
                for c in frontier:
                    parent = own_members(c)
                    for pos in (1, 2):
                        for direction in (LEFT, RIGHT):
                            m = yield Op(
                                lambda c=c, p=pos, d=direction: mutation.mutate_collection(c, p, d),
                                lambda out, parent=parent, p=pos, d=direction: self.check(
                                    out, parent, p, d.value
                                ),
                            )
                            if m is not None and m.members not in seen:
                                seen.add(m.members)
                                new.append(m)
                frontier = new
            self.note(distinct_states=len(seen))
            self.rounds_done += 1
            round_ += 1

    def check(self, out, parent, pos, direction):
        if self.tree is None:
            self.tree = {t.as_tuple() for t in markov.markov_tree(oracle.MARKOV_BOUND)}
            if self.tree != oracle.markov_triples(oracle.MARKOV_BOUND):
                return "markov-tree"
        members = own_members(out)
        self.note_bits(members)
        expect = oracle.mutated(parent, pos, direction)
        if not all(oracle.same_up_to_sign(a, b) for a, b in zip(expect, members)):
            return "mutation"
        failed = oracle.gram_failure(members) or oracle.markov_failure(
            [E[0] for E in members], self.tree
        )
        self.checked += 1
        if failed or self.checked % 64:
            return failed
        return self.check_pair_orbit(out, members)

    def check_pair_orbit(self, out, members):
        """(E_1, -E_2) is an ext-pair with h = chi(E_1, E_2); its pair orbit
        must stay exceptional and follow x_{k+1} = h x_k - x_{k-1}."""
        h = oracle.chi(members[0], members[1])
        if h < 2:
            return None
        orbit = markov.pair_orbit(self.S, out.members[0], -out.members[1], 3)
        classes = {m: oracle.from_kclass(k) for m, k in orbit.classes.items()}
        if orbit.h != h or sorted(classes) != list(range(-3, 5)):
            return "pair-orbit"
        for m in range(-3, 4):
            if oracle.chi(classes[m], classes[m]) != 1 or oracle.chi(classes[m + 1], classes[m]) != 0:
                return "pair-orbit"
        x = orbit.x
        if x[:2] != (0, 1) or any(x[k + 1] != h * x[k] - x[k - 1] for k in range(1, len(x) - 1)):
            return "pair-orbit"
        return None


class BraidLog(Workload):
    """Seeded braid words on the basic collections of d = 3..8, with the
    log written, read back and replayed and the helix period checked."""

    name = "braid-log"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        lengths = (8,) if smoke else tuple(range(8, 41, 8))
        degrees = (3, 8) if smoke else tuple(range(3, 9))
        self.schedule = [(d, L) for L in lengths for d in degrees]
        self.basic = {d: mutation.basic_collection(picard.Surface(d)) for d in degrees}
        self.own_basic = {d: oracle.basic(d) for d in degrees}

    @staticmethod
    def run(c, word):
        result, log = mutation.apply_braid(c, word)
        text = log.to_jsonl()
        replayed = logs.replay(logs.MutationLog.from_jsonl(text))
        helix, _ = mutation.check_helix_period(result)
        return result, text, replayed, helix

    def ops(self):
        while True:
            for d, length in self.schedule:
                c = self.basic[d]
                word = random_word(self.rng, len(c), length)
                yield Op(
                    lambda c=c, w=word: self.run(c, w),
                    lambda out, d=d, n=length: self.check(out, d, n),
                )
            self.rounds_done += 1

    def check(self, out, d, length):
        result, text, replayed, helix = out
        members = own_members(result)
        self.note_bits(members)
        self.note(braid_letters=length, log_bytes=len(text.encode("utf-8")))
        if replayed is not True:
            return "replay"
        if helix is not True:
            return "helix"
        return oracle.gram_failure(members) or oracle.log_failure(
            text, self.own_basic[d], members
        )


class DescendSweep(Workload):
    """normalize_and_descend on basic and braid-scrambled collections of
    d = 1..8 with seeded multiplicities."""

    name = "descend-sweep"

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        if smoke:
            self.schedule = [(1, 0), (2, 1), (3, 0), (8, 2)]
        else:
            self.schedule = [(d, L) for L in range(7) for d in range(1, 9)] * 4
        self.basic = {d: mutation.basic_collection(picard.Surface(d)) for d, _ in self.schedule}

    @staticmethod
    def run(c, mults):
        G, log = pipeline.normalize_and_descend(c, mults)
        text = log.to_jsonl()
        replayed = logs.replay(logs.MutationLog.from_jsonl(text))
        graded = stability.GradedObject(
            tuple((m, k) for m, k in zip(c.members, mults) if m.r > 0)
        )
        blocks = stability.hn_coarsen(graded, chern.default_ample(c.surface))
        return G, text, replayed, blocks

    def ops(self):
        while True:
            for d, length in self.schedule:
                base = self.basic[d]
                c, _ = mutation.apply_braid(base, random_word(self.rng, len(base), length))
                mults = [self.rng.randint(1, 4) for _ in c.members]
                self.note(braid_letters=length)
                yield Op(
                    lambda c=c, m=mults: self.run(c, m),
                    lambda out, c=c, m=mults: self.check(out, c, m),
                )
            self.rounds_done += 1

    def check(self, out, c, mults):
        G, text, replayed, blocks = out
        d = c.surface.d
        members = own_members(c)
        g = oracle.from_kclass(G)
        self.note_bits([g])
        self.note(log_bytes=len(text.encode("utf-8")))
        if replayed is not True:
            return "replay"
        failed = oracle.log_failure(text, members, g) or oracle.descent_failure(text, d)
        if failed:
            return failed
        quotients = [(E, k) for E, k in zip(members, mults) if E[0] > 0]
        got = [(oracle.from_kclass(q), k) for q, k in blocks.quotients]
        return oracle.hn_failure(quotients, (4,) + (1,) * d, got)


CLI_COMMANDS = (
    "chi", "slope", "classify-pair", "roots", "gram", "check",
    "hn", "markov", "braid", "helix", "normalize",
)


class CliCold(Workload):
    """One `python -m delpezzo.cli` process per op over a seeded mix of
    valid calls, one at a time."""

    name = "cli-cold"

    def __init__(self, seed: int, smoke: bool, tracer=None, work_dir: str = "."):
        super().__init__(seed, smoke)
        self.tracer = tracer
        self.work_dir = work_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.child_times: list[tuple[int, int]] = []  # (import ns, command ns)

    # -- seeded valid calls, each with its expected stdout ------------------

    def divisor(self, d: int) -> tuple:
        return (self.rng.randint(-3, 3),) + tuple(self.rng.randint(-2, 2) for _ in range(d))

    def twisted_basic(self, d: int) -> list:
        D = self.divisor(d)
        return [oracle.twist(E, D) for E in oracle.basic(d)]

    @staticmethod
    def collection_json(d: int, members: list) -> str:
        return json.dumps({"surface": {"blowups": d}, "members": [oracle.to_json(E) for E in members]})

    def make_call(self, command: str):
        rng = self.rng
        d = rng.randint(0, 8)
        surface = json.dumps({"blowups": d})
        H = oracle.anticanonical(d)
        A = (4,) + (1,) * d
        if command == "chi":
            E, F = oracle.line(self.divisor(d)), oracle.line(self.divisor(d))
            return ["chi", "--surface", surface, "--e", json.dumps(oracle.to_json(E)),
                    "--f", json.dumps(oracle.to_json(F))], {"chi": oracle.chi(E, F)}
        if command == "slope":
            E = oracle.combine(1, oracle.line(self.divisor(d)), rng.randint(1, 3), oracle.line(self.divisor(d)))
            r = E[0]
            expect = {
                "mu_h": oracle.frac(Fraction(oracle.form(H, E[1]), r)),
                "mu_a": oracle.frac(Fraction(oracle.form(A, E[1]), r)),
                "vector": {"rank": r, "numerators": [
                    oracle.frac(Fraction(x)) for x in (oracle.form(H, E[1]), oracle.form(A, E[1]), E[2])
                ]},
            }
            return ["slope", "--surface", surface, "--e", json.dumps(oracle.to_json(E))], expect
        if command == "classify-pair":
            D = self.divisor(d)
            E = oracle.line(D)
            if d >= 2 and rng.random() < 0.5:
                i, j = rng.sample(range(1, d + 1), 2)
                C = [0] * (d + 1)
                C[i], C[j] = -1, 1  # e_i - e_j, a -2-class orthogonal to K
                F = oracle.line(tuple(x + y for x, y in zip(D, C)))
                expect = {"kind": "zero", "dims": [], "C": C}
            else:
                k = rng.randint(1, 2)
                F = oracle.line((D[0] + k,) + D[1:])
                expect = {"kind": "hom", "dims": [oracle.chi(E, F)]}
            expect["evidence"] = {
                "chi_ef": oracle.chi(E, F), "chi_fe": oracle.chi(F, E),
                "mu_e": oracle.frac(Fraction(oracle.form(H, E[1]))),
                "mu_f": oracle.frac(Fraction(oracle.form(H, F[1]))),
            }
            return ["classify-pair", "--surface", surface, "--e", json.dumps(oracle.to_json(E)),
                    "--f", json.dumps(oracle.to_json(F))], expect
        if command == "roots":
            return ["roots", "--surface", json.dumps({"blowups": 8})], self.roots_ok
        if command == "gram":
            members = self.twisted_basic(d)
            expect = {"gram": oracle.gram(members)}
            return (["gram", "--collection", self.collection_json(d, members)],
                    lambda doc: oracle.triangular_failure(doc.get("gram", []))
                    or (None if doc == expect else "mismatch"))
        if command == "check":
            members = self.twisted_basic(d)
            return ["check", "--collection", self.collection_json(d, members)], {"exceptional": True}
        if command == "hn":
            quotients = [
                (oracle.combine(1, oracle.line(self.divisor(d)), rng.randint(0, 1), oracle.line(self.divisor(d))),
                 rng.randint(1, 3))
                for _ in range(rng.randint(2, 6))
            ]
            graded = {"quotients": [{"class": oracle.to_json(q), "mult": m} for q, m in quotients]}
            expect = {"quotients": [{"class": oracle.to_json(q), "mult": m}
                                    for q, m in oracle.hn_blocks(quotients, A)]}
            return ["hn", "--graded", json.dumps(graded)], expect
        if command == "markov":
            limit = rng.randint(100, 10**6)
            triples = oracle.markov_triples(limit)
            maxima = [t[2] for t in triples]
            expect = {"triples": [list(t) for t in sorted(triples)],
                      "unique_max_verified_up_to": limit if len(set(maxima)) == len(maxima) else None}
            return ["markov", "--limit", str(limit)], expect
        if command == "braid":
            members = oracle.basic(d)
            letters = [(rng.randint(1, len(members) - 1), rng.choice(("left", "right")))
                       for _ in range(rng.randint(3, 8))]
            word = " ".join(f"{'L' if dr == 'left' else 'R'}{p}" for p, dr in letters)
            expect_members = members
            for p, dr in letters:
                expect_members = oracle.mutated(expect_members, p, dr)
            return (["braid", "--collection", self.collection_json(d, members), "--word", word],
                    lambda doc: self.braid_ok(doc, d, expect_members, len(letters)))
        if command == "helix":
            members = self.twisted_basic(d)
            n = len(members)
            lo = rng.randint(-6, 0)
            hi = rng.randint(1, 8)
            K = tuple(-x for x in H)
            classes = []
            for m in range(lo, hi + 1):
                i = (m - 1) % n + 1
                s = (m - i) // n
                classes.append({"index": m, "class": oracle.to_json(
                    oracle.twist(members[i - 1], tuple(-s * x for x in K)))})
            return (["helix", "--collection", self.collection_json(d, members),
                     "--lo", str(lo), "--hi", str(hi)], {"classes": classes})
        # normalize: basic collections of d = 1, 2 are already ordered, inside
        # the window and on degrees {-1, 0}, so descent is one peel:
        # G = F - chi(F, O_e(-1)) O_e(-1) with F = sum mults * members.
        d = rng.randint(1, 2)
        members = oracle.basic(d)
        mults = [rng.randint(1, 4) for _ in members]
        F = (0, (0,) * (d + 1), 0)
        for k, E in zip(mults, members):
            F = oracle.combine(1, F, k, E)
        peel = oracle.curve(d, d, -1)
        alpha = oracle.chi(F, peel)
        G = oracle.combine(1, F, -alpha, peel)
        descended = oracle.to_json((G[0], G[1][:-1], G[2]))
        return (["normalize", "--collection", self.collection_json(d, members),
                 "--mults", ",".join(map(str, mults))],
                lambda doc: None if (doc.get("descended"), doc.get("alpha")) == (descended, alpha)
                and G[1][-1] == 0 and doc.get("steps", 0) >= 2 else "normalize")

    @staticmethod
    def roots_ok(doc) -> str | None:
        roots = [tuple(r) for r in doc.get("roots", [])]
        H = oracle.anticanonical(8)
        valid = all(len(r) == 9 and oracle.form(r, r) == -2 and oracle.form(r, H) == 0 for r in roots)
        # E_8 has 240 roots.
        ok = valid and doc.get("count") == 240 and len(set(roots)) == 240 and roots == sorted(roots)
        return None if ok else "roots"

    @staticmethod
    def braid_ok(doc, d, expect, steps) -> str | None:
        got = doc.get("collection", {})
        members = [oracle.from_json(m) for m in got.get("members", [])]
        if doc.get("steps") != steps or got.get("surface") != {"blowups": d}:
            return "braid"
        if len(members) != len(expect) or not all(
            oracle.same_up_to_sign(a, b) for a, b in zip(expect, members)
        ):
            return "braid"
        return oracle.gram_failure(members)

    # -- the loop -----------------------------------------------------------

    def run(self, argv: list[str]):
        if self.tracer is not None:
            stats = os.path.join(self.work_dir, "cli-stats.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "clitrace.py"), stats, *argv]
        else:
            stats = None
            cmd = [sys.executable, "-m", "delpezzo.cli", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)
        if proc.returncode == 2:
            stage = proc.stderr.partition("[")[2].partition("]")[0] or "other"
            raise Refused(stage)
        return proc, stats

    def ops(self):
        while True:
            for command in CLI_COMMANDS:
                argv, expect = self.make_call(command)
                yield Op(lambda a=argv: self.run(a), lambda out, e=expect: self.check(out, e))
            self.rounds_done += 1

    def check(self, out, expect) -> str | None:
        proc, stats = out
        if stats is not None and not self.first_round_done:
            with open(stats, encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.merge(child)
            self.child_times.append((child["import_ns"], child["command_ns"]))
        if proc.returncode != 0:
            return f"exit{proc.returncode}"
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return "stdout"
        if not self.first_round_done:
            self.desc["max_int_bits"] = max(self.desc["max_int_bits"], json_bits(doc))
        if callable(expect):
            return expect(doc)
        return None if doc == expect else "mismatch"


WORKLOADS = {w.name: w for w in (OrbitP2, BraidLog, DescendSweep, CliCold)}
