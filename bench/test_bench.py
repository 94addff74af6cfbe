"""Tests of the benchmark itself: its answer checks reject corrupted
answers, its smoke mode passes every check, BENCHMARK.json matches the
metrics it prints, and it refuses to run without the program.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import workloads  # noqa: E402
from delpezzo import chern, mutation, picard  # noqa: E402
from layers import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def library_basic(d: int):
    return mutation.basic_collection(picard.Surface(d))


def test_own_chi_agrees_with_the_program():
    rng = random.Random(0)
    for d in range(9):
        S = picard.Surface(d)
        for _ in range(20):
            D1 = (rng.randint(-4, 4),) + tuple(rng.randint(-3, 3) for _ in range(d))
            D2 = (rng.randint(-4, 4),) + tuple(rng.randint(-3, 3) for _ in range(d))
            E = oracle.combine(1, oracle.line(D1), rng.randint(0, 3), oracle.line(D2))
            F = oracle.twist(oracle.line(D2), D1)
            lib = [chern.KClass.from_json(oracle.to_json(x)) for x in (E, F)]
            assert oracle.chi(E, F) == chern.euler_form(S, *lib)


def test_gram_check_rejects_a_flipped_entry():
    members = oracle.basic(4)
    matrix = oracle.gram(members)
    assert oracle.triangular_failure(matrix) is None
    assert oracle.gram_failure(members) is None
    for i, j in ((3, 1), (5, 5)):
        flipped = [row[:] for row in matrix]
        flipped[i][j] ^= 1
        assert oracle.triangular_failure(flipped) == "gram"
    swapped = members[:]
    swapped[4], swapped[5] = swapped[5], swapped[4]
    assert oracle.gram_failure(swapped) == "gram"

    cli = workloads.CliCold(0, True)
    argv, expect = cli.make_call("gram")
    good = json.loads(subprocess.run(
        [sys.executable, "-m", "delpezzo.cli", *argv], cwd=ROOT, env=cli.env,
        capture_output=True, text=True, timeout=60).stdout)
    assert expect(good) is None
    good["gram"][1][0] ^= 1
    assert expect(good) == "gram"


def test_markov_check_rejects_a_non_markov_triple():
    tree = oracle.markov_triples(1000)
    assert oracle.markov_failure((5, 1, 2), tree) is None
    assert oracle.markov_failure((1, 2, 6), tree) == "markov"
    assert oracle.markov_failure((0, 0, 0), tree) == "markov"
    assert oracle.markov_failure((1, 5, 13), tree - {(1, 5, 13)}) == "markov-tree"
    assert (1, 13, 34) in tree and (2, 5, 29) in tree and len(tree) == 13


def test_log_check_rejects_a_tampered_line():
    c = library_basic(3)
    word = mutation.BraidWord.parse("L1 R2 L3 R4 L2")
    result, log = mutation.apply_braid(c, word)
    text = log.to_jsonl()
    start, end = oracle.basic(3), workloads.own_members(result)
    assert oracle.log_failure(text, start, end) is None

    lines = text.splitlines(keepends=True)
    step = json.loads(lines[2])
    member = step["after"]["collection"]["members"][3]
    member["r"] += 1
    tampered = "".join(lines[:2] + [json.dumps(step) + "\n"] + lines[3:])
    assert oracle.log_failure(tampered, start, end) is not None
    assert oracle.log_failure("".join(lines[:2] + lines[3:]), start, end) == "log-chain"
    assert oracle.log_failure(text[:-2], start, end) == "log-parse"

    out = (result, tampered, True, True)
    assert workloads.BraidLog(0, True).check(out, 3, 5) is not None


def test_hn_check_rejects_a_wrong_coarsening():
    A = (4, 1, 1)
    q = [(oracle.line((1, 0, 0)), 2), (oracle.line((0, 0, 0)), 1), (oracle.line((2, 1, 0)), 1)]
    blocks = oracle.hn_blocks(q, A)
    assert oracle.hn_failure(q, A, blocks) is None
    assert oracle.hn_failure(q, A, q) == "hn"


def test_smoke_run_passes_every_check():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(record["workloads"]) == list(WORKLOADS)
    for name, w in record["workloads"].items():
        assert w["failed_share"] == 0, name
        assert set(w["end_to_end"]) == {m for m, *_ in END_TO_END}
        assert set(w["per_layer"]) == {m for m, *_ in PER_LAYER}
        assert all(v > 0 for v in w["end_to_end"].values()), name
    assert record["workloads"]["descend-sweep"]["per_layer"]["pipeline.refused.spread"] > 0


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "orbit-p2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
