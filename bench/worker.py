"""One workload in one fresh single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke] [--probe]

Prints ``ready`` once the interpreter is up, ``delpezzo`` is imported and
the first op's input exists (run.py times set-up up to that line), then a
line with the reference time in ns (see REFERENCE_NS); ``--probe`` stops
there.  Otherwise it runs ops in a closed loop until ``--seconds`` have
passed and at least ``min_ops`` ops and MIN_ROUNDS rounds are complete,
and prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import oracle

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HARD_STOP_S = 150.0
# The host this was built on, a 2-vCPU VM shared with other tenants, runs
# the same Python code up to 2x slower for stretches of seconds to minutes.
# So after every REFERENCE_EVERY_NS of op time, and at each round's end,
# the worker times a fixed reference computation from the benchmark's own
# code (reference_ns), and the timing metrics scale each op by
# REFERENCE_NS / (mean of the reference times before and after it): they
# read as times on a host that runs the reference in exactly 1 ms.  Raw
# times are reported beside them.
MIN_ROUNDS = 4
REFERENCE_EVERY_NS = 20_000_000
REFERENCE_NS = 1_000_000


def percentile(sorted_ns: list[int], p: float) -> tuple[float, int]:
    """Nearest-rank percentile in ms and the number of samples above it."""
    rank = max(1, -(-len(sorted_ns) * p // 100))
    return sorted_ns[int(rank) - 1] / 1e6, len(sorted_ns) - int(rank)


def peak_rss_kb() -> int:
    """Peak RSS of this process or of its largest child so far."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def chi_cache_info():
    """(hits, misses, size) of the program's chi cache, or None once it is gone."""
    from delpezzo import mutation

    info = getattr(getattr(mutation, "_chi", None), "cache_info", None)
    return tuple(info()[i] for i in (0, 1, 3)) if info else None


_REFERENCE = [oracle.twist(E, (7, 3, -2, 1, 0, 5, -1, 2, 4)) for E in oracle.basic(8)]


def reference_ns() -> float:
    """Median of three timings of a fixed computation: the benchmark's own
    Gram matrix of a twisted basic collection on Bl_8, integer work like
    the program's in code that never changes with the program."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        oracle.gram(_REFERENCE)
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def interpreter_ms(runs: int = 5) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    # One CPU for the worker and the CLI processes it starts, so that the
    # reference timed here measures the CPU the ops ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from delpezzo import errors
    from tracer import Tracer

    work_dir = os.path.join(ROOT, ".bench_build", "bench")
    os.makedirs(work_dir, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    tracer = Tracer()
    if traced:
        tracer.install()
    if cls is workloads.CliCold:
        wl = cls(args.seed, args.smoke, tracer if traced else None, work_dir)
    else:
        wl = cls(args.seed, args.smoke)
    gen = wl.ops()
    op = next(gen)
    print("ready", flush=True)
    print(reference_ns(), flush=True)
    if args.probe:
        return 0

    min_ops, min_rounds = (1, 1) if args.smoke else (wl.min_ops, MIN_ROUNDS)
    latencies: list[int] = []
    ok_ops: list[bool] = []
    refused: dict[str, int] = {}
    failed: dict[str, int] = {}
    first_round = None
    clock = time.perf_counter_ns
    round_ends: list[int] = []
    ref_points = [(0, reference_ns())]  # (ops before it, reference ns)
    since_ref = 0
    t_start = time.perf_counter()
    while True:
        tracer.op_id = len(latencies)
        before = chi_cache_info() if traced and not wl.first_round_done else None
        value = None
        failure = refusal = None
        tracer.active = traced
        t0 = clock()
        try:
            value = op.call()
        except errors.PipelineError as exc:
            refusal = f"PipelineError[{exc.stage}]"
        except workloads.Refused as exc:
            refusal = f"exit2[{exc.stage}]"
        except errors.InvariantViolationError as exc:
            failure = type(exc).__name__
        except errors.DomainError as exc:
            refusal = type(exc).__name__
        except Exception as exc:  # an unexpected exception is a failed op
            failure = type(exc).__name__
        t1 = clock()
        latencies.append(t1 - t0)
        since_ref += t1 - t0
        if since_ref >= REFERENCE_EVERY_NS:
            ref_points.append((len(latencies), reference_ns()))
            since_ref = 0
        if before is not None:
            after = chi_cache_info()
            tracer.counts["chi_hits"] += after[0] - before[0]
            tracer.counts["chi_misses"] += after[1] - before[1]
            tracer.counts["chi_size"] += after[2] - before[2]
        if failure is None and refusal is None:
            failure = op.check(value)
        ok_ops.append(failure is None and refusal is None)
        tracer.active = False
        if refusal is not None:
            refused[refusal] = refused.get(refusal, 0) + 1
            wl.note(**{f"refused {refusal}": 1})
        if failure is not None:
            failed[failure] = failed.get(failure, 0) + 1
            value = None
        op = gen.send(value)
        elapsed = time.perf_counter() - t_start
        if wl.rounds_done > len(round_ends):
            round_ends.append(len(latencies))
            if ref_points[-1][0] < len(latencies):
                ref_points.append((len(latencies), reference_ns()))
        if wl.first_round_done and first_round is None:
            first_round = {"ops": len(latencies), "trace": tracer.summary(), "rss_kb": peak_rss_kb()}
        if (elapsed >= args.seconds and len(round_ends) >= min_rounds
                and len(latencies) >= min_ops):
            break
        if elapsed >= HARD_STOP_S:
            break

    # Timing metrics cover the complete rounds only; each op is scaled by
    # the mean of the two reference times around it.
    timed = round_ends[-1] if round_ends else len(latencies)
    scale = [
        (first, end, 2 * REFERENCE_NS / (r0 + r1))
        for (first, r0), (end, r1) in zip(ref_points, ref_points[1:])
        if end <= timed
    ]
    lat = sorted(latencies[i] * k for first, end, k in scale for i in range(first, end))
    raw = sorted(latencies[:timed])
    timed_ok = sum(ok_ops[:timed])
    busy_s = sum(lat) / 1e9
    out = {
        "attempted": len(latencies),
        "ok": sum(ok_ops),
        "refused": refused,
        "failed": failed,
        "rounds": len(round_ends),
        "timed_ops": len(lat),
        "host_speed": REFERENCE_NS / statistics.fmean(r for _, r in ref_points),
        "ok_per_s": timed_ok / busy_s,
        "percentiles": {p: percentile(lat, p) for p in (50, 90, 99)},
        "raw": {"ok_per_s": timed_ok / (sum(raw) / 1e9),
                "percentiles": {p: percentile(raw, p) for p in (50, 90, 99)}},
        "peak_rss_mb": (first_round or {}).get("rss_kb", peak_rss_kb()) / 1024,
        "first_round_complete": first_round is not None,
        "desc": {"first_round_ops": first_round["ops"] if first_round else None, **wl.desc},
    }
    if traced:
        out["layers"] = layer_values(wl, first_round, timed_ok / busy_s)
        spans = os.path.join(work_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans)
        out["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(out))
    return 0


def layer_values(wl, first_round, traced_ok_per_s) -> dict:
    from layers import PIPELINE_STAGES, layer_metrics

    summary = first_round["trace"] if first_round else {"calls": {}, "self_ns": {}, "counts": {}}
    extra = {"trace.ok_per_s": traced_ok_per_s, "chern.max_int_bits": wl.desc["max_int_bits"]}
    for key, n in wl.desc.items():
        if key.startswith("refused "):
            stage = key.partition("[")[2].rstrip("]")
            name = f"pipeline.refused.{stage if stage in PIPELINE_STAGES else 'other'}"
            extra[name] = extra.get(name, 0) + n
    times = getattr(wl, "child_times", None)
    if times:
        extra["cli.interp_ms"] = interpreter_ms()
        extra["cli.import_ms"] = statistics.median(t[0] for t in times) / 1e6
        extra["cli.command_ms"] = statistics.median(t[1] for t in times) / 1e6
    return layer_metrics(summary, extra)


if __name__ == "__main__":
    sys.exit(main())
