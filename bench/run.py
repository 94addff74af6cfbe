"""The delpezzo benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N --seconds S]
    python3 bench/run.py --smoke

Run from a checkout of the repository; the program is imported from
``src/``.  One workload runs in a fresh single-threaded process
(bench/worker.py).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of the first round (see bench/layers.py); the lines before it give
every metric by name and unit with its op count, the samples beyond each
percentile, failed_share, refusals and the workload descriptors.

``--report`` runs every workload with tracing off and on and prints the
table and the JSON record kept in bench/baseline.json, including the
tracing overhead.  ``--smoke`` runs every workload at a tiny size with
every check, both ways, in a few seconds.

Set-up time (``setup_s``) is the median, over several fresh processes, of
the time from process start until the first op's input exists.  Op
times cover the program's calls only, over the complete rounds of a run;
input generation and the benchmark's own checks run outside them.  They
are scaled to the speed at which the host runs a fixed reference
computation in 1 ms, timed between ops all through the run (see
worker.py), because the shared host they were built on drifts by up to 2x
over minutes.  Set-up times get the same scaling, from a reference timed
in each set-up process; raw op times are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
# Set-up probes run before and after the measured worker, so that the
# median of the 2 * SETUP_PROBES + 1 samples spans the whole run.
SETUP_PROBES = 3
BUDGET_S = 175.0

sys.path.insert(0, BENCH_DIR)
from layers import END_TO_END, PER_LAYER, PREDICTIONS, WORKLOADS  # noqa: E402
from worker import REFERENCE_NS  # noqa: E402


class BenchError(RuntimeError):
    pass


def start_worker(cmd: list[str]):
    """Start a worker and wait for its ``ready`` line; returns the process
    and its set-up time in s at reference speed (see worker.py)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    try:
        if line.strip() != "ready":
            raise ValueError(line)
        reference_ns = float(proc.stdout.readline())
    except ValueError:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {' '.join(cmd[1:])}")
    return proc, setup * REFERENCE_NS / reference_ns


def probe_setup(cmd: list[str]) -> float:
    proc, setup = start_worker(cmd + ["--probe"])
    proc.communicate(timeout=60)
    return setup


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    probes = 0 if trace else SETUP_PROBES
    setups = [probe_setup(cmd) for _ in range(probes)]
    proc, setup = start_worker(cmd)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{name} ran past {BUDGET_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited with {proc.returncode}")
    setups += [probe_setup(cmd) for _ in range(probes)]
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["setup_runs"] = len(setups)
    return result


def end_to_end(result: dict) -> dict:
    pct = result["percentiles"]
    return {
        "setup_s": result["setup_s"],
        "ok_per_s": result["ok_per_s"],
        "op_p50_ms": pct["50"][0],
        "op_p90_ms": pct["90"][0],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def failed_count(result: dict) -> int:
    return sum(result["failed"].values())


def describe(name: str, result: dict, trace: int) -> list[str]:
    n = result["attempted"]
    failed = failed_count(result)
    refused = sum(result["refused"].values())
    timed = result["timed_ops"]
    lines = [f"{name}: {n} ops attempted, {result['ok']} ok, {refused} refused, {failed} failed; "
             f"timings over the {timed} ops of {result['rounds']} complete rounds, at "
             f"reference speed (host ran at {result['host_speed']:.3f}x of it; raw values in [])"]
    if not trace:
        values = end_to_end(result)
        units = {m: u for m, u, _, _ in END_TO_END}
        pct, raw = result["percentiles"], result["raw"]
        for metric, value in values.items():
            note = ""
            if metric == "setup_s":
                note = f"(median of {result['setup_runs']} set-ups)"
            elif metric == "ok_per_s":
                note = f"[{raw['ok_per_s']:.6g}] (over {timed} ops)"
            elif metric.startswith("op_p"):
                p = metric[4:6]
                note = f"[{raw['percentiles'][p][0]:.6g}] (n={timed}, {pct[p][1]} beyond)"
            lines.append(f"  {metric:<14} {value:<14.6g} {units[metric]:<6} {note}")
        if timed >= 1000:
            lines.append(f"  {'op_p99_ms':<14} {pct['99'][0]:<14.6g} {'ms':<6} "
                         f"[{raw['percentiles']['99'][0]:.6g}] (n={timed}, {pct['99'][1]} beyond)")
        lines.append(f"  {'failed_share':<14} {failed / n:<14.6g} {'ratio':<6} ({failed} of {n})")
    else:
        for metric, unit, _ in PER_LAYER:
            lines.append(f"  {metric:<40} {result['layers'][metric]:<14.6g} {unit}")
        lines.append(f"  spans: {result['spans_file']}")
    if result["failed"]:
        lines.append(f"  failures: {json.dumps(result['failed'])}")
    lines.append(f"  refusals: {json.dumps(result['refused'], sort_keys=True)}")
    lines.append(f"  descriptors (first round): {json.dumps(result['desc'], sort_keys=True)}")
    return lines


def final_line(result: dict, trace: int) -> str:
    if trace:
        units = {m: u for m, u, _ in PER_LAYER}
        values = result["layers"]
    else:
        units = {m: u for m, u, _, _ in END_TO_END}
        values = end_to_end(result)
    failed = failed_count(result)
    return json.dumps({
        "correct": failed == 0 and result["first_round_complete"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    })


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def report(seed: int, seconds: float, smoke: bool) -> int:
    record = {"machine": machine(), "seed": seed, "seconds": seconds, "workloads": {},
              "predictions": {k: dict(zip(("metrics", "should_move", "workloads"), v))
                              for k, v in PREDICTIONS.items()}}
    ok = True
    for name, why in WORKLOADS.items():
        runs = {trace: run_workload(name, seed, seconds, trace, smoke) for trace in (0, 1)}
        for trace, result in runs.items():
            print("\n".join(describe(name, result, trace)), flush=True)
            ok = ok and failed_count(result) == 0 and result["first_round_complete"]
        plain, traced = runs[0], runs[1]
        overhead = plain["ok_per_s"] / traced["ok_per_s"]
        print(f"  tracing overhead: untraced ok_per_s / traced ok_per_s = {overhead:.3f}")
        record["workloads"][name] = {
            "why": why,
            "end_to_end": end_to_end(plain),
            "op_p99_ms": plain["percentiles"]["99"][0] if plain["timed_ops"] >= 1000 else None,
            "attempted": plain["attempted"],
            "rounds": plain["rounds"],
            "timed_ops": plain["timed_ops"],
            "host_speed": plain["host_speed"],
            "raw": plain["raw"],
            "beyond": {p: v[1] for p, v in plain["percentiles"].items()},
            "failed_share": failed_count(plain) / plain["attempted"],
            "refused": plain["refused"],
            "descriptors": plain["desc"],
            "per_layer": traced["layers"],
            "trace_overhead": overhead,
        }
        if name == "cli-cold":
            record["machine"]["cli.interp_ms"] = traced["layers"]["cli.interp_ms"]
    print(json.dumps(record))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="delpezzo benchmark")
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at a tiny size")
    ap.add_argument("--report", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "delpezzo", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/delpezzo is missing", file=sys.stderr)
        return 2
    try:
        if args.smoke or args.report:
            return report(args.seed, 0 if args.smoke else args.seconds, args.smoke)
        if args.workload is None:
            ap.error("--workload, --report or --smoke is required")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(args.workload, result, args.trace)))
    print(final_line(result, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
