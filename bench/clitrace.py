"""`python -m delpezzo.cli` with the benchmark's tracer installed.

    python3 bench/clitrace.py STATS_FILE <cli arguments>

Runs one CLI command exactly as the module entry point does and writes the
per-function calls and self time, the chi cache counts and the import and
command times (ns) to STATS_FILE as JSON.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import delpezzo.cli as cli

    t1 = time.perf_counter_ns()
    from tracer import Tracer
    from worker import chi_cache_info

    tracer = Tracer(keep=0)
    tracer.install()
    tracer.active = True
    t2 = time.perf_counter_ns()
    code = cli.run(argv)
    t3 = time.perf_counter_ns()
    tracer.active = False
    info = chi_cache_info()
    if info is not None:
        tracer.counts.update({"chi_hits": info[0], "chi_misses": info[1], "chi_size": info[2]})
    with open(stats_file, "w", encoding="utf-8") as fh:
        json.dump({**tracer.summary(), "import_ns": t1 - t0, "command_ns": t3 - t2}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
