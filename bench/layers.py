"""Metric names, units and the layer predictions the benchmark records.

BENCHMARK.json lists the same end-to-end and per-layer metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

# name -> why the workload is in the benchmark (BENCHMARK.json repeats it).
WORKLOADS = {
    "orbit-p2": "3 members, integers grow to hundreds of bits: chern/picard arithmetic "
                "and the chi cache (high hit ratio); the certificate is cheap at n = 3",
    "braid-log": "6 to 11 members, small integers: the O(n^2) Gram re-check per letter, "
                 "log writing, reading and replay, and the helix period check",
    "descend-sweep": "the only workload where pipeline, rotation_index and hn_coarsen do "
                     "the work; refusals at [spread] and [order] are counted, not dropped",
    "cli-cold": "pays interpreter start, import and cold caches on every op, as a shell "
                "user does; the chi cache cannot help",
}

# (name, unit, better, bound): printed with tracing off.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ok_per_s", "ops/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PIPELINE_STAGES = ("order", "spread", "rotate", "twist", "peel", "descend")

_CALLS = (
    "picard.dot", "picard.DivisorClass.new", "chern.euler_form", "chern.KClass.new",
    "chern.twist", "mutation.mutate_collection", "mutation.mutate_pair",
    "mutation.is_numerically_exceptional", "pairs.classify_pair",
    "pairs.require_exceptional_pair", "stability.hn_coarsen", "stability.compare_slope",
)
_SELF = (
    "picard.dot", "picard.enumerate_roots", "chern.euler_form", "chern.KClass.new",
    "mutation.mutate_collection", "mutation.mutate_pair",
    "mutation.is_numerically_exceptional", "mutation.check_helix_period",
    "pairs.classify_pair", "pairs.rotation_index", "stability.hn_coarsen",
    "markov.markov_tree", "markov.pair_orbit",
    *(f"pipeline.{f}" for f in (
        "order_hom", "reduce_spread", "rotate_twist", "global_twist",
        "peel_curve", "normalize_and_descend",
    )),
    "logs.to_jsonl", "logs.from_jsonl", "logs.replay",
)

# (name, unit, better): printed with tracing on.  All but trace.ok_per_s
# describe the workload's first round (see workloads.py), so counts repeat
# exactly for a seed.  <fn>.calls counts calls at every module binding;
# <fn>.self_ms is span time minus child-span time, and includes the
# tracer's own cost for the child calls.  chern.max_int_bits is the widest
# integer in any answer; mutation.gram_entries_checked counts the chi
# entries is_numerically_exceptional scanned; chi_per_mutation is
# euler_form calls per mutate_collection call; chi_cache.hit_ratio and
# chi_cache.size are the hits share and the entries added during the ops
# (summed over processes for cli-cold); pipeline.refused.<stage> counts
# refusals by PipelineError stage, "other" for other DomainErrors; cli.*
# are medians per call of a bare `python -c pass`, of `import
# delpezzo.cli` and of the command itself; trace.ok_per_s is ok_per_s of
# the traced run, to compare with the untraced one.
PER_LAYER = (
    *((f"{s}.calls", "count", "lower") for s in _CALLS),
    *((f"{s}.self_ms", "ms", "lower") for s in _SELF),
    ("chern.max_int_bits", "bits", "lower"),
    ("mutation.gram_entries_checked", "count", "lower"),
    ("mutation.chi_per_mutation", "chi/mutation", "lower"),
    ("mutation.chi_cache.hit_ratio", "ratio", "higher"),
    ("mutation.chi_cache.size", "count", "lower"),
    *((f"pipeline.refused.{s}", "count", "lower") for s in PIPELINE_STAGES + ("other",)),
    ("logs.bytes_per_step", "B/step", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.command_ms", "ms", "lower"),
    ("trace.ok_per_s", "ops/s", "higher"),
)

# layer -> (per-layer metrics, end-to-end metrics it should move, workloads)
PREDICTIONS = {
    "picard": ("picard.dot.{calls,self_ms}, picard.DivisorClass.new.calls, "
               "picard.enumerate_roots.self_ms",
               "ok_per_s, op_p50_ms (op_p50_ms for roots)",
               "orbit-p2, braid-log (cli-cold)"),
    "chern": ("chern.euler_form.{calls,self_ms}, chern.KClass.new.{calls,self_ms}, "
              "chern.twist.calls, chern.max_int_bits",
              "ok_per_s, op_p99_ms", "orbit-p2 most, braid-log"),
    "mutation": ("mutation.mutate_collection.{calls,self_ms}, mutation.mutate_pair.{calls,self_ms}, "
                 "mutation.is_numerically_exceptional.{calls,self_ms}, "
                 "mutation.gram_entries_checked, mutation.chi_per_mutation, "
                 "mutation.check_helix_period.self_ms, mutation.chi_cache.{hit_ratio,size}",
                 "ok_per_s, op_p50_ms; peak_rss_mb for the cache",
                 "braid-log (certificate), orbit-p2 (cache, RSS)"),
    "pairs": ("pairs.classify_pair.{calls,self_ms}, pairs.require_exceptional_pair.calls, "
              "pairs.rotation_index.self_ms",
              "op_p50_ms", "orbit-p2 (one classify per mutation), descend-sweep"),
    "stability": ("stability.hn_coarsen.{calls,self_ms}, stability.compare_slope.calls",
                  "op_p50_ms", "descend-sweep"),
    "markov": ("markov.markov_tree.self_ms, markov.pair_orbit.self_ms",
               "small share; predicted unchanged", "orbit-p2"),
    "pipeline": ("pipeline.{order_hom,reduce_spread,rotate_twist,global_twist,peel_curve,"
                 "normalize_and_descend}.self_ms, pipeline.refused.<stage>",
                 "op_p50_ms, op_p99_ms; ok_per_s as refusals turn into answers",
                 "descend-sweep"),
    "logs": ("logs.to_jsonl.self_ms, logs.from_jsonl.self_ms, logs.replay.self_ms, "
             "logs.bytes_per_step",
             "ok_per_s, peak_rss_mb", "braid-log most, descend-sweep"),
    "cli": ("cli.interp_ms, cli.import_ms, cli.command_ms",
            "op_p50_ms, op_p90_ms, setup_s", "cli-cold"),
}


def layer_metrics(summary: dict, extra: dict) -> dict:
    """Every PER_LAYER value from a tracer summary of the first round plus
    the values the worker measured itself (``extra``)."""
    calls, self_ns, counts = summary["calls"], summary["self_ns"], summary["counts"]
    values = dict(extra)
    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(base, 0)
        elif kind == "self_ms":
            values[name] = self_ns.get(base, 0) / 1e6
    mutations = calls.get("mutation.mutate_collection", 0)
    values["mutation.gram_entries_checked"] = counts.get("gram_entries", 0)
    values["mutation.chi_per_mutation"] = (
        calls.get("chern.euler_form", 0) / mutations if mutations else 0
    )
    hits, misses = counts.get("chi_hits", 0), counts.get("chi_misses", 0)
    values["mutation.chi_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    values["mutation.chi_cache.size"] = counts.get("chi_size", 0)
    steps = counts.get("log_steps", 0)
    values["logs.bytes_per_step"] = counts.get("log_bytes", 0) / steps if steps else 0
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}
