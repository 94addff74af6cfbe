"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of every loaded
``delpezzo`` module at each module binding it is imported under (so a
call from ``mutation`` into ``chern.euler_form`` is caught as well as a
direct one), and hooks construction of ``KClass`` and ``DivisorClass``
through ``__post_init__`` and the ``MutationLog`` JSON-lines methods.

Each call becomes a span (id, name, start ns, end ns, parent id, op id).
Calls and self time -- the span's duration minus the time its child spans
cover -- are aggregated for every span; the first ``keep`` spans are also
kept whole and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

CLASS_HOOKS = (
    ("chern", "KClass", "__post_init__", "chern.KClass.new"),
    ("picard", "DivisorClass", "__post_init__", "picard.DivisorClass.new"),
    ("logs", "MutationLog", "to_jsonl", "logs.to_jsonl"),
    ("logs", "MutationLog", "from_jsonl", "logs.from_jsonl"),
)


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.active = False
        self.op_id = -1
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.keep = keep
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0

    def wrap(self, name: str, fn, post=None):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(self.spans) < self.keep:
                    self.spans.append((span_id, name, start, end, parent, self.op_id))
            if post is not None:
                post(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every loaded delpezzo module; call after importing them."""
        modules = {
            n: m for n, m in sys.modules.items()
            if (n == "delpezzo" or n.startswith("delpezzo.")) and m is not None
        }
        wrappers: dict[int, object] = {}
        for mod_name, module in modules.items():
            short = mod_name.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod_name
                ):
                    wrappers[id(value)] = self.wrap(f"{short}.{attr}", value, POST.get(attr))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    setattr(module, attr, wrappers[id(value)])
        for mod_short, cls_name, method, name in CLASS_HOOKS:
            module = modules.get(f"delpezzo.{mod_short}")
            cls = getattr(module, cls_name, None)
            raw = cls.__dict__.get(method) if cls is not None else None
            if isinstance(raw, staticmethod):
                setattr(cls, method, staticmethod(self.wrap(name, raw.__func__, POST.get(method))))
            elif raw is not None:
                setattr(cls, method, self.wrap(name, raw, POST.get(method)))

    def merge(self, other: dict) -> None:
        """Add the aggregates another process wrote with ``summary``."""
        self.calls.update(other["calls"])
        self.self_ns.update(other["self_ns"])
        self.counts.update(other["counts"])

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    def write_spans(self, path) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _gram_entries(counts: Counter, args, result) -> None:
    """Entries is_numerically_exceptional scanned: all n(n+1)/2 on success,
    up to and including the first violation otherwise."""
    ok, violation = result
    if ok:
        n = len(args[0].members)
        counts["gram_entries"] += n * (n + 1) // 2
    else:
        i, j = violation.i, violation.j
        counts["gram_entries"] += i * (i + 1) // 2 + 1 + (0 if i == j else j + 1)


def _log_bytes(counts: Counter, args, result) -> None:
    counts["log_bytes"] += len(result.encode("utf-8"))
    counts["log_steps"] += len(args[0].steps)


POST = {"is_numerically_exceptional": _gram_entries, "to_jsonl": _log_bytes}
