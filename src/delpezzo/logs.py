"""Bit-exact replay of mutation logs.

The step records (``LogStep``, ``MutationLog``) and their JSON-lines form
live in ``mutation``, beside the moves that write them, and are
re-exported here.  ``replay`` recomputes every step's ``after`` from its
``before`` and ``params`` and checks it is reproduced exactly.
"""

from __future__ import annotations

from .chern import KClass, descend_class
from .errors import InvalidInputError
from .mutation import (
    Collection,
    Direction,
    LogStep,
    MutationLog,
    State,
    mutate_collection,
)
from .picard import Surface, canonical_divisor
from .pipeline import global_twist, order_hom, peel_curve, rotate_twist

__all__ = ["LogStep", "MutationLog", "State", "recompute_step", "replay"]


def recompute_step(step: LogStep) -> State:
    """Reapply a step's transformation to its own 'before' state."""
    kind, params, before = step.kind, step.params, step.before
    if kind == "mutate":
        assert isinstance(before, Collection)
        return mutate_collection(
            before, int(params["position"]), Direction(params["direction"])
        )
    if kind == "order":
        assert isinstance(before, Collection)
        ordered, _ = order_hom(before)
        return ordered
    if kind == "rotate":
        assert isinstance(before, Collection)
        return rotate_twist(before, int(params["j"]))
    if kind == "twist":
        assert isinstance(before, Collection)
        t = int(params["k_multiple"])
        K = canonical_divisor(before.surface.d)
        return global_twist(before, t * K)
    if kind == "peel":
        assert isinstance(before, Collection)
        G, alpha, _ = peel_curve(
            before, [int(m) for m in params["mults"]], int(params["e_index"])
        )
        if alpha != int(params["alpha"]):
            raise InvalidInputError(f"peel step replays with alpha {alpha}")
        return G
    if kind == "descend":
        assert isinstance(before, KClass)
        surface = Surface.from_json(params["surface"])
        return descend_class(surface, before)
    raise InvalidInputError(f"unknown log step kind {kind!r}")


def replay(log: MutationLog) -> bool:
    """Recompute every step from its recorded 'before'; True iff every
    'after' is reproduced bit-exactly (raises on the first mismatch)."""
    for k, step in enumerate(log.steps):
        result = recompute_step(step)
        if result != step.after:
            raise InvalidInputError(
                f"step {k} ({step.kind}) does not replay to its recorded state"
            )
    return True
