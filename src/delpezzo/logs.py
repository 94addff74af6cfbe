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


def _param(step: LogStep, key: str):
    if key not in step.params:
        raise InvalidInputError(f"{step.kind} step needs param {key!r}")
    return step.params[key]


def _int_param(step: LogStep, key: str) -> int:
    value = _param(step, key)
    if type(value) is not int:
        raise InvalidInputError(f"{step.kind} param {key} is not a JSON integer: {value!r}")
    return value


def _collection_before(step: LogStep) -> Collection:
    if not isinstance(step.before, Collection):
        raise InvalidInputError(f"{step.kind} step must start from a collection")
    return step.before


def recompute_step(step: LogStep) -> State:
    """Reapply a step's transformation to its own 'before' state.  Params
    must be JSON integers where the move reads integers."""
    kind, before = step.kind, step.before
    if kind == "mutate":
        direction = _param(step, "direction")
        if direction not in ("left", "right"):
            raise InvalidInputError(f"unknown direction {direction!r}")
        position = _int_param(step, "position")
        return mutate_collection(_collection_before(step), position, Direction(direction))
    if kind == "order":
        ordered, _ = order_hom(_collection_before(step))
        return ordered
    if kind == "rotate":
        return rotate_twist(_collection_before(step), _int_param(step, "j"))
    if kind == "twist":
        t = _int_param(step, "k_multiple")
        c = _collection_before(step)
        return global_twist(c, t * canonical_divisor(c.surface.d))
    if kind == "peel":
        mults = _param(step, "mults")
        if not isinstance(mults, list) or any(type(m) is not int for m in mults):
            raise InvalidInputError(f"peel param mults must list JSON integers: {mults!r}")
        e_index, recorded = _int_param(step, "e_index"), _int_param(step, "alpha")
        G, alpha, _ = peel_curve(_collection_before(step), mults, e_index)
        if alpha != recorded:
            raise InvalidInputError(f"peel step replays with alpha {alpha}")
        return G
    if kind == "descend":
        if not isinstance(before, KClass):
            raise InvalidInputError("descend step must start from a class")
        return descend_class(Surface.from_json(_param(step, "surface")), before)
    raise InvalidInputError(f"unknown log step kind {kind!r}")


def replay(log: MutationLog) -> bool:
    """Recompute every step from its recorded 'before'; True iff the steps
    chain (each starts where the one before it ended) and every 'after' is
    reproduced bit-exactly (raises on the first mismatch)."""
    for k, step in enumerate(log.steps):
        if k and step.before != log.steps[k - 1].after:
            raise InvalidInputError(
                f"step {k} ({step.kind}) does not start where step {k - 1} ended"
            )
        result = recompute_step(step)
        if result != step.after:
            raise InvalidInputError(
                f"step {k} ({step.kind}) does not replay to its recorded state"
            )
    return True
