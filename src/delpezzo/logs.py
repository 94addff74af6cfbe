"""Bit-exact replay of mutation logs.

The step records (``LogStep``, ``MutationLog``) and their JSON-lines form
live in ``mutation``, beside the moves that write them, and are
re-exported here.  ``replay`` checks that every step's ``after`` is
reproduced exactly from its ``before`` and ``params``: a mutate step on
the integers the two recorded collections hold, with no class built and
n chi, chi(E,F) read off the skew form (``mutation.is_recorded_mutation``),
every other kind by recomputing it and comparing the result whole
(``mutation.is_recorded_state``).  After the first step, ``before`` is
the previous step's verified recorded ``after``.  ``_PARAMS`` declares
the keys of each step kind's params, once.
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
    global_twist,
    is_recorded_mutation,
    is_recorded_state,
    rotate_twist,
)
from .picard import Surface, canonical_divisor
from .pipeline import order_hom, peel_curve, rotation_start
from .values import ANY, JsonFormat

__all__ = ["LogStep", "MutationLog", "State", "replay"]

# A recorded direction is the JSON string of a Direction's value.
_DIRECTIONS = {d.value: d for d in Direction}

# The params of each step kind, read once per replayed step; peel_curve
# and Surface.from_json check peel's mults and descend's surface.
_PARAMS = {
    "mutate": JsonFormat("mutate params", {"position": int, "direction": str}),
    "order": JsonFormat("order params", {}),
    "rotate": JsonFormat("rotate params", {"j": int}, {"group_index": int, "window": list}),
    "twist": JsonFormat("twist params", {"k_multiple": int}),
    "peel": JsonFormat("peel params", {"mults": list, "e_index": int, "alpha": int}),
    "descend": JsonFormat("descend params", {"e_index": int, "surface": ANY}),
}


def _collection(step: LogStep, before: State) -> Collection:
    if not isinstance(before, Collection):
        raise InvalidInputError(f"{step.kind} step must start from a collection")
    return before


def _check_rotation_record(c: Collection, j: int, group_index, window) -> None:
    """A rotate stage's group must be the one that j starts, its window two
    JSON integers at most one apart.  The window is not re-derived: that
    needs the multiplicities, which the log records only at peel."""
    if group_index is None and window is None:
        return  # a rotation of the spread stage records j alone
    if group_index is None or window is None:
        missing = "window" if window is None else "group_index"
        raise InvalidInputError(f"missing rotate params key {missing!r}")
    if rotation_start(c, group_index) != j:
        raise InvalidInputError(f"rotate step j = {j} does not start group {group_index}")
    if (
        len(window) != 2
        or any(type(w) is not int for w in window)
        or window[1] - window[0] not in (0, 1)
    ):
        raise InvalidInputError(
            f"rotate param window must be two JSON integers [w, w] or [w, w+1]: {window!r}"
        )


def _replay_step(step: LogStep, before: State) -> bool:
    """Whether the step, started from ``before``, reproduces its recorded
    'after'; a recorded collection that does takes over the certificate.
    A mutate step is checked on integers by
    ``mutation.is_recorded_mutation``, which builds no class; every other
    kind is recomputed and compared whole by
    ``mutation.is_recorded_state``."""
    try:
        keys = _PARAMS[step.kind]
    except (KeyError, TypeError) as exc:  # TypeError: a list or an object
        raise InvalidInputError(f"unknown log step kind {step.kind!r}") from exc
    params = keys.read(step.params)
    if step.kind == "mutate":
        position, name = params
        direction = _DIRECTIONS.get(name)
        if direction is None:
            raise InvalidInputError(f"unknown direction {name!r}")
        return is_recorded_mutation(
            _collection(step, before), position, direction, step.after
        )
    return is_recorded_state(_recompute(step, before, params), step.after)


def _recompute(step: LogStep, before: State, params: tuple) -> State:
    if step.kind == "descend":
        e_index, surface = params
        if not isinstance(before, KClass):
            raise InvalidInputError("descend step must start from a class")
        S = Surface.from_json(surface)
        if e_index != S.d:
            raise InvalidInputError(
                f"descend param e_index {e_index} is not the last curve e_{S.d}"
            )
        return descend_class(S, before)
    c = _collection(step, before)
    if step.kind == "order":
        return order_hom(c)[0]
    if step.kind == "rotate":
        j, group_index, window = params
        _check_rotation_record(c, j, group_index, window)
        return rotate_twist(c, j)
    if step.kind == "twist":
        (t,) = params
        return global_twist(c, t * canonical_divisor(c.surface.d))
    mults, e_index, recorded = params  # a peel step
    G, alpha, _ = peel_curve(c, mults, e_index)
    if alpha != recorded:
        raise InvalidInputError(f"peel step replays with alpha {alpha}")
    return G


def replay(log: MutationLog) -> bool:
    """Recompute every step; True iff the steps chain (each starts where the
    one before it ended) and every 'after' is reproduced bit-exactly
    (raises on the first mismatch).

    Step 0 starts from its recorded 'before', which every move certifies
    in full; every later step starts from the recorded 'after' of the step
    before it, once the chain check (identity first) finds it equal to
    its recorded 'before'.  A replayed step's recorded 'after' takes over
    the certificate (``mutation.is_recorded_mutation`` and
    ``is_recorded_state``).  A log read by
    ``from_jsonl`` shares each state and member by its text, so the chain
    check and the comparison of the members a step leaves alone meet
    identical objects."""
    state = None
    for k, step in enumerate(log.steps):
        before = step.before
        if k:
            if before is not state and before != state:
                raise InvalidInputError(
                    f"step {k} ({step.kind}) does not start where step {k - 1} ended"
                )
            before = state
        if not _replay_step(step, before):
            raise InvalidInputError(
                f"step {k} ({step.kind}) does not replay to its recorded state"
            )
        state = step.after
    return True
