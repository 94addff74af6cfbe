"""Bit-exact replay of mutation logs.

The step records (``LogStep``, ``MutationLog``) and their JSON-lines form
live in ``mutation``, beside the moves that write them, and are
re-exported here.  ``replay`` checks that every step's ``after`` is
reproduced exactly from its ``before`` and ``params``: a mutate step on
the integers the two recorded collections hold, with no class built and
n chi, chi(E,F) read off the skew form (``mutation.is_recorded_mutation``),
every other kind by recomputing it and comparing the result whole
(``mutation.is_recorded_state``).  After the first step, ``before`` is
the previous step's verified recorded ``after``.
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

__all__ = ["LogStep", "MutationLog", "State", "replay"]

# A recorded direction is the JSON string of a Direction's value.
_DIRECTIONS = {d.value: d for d in Direction}


def _param(step: LogStep, key: str):
    if key not in step.params:
        raise InvalidInputError(f"{step.kind} step needs param {key!r}")
    return step.params[key]


def _int_param(step: LogStep, key: str) -> int:
    value = _param(step, key)
    if type(value) is not int:
        raise InvalidInputError(f"{step.kind} param {key} is not a JSON integer: {value!r}")
    return value


def _collection(step: LogStep, before: State) -> Collection:
    if not isinstance(before, Collection):
        raise InvalidInputError(f"{step.kind} step must start from a collection")
    return before


def _check_rotation_record(step: LogStep, c: Collection, j: int) -> None:
    """The rotate stage records the slope group it rotated to the front and
    the restriction-degree window it reached.  The group must be the one
    that j starts; the window must be two JSON integers at most one apart.
    Re-deriving the window needs the multiplicities, which the log records
    only at the peel step."""
    if "group_index" not in step.params and "window" not in step.params:
        return  # a rotation of the spread stage records j alone
    group_index = _int_param(step, "group_index")
    if rotation_start(c, group_index) != j:
        raise InvalidInputError(f"rotate step j = {j} does not start group {group_index}")
    window = _param(step, "window")
    if (
        not isinstance(window, list)
        or len(window) != 2
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
    if step.kind == "mutate":
        name = _param(step, "direction")
        direction = _DIRECTIONS.get(name) if isinstance(name, str) else None
        if direction is None:
            raise InvalidInputError(f"unknown direction {name!r}")
        position = _int_param(step, "position")
        return is_recorded_mutation(
            _collection(step, before), position, direction, step.after
        )
    return is_recorded_state(_recompute(step, before), step.after)


def _recompute(step: LogStep, before: State) -> State:
    kind = step.kind
    if kind == "order":
        ordered, _ = order_hom(_collection(step, before))
        return ordered
    if kind == "rotate":
        c, j = _collection(step, before), _int_param(step, "j")
        _check_rotation_record(step, c, j)
        return rotate_twist(c, j)
    if kind == "twist":
        t = _int_param(step, "k_multiple")
        c = _collection(step, before)
        return global_twist(c, t * canonical_divisor(c.surface.d))
    if kind == "peel":
        mults = _param(step, "mults")
        if not isinstance(mults, list) or any(type(m) is not int for m in mults):
            raise InvalidInputError(f"peel param mults must list JSON integers: {mults!r}")
        e_index, recorded = _int_param(step, "e_index"), _int_param(step, "alpha")
        G, alpha, _ = peel_curve(_collection(step, before), mults, e_index)
        if alpha != recorded:
            raise InvalidInputError(f"peel step replays with alpha {alpha}")
        return G
    if kind == "descend":
        if not isinstance(before, KClass):
            raise InvalidInputError("descend step must start from a class")
        S = Surface.from_json(_param(step, "surface"))
        e_index = _int_param(step, "e_index")
        if e_index != S.d:
            raise InvalidInputError(
                f"descend param e_index {e_index} is not the last curve e_{S.d}"
            )
        return descend_class(S, before)
    raise InvalidInputError(f"unknown log step kind {kind!r}")


def replay(log: MutationLog) -> bool:
    """Recompute every step; True iff the steps chain (each starts where the
    one before it ended) and every 'after' is reproduced bit-exactly
    (raises on the first mismatch).

    Step 0 starts from its recorded 'before', which every move certifies
    in full; every later step starts from the recorded 'after' of the step
    before it, once the chain check (identity first) finds it equal to
    its recorded 'before'.  A replayed step's recorded 'after' takes over
    the certificate: a mutate step is checked on the integers the two
    recorded collections hold (``mutation.is_recorded_mutation``), with
    no class or collection built, reads chi(E,F) off the skew form
    (``chern.skew_form``) of the certified pair, and certifies 'after' by
    its new member's Gram row and column, n chi per step; any other step is
    recomputed and compared whole, and only then passes its result's
    certificate on (``mutation.is_recorded_state``).  A log read by
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
