"""Blow-down constructibility pipeline.

One verified level of the descent that recognizes a collection's
associated class as a pullback from the surface with one fewer blow-up:

    hom-order -> shrink the slope window below K^2 -> rotate so all
    restriction degrees on e_d share a two-integer window -> twist that
    window onto {-1, 0} -> peel the O_e(-1) layer off the accumulated
    class -> delete the e_d coordinate.

``normalize_and_descend`` runs the stages order, spread, rotate, twist,
peel and descend from one table; a stage's refusal is re-raised as a
``PipelineError`` tagged with the stage.  Every move is recorded as a
replayable ``LogStep``.  Multiplicities of the accumulated class are
caller-supplied (they are not determined by K-theory data) and are
carried positionally through the pipeline.

Rank-0 members are accepted when they are multiples of the peel-curve
class [O_{e_d}(-1)]: the basic collections contain them and the peel
identity strips them along with the bundle layer.  Slope stages hold
them fixed; moves that would twist them are refused rather than guessed.
"""

from __future__ import annotations

from fractions import Fraction

from .chern import (
    KClass,
    curve_class,
    descend_class,
    euler_form,
    slope_mu,
    twist,
    weighted_sum,
)
from .errors import (
    DomainError,
    ExcludedPairError,
    InvalidInputError,
    InvariantViolationError,
    PipelineError,
)
from .mutation import (
    Collection,
    Direction,
    LogStep,
    MutationLog,
    certify,
    mutate_collection,
    require_numerically_exceptional,
)
from .pairs import restriction_degree, rotation_index, splitting_degrees
from .picard import (
    DivisorClass,
    Surface,
    canonical_divisor,
    exceptional_divisor,
    intersect,
)


def _torsion_multiplicity(S: Surface, E: KClass) -> tuple[int, int] | None:
    """(e_index, k) if E = k * [O_{e_i}(-1)] for some blow-up curve e_i,
    else None.  Raises for rank-0 classes of any other shape."""
    if E.r != 0:
        return None
    for i in range(1, S.d + 1):
        unit = curve_class(S, i, -1)
        coeff = -E.c1.coeffs[i]
        if coeff >= 1 and E == coeff * unit:
            return i, coeff
    raise DomainError(
        f"rank-0 member ({E.r}, {E.c1.coeffs}, {E.ch2}) is not a multiple of a "
        "curve class O_e(-1); the pipeline cannot place it"
    )


def _validate_members(c: Collection) -> list[int]:
    """Positions (0-based) of the positive-rank members; torsion members
    must be peel-curve multiples."""
    positive = []
    for pos, m in enumerate(c.members):
        if m.r < 0:
            raise InvalidInputError("pipeline members need non-negative rank")
        if m.r > 0:
            positive.append(pos)
        else:
            _torsion_multiplicity(c.surface, m)
    return positive


def _mu(c: Collection, pos: int) -> Fraction:
    return slope_mu(c.surface, c.members[pos], c.surface.anticanonical_class())


def _slope_window(c: Collection, positive: list[int]) -> tuple[Fraction, Fraction]:
    mus = [_mu(c, p) for p in positive]
    return min(mus), max(mus)


def order_hom(c: Collection) -> tuple[Collection, MutationLog]:
    """Left-mutate adjacent descending pairs until the anticanonical slopes
    are non-decreasing.  The slope window never widens.  Rank-0 torsion
    members are held fixed; a descent split by a torsion member cannot be
    repaired by adjacent mutations and is refused."""
    require_numerically_exceptional(c)
    positive = _validate_members(c)
    steps: list[LogStep] = []
    current = c
    if positive:
        lo0, hi0 = _slope_window(current, positive)
        guard = len(c.members) ** 2 + len(c.members) + 1
        while True:
            descent = None
            for pos in range(len(current.members) - 1):
                a, b = current.members[pos], current.members[pos + 1]
                if a.r > 0 and b.r > 0 and _mu(current, pos) > _mu(current, pos + 1):
                    descent = pos
                    break
            if descent is None:
                break
            if guard == 0:
                raise InvariantViolationError("hom-ordering failed to terminate")
            guard -= 1
            new = mutate_collection(current, descent + 1, Direction.LEFT)
            steps.append(
                LogStep(
                    kind="mutate",
                    params={"position": descent + 1, "direction": "left"},
                    before=current,
                    after=new,
                )
            )
            current = new
        positive = [p for p, m in enumerate(current.members) if m.r > 0]
        mus = [_mu(current, p) for p in positive]
        if any(x > y for x, y in zip(mus, mus[1:])):
            raise DomainError(
                "descending slopes around a fixed torsion member cannot be "
                "hom-ordered by adjacent mutations"
            )
        lo1, hi1 = _slope_window(current, positive)
        if lo1 < lo0 or hi1 > hi0:
            raise InvariantViolationError("hom-ordering widened the slope window")
    return current, MutationLog(tuple(steps))


def rotate_twist(c: Collection, j: int) -> Collection:
    """(E_j, ..., E_k, E_1(-K), ..., E_{j-1}(-K)); the exceptionality
    certificate is re-verified."""
    if not 1 <= j <= len(c.members):
        raise InvalidInputError(f"rotation index {j} out of range")
    S = c.surface
    minus_k = -canonical_divisor(S.d)
    members = c.members[j - 1 :] + tuple(
        twist(S, m, minus_k) for m in c.members[: j - 1]
    )
    return certify(Collection(S, members), "rotation")


def global_twist(c: Collection, D: DivisorClass) -> Collection:
    """Twist every member by O(D); chi values are unchanged."""
    S = c.surface
    members = tuple(twist(S, m, D) for m in c.members)
    return certify(Collection(S, members), "global twist")


def reduce_spread(c: Collection) -> tuple[Collection, MutationLog]:
    """Rotate-and-twist, re-ordering in between, until the slope window is
    narrower than K^2.  Output is hom-ordered."""
    require_numerically_exceptional(c)
    positive = _validate_members(c)
    if not positive:
        return c, MutationLog(())
    mus = [_mu(c, p) for p in positive]
    if any(x > y for x, y in zip(mus, mus[1:])):
        raise InvalidInputError("reduce_spread needs a hom-ordered collection")
    k2 = c.surface.k_squared
    steps: list[LogStep] = []
    current = c
    lo, hi = _slope_window(current, positive)
    cap = int((hi - lo) / k2) + len(c.members) + 8
    for _ in range(cap):
        positive = [p for p, m in enumerate(current.members) if m.r > 0]
        lo, hi = _slope_window(current, positive)
        if hi - lo < k2:
            return current, MutationLog(tuple(steps))
        if len(positive) != len(current.members):
            raise DomainError(
                "slope-window reduction would twist torsion members"
            )
        base = _mu(current, positive[0])
        if hi - lo > k2:
            j = next(
                p + 1 for p in positive if _mu(current, p) > base + k2
            )
        else:
            # Window exactly K^2: rotate just past the lowest slope level.
            j = next(
                p + 2
                for p, q in zip(positive, positive[1:])
                if _mu(current, p) < _mu(current, q)
            )
        rotated = rotate_twist(current, j)
        steps.append(
            LogStep(kind="rotate", params={"j": j}, before=current, after=rotated)
        )
        current = rotated
        ordered, sub = order_hom(current)
        if len(sub) > 0:
            steps.append(LogStep(kind="order", params={}, before=current, after=ordered))
        current = ordered
    raise PipelineError(
        "spread",
        f"window reduction did not terminate within {cap} rounds "
        f"({len(steps)} moves logged)",
    )


def _forbidden_pair_guard(c: Collection, e_index: int) -> None:
    """On K^2 = 1 surfaces, refuse collections containing a rank-1 pair
    related by a twist by e + K; restriction control fails for these."""
    S = c.surface
    if S.k_squared != 1:
        return
    shift = exceptional_divisor(S.d, e_index) + canonical_divisor(S.d)
    for i, E in enumerate(c.members):
        if E.r != 1:
            continue
        for j, F in enumerate(c.members):
            if i == j or F.r != 1:
                continue
            if F == twist(S, E, shift):
                raise ExcludedPairError(
                    f"members {i} and {j} form a rank-1 pair twisted by e + K "
                    "on a K^2 = 1 surface"
                )


def _member_degrees(c: Collection, e_index: int) -> set[int]:
    """Union of splitting degrees of all members on e_{e_index}.  Torsion
    members on the peel curve contribute their own degree -1; torsion on a
    different blow-up curve restricts trivially and contributes nothing."""
    degrees: set[int] = set()
    for m in c.members:
        if m.r > 0:
            degrees |= splitting_degrees(m.r, restriction_degree(c.surface, m, e_index))
        else:
            info = _torsion_multiplicity(c.surface, m)
            assert info is not None
            if info[0] == e_index:
                degrees.add(-1)
    return degrees


def peel_curve(
    c: Collection, mults: list[int], e_index: int
) -> tuple[KClass, int, MutationLog]:
    """Subtract the O_e(-1) layer from the accumulated class.

    F = sum mults[i] * [E_i], alpha = chi(F, [O_e(-1)]) >= 0, and
    G = F - alpha * [O_e(-1)] satisfies c1(G).e = 0 and
    chi(G, [O_e(-1)]) = 0: G is descent-ready.
    """
    require_numerically_exceptional(c)
    _validate_members(c)
    if len(mults) != len(c.members):
        raise InvalidInputError("one multiplicity per member is required")
    if any(not isinstance(m, int) or m < 1 for m in mults):
        raise InvalidInputError("multiplicities must be positive integers")
    S = c.surface
    _forbidden_pair_guard(c, e_index)
    degrees = _member_degrees(c, e_index)
    if not degrees <= {-1, 0}:
        raise DomainError(
            f"restriction degrees {sorted(degrees)} outside {{-1, 0}}: rotate first"
        )
    L = curve_class(S, e_index, -1)
    F = weighted_sum(zip(c.members, mults))
    alpha = euler_form(S, F, L)
    if alpha < 0:
        raise InvariantViolationError(f"peel multiplicity alpha = {alpha} < 0")
    G = F - alpha * L
    e = exceptional_divisor(S.d, e_index)
    beta = F.r - alpha
    if (
        intersect(S, G.c1, e) != 0
        or euler_form(S, G, L) != 0
        or euler_form(S, L, G) != -G.r
        or euler_form(S, L, F) != -beta
    ):
        raise InvariantViolationError("peel output failed its exact identities")
    step = LogStep(
        kind="peel",
        params={"mults": list(mults), "e_index": e_index, "alpha": alpha},
        before=c,
        after=G,
    )
    return G, alpha, MutationLog((step,))


def _slope_groups(c: Collection, positive: list[int]) -> list[list[int]]:
    """Contiguous runs of equal slope among the positive-rank members."""
    groups: list[list[int]] = []
    for p in positive:
        if groups and _mu(c, groups[-1][-1]) == _mu(c, p):
            groups[-1].append(p)
        else:
            groups.append([p])
    return groups


def _order_stage(S: Surface, c: Collection, mults: list[int]):
    ordered, sub = order_hom(c)
    return ordered, mults, [LogStep("order", {}, c, ordered)] if len(sub) else []


def _spread_stage(S: Surface, c: Collection, mults: list[int]):
    reduced, sub = reduce_spread(c)
    return reduced, mults, sub.steps


def _group_start(groups: list[list[int]], i: int) -> int:
    """The rotation j that brings slope group i (1-based) to the front; the
    first group needs none, so torsion members before it stay in place."""
    return 1 if i == 1 else groups[i - 1][0] + 1


def rotation_start(c: Collection, group_index: int) -> int:
    """The j that the rotate stage passes to ``rotate_twist`` when it picks
    slope group ``group_index`` of c."""
    groups = _slope_groups(c, _validate_members(c))
    if not 1 <= group_index <= len(groups):
        raise InvalidInputError(
            f"group index {group_index} is not one of the {len(groups)} slope groups"
        )
    return _group_start(groups, group_index)


def _rotate_stage(S: Surface, c: Collection, mults: list[int]):
    positive = _validate_members(c)
    if not positive:
        raise DomainError("the pipeline needs at least one positive-rank member")
    groups = _slope_groups(c, positive)
    group_classes = [weighted_sum((c.members[p], mults[p]) for p in g) for g in groups]
    i, window = rotation_index(S, group_classes, S.d)
    j = _group_start(groups, i)
    if j > 1 and any(m.r == 0 for m in c.members[: j - 1]):
        raise DomainError("rotation would twist torsion members")
    rotated = rotate_twist(c, j)
    params = {"j": j, "group_index": i, "window": [window[0], window[1]]}
    step = LogStep("rotate", params, c, rotated)
    return rotated, mults[j - 1 :] + mults[: j - 1], [step]


def _twist_stage(S: Surface, c: Collection, mults: list[int]):
    degrees = _member_degrees(c, S.d)
    if max(degrees) - min(degrees) > 1:
        raise DomainError(
            f"restriction degrees {sorted(degrees)} span more than a "
            "two-integer window after rotation"
        )
    t = 0 if degrees <= {-1, 0} else max(degrees)
    if t == 0:
        return c, mults, []
    if any(m.r == 0 for m in c.members):
        raise DomainError("degree normalization would twist torsion members")
    twisted = global_twist(c, t * canonical_divisor(S.d))
    return twisted, mults, [LogStep("twist", {"k_multiple": t}, c, twisted)]


def _peel_stage(S: Surface, c: Collection, mults: list[int]):
    G, _, sub = peel_curve(c, mults, S.d)
    return G, mults, sub.steps


def _descend_stage(S: Surface, G: KClass, mults: list[int]):
    descended = descend_class(S, G)
    params = {"e_index": S.d, "surface": S.to_json()}
    return descended, mults, [LogStep("descend", params, G, descended)]


# Each stage maps (surface, state, mults) to the new state and mults and
# the steps that record the move; the state is a collection up to peel and
# the peeled class after it.
_STAGES = (
    ("order", _order_stage),
    ("spread", _spread_stage),
    ("rotate", _rotate_stage),
    ("twist", _twist_stage),
    ("peel", _peel_stage),
    ("descend", _descend_stage),
)


def normalize_and_descend(
    c: Collection, mults: list[int] | None = None
) -> tuple[KClass, MutationLog]:
    """One level of the descent: order, shrink the slope window, rotate and
    twist the restriction degrees onto {-1, 0}, peel, and delete the e_d
    coordinate.  Emits the full replayable log.  No recursion: the caller
    supplies the next level's collection if one is wanted."""
    S = c.surface
    if S.d == 0:
        raise PipelineError("descend", "the surface is already the plane")
    if mults is None:
        mults = [1] * len(c.members)
    if len(mults) != len(c.members):
        raise PipelineError("peel", "one multiplicity per member is required")
    # The K^2 = 1 exclusion is a hypothesis on the input collection; check
    # it before any stage can reshape the pair out of recognizable form.
    _forbidden_pair_guard(c, S.d)
    steps: list[LogStep] = []
    state: Collection | KClass = c
    for stage, run in _STAGES:
        try:
            state, mults, new_steps = run(S, state, mults)
        except PipelineError:
            raise
        except (InvalidInputError, DomainError) as exc:
            raise PipelineError(stage, str(exc)) from exc
        steps.extend(new_steps)
    return state, MutationLog(tuple(steps))
