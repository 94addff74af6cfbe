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

Each stage reads a collection's members once, through ``_slopes``: it
checks every member and gives its anticanonical slope, None for a
torsion member, and runs again only after a move.  Rank-0 members are
accepted when they are multiples k*[O_{e_i}(-1)] of a blow-up curve
class, read off the coordinates (c1 is -k at e_i and zero elsewhere,
2*ch2 = -k): the basic collections contain them and the peel identity
strips them along with the bundle layer.  Slope stages hold them fixed;
moves that would twist them are refused rather than guessed.
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
    anticanonical_divisor,
    canonical_divisor,
    exceptional_divisor,
)


def _torsion_multiplicity(E: KClass) -> tuple[int, int]:
    """(i, k) for the rank-0 class E = k * [O_{e_i}(-1)], k >= 1: c1 is -k
    at coordinate i and zero elsewhere, and 2*ch2 = -k.  Raises for rank-0
    classes of any other shape."""
    coeffs, k = E.c1.coeffs, -E.two_ch2
    support = [i for i, x in enumerate(coeffs) if x]
    if k >= 1 and len(support) == 1 and support[0] >= 1 and coeffs[support[0]] == -k:
        return support[0], k
    raise DomainError(
        f"rank-0 member ({E.r}, {E.c1.coeffs}, {E.ch2}) is not a multiple of a "
        "curve class O_e(-1); the pipeline cannot place it"
    )


def _slopes(c: Collection) -> list[Fraction | None]:
    """Each member's anticanonical slope, None for a torsion member, after
    checking that every rank is non-negative and every torsion member is a
    multiple k*[O_{e_i}(-1)] of a blow-up curve class."""
    slopes: list[Fraction | None] = []
    for m in c.members:
        if m.r < 0:
            raise InvalidInputError("pipeline members need non-negative rank")
        if m.r == 0:
            _torsion_multiplicity(m)
            slopes.append(None)
        else:
            slopes.append(slope_mu(c.surface, m))
    return slopes


def _bundle_slopes(slopes: list[Fraction | None]) -> list[Fraction]:
    return [mu for mu in slopes if mu is not None]


def order_hom(c: Collection) -> tuple[Collection, MutationLog]:
    """Left-mutate adjacent descending pairs until the anticanonical slopes
    are non-decreasing.  A descent has chi(E,F) < 0, so its left mutation
    |chi|*E + F lies strictly between: the window never widens.  Torsion
    members are held fixed; a descent split by one is refused."""
    require_numerically_exceptional(c)
    slopes = _slopes(c)
    guard = len(c.members) ** 2 + len(c.members) + 1
    steps: list[LogStep] = []
    current = c
    while True:
        descents = [
            p
            for p, (a, b) in enumerate(zip(slopes, slopes[1:]))
            if a is not None and b is not None and a > b
        ]
        if not descents:
            break
        if guard == 0:
            raise InvariantViolationError("hom-ordering failed to terminate")
        guard -= 1
        params = {"position": descents[0] + 1, "direction": "left"}
        new = mutate_collection(current, descents[0] + 1, Direction.LEFT)
        steps.append(LogStep("mutate", params, current, new))
        current = new
        slopes = _slopes(current)
    mus = _bundle_slopes(slopes)
    if any(x > y for x, y in zip(mus, mus[1:])):
        raise DomainError(
            "descending slopes around a fixed torsion member cannot be "
            "hom-ordered by adjacent mutations"
        )
    return current, MutationLog(tuple(steps))


def _ordered(c: Collection, steps: list[LogStep]) -> Collection:
    """``order_hom`` of c, recorded in steps as one "order" step when it
    moves anything."""
    ordered, sub = order_hom(c)
    if len(sub):
        steps.append(LogStep("order", {}, c, ordered))
    return ordered


def rotate_twist(c: Collection, j: int) -> Collection:
    """(E_j, ..., E_k, E_1(-K), ..., E_{j-1}(-K)); the exceptionality
    certificate is re-verified."""
    if not 1 <= j <= len(c.members):
        raise InvalidInputError(f"rotation index {j} out of range")
    S = c.surface
    H = anticanonical_divisor(S.d)
    members = c.members[j - 1 :] + tuple(
        twist(S, m, H) for m in c.members[: j - 1]
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
    mus = _bundle_slopes(_slopes(c))
    if not mus:
        return c, MutationLog(())
    if any(x > y for x, y in zip(mus, mus[1:])):
        raise InvalidInputError("reduce_spread needs a hom-ordered collection")
    k2 = c.surface.k_squared
    steps: list[LogStep] = []
    current = c
    cap = int((max(mus) - min(mus)) / k2) + len(c.members) + 8
    for _ in range(cap):
        lo, hi = min(mus), max(mus)
        if hi - lo < k2:
            return current, MutationLog(tuple(steps))
        if len(mus) != len(current.members):
            raise DomainError("slope-window reduction would twist torsion members")
        # Every member has positive rank from here on, so the slopes index
        # the members.
        if hi - lo > k2:
            j = next(p + 1 for p, mu in enumerate(mus) if mu > mus[0] + k2)
        else:
            # Window exactly K^2: rotate just past the lowest slope level.
            j = next(p + 2 for p, (x, y) in enumerate(zip(mus, mus[1:])) if x < y)
        rotated = rotate_twist(current, j)
        steps.append(LogStep("rotate", {"j": j}, current, rotated))
        current = _ordered(rotated, steps)
        mus = _bundle_slopes(_slopes(current))
    raise PipelineError(
        "spread",
        f"window reduction did not terminate within {cap} rounds "
        f"({len(steps)} moves logged)",
    )


def _forbidden_pair_guard(c: Collection, e_index: int) -> None:
    """On K^2 = 1 surfaces, refuse collections containing a rank-1 pair
    related by a twist by e + K; restriction control fails for these.
    Each twist is looked up among the rank-1 members by value, so the
    first (i, j) is found in one pass; a twist by the nonzero e + K never
    gives back its own member, so j != i."""
    S = c.surface
    if S.k_squared != 1:
        return
    shift = exceptional_divisor(S.d, e_index) + canonical_divisor(S.d)
    line_bundles = [(i, E) for i, E in enumerate(c.members) if E.r == 1]
    first = {E: i for i, E in reversed(line_bundles)}  # a member's first index
    for i, E in line_bundles:
        j = first.get(twist(S, E, shift))
        if j is not None:
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
        elif _torsion_multiplicity(m)[0] == e_index:
            degrees.add(-1)
    return degrees


def _check_mults(c: Collection, mults: list[int]) -> None:
    """One positive integer multiplicity per member."""
    if len(mults) != len(c.members):
        raise InvalidInputError("one multiplicity per member is required")
    if any(not isinstance(m, int) or m < 1 for m in mults):
        raise InvalidInputError("multiplicities must be positive integers")


def peel_curve(
    c: Collection, mults: list[int], e_index: int
) -> tuple[KClass, int, MutationLog]:
    """Subtract the O_e(-1) layer from the accumulated class.

    F = sum mults[i] * [E_i], L = [O_e(-1)], alpha = chi(F, L) and
    G = F - alpha * L.  By Riemann-Roch, for every F, alpha = -c1(F).e
    (>= 0 once every degree is in {-1, 0}), c1(G).e = chi(G, L) = 0,
    chi(L, G) = -r(G) and chi(L, F) = alpha - r(F): G is descent-ready.
    """
    require_numerically_exceptional(c)
    _slopes(c)
    _check_mults(c, mults)
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
    G = weighted_sum(((F, 1), (L, -alpha)))
    params = {"mults": list(mults), "e_index": e_index, "alpha": alpha}
    return G, alpha, MutationLog((LogStep("peel", params, c, G),))


def _slope_groups(slopes: list[Fraction | None]) -> list[list[int]]:
    """Contiguous runs of equal slope among the positive-rank members."""
    groups: list[list[int]] = []
    for p, mu in enumerate(slopes):
        if mu is None:
            continue
        if groups and slopes[groups[-1][-1]] == mu:
            groups[-1].append(p)
        else:
            groups.append([p])
    return groups


def _order_stage(S: Surface, c: Collection, mults: list[int]):
    steps: list[LogStep] = []
    return _ordered(c, steps), mults, steps


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
    groups = _slope_groups(_slopes(c))
    if not 1 <= group_index <= len(groups):
        raise InvalidInputError(
            f"group index {group_index} is not one of the {len(groups)} slope groups"
        )
    return _group_start(groups, group_index)


def _rotate_stage(S: Surface, c: Collection, mults: list[int]):
    groups = _slope_groups(_slopes(c))
    if not groups:
        raise DomainError("the pipeline needs at least one positive-rank member")
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
    try:
        _check_mults(c, mults)
    except InvalidInputError as exc:
        raise PipelineError("peel", str(exc)) from exc
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
