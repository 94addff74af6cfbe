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

Each public call checks its collection's member shapes once, through
``_check_members``, and reads a member of positive rank as one with an
anticanonical slope.  No move of the pipeline changes a torsion member
or gives one: the left mutation of a descent gives |chi|E + F, and a
rotation runs only when no member is torsion.
Slopes are ordered by ``chern.compare_mu``, and the window is measured
against K^2, by integer cross-multiplication on (H.c1, r); no Fraction
is built.  Rank-0 members are accepted when they are multiples
k*[O_{e_i}(-1)] of a blow-up curve class, read off the coordinates (c1
is -k at e_i and zero elsewhere, 2*ch2 = -k): the basic collections
contain them and the peel identity strips them along with the bundle
layer.  Slope stages hold them fixed; moves that would twist them are
refused rather than guessed.
"""

from __future__ import annotations

from .chern import (
    KClass,
    compare_mu,
    curve_class,
    descend_class,
    euler_form,
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
    carry_certificate,
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


def _check_members(c: Collection) -> None:
    """Check that every rank is non-negative and every torsion member is a
    multiple k*[O_{e_i}(-1)], k >= 1, of a blow-up curve class: c1 is -k at
    one coordinate i >= 1 and zero elsewhere, and 2*ch2 = -k."""
    for m in c.members:
        if m.r > 0:
            continue
        if m.r < 0:
            raise InvalidInputError("pipeline members need non-negative rank")
        coeffs = m.c1.coeffs
        if m.two_ch2 >= 0 or coeffs[0] or [x for x in coeffs if x] != [m.two_ch2]:
            raise DomainError(
                f"rank-0 member ({m.r}, {coeffs}, {m.ch2}) is not a multiple of a "
                "curve class O_e(-1); the pipeline cannot place it"
            )


def _descending(S: Surface, mus: list[KClass]) -> bool:
    return any(compare_mu(S, x, y) > 0 for x, y in zip(mus, mus[1:]))


def order_hom(c: Collection) -> tuple[Collection, MutationLog]:
    """Left-mutate adjacent descending pairs until the anticanonical slopes
    are non-decreasing.  A descent has chi(E,F) < 0, so its left mutation
    |chi|*E + F lies strictly between: the window never widens.  Torsion
    members are held fixed; a descent split by one is refused."""
    require_numerically_exceptional(c)
    _check_members(c)
    S = c.surface
    guard = len(c.members) ** 2 + len(c.members) + 1
    steps: list[LogStep] = []
    current = c
    while True:
        members = current.members
        descents = [
            p
            for p, (a, b) in enumerate(zip(members, members[1:]))
            if a.r > 0 and b.r > 0 and compare_mu(S, a, b) > 0
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
    if _descending(S, [m for m in current.members if m.r > 0]):
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
    """(E_j, ..., E_k, E_1(-K), ..., E_{j-1}(-K)).  It carries the input's
    certificate: by Serre duality chi(E_b(-K), E_a) = chi(E_a, E_b), so
    every entry below the diagonal stays 0."""
    if not 1 <= j <= len(c.members):
        raise InvalidInputError(f"rotation index {j} out of range")
    S = c.surface
    H = anticanonical_divisor(S.d)
    members = c.members[j - 1 :] + tuple(
        twist(S, m, H) for m in c.members[: j - 1]
    )
    return carry_certificate(c, Collection(S, members))


def global_twist(c: Collection, D: DivisorClass) -> Collection:
    """Twist every member by O(D); chi values are unchanged, so it carries
    the input's certificate."""
    S = c.surface
    members = tuple(twist(S, m, D) for m in c.members)
    return carry_certificate(c, Collection(S, members))


def reduce_spread(c: Collection) -> tuple[Collection, MutationLog]:
    """Rotate-and-twist, re-ordering in between, until the slope window is
    narrower than K^2.  Output is hom-ordered.

    Every rank here is positive, so mu_H(y) - mu_H(x) compares with K^2 as
    hy rx - hx ry with K^2 rx ry, h = H.c1; the input is hom-ordered, so
    the window runs from the first member's slope to the last one's."""
    require_numerically_exceptional(c)
    _check_members(c)
    S = c.surface
    mus = [m for m in c.members if m.r > 0]
    if not mus:
        return c, MutationLog(())
    if _descending(S, mus):
        raise InvalidInputError("reduce_spread needs a hom-ordered collection")
    k2 = S.k_squared

    def excess(x: KClass, y: KClass) -> int:
        """(mu_H(y) - mu_H(x) - K^2) * rx * ry, which has its sign."""
        return y.hc1 * x.r - x.hc1 * y.r - k2 * x.r * y.r

    lo, hi = mus[0], mus[-1]
    cap = (hi.hc1 * lo.r - lo.hc1 * hi.r) // (k2 * lo.r * hi.r) + len(c.members) + 8
    steps: list[LogStep] = []
    current = c
    for _ in range(cap):
        over = excess(mus[0], mus[-1])
        if over < 0:
            return current, MutationLog(tuple(steps))
        if len(mus) != len(current.members):
            raise DomainError("slope-window reduction would twist torsion members")
        # Every member has positive rank from here on, so the slopes index
        # the members.
        if over > 0:
            j = next(p + 1 for p, mu in enumerate(mus) if excess(mus[0], mu) > 0)
        else:
            # Window exactly K^2: rotate just past the lowest slope level.
            j = next(
                p + 2
                for p, (x, y) in enumerate(zip(mus, mus[1:]))
                if compare_mu(S, x, y) < 0
            )
        rotated = rotate_twist(current, j)
        steps.append(LogStep("rotate", {"j": j}, current, rotated))
        current = _ordered(rotated, steps)
        mus = current.members
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
    """Union of splitting degrees of all members on e_{e_index}, once
    ``_check_members`` has passed.  Torsion members on the peel curve
    contribute their own degree -1; torsion on a different blow-up curve
    restricts trivially and contributes nothing."""
    degrees: set[int] = set()
    for m in c.members:
        deg = restriction_degree(c.surface, m, e_index)
        if m.r > 0:
            degrees |= splitting_degrees(m.r, deg)
        elif deg:
            degrees.add(-1)
    return degrees


def _check_mults(c: Collection, mults: list[int]) -> None:
    """One positive integer multiplicity per member, in a list or a tuple."""
    if not isinstance(mults, (list, tuple)):
        raise InvalidInputError(
            f"multiplicities must be a list or a tuple, got {type(mults).__name__}"
        )
    if len(mults) != len(c.members):
        raise InvalidInputError("one multiplicity per member is required")
    if any(type(m) is not int or m < 1 for m in mults):
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
    _check_members(c)
    _check_mults(c, mults)
    if type(e_index) is not int:
        raise InvalidInputError(f"peel curve index {e_index!r} is not an integer")
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


def _slope_groups(S: Surface, members: tuple[KClass, ...]) -> list[list[int]]:
    """Contiguous runs of equal slope among the positive-rank members."""
    groups: list[list[int]] = []
    for p, m in enumerate(members):
        if m.r <= 0:
            continue
        if groups and compare_mu(S, members[groups[-1][-1]], m) == 0:
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
    _check_members(c)
    groups = _slope_groups(c.surface, c.members)
    if not 1 <= group_index <= len(groups):
        raise InvalidInputError(
            f"group index {group_index} is not one of the {len(groups)} slope groups"
        )
    return _group_start(groups, group_index)


def _rotate_stage(S: Surface, c: Collection, mults: list[int]):
    groups = _slope_groups(S, c.members)
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
