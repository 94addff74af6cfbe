"""Classification of numerically exceptional pairs and restriction data.

A pair (E, F) of positive-rank classes with chi(E,E) = chi(F,F) = 1 and
chi(F,E) = 0 falls into exactly one of four types.  The antisymmetric
part of Riemann-Roch is the skew form (``chern.skew_form``)

    chi(E,F) - chi(F,E) = rE H.c1F - rF H.c1E = rE*rF*(mu(F) - mu(E)),

mu = H.c1/r, with H the anticanonical class.  So once chi(F,E) = 0 has
passed, the pair check reads chi(E,F) off the skew form, and its sign
is the slope order, with no slope computed:

    chi(E,F) > 0   hom   (mu(E) < mu(F), dim chi(E,F))
    chi(E,F) < 0   ext   (mu(E) > mu(F), dim -chi(E,F))
    chi(E,F) = 0   singular if C = c1(F) - c1(E) is a non-negative
                   combination of the declared roots, else zero
                   (mu(E) = mu(F))

The classification trusts the chi-level preconditions as certifying
genuine exceptionality; outputs are "numerically" hom/ext/..., nothing
more is claimed.

The module also computes restriction splitting types on an exceptional
curve.  A rigid restriction of rank r and degree deg splits as
alpha*O(s-1) + beta*O(s) for the unique (alpha, s) with beta >= 1, and
the rotate-and-twist index of a list ordered by strictly increasing
anticanonical slope (``chern.compare_mu``) is the first rotation placing
every member's splitting degrees inside two adjacent integers.
"""

from __future__ import annotations

import enum

from .chern import KClass, compare_mu, euler_form, skew_form
from .errors import DomainError, InvalidInputError, InvariantViolationError
from .picard import Surface, anticanonical_degree, dot, effective_root_decomposition
from .picard import require_on_surface
from .values import Value, slot_setters


class PairKind(enum.Enum):
    HOM = "hom"
    EXT = "ext"
    ZERO = "zero"
    SINGULAR = "singular"


class PairType(Value):
    """Pair type with pinned dimensions: hom/ext carry chi-sized dims,
    singular always carries (h^0, h^1) = (1, 1), zero carries none."""

    __slots__ = _fields = ("kind", "dims")

    def __init__(self, kind: PairKind, dims: tuple[int, ...]):
        if kind in (PairKind.HOM, PairKind.EXT):
            if len(dims) != 1 or dims[0] <= 0:
                raise InvalidInputError(f"{kind.value} pair needs a positive dim")
        elif kind is PairKind.ZERO:
            if dims != ():
                raise InvalidInputError("zero pair carries no dims")
        elif dims != (1, 1):
            raise InvalidInputError("singular pair dims are pinned to (1, 1)")
        _set_kind(self, kind)
        _set_dims(self, dims)

    @property
    def chi(self) -> int:
        """chi(E,F): dim for hom, -dim for ext, 0 at equal slopes."""
        if self.kind in (PairKind.ZERO, PairKind.SINGULAR):
            return 0
        return self.dims[0] if self.kind is PairKind.HOM else -self.dims[0]


_set_kind, _set_dims = slot_setters(PairType)


def require_exceptional_pair(S: Surface, E: KClass, F: KClass) -> int:
    """The pair check every mutation runs on its input: chi(E,E) = chi(F,F)
    = 1 and chi(F,E) = 0, the numerical shadow of an exceptional pair.
    Returns chi(E,F), which chi(F,E) = 0 makes the skew form
    ``chern.skew_form``: 3 chi in all."""
    if euler_form(S, E, E) != 1 or euler_form(S, F, F) != 1:
        raise InvalidInputError("not a numerically exceptional pair: chi(X,X) != 1")
    if euler_form(S, F, E) != 0:
        raise InvalidInputError("not a numerically exceptional pair: chi(F,E) != 0")
    return skew_form(E, F)


def require_equal_slope_pair(E: KClass, F: KClass):
    """The equal-slope refusal for an exceptional pair of positive ranks:
    C = c1(F) - c1(E) must be a nonzero -2-class orthogonal to K and the
    ranks equal.  Returns C."""
    C = F.c1 - E.c1
    if C.is_zero():
        raise InvalidInputError(
            "equal-slope pair with identical numerics is not classifiable"
        )
    if E.r != F.r or dot(C, C) != -2 or anticanonical_degree(C) != 0:
        raise InvariantViolationError(
            "equal-slope pair fails the forced -2-class equations "
            f"(r {E.r} vs {F.r}, C^2 = {dot(C, C)}, C.K = {-anticanonical_degree(C)})"
        )
    return C


def classify_pair(S: Surface, E: KClass, F: KClass) -> PairType:
    """Type of the numerically exceptional pair (E, F) of positive ranks.

    The pair check yields chi(E,F) = rE*rF*(mu(F) - mu(E)), whose sign
    decides hom, ext or equal slopes; only the equal-slope case reads the
    lattice, past the refusal mutations share, with the root descent."""
    if E.r <= 0 or F.r <= 0:
        raise InvalidInputError("not a numerically exceptional pair: rank <= 0")
    chi_ef = require_exceptional_pair(S, E, F)
    if chi_ef > 0:
        return PairType(PairKind.HOM, (chi_ef,))
    if chi_ef < 0:
        return PairType(PairKind.EXT, (-chi_ef,))
    if effective_root_decomposition(S, require_equal_slope_pair(E, F)) is not None:
        return PairType(PairKind.SINGULAR, (1, 1))
    return PairType(PairKind.ZERO, ())


def splitting_type(r: int, deg: int) -> tuple[int, int]:
    """The unique (alpha, s) with alpha*(s-1) + (r-alpha)*s = deg and
    0 <= alpha < r, encoding a restriction alpha*O(s-1) + beta*O(s)."""
    if type(r) is not int or r < 1:
        raise InvalidInputError("splitting type needs rank >= 1")
    if type(deg) is not int:
        raise InvalidInputError("splitting type needs an integer degree")
    s = -((-deg) // r)  # ceil(deg / r)
    alpha = r * s - deg
    return alpha, s


def splitting_degrees(r: int, deg: int) -> set[int]:
    """Degrees occurring in the splitting, a subset of {s-1, s}."""
    alpha, s = splitting_type(r, deg)
    degrees = {s}
    if alpha > 0:
        degrees.add(s - 1)
    return degrees


def restriction_degree(S: Surface, E: KClass, e_index: int) -> int:
    """deg of E restricted to e_i, i.e. c1(E).e_i: the coefficient b_i."""
    if type(e_index) is not int or not 1 <= e_index <= S.d:
        raise InvalidInputError(f"e_{e_index} does not exist with {S.d} blow-ups")
    require_on_surface(S, E.c1)
    return E.c1.coeffs[e_index]


def rotation_index(
    S: Surface, classes: list[KClass], e_index: int
) -> tuple[int, tuple[int, int]]:
    """Smallest i such that (E_i, ..., E_m, E_1(-K), ..., E_{i-1}(-K)) has
    all splitting degrees inside two adjacent integers.

    Returns (i, (lo, hi)), the 1-based index and the observed degree
    window.  Requires the anticanonical slopes to be strictly increasing,
    decided by ``chern.compare_mu`` on the integers (H.c1, r).
    No twisted copy is built: -K.e_i = 1, so twisting by -K adds r to the
    restriction degree and raises every splitting degree by exactly one.
    """
    if not classes:
        raise InvalidInputError("rotation index needs a nonempty list")
    # compare_mu refuses E, then F, as slope_mu would: every sign (a lone
    # class's against itself) is taken before any is read, so the first
    # refusal is the first bad class's.
    signs = [compare_mu(S, a, b) for a, b in zip(classes, classes[1:])]
    if len(classes) == 1:
        compare_mu(S, classes[0], classes[0])
    if any(s >= 0 for s in signs):
        raise DomainError("rotation index needs strictly increasing slopes")
    own = [splitting_degrees(c.r, restriction_degree(S, c, e_index)) for c in classes]
    twisted = [{x + 1 for x in g} for g in own]
    for i in range(1, len(classes) + 1):
        degrees = set().union(*own[i - 1 :], *twisted[: i - 1])
        if max(degrees) - min(degrees) <= 1:
            return i, (min(degrees), max(degrees))
    raise DomainError("no rotation gives a zero-type degree window")
