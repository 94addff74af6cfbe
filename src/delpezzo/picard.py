"""Picard lattice of a blow-up of the projective plane.

The surface is Bl_d(P^2) with 0 <= d <= 8, so the anticanonical square
9 - d stays positive.  Pic = Z<h, e_1, ..., e_d> with the diagonal
intersection form h^2 = 1, e_i^2 = -1, mixed products 0.  A divisor class
is stored as the integer vector (a; b_1, ..., b_d) meaning

    a*h - sum_i b_i * e_i.

The lattice's integer functionals live here, read off the coefficients:
the form ``dot`` and ``anticanonical_degree`` H.D = 3a - sum b (H = -K),
which every slope and chi reads.  No other module builds H or K to take
one product: ``canonical_divisor`` and ``anticanonical_divisor`` name the
classes K and H = -K for twisting.  On top of them come the -2-root
system {C : C^2 = -2, C.K = 0} of E_d, listed by its four shapes, the
decomposition of a root over the declared simple roots (the irreducible
-2-curves), and the surface with the last exceptional curve blown down
(``chern.descend_class`` deletes the matching coordinate of a class).

A declared -2-curve is a positive root: the first nonzero entry of
(a, -b_1, ..., -b_d) is positive, so h.C > 0 or C = e_i - e_j with i < j
(Demazure, LNM 777; Dolgachev, Classical Algebraic Geometry 8.2).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from operator import mul

from .errors import DomainError, InvalidInputError
from .values import Value, slot_setters

MAX_BLOWUPS = 8

# The one type of every integer a value holds: bool and other subclasses
# of int are refused, as the JSON readers refuse them, since json.dumps
# writes True as true.
_INT_ONLY = frozenset((int,))


class DivisorClass(Value):
    """Integer vector (a; b_1..b_d) for the class a*h - sum b_i e_i."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        _set_coeffs(self, coeffs)
        self.__post_init__()

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidInputError("divisor class needs at least the h coordinate")
        if not _INT_ONLY.issuperset(map(type, self.coeffs)):
            raise InvalidInputError("divisor coefficients must be integers")

    @property
    def d(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coeffs) != len(other.coeffs):
            raise InvalidInputError("divisor classes live on different surfaces")
        return DivisorClass(tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coeffs) != len(other.coeffs):
            raise InvalidInputError("divisor classes live on different surfaces")
        return DivisorClass(tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-x for x in self.coeffs))

    def __rmul__(self, n: int) -> "DivisorClass":
        if type(n) is not int:
            return NotImplemented
        return DivisorClass(tuple(n * x for x in self.coeffs))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def to_json(self) -> list[int]:
        return list(self.coeffs)

    @staticmethod
    def from_json(data: list[int]) -> "DivisorClass":
        if not isinstance(data, list) or any(type(x) is not int for x in data):
            raise InvalidInputError(f"bad divisor class {data!r}: need a list of integers")
        return DivisorClass(tuple(data))


(_set_coeffs,) = slot_setters(DivisorClass)


def zero_divisor(d: int) -> DivisorClass:
    return DivisorClass((0,) * (d + 1))


def line_divisor(d: int) -> DivisorClass:
    """The class h, the pullback of a line."""
    return DivisorClass((1,) + (0,) * d)


def exceptional_divisor(d: int, i: int) -> DivisorClass:
    """The class e_i of the i-th blown-up point, 1-based."""
    if not 1 <= i <= d:
        raise InvalidInputError(f"e_{i} does not exist with {d} blow-ups")
    coeffs = [0] * (d + 1)
    coeffs[i] = -1
    return DivisorClass(tuple(coeffs))


def dot(C: DivisorClass, D: DivisorClass) -> int:
    """The diagonal form diag(+1, -1, ..., -1) on coefficient vectors."""
    p, q = C.coeffs, D.coeffs
    if len(p) != len(q):
        raise InvalidInputError("divisor classes live on different surfaces")
    return 2 * p[0] * q[0] - sum(map(mul, p, q))


def anticanonical_degree(D: DivisorClass) -> int:
    """H.D = 3a - sum b for H = -K = (3; 1, ..., 1); K.D is its negative."""
    c = D.coeffs
    return 4 * c[0] - sum(c)


def canonical_divisor(d: int) -> DivisorClass:
    """K = -3h + sum e_i, i.e. (-3; -1, ..., -1) in (a; b) coordinates."""
    return DivisorClass((-3,) + (-1,) * d)


def anticanonical_divisor(d: int) -> DivisorClass:
    return -canonical_divisor(d)


class Surface(Value):
    """Bl_d(P^2) together with its declared -2-curve configuration.

    ``effective_simple_roots`` lists the classes the caller declares to be
    the irreducible -2-curves of a surface with -K nef.  The lattice alone
    cannot decide effectivity, so this is configuration data; the default
    (no roots) models blowing up points in general position.  Such curves
    are the simple roots of a negative-definite root system, so the
    constructor refuses (``InvalidInputError``) a list of more than d
    classes, or of classes that are not -2-classes orthogonal to K, not
    pairwise distinct, meet negatively, or are not positive roots.
    """

    __slots__ = _fields = ("d", "effective_simple_roots")

    def __init__(self, d: int, effective_simple_roots: tuple[DivisorClass, ...] = ()):
        roots = tuple(effective_simple_roots)
        _check_size(d, len(roots))
        if roots:
            for i, C in enumerate(roots):
                if not isinstance(C, DivisorClass):
                    raise InvalidInputError(f"declared root {i} is not a divisor class")
            _check_configuration(d, roots)
        _set_d(self, d)
        _set_effective_simple_roots(self, roots)

    @property
    def k_squared(self) -> int:
        return 9 - self.d

    def to_json(self) -> dict:
        out: dict = {"blowups": self.d}
        if self.effective_simple_roots:
            out["effective_roots"] = [r.to_json() for r in self.effective_simple_roots]
        return out

    @staticmethod
    def from_json(data: dict) -> "Surface":
        if not isinstance(data, dict) or "blowups" not in data:
            raise InvalidInputError("surface JSON needs a 'blowups' key")
        d, roots = data["blowups"], data.get("effective_roots", [])
        if type(d) is not int:
            raise InvalidInputError(f"blowups must be a JSON integer, got {d!r}")
        if not isinstance(roots, list):
            raise InvalidInputError("effective_roots must be a list of divisor classes")
        _check_size(d, len(roots))  # before any root is built
        return Surface(d, tuple(DivisorClass.from_json(r) for r in roots))


_set_d, _set_effective_simple_roots = slot_setters(Surface)


def _check_size(d: int, count: int) -> None:
    """Refuse d outside 0..8, or more than d declared roots."""
    if type(d) is not int or not 0 <= d <= MAX_BLOWUPS:
        raise InvalidInputError(
            f"need 0 <= d <= {MAX_BLOWUPS} blow-ups so that K^2 = 9 - d > 0"
        )
    if count > d:
        raise InvalidInputError(f"declared {count} roots: at most d = {d} are independent")


def _check_configuration(d: int, roots: tuple[DivisorClass, ...]) -> None:
    """Refuse roots that cannot be the irreducible -2-curves of a marked
    blow-up: each a -2-class orthogonal to K, pairwise distinct, meeting
    non-negatively, and positive.

    No independence check is needed.  Positive roots lie on one side of a
    hyperplane, and roots that meet pairwise non-negatively are pairwise
    obtuse in the definite form -(.) on K^perp (K^2 > 0), so they are
    linearly independent, as a base of a root system is (Humphreys,
    GTM 9, 10.1)."""
    for i, C in enumerate(roots):
        if C.d != d:
            raise InvalidInputError(f"declared root {i} has wrong dimension")
        if dot(C, C) != -2 or anticanonical_degree(C) != 0:
            raise InvalidInputError(
                f"declared root {i} {C.coeffs} is not a -2-class orthogonal to K"
            )
    for j, D in enumerate(roots):
        for i in range(j):
            if roots[i] == D:
                raise InvalidInputError(f"declared roots {i} and {j} are equal")
            meet = dot(roots[i], D)
            if meet < 0:
                raise InvalidInputError(
                    f"declared roots {i} and {j} meet negatively ({meet})"
                )
    for i, C in enumerate(roots):
        a, *b = C.coeffs
        # A root with a = 0 is e_i - e_j, so some b is nonzero.
        if a < 0 or a == 0 and next(filter(None, b)) > 0:
            raise InvalidInputError(
                f"declared root {i} {C.coeffs} is not positive: "
                "need h.C > 0, or C = e_i - e_j with i < j"
            )


def intersect(S: Surface, C: DivisorClass, D: DivisorClass) -> int:
    """Intersection number of two classes on S."""
    if C.d != S.d or D.d != S.d:
        raise InvalidInputError("divisor class does not belong to this surface")
    return dot(C, D)


@lru_cache(maxsize=None)
def _roots_for_d(d: int) -> tuple[DivisorClass, ...]:
    """The roots by shape: e_i - e_j for i != j, +-(h - e_i - e_j - e_k),
    +-(2h - six e) and, at d = 8, +-(3h - 2e_i - the other seven)."""
    points = range(1, d + 1)
    shapes = [(0, {i: -1, j: 1}) for i, j in permutations(points, 2)]
    for a, n in ((1, 3), (2, 6)):
        shapes += [(a, dict.fromkeys(s, 1)) for s in combinations(points, n)]
    if d == 8:
        shapes += [(3, {**dict.fromkeys(points, 1), i: 2}) for i in points]
    found = [(a,) + tuple(b.get(k, 0) for k in points) for a, b in shapes]
    found += [tuple(-x for x in c) for c in found if c[0]]
    return tuple(DivisorClass(c) for c in sorted(found))


def enumerate_roots(S: Surface) -> list[DivisorClass]:
    """All C with C^2 = -2 and C.K = 0, in lexicographic coefficient order."""
    return list(_roots_for_d(S.d))


def effective_root_decomposition(
    S: Surface, C: DivisorClass
) -> tuple[int, ...] | None:
    """The multiplicities of the declared simple roots in C, or None if C
    is not a non-negative combination of them.

    Descent: while C != 0, subtract a root beta with C.beta < 0.  A
    non-negative combination C != 0 has C^2 < 0, so some beta has
    C.beta < 0, and beta occurs in C because distinct simple roots meet
    non-negatively; the roots being independent (positive roots that
    meet pairwise non-negatively are, see ``_check_configuration``), the
    multiplicities are the unique ones.  A root C stays a root along the
    way and takes at most 29 steps, the height of E8's highest root.
    """
    roots = S.effective_simple_roots
    counts = [0] * len(roots)
    while not C.is_zero():
        for i, beta in enumerate(roots):
            if dot(C, beta) < 0:
                C -= beta
                counts[i] += 1
                break
        else:
            return None
    return tuple(counts)


def blow_down_surface(S: Surface) -> Surface:
    """The surface with one fewer blow-up.  Declared roots that do not touch
    e_d descend with the lattice; the others have no image and are dropped.
    e_d is irreducible: a positive root C has C.e_d = b_d >= 0, so no
    declared root meets it negatively."""
    if S.d == 0:
        raise DomainError("P^2 has nothing left to blow down")
    kept = tuple(
        DivisorClass(r.coeffs[:-1])
        for r in S.effective_simple_roots
        if r.coeffs[-1] == 0
    )
    return Surface(S.d - 1, kept)
