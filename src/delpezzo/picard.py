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
classes K and H = -K for twisting.  On top of them come enumeration of
the -2-root system {C : C^2 = -2, C.K = 0}, the effectivity/connectedness
test for roots against a declared configuration, and the surface with the
last exceptional curve blown down (``chern.descend_class`` deletes the
matching coordinate of a class).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DomainError, InvalidInputError
from .values import Value

MAX_BLOWUPS = 8


class DivisorClass(Value):
    """Integer vector (a; b_1..b_d) for the class a*h - sum b_i e_i."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        if not self.coeffs:
            raise InvalidInputError("divisor class needs at least the h coordinate")
        if not all(isinstance(c, int) for c in self.coeffs):
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
        if not isinstance(n, int):
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
    return p[0] * q[0] - sum(map(mul, p[1:], q[1:]))


def anticanonical_degree(D: DivisorClass) -> int:
    """H.D = 3a - sum b for H = -K = (3; 1, ..., 1); K.D is its negative."""
    c = D.coeffs
    return 3 * c[0] - sum(c[1:])


def canonical_divisor(d: int) -> DivisorClass:
    """K = -3h + sum e_i, i.e. (-3; -1, ..., -1) in (a; b) coordinates."""
    return DivisorClass((-3,) + (-1,) * d)


def anticanonical_divisor(d: int) -> DivisorClass:
    return -canonical_divisor(d)


class Surface(Value):
    """Bl_d(P^2) together with its declared -2-curve configuration.

    ``effective_simple_roots`` lists the classes the caller declares to be
    irreducible effective -2-curves.  The lattice alone cannot decide
    effectivity, so this is configuration data; the default (no roots)
    models blowing up points in general position.
    """

    __slots__ = _fields = ("d", "effective_simple_roots")

    def __init__(self, d: int, effective_simple_roots: tuple[DivisorClass, ...] = ()):
        if not isinstance(d, int) or not 0 <= d <= MAX_BLOWUPS:
            raise InvalidInputError(
                f"need 0 <= d <= {MAX_BLOWUPS} blow-ups so that K^2 = 9 - d > 0"
            )
        roots = tuple(effective_simple_roots)
        for C in roots:
            if C.d != d:
                raise InvalidInputError("declared root has wrong dimension")
            if dot(C, C) != -2 or anticanonical_degree(C) != 0:
                raise InvalidInputError(
                    f"declared root {C.coeffs} is not a -2-class orthogonal to K"
                )
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "effective_simple_roots", roots)

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
        return Surface(d, tuple(DivisorClass.from_json(r) for r in roots))


def intersect(S: Surface, C: DivisorClass, D: DivisorClass) -> int:
    """Intersection number of two classes on S."""
    if C.d != S.d or D.d != S.d:
        raise InvalidInputError("divisor class does not belong to this surface")
    return dot(C, D)


def _b_vectors(length: int, total: int, sq_total: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors with given sum and sum of squares, lex order."""
    if length == 0:
        if total == 0 and sq_total == 0:
            yield ()
        return
    if sq_total < 0:
        return
    # Cauchy-Schwarz prune: total^2 <= length * sq_total on the remaining block.
    if total * total > length * sq_total:
        return
    bound = math.isqrt(sq_total)
    for b in range(-bound, bound + 1):
        yield from (
            (b,) + rest
            for rest in _b_vectors(length - 1, total - b, sq_total - b * b)
        )


@lru_cache(maxsize=None)
def _roots_for_d(d: int) -> tuple[DivisorClass, ...]:
    # C.K = 0 forces sum(b) = 3a and C^2 = -2 forces sum(b^2) = a^2 + 2;
    # Cauchy-Schwarz then bounds |a| by 4 on at most 8 coordinates.
    found = []
    for a in range(-4, 5):
        for b in _b_vectors(d, 3 * a, a * a + 2):
            found.append(DivisorClass((a,) + b))
    return tuple(sorted(found, key=lambda c: c.coeffs))


def enumerate_roots(S: Surface) -> list[DivisorClass]:
    """All C with C^2 = -2 and C.K = 0, in lexicographic coefficient order."""
    return list(_roots_for_d(S.d))


def effective_root_decomposition(
    S: Surface, C: DivisorClass
) -> tuple[int, ...] | None:
    """One expression of C as a non-negative integer combination of the
    declared simple roots, or None if no such expression exists.

    The search solves the linear system exactly; when the declared roots
    are linearly dependent the finitely many free coefficients are scanned
    over a small box (root coordinates in these lattices never exceed 6,
    the search allows 8).
    """
    roots = S.effective_simple_roots
    if not roots:
        return None
    k = len(roots)
    n = S.d + 1
    # Row-reduce the k x n system  sum n_i roots[i] = C  over Q, tracking C.
    rows = [[Fraction(roots[i].coeffs[j]) for i in range(k)] for j in range(n)]
    rhs = [Fraction(c) for c in C.coeffs]
    pivots: list[int] = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] *= inv
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                rhs[i] -= f * rhs[r]
        pivots.append(col)
        r += 1
    if any(rhs[i] != 0 for i in range(r, n)):
        return None
    free = [c for c in range(k) if c not in pivots]

    def solution(free_vals: dict[int, int]) -> tuple[int, ...] | None:
        sol = [Fraction(0)] * k
        for c, v in free_vals.items():
            sol[c] = Fraction(v)
        for i, col in enumerate(pivots):
            val = rhs[i] - sum(rows[i][f] * sol[f] for f in free)
            sol[col] = val
        if all(v.denominator == 1 and v >= 0 for v in sol):
            return tuple(int(v) for v in sol)
        return None

    if not free:
        return solution({})
    if len(free) > 4:
        raise InvalidInputError(
            "declared root configuration is too degenerate to decompose against"
        )
    for combo in itertools.product(range(0, 9), repeat=len(free)):
        sol = solution(dict(zip(free, combo)))
        if sol is not None:
            return sol
    return None


def is_connected_effective_root(S: Surface, C: DivisorClass) -> bool:
    """Whether C is a non-negative combination of the declared simple roots
    whose support graph (edges where the intersection is nonzero) is
    connected."""
    if intersect(S, C, C) != -2 or anticanonical_degree(C) != 0:
        raise DomainError(f"{C.coeffs} is not a -2-class orthogonal to K")
    decomposition = effective_root_decomposition(S, C)
    if decomposition is None:
        return False
    support = [i for i, m in enumerate(decomposition) if m > 0]
    if not support:
        return False
    roots = S.effective_simple_roots
    seen = {support[0]}
    frontier = [support[0]]
    while frontier:
        i = frontier.pop()
        for j in support:
            if j not in seen and dot(roots[i], roots[j]) != 0:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(support)


def blow_down_surface(S: Surface) -> Surface:
    """The surface with one fewer blow-up.  Declared roots that do not touch
    e_d descend with the lattice; the others have no image and are dropped."""
    if S.d == 0:
        raise DomainError("P^2 has nothing left to blow down")
    kept = tuple(
        DivisorClass(r.coeffs[:-1])
        for r in S.effective_simple_roots
        if r.coeffs[-1] == 0
    )
    return Surface(S.d - 1, kept)
