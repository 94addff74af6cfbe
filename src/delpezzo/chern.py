"""Numerical K-theory classes and the exact Euler pairing.

A class is the triple (r, c1, ch2) with integer rank, a Picard-lattice
c1 and exact rational ch2.  The second Chern character is the stored
coordinate (rather than c2) because it is additive in K-theory, which
makes every mutation formula linear; c2 and the discriminant 2*ch2 are
derived accessors.

The Euler form is the surface Riemann-Roch bilinear expansion

    chi(E, F) = rE*rF + (1/2) H.(rE c1F - rF c1E) + rE ch2F + rF ch2E
                - c1E.c1F,

with H the anticanonical class.  It always evaluates to an integer on
classes satisfying the integrality invariant; everything is computed in
plain integer arithmetic (2*ch2 is an integer) so the pairing is cheap
enough to drive large mutation searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable
from .errors import DomainError, InvalidInputError, InvariantViolationError
from .picard import (
    DivisorClass,
    Surface,
    anticanonical_divisor,
    canonical_divisor,
    dot,
    exceptional_divisor,
    zero_divisor,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True, eq=True)
class KClass:
    """A numerical K-theory class (r, c1, ch2).

    Invariant: c1^2 - 2*ch2 is an even integer, i.e. c2 is an integer.
    Negative rank is allowed (formal classes); rank-0 classes are the
    torsion ones.
    """

    r: int
    c1: DivisorClass
    ch2: Fraction

    def __post_init__(self):
        if not isinstance(self.r, int):
            raise InvalidInputError("rank must be an integer")
        object.__setattr__(self, "ch2", Fraction(self.ch2))
        two_ch2 = 2 * self.ch2
        if two_ch2.denominator != 1:
            raise InvalidInputError(f"2*ch2 must be an integer, got ch2={self.ch2}")
        c1sq = dot(self.c1, self.c1)
        if (c1sq - int(two_ch2)) % 2 != 0:
            raise InvalidInputError(
                f"class ({self.r}, {self.c1.coeffs}, {self.ch2}) has non-integer c2"
            )
        object.__setattr__(self, "_two_ch2", int(two_ch2))
        object.__setattr__(
            self, "_hash", hash((self.r, self.c1.coeffs, int(two_ch2)))
        )

    def __hash__(self):
        return self._hash  # type: ignore[attr-defined]

    @property
    def two_ch2(self) -> int:
        return self._two_ch2  # type: ignore[attr-defined]

    @property
    def c2(self) -> int:
        return (dot(self.c1, self.c1) - self.two_ch2) // 2

    @property
    def discriminant(self) -> int:
        """2*ch2 = c1^2 - 2 c2."""
        return self.two_ch2

    @property
    def d(self) -> int:
        return self.c1.d

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(self.r + other.r, self.c1 + other.c1, self.ch2 + other.ch2)

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass(self.r - other.r, self.c1 - other.c1, self.ch2 - other.ch2)

    def __neg__(self) -> "KClass":
        return KClass(-self.r, -self.c1, -self.ch2)

    def __rmul__(self, n: int) -> "KClass":
        if not isinstance(n, int):
            return NotImplemented
        return KClass(n * self.r, n * self.c1, n * self.ch2)

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "c1": self.c1.to_json(),
            "ch2": f"{self.ch2.numerator}/{self.ch2.denominator}",
        }

    @staticmethod
    def from_json(data: dict) -> "KClass":
        if not isinstance(data, dict) or not {"r", "c1", "ch2"} <= set(data):
            raise InvalidInputError("K-class JSON needs keys r, c1, ch2")
        raw = data["ch2"]
        try:
            ch2 = Fraction(raw) if isinstance(raw, str) else Fraction(int(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad ch2 value {raw!r}") from exc
        return KClass(int(data["r"]), DivisorClass.from_json(data["c1"]), ch2)


def structure_class(S: Surface) -> KClass:
    """[O_S] = (1, 0, 0)."""
    return KClass(1, zero_divisor(S.d), Fraction(0))


def line_class(S: Surface, D: DivisorClass) -> KClass:
    """[O_S(D)] = (1, D, D^2/2)."""
    if D.d != S.d:
        raise InvalidInputError("divisor does not belong to this surface")
    return KClass(1, D, Fraction(dot(D, D), 2))


def curve_class(S: Surface, e_index: int, deg: int) -> KClass:
    """[O_e(deg)] for the exceptional curve e = e_i: the rank-0 class
    (0, e, deg + 1/2), pinned by chi(O, .) = deg + 1."""
    e = exceptional_divisor(S.d, e_index)
    return KClass(0, e, Fraction(deg) + HALF)


def euler_form(S: Surface, E: KClass, F: KClass) -> int:
    """chi(E, F), exactly, as an integer."""
    if E.d != S.d or F.d != S.d:
        raise InvalidInputError("class does not belong to this surface")
    H = anticanonical_divisor(S.d)
    mixed = dot(H, E.r * F.c1 - F.r * E.c1)
    doubled = (
        2 * E.r * F.r
        + mixed
        + E.r * F.two_ch2
        + F.r * E.two_ch2
        - 2 * dot(E.c1, F.c1)
    )
    if doubled % 2 != 0:
        raise InvariantViolationError(
            f"chi({E}, {F}) is not an integer; a class is corrupted"
        )
    return doubled // 2


def slope_mu(S: Surface, E: KClass, D: DivisorClass) -> Fraction:
    """(D.c1)/r.  Undefined on torsion classes."""
    if E.d != S.d or D.d != S.d:
        raise InvalidInputError("inputs do not belong to this surface")
    if E.r == 0:
        raise DomainError("slope is undefined for rank-0 classes")
    return Fraction(dot(D, E.c1), E.r)


def default_ample(S: Surface) -> DivisorClass:
    """A = 4h - sum e_i, the documented default polarization.

    Ampleness is not decidable from the lattice; using this class as an
    ample divisor is an assumption on the configuration.
    """
    return DivisorClass((4,) + (1,) * S.d)


def twist(S: Surface, E: KClass, D: DivisorClass) -> KClass:
    """E tensored with the line class of D:
    (r, c1 + r D, ch2 + c1.D + r D^2/2)."""
    if E.d != S.d or D.d != S.d:
        raise InvalidInputError("inputs do not belong to this surface")
    return KClass(
        E.r,
        E.c1 + E.r * D,
        E.ch2 + dot(E.c1, D) + Fraction(E.r * dot(D, D), 2),
    )


def weighted_sum(terms: Iterable[tuple[KClass, int]]) -> KClass:
    """sum m * E over the (E, m) terms, added in order."""
    total: KClass | None = None
    for E, m in terms:
        piece = m * E
        total = piece if total is None else total + piece
    if total is None:
        raise InvalidInputError("a weighted sum needs at least one class")
    return total


def dual_class(E: KClass) -> KClass:
    """(r, -c1, ch2)."""
    return KClass(E.r, -E.c1, E.ch2)


def descend_class(S: Surface, E: KClass) -> KClass:
    """The same class read on the surface with d-1 blow-ups, defined when
    the e_d coordinate of c1 vanishes.  Rank and ch2 are unchanged; pulling
    back (re-inserting a zero coordinate) recovers E exactly."""
    if S.d == 0:
        raise DomainError("P^2 has nothing left to blow down")
    if E.d != S.d:
        raise InvalidInputError("class does not belong to this surface")
    if E.c1.coeffs[-1] != 0:
        raise DomainError(
            "class has nonzero restriction degree on the contracted curve"
        )
    return KClass(E.r, DivisorClass(E.c1.coeffs[:-1]), E.ch2)


def pull_back_class(E: KClass) -> KClass:
    """Inverse of descend_class: re-insert a zero e-coordinate."""
    return KClass(E.r, DivisorClass(E.c1.coeffs + (0,)), E.ch2)


def serre_twist(S: Surface, E: KClass) -> KClass:
    """E(K), the twist entering the chi-level Serre pairing."""
    return twist(S, E, canonical_divisor(S.d))
