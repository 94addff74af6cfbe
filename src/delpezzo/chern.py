"""Numerical K-theory classes and the exact Euler pairing.

A class is the integer triple (r, c1, 2*ch2): rank, a Picard-lattice c1
and twice the second Chern character.  The second Chern character is the
stored coordinate (rather than c2) because it is additive in K-theory,
which makes every mutation formula linear; storing it doubled keeps every
coordinate an integer.  ch2 = (2*ch2)/2 and c2 are derived accessors.

The Euler form is the surface Riemann-Roch bilinear expansion

    chi(E, F) = rE*rF + (1/2) H.(rE c1F - rF c1E) + rE ch2F + rF ch2E
                - c1E.c1F,

with H the anticanonical class.  It always evaluates to an integer on
classes satisfying the integrality invariant; twice it is computed in
plain integer arithmetic, with H.c1 = 3a - sum b read off the
coefficients, so the pairing is cheap enough to drive large mutation
searches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable
from .errors import DomainError, InvalidInputError, InvariantViolationError
from .picard import (
    DivisorClass,
    Surface,
    canonical_divisor,
    dot,
    exceptional_divisor,
    zero_divisor,
)

_CH2_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


@dataclass(frozen=True)
class KClass:
    """A numerical K-theory class (r, c1, 2*ch2).

    Invariant: c1^2 - 2*ch2 is an even integer, i.e. c2 is an integer.
    Negative rank is allowed (formal classes); rank-0 classes are the
    torsion ones.
    """

    r: int
    c1: DivisorClass
    two_ch2: int

    def __post_init__(self):
        if not isinstance(self.r, int) or not isinstance(self.two_ch2, int):
            raise InvalidInputError("rank and 2*ch2 must be integers")
        if (dot(self.c1, self.c1) - self.two_ch2) % 2 != 0:
            raise InvalidInputError(
                f"class ({self.r}, {self.c1.coeffs}, {self.ch2}) has non-integer c2"
            )

    @property
    def ch2(self) -> Fraction:
        return Fraction(self.two_ch2, 2)

    @property
    def c2(self) -> int:
        return (dot(self.c1, self.c1) - self.two_ch2) // 2

    @property
    def d(self) -> int:
        return self.c1.d

    def __add__(self, other: "KClass") -> "KClass":
        return KClass(self.r + other.r, self.c1 + other.c1, self.two_ch2 + other.two_ch2)

    def __sub__(self, other: "KClass") -> "KClass":
        return KClass(self.r - other.r, self.c1 - other.c1, self.two_ch2 - other.two_ch2)

    def __neg__(self) -> "KClass":
        return KClass(-self.r, -self.c1, -self.two_ch2)

    def __rmul__(self, n: int) -> "KClass":
        if not isinstance(n, int):
            return NotImplemented
        return KClass(n * self.r, n * self.c1, n * self.two_ch2)

    def to_json(self) -> dict:
        ch2 = self.ch2
        return {
            "r": self.r,
            "c1": self.c1.to_json(),
            "ch2": f"{ch2.numerator}/{ch2.denominator}",
        }

    @staticmethod
    def from_json(data: dict) -> "KClass":
        """Read {"r": int, "c1": [int, ...], "ch2": int or "p" or "p/q"}."""
        if not isinstance(data, dict) or not {"r", "c1", "ch2"} <= set(data):
            raise InvalidInputError("K-class JSON needs keys r, c1, ch2")
        r, raw = data["r"], data["ch2"]
        if type(r) is not int:
            raise InvalidInputError(f"rank must be a JSON integer, got {r!r}")
        if type(raw) is not int and not (isinstance(raw, str) and _CH2_TEXT.fullmatch(raw)):
            raise InvalidInputError(
                f"ch2 must be a JSON integer or a 'p/q' string, got {raw!r}"
            )
        try:
            ch2 = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad ch2 value {raw!r}") from exc
        if ch2.denominator > 2:
            raise InvalidInputError(f"2*ch2 must be an integer, got ch2={ch2}")
        return KClass(r, DivisorClass.from_json(data["c1"]), int(2 * ch2))


def structure_class(S: Surface) -> KClass:
    """[O_S] = (1, 0, 0)."""
    return KClass(1, zero_divisor(S.d), 0)


def line_class(S: Surface, D: DivisorClass) -> KClass:
    """[O_S(D)] = (1, D, D^2/2)."""
    if D.d != S.d:
        raise InvalidInputError("divisor does not belong to this surface")
    return KClass(1, D, dot(D, D))


def curve_class(S: Surface, e_index: int, deg: int) -> KClass:
    """[O_e(deg)] for the exceptional curve e = e_i: the rank-0 class
    with ch2 = deg + 1/2, i.e. (0, e, 2 deg + 1), pinned by
    chi(O, .) = deg + 1."""
    e = exceptional_divisor(S.d, e_index)
    return KClass(0, e, 2 * deg + 1)


def euler_form(S: Surface, E: KClass, F: KClass) -> int:
    """chi(E, F), exactly, as an integer."""
    if E.d != S.d or F.d != S.d:
        raise InvalidInputError("class does not belong to this surface")
    e, f = E.c1.coeffs, F.c1.coeffs
    # H.c1 = 3a - sum(b) for the anticanonical class H = (3; 1, ..., 1).
    mixed = E.r * (3 * f[0] - sum(f[1:])) - F.r * (3 * e[0] - sum(e[1:]))
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
    (r, c1 + r D, 2 ch2 + 2 c1.D + r D^2)."""
    if E.d != S.d or D.d != S.d:
        raise InvalidInputError("inputs do not belong to this surface")
    return KClass(
        E.r,
        E.c1 + E.r * D,
        E.two_ch2 + 2 * dot(E.c1, D) + E.r * dot(D, D),
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
    return KClass(E.r, -E.c1, E.two_ch2)


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
    return KClass(E.r, DivisorClass(E.c1.coeffs[:-1]), E.two_ch2)


def pull_back_class(E: KClass) -> KClass:
    """Inverse of descend_class: re-insert a zero e-coordinate."""
    return KClass(E.r, DivisorClass(E.c1.coeffs + (0,)), E.two_ch2)


def serre_twist(S: Surface, E: KClass) -> KClass:
    """E(K), the twist entering the chi-level Serre pairing."""
    return twist(S, E, canonical_divisor(S.d))
