"""Numerical K-theory classes and the exact Euler pairing.

A class is the integer triple (r, c1, 2*ch2): rank, a Picard-lattice c1
and twice the second Chern character.  The second Chern character is the
stored coordinate (rather than c2) because it is additive in K-theory,
which makes every mutation formula linear; storing it doubled keeps every
coordinate an integer.  ch2 = (2*ch2)/2 is a derived accessor.

The Euler form is the surface Riemann-Roch bilinear expansion

    chi(E, F) = rE*rF + (1/2) H.(rE c1F - rF c1E) + rE ch2F + rF ch2E
                - c1E.c1F,

with H the anticanonical class.  It always evaluates to an integer on
classes satisfying the integrality invariant.  ``euler_pairing`` groups
it as

    chi(E, F) = (rE (2 rF + H.c1F + 2ch2F) - rF (H.c1E - 2ch2E)) / 2
                - c1E.c1F,

in plain integer arithmetic: d + 4 products of two class coordinates
on Bl_d(P^2), two for the ranks and d + 2 in ``picard.dot``, so the
pairing is cheap enough to drive large mutation searches even when
coordinates run to hundreds of bits.  The halving is exact: H.c1 =
2ch2 (mod 2) holds for every class, which its constructor checks, so
both bracketed terms are even, and a right shift halves their
difference.  ``euler_pairing`` is that formula, for two classes known to
share a surface (the members of a collection, which its constructor
checked); ``euler_form`` checks both against the surface first.

Its antisymmetric part is the skew form

    chi(E, F) - chi(F, E) = rE H.c1F - rF H.c1E,

two products of cached integers (``skew_form``).  Where a certificate
has fixed chi(F, E) = 0, as for every adjacent pair of a numerically
exceptional collection, it is chi(E, F), and a mutation reads it there:
n chi per move, all of them the new member's Gram row and column.

Every class caches its anticanonical degree H.c1, computed once at
construction by ``picard.anticanonical_degree``: the pairing reads both
cached degrees and takes one product c1E.c1F.  The anticanonical slope
mu_H = H.c1/r is ordered by ``compare_mu``, which cross-multiplies the
integers (H.c1, r); ``slope_mu`` builds the Fraction only to show one.
Other modules read the cached degree as ``KClass.hc1``.  The integrality
check reads the cached degree too, by the congruence c1^2 = H.c1
(mod 2): for c1 = (a; b), a^2 - sum b^2 = a + sum b = 3a - sum b
(mod 2).  Sums, twists and weighted sums build each new class once,
from its integer coordinates.

Every coordinate is an exact int: the constructors of a class and of
its c1 refuse bool, as ``from_json`` does, since json.dumps writes True
as true.  So ``to_json_text`` writes a class's log text,
{"r": int, "c1": [int, ...], "ch2": "p/q"}, straight from the integers
with ``int.__repr__``, exactly as json.dumps(to_json()) would.  A log
reads that text back with json's scanner and ``from_json``.
"""

from __future__ import annotations

import functools
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from .errors import DomainError, InvalidInputError
from .picard import (
    DivisorClass,
    Surface,
    anticanonical_degree,
    dot,
    exceptional_divisor,
    zero_divisor,
)
from .values import Value, slot_setters

_CH2_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class KClass(Value):
    """A numerical K-theory class (r, c1, 2*ch2).

    Invariant: c1^2 - 2*ch2 is an even integer, i.e. c2 is an integer.
    Negative rank is allowed (formal classes); rank-0 classes are the
    torsion ones.

    ``_hc1`` caches the anticanonical degree H.c1, read as ``hc1``.  It
    takes no part in construction, equality, hashing, the repr or JSON; a
    frozen class cannot go stale.
    """

    __slots__ = ("r", "c1", "two_ch2", "_hc1")
    _fields = ("r", "c1", "two_ch2")

    def __init__(self, r: int, c1: DivisorClass, two_ch2: int):
        _set_r(self, r)
        _set_c1(self, c1)
        _set_two_ch2(self, two_ch2)
        self.__post_init__()

    def __post_init__(self):
        if type(self.r) is not int or type(self.two_ch2) is not int:
            raise InvalidInputError("rank and 2*ch2 must be integers")
        hc1 = anticanonical_degree(self.c1)
        _set_hc1(self, hc1)
        # c1^2 = H.c1 (mod 2), so this is the parity of c1^2 - 2*ch2.
        if (hc1 - self.two_ch2) % 2 != 0:
            raise InvalidInputError(
                f"class ({self.r}, {self.c1.coeffs}, {self.ch2}) has non-integer c2"
            )

    @property
    def hc1(self) -> int:
        """The anticanonical degree H.c1, cached at construction."""
        return self._hc1

    @property
    def ch2(self) -> Fraction:
        return Fraction(self.two_ch2, 2)

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
        if type(n) is not int:
            return NotImplemented
        return KClass(n * self.r, n * self.c1, n * self.two_ch2)

    def to_json(self) -> dict:
        """{"r": int, "c1": [int, ...], "ch2": "p/q"} in lowest terms, once
        ``require_writable`` passes."""
        self.require_writable()
        t = self.two_ch2
        num, den = (t, 2) if t & 1 else (t >> 1, 1)
        return {
            "r": self.r,
            "c1": self.c1.to_json(),
            "ch2": f"{num}/{den}",
        }

    def to_json_text(self) -> str:
        """json.dumps(self.to_json()), written from the integers once
        ``require_writable`` passes: every field is an exact int, which
        json writes with ``int.__repr__``."""
        self.require_writable()
        t = self.two_ch2
        num, den = (t, 2) if t & 1 else (t >> 1, 1)
        coeffs = ", ".join(map(int.__repr__, self.c1.coeffs))
        return f'{{"r": {self.r!r}, "c1": [{coeffs}], "ch2": "{num!r}/{den}"}}'

    def require_writable(self) -> None:
        """Raise DomainError when an integer is too long to write: the
        interpreter's int-to-string digit limit (4300 by default, the
        CVE-2020-10735 guard) is the size budget of every JSON answer."""
        limit = sys.get_int_max_str_digits()
        if limit:
            bound = _digit_bound(limit)
            t = self.two_ch2
            num = t if t & 1 else t >> 1
            coeffs = self.c1.coeffs
            if not (
                -bound < self.r < bound
                and -bound < num < bound
                and -bound < min(coeffs)
                and max(coeffs) < bound
            ):
                raise DomainError(
                    f"class has an integer of more than {limit} digits, the "
                    "limit for writing one"
                )

    @staticmethod
    def from_json(data: dict) -> "KClass":
        """Read {"r": int, "c1": [int, ...], "ch2": int or "p" or "p/q"}."""
        if not isinstance(data, dict) or not {"r", "c1", "ch2"} <= set(data):
            raise InvalidInputError("K-class JSON needs keys r, c1, ch2")
        r, raw = data["r"], data["ch2"]
        if type(r) is not int:
            raise InvalidInputError(f"rank must be a JSON integer, got {r!r}")
        text = _CH2_TEXT.fullmatch(raw) if isinstance(raw, str) else None
        if type(raw) is not int and text is None:
            raise InvalidInputError(
                f"ch2 must be a JSON integer or a 'p/q' string, got {raw!r}"
            )
        p, q = (raw, 1) if text is None else text.groups(1)
        try:  # a zero denominator, or digits past the int-from-string limit
            p, q = int(p), int(q)
            two_ch2, rest = divmod(2 * p, q)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad ch2 value {raw!r}") from exc
        if rest != 0:
            raise InvalidInputError(f"2*ch2 must be an integer, got ch2={Fraction(p, q)}")
        return KClass(r, DivisorClass.from_json(data["c1"]), two_ch2)


_set_r, _set_c1, _set_two_ch2, _set_hc1 = slot_setters(KClass)


@functools.lru_cache(maxsize=None)
def _digit_bound(limit: int) -> int:
    """10**limit, the least integer with more than ``limit`` digits."""
    return 10**limit


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


def euler_pairing(E: KClass, F: KClass) -> int:
    """chi(E, F), exactly, as an integer, for two classes already known to
    lie on one surface, as the members of a ``Collection`` are: no surface
    check."""
    er, fr = E.r, F.r
    # Both brackets are even, as H.c1 = 2*ch2 (mod 2) for every class, so
    # the shift halves exactly; on long integers it is faster than // 2.
    return (
        (er * (2 * fr + F._hc1 + F.two_ch2) - fr * (E._hc1 - E.two_ch2)) >> 1
    ) - dot(E.c1, F.c1)


def skew_form(E: KClass, F: KClass) -> int:
    """chi(E, F) - chi(F, E) = rE H.c1F - rF H.c1E, read off the cached
    degrees: the antisymmetric part of Riemann-Roch, two products.  Where
    chi(F, E) = 0 is known, as for an adjacent pair of a numerically
    exceptional collection, it is chi(E, F)."""
    return E.r * F._hc1 - F.r * E._hc1


def euler_form(S: Surface, E: KClass, F: KClass) -> int:
    """chi(E, F) of two classes on S: the surface checks, then
    ``euler_pairing``."""
    n = S.d + 1
    if len(E.c1.coeffs) != n or len(F.c1.coeffs) != n:
        raise InvalidInputError("class does not belong to this surface")
    return euler_pairing(E, F)


def _require_slope(S: Surface, E: KClass) -> None:
    if E.d != S.d:
        raise InvalidInputError("inputs do not belong to this surface")
    if E.r == 0:
        raise DomainError("slope is undefined for rank-0 classes")


def slope_mu(S: Surface, E: KClass) -> Fraction:
    """The anticanonical slope mu_H(E) = H.c1/r, read off the cached
    degree, as the Fraction a user is shown.  Undefined on torsion
    classes."""
    _require_slope(S, E)
    return Fraction(E._hc1, E.r)


def compare_mu(S: Surface, E: KClass, F: KClass) -> int:
    """-1, 0, +1 as mu_H(E) <, =, > mu_H(F), decided on the integers
    (H.c1, r): mu_H(E) - mu_H(F) = (hE rF - hF rE) / (rE rF), so the
    cross product has its sign when rE and rF have the same sign and the
    opposite sign otherwise.  Refuses E, then F, as ``slope_mu`` would;
    compare_mu(S, E, E) is 0 for every class ``slope_mu`` accepts."""
    n = S.d + 1  # one test for the common case, then slope_mu's refusals
    if len(E.c1.coeffs) != n or len(F.c1.coeffs) != n or not E.r or not F.r:
        _require_slope(S, E)
        _require_slope(S, F)
    t = E._hc1 * F.r - F._hc1 * E.r
    if (E.r < 0) is not (F.r < 0):
        t = -t
    return (t > 0) - (t < 0)


def default_ample(S: Surface) -> DivisorClass:
    """A = 4h - sum e_i, the documented default polarization.

    Ampleness is not decidable from the lattice; using this class as an
    ample divisor is an assumption on the configuration.  On a root
    C = (a; b) it reads A.C = 4a - sum b = a, so A is zero on the d(d-1)
    roots e_i - e_j (56 of 240 at d = 8) and breaks no mu_A tie across
    them.  It reads only S.d, never the declared roots, and the CLI's
    ``hn`` without ``--ample`` builds it on a surface with none.
    """
    return DivisorClass((4,) + (1,) * S.d)


def twist(S: Surface, E: KClass, D: DivisorClass) -> KClass:
    """E tensored with the line class of D:
    (r, c1 + r D, 2 ch2 + 2 c1.D + r D^2)."""
    if E.d != S.d or D.d != S.d:
        raise InvalidInputError("inputs do not belong to this surface")
    r = E.r
    c1 = DivisorClass(tuple([x + r * y for x, y in zip(E.c1.coeffs, D.coeffs)]))
    return KClass(r, c1, E.two_ch2 + 2 * dot(E.c1, D) + r * dot(D, D))


def weighted_sum(terms: Iterable[tuple[KClass, int]]) -> KClass:
    """sum m * E over the (E, m) terms, in one pass: the rank, the c1
    coordinates and 2*ch2 are summed as integers, and one class is built.
    Each multiplicity must be an integer."""
    r = two_ch2 = 0
    coeffs: list[int] | None = None
    for E, m in terms:
        if type(m) is not int:
            raise InvalidInputError(f"multiplicities must be integers, got {m!r}")
        c = E.c1.coeffs
        if coeffs is None:
            coeffs = [m * x for x in c]
        elif len(c) != len(coeffs):
            raise InvalidInputError("divisor classes live on different surfaces")
        else:
            coeffs = [x + m * y for x, y in zip(coeffs, c)]
        r += m * E.r
        two_ch2 += m * E.two_ch2
    if coeffs is None:
        raise InvalidInputError("a weighted sum needs at least one class")
    return KClass(r, DivisorClass(tuple(coeffs)), two_ch2)


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
