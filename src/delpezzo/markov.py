"""The Markov equation and its correspondence with pair orbits.

Positive solutions of  x^2 + y^2 + z^2 = 3xyz  are generated from
(1, 1, 1) by Vieta jumps: replacing one coordinate c by
3*(product of the others) - c.  Sorted, they form Markov's binary tree:
(a, b, c) with a <= b <= c has the two children (a, c, 3ac - b) and
(b, c, 3bc - a), each sorted with a larger maximum, and every solution
but (1, 1, 1) has one parent, found by lowering its maximum.  The ranks
of helix foundations on the plane realize exactly these triples.

The orbit of a numerically exceptional ext-pair (E_0, E_1) with pairing
chi(E_0, E_1) = -h <= -2 under one-sided mutation obeys the two-sided
linear recurrence with coefficient sequence

    x_0 = 0, x_1 = 1, x_{n+1} = h x_n - x_{n-1},

and the integer quadratic form  p^2 - h p q + q^2  decides membership of
p/q in the closed interval between the recurrence's limit slopes without
any irrational arithmetic.
"""

from __future__ import annotations

from collections.abc import Iterator

from .chern import KClass, weighted_sum
from .errors import DomainError, InvalidInputError
from .pairs import require_exceptional_pair
from .picard import Surface
from .values import Value, slot_setters


class MarkovTriple(Value):
    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: int, y: int, z: int):
        if any(type(v) is not int for v in (x, y, z)):
            raise InvalidInputError("Markov coordinates must be integers")
        if min(x, y, z) < 1:
            raise DomainError("Markov coordinates must be positive integers")
        if x**2 + y**2 + z**2 != 3 * x * y * z:
            raise DomainError(f"({x}, {y}, {z}) is not a Markov triple")
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


_set_x, _set_y, _set_z = slot_setters(MarkovTriple)


def markov_step(t: MarkovTriple, position: int) -> MarkovTriple:
    """Vieta jump at the given coordinate (1, 2 or 3).  An involution."""
    if type(position) is not int or position not in (1, 2, 3):
        raise InvalidInputError("position must be 1, 2 or 3")
    x, y, z = t.as_tuple()
    if position == 1:
        return MarkovTriple(3 * y * z - x, y, z)
    if position == 2:
        return MarkovTriple(x, 3 * x * z - y, z)
    return MarkovTriple(x, y, 3 * x * y - z)


def markov_tree(limit: int) -> Iterator[MarkovTriple]:
    """Yield each solution with max coordinate <= limit once, sorted, down
    Markov's tree from (1, 1, 1); a caller that stops early stops the walk.
    The limit is checked when iteration starts.

    A sorted (a, b, c) has the two children (a, c, 3ac - b) and
    (b, c, 3bc - a), each sorted with maximum above c, so a child past the
    limit ends its branch.  Every solution but the root has one parent, so
    the walk meets it once; the two children coincide only at (1, 1, 1)
    and (1, 1, 2), where a set of them drops the repeat."""
    if type(limit) is not int or limit < 1:
        raise InvalidInputError("limit must be a positive integer")
    frontier = [(1, 1, 1)]
    while frontier:
        a, b, c = frontier.pop()
        yield MarkovTriple(a, b, c)
        for child in {(a, c, 3 * a * c - b), (b, c, 3 * b * c - a)}:
            if child[2] <= limit:
                frontier.append(child)


def markov_form(p: int, q: int, h: int) -> int:
    """p^2 - h p q + q^2.  Its sign tells whether p/q lies inside the closed
    interval bounded by the roots of l^2 - h l + 1 (negative inside,
    positive outside, zero on the boundary)."""
    if type(p) is not int or type(q) is not int or type(h) is not int:
        raise InvalidInputError("markov form needs integers p, q and h")
    return p * p - h * p * q + q * q


class PairOrbit(Value):
    """Two-sided mutation orbit of an ext-pair, indices -n .. n+1."""

    __slots__ = _fields = ("classes", "x", "h")

    def __init__(self, classes: dict[int, KClass], x: tuple[int, ...], h: int):
        _set_classes(self, classes)
        _set_orbit_x(self, x)
        _set_h(self, h)

    def __getitem__(self, n: int) -> KClass:
        return self.classes[n]


_set_classes, _set_orbit_x, _set_h = slot_setters(PairOrbit)


def pair_orbit(S: Surface, E0: KClass, E1: KClass, n: int) -> PairOrbit:
    """Generate e_m for m in [-n, n+1] from the recurrences

        e_{-1} = e_1 + h e_0,     e_2 = h e_1 + e_0,
        e_m = h e_{m-1} - e_{m-2}        (m > 2),
        e_{-m} = h e_{1-m} - e_{2-m}     (m > 1),

    together with the coefficient sequence x_0..x_{n+1}.
    Requires chi(E0,E0) = chi(E1,E1) = 1, chi(E1,E0) = 0 and
    h = -chi(E0,E1) >= 2.
    """
    if type(n) is not int or n < 1:
        raise InvalidInputError("orbit length must be a positive integer")
    h = -require_exceptional_pair(S, E0, E1)
    if h < 2:
        raise InvalidInputError(f"invalid ext-pair: need chi(E0,E1) <= -2, got {-h}")
    classes: dict[int, KClass] = {0: E0, 1: E1}
    classes[-1] = weighted_sum(((E1, 1), (E0, h)))
    classes[2] = weighted_sum(((E1, h), (E0, 1)))
    for m in range(3, n + 2):
        classes[m] = weighted_sum(((classes[m - 1], h), (classes[m - 2], -1)))
    for m in range(2, n + 1):
        classes[-m] = weighted_sum(((classes[1 - m], h), (classes[2 - m], -1)))
    x = [0, 1]
    while len(x) < n + 2:
        x.append(h * x[-1] - x[-2])
    return PairOrbit(classes, tuple(x), h)
