"""Exact slope comparison and Harder-Narasimhan coarsening.

Slopes are stored unreduced as (numerators, rank) so that comparison is
cross-multiplication (no division and no floats ever decide a tie) and
so that merging two slopes is just adding both parts -- the mediant,
which is the arithmetic engine behind the see-saw axiom: the slope of an
extension sits weakly between the slopes of its pieces.  The numerators
are integers, as a class's slope has, so ordering, scaling and merging
are plain integer arithmetic; a Fraction is built only to show a slope
(``SlopeVector.components``).

The HN machinery acts on formal graded objects: ordered lists of
(K-class, multiplicity) quotients, top quotient first, each quotient
assumed semistable.  Coarsening merges adjacent blocks until block
slopes strictly increase from the top-quotient end to the sub end, the
unique such coarsening (the upper convex hull of the partial-sum
polygon, generalized to lexicographic slopes).
"""

from __future__ import annotations

from fractions import Fraction
from .chern import KClass, default_ample, weighted_sum
from .errors import DomainError, InvalidInputError
from .picard import DivisorClass, Surface, dot, require_on_surface
from .values import ANY, JsonFormat, Value, slot_setters


class SlopeVector(Value):
    """Lexicographic slope (d_H/r, d_A/r, d_Delta/r) kept as exact numerators.

    Each numerator is an int, as a class's slope has; a Fraction, a float,
    a string or a bool is refused rather than read as a number."""

    __slots__ = _fields = ("rank", "numerators")

    def __init__(self, rank: int, numerators: tuple[int, ...]):
        if type(rank) is not int or rank <= 0:
            raise InvalidInputError("slope rank must be a positive integer")
        numerators = tuple(numerators)
        for x in numerators:
            if type(x) is not int:
                raise InvalidInputError(f"slope numerators must be integers, got {x!r}")
        _set_rank(self, rank)
        _set_numerators(self, numerators)

    def __add__(self, other: "SlopeVector") -> "SlopeVector":
        if len(self.numerators) != len(other.numerators):
            raise InvalidInputError("slope vectors have different lengths")
        return SlopeVector(
            self.rank + other.rank,
            tuple(x + y for x, y in zip(self.numerators, other.numerators)),
        )

    def scaled(self, m: int) -> "SlopeVector":
        """The slope of m copies: same value, m-fold mediant weight."""
        if type(m) is not int or m <= 0:
            raise InvalidInputError("multiplicity must be positive")
        return SlopeVector(m * self.rank, tuple(m * x for x in self.numerators))

    def components(self) -> tuple[Fraction, ...]:
        """The slope's components as the Fractions a user is shown."""
        return tuple(Fraction(x, self.rank) for x in self.numerators)


_set_rank, _set_numerators = slot_setters(SlopeVector)


def vector_slope(
    S: Surface, E: KClass, A: DivisorClass | None = None
) -> SlopeVector:
    """The lexicographic slope (mu_H, mu_A, 2 ch2/r) of a positive-rank class,
    stored as numerators over the common denominator r."""
    require_on_surface(S, E.c1)
    if E.r <= 0:
        raise DomainError("vector slope needs positive rank")
    if A is None:
        A = default_ample(S)
    return SlopeVector(E.r, (E.hc1, dot(A, E.c1), E.two_ch2))


def compare_slope(a: SlopeVector, b: SlopeVector) -> int:
    """-1, 0, +1 for a < b, a = b, a > b in the lexicographic order,
    decided component by component via cross-multiplication."""
    if len(a.numerators) != len(b.numerators):
        raise InvalidInputError("slope vectors have different lengths")
    for x, y in zip(a.numerators, b.numerators):
        t = x * b.rank - y * a.rank
        if t != 0:
            return 1 if t > 0 else -1
    return 0


class GradedObject(Value):
    """Formal graded object: quotients (class, multiplicity), top first.

    Read right-to-left this is the record (G_n, ..., G_1) of a filtration
    with G_1 the top quotient.  Every quotient must have positive rank.
    """

    __slots__ = _fields = ("quotients",)

    def __init__(self, quotients: tuple[tuple[KClass, int], ...]):
        quotients = tuple(quotients)
        if not quotients:
            raise InvalidInputError("graded object needs at least one quotient")
        for q, m in quotients:
            if type(m) is not int or m < 1:
                raise InvalidInputError(
                    f"multiplicities must be positive integers, got {m!r}"
                )
            if q.r <= 0:
                raise DomainError("graded quotients must have positive rank")
        _set_quotients(self, quotients)

    def to_json(self) -> dict:
        return {
            "quotients": [
                {"class": q.to_json(), "mult": m} for q, m in self.quotients
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "GradedObject":
        """Read {"quotients": [{"class": K-class, "mult": int}, ...]}."""
        (quotients,) = _GRADED_JSON.read(data)
        pairs = map(_QUOTIENT_JSON.read, quotients)
        return GradedObject(tuple((KClass.from_json(q), m) for q, m in pairs))


(_set_quotients,) = slot_setters(GradedObject)
_GRADED_JSON = JsonFormat("graded object", {"quotients": list})
_QUOTIENT_JSON = JsonFormat("graded quotient", {"class": ANY, "mult": ANY})


def hn_coarsen(g: GradedObject, A: DivisorClass) -> GradedObject:
    """The unique coarsening by adjacent merges whose block slopes strictly
    increase from the top-quotient end (list start) to the sub end.

    Scans from the sub end with a merge stack; equal-slope neighbours are
    merged into one block.  A merged block becomes a single quotient: the
    multiplicity-weighted sum of its classes.  Idempotent.
    """
    d = A.d
    surface = Surface(d)
    for q, _ in g.quotients:
        if q.d != d:
            raise InvalidInputError("graded object and polarization disagree on d")
    slopes = [vector_slope(surface, q, A).scaled(m) for q, m in g.quotients]

    # blocks[i] = (list of original indices, summed slope); built right to left.
    blocks: list[tuple[list[int], SlopeVector]] = []
    for i in range(len(slopes) - 1, -1, -1):
        idxs, s = [i], slopes[i]
        # Monotonicity requires this block to sit strictly below its right
        # neighbour; merge while it does not.
        while blocks and compare_slope(s, blocks[-1][1]) >= 0:
            right_idxs, right_s = blocks.pop()
            idxs = idxs + right_idxs
            s = s + right_s
        blocks.append((idxs, s))
    blocks.reverse()

    out: list[tuple[KClass, int]] = []
    for idxs, _ in blocks:
        if len(idxs) == 1:
            out.append(g.quotients[idxs[0]])
        else:
            out.append((weighted_sum(g.quotients[i] for i in idxs), 1))
    return GradedObject(tuple(out))
