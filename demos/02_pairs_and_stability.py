"""Classifying exceptional pairs and coarsening slope filtrations.

The four pair types are decided by anticanonical slopes and, at equal
slopes, by the effective -2-curve configuration declared on the surface.
The same slope machinery drives the Harder-Narasimhan coarsening of
formal graded objects.
"""

from delpezzo import (
    GradedObject,
    Surface,
    classify_pair,
    default_ample,
    hn_coarsen,
    line_class,
    slope_mu,
    structure_class,
    vector_slope,
)
from delpezzo.picard import DivisorClass

# --- pair types ------------------------------------------------------------

S1 = Surface(1)
O = structure_class(S1)
Oh = line_class(S1, DivisorClass((1, 0)))

t = classify_pair(S1, O, Oh)
print("(O, O(h)):", t.kind.value, t.dims)  # hom(3): three sections

E = line_class(S1, DivisorClass((1, 1)))   # O(h - e1)
F = line_class(S1, DivisorClass((0, -1)))  # O(e1)
t = classify_pair(S1, E, F)
print("(O(h-e1), O(e1)):", t.kind.value, t.dims)  # ext(1)

# Equal slopes: the answer depends on declared -2-curves.  Blowing up two
# points on one exceptional curve makes e1 - e2 an effective root:
S2 = Surface(2, (DivisorClass((0, -1, 1)),))
G = line_class(S2, DivisorClass((0, -1, 1)))
t = classify_pair(S2, structure_class(S2), G)
print("(O, O(e1-e2)) with the root declared:", t.kind.value, t.dims)

# Declaring e1-e2 and e1-e3 together is refused: they meet at -1.  Such a
# surface blows up two points of the first exceptional curve E1, so the
# strict transform of E1 is the -3-curve e1-e2-e3, -K is not nef, and
# neither class is an irreducible curve.
# With e1-e2 alone the classes O(e1-e2), O(e1-e3) differ by e2-e3, which
# is outside the declared span: a zero pair.
S3 = Surface(3, (DivisorClass((0, -1, 1, 0)),))
t = classify_pair(
    S3,
    line_class(S3, DivisorClass((0, -1, 1, 0))),
    line_class(S3, DivisorClass((0, -1, 0, 1))),
)
print("(O(e1-e2), O(e1-e3)) with e1-e2 declared:", t.kind.value)

# --- slope filtrations -----------------------------------------------------

# A formal graded object lists (class, multiplicity) quotients, top
# quotient first.  Coarsening merges adjacent blocks until slopes
# strictly increase toward the sub end.
A = default_ample(S1)
hi = line_class(S1, DivisorClass((1, 1)))  # slope 2
lo = structure_class(S1)                   # slope 0

print("slopes:", slope_mu(S1, hi), slope_mu(S1, lo))
g = GradedObject(((hi, 1), (lo, 1)))       # descending: must merge
out = hn_coarsen(g, A)
print("coarsened to", len(out.quotients), "block:",
      [(q.r, q.c1.coeffs) for q, m in out.quotients])

g = GradedObject(((lo, 1), (hi, 1)))       # ascending: already canonical
print("ascending object keeps", len(hn_coarsen(g, A).quotients), "blocks")

# Lexicographic refinement: vector slopes break mu_H ties by the ample
# degree and then by the discriminant, all exactly.
print("gamma(O) =", vector_slope(S1, lo).components())
print("gamma(O(h-e1)) =", vector_slope(S1, hi).components())
