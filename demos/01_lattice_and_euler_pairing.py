"""The Picard lattice of a blown-up plane and the exact Euler pairing.

Walks through the intersection form, the canonical class, the -2-root
systems of the degree-d lattices, and Riemann-Roch as a bilinear form on
numerical K-theory classes.
"""

from delpezzo import (
    Surface,
    canonical_divisor,
    curve_class,
    enumerate_roots,
    euler_form,
    exceptional_divisor,
    intersect,
    line_class,
    line_divisor,
    structure_class,
)

# --- the lattice -----------------------------------------------------------

# Blow up two points of the plane.  Pic = Z<h, e1, e2> with the diagonal
# form h^2 = 1, e_i^2 = -1.
S = Surface(2)
h = line_divisor(2)
e1 = exceptional_divisor(2, 1)
e2 = exceptional_divisor(2, 2)

print("h.h   =", intersect(S, h, h))
print("h.e1  =", intersect(S, h, e1))
print("e1.e1 =", intersect(S, e1, e1))

K = canonical_divisor(2)
print("K     =", K.coeffs, "   K.K =", intersect(S, K, K))

# --- root systems ----------------------------------------------------------

# The classes C with C^2 = -2 and C.K = 0 form the root system of the
# lattice; its size grows from 0 (one blow-up) to 240 (eight, type E8).
for d in range(9):
    print(f"d={d}: {len(enumerate_roots(Surface(d)))} roots")

# --- the Euler pairing -----------------------------------------------------

# chi(E, F) on K-classes (rank, c1, ch2).  On the plane chi(O, O(k))
# counts the degree-k monomials in three variables.
P2 = Surface(0)
O = structure_class(P2)
for k in range(5):
    Ok = line_class(P2, k * line_divisor(0))
    print(f"chi(O, O({k})) =", euler_form(P2, O, Ok))

# The pairing is exact on torsion classes too: the structure sheaf of an
# exceptional curve twisted to degree -1 pairs to 1 with itself.
S1 = Surface(1)
L = curve_class(S1, 1, -1)
print("torsion class:", (L.r, L.c1.coeffs, str(L.ch2)))
print("chi(L, L) =", euler_form(S1, L, L))
