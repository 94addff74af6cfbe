"""Mutations, braid words and helix periodicity.

Mutations reflect K-classes: the left shift of (E, F) is
+-(chi(E,F) [E] - [F]).  Collections stay numerically exceptional, braid
words act letter by letter, and a foundation extends to a helix by
twisting with -K.
"""

from delpezzo import (
    BraidWord,
    Collection,
    Direction,
    Surface,
    apply_braid,
    basic_collection,
    check_helix_period,
    gram_matrix,
    helix_extend,
    is_numerically_exceptional,
    mutate_pair,
)

P2 = Surface(0)
basic = basic_collection(P2)
print("basic plane collection Gram matrix:")
for row in gram_matrix(basic):
    print("  ", row)

# Left and right shifts of (O, O(h)): the reflections produce the
# (twisted) cotangent and tangent classes.
O, Oh, _ = basic.members
L, _ = mutate_pair(P2, O, Oh, Direction.LEFT)
_, R = mutate_pair(P2, O, Oh, Direction.RIGHT)
print("left shift:", (L.r, L.c1.coeffs, str(L.ch2)))
print("right shift:", (R.r, R.c1.coeffs, str(R.ch2)))

# Braid words: L then R at the same spot is the identity.
out, log = apply_braid(basic, BraidWord.parse("L1 R1"))
print("L1 R1 acts trivially:", out == basic, f"({len(log)} logged steps)")

# Helix extension is twist periodicity: index 4 is O(3h).
helix = helix_extend(basic, -2, 6)
print("helix around the foundation:")
for i in sorted(helix):
    E = helix[i]
    print(f"  E_{i}: rank {E.r}, c1 {E.c1.coeffs}")

# The helix axiom: mutating all the way around one period lands on the
# canonical twist.  It holds for the basic foundations.
for d in (0, 1, 2):
    ok, _ = check_helix_period(basic_collection(Surface(d)))
    print(f"period check, {d} blow-ups:", ok)

# Ordering matters: with the torsion classes listed last the certificate
# fails (the torsion classes pair backwards onto O with chi = -1).
S = Surface(1)
members = basic_collection(S).members
torsion_last = Collection(S, members[S.d :] + members[: S.d])
ok, violation = is_numerically_exceptional(torsion_last)
print("torsion-last ordering certified:", ok, "| violation:", violation)
