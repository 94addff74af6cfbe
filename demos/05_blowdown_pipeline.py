"""One level of the blow-down descent, fully logged.

The pipeline hom-orders a collection, shrinks its slope window under
K^2, rotates and twists until every restriction degree on the last
exceptional curve lies in {-1, 0}, peels the O_e(-1) layer off the
accumulated class, and deletes the lattice coordinate.  Every move is
recorded in a replayable JSON-lines log.
"""

from delpezzo import (
    Collection,
    MutationLog,
    Surface,
    basic_collection,
    line_class,
    normalize_and_descend,
    replay,
)
from delpezzo.picard import DivisorClass, exceptional_divisor

S = Surface(1)

# O(e1) restricted to the exceptional curve has degree -1: peeling one
# copy of O_e(-1) leaves exactly the pullback of the plane's O.
c = Collection(S, (line_class(S, exceptional_divisor(1, 1)),))
G, log = normalize_and_descend(c)
print("descending [O(e1)]:")
for step in log.steps:
    print("  step:", step.kind, step.params)
print("  descended class:", (G.r, G.c1.coeffs, str(G.ch2)))
print("  log replays bit-exactly:", replay(log))

# The full basic collection of the one-point blow-up descends to the sum
# of the plane's three line bundles: the torsion layer is peeled away.
b = basic_collection(S)
G, log = normalize_and_descend(b)
print("descending the basic collection:")
print("  peel multiplicity:",
      [s.params["alpha"] for s in log.steps if s.kind == "peel"][0])
print("  descended class:", (G.r, G.c1.coeffs, str(G.ch2)))

# A pair that genuinely needs the rotation: degrees -2 and 0 fit no
# two-integer window until the first member is rotated past and twisted.
c = Collection(
    S,
    (
        line_class(S, DivisorClass((-3, -2))),
        line_class(S, DivisorClass((0, 0))),
    ),
)
G, log = normalize_and_descend(c)
print("descending a pair that needs rotation:")
for step in log.steps:
    print("  step:", step.kind, step.params)
print("  descended class:", (G.r, G.c1.coeffs, str(G.ch2)))

# The log serializes to JSON-lines; each line, read back as a one-step
# log, replays from its own recorded inputs.
lines = log.to_jsonl().splitlines()
print("log has", len(lines), "lines; first line starts:", lines[0][:60], "...")
print("each line replays alone:",
      all(replay(MutationLog.from_jsonl(line)) for line in lines))
