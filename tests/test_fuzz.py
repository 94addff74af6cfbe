"""Fuzz the JSON readers: every generated document either decodes or is
refused with InvalidInputError or DomainError, never another exception.

Documents are arbitrary JSON values, and valid documents written by the
library with one node replaced by an arbitrary JSON value or deleted, so
that the edits reach the checks behind the outer schema.  Log steps are
decoded and then replayed by ``recompute_step``.  The runs are
derandomized and bounded, so the suite stays deterministic.
"""

import pytest
from _helpers import braid_log, p2_basic, scrambled_log
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delpezzo import (
    Collection,
    DomainError,
    GradedObject,
    InvalidInputError,
    KClass,
    LogStep,
    Surface,
    basic_collection,
    enumerate_roots,
    structure_class,
)
from delpezzo.logs import recompute_step

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Keys the readers look for, so that generated objects often hit them.
KEYS = (
    "r", "c1", "ch2", "blowups", "effective_roots", "surface", "members",
    "quotients", "class", "mult", "kind", "params", "before", "after",
    "collection", "position", "direction", "j", "k_multiple", "mults",
    "e_index", "alpha",
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "-5/2", "3", "left", "right", "mutate", "peel"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _edited(draw, node):
    """node with one descendant, or node itself, replaced by arbitrary
    JSON, or with one entry deleted; each depth is about as likely as the
    next, so top-level keys are edited as often as deep leaves."""
    if isinstance(node, dict):
        keys = list(node)
    else:
        keys = list(range(len(node))) if isinstance(node, list) else []
    if not keys or draw(st.integers(0, 2)) == 0:
        return draw(SCALARS | JSON)
    key = draw(st.sampled_from(keys))
    copy = dict(node) if isinstance(node, dict) else list(node)
    if draw(st.integers(0, 4)) == 0:
        del copy[key]
    else:
        copy[key] = draw(_edited(copy[key]))
    return copy


def documents(valid: list):
    """Arbitrary JSON, or a valid document with one edit."""
    return JSON | st.sampled_from(valid).flatmap(_edited)


S2 = Surface(2, (enumerate_roots(Surface(2))[0],))
VALID = {
    "surface": [S2.to_json(), {"blowups": 8}],
    "class": [m.to_json() for m in basic_collection(S2).members],
    "collection": [basic_collection(S2).to_json(), p2_basic().to_json()],
    "graded": [
        GradedObject(
            ((structure_class(S2), 2), (KClass(2, S2.anticanonical_class(), 3), 1))
        ).to_json()
    ],
    "step": [s.to_json() for log in (scrambled_log(), braid_log()) for s in log.steps],
}


def decodes_or_refuses(read, doc):
    try:
        read(doc)
    except (InvalidInputError, DomainError):
        pass


def read_and_replay(doc):
    recompute_step(LogStep.from_json(doc))


@pytest.mark.parametrize(
    "read, valid",
    [
        (Surface.from_json, "surface"),
        (KClass.from_json, "class"),
        (Collection.from_json, "collection"),
        (GradedObject.from_json, "graded"),
        (read_and_replay, "step"),
    ],
    ids=["surface", "kclass", "collection", "graded", "logstep"],
)
def test_reader_decodes_or_refuses(read, valid):
    @FUZZ
    @given(doc=documents(VALID[valid]))
    def check(doc):
        decodes_or_refuses(read, doc)

    check()
