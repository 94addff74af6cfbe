"""The frozen value types: each one's fields, repr, hash, equality,
immutability and construction, pinned as literal values."""

import copy
import pickle
from fractions import Fraction

import pytest

from delpezzo import (
    BraidWord,
    Collection,
    Direction,
    DivisorClass,
    GradedObject,
    KClass,
    LogStep,
    MarkovTriple,
    MutationLog,
    PairKind,
    PairOrbit,
    PairType,
    SlopeVector,
    Surface,
)
from delpezzo.mutation import GramViolation, HelixWitness

D0 = DivisorClass((0,))
O = KClass(1, D0, 0)
O_TEXT = "KClass(r=1, c1=DivisorClass(coeffs=(0,)), two_ch2=0)"
P2 = Surface(0)
P2_TEXT = "Surface(d=0, effective_simple_roots=())"
STEP = LogStep("mutate", {"position": 1}, O, O)
STEP_TEXT = f"LogStep(kind='mutate', params={{'position': 1}}, before={O_TEXT}, after={O_TEXT})"

# (type, field names, field values, repr)
CASES = [
    (DivisorClass, ("coeffs",), ((1, 0, -1),), "DivisorClass(coeffs=(1, 0, -1))"),
    (
        Surface,
        ("d", "effective_simple_roots"),
        (2, (DivisorClass((0, 1, -1)),)),
        "Surface(d=2, effective_simple_roots=(DivisorClass(coeffs=(0, 1, -1)),))",
    ),
    (KClass, ("r", "c1", "two_ch2"), (1, D0, 0), O_TEXT),
    (
        PairType,
        ("kind", "dims"),
        (PairKind.HOM, (3,)),
        "PairType(kind=<PairKind.HOM: 'hom'>, dims=(3,))",
    ),
    (
        Collection,
        ("surface", "members"),
        (P2, (O,)),
        f"Collection(surface={P2_TEXT}, members=({O_TEXT},))",
    ),
    (GramViolation, ("i", "j", "value"), (1, 0, 3), "GramViolation(i=1, j=0, value=3)"),
    (
        BraidWord,
        ("letters",),
        (((1, Direction.LEFT), (2, Direction.RIGHT)),),
        "BraidWord(letters=((1, <Direction.LEFT: 'left'>), (2, <Direction.RIGHT: 'right'>)))",
    ),
    (LogStep, ("kind", "params", "before", "after"), ("mutate", {"position": 1}, O, O), STEP_TEXT),
    (MutationLog, ("steps",), ((STEP,),), f"MutationLog(steps=({STEP_TEXT},))"),
    (
        HelixWitness,
        ("index", "reason", "computed", "expected"),
        (2, "period mismatch", None, O),
        f"HelixWitness(index=2, reason='period mismatch', computed=None, expected={O_TEXT})",
    ),
    (MarkovTriple, ("x", "y", "z"), (1, 2, 5), "MarkovTriple(x=1, y=2, z=5)"),
    (
        PairOrbit,
        ("classes", "x", "h"),
        ({0: O}, (0, 1), 3),
        f"PairOrbit(classes={{0: {O_TEXT}}}, x=(0, 1), h=3)",
    ),
    (
        SlopeVector,
        ("rank", "numerators"),
        (2, (Fraction(1), Fraction(-1, 2))),
        "SlopeVector(rank=2, numerators=(Fraction(1, 1), Fraction(-1, 2)))",
    ),
    (GradedObject, ("quotients",), (((O, 2),),), f"GradedObject(quotients=(({O_TEXT}, 2),))"),
]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_type(cls, names, values, text):
    x = cls(*values)
    assert cls._fields == names
    assert tuple(getattr(x, n) for n in names) == values
    assert repr(x) == text
    assert cls(**dict(zip(names, values))) == x
    try:
        expected_hash = hash(values)
    except TypeError:  # a dict field: the value is unhashable, as its fields are
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected_hash
    assert x.__eq__(values) is NotImplemented and x != values
    with pytest.raises(AttributeError):
        setattr(x, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    with pytest.raises(AttributeError):
        x.extra = 1
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


# The field each of these constructors turns into a tuple.
TUPLED = {
    Surface: "effective_simple_roots",
    Collection: "members",
    BraidWord: "letters",
    MutationLog: "steps",
    GradedObject: "quotients",
}


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_one_constructor_per_type(cls, names, values, text):
    """Only the two types whose builds are counted keep a __post_init__;
    every other constructor normalises, checks and sets in __init__."""
    assert ("__post_init__" in vars(cls)) == (cls in (KClass, DivisorClass))
    if cls in TUPLED:
        field = TUPLED[cls]
        x = cls(**{n: list(v) if n == field else v for n, v in zip(names, values)})
        assert type(getattr(x, field)) is tuple and x == cls(*values)
    if cls is SlopeVector:
        x = SlopeVector(2, [1, -1])
        assert x.numerators == (Fraction(1), Fraction(-1))
        assert {type(v) for v in x.numerators} == {Fraction}


def test_types_with_equal_fields_are_unequal():
    assert GramViolation(1, 2, 5) != MarkovTriple(1, 2, 5)
    assert len({GramViolation(1, 2, 5), MarkovTriple(1, 2, 5)}) == 2


def test_private_slots_stay_out_of_the_constructor():
    with pytest.raises(TypeError):
        KClass(1, D0, 0, _hc1=8)
    with pytest.raises(TypeError):
        Collection(P2, (O,), _certified=True)
    assert Collection(P2, (O,))._certified is False
