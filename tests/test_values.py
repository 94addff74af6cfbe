"""The frozen value types: each one's fields, repr, hash, equality,
immutability and construction, pinned as literal values."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest
from _helpers import ext_seed

import delpezzo
from delpezzo import (
    BraidWord,
    Collection,
    Direction,
    DivisorClass,
    GradedObject,
    InvalidInputError,
    KClass,
    LogStep,
    MarkovTriple,
    MutationLog,
    PairKind,
    PairOrbit,
    PairType,
    SlopeVector,
    Surface,
    basic_collection,
    canonical_divisor,
    curve_class,
    exceptional_divisor,
    helix_extend,
    line_divisor,
    markov_form,
    markov_step,
    markov_tree,
    mutate_collection,
    pair_orbit,
    peel_curve,
    rotate_twist,
    rotation_index,
    splitting_type,
    zero_divisor,
)
from delpezzo.mutation import GramViolation, HelixWitness, is_recorded_mutation
from delpezzo.pairs import restriction_degree, splitting_degrees
from delpezzo.pipeline import rotation_start

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
        (2, (DivisorClass((0, -1, 1)),)),
        "Surface(d=2, effective_simple_roots=(DivisorClass(coeffs=(0, -1, 1)),))",
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
        (2, (1, -1)),
        "SlopeVector(rank=2, numerators=(1, -1))",
    ),
    (GradedObject, ("quotients",), (((O, 2),),), f"GradedObject(quotients=(({O_TEXT}, 2),))"),
]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_type(cls, names, values, text):
    x = cls(*values)
    assert cls._fields == names
    assert tuple(getattr(x, n) for n in names) == values
    # Every slot is set, the private ones too: a constructor that leaves a
    # setter out raises AttributeError here.
    for name in cls.__slots__:
        getattr(x, name)
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
        assert x.numerators == (1, -1)
        assert {type(v) for v in x.numerators} == {int}


def test_types_with_equal_fields_are_unequal():
    assert GramViolation(1, 2, 5) != MarkovTriple(1, 2, 5)
    assert len({GramViolation(1, 2, 5), MarkovTriple(1, 2, 5)}) == 2


def test_private_slots_stay_out_of_the_constructor():
    with pytest.raises(TypeError):
        KClass(1, D0, 0, _hc1=8)
    with pytest.raises(TypeError):
        Collection(P2, (O,), _certified=True)
    assert Collection(P2, (O,))._certified is False


# Every public int parameter of the package, with valid sample arguments
# for the call that takes it.  A generator is drained, as markov_tree
# checks its limit when iteration starts.
S1 = Surface(1)
BASIC1 = basic_collection(S1)
AFTER1 = mutate_collection(BASIC1, 1, Direction.LEFT)
S8, E0, E1 = ext_seed(3)
INT_CALLS = {
    "chern.KClass.__init__": (KClass, {"r": 1, "c1": D0, "two_ch2": 0}),
    "chern.curve_class": (curve_class, {"S": S1, "e_index": 1, "deg": -1}),
    "markov.MarkovTriple.__init__": (MarkovTriple, {"x": 1, "y": 2, "z": 5}),
    "markov.markov_step": (markov_step, {"t": MarkovTriple(1, 2, 5), "position": 1}),
    "markov.markov_tree": (lambda limit: list(markov_tree(limit)), {"limit": 5}),
    "markov.markov_form": (markov_form, {"p": 1, "q": 1, "h": 3}),
    "markov.pair_orbit": (pair_orbit, {"S": S8, "E0": E0, "E1": E1, "n": 1}),
    "mutation.mutate_collection": (
        mutate_collection,
        {"c": BASIC1, "i": 1, "direction": Direction.LEFT},
    ),
    "mutation.is_recorded_mutation": (
        is_recorded_mutation,
        {"before": BASIC1, "i": 1, "direction": Direction.LEFT, "after": AFTER1},
    ),
    "mutation.helix_extend": (helix_extend, {"foundation": BASIC1, "lo": -1, "hi": 5}),
    "mutation.rotate_twist": (rotate_twist, {"c": BASIC1, "j": 2}),
    "pairs.splitting_type": (splitting_type, {"r": 2, "deg": 3}),
    "pairs.splitting_degrees": (splitting_degrees, {"r": 2, "deg": 3}),
    "pairs.restriction_degree": (
        restriction_degree,
        {"S": S1, "E": BASIC1.members[1], "e_index": 1},
    ),
    "pairs.rotation_index": (
        rotation_index,
        {"S": S1, "classes": list(BASIC1.members[1:]), "e_index": 1},
    ),
    "picard.zero_divisor": (zero_divisor, {"d": 1}),
    "picard.line_divisor": (line_divisor, {"d": 1}),
    "picard.exceptional_divisor": (exceptional_divisor, {"d": 1, "i": 1}),
    "picard.canonical_divisor": (canonical_divisor, {"d": 1}),
    "picard.Surface.__init__": (Surface, {"d": 1}),
    "pipeline.peel_curve": (peel_curve, {"c": BASIC1, "mults": [1, 1, 1, 1], "e_index": 1}),
    "pipeline.rotation_start": (rotation_start, {"c": BASIC1, "group_index": 1}),
    "stability.SlopeVector.__init__": (SlopeVector, {"rank": 2, "numerators": (1, -1)}),
    "stability.SlopeVector.scaled": (SlopeVector(2, (1, -1)).scaled, {"m": 2}),
}
# Result records: the package builds them from integers it computed, and a
# caller reads them, so they check nothing.
RECORDS = {"mutation.GramViolation", "mutation.HelixWitness", "markov.PairOrbit"}


def public_int_parameters():
    """(callable name, parameter) for every parameter annotated int of a
    public function, constructor or method of the package."""
    found = []
    for info in pkgutil.iter_modules(delpezzo.__path__):
        module = importlib.import_module(f"delpezzo.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                targets = [(f"{info.name}.{name}", obj)]
            elif inspect.isclass(obj) and f"{info.name}.{name}" not in RECORDS:
                targets = [
                    (f"{info.name}.{name}.{attr}", getattr(obj, attr))
                    for attr in vars(obj)
                    if attr == "__init__" or not attr.startswith("_")
                ]
            else:
                continue
            for qualname, f in targets:
                if not inspect.isfunction(f):
                    continue
                for p in inspect.signature(f).parameters.values():
                    if p.annotation in (int, "int"):
                        found.append((qualname, p.name))
    return found


def test_every_public_int_parameter_is_in_the_table():
    assert {name for name, _ in public_int_parameters()} == set(INT_CALLS)


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("name, parameter", public_int_parameters())
def test_an_int_parameter_refuses_a_bool_and_a_float(name, parameter, bad):
    call, kwargs = INT_CALLS[name]
    call(**kwargs)
    with pytest.raises(InvalidInputError):
        call(**{**kwargs, parameter: bad})
