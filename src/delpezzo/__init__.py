"""Exact numerical theory of exceptional collections on blow-ups of the
projective plane: intersection lattice, Euler pairing, slope stability,
pair classification, mutations and helices, Markov triples, and the
blow-down pipeline.  All arithmetic is exact; no floats anywhere."""

from .chern import (
    KClass,
    compare_mu,
    curve_class,
    default_ample,
    descend_class,
    euler_form,
    euler_pairing,
    line_class,
    slope_mu,
    structure_class,
    twist,
)
from .errors import (
    DomainError,
    ExcludedPairError,
    InvalidInputError,
    InvariantViolationError,
    PipelineError,
)
from .logs import LogStep, MutationLog, replay
from .markov import (
    MarkovTriple,
    PairOrbit,
    markov_form,
    markov_step,
    markov_tree,
    pair_orbit,
)
from .mutation import (
    BraidWord,
    Collection,
    Direction,
    apply_braid,
    basic_collection,
    check_helix_period,
    global_twist,
    gram_matrix,
    helix_extend,
    is_numerically_exceptional,
    mutate_collection,
    mutate_pair,
    rotate_twist,
)
from .pairs import (
    PairKind,
    PairType,
    classify_pair,
    rotation_index,
    splitting_type,
)
from .picard import (
    DivisorClass,
    Surface,
    blow_down_surface,
    canonical_divisor,
    enumerate_roots,
    exceptional_divisor,
    intersect,
    line_divisor,
    zero_divisor,
)
from .pipeline import normalize_and_descend, order_hom, peel_curve, reduce_spread
from .stability import GradedObject, SlopeVector, compare_slope, hn_coarsen, vector_slope

__version__ = "0.1.0"
