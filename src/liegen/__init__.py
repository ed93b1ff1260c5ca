"""Exact 2-generator pairs of simple Lie algebras and free dense subgroup certificates."""

__version__ = "0.1.0"

from .exact import (
    DEFAULT_WIDTH,
    Matrix,
    Polynomial,
    RootBracket,
    SpanBasis,
    bracket,
    isolate_largest_positive_root,
)
from .generators import (
    CanonicalGenerators,
    CriterionResult,
    GeneratorPair,
    build_pair,
    diagram_automorphism,
    doubling_bvector,
    g2_canonical,
    g2_pair,
    lower_pair,
    prop1_criterion,
    prop2_criterion,
    shift_pair,
)
from .closure import (
    ClosureResult,
    TypeLabel,
    c_shift,
    classify,
    closed_form_bracket,
    iterated_bracket,
    predicted_type,
    subalgebra_closure,
)
from .groups import (
    FormMatrix,
    ScanReport,
    ThinPair,
    Word,
    check_form,
    exp_corner,
    exp_lower,
    exp_nilpotent,
    exp_upper,
    form_matrix,
    freeness_scan,
    thin_pair,
    word_eval,
)
from .pingpong import (
    Certificate,
    PingPongBound,
    Region,
    certify_free_dense,
    compute_r0,
    compute_t0,
    in_region,
    pingpong_spotcheck,
    r_inequalities,
    s0,
    second_bound,
    t_inequality,
)
