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
    CriterionResult,
    GeneratorPair,
    build_pair,
    doubling_bvector,
    g2_pair,
    lower_pair,
    prop2_criterion,
    shift_pair,
)
from .closure import (
    ClosureResult,
    TypeLabel,
    classify,
    predicted_type,
    subalgebra_closure,
)
from .groups import (
    ScanReport,
    ThinPair,
    Word,
    exp_corner,
    exp_lower,
    exp_upper,
    form_matrix,
    freeness_scan,
    thin_pair,
)
from .pingpong import (
    Certificate,
    PingPongBound,
    certify_free_dense,
    compute_r0,
    compute_t0,
    r_inequalities,
    s0,
    second_bound,
    t_inequality,
)
