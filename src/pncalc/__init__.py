"""Computational calculus for probabilistic normed spaces.

Submodules: ``distfn`` (distribution-function algebra), ``tnorms``
(t-norms and conorms), ``triangle`` (sup/inf convolutions and the maximal
triangle function), ``pnspace`` (built-in spaces and axiom probes),
``topology`` (strong-topology probes), ``boundedness`` (radius,
classification, compactness decision), ``cli`` (scenario runner).
"""

from .distfn import (
    DEFAULT_GRID,
    EPS0,
    EPS_INF,
    Comparison,
    DistFn,
    Grid,
    GridSpec,
    Plateau,
    Ratio,
    Step,
    compare_leq,
    distfn_equal,
    eps,
    from_spec,
    levy_dist,
    make_step,
    max_tf,
    pointwise_min,
)
from .tnorms import TNORMS, TConorm, TNorm, conorm_eval, get_tnorm, law_suite, tnorm_eval
from .triangle import TriangleFn, inf_conv, parse_triangle, sup_conv, tf_law_suite
from .pnspace import (
    PNSpace,
    SampleSpec,
    axiom_suite,
    default_samples,
    lg_probe,
    make_space,
    parse_space,
    scalar_monotonicity_check,
    serstnev_check,
    small_scalar_delta_probe,
    strong_tvs_probe,
)
from .topology import (
    SequenceSpec,
    cauchy_probe,
    completeness_probe,
    convergence_probe,
    equivalence_probe,
    find_comparison_constant,
    neighborhood_contains,
    parse_sequence,
)
from .boundedness import (
    SetSpec,
    all_reals,
    classify_set,
    compactness_probe,
    convergent_set_bound,
    dbounded_witness,
    finite_set,
    interval_rationals,
    prob_radius,
    sequence_image,
)

__version__ = "0.1.0"
