"""Near-neighbor search in lp spaces, p > 2, with fast queries and
polynomial space.

The index composes scaled signed-power (Mazur) reductions through sparse
neighborhood covers: one global collection of clusters per refinement level
replaces per-point substructures, which keeps total space polynomial while
a double recursion (refinement ladder per norm level, norm halving across
levels) drives the approximation down to roughly (16 beta)^(log2 p).
"""

from ._kernels import BACKEND
from .base_schemes import (
    build_coarse_ann,
    build_l2_ann,
    coarse_approximation,
    query_coarse_ann,
    query_l2_ann,
)
from .container import load_index, save_index
from .cover import (
    Cluster,
    CoverCheck,
    SparseCover,
    build_sparse_cover,
    cover_lookup,
    verify_cover,
)
from .errors import NumericRangeError, UsageError
from .geometry import (
    Dataset,
    MazurMapSpec,
    lp_distance,
    mazur_map_apply,
    mazur_map_points,
    mazur_scale_factor,
    subset_diameter,
)
from .oracle import (
    TrialReport,
    TrialSpec,
    exact_nn,
    fit_scaling,
    make_planted_instance,
    run_trials,
)
from .recursive import (
    ApproxBound,
    LpScheme,
    NNSIndex,
    QueryAnswer,
    SchemeConfig,
    SpaceReport,
    approximation_bound,
    literal_closed_form,
    normalize_exponent,
    preprocess,
    query,
    refine_approx,
    space_usage,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ApproxBound",
    "Cluster",
    "CoverCheck",
    "Dataset",
    "LpScheme",
    "MazurMapSpec",
    "NNSIndex",
    "NumericRangeError",
    "QueryAnswer",
    "SchemeConfig",
    "SpaceReport",
    "SparseCover",
    "TrialReport",
    "TrialSpec",
    "UsageError",
    "approximation_bound",
    "build_coarse_ann",
    "build_l2_ann",
    "build_sparse_cover",
    "coarse_approximation",
    "cover_lookup",
    "exact_nn",
    "fit_scaling",
    "literal_closed_form",
    "load_index",
    "lp_distance",
    "make_planted_instance",
    "mazur_map_apply",
    "mazur_map_points",
    "mazur_scale_factor",
    "normalize_exponent",
    "preprocess",
    "query",
    "query_coarse_ann",
    "query_l2_ann",
    "refine_approx",
    "run_trials",
    "save_index",
    "space_usage",
    "subset_diameter",
    "verify_cover",
]
