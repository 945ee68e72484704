"""Desk-scale sparse domination toolkit: exact dyadic geometry, step
functions, sparse and amalgam operators, truncated singular integrals,
and weighted-norm experiments."""

from .rational import parse_scalar, pow2, rat, rat_str
from .geometry import (
    Box,
    Cube,
    GridId,
    concentric,
    cover_cube,
    cube_at,
    dilate,
    whitney_decompose,
)
from .stepfn import (
    Mesh,
    StepFunction,
    average,
    dyadic_maximal,
    hl_maximal,
    local_mean_oscillation,
    median,
    rearrangement,
    sharp_maximal,
)
from .sparse import (
    DecompositionResult,
    GoodBadSplit,
    ShiftedFamily,
    SparseFamily,
    amalgam,
    amalgam_adjoint,
    cz_good_bad_split,
    cz_pointwise_gap,
    cz_sparse,
    oscillation_decompose,
    scale_family_count,
    shifted_operator,
    sparse_operator,
    split_families,
    verify_decomposition,
    verify_sparse_family,
    weak_norm,
)
from .czo import (
    HILBERT,
    DominationReport,
    Kernel,
    OscillationReport,
    TruncatedTransform,
    dominate,
    hilbert_apply,
    kernel_validation_report,
    maximal_truncated,
    oscillation_estimate_report,
)
from .weights import (
    A2Report,
    CellOperator,
    NormEstimate,
    ScanTable,
    Weight,
    a2_constant,
    a2_scan,
    amalgam_pair_operator,
    hilbert_full_operator,
    operator_norm_weighted,
    sparse_family_operator,
    tower_family,
    weighted_norm,
)
from .harness import (
    CRITERION_IDS,
    ExperimentConfig,
    Verdict,
    default_config,
    generate_function,
    run_all,
    run_criterion,
)

__version__ = "0.1.0"

__all__ = [
    "parse_scalar", "pow2", "rat", "rat_str",
    "Box", "Cube", "GridId", "concentric", "cover_cube", "cube_at",
    "dilate", "whitney_decompose",
    "Mesh", "StepFunction", "average", "dyadic_maximal", "hl_maximal",
    "local_mean_oscillation", "median", "rearrangement", "sharp_maximal",
    "DecompositionResult", "GoodBadSplit", "ShiftedFamily", "SparseFamily",
    "amalgam", "amalgam_adjoint", "cz_good_bad_split", "cz_pointwise_gap",
    "cz_sparse", "oscillation_decompose", "scale_family_count",
    "shifted_operator", "sparse_operator", "split_families",
    "verify_decomposition", "verify_sparse_family", "weak_norm",
    "HILBERT", "DominationReport", "Kernel", "OscillationReport",
    "TruncatedTransform", "dominate", "hilbert_apply",
    "kernel_validation_report", "maximal_truncated",
    "oscillation_estimate_report",
    "A2Report", "CellOperator", "NormEstimate", "ScanTable", "Weight",
    "a2_constant", "a2_scan", "amalgam_pair_operator",
    "hilbert_full_operator", "operator_norm_weighted",
    "sparse_family_operator", "tower_family", "weighted_norm",
    "CRITERION_IDS", "ExperimentConfig", "Verdict", "default_config",
    "generate_function", "run_all", "run_criterion",
    "__version__",
]
