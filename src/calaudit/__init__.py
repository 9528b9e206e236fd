"""Discrimination and calibration auditing for binary classifiers across sub-groups.

The package evaluates per-sample probability scores: ranking metrics, bin-based
calibration errors with explicit estimator conventions, Platt recalibration and
proper-scoring-rule decomposition, plus an experiment harness that exposes the
sample-size bias of the bin-based estimators.
"""

from ._version import __version__
from .calibration import (
    Binning,
    DEFAULT_CLIP_EPSILON,
    DEFAULT_N_BINS,
    EQUAL_COUNT,
    EQUAL_WIDTH,
    ReliabilityPoint,
    ada_ece,
    bin_scores,
    brier,
    cross_entropy,
    ece,
    mce,
    reliability_curve,
    write_reliability_csv,
)
from .dataset import (
    DegenerateSampleError,
    ScoreSet,
    ScoreSetFormatError,
    UNKNOWN_GROUP,
    load_scoreset,
    match_group_size,
    subsample,
    subsample_indices,
    write_scoreset_csv,
)
from .discrimination import (
    balanced_accuracy,
    pr_auc,
    pr_auc_gain,
    roc_auc,
)
from .harness import (
    ALL_METRICS,
    AuditConfig,
    AuditReport,
    AuditRun,
    CALIBRATION_METRICS,
    DEFAULT_RATIOS,
    DEFAULT_SEED,
    DELTA_METRICS,
    DISCRIMINATION_METRICS,
    SWEEP_METRICS,
    SweepResult,
    run_group_audit,
    run_sampling_sweep,
    run_size_matched_audit,
    run_synthetic_experiment,
    write_audit_json,
    write_audit_metric_csvs,
    write_sweep_csv,
)
from .platt import (
    DecompositionResult,
    PlattParams,
    apply_platt,
    decompose_psr,
    fit_platt,
    sigmoid,
    to_llr,
)
from .stats import (
    BoxplotSummary,
    EXACT_ENUMERATION_CUTOFF,
    InsufficientPairsError,
    PairedTestResult,
    midranks,
    summarize,
    wilcoxon_signed_rank,
)
from .synthetic import (
    SyntheticPopulation,
    SyntheticScenario,
    apply_miscalibration,
    generate_population,
    inverse_beta_cdf,
    regularized_incomplete_beta,
    write_population_csv,
)

__all__ = [
    "__version__",
    # dataset
    "ScoreSet",
    "ScoreSetFormatError",
    "DegenerateSampleError",
    "UNKNOWN_GROUP",
    "load_scoreset",
    "write_scoreset_csv",
    "subsample",
    "subsample_indices",
    "match_group_size",
    # discrimination
    "roc_auc",
    "pr_auc",
    "pr_auc_gain",
    "balanced_accuracy",
    # calibration
    "Binning",
    "ReliabilityPoint",
    "EQUAL_WIDTH",
    "EQUAL_COUNT",
    "DEFAULT_N_BINS",
    "DEFAULT_CLIP_EPSILON",
    "bin_scores",
    "ece",
    "mce",
    "ada_ece",
    "cross_entropy",
    "brier",
    "reliability_curve",
    "write_reliability_csv",
    # platt
    "PlattParams",
    "DecompositionResult",
    "sigmoid",
    "to_llr",
    "fit_platt",
    "apply_platt",
    "decompose_psr",
    # synthetic
    "SyntheticScenario",
    "SyntheticPopulation",
    "regularized_incomplete_beta",
    "inverse_beta_cdf",
    "generate_population",
    "apply_miscalibration",
    "write_population_csv",
    # stats
    "PairedTestResult",
    "BoxplotSummary",
    "EXACT_ENUMERATION_CUTOFF",
    "InsufficientPairsError",
    "midranks",
    "wilcoxon_signed_rank",
    "summarize",
    # harness
    "AuditConfig",
    "AuditRun",
    "AuditReport",
    "SweepResult",
    "ALL_METRICS",
    "DISCRIMINATION_METRICS",
    "CALIBRATION_METRICS",
    "DELTA_METRICS",
    "SWEEP_METRICS",
    "DEFAULT_SEED",
    "DEFAULT_RATIOS",
    "run_group_audit",
    "run_size_matched_audit",
    "run_sampling_sweep",
    "run_synthetic_experiment",
    "write_sweep_csv",
    "write_audit_json",
    "write_audit_metric_csvs",
]
