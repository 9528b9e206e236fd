"""Discrimination and calibration auditing for binary classifiers across sub-groups.

The package evaluates per-sample probability scores: ranking metrics, bin-based
calibration errors with explicit estimator conventions, Platt recalibration and
proper-scoring-rule decomposition, plus an experiment harness that exposes the
sample-size bias of the bin-based estimators.

The package namespace holds the names the README's library tour documents;
everything else stays importable from its own module.
"""

from ._version import __version__
from .calibration import (
    Binning,
    EQUAL_COUNT,
    EQUAL_WIDTH,
    ada_ece,
    bin_scores,
    brier,
    cross_entropy,
    ece,
    mce,
)
from .dataset import (
    DegenerateSampleError,
    ScoreSet,
    ScoreSetFormatError,
    load_scoreset,
    subsample_indices,
    write_scoreset_csv,
)
from .discrimination import balanced_accuracy, pr_auc, pr_auc_gain, roc_auc
from .harness import (
    AuditConfig,
    AuditRun,
    evaluate_scoreset,
    run_group_audit,
    run_sampling_sweep,
    run_size_matched_audit,
    run_synthetic_experiment,
    write_audit_json,
    write_audit_metric_csvs,
    write_sweep_csv,
)
from .platt import apply_platt, decompose_psr, fit_platt, to_llr
from .stats import InsufficientPairsError, summarize, wilcoxon_signed_rank
from .synthetic import (
    SyntheticScenario,
    apply_miscalibration,
    generate_population,
    write_population_csv,
)

__all__ = [
    "__version__",
    # dataset
    "ScoreSet",
    "ScoreSetFormatError",
    "DegenerateSampleError",
    "load_scoreset",
    "write_scoreset_csv",
    "subsample_indices",
    # discrimination
    "roc_auc",
    "pr_auc",
    "pr_auc_gain",
    "balanced_accuracy",
    # calibration
    "Binning",
    "EQUAL_WIDTH",
    "EQUAL_COUNT",
    "bin_scores",
    "ece",
    "mce",
    "ada_ece",
    "cross_entropy",
    "brier",
    # platt
    "to_llr",
    "fit_platt",
    "apply_platt",
    "decompose_psr",
    # synthetic
    "SyntheticScenario",
    "generate_population",
    "apply_miscalibration",
    "write_population_csv",
    # stats
    "InsufficientPairsError",
    "wilcoxon_signed_rank",
    "summarize",
    # harness
    "AuditConfig",
    "AuditRun",
    "evaluate_scoreset",
    "run_group_audit",
    "run_size_matched_audit",
    "run_sampling_sweep",
    "run_synthetic_experiment",
    "write_sweep_csv",
    "write_audit_json",
    "write_audit_metric_csvs",
]
