import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from calaudit import (
    EQUAL_WIDTH,
    AuditConfig,
    AuditRun,
    DegenerateSampleError,
    ScoreSet,
    SyntheticScenario,
    ada_ece,
    apply_miscalibration,
    apply_platt,
    balanced_accuracy,
    bin_scores,
    brier,
    cross_entropy,
    decompose_psr,
    ece,
    fit_platt,
    generate_population,
    mce,
    pr_auc,
    pr_auc_gain,
    roc_auc,
    run_group_audit,
    run_sampling_sweep,
    run_size_matched_audit,
    run_synthetic_experiment,
    subsample_indices,
    to_llr,
    write_audit_json,
    write_sweep_csv,
)
from calaudit import calibration, discrimination, harness
from calaudit.stats import InsufficientPairsError
from calaudit.calibration import _equal_count_bins
from calaudit.harness import (
    ALL_METRICS,
    DISCRIMINATION_METRICS,
    SWEEP_METRICS,
    _Records,
    _metric_values,
)
from calaudit.platt import sigmoid

import oracles
from helpers import calibrated_scoreset, counted, match_indices, record_bits


def _two_group_runs(
    master_seed,
    n_runs=10,
    n_validation=1500,
    group_sizes=(800, 800),
    tags=("g_big", "g_small"),
):
    """Runs drawn from one calibrated population with tagged test groups."""
    population = generate_population(100_000, [master_seed, 0])
    scored = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
    n_test = sum(group_sizes)
    runs = []
    for r in range(n_runs):
        rng = np.random.default_rng([master_seed, 1, r])
        perm = rng.permutation(scored.n)
        validation = scored.take(np.sort(perm[:n_validation]))
        test_idx = np.sort(perm[n_validation : n_validation + n_test])
        groups = np.array([tags[0]] * group_sizes[0] + [tags[1]] * group_sizes[1])
        rng.shuffle(groups)
        test = ScoreSet(
            scores=scored.scores[test_idx],
            labels=scored.labels[test_idx],
            groups=groups,
        )
        runs.append(AuditRun(run_index=r, validation=validation, test=test))
    return runs


class TestAuditConfig:
    def test_defaults_are_valid(self):
        cfg = AuditConfig()
        assert cfg.n_bins == 15
        assert cfg.ratios[0] == 0.1 and cfg.ratios[-1] == 1.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            AuditConfig(metrics=("ece", "f1"))

    def test_unsorted_ratios_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            AuditConfig(ratios=(0.5, 0.1))

    def test_ratio_bounds(self):
        with pytest.raises(ValueError, match="ratios"):
            AuditConfig(ratios=(0.0, 0.5))

    def test_group_tags_must_pair(self):
        with pytest.raises(ValueError, match="both majority and minority"):
            AuditConfig(majority="a")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.1, 1.5])
    def test_threshold_must_be_finite_in_unit_interval(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            AuditConfig(threshold=threshold)

    def test_unknown_quantile_rule_rejected(self):
        with pytest.raises(ValueError, match="quantile_rule"):
            AuditConfig(quantile_rule="bogus")

    def test_majority_must_differ_from_minority(self):
        with pytest.raises(ValueError, match="majority and minority.*'a'"):
            AuditConfig(majority="a", minority="a")

    @pytest.mark.parametrize(
        "ratios", [(0.1, 0.5, 0.5), (0.5, 0.5), (0.1, 0.1000001, 1.0)]
    )
    def test_ratios_must_be_distinct_as_printed(self, ratios):
        with pytest.raises(ValueError, match="distinct"):
            AuditConfig(ratios=ratios)

    def test_one_ratio_rejected(self):
        with pytest.raises(ValueError, match=r"^a sweep needs at least two ratios, got \[0.5\]$"):
            AuditConfig(ratios=(0.5,))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"population_size": 4, "validation_fraction": 0.1},
             "population_size 4 gives an empty validation split: "
             "validation_fraction 0.1 of it rounds to 0 records"),
            ({"population_size": 2},
             "population_size 2 gives an empty validation split: "
             "validation_fraction 0.2 of it rounds to 0 records"),
            ({"population_size": 10, "test_fraction": 0.01},
             "population_size 10 gives an empty test split: "
             "test_fraction 0.01 of it rounds to 0 records"),
        ],
    )
    def test_empty_synthetic_split_rejected(self, fields, message):
        with pytest.raises(ValueError) as excinfo:
            AuditConfig(**fields)
        assert str(excinfo.value) == message

    def test_repeated_metric_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            AuditConfig(metrics=("ece", "mce", "ece"))

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            AuditConfig(seed=seed)

    def test_numpy_integer_seed_stored_as_python_int(self):
        assert type(AuditConfig(seed=np.int64(3)).seed) is int

    @pytest.mark.parametrize("n_bins", [2.5, True, "15"])
    def test_n_bins_must_be_an_integer(self, n_bins):
        with pytest.raises(ValueError, match="n_bins"):
            AuditConfig(n_bins=n_bins)

    @pytest.mark.parametrize("retries", [1.5, True])
    def test_max_subsample_retries_must_be_an_integer(self, retries):
        with pytest.raises(ValueError, match="max_subsample_retries"):
            AuditConfig(max_subsample_retries=retries)

    @pytest.mark.parametrize("size", [2000.0, False, 1, 0])
    def test_population_size_must_be_an_integer_of_at_least_two(self, size):
        with pytest.raises(ValueError, match="population_size"):
            AuditConfig(population_size=size)

    def test_numpy_floats_stored_as_python_floats(self, tmp_path):
        values = {
            "threshold": np.float32(0.3),
            "clip_epsilon": np.float32(1e-5),
            "validation_fraction": np.float32(0.25),
            "test_fraction": np.float32(0.5),
        }
        cfg = AuditConfig(metrics=("ece", "balanced_accuracy"), **values)
        for name, value in values.items():
            assert type(getattr(cfg, name)) is float
            assert getattr(cfg, name) == float(value)
        runs = _two_group_runs(102, n_runs=3, n_validation=300, group_sizes=(200, 100))
        out = tmp_path / "report.json"
        write_audit_json(run_group_audit(runs, cfg), str(out))
        assert json.loads(out.read_text())["provenance"]["config"]["threshold"] == cfg.threshold

    @pytest.mark.parametrize(
        "name", ["threshold", "clip_epsilon", "validation_fraction", "test_fraction"]
    )
    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.3", None, 0.3j])
    def test_real_settings_refuse_bools_and_non_reals(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number, got"):
            AuditConfig(**{name: value})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"threshold": np.float32(1.5)}, r"threshold must be a finite number in \[0, 1\]"),
            ({"clip_epsilon": np.float32(0.5)}, r"clip_epsilon must lie in \(0, 0.5\)"),
            (
                {"validation_fraction": np.float32(0.9), "test_fraction": np.float32(0.2)},
                "validation/test fractions must be positive and sum to <= 1",
            ),
        ],
    )
    def test_numpy_floats_checked_with_the_same_messages(self, fields, message):
        with pytest.raises(ValueError, match=message):
            AuditConfig(**fields)

    def test_clip_epsilon_that_cannot_clamp_refused(self):
        # 1 - 2**-54 rounds to 1, so the clamp would leave a score of 1.0 at 1
        # and its LLR infinite; 1 - 2**-53 is exact
        assert 1.0 - 2.0**-54 == 1.0 and 1.0 - 2.0**-53 < 1.0
        for eps in (2.0**-54, 1e-300, 5e-324):
            with pytest.raises(ValueError) as excinfo:
                AuditConfig(clip_epsilon=eps)
            assert str(excinfo.value) == (
                f"clip_epsilon {eps!r} cannot keep scores off 1: "
                "1 - clip_epsilon rounds to 1 (it must exceed 2**-54)"
            )
        cfg = AuditConfig(clip_epsilon=2.0**-53)
        assert cfg.clip_epsilon == 2.0**-53
        assert np.isfinite(to_llr(np.array([0.0, 1.0]), cfg.clip_epsilon)).all()


class TestAuditRun:
    @pytest.mark.parametrize("run_index", [1.5, 1.0, True, -1, "1"])
    def test_run_index_must_be_non_negative_integer(self, run_index):
        s = calibrated_scoreset(50, seed=0)
        with pytest.raises(ValueError, match="run_index"):
            AuditRun(run_index, s, s)

    def test_numpy_run_index_stored_as_python_int(self):
        s = calibrated_scoreset(50, seed=0)
        assert type(AuditRun(np.int64(2), s, s).run_index) is int

    @pytest.mark.parametrize(
        "evaluate", [run_group_audit, run_size_matched_audit, run_sampling_sweep]
    )
    def test_repeated_run_index_rejected(self, evaluate):
        runs = [AuditRun(0, r.validation, r.test) for r in _two_group_runs(107, n_runs=2)]
        cfg = AuditConfig(metrics=("ece",), ratios=(0.5, 1.0), seed=1)
        with pytest.raises(ValueError, match="duplicate run_index 0"):
            evaluate(runs, cfg)


class TestGroupAudit:
    def test_paired_series_and_one_test_per_metric(self):
        runs = _two_group_runs(100, n_runs=25)
        cfg = AuditConfig(metrics=("ece", "brier"), seed=7)
        report = run_group_audit(runs, cfg)
        assert report.kind == "group"
        assert report.runs == tuple(range(25))
        for metric in ("ece", "brier"):
            per_series = report.series[metric]
            assert set(per_series) == {"g_big", "g_small"}
            assert all(len(v) == 25 for v in per_series.values())
            assert set(report.tests[metric]) == {"majority_vs_minority"}
        assert report.provenance["groups"] == {
            "majority": "g_big",
            "minority": "g_small",
        }

    def test_identical_groups_record_insufficient_pairs(self):
        runs = _two_group_runs(101, n_runs=5)
        # make both groups literally the same records
        twin_runs = []
        for run in runs:
            half = run.test.take(np.arange(0, run.test.n // 2))
            doubled = ScoreSet(
                scores=np.concatenate([half.scores, half.scores]),
                labels=np.concatenate([half.labels, half.labels]),
                groups=np.array(["g_big"] * half.n + ["g_small"] * half.n),
            )
            twin_runs.append(
                AuditRun(run_index=run.run_index, validation=run.validation, test=doubled)
            )
        report = run_group_audit(twin_runs, AuditConfig(metrics=("ece",), seed=1))
        assert report.tests["ece"]["majority_vs_minority"] is None
        assert any("insufficient pairs" in note for note in report.provenance["notes"])

    def test_null_calibrated_groups_rarely_significant(self):
        # equal-size groups from one calibrated population: per metric, the
        # paired test stays above 0.05 in at least 90% of repeated audits
        metrics = ("auc_roc", "ece", "ada_ece", "brier", "delta_ce")
        hits = {m: 0 for m in metrics}
        n_executions = 12
        for execution in range(n_executions):
            runs = _two_group_runs(200 + execution, n_runs=15)
            report = run_group_audit(runs, AuditConfig(metrics=metrics, seed=3))
            for m in metrics:
                test = report.tests[m]["majority_vs_minority"]
                hits[m] += test is not None and test.p_value < 0.05
        for m in metrics:
            assert hits[m] <= math.floor(0.1 * n_executions), (m, hits[m])

    def test_absent_group_recorded_and_skipped(self):
        runs = _two_group_runs(102, n_runs=6)
        # drop the minority from one run's test set
        broken = runs[2]
        keep = np.flatnonzero(broken.test.groups == "g_big")
        runs[2] = AuditRun(
            run_index=broken.run_index,
            validation=broken.validation,
            test=broken.test.take(keep),
        )
        cfg = AuditConfig(metrics=("ece",), majority="g_big", minority="g_small", seed=5)
        report = run_group_audit(runs, cfg)
        assert math.isnan(report.series["ece"]["g_small"][2])
        assert report.tests["ece"]["majority_vs_minority"].n_effective <= 5
        assert any("absent" in note for note in report.provenance["notes"])

    def test_no_groups_fails(self):
        s = calibrated_scoreset(100, seed=0)
        runs = [AuditRun(run_index=0, validation=s, test=s)]
        with pytest.raises(ValueError, match="two groups"):
            run_group_audit(runs, AuditConfig(metrics=("ece",)))

    @pytest.mark.parametrize(
        "tags, audited, skipped",
        [
            ({}, {"A", "B"}, ["group 'C' (80 test records) not audited"]),
            (
                {"majority": "A", "minority": "C"},
                {"A", "C"},
                ["group 'B' (120 test records) not audited"],
            ),
        ],
    )
    @pytest.mark.parametrize("audit", [run_group_audit, run_size_matched_audit])
    def test_every_tag_left_out_is_noted(self, tags, audited, skipped, audit):
        runs = []
        for r in range(5):
            test = calibrated_scoreset(300, seed=40 + r)
            groups = np.array(["A"] * 200 + ["B"] * 24 + ["C"] * 16 + ["unknown"] * 60)
            test = ScoreSet(test.scores, test.labels, groups=groups)
            runs.append(AuditRun(r, calibrated_scoreset(300, seed=r), test))
        report = audit(runs, AuditConfig(metrics=("brier",), **tags))
        assert set(report.provenance["groups"].values()) == audited
        # untagged records are never audited, and not noted
        notes = report.provenance["notes"]
        assert [n for n in notes if "not audited" in n] == skipped
        assert notes[0] == skipped[0]


class TestSizeMatchedAudit:
    def test_three_arms_and_size_effect_detection(self):
        runs = _two_group_runs(300, n_runs=25, group_sizes=(1000, 100))
        cfg = AuditConfig(metrics=("ece", "mce", "ada_ece"), seed=11)
        report = run_size_matched_audit(runs, cfg)
        assert report.kind == "size_matched"
        for metric in cfg.metrics:
            assert set(report.tests[metric]) == {"naive", "size_matched", "size_effect"}
            # majority vs its own size-matched subsample: pure sample-size effect
            assert report.tests[metric]["size_effect"].p_value < 0.05
            # fair comparison at equal sizes: no effect
            assert report.tests[metric]["size_matched"].p_value >= 0.05

    def test_equal_group_sizes_degenerate_size_effect(self):
        runs = _two_group_runs(301, n_runs=8, group_sizes=(400, 400))
        report = run_size_matched_audit(runs, AuditConfig(metrics=("brier",), seed=2))
        # matched majority is the whole majority, so the differences vanish
        assert report.tests["brier"]["size_effect"] is None
        assert any("insufficient pairs" in n for n in report.provenance["notes"])

    def test_match_seeds_recorded_for_replay(self):
        runs = _two_group_runs(302, n_runs=4, group_sizes=(600, 60))
        cfg = AuditConfig(metrics=("ece",), seed=17)
        report = run_size_matched_audit(runs, cfg)
        entries = {e["run"]: e["seed"] for e in report.provenance["match_seeds"]}
        assert set(entries) == {0, 1, 2, 3}
        # replaying the recorded seed reproduces the matched subset's metric
        run = runs[1]
        idx = match_indices(run.test, "g_big", "g_small", entries[1])
        subset = run.test.take(idx)
        expected = ece(subset.scores, subset.labels, bin_scores(subset.scores, n_bins=cfg.n_bins))
        assert report.series["ece"]["majority_matched"][1] == pytest.approx(
            expected, abs=1e-15
        )

    def test_matched_arm_uses_equal_counts(self):
        runs = _two_group_runs(303, n_runs=3, group_sizes=(500, 50))
        report = run_size_matched_audit(runs, AuditConfig(metrics=("ece",), seed=4))
        for entry in report.provenance["match_seeds"]:
            run = runs[entry["run"]]
            matched = match_indices(run.test, "g_big", "g_small", entry["seed"])
            assert matched.size == (run.test.groups == "g_small").sum() == 50


    def test_group_audit_is_the_naive_arm(self):
        runs = _two_group_runs(305, n_runs=8, group_sizes=(500, 50))
        # in one more run the minority outnumbers the majority, so it cannot be matched
        swapped = _two_group_runs(306, n_runs=1, group_sizes=(30, 70))[0]
        runs.append(AuditRun(8, swapped.validation, swapped.test))
        cfg = AuditConfig(metrics=("ece", "auc_roc", "delta_brier"), seed=6)
        group = run_group_audit(runs, cfg)
        matched = run_size_matched_audit(runs, cfg)
        for metric in cfg.metrics:
            assert group.series[metric]["g_big"] == matched.series[metric]["majority"]
            assert group.series[metric]["g_small"] == matched.series[metric]["minority"]
            assert (
                group.tests[metric]["majority_vs_minority"]
                == matched.tests[metric]["naive"]
            )
            assert not math.isnan(matched.series[metric]["minority"][8])
            assert math.isnan(matched.series[metric]["majority_matched"][8])
        assert (
            "run 8: group 'g_small' is larger than 'g_big'; swap the arguments"
            in matched.provenance["notes"]
        )
        assert [s["run"] for s in matched.provenance["match_seeds"]] == list(range(8))


FIT_FAILURE = "fit_platt needs both label classes present"


def _runs_with_single_class_validation():
    """Six runs; run 3's validation set holds negatives only, so its Platt fit fails."""
    runs = _two_group_runs(104, n_runs=6, group_sizes=(400, 100))
    v = runs[3].validation
    runs[3] = AuditRun(
        run_index=3,
        validation=ScoreSet(scores=v.scores, labels=np.zeros(v.n, dtype=int)),
        test=runs[3].test,
    )
    return runs


def test_degenerate_cells_pin_their_notes():
    # run 0's minority holds only negatives, run 1's only positives
    rng = np.random.default_rng(9)
    runs = []
    for r, minority_label in enumerate((0, 1)):
        labels = np.concatenate((rng.integers(0, 2, 60), np.full(20, minority_label)))
        labels[:2] = (0, 1)
        test = ScoreSet(
            scores=np.round(rng.random(80), 2),
            labels=labels,
            groups=np.array(["big"] * 60 + ["small"] * 20),
        )
        runs.append(AuditRun(r, _VALIDATION, test))
    cfg = AuditConfig(
        metrics=DISCRIMINATION_METRICS, majority="big", minority="small", seed=3
    )
    report = run_size_matched_audit(runs, cfg)
    cells = [n for n in report.provenance["notes"] if n.startswith("run ")]
    assert cells == [
        "run 0 series minority auc_roc: roc_auc needs both label classes present",
        "run 0 series minority auc_pr: pr_auc needs at least one positive label",
        "run 0 series minority auc_prg: pr_auc needs at least one positive label",
        "run 0 series minority balanced_accuracy: "
        "balanced_accuracy needs both label classes present",
        "run 1 series minority auc_roc: roc_auc needs both label classes present",
        "run 1 series minority auc_prg: "
        "pr_auc_gain is undefined when every label is positive",
        "run 1 series minority balanced_accuracy: "
        "balanced_accuracy needs both label classes present",
    ]
    assert report.series["auc_pr"]["minority"][1] == 1.0
    for m in DISCRIMINATION_METRICS:
        assert math.isnan(report.series[m]["minority"][0])
        assert not math.isnan(report.series[m]["majority_matched"][0])


def _policy_runs():
    """Six small runs, one per way a cell goes missing: run 1's minority is
    absent, run 2's outnumbers its majority, run 3's Platt fit fails (a
    single-class validation set), run 4's does not converge (separable
    validation scores) and run 5's minority holds negatives only."""
    rng = np.random.default_rng(0)
    runs = []
    # (majority size, minority size, positives in each)
    shapes = [(40, 10, 4, 3), (50, 0, 7, 0), (15, 35, 2, 5),
              (40, 10, 4, 3), (40, 10, 4, 3), (40, 10, 7, 0)]
    for r, (n_big, n_small, pos_big, pos_small) in enumerate(shapes):
        labels = np.zeros(n_big + n_small, dtype=int)
        labels[rng.choice(n_big, pos_big, replace=False)] = 1
        labels[n_big + rng.choice(n_small, pos_small, replace=False)] = 1
        test = ScoreSet(
            scores=np.round(rng.random(n_big + n_small), 2),
            labels=labels,
            groups=np.array(["big"] * n_big + ["small"] * n_small),
        )
        v = calibrated_scoreset(200, seed=r)
        if r == 3:
            v = ScoreSet(scores=v.scores, labels=np.zeros(v.n, dtype=int))
        elif r == 4:
            v = ScoreSet(scores=np.where(v.labels == 1, 0.8, 0.2), labels=v.labels)
        runs.append(AuditRun(r, v, test))
    return runs


_AUDIT_NOTES = [
    "run 1: group 'small' has no records",
    "run 1: series minority absent from test set",
    "run 2: group 'small' is larger than 'big'; swap the arguments",
    "run 3: Platt fit failed: fit_platt needs both label classes present",
    "run 3 series majority delta_ce: delta metrics require Platt-transformed scores",
    "run 3 series minority delta_ce: delta metrics require Platt-transformed scores",
    "run 3 series majority_matched delta_ce: "
    "delta metrics require Platt-transformed scores",
    "run 4: Platt fit did not converge",
    "run 4 series majority delta_ce: delta metrics require Platt-transformed scores",
    "run 4 series minority delta_ce: delta metrics require Platt-transformed scores",
    "run 4 series majority_matched delta_ce: "
    "delta metrics require Platt-transformed scores",
    "run 5 series minority auc_roc: roc_auc needs both label classes present",
    "delta_ce size_matched: insufficient pairs: need >= 3 nonzero differences, got 2",
    "delta_ce size_effect: insufficient pairs: need >= 3 nonzero differences, got 2",
]
_SWEEP_NOTES = [
    "run 1 ratio 0.1: degenerate subsample after 1 attempts; recorded missing",
    "run 1 ratio 0.2: degenerate subsample after 1 attempts; recorded missing",
    "run 2 ratio 0.1: degenerate subsample after 1 attempts; recorded missing",
    "run 3: Platt fit failed: fit_platt needs both label classes present",
    "run 3 ratio 0.1 delta_ce: delta metrics require Platt-transformed scores",
    "run 3 ratio 0.2 delta_ce: delta metrics require Platt-transformed scores",
    "run 3 ratio 1 delta_ce: delta metrics require Platt-transformed scores",
    "run 4: Platt fit did not converge",
    "run 4 ratio 0.1 delta_ce: delta metrics require Platt-transformed scores",
    "run 4 ratio 0.2: degenerate subsample after 1 attempts; recorded missing",
    "run 4 ratio 1 delta_ce: delta metrics require Platt-transformed scores",
    "delta_ce ratio 0.1 vs 1: insufficient pairs: need >= 3 nonzero differences, got 2",
]
_NAN = math.nan
# (run, ratio): (auc_roc, delta_ce)
_SWEEP_ROWS = {
    (0, 0.1): (0.3333333333333333, 0.03404160004662615),
    (0, 0.2): (0.2222222222222222, 0.007704180334764388),
    (0, 1.0): (0.5564784053156147, 0.01717390327243895),
    (1, 0.1): (_NAN, _NAN),
    (1, 0.2): (_NAN, _NAN),
    (1, 1.0): (0.3106312292358804, -0.3839170728876711),
    (2, 0.1): (_NAN, _NAN),
    (2, 0.2): (0.3333333333333333, 0.06481991329450432),
    (2, 1.0): (0.6046511627906976, 0.05754527438634516),
    (3, 0.1): (0.5, _NAN),
    (3, 0.2): (0.4375, _NAN),
    (3, 1.0): (0.6096345514950167, _NAN),
    (4, 0.1): (0.5, _NAN),
    (4, 0.2): (_NAN, _NAN),
    (4, 1.0): (0.5083056478405316, _NAN),
    (5, 0.1): (0.75, -0.05017741477983928),
    (5, 0.2): (0.46875, -0.04584390384977266),
    (5, 1.0): (0.5415282392026578, -0.058753481736764535),
}


def test_missing_cell_notes_and_sweep_rows_pinned():
    # one draw per ratio: ratio 0.2 of run 4 is degenerate between two good
    # ratios, and ratio 0.1 of runs 1 and 2 leaves too few delta_ce pairs
    cfg = AuditConfig(
        metrics=("auc_roc", "delta_ce"), ratios=(0.1, 0.2, 1.0), majority="big",
        minority="small", max_subsample_retries=0, seed=89,
    )
    runs = _policy_runs()
    report = run_size_matched_audit(runs, cfg)
    assert report.provenance["notes"] == _AUDIT_NOTES
    result = run_sampling_sweep(runs, cfg)
    assert result.provenance["notes"] == _SWEEP_NOTES
    expected = [
        (run, ratio, m, v)
        for (run, ratio), values in _SWEEP_ROWS.items()
        for m, v in zip(cfg.metrics, values)
    ]
    assert [row[:3] for row in result.rows] == [row[:3] for row in expected]
    np.testing.assert_array_equal(
        [row[3] for row in result.rows], [row[3] for row in expected]
    )


@pytest.mark.parametrize("quantile_rule", ["linear", "hazen", "nearest"])
def test_table_summaries_and_tests_equal_the_per_series_loop(quantile_rule):
    # missing cells of several kinds, so the series differ in their counts
    cfg = AuditConfig(
        metrics=("auc_roc", "ece", "delta_ce"), ratios=(0.1, 0.2, 1.0), majority="big",
        minority="small", max_subsample_retries=0, seed=89, quantile_rule=quantile_rule,
    )
    report = run_size_matched_audit(_policy_runs(), cfg)
    # the per-series loop the table replaced, through the one-row oracles
    for m, per in report.series.items():
        for s, values in per.items():
            finite = [v for v in values if not math.isnan(v)]
            expected = oracles.summarize_one_row(finite, quantile_rule) if finite else None
            assert record_bits(report.summaries[m][s]) == record_bits(expected)
        for arm, pair in report.provenance["arms"].items():
            a, b = (np.asarray(per[s], dtype=np.float64) for s in pair)
            ok = np.isfinite(a) & np.isfinite(b)
            try:
                expected = oracles.wilcoxon_one_row(a[ok], b[ok])
            except InsufficientPairsError:
                expected = None
            assert record_bits(report.tests[m][arm]) == record_bits(expected)


def test_reports_hold_python_floats():
    cfg = AuditConfig(
        metrics=("auc_roc", "delta_ce"), ratios=(0.1, 0.2, 1.0), majority="big",
        minority="small", max_subsample_retries=0, seed=89,
    )
    runs = _policy_runs()
    report = run_size_matched_audit(runs, cfg)
    values = [v for per in report.series.values() for vals in per.values() for v in vals]
    records = [
        r for per in (*report.summaries.values(), *report.tests.values())
        for r in per.values() if r is not None
    ]
    result = run_sampling_sweep(runs, cfg)
    values += [row[3] for row in result.rows]
    records += [r for per in result.summaries.values() for r in per.values() if r is not None]
    records += [t for t in result.tests.values() if t is not None]
    assert values and records
    assert {type(v) for v in values} == {float}
    assert {
        type(v) for r in records for k, v in vars(r).items()
        if k not in ("n", "n_effective", "method")
    } == {float}


class TestFailedPlattFit:
    @pytest.mark.parametrize("audit", [run_group_audit, run_size_matched_audit])
    def test_audit_records_the_failure_and_continues(self, audit):
        cfg = AuditConfig(metrics=("ece", "brier", "delta_ce", "delta_brier"), seed=8)
        report = audit(_runs_with_single_class_validation(), cfg)
        assert report.provenance["platt"][3] == {"run": 3, "error": FIT_FAILURE}
        assert report.provenance["platt"][2]["converged"]
        assert f"run 3: Platt fit failed: {FIT_FAILURE}" in report.provenance["notes"]
        for metric in cfg.metrics:
            for values in report.series[metric].values():
                missing = [r for r, v in enumerate(values) if math.isnan(v)]
                assert missing == ([3] if metric.startswith("delta") else [])

    def test_sweep_records_the_failure_and_continues(self):
        cfg = AuditConfig(metrics=("ece", "delta_ce"), ratios=(0.5, 1.0), seed=8)
        result = run_sampling_sweep(_runs_with_single_class_validation(), cfg)
        assert result.runs == tuple(range(6))
        for run, ratio, metric, value in result.rows:
            assert math.isnan(value) == (run == 3 and metric == "delta_ce")
        assert f"run 3: Platt fit failed: {FIT_FAILURE}" in result.provenance["notes"]


def test_non_converged_platt_fit_leaves_only_its_deltas_missing():
    # run 2's validation set is separable: 0.2 for every negative, 0.8 for every positive
    runs = _two_group_runs(106, n_runs=5, group_sizes=(400, 100))
    v = runs[2].validation
    runs[2] = AuditRun(
        run_index=2,
        validation=ScoreSet(scores=np.where(v.labels == 1, 0.8, 0.2), labels=v.labels),
        test=runs[2].test,
    )
    note = "run 2: Platt fit did not converge"
    cfg = AuditConfig(metrics=("ece", "delta_ce", "delta_brier"), ratios=(0.5, 1.0), seed=8)
    for audit in (run_group_audit, run_size_matched_audit):
        report = audit(runs, cfg)
        assert not report.provenance["platt"][2]["converged"]
        assert "a" in report.provenance["platt"][2]
        assert note in report.provenance["notes"]
        for metric in cfg.metrics:
            for values in report.series[metric].values():
                missing = [r for r, v in enumerate(values) if math.isnan(v)]
                assert missing == ([2] if metric.startswith("delta") else [])
    result = run_sampling_sweep(runs, cfg)
    assert note in result.provenance["notes"]
    for run, ratio, metric, value in result.rows:
        assert math.isnan(value) == (run == 2 and metric.startswith("delta"))


def test_diverging_platt_fit_is_a_non_converged_run(tmp_path):
    # Newton's second step from these validation scores sends the slope to inf
    llrs, labels = counted(
        {-15: (0, 48), -10: (0, 55), -5: (0, 54), 0: (16, 29), 5: (55, 1), 10: (43, 1), 15: (33, 0)}
    )
    validation = ScoreSet(scores=sigmoid(llrs), labels=labels)
    rng = np.random.default_rng(0)
    scores = rng.random(120)
    test = ScoreSet(
        scores=scores, labels=rng.binomial(1, scores), groups=np.array(["a"] * 90 + ["b"] * 30)
    )
    cfg = AuditConfig(metrics=("ece", "delta_ce", "delta_brier"))
    report = run_group_audit([AuditRun(0, validation, test)], cfg)
    platt = report.provenance["platt"][0]
    assert (platt["converged"], platt["iterations"]) == (False, 1)
    assert platt["a"] == pytest.approx(-145.046, abs=1e-3)
    assert platt["b"] == pytest.approx(3.461, abs=1e-3)
    assert "run 0: Platt fit did not converge" in report.provenance["notes"]
    for metric in cfg.metrics:
        for values in report.series[metric].values():
            assert math.isnan(values[0]) == metric.startswith("delta")
    path = tmp_path / "report.json"
    write_audit_json(report, str(path))
    assert json.loads(path.read_text())["provenance"]["platt"][0]["a"] == platt["a"]


class TestSamplingSweep:
    def test_long_form_shape(self):
        runs = []
        for r in range(4):
            s = calibrated_scoreset(2000, seed=r)
            runs.append(AuditRun(run_index=r, validation=s, test=s))
        cfg = AuditConfig(metrics=("ece", "mce"), seed=0)
        result = run_sampling_sweep(runs, cfg)
        assert result.ratios == cfg.ratios
        assert len(result.rows) == 4 * len(cfg.ratios) * 2
        for metric in ("ece", "mce"):
            assert set(result.summaries[metric]) == set(cfg.ratios)

    def test_full_ratio_equals_direct_computation(self):
        s = calibrated_scoreset(3000, seed=5)
        cfg = AuditConfig(metrics=("ece",), ratios=(0.5, 1.0), seed=1)
        result = run_sampling_sweep([AuditRun(run_index=0, validation=s, test=s)], cfg)
        direct = ece(s.scores, s.labels, bin_scores(s.scores, n_bins=cfg.n_bins))
        full = [v for r, ratio, m, v in result.rows if ratio == 1.0]
        assert full == [direct]

    def test_mean_ece_decreases_with_ratio(self):
        runs = []
        for r in range(40):
            s = calibrated_scoreset(4000, seed=100 + r)
            runs.append(AuditRun(run_index=r, validation=s, test=s))
        cfg = AuditConfig(metrics=("ece",), seed=9)
        result = run_sampling_sweep(runs, cfg)
        means = [result.summaries["ece"][r].mean for r in cfg.ratios]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_degenerate_cells_recorded_missing(self):
        # ratio 0.01 of 40 records rounds to zero: every attempt is degenerate
        rng = np.random.default_rng(3)
        scores = rng.random(40)
        labels = np.array([1, 1] + [0] * 38)
        s = ScoreSet(scores=scores, labels=labels)
        cfg = AuditConfig(
            metrics=("ece",), ratios=(0.01, 1.0), max_subsample_retries=2, seed=12
        )
        result = run_sampling_sweep([AuditRun(run_index=0, validation=s, test=s)], cfg)
        assert any("degenerate" in note for note in result.provenance["notes"])
        missing = [v for r, ratio, m, v in result.rows if ratio == 0.01]
        assert len(missing) == 1 and math.isnan(missing[0])

    def test_delta_metrics_need_platt_scores(self):
        s = calibrated_scoreset(500, seed=6)
        # one class in the validation set: no Platt fit, so no Platt scores
        validation = ScoreSet(scores=s.scores, labels=np.zeros(s.n, dtype=int))
        cfg = AuditConfig(metrics=("delta_ce",), ratios=(0.5, 1.0), seed=0)
        result = run_sampling_sweep(
            [AuditRun(run_index=0, validation=validation, test=s)], cfg
        )
        assert len(result.rows) == 2 and all(math.isnan(row[3]) for row in result.rows)
        assert any("Platt" in note for note in result.provenance["notes"])

    def test_one_ratio_rejected_before_any_run_is_read(self):
        def runs():
            raise AssertionError("a run was read")
            yield

        with pytest.raises(ValueError, match=r"at least two ratios, got \[1.0\]"):
            run_sampling_sweep(runs(), AuditConfig(ratios=(1.0,)))

    def test_csv_export_schema(self):
        s = calibrated_scoreset(500, seed=1)
        runs = [AuditRun(run_index=0, validation=s, test=s)]
        cfg = AuditConfig(metrics=("ece",), ratios=(0.5, 1.0), seed=2)
        result = run_sampling_sweep(runs, cfg)
        buffer = io.StringIO()
        write_sweep_csv(result, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "run,ratio,metric,value"
        assert len(lines) == 3


class TestSyntheticExperiment:
    def test_schema_and_determinism_smoke(self):
        scenarios = [
            SyntheticScenario(1.0, 1.0),
            SyntheticScenario(1.5, 1.5),
            SyntheticScenario(5.0, 5.0),
        ]
        cfg = AuditConfig(
            metrics=SWEEP_METRICS,
            population_size=4000,
            ratios=(0.2, 1.0),
            seed=21,
        )
        results = run_synthetic_experiment(scenarios, 5, cfg)
        assert set(results) == {"alpha1_beta1", "alpha1.5_beta1.5", "alpha5_beta5"}
        for result in results.values():
            assert result.runs == tuple(range(5))
            # one value per run for every (ratio, metric) cell
            assert len(result.rows) == 5 * 2 * len(SWEEP_METRICS)
        again = run_synthetic_experiment(scenarios, 5, cfg)
        assert again["alpha1_beta1"].rows == results["alpha1_beta1"].rows

    def test_calibrated_scenario_shows_ratio_bias(self):
        cfg = AuditConfig(metrics=("ece",), population_size=20_000, seed=33)
        results = run_synthetic_experiment([SyntheticScenario(1.0, 1.0)], 10, cfg)
        result = results["alpha1_beta1"]
        assert result.tests["ece"].p_value < 0.05
        assert result.summaries["ece"][0.1].mean > result.summaries["ece"][1.0].mean

    def test_discrimination_ratio_invariant_in_expectation(self):
        cfg = AuditConfig(metrics=("auc_roc",), population_size=20_000, seed=34)
        results = run_synthetic_experiment([SyntheticScenario(1.5, 1.5)], 30, cfg)
        result = results["alpha1.5_beta1.5"]
        low = np.array(
            [v for r, ratio, m, v in result.rows if ratio == 0.1], dtype=float
        )
        high = np.array(
            [v for r, ratio, m, v in result.rows if ratio == 1.0], dtype=float
        )
        diff = low.mean() - high.mean()
        spread = math.sqrt(low.var(ddof=1) / low.size + high.var(ddof=1) / high.size)
        assert abs(diff) < 3 * spread

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_synthetic_experiment(
                [SyntheticScenario(1.0, 1.0), SyntheticScenario(1.0, 1.0)],
                2,
                AuditConfig(population_size=2000),
            )

    @pytest.mark.parametrize("n_runs", [True, 2.5, np.float64(3.0), 0])
    def test_n_runs_must_be_a_positive_integer(self, n_runs):
        with pytest.raises(ValueError, match="n_runs"):
            run_synthetic_experiment(
                [SyntheticScenario(1.0, 1.0)], n_runs, AuditConfig(population_size=2000)
            )

    def test_default_columns_stay_unrendered(self, monkeypatch):
        seen = []
        sweep = harness.run_sampling_sweep

        def spy(runs, cfg):
            runs = list(runs)
            seen.extend(runs)
            return sweep(runs, cfg)

        monkeypatch.setattr(harness, "run_sampling_sweep", spy)
        cfg = AuditConfig(metrics=SWEEP_METRICS, population_size=2000, ratios=(0.5, 1.0))
        run_synthetic_experiment([SyntheticScenario(1.5, 1.5)], 3, cfg)
        assert len(seen) == 3
        for run in seen:
            for s in (run.validation, run.test):
                assert vars(s)["_groups"] is None
                assert vars(s)["_sample_ids"].dtype.kind == "i"

    def test_one_ratio_rejected_before_any_population_is_drawn(self, monkeypatch):
        import calaudit.synthetic

        def no_population(*args, **kwargs):
            raise AssertionError("population generated")

        monkeypatch.setattr(calaudit.synthetic, "generate_population", no_population)
        with pytest.raises(ValueError, match="at least two ratios"):
            run_synthetic_experiment(
                [SyntheticScenario(1.0, 1.0)], 2, AuditConfig(ratios=(1.0,))
            )


class TestScenarioWorkers:
    """The scenarios of a synthetic experiment are shared out over the caller
    and forked children, one process per CPU, or run in turn; results and
    errors do not depend on which."""

    # the golden-output test's synthetic shape
    scenarios = [SyntheticScenario(1.0, 1.0), SyntheticScenario(2.0, 2.0),
                 SyntheticScenario(0.5, 3.0)]
    cfg = AuditConfig(metrics=SWEEP_METRICS, population_size=2000, ratios=(0.2, 0.6, 1.0))

    @pytest.fixture
    def scenario_pids(self, monkeypatch, tmp_path):
        """Runs the experiment with ``cpus`` CPUs; returns the results and, per
        scenario index, the pid of the process that drew its population. Forked
        workers inherit the spy."""
        import calaudit.synthetic

        generate = calaudit.synthetic.generate_population

        def spy(n, seed):
            (tmp_path / f"{seed[2]}-{os.getpid()}").touch()
            return generate(n, seed)

        monkeypatch.setattr(calaudit.synthetic, "generate_population", spy)

        def run(cpus):
            for p in tmp_path.iterdir():
                p.unlink()
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            results = run_synthetic_experiment(self.scenarios, 3, self.cfg)
            assert multiprocessing.active_children() == []
            pids = dict(map(int, p.name.split("-")) for p in tmp_path.iterdir())
            return results, pids

        return run

    def test_workers_and_serial_run_give_the_same_results(self, scenario_pids):
        pooled, pids = scenario_pids(cpus=2)
        # two processes: the caller runs scenarios 0 and 2, a child scenario 1
        assert sorted(pids) == [0, 1, 2]
        assert pids[0] == pids[2] == os.getpid() != pids[1]
        serial, pids = scenario_pids(cpus=1)
        assert set(pids.values()) == {os.getpid()}
        assert list(pooled) == list(serial)
        for name in serial:
            assert json.dumps(pooled[name].to_dict()) == json.dumps(serial[name].to_dict())
            assert pooled[name].rows == serial[name].rows

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_lowest_failing_scenario_raises(self, monkeypatch, scenario_pids, cpus):
        import calaudit.synthetic

        distort = calaudit.synthetic.apply_miscalibration

        def failing(pop, scenario):
            if scenario.alpha == 2.0:
                time.sleep(0.5)  # scenario 2 fails first in time
            if scenario.alpha != 1.0:
                raise ValueError(f"scenario {scenario.name} failed")
            return distort(pop, scenario)

        monkeypatch.setattr(calaudit.synthetic, "apply_miscalibration", failing)
        with pytest.raises(ValueError, match=r"^scenario alpha2_beta2 failed$"):
            scenario_pids(cpus)
        assert multiprocessing.active_children() == []

    def test_workers_run_every_scenario_before_raising(self, monkeypatch, tmp_path):
        import calaudit.synthetic

        def failing(pop, scenario):
            if scenario.alpha != 1.0:
                time.sleep(0.3)  # still running when scenario 0 has failed
            (tmp_path / scenario.name).touch()
            raise ValueError(f"scenario {scenario.name} failed")

        monkeypatch.setattr(calaudit.synthetic, "apply_miscalibration", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ValueError, match=r"^scenario alpha1_beta1 failed$"):
            run_synthetic_experiment(self.scenarios, 3, self.cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            s.name for s in self.scenarios
        )
        assert multiprocessing.active_children() == []

    def test_interrupt_terminates_the_workers(self, monkeypatch, tmp_path):
        import calaudit.synthetic

        caller = os.getpid()

        def interrupted(pop, scenario):
            if os.getpid() != caller:
                (tmp_path / "child").write_text(str(os.getpid()))
                time.sleep(60)  # still running when the caller is interrupted
            deadline = time.monotonic() + 30
            while not (tmp_path / "child").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(calaudit.synthetic, "apply_miscalibration", interrupted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_synthetic_experiment(self.scenarios, 3, self.cfg)
        assert time.monotonic() - start < 45
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):  # terminated and reaped, no zombie
            os.kill(int((tmp_path / "child").read_text()), 0)

    def test_a_killed_child_raises(self, monkeypatch):
        import calaudit.synthetic

        caller = os.getpid()
        distort = calaudit.synthetic.apply_miscalibration

        def killed(pop, scenario):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return distort(pop, scenario)

        def overdue(signum, frame):
            raise TimeoutError("the lost scenario was never reported")

        monkeypatch.setattr(calaudit.synthetic, "apply_miscalibration", killed)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        previous = signal.signal(signal.SIGALRM, overdue)
        signal.alarm(60)
        try:
            with pytest.raises(ChildProcessError) as raised:
                run_synthetic_experiment(self.scenarios, 3, self.cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(raised.value) == (
            "job 1 (SyntheticScenario(alpha=2.0, beta=2.0)) got no result: "
            "its process was killed by SIGKILL"
        )
        assert multiprocessing.active_children() == []

    def test_buffered_output_is_written_once(self):
        import calaudit

        src = str(Path(calaudit.__file__).resolve().parents[1])
        code = (
            "import os, sys\n"
            "from calaudit import AuditConfig, SyntheticScenario, run_synthetic_experiment\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.stdout.write('x')\n"
            "run_synthetic_experiment(\n"
            "    [SyntheticScenario(1.0, 1.0), SyntheticScenario(2.0, 2.0)], 3,\n"
            "    AuditConfig(population_size=2000, ratios=(0.2, 1.0)),\n"
            ")\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)  # keep the child's stdout block-buffered
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout == "x"

    def test_another_live_thread_selects_the_serial_run(self, scenario_pids):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            _, pids = scenario_pids(cpus=2)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert set(pids.values()) == {os.getpid()}

    def test_importing_the_cli_imports_no_multiprocessing(self):
        import calaudit

        src = str(Path(calaudit.__file__).resolve().parents[1])
        code = "import sys, calaudit.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout == "False\n"


# scores from a handful of values, so most records tie with others
_TIED = (0.0, 0.2, 0.5, 0.7, 1.0)


@st.composite
def _tied_records(draw, min_size=2, max_size=60):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    column = lambda elements: np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    return column(st.sampled_from(_TIED)), column(st.sampled_from((0, 1)))


def _direct(name, scores, labels, platt_scores, cfg):
    """One metric from its estimator on the cell's own arrays; NaN where undefined."""
    estimators = {
        "auc_roc": lambda: roc_auc(scores, labels),
        "auc_pr": lambda: pr_auc(scores, labels),
        "auc_prg": lambda: pr_auc_gain(scores, labels),
        "balanced_accuracy": lambda: balanced_accuracy(scores, labels, cfg.threshold),
        "ece": lambda: ece(scores, labels, bin_scores(scores, EQUAL_WIDTH, cfg.n_bins)),
        "mce": lambda: mce(scores, labels, bin_scores(scores, EQUAL_WIDTH, cfg.n_bins)),
        "ada_ece": lambda: ada_ece(scores, labels, cfg.n_bins),
        "cross_entropy": lambda: cross_entropy(scores, labels, cfg.clip_epsilon),
        "brier": lambda: brier(scores, labels),
        "delta_ce": lambda: decompose_psr(scores, labels, platt_scores, cfg.clip_epsilon).delta_ce,
        "delta_brier": lambda: decompose_psr(
            scores, labels, platt_scores, cfg.clip_epsilon
        ).delta_brier,
    }
    try:
        return float(estimators[name]())
    except ValueError:
        return math.nan


def _same(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


_VALIDATION = calibrated_scoreset(500, seed=71)


def _platt_scores(test):
    params = fit_platt(to_llr(_VALIDATION.scores), _VALIDATION.labels)
    return apply_platt(params, to_llr(test.scores))


class TestCellKernel:
    """Cells are evaluated in batches that bin and rank from one stable order
    per run, not a sort of their own; every value must still equal the
    estimator run on the cell's arrays."""

    @settings(database=None, deadline=None)
    @given(_tied_records(min_size=1), st.data())
    def test_equal_count_membership_without_a_sort(self, records, data):
        scores, labels = records
        subsets = st.sets(st.integers(0, scores.size - 1), min_size=1)
        n_cells = data.draw(st.integers(1, 3))
        cells = [np.array(sorted(data.draw(subsets))) for _ in range(n_cells)]
        n_bins = data.draw(st.integers(1, min(idx.size for idx in cells)))
        run = _Records(scores, labels, None, AuditConfig(n_bins=n_bins))
        batch = harness._Batch([(run, idx) for idx in cells])
        bins = _equal_count_bins(batch.position, batch.sizes, n_bins)
        ends = np.cumsum(batch.sizes)
        for k, idx in enumerate(cells):
            membership = bins[ends[k] - idx.size : ends[k]] - k * n_bins
            assert membership.tolist() == oracles.equal_count_membership(
                scores[idx].tolist(), n_bins
            )

    def test_loss_tables_built_only_for_the_metrics_that_read_them(self):
        s = calibrated_scoreset(60, seed=2)
        records = _Records(s.scores, s.labels, np.full(s.n, math.nan), AuditConfig())
        tables = {"log_likelihood", "squared_error", "platt_log_likelihood",
                  "platt_squared_error"}
        _metric_values(("ece", "auc_pr"), records, np.arange(s.n))
        assert not tables & set(vars(records))
        _metric_values(("cross_entropy", "brier", "delta_ce"), records, np.arange(s.n))
        assert tables & set(vars(records)) == {
            "log_likelihood", "squared_error", "platt_log_likelihood"
        }

    def test_delta_metrics_undefined_only_on_cells_over_a_record_without_platt(self):
        # one run whose Platt scores are missing (NaN) on some records only: a
        # cell over such a record has no delta metrics, with the reason, and a
        # cell over none of them has decompose_psr's on its own records
        s = calibrated_scoreset(60, seed=8)
        platt_scores = _platt_scores(s)
        platt_scores[45:] = math.nan
        records = _Records(s.scores, s.labels, platt_scores, AuditConfig())
        cells = [(records, np.arange(30, 60)), (records, np.arange(40))]
        names = ("delta_ce", "delta_brier", "brier")
        values, errors = harness._cell_values(names, cells)
        why = "delta metrics require Platt-transformed scores"
        assert errors == {0: {"delta_ce": why, "delta_brier": why}}
        assert np.isnan(values[0, :2]).all() and np.isfinite(values[0, 2])
        idx = cells[1][1]
        want = decompose_psr(s.scores[idx], s.labels[idx], platt_scores[idx])
        assert values[1].tolist() == [want.delta_ce, want.delta_brier, want.brier]

    def test_batch_intermediates_built_once(self):
        # the sorted view and the two binnings are shared by every metric
        # that reads them, over cells of two runs
        calls = Counter()

        def counting(fn):
            def wrapped(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapped

        cells = []
        for seed in (3, 4):
            s = calibrated_scoreset(90, seed=seed)
            records = _Records(s.scores, s.labels, _platt_scores(s), AuditConfig())
            cells += [(records, np.arange(0, 90, 2)), (records, np.arange(40))]
        with patch.object(
            discrimination, "_Ranked", counting(discrimination._Ranked)
        ), patch.object(calibration, "_bin_gaps", counting(calibration._bin_gaps)):
            harness._cell_values(ALL_METRICS, cells)
        assert calls == {"_Ranked": 1, "_bin_gaps": 2}

    @settings(database=None, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(0, 2**16))
    def test_sweep_cells_equal_direct_estimators(self, data, n_bins, seed):
        # runs of one size, so each ratio's cells are rows of one length
        n = data.draw(st.integers(2, 60))
        tests = [
            ScoreSet(scores=scores, labels=labels)
            for scores, labels in (
                data.draw(_tied_records(min_size=n, max_size=n))
                for _ in range(data.draw(st.integers(1, 5)))
            )
        ]
        cfg = AuditConfig(n_bins=n_bins, ratios=(0.3, 0.6, 1.0), seed=seed)
        runs = [AuditRun(r, _VALIDATION, test) for r, test in enumerate(tests)]
        result = run_sampling_sweep(runs, cfg)
        got = {(run, ratio, m): v for run, ratio, m, v in result.rows}
        for r, test in enumerate(tests):
            platt_scores = _platt_scores(test)
            for position, ratio in enumerate(cfg.ratios):
                # the documented subsample seed scheme, with its retries
                idx = None
                for attempt in range(cfg.max_subsample_retries + 1):
                    try:
                        idx = subsample_indices(
                            test.labels, ratio, [seed, 3, r, position, attempt]
                        )
                        break
                    except DegenerateSampleError:
                        continue
                for m in cfg.metrics:
                    want = math.nan if idx is None else _direct(
                        m, test.scores[idx], test.labels[idx], platt_scores[idx], cfg
                    )
                    assert _same(got[r, ratio, m], want), (r, ratio, m)

    @settings(database=None, deadline=None)
    @given(st.data(), st.integers(1, 6))
    def test_audit_series_equal_direct_estimators(self, data, n_bins):
        # runs with groups of one size, so each series' cells are rows of one length
        n = data.draw(st.integers(3, 60))
        n_minority = data.draw(st.integers(1, n // 2))
        runs = []
        for r in range(data.draw(st.integers(1, 5))):
            scores, labels = data.draw(_tied_records(min_size=n, max_size=n))
            groups = np.array(["big"] * (n - n_minority) + ["small"] * n_minority)
            groups = groups[np.array(data.draw(st.permutations(range(n))))]
            test = ScoreSet(scores=scores, labels=labels, groups=groups)
            runs.append(AuditRun(r, _VALIDATION, test))
        cfg = AuditConfig(n_bins=n_bins, majority="big", minority="small", seed=5)
        report = run_size_matched_audit(runs, cfg)
        for run, match in zip(runs, report.provenance["match_seeds"]):
            test, groups = run.test, run.test.groups
            cells = {
                "majority": np.flatnonzero(groups == "big"),
                "minority": np.flatnonzero(groups == "small"),
                "majority_matched": match_indices(test, "big", "small", match["seed"]),
            }
            platt_scores = _platt_scores(test)
            for series, idx in cells.items():
                for m in cfg.metrics:
                    want = _direct(
                        m, test.scores[idx], test.labels[idx], platt_scores[idx], cfg
                    )
                    got = report.series[m][series][run.run_index]
                    assert _same(got, want), (run.run_index, series, m)


# cell sizes from a small set, so cells of one size occur across runs
_CELL_SIZES = (1, 2, 3, 5, 8, 13)


def _oracle_cell_values(names, cells):
    """``harness._cell_values`` from the per-cell loop that it replaced."""
    values = np.empty((len(cells), len(names)))
    errors = {}
    oracle_runs = {}
    for c, (records, idx) in enumerate(cells):
        # the oracle's run without a calibrator has no Platt scores at all
        platt_scores = records.platt_scores
        if np.isnan(platt_scores).all():
            platt_scores = None
        run = oracle_runs.setdefault(
            id(records),
            oracles._Records(records.scores, records.labels, platt_scores, records.cfg),
        )
        cell, why = oracles.metric_values_one_cell(names, run, idx)
        values[c] = [cell[m] for m in names]
        if why:
            errors[c] = why
    return values, errors


@settings(database=None, deadline=None)
@given(st.data())
def test_batches_equal_the_per_cell_loop(data):
    n_bins = data.draw(st.integers(1, 6))
    cfg = AuditConfig(n_bins=n_bins, majority="big", minority="small", seed=7)
    runs, cells = [], []
    n_runs = data.draw(st.integers(1, 6))
    no_platt = data.draw(st.integers(-1, n_runs - 1))  # the run without Platt scores, if any
    for r in range(n_runs):
        scores, labels = data.draw(_tied_records(min_size=13, max_size=40))
        n = scores.size
        n_minority = data.draw(st.sampled_from(_CELL_SIZES[:4]))
        groups = np.array(["big"] * (n - n_minority) + ["small"] * n_minority)
        groups = groups[np.array(data.draw(st.permutations(range(n))))]
        test = ScoreSet(scores=scores, labels=labels, groups=groups)
        validation = _VALIDATION
        if r == no_platt:
            validation = ScoreSet(
                scores=_VALIDATION.scores, labels=np.zeros(_VALIDATION.n, dtype=int)
            )
        runs.append(AuditRun(r, validation, test))
        platt_scores = np.full(n, math.nan) if r == no_platt else _platt_scores(test)
        records = _Records(scores, labels, platt_scores, cfg)
        for _ in range(data.draw(st.integers(1, 4))):
            size = data.draw(st.sampled_from(_CELL_SIZES))
            members = st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
            cells.append((records, np.array(sorted(data.draw(members)))))
    # the batch kernel against the per-cell loop, on one batch of every cell
    got, got_errors = harness._cell_values(cfg.metrics, cells)
    want, want_errors = _oracle_cell_values(cfg.metrics, cells)
    assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]
    assert got_errors == want_errors
    # a whole audit whose queue fills in the middle of a run, against the
    # per-cell loop that evaluated each cell as soon as it was drawn
    with patch.object(harness, "_BATCH_RECORDS", 1), patch.object(
        harness, "_cell_values", _oracle_cell_values
    ):
        expected = run_size_matched_audit(runs, cfg)
    limit = data.draw(st.integers(1, 40 * n_runs))
    with patch.object(harness, "_BATCH_RECORDS", limit):
        report = run_size_matched_audit(runs, cfg)
    assert report.provenance["notes"] == expected.provenance["notes"]
    for m in cfg.metrics:
        for s, values in expected.series[m].items():
            assert [v.hex() for v in report.series[m][s]] == [v.hex() for v in values], (m, s)


_RUN_TABLES = (
    "equal_width", "rank", "log_likelihood", "squared_error",
    "platt_log_likelihood", "platt_squared_error",
)


@pytest.mark.parametrize("limit", [1, 150])
def test_run_tables_built_once_and_freed_with_their_records(limit):
    # runs of 120 test records: cells of 100, 20 and 20 records, so with a
    # limit of 1 every cell is a batch and a run spans three of them, and
    # with 150 the batches also span runs
    runs = _two_group_runs(23, n_runs=4, n_validation=500, group_sizes=(100, 20))
    fitted = []  # (run index, weak reference to the run's records)
    built = Counter()  # (run index, table) -> builds

    def alive():
        return [(i, r) for i, ref in fitted if (r := ref()) is not None]

    def fit(run, cfg, notes):
        diag, records = fit_run_calibrator(run, cfg, notes)
        fitted.append((run.run_index, weakref.ref(records)))
        return diag, records

    def builder(fn, raw, platt):
        def wrapped(scores, *args):
            for i, records in alive():
                if scores is records.scores:
                    built[i, raw] += 1
                elif scores is records.platt_scores:
                    built[i, platt] += 1
            return fn(scores, *args)
        return wrapped

    def cell_values(names, cells):
        current = fitted[-1][1]()
        for i, records in alive():
            assert records is current or any(records is r for r, _ in cells), i
        return evaluate_cells(names, cells)

    fit_run_calibrator, evaluate_cells = harness._fit_run_calibrator, harness._cell_values
    with patch.object(harness, "_BATCH_RECORDS", limit), patch.object(
        harness, "_fit_run_calibrator", fit
    ), patch.object(harness, "_cell_values", cell_values), patch.object(
        harness, "_stable_order", builder(harness._stable_order, "rank", None)
    ), patch.object(
        calibration, "_equal_width_bins",
        builder(calibration._equal_width_bins, "equal_width", None),
    ), patch.object(
        calibration, "_log_likelihoods",
        builder(calibration._log_likelihoods, "log_likelihood", "platt_log_likelihood"),
    ), patch.object(
        calibration, "_squared_errors",
        builder(calibration._squared_errors, "squared_error", "platt_squared_error"),
    ):
        run_size_matched_audit(runs)
    assert built == {(i, table): 1 for i in range(len(runs)) for table in _RUN_TABLES}
    assert alive() == []
