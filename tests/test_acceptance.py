"""End-to-end acceptance suite.

Each test pins one headline property of the toolkit at its stated tolerance
and prints a single pass/fail line (run with ``pytest -v -s`` to see them
stream). The heavyweight synthetic experiment is shared by the first three
criteria through a module-scoped fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from calaudit import (
    AuditConfig,
    AuditRun,
    ScoreSet,
    SyntheticScenario,
    ada_ece,
    apply_miscalibration,
    balanced_accuracy,
    bin_scores,
    ece,
    fit_platt,
    generate_population,
    mce,
    pr_auc,
    pr_auc_gain,
    roc_auc,
    run_size_matched_audit,
    run_synthetic_experiment,
    to_llr,
    wilcoxon_signed_rank,
)
from calaudit.cli import main
from calaudit.platt import sigmoid
from calaudit.synthetic import regularized_incomplete_beta

import oracles
from helpers import calibrated_scoreset, make_scoreset

ACCEPTANCE_SEED = 101
RUNTIME_BUDGET_SECONDS = 300.0


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def synthetic_sweeps():
    """100-run sweeps for the calibrated and highly uncalibrated scenarios."""
    config = AuditConfig(
        metrics=("ece", "mce", "ada_ece", "delta_ce", "delta_brier"),
        population_size=100_000,
        seed=ACCEPTANCE_SEED,
    )
    scenarios = [SyntheticScenario(1.0, 1.0), SyntheticScenario(5.0, 5.0)]
    started = time.perf_counter()
    results = run_synthetic_experiment(scenarios, 100, config)
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_c1_bin_metric_sample_size_bias(synthetic_sweeps):
    results, elapsed = synthetic_sweeps
    calibrated = results["alpha1_beta1"]
    p_values = {m: calibrated.tests[m].p_value for m in ("ece", "mce", "ada_ece")}
    mean_low = calibrated.summaries["ece"][0.1].mean
    mean_high = calibrated.summaries["ece"][1.0].mean
    inflation = mean_low / mean_high
    ok = (
        all(p < 0.05 for p in p_values.values())
        and inflation >= 2.0
        and elapsed < RUNTIME_BUDGET_SECONDS
    )
    _report(
        "C1 bin-metric sample-size bias",
        ok,
        f"p(ece)={p_values['ece']:.2e} p(mce)={p_values['mce']:.2e} "
        f"p(ada_ece)={p_values['ada_ece']:.2e} ece@0.1/ece@1.0={inflation:.2f} "
        f"runtime={elapsed:.0f}s",
    )


def test_c2_psr_robustness(synthetic_sweeps):
    results, _ = synthetic_sweeps
    calibrated = results["alpha1_beta1"]
    ratios = {}
    for metric in ("delta_ce", "delta_brier"):
        low = calibrated.summaries[metric][0.1].mean
        high = calibrated.summaries[metric][1.0].mean
        ratios[metric] = low / high
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    _report(
        "C2 PSR sample-size robustness",
        ok,
        f"delta_ce@0.1/@1.0={ratios['delta_ce']:.3f} "
        f"delta_brier@0.1/@1.0={ratios['delta_brier']:.3f}",
    )


def test_c3_decalibration_dominance(synthetic_sweeps):
    results, _ = synthetic_sweeps
    inflations = {}
    for name, result in results.items():
        low = result.summaries["ece"][0.1].mean
        high = result.summaries["ece"][1.0].mean
        inflations[name] = (low - high) / high
    ok = inflations["alpha5_beta5"] < inflations["alpha1_beta1"]
    _report(
        "C3 de-calibration dominates the finite-size effect",
        ok,
        f"relative inflation alpha1={inflations['alpha1_beta1']:.3f} "
        f"alpha5={inflations['alpha5_beta5']:.3f}",
    )


def _two_group_audit_runs(master_seed, n_runs, n_majority, n_minority, n_validation):
    population = generate_population(200_000, [master_seed, 0])
    scored = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
    runs = []
    n_test = n_majority + n_minority
    for r in range(n_runs):
        rng = np.random.default_rng([master_seed, 1, r])
        perm = rng.permutation(scored.n)
        validation = scored.take(np.sort(perm[:n_validation]))
        test_idx = np.sort(perm[n_validation : n_validation + n_test])
        groups = np.array(["g_major"] * n_majority + ["g_minor"] * n_minority)
        rng.shuffle(groups)
        test = ScoreSet(
            scores=scored.scores[test_idx],
            labels=scored.labels[test_idx],
            groups=groups,
        )
        runs.append(AuditRun(run_index=r, validation=validation, test=test))
    return runs


def test_c4_size_matched_audit_replication():
    n_executions = 20
    naive_significant = 0
    matched_not_significant = 0
    for execution in range(n_executions):
        runs = _two_group_audit_runs(
            master_seed=1000 + execution,
            n_runs=25,
            n_majority=1000,
            n_minority=50,
            n_validation=2000,
        )
        config = AuditConfig(
            metrics=("ece",),
            majority="g_major",
            minority="g_minor",
            seed=ACCEPTANCE_SEED + execution,
        )
        report = run_size_matched_audit(runs, config)
        naive = report.tests["ece"]["naive"]
        matched = report.tests["ece"]["size_matched"]
        naive_significant += naive is not None and naive.p_value < 0.05
        matched_not_significant += matched is None or matched.p_value >= 0.05
    ok = (
        naive_significant > n_executions / 2
        and matched_not_significant > n_executions / 2
    )
    _report(
        "C4 size-matched audit replication",
        ok,
        f"naive significant {naive_significant}/{n_executions}, "
        f"size-matched non-significant {matched_not_significant}/{n_executions}",
    )


def test_c5_oracle_equivalences():
    rng = np.random.default_rng(99)
    failures = []

    # roc_auc vs O(n^2) pairwise counting, n <= 500, tolerance 1e-12
    for trial in range(12):
        n = int(rng.integers(20, 501))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            continue
        s = make_scoreset(scores, labels)
        if abs(roc_auc(s.scores, s.labels) - oracles.roc_auc_pairwise(scores, labels)) > 1e-12:
            failures.append(f"roc_auc trial {trial}")

    # pr_auc vs brute-force threshold sweep, tolerance 1e-12
    for trial in range(12):
        n = int(rng.integers(10, 300))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0:
            continue
        s = make_scoreset(scores, labels)
        if abs(pr_auc(s.scores, s.labels) - oracles.pr_auc_threshold_sweep(scores, labels)) > 1e-12:
            failures.append(f"pr_auc trial {trial}")

    # ECE / MCE / AdaECE vs the naive re-binning oracle, tolerance 1e-12
    for trial in range(8):
        s = calibrated_scoreset(int(rng.integers(30, 400)), seed=trial)
        binning = bin_scores(s.scores, n_bins=15)
        members = oracles.equal_width_membership(list(s.scores), list(np.linspace(0, 1, 16)))
        expected_ece, expected_mce = oracles.calibration_gaps(
            list(s.scores), list(s.labels), members, 15
        )
        if abs(ece(s.scores, s.labels, binning) - expected_ece) > 1e-12:
            failures.append(f"ece trial {trial}")
        if abs(mce(s.scores, s.labels, binning) - expected_mce) > 1e-12:
            failures.append(f"mce trial {trial}")
        ada_members = oracles.equal_count_membership(list(s.scores), 15)
        expected_ada, _ = oracles.calibration_gaps(
            list(s.scores), list(s.labels), ada_members, 15
        )
        if abs(ada_ece(s.scores, s.labels, 15) - expected_ada) > 1e-12:
            failures.append(f"ada_ece trial {trial}")

    # Wilcoxon exact p vs full 2^n enumeration, every tie-free pattern, n <= 12
    for n in range(3, 13):
        ranks = np.arange(1.0, n + 1.0)
        bits = ((np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1)
        t_plus_all = bits.astype(float) @ ranks
        total = n * (n + 1) / 2.0
        mismatches = 0
        for mask in range(2**n):
            signs = np.where(bits[mask] == 1, 1.0, -1.0)
            result = wilcoxon_signed_rank(signs * ranks, np.zeros(n))
            w = min(t_plus_all[mask], total - t_plus_all[mask])
            expected_p = min(
                1.0,
                (
                    int(np.count_nonzero(t_plus_all <= w))
                    + int(np.count_nonzero(t_plus_all >= total - w))
                )
                / 2.0**n,
            )
            if result.statistic != w or result.p_value != expected_p:
                mismatches += 1
        if mismatches:
            failures.append(f"wilcoxon n={n}: {mismatches} mismatching patterns")

    # incomplete beta vs adaptive quadrature, tolerance 1e-8
    grid = np.linspace(0.01, 0.99, 13)
    params = (0.5, 1.0, 1.5, 5.0, 10.0)
    for a in params:
        for b in params:
            values = regularized_incomplete_beta(grid, a, b)
            for x, v in zip(grid, values):
                if abs(v - oracles.beta_cdf_quadrature(float(x), a, b)) > 1e-8:
                    failures.append(f"beta a={a} b={b} x={x:.2f}")

    _report(
        "C5 oracle equivalences",
        not failures,
        "all dual-route checks agree" if not failures else "; ".join(failures[:5]),
    )


def test_c6_platt_recovery():
    rng = np.random.default_rng(3)
    llrs = to_llr(rng.random(50_000))
    labels = rng.binomial(1, sigmoid(2.0 * llrs - 1.0))
    recovered = fit_platt(llrs, labels)

    rng = np.random.default_rng(11)
    scores = rng.random(50_000)
    identity = fit_platt(to_llr(scores), rng.binomial(1, scores))

    ok = (
        1.95 <= recovered.a <= 2.05
        and -1.05 <= recovered.b <= -0.95
        and abs(identity.a - 1.0) <= 0.05
        and abs(identity.b) <= 0.05
    )
    _report(
        "C6 Platt parameter recovery",
        ok,
        f"recovered a={recovered.a:.3f} b={recovered.b:.3f}; "
        f"identity a={identity.a:.3f} b={identity.b:.3f}",
    )


def test_c7_monotone_transform_invariance():
    population = generate_population(30_000, seed=ACCEPTANCE_SEED)
    base = apply_miscalibration(population, SyntheticScenario(1.0, 1.0))
    worst = 0.0
    predictions_equal = True
    for a in (1.0, 1.5, 5.0):
        distorted = apply_miscalibration(population, SyntheticScenario(a, a))
        worst = max(
            worst,
            abs(
                roc_auc(distorted.scores, distorted.labels)
                - roc_auc(base.scores, base.labels)
            ),
            abs(
                pr_auc(distorted.scores, distorted.labels)
                - pr_auc(base.scores, base.labels)
            ),
            abs(
                pr_auc_gain(distorted.scores, distorted.labels)
                - pr_auc_gain(base.scores, base.labels)
            ),
            abs(
                balanced_accuracy(distorted.scores, distorted.labels, 0.5)
                - balanced_accuracy(base.scores, base.labels, 0.5)
            ),
        )
        predictions_equal &= bool(
            np.array_equal(distorted.scores >= 0.5, base.scores >= 0.5)
        )
    ok = worst <= 1e-12 and predictions_equal
    _report(
        "C7 monotone-transform invariance",
        ok,
        f"max discrimination deviation {worst:.2e}, "
        f"prediction vectors identical: {predictions_equal}",
    )


def _run_cli_twice(argv_builder, tmp_path, output_names):
    digests = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        out_dir.mkdir(parents=True)
        assert main(argv_builder(out_dir)) == 0
        digests.append(tuple((out_dir / name).read_bytes() for name in output_names))
    return digests[0] == digests[1]


def test_c8_cli_determinism(tmp_path):
    from calaudit import write_scoreset_csv

    rng = np.random.default_rng(13)
    scores = rng.random(300)
    scoreset = ScoreSet(
        scores=scores,
        labels=rng.binomial(1, scores),
        groups=rng.choice(["east", "west"], 300, p=[0.75, 0.25]),
    )
    input_csv = tmp_path / "scores.csv"
    write_scoreset_csv(scoreset, str(input_csv))

    import csv as csv_module

    manifest = tmp_path / "runs.csv"
    run_files = []
    for r in range(3):
        val = calibrated_scoreset(300, seed=40 + r)
        val_path = tmp_path / f"val{r}.csv"
        test_path = tmp_path / f"test{r}.csv"
        write_scoreset_csv(val, str(val_path))
        write_scoreset_csv(scoreset, str(test_path))
        run_files.append((r, val_path.name, test_path.name))
    with open(manifest, "w", newline="") as fh:
        writer = csv_module.writer(fh)
        writer.writerow(["run_index", "validation_csv_path", "test_csv_path"])
        writer.writerows(run_files)

    checks = {
        "metrics": _run_cli_twice(
            lambda d: [
                "metrics", "--input", str(input_csv), "--output", str(d / "m.json"),
                "--by-group", "--seed", "101",
            ],
            tmp_path / "metrics_case",
            ["m.json"],
        ),
        "audit": _run_cli_twice(
            lambda d: [
                "audit", "--manifest", str(manifest), "--output", str(d / "r.json"),
                "--size-matched", "--seed", "101",
            ],
            tmp_path / "audit_case",
            ["r.json", "r_ece.csv", "r_auc_roc.csv"],
        ),
        "sweep": _run_cli_twice(
            lambda d: [
                "sweep", "--manifest", str(manifest), "--output", str(d / "s.csv"),
                "--ratios", "0.5,1.0", "--seed", "101",
            ],
            tmp_path / "sweep_case",
            ["s.csv", "s.json"],
        ),
        "synthetic": _run_cli_twice(
            lambda d: [
                "synthetic", "--alpha", "1,5", "--beta", "1,5", "--runs", "2",
                "--n", "800", "--ratios", "0.5,1.0",
                "--output", str(d / "syn"), "--seed", "101",
            ],
            tmp_path / "synthetic_case",
            ["syn/summary.json", "syn/sweep_alpha1_beta1.csv", "syn/sweep_alpha5_beta5.csv"],
        ),
    }
    ok = all(checks.values())
    _report(
        "C8 CLI determinism",
        ok,
        ", ".join(f"{name}={'ok' if good else 'DIFFERS'}" for name, good in checks.items()),
    )
