"""Every output file of a fixed set of commands, pinned by SHA-256.

The inputs are written with numpy and the csv module alone, so they do not
depend on the code under test. The manifest covers the degenerate paths: a
separable validation set (the Platt fit does not converge), a one-class
validation set (the fit fails), a run whose test set has no minority record,
and a 40-record test set, of which the smallest sweep ratio draws one record,
a degenerate subsample. Validation sets hold at most 2k records: beyond that
the BLAS thread count can move the last digits of the Platt fit (see the
README), the same platform dependence as the golden fits in ``test_platt.py``.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

from calaudit.cli import main
from calaudit.synthetic import SyntheticScenario, generate_population, write_population_csv


def _write_scores(path, scores, labels, groups=None, ids=True):
    header = ["score", "label"] + (["sample_id"] if ids else []) + (
        ["group"] if groups is not None else []
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, (s, y) in enumerate(zip(scores, labels)):
            row = [repr(float(s)), int(y)] + ([f"r{i}"] if ids else [])
            if groups is not None:
                row.append(groups[i])
            writer.writerow(row)
    return path.name


def _calibrated(rng, n):
    scores = rng.random(n)
    return scores, rng.binomial(1, scores)


def _tags(rng, n, minority_share):
    return np.where(rng.random(n) < minority_share, "west", "east")


def _inputs(tmp_path):
    """Five runs and the manifest naming them, under ``tmp_path``."""
    rng = np.random.default_rng(20231)
    rows = []

    def run(index, validation, test):
        val_name = _write_scores(tmp_path / f"val{index}.csv", *validation)
        test_name = _write_scores(tmp_path / f"test{index}.csv", *test)
        rows.append((index, val_name, test_name))

    # an ordinary run, without sample ids in its validation file
    scores, labels = _calibrated(rng, 600)
    run(0, (scores, labels, None, False), (*_calibrated(rng, 300), _tags(rng, 300, 0.2)))
    # separable validation: every negative scores below every positive
    labels = rng.integers(0, 2, 400)
    scores = np.where(labels == 1, 0.55 + 0.4 * rng.random(400), 0.45 * rng.random(400))
    run(1, (scores, labels), (*_calibrated(rng, 250), _tags(rng, 250, 0.3)))
    # one-class validation
    run(2, (rng.random(300), np.zeros(300, dtype=int)),
        (*_calibrated(rng, 250), _tags(rng, 250, 0.25)))
    # the minority is absent from the test set
    run(3, _calibrated(rng, 2000), (*_calibrated(rng, 200), np.full(200, "east")))
    # a 40-record test set
    run(4, _calibrated(rng, 500), (*_calibrated(rng, 40), _tags(rng, 40, 0.3)))
    with open(tmp_path / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_index", "validation_csv_path", "test_csv_path"])
        writer.writerows(rows)


_COMMANDS = (
    ["metrics", "--input", "test0.csv", "--output", "out/metrics.json", "--by-group"],
    ["audit", "--manifest", "runs.csv", "--output", "out/audit.json"],
    ["audit", "--manifest", "runs.csv", "--output", "out/matched.json", "--size-matched",
     "--seed", "7", "--quantile-rule", "nearest"],
    ["sweep", "--manifest", "runs.csv", "--output", "out/sweep.csv"],
    ["sweep", "--manifest", "runs.csv", "--output", "out/sweep_small.csv",
     "--ratios", "0.025,0.3,1", "--bins", "5", "--seed", "3"],
    ["synthetic", "--alpha", "1,2,0.5", "--beta", "1,2,3", "--n", "2000", "--runs", "3",
     "--ratios", "0.2,0.6,1", "--output", "out/synthetic"],
)

_DIGESTS = {
    "audit.json": "051703ff9e2dfd8eb9bbd6c96784b996ed53581983308f23561c7f5a26ff6668",
    "audit_ada_ece.csv": "a1174ea98ee6589bea39620130f45d08d5f0c410a8eea91af3cd463f125d6335",
    "audit_auc_pr.csv": "ef1f96dab754ff6a38ef2f5f6936374e839a274d6a2c3a569609035a64167d79",
    "audit_auc_prg.csv": "08891e381413bd42ac4270826de5b7bfc94d3a5e212c490b824497b3dbc6f7e4",
    "audit_auc_roc.csv": "7a971839644b861707af46164c284c22bf7b6a50cf345923dbce02ba1a088bae",
    "audit_balanced_accuracy.csv": "6ceaa51fcd6653926938d59e57b62f048c008f2d9d66f6032d058dc0b54debc3",
    "audit_brier.csv": "e512e6544324491662b1d6ac4943446e58ccedbf0dcf1457b79abf7b15f9e05b",
    "audit_cross_entropy.csv": "1559d3e8b4a34671a9d20b2714387906be300c0f5f18118025ff3a033f0c6fd3",
    "audit_delta_brier.csv": "a092f416f212f948184e6b0dd84805b7e815ccfb5e7e4d32b1995ea413c9659a",
    "audit_delta_ce.csv": "63fdab7405d5df3d691c4db7258b988372fbf106d617e78912fa3daabcded942",
    "audit_ece.csv": "a837bc0b09e1de628559342bd7d5c8c331e1c937fbd412275a3b6ee444aae6e6",
    "audit_mce.csv": "8e8e3436525153fd6cf1950a5ed8b47c74d4fabfd94c9c31d0bd80042245a24d",
    "matched.json": "a3ff26293e79fa45f51062ec60e5c4d8baeddde88283daf8376d793a9828d877",
    "matched_ada_ece.csv": "c983352c72f5faa2cfdc27f65c9e2c2e7ad1dcde344fe54f60ae040d8b608d78",
    "matched_auc_pr.csv": "02273d9c8c7407655d1bc2cda3914e02821caa503a8f44f7729dde5ae1f04458",
    "matched_auc_prg.csv": "be144879c17198cd297b22e1aa456962ae40882cecd38550cb41f0c797e14682",
    "matched_auc_roc.csv": "2097945c366cf44ee4528daca13f5eb5fc48cc66c7f939466da1db325128f64c",
    "matched_balanced_accuracy.csv": "d6559da7a5329949792e25d7e86c508a27e8d20fcae57ed00b8aeda42d504ae0",
    "matched_brier.csv": "983601f6687f3094253c0a4d53f4a7eeea026753ce655e718ccfb95eb020b9e8",
    "matched_cross_entropy.csv": "5a1565613543b68a794102b115fb0630eadd2dbcd7e1e9ba116295e02002c6dc",
    "matched_delta_brier.csv": "bed79fc7110db33278e4e010bc0371ef67ed3cdace0511e1d62487af7d846035",
    "matched_delta_ce.csv": "888e1061a1f74e433d22b727ea613c90f71806f7eaa8dc5c49b17e800bce76e3",
    "matched_ece.csv": "ed2d861db7bd1bbf302fd9f09a7e88ee38a93d1a2bd000a519d723ec27a38ebe",
    "matched_mce.csv": "46caa304626bbe72da562bd04254ba2f552c92cadd90b330dbc880fceca0475f",
    "metrics.json": "2daf697a0719bc9f56ea23cb7c835e8d1fffbc9f253dc4e99a4df61b91cb304a",
    "population.csv": "b40583423c7f809212c0cb6430364206b3337005718966af2542e10e2eabc74f",
    "sweep.csv": "1de65f18546cd5c99521ad211579e6e8eb7882fc02da222ea87b7e2ed9be0a17",
    "sweep.json": "c52ac0c3eb3e23feb69c64f7730c5cc635415ee7eb4ac2a30852e5e94b590d5d",
    "sweep_small.csv": "49e9064287e7b946a6646cea165abf55112077939e3308c03c23db8b0a282401",
    "sweep_small.json": "d57399702a35d9b6fb3580536ce8b60fb90e1a6bb2186326761716f668b9d997",
    "synthetic/summary.json": "ea4f3422d3d5cbb896cff7f77d7922611ece2274a5a769400ab6e1d93cd4361c",
    "synthetic/sweep_alpha0.5_beta3.csv": "ca8f148cec977cf7ec633dde5288e196e435688abf78c566cecbdf6355622165",
    "synthetic/sweep_alpha1_beta1.csv": "5904affc487ed64e46958347cfc8e01e19ff27627766f1e51077b99bbd123f4a",
    "synthetic/sweep_alpha2_beta2.csv": "ea31a84ea89c5481145278b24df80ee11479ccbabfe576a4cfa24a575b1981c4",
}


def test_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _inputs(tmp_path)
    (tmp_path / "out").mkdir()
    for argv in _COMMANDS:
        assert main(argv) == 0, argv
    pop = generate_population(300, [101, 4, 0])
    write_population_csv(pop, SyntheticScenario(2.0, 0.5), "out/population.csv")
    digests = {
        str(p.relative_to(tmp_path / "out")): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "out").rglob("*")) if p.is_file()
    }
    assert digests == _DIGESTS
