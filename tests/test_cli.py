import csv
import json

import numpy as np
import pytest

from calaudit import ScoreSet, write_scoreset_csv
from calaudit.cli import main

from helpers import calibrated_scoreset, make_scoreset


def _write_csv(path, scoreset):
    write_scoreset_csv(scoreset, str(path))
    return str(path)


def _perfect_file(path):
    s = make_scoreset([1.0, 1.0, 0.0, 0.0], [1, 1, 0, 0])
    return _write_csv(path, s)


def _two_group_file(path, seed=0):
    rng = np.random.default_rng(seed)
    scores = rng.random(200)
    s = ScoreSet(
        scores=scores,
        labels=rng.binomial(1, scores),
        groups=np.array(["east"] * 120 + ["west"] * 80),
    )
    return _write_csv(path, s)


def _manifest(tmp_path, n_runs=3, n_val=400, n_test=300, seed=5):
    rows = []
    for r in range(n_runs):
        validation = calibrated_scoreset(n_val, seed=seed + 2 * r)
        rng = np.random.default_rng([seed, r])
        scores = rng.random(n_test)
        test = ScoreSet(
            scores=scores,
            labels=rng.binomial(1, scores),
            groups=rng.choice(["east", "west"], n_test, p=[0.8, 0.2]),
        )
        val_path = _write_csv(tmp_path / f"val{r}.csv", validation)
        test_path = _write_csv(tmp_path / f"test{r}.csv", test)
        rows.append((r, val_path, test_path))
    manifest = tmp_path / "runs.csv"
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_index", "validation_csv_path", "test_csv_path"])
        writer.writerows(rows)
    return str(manifest)


class TestMetricsCommand:
    def test_perfect_file(self, tmp_path):
        src = _perfect_file(tmp_path / "scores.csv")
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--input", src, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        metrics = payload["overall"]["metrics"]
        assert metrics["auc_roc"] == 1.0
        assert metrics["ece"] == 0.0
        assert metrics["brier"] == 0.0
        assert payload["config"]["n_bins"] == 15

    def test_by_group_blocks(self, tmp_path):
        src = _two_group_file(tmp_path / "scores.csv")
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--input", src, "--output", str(out), "--by-group"]) == 0
        payload = json.loads(out.read_text())
        assert set(payload["groups"]) == {"east", "west"}
        assert payload["groups"]["east"]["n"] == 120

    def test_bin_count_is_recorded_and_matters(self, tmp_path):
        src = _two_group_file(tmp_path / "scores.csv", seed=3)
        out10 = tmp_path / "m10.json"
        out15 = tmp_path / "m15.json"
        main(["metrics", "--input", src, "--output", str(out10), "--bins", "10"])
        main(["metrics", "--input", src, "--output", str(out15), "--bins", "15"])
        p10 = json.loads(out10.read_text())
        p15 = json.loads(out15.read_text())
        assert p10["config"]["n_bins"] == 10
        assert p15["config"]["n_bins"] == 15
        assert p10["overall"]["metrics"]["ece"] != p15["overall"]["metrics"]["ece"]

    def test_bad_file_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("score,label\n1.5,0\n")
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--input", str(bad), "--output", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(["metrics", "--input", str(tmp_path / "nope.csv"), "--output", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err


# each shared flag, a value other than its default, and the config key it sets
_SHARED = [
    ("--bins", "10", "n_bins", 10),
    ("--epsilon", "1e-05", "clip_epsilon", 1e-05),
    ("--threshold", "0.4", "threshold", 0.4),
    ("--seed", "7", "seed", 7),
    ("--quantile-rule", "midpoint", "quantile_rule", "midpoint"),
]
_DEFAULT_ECHO = {
    "n_bins": 15, "clip_epsilon": 1e-07, "threshold": 0.5, "seed": 101, "quantile_rule": "linear"
}


def _echo_of(tmp_path, command, flags):
    if command == "metrics":
        out = tmp_path / "metrics.json"
        argv = ["metrics", "--input", _perfect_file(tmp_path / "s.csv"), "--output", str(out)]
    else:
        out = tmp_path / "synth" / "summary.json"
        argv = ["synthetic", "--alpha", "1", "--beta", "1", "--runs", "2", "--n", "400",
                "--ratios", "0.5,1", "--output", str(out.parent)]
    assert main(argv + flags) == 0
    return json.loads(out.read_text())["config"]


@pytest.mark.parametrize("command", ["metrics", "synthetic"])
@pytest.mark.parametrize("changed", [None] + [flag for flag, *_ in _SHARED])
def test_config_echo_holds_every_shared_setting(tmp_path, command, changed):
    flags, expected = [], dict(_DEFAULT_ECHO)
    for flag, text, key, value in _SHARED:
        if flag == changed:
            flags += [flag, text]
            expected[key] = value
    echo = _echo_of(tmp_path, command, flags)
    assert {key: echo[key] for key in expected} == expected
    if command == "synthetic":
        assert set(echo) == set(expected) | {"runs", "n", "ratios"}
    else:
        assert set(echo) == set(expected)


class TestAuditCommand:
    def test_25_run_manifest_yields_paired_vectors(self, tmp_path):
        manifest = _manifest(tmp_path, n_runs=25, n_val=300, n_test=250)
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", manifest, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "group"
        assert payload["runs"] == list(range(25))
        assert len(payload["series"]["ece"]["east"]) == 25
        for metric, tests in payload["tests"].items():
            assert set(tests) == {"majority_vs_minority"}
        assert (tmp_path / "report_ece.csv").exists()
        with open(tmp_path / "report_ece.csv") as fh:
            header = fh.readline().strip()
        assert header == "metric,series,run,value"

    def test_size_matched_three_arms(self, tmp_path):
        manifest = _manifest(tmp_path, n_runs=4, seed=9)
        out = tmp_path / "report.json"
        code = main(["audit", "--manifest", manifest, "--output", str(out), "--size-matched"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "size_matched"
        assert set(payload["tests"]["ece"]) == {"naive", "size_matched", "size_effect"}
        assert set(payload["series"]["ece"]) == {
            "majority",
            "minority",
            "majority_matched",
        }

    def test_same_seed_byte_identical(self, tmp_path):
        manifest = _manifest(tmp_path, n_runs=3, seed=2)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["audit", "--manifest", manifest, "--output", str(out_a), "--seed", "77"])
        main(["audit", "--manifest", manifest, "--output", str(out_b), "--seed", "77"])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_epsilon_that_cannot_clamp_refused_before_reading_files(self, tmp_path, capsys):
        code = main(
            [
                "audit",
                "--epsilon", repr(2.0**-54),
                "--manifest", str(tmp_path / "missing.csv"),
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: clip_epsilon 5.551115123125783e-17 cannot keep scores off 1: "
            "1 - clip_epsilon rounds to 1 (it must exceed 2**-54)\n"
        )

    def test_smallest_epsilon_that_clamps_fits_a_score_of_one(self, tmp_path):
        manifest = _manifest(tmp_path, n_runs=3, seed=6)
        v = calibrated_scoreset(400, seed=1)
        scores = v.scores.copy()
        scores[np.flatnonzero(v.labels == 1)[0]] = 1.0
        _write_csv(tmp_path / "val1.csv", ScoreSet(scores=scores, labels=v.labels))
        out = tmp_path / "report.json"
        argv = ["audit", "--manifest", manifest, "--output", str(out)]
        assert main(argv + ["--epsilon", repr(2.0**-53)]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["config"]["clip_epsilon"] == 2.0**-53
        assert all("error" not in fit for fit in payload["provenance"]["platt"])
        assert payload["series"]["delta_ce"]["east"][1] is not None

    def test_single_class_validation_run_still_audited(self, tmp_path):
        manifest = _manifest(tmp_path, n_runs=3, seed=6)
        v = calibrated_scoreset(400, seed=1)
        _write_csv(
            tmp_path / "val1.csv",
            ScoreSet(scores=v.scores, labels=np.ones(v.n, dtype=int)),
        )
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", manifest, "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["provenance"]["platt"][1] == {
            "run": 1,
            "error": "fit_platt needs both label classes present",
        }
        assert payload["series"]["delta_ce"]["east"][1] is None
        assert payload["series"]["ece"]["east"][1] is not None

    def test_invalid_config_rejected_before_reading_files(self, tmp_path, capsys):
        code = main(
            [
                "audit",
                "--quantile-rule", "bogus",
                "--manifest", str(tmp_path / "missing.csv"),
                "--output", str(tmp_path / "report.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "quantile_rule" in err and "missing.csv" not in err

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("audit", ["--size-matched", "--seed", "-1"], "seed"),
            ("sweep", ["--ratios", "0.1,0.1000001,1"], "distinct"),
            ("sweep", ["--ratios", "1"], "at least two ratios"),
        ],
    )
    def test_bad_seed_or_ratios_rejected_before_reading_files(
        self, tmp_path, capsys, command, flags, message
    ):
        code = main(
            [
                command,
                *flags,
                "--manifest", str(tmp_path / "missing.csv"),
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "missing.csv" not in err

    def test_manifest_errors_enumerated(self, tmp_path, capsys):
        manifest = tmp_path / "runs.csv"
        manifest.write_text("run_index,validation_csv_path\n0,x.csv\n")
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", str(manifest), "--output", str(out)]) == 1
        assert "test_csv_path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input: missing header row"),
            ("run_index\n0\n", "missing required column(s): test_csv_path, validation_csv_path"),
        ],
    )
    def test_manifest_header_errors_use_the_score_reader_wording(
        self, tmp_path, capsys, text, message
    ):
        manifest = tmp_path / "runs.csv"
        manifest.write_text(text)
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", str(manifest), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"

    def test_byte_order_marks_are_dropped(self, tmp_path):
        manifest = _manifest(tmp_path, n_runs=3, seed=3)
        # the same files behind a BOM; in test1.csv it comes before score
        bom = tmp_path / "bom"
        bom.mkdir()
        for path in tmp_path.glob("*.csv"):
            lines = path.read_text().splitlines()
            if path.name == "test1.csv":
                lines = [",".join(row[i] for i in (1, 2, 0, 3)) for row in csv.reader(lines)]
            assert lines[0].startswith(("run_index", "sample_id", "score"))
            (bom / path.name).write_bytes(b"\xef\xbb\xbf" + "\n".join(lines).encode() + b"\n")
        reports = []
        for where in (manifest, str(bom / "runs.csv")):
            out = tmp_path / f"report{len(reports)}.json"
            assert main(["audit", "--manifest", where, "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "row, column",
        [("0, ,test.csv", "validation_csv_path"), ("0,val.csv,", "test_csv_path")],
    )
    def test_blank_manifest_path_names_line_and_column(self, tmp_path, capsys, row, column):
        _write_csv(tmp_path / "val.csv", calibrated_scoreset(20, seed=1))
        _write_csv(tmp_path / "test.csv", calibrated_scoreset(20, seed=2))
        manifest = tmp_path / "runs.csv"
        manifest.write_text(f"run_index,validation_csv_path,test_csv_path\n{row}\n")
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", str(manifest), "--output", str(out)]) == 1
        assert f"{manifest} line 2: {column} is empty" in capsys.readouterr().err

    def test_negative_run_index_names_line_before_reading_files(self, tmp_path, capsys):
        manifest = tmp_path / "runs.csv"
        manifest.write_text(
            "run_index,validation_csv_path,test_csv_path\n-1,missing.csv,missing.csv\n"
        )
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", str(manifest), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {manifest} line 2: run_index must be >= 0\n"

    def test_manifest_row_after_a_blank_line_names_its_physical_line(self, tmp_path, capsys):
        manifest = tmp_path / "runs.csv"
        manifest.write_text(
            "run_index,validation_csv_path,test_csv_path\n\n-1,missing.csv,missing.csv\n"
        )
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", str(manifest), "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {manifest} line 3: run_index must be >= 0\n"

    @pytest.mark.parametrize(
        "column, text, message",
        [
            ("validation_csv_path", "score,label\nx,1\n", "line 2: score 'x' is not a number"),
            ("test_csv_path", "", "empty input: missing header row"),
        ],
    )
    def test_score_file_error_names_its_manifest_row(
        self, tmp_path, capsys, column, text, message
    ):
        _write_csv(tmp_path / "good.csv", calibrated_scoreset(20, seed=1))
        (tmp_path / "bad.csv").write_text(text)
        names = {"validation_csv_path": "good.csv", "test_csv_path": "good.csv"}
        names[column] = "bad.csv"
        manifest = tmp_path / "runs.csv"
        manifest.write_text(
            "run_index,validation_csv_path,test_csv_path\n0,good.csv,good.csv\n"
            f"1,{names['validation_csv_path']},{names['test_csv_path']}\n"
        )
        out = tmp_path / "report.json"
        assert main(["audit", "--manifest", str(manifest), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {manifest} line 3: {column} 'bad.csv': {message}\n"
        )
        assert not out.exists()


class TestSweepCommand:
    def test_outputs_csv_and_summary(self, tmp_path):
        manifest = _manifest(tmp_path, n_runs=3, n_test=600, seed=4)
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--manifest", manifest, "--output", str(out), "--ratios", "0.5,1.0"]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["ratio"] for r in rows} == {"0.5", "1"}
        assert {r["metric"] for r in rows} == {
            "ece",
            "mce",
            "ada_ece",
            "delta_ce",
            "delta_brier",
        }
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert "tests" in summary and "summaries" in summary


    def test_output_that_is_its_own_summary_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(
            ["sweep", "--manifest", str(tmp_path / "missing.csv"), "--output", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"--output {out} is where the summary JSON goes" in err
        assert "missing.csv" not in err and not out.exists()


class TestSyntheticCommand:
    def test_smoke_schema(self, tmp_path):
        out_dir = tmp_path / "synth"
        code = main(
            [
                "synthetic",
                "--alpha", "1,5",
                "--beta", "1,5",
                "--runs", "3",
                "--n", "1000",
                "--ratios", "0.5,1.0",
                "--output", str(out_dir),
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["scenarios"]) == {"alpha1_beta1", "alpha5_beta5"}
        for name in summary["scenarios"]:
            table = out_dir / f"sweep_{name}.csv"
            assert table.exists()
            with open(table) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 3 * 2 * 5  # runs x ratios x metrics
            assert all(r["scenario"] == name for r in rows)

    def test_alpha_beta_mismatch_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "synthetic",
                "--alpha", "1,5",
                "--beta", "1",
                "--runs", "2",
                "--n", "500",
                "--output", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "same number" in capsys.readouterr().err

    def test_invalid_alpha_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "synthetic",
                "--alpha", "-1",
                "--beta", "1",
                "--runs", "2",
                "--n", "500",
                "--output", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_empty_split_rejected_before_any_population_is_drawn(
        self, tmp_path, capsys, monkeypatch
    ):
        import calaudit.synthetic

        def no_population(*args, **kwargs):
            raise AssertionError("population generated")

        monkeypatch.setattr(calaudit.synthetic, "generate_population", no_population)
        out_dir = tmp_path / "o"
        code = main(
            ["synthetic", "--alpha", "1", "--beta", "1", "--n", "2", "--runs", "2",
             "--output", str(out_dir)]
        )
        assert code == 1 and not out_dir.exists()
        assert capsys.readouterr().err == (
            "error: population_size 2 gives an empty validation split: "
            "validation_fraction 0.2 of it rounds to 0 records\n"
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "1", "--runs", "2"], "population_size must be >= 2"),
            (["--n", "-5", "--runs", "2"], "population_size must be >= 2"),
            (["--n", "400", "--runs", "0"], "n_runs must be >= 1"),
        ],
    )
    def test_bad_size_or_run_count_is_refused_by_the_library(
        self, tmp_path, capsys, flags, message
    ):
        # AuditConfig and run_synthetic_experiment hold the rules; the CLI adds
        # none, so every bad --n or --runs exits 1, as --n 2 does
        out_dir = tmp_path / "o"
        code = main(
            ["synthetic", "--alpha", "1", "--beta", "1", *flags, "--output", str(out_dir)]
        )
        assert code == 1 and not out_dir.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unparsable_number_list_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--manifest", "m.csv", "--output", "o.csv", "--ratios", "1,x"])
        assert excinfo.value.code == 2
        assert "cannot parse number list '1,x'" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--input", "x.csv", "--output", "y.json", "--nope"])
        assert excinfo.value.code == 2
