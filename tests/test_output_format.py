"""Golden text of the report writers: CSV dialect, missing values, JSON layout."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calaudit import write_audit_json, write_audit_metric_csvs, write_sweep_csv
from calaudit.dataset import _write_json
from calaudit.harness import AuditReport, SweepResult
from calaudit.stats import BoxplotSummary, PairedTestResult

import oracles

_SUMMARY = BoxplotSummary(
    mean=0.1875, median=0.1875, q1=0.15625, q3=0.21875, iqr=0.0625, n=2
)
_TEST = PairedTestResult(statistic=0.0, p_value=0.5, n_effective=2, method="exact")


def _report() -> AuditReport:
    return AuditReport(
        kind="group",
        runs=(0, 1),
        series={"ece": {"a": [0.125, 0.25], "b": [math.nan, 0.1]}},
        summaries={"ece": {"a": _SUMMARY, "b": None}},
        tests={"ece": {"majority_vs_minority": _TEST, "spare": None}},
        provenance={"notes": ["run 0: group 'b' absent from test set"]},
    )


def _sweep() -> SweepResult:
    return SweepResult(
        ratios=(0.5, 1.0),
        runs=(0, 1),
        rows=(
            (0, 0.5, "ece", 0.125),
            (0, 1.0, "ece", math.nan),
            (1, 0.5, "ece", 0.25),
            (1, 1.0, "ece", 0.1),
        ),
        summaries={"ece": {0.5: _SUMMARY, 1.0: None}},
        tests={"ece": None},
        provenance={"notes": []},
    )


def test_sweep_csv_text():
    buffer = io.StringIO()
    write_sweep_csv(_sweep(), buffer, scenario="alpha1_beta1")
    assert buffer.getvalue() == (
        "scenario,run,ratio,metric,value\n"
        "alpha1_beta1,0,0.5,ece,0.125\n"
        "alpha1_beta1,0,1,ece,\n"
        "alpha1_beta1,1,0.5,ece,0.25\n"
        "alpha1_beta1,1,1,ece,0.1\n"
    )


def test_audit_metric_csv_bytes(tmp_path):
    written = write_audit_metric_csvs(_report(), str(tmp_path / "report.json"))
    assert written == [str(tmp_path / "report_ece.csv")]
    assert (tmp_path / "report_ece.csv").read_bytes() == (
        b"metric,series,run,value\n"
        b"ece,a,0,0.125\n"
        b"ece,a,1,0.25\n"
        b"ece,b,0,\n"
        b"ece,b,1,0.1\n"
    )


def test_audit_json_bytes(tmp_path):
    path = tmp_path / "report.json"
    write_audit_json(_report(), str(path))
    assert path.read_bytes() == b"""{
  "kind": "group",
  "provenance": {
    "notes": [
      "run 0: group 'b' absent from test set"
    ]
  },
  "runs": [
    0,
    1
  ],
  "series": {
    "ece": {
      "a": [
        0.125,
        0.25
      ],
      "b": [
        null,
        0.1
      ]
    }
  },
  "summaries": {
    "ece": {
      "a": {
        "iqr": 0.0625,
        "mean": 0.1875,
        "median": 0.1875,
        "n": 2,
        "q1": 0.15625,
        "q3": 0.21875
      },
      "b": null
    }
  },
  "tests": {
    "ece": {
      "majority_vs_minority": {
        "method": "exact",
        "n_effective": 2,
        "p_value": 0.5,
        "statistic": 0.0
      },
      "spare": null
    }
  }
}
"""


def test_json_that_cannot_be_encoded_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json({"a": 1.0, "b": math.nan}, path)
    assert not path.exists()


def test_sweep_summary_dict():
    assert _sweep().to_dict() == {
        "ratios": [0.5, 1.0],
        "runs": [0, 1],
        "summaries": {
            "ece": {
                "0.5": {
                    "mean": 0.1875, "median": 0.1875, "q1": 0.15625, "q3": 0.21875,
                    "iqr": 0.0625, "n": 2,
                },
                "1": None,
            }
        },
        "tests": {"ece": None},
        "provenance": {"notes": []},
    }


_VALUES = st.one_of(st.just(math.nan), st.floats(allow_nan=False, allow_infinity=False))
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SUMMARIES = st.none() | st.builds(
    BoxplotSummary, _FINITE, _FINITE, _FINITE, _FINITE, _FINITE, st.integers(1, 500)
)
_TESTS = st.none() | st.builds(
    PairedTestResult, _FINITE, st.floats(0.0, 1.0), st.integers(0, 500),
    st.sampled_from(("exact", "normal")),
)
_NAMES = st.sampled_from(("ece", "mce", "ada_ece", "delta_ce", "auc_roc"))
# what the harness records: the config as asdict gives it (tuples), notes, fits
_PROVENANCE = st.fixed_dictionaries({
    "config": st.fixed_dictionaries({
        "metrics": st.lists(_NAMES, unique=True).map(tuple),
        "ratios": st.lists(_FINITE, max_size=4).map(tuple),
        "majority": st.none() | st.text(max_size=5),
    }),
    "notes": st.lists(st.text(max_size=20), max_size=3),
    "match_seeds": st.lists(
        st.fixed_dictionaries({"run": st.integers(0, 9),
                               "seed": st.lists(st.integers(0, 9), max_size=3)}),
        max_size=2,
    ),
})


@st.composite
def _audit_reports(draw) -> AuditReport:
    runs = tuple(draw(st.lists(st.integers(0, 99), unique=True, max_size=5)))
    series_names = draw(st.lists(st.text(min_size=1, max_size=8), unique=True, max_size=3))
    metrics = draw(st.lists(_NAMES, unique=True, max_size=3))
    arms = draw(st.lists(st.text(min_size=1, max_size=8), unique=True, max_size=3))
    return AuditReport(
        kind=draw(st.sampled_from(("group", "size_matched"))),
        runs=runs,
        series={
            m: {s: draw(st.lists(_VALUES, min_size=len(runs), max_size=len(runs)))
                for s in series_names}
            for m in metrics
        },
        summaries={m: {s: draw(_SUMMARIES) for s in series_names} for m in metrics},
        tests={m: {a: draw(_TESTS) for a in arms} for m in metrics},
        provenance=draw(_PROVENANCE),
    )


@st.composite
def _sweep_results(draw) -> SweepResult:
    ratios = sorted(draw(st.lists(
        st.sampled_from((1e-05, 0.0001, 0.1, 0.2, 1 / 3, 0.5, 0.123456789, 1.0)),
        unique_by=lambda r: f"{r:g}", min_size=2,
    )))
    runs = tuple(draw(st.lists(st.integers(0, 99), unique=True, max_size=4)))
    metrics = draw(st.lists(_NAMES, unique=True, max_size=3))
    return SweepResult(
        ratios=tuple(ratios),
        runs=runs,
        rows=tuple((run, r, m, draw(_VALUES)) for run in runs for r in ratios for m in metrics),
        summaries={m: {r: draw(_SUMMARIES) for r in ratios} for m in metrics},
        tests={m: draw(_TESTS) for m in metrics},
        provenance=draw(_PROVENANCE),
    )


def _json_text(data) -> str:
    # text, not dicts: the one conversion rule turns provenance tuples into
    # lists, which the serializers it replaced left to json.dumps
    return json.dumps(data, sort_keys=True, allow_nan=False)


@settings(database=None, deadline=None, max_examples=100)
@given(_audit_reports())
def test_audit_report_dict_matches_oracle(report):
    assert _json_text(report.to_dict()) == _json_text(oracles.audit_report_to_dict(report))


@settings(database=None, deadline=None, max_examples=100)
@given(_sweep_results())
def test_sweep_result_dict_matches_oracle(result):
    assert _json_text(result.to_dict()) == _json_text(oracles.sweep_result_to_dict(result))
