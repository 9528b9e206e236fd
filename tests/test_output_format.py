"""Golden text of the report writers: CSV dialect, missing values, JSON layout."""

import io
import math

import pytest

from calaudit import write_audit_json, write_audit_metric_csvs, write_sweep_csv
from calaudit.dataset import _write_json
from calaudit.harness import AuditReport, SweepResult
from calaudit.stats import BoxplotSummary, PairedTestResult

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
