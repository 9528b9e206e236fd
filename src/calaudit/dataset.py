"""Score-file ingestion, grouped evaluation populations, and seeded resampling."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

UNKNOWN_GROUP = "unknown"

Seed = int | Sequence[int]


class ScoreSetFormatError(ValueError):
    """Raised when an input score file violates the expected CSV layout."""


class DegenerateSampleError(ValueError):
    """Raised when a resampling operation produces an unusable subset."""


# the stored columns; ``_ids`` holds the sample ids, see :class:`_SampleIds`
_COLUMNS = ("scores", "labels", "_ids", "groups")


class _SampleIds:
    """The ``ScoreSet.sample_ids`` field, stored in the instance's ``_ids``.

    A set built without ids stores its records' integer indices there, and
    ``take`` gathers those integers. The first read renders them as the
    read-only ``str`` array ``np.arange(n).astype(str)`` holds for those
    indices and stores that in their place. A sweep reads no id, so its sets
    never build the strings.
    """

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        ids = obj._ids
        if ids.dtype.kind != "U":
            ids = ids.astype(str)
            ids.setflags(write=False)
            object.__setattr__(obj, "_ids", ids)
        return ids

    def __set__(self, obj, value):
        object.__setattr__(obj, "_ids", value)


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Immutable evaluation population: probability scores, binary labels, group tags.

    ``sample_ids`` default to the record index (as strings, rendered when first
    read) and ``groups`` default to :data:`UNKNOWN_GROUP`. Arrays are copied
    and marked read-only, so instances are safe to share across concurrent
    evaluation tasks. Sets compare and hash by identity, as arrays have no
    single truth value to compare by.
    """

    scores: np.ndarray
    labels: np.ndarray
    sample_ids: np.ndarray | None = _SampleIds()
    groups: np.ndarray | None = None

    def __post_init__(self) -> None:
        scores = np.array(self.scores, dtype=np.float64, copy=True).reshape(-1)
        labels = np.array(self.labels, dtype=np.int64, copy=True).reshape(-1)
        n = scores.size
        if n == 0:
            raise ValueError("a ScoreSet must contain at least one record")
        if labels.size != n:
            raise ValueError("scores and labels must have equal length")
        if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
            raise ValueError("scores must lie in [0, 1]")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")

        if self._ids is None:
            sample_ids = np.arange(n)
        else:
            sample_ids = np.array(self._ids, dtype=str, copy=True).reshape(-1)
        if self.groups is None:
            groups = np.full(n, UNKNOWN_GROUP)
        else:
            groups = np.array(self.groups, dtype=str, copy=True).reshape(-1)
        for name, arr in (("sample_ids", sample_ids), ("groups", groups)):
            if arr.size != n:
                raise ValueError(f"{name} must have the same length as scores")

        for name, arr in zip(_COLUMNS, (scores, labels, sample_ids, groups)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def prevalence(self) -> float:
        """Fraction of positive labels."""
        return float(self.labels.mean())

    def take(self, indices: np.ndarray) -> "ScoreSet":
        """Return the sub-population at ``indices`` (order preserved).

        The columns are already validated and read-only, so each is gathered
        once and not checked again.
        """
        idx = np.asarray(indices)
        if idx.size == 0 or (idx.dtype == bool and not idx.any()):
            raise ValueError("a ScoreSet must contain at least one record")
        subset = object.__new__(ScoreSet)
        for name in _COLUMNS:
            column = getattr(self, name)[idx].reshape(-1)
            column.setflags(write=False)
            object.__setattr__(subset, name, column)
        return subset

    def group_counts(self) -> dict[str, int]:
        tags, counts = np.unique(self.groups, return_counts=True)
        return {str(t): int(c) for t, c in zip(tags, counts)}


@contextmanager
def _csv_stream(target: str | IO[str], mode: str) -> Iterator[IO[str]]:
    """``target`` itself when it is already a text stream, else the file it names,
    opened as the csv module expects and closed on exit."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    with open(target, mode, newline="", encoding="utf-8") as fh:
        yield fh


def _write_csv(
    dest: str | Path | IO[str], header: Sequence, rows: Iterable[Sequence]
) -> None:
    """Write every calaudit CSV: a header row, then ``rows``; LF line ends, UTF-8."""
    with _csv_stream(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(payload: dict, path: str | Path) -> None:
    """Write every calaudit JSON document: 2-space indent, sorted keys, no NaN
    (missing values must already be ``None``), trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_scoreset(source: str | IO[str]) -> ScoreSet:
    """Parse a score CSV into a :class:`ScoreSet`.

    The file must carry a header row with at least ``score`` and ``label``
    columns; ``sample_id`` and ``group`` are optional and default as described
    on :class:`ScoreSet`. Any other column is ignored.

    Raises
    ------
    ScoreSetFormatError
        On a missing header/column, a score outside [0, 1], or a label other
        than 0/1; messages name the offending line (header is line 1).
    """
    with _csv_stream(source, "r") as fh:
        return _parse_scores(fh)


def _parse_scores(fh: IO[str]) -> ScoreSet:
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        raise ScoreSetFormatError("empty input: missing header row")
    missing = {"score", "label"} - set(reader.fieldnames)
    if missing:
        raise ScoreSetFormatError(
            "missing required column(s): " + ", ".join(sorted(missing))
        )
    scores: list[float] = []
    labels: list[int] = []
    sample_ids: list[str] = []
    groups: list[str] = []
    for line, row in enumerate(reader, start=2):
        raw_score = (row.get("score") or "").strip()
        try:
            score = float(raw_score)
        except ValueError:
            raise ScoreSetFormatError(
                f"line {line}: score {raw_score!r} is not a number"
            ) from None
        if not 0.0 <= score <= 1.0:
            raise ScoreSetFormatError(f"line {line}: score {score} outside [0, 1]")
        raw_label = (row.get("label") or "").strip()
        if raw_label not in ("0", "1"):
            raise ScoreSetFormatError(f"line {line}: label {raw_label!r} must be 0 or 1")
        scores.append(score)
        labels.append(int(raw_label))
        sample_ids.append((row.get("sample_id") or "").strip() or str(len(sample_ids)))
        groups.append((row.get("group") or "").strip() or UNKNOWN_GROUP)
    if not scores:
        raise ScoreSetFormatError("no data rows")
    return ScoreSet(
        scores=np.array(scores),
        labels=np.array(labels),
        sample_ids=np.array(sample_ids),
        groups=np.array(groups),
    )


_SCORE_COLUMNS = ("sample_id", "score", "label", "group")


def _score_rows(s: ScoreSet) -> Iterator[list]:
    """The rows of the score CSV, after checking that every sample id and group
    tag loads back unchanged: the loader strips both and fills in empty ones."""
    for name, column in (("sample_id", s.sample_ids), ("group", s.groups)):
        for i, value in enumerate(column.tolist()):
            if not value or value != value.strip():
                raise ValueError(
                    f"record {i}: {name} {value!r} is empty or has surrounding "
                    "whitespace, which the score CSV cannot round-trip"
                )
    return (
        [s.sample_ids[i], str(s.scores[i]), int(s.labels[i]), s.groups[i]]
        for i in range(s.n)
    )


def write_scoreset_csv(scoreset: ScoreSet, dest: str | IO[str]) -> None:
    """Write the standard four-column score CSV."""
    _write_csv(dest, _SCORE_COLUMNS, _score_rows(scoreset))


def subsample_indices(labels: np.ndarray, fraction: float, seed: Seed) -> np.ndarray:
    """Sorted indices of a uniform without-replacement subsample of round(fraction*N) records.

    Raises :class:`DegenerateSampleError` when the result would hold fewer than
    two records or a single label class; callers may retry with a fresh seed.
    """
    labels = np.asarray(labels)
    n = labels.size
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    m = int(round(fraction * n))
    if m < 2:
        raise DegenerateSampleError(f"subsample of {m} record(s) is too small")
    idx = np.sort(np.random.default_rng(seed).choice(n, size=m, replace=False))
    chosen = labels[idx]
    if chosen.min() == chosen.max():
        raise DegenerateSampleError("subsample lost one of the label classes")
    return idx


def _match_group_indices(
    labels: np.ndarray,
    majority: str,
    maj_idx: np.ndarray,
    minority: str,
    min_idx: np.ndarray,
    seed: Seed,
) -> np.ndarray:
    """Sorted indices of a subsample of the majority group, of the minority
    group's size, from the sorted indices of each group's records.

    Sampling is stratified by label so the majority's prevalence is preserved
    within one sample per class.
    """
    for tag, idx in ((majority, maj_idx), (minority, min_idx)):
        if idx.size == 0:
            raise ValueError(f"group {tag!r} has no records")
    if min_idx.size > maj_idx.size:
        raise ValueError(
            f"group {minority!r} is larger than {majority!r}; swap the arguments"
        )
    n_target = int(min_idx.size)
    maj_labels = labels[maj_idx]
    pos = maj_idx[maj_labels == 1]
    neg = maj_idx[maj_labels == 0]
    n_pos = int(round(n_target * pos.size / maj_idx.size))
    n_pos = min(n_pos, pos.size)
    n_neg = n_target - n_pos
    if n_neg > neg.size:
        n_neg = int(neg.size)
        n_pos = n_target - n_neg
    rng = np.random.default_rng(seed)
    parts = []
    if n_pos:
        parts.append(rng.choice(pos, size=n_pos, replace=False))
    if n_neg:
        parts.append(rng.choice(neg, size=n_neg, replace=False))
    return np.sort(np.concatenate(parts))
