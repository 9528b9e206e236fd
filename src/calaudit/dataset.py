"""Score-file ingestion, grouped evaluation populations, and seeded resampling."""

from __future__ import annotations

import csv
import itertools
import json
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

UNKNOWN_GROUP = "unknown"

Seed = int | Sequence[int]


class ScoreSetFormatError(ValueError):
    """Raised when an input score file violates the expected CSV layout."""


class DegenerateSampleError(ValueError):
    """Raised when a resampling operation produces an unusable subset."""


class ScoreSet:
    """Immutable evaluation population: probability scores, binary labels, group tags.

    ``sample_ids`` default to the record index and ``groups`` to
    :data:`UNKNOWN_GROUP`, both rendered as strings when first read: until
    then a set built without them stores ``None`` for each, and a set taken
    from one stores the taken record indices for the ids. Arrays are copied
    and marked read-only, so instances are safe to share across concurrent
    evaluation tasks. A derived set (:meth:`take`, ``apply_miscalibration``)
    gathers or shares its parent's columns, ids and tags included, without
    checking them again. Sets compare and hash by identity, as arrays have no
    single truth value to compare by.
    """

    def __init__(self, scores, labels, sample_ids=None, groups=None) -> None:
        scores = np.array(scores, dtype=np.float64, copy=True).reshape(-1)
        labels = np.array(labels, dtype=np.int64, copy=True).reshape(-1)
        n = scores.size
        if n == 0:
            raise ValueError("a ScoreSet must contain at least one record")
        if labels.size != n:
            raise ValueError("scores and labels must have equal length")
        if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
            raise ValueError("scores must lie in [0, 1]")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("labels must be 0 or 1")

        if sample_ids is not None:
            sample_ids = np.array(sample_ids, dtype=str, copy=True).reshape(-1)
        if groups is not None:
            groups = np.array(groups, dtype=str, copy=True).reshape(-1)
        for name, arr in (("sample_ids", sample_ids), ("groups", groups)):
            if arr is not None and arr.size != n:
                raise ValueError(f"{name} must have the same length as scores")
        self._store(scores, labels, sample_ids, groups)

    def _store(self, scores, labels, sample_ids, groups) -> "ScoreSet":
        """Set the columns, each marked read-only; a default column is ``None``
        (or, for the ids, integer record indices)."""
        names = ("scores", "labels", "_sample_ids", "_groups")
        for name, column in zip(names, (scores, labels, sample_ids, groups)):
            if column is not None:
                column.setflags(write=False)
            object.__setattr__(self, name, column)
        return self

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"ScoreSet(n={self.n}, prevalence={self.prevalence:g})"

    @property
    def sample_ids(self) -> np.ndarray:
        ids = self._sample_ids
        if ids is None or ids.dtype.kind != "U":
            ids = (np.arange(self.n) if ids is None else ids).astype(str)
            self._store(self.scores, self.labels, ids, self._groups)
        return ids

    @property
    def groups(self) -> np.ndarray:
        if self._groups is None:
            self._store(self.scores, self.labels, self._sample_ids, np.full(self.n, UNKNOWN_GROUP))
        return self._groups

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
        once and not checked again. A set built without ids gives the taken
        record indices as ids, so they still name the parent's records.
        """
        idx = np.asarray(indices)
        if idx.size == 0 or (idx.dtype == bool and not idx.any()):
            raise ValueError("a ScoreSet must contain at least one record")
        scores, labels, ids, groups = (
            None if c is None else c[idx].reshape(-1)
            for c in (self.scores, self.labels, self._sample_ids, self._groups)
        )
        if ids is None:
            # the record indices np.arange(n)[idx] would gather, without building
            # all n: on a 100k-record set that cost more than the gathers
            if idx.dtype == bool:
                ids = np.flatnonzero(idx)
            elif idx.min() < 0:
                ids = idx.reshape(-1) % self.n
            else:
                # a copy, not the modulo pass: the taken set freezes its ids,
                # and idx may be the caller's array
                ids = idx.reshape(-1).copy()
        return object.__new__(ScoreSet)._store(scores, labels, ids, groups)

    def _with_scores(self, scores: np.ndarray) -> "ScoreSet":
        """This set with ``scores``, a valid float64 column of its length, in
        place of its own; the other columns are shared."""
        return object.__new__(ScoreSet)._store(scores, self.labels, self._sample_ids, self._groups)

    def group_counts(self) -> dict[str, int]:
        tags, counts = np.unique(self.groups, return_counts=True)
        return {str(t): int(c) for t, c in zip(tags, counts)}


@contextmanager
def _csv_stream(target: str | Path | IO[str], mode: str) -> Iterator[IO[str]]:
    """``target`` itself when it is already a text stream, else the file it names,
    opened as the csv module expects (UTF-8, no newline translation) and closed
    on exit."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    with open(target, mode, newline="", encoding="utf-8") as fh:
        yield fh


def _csv_records(
    source: str | Path | IO[str], required: Iterable[str], where: str = ""
) -> Iterator[tuple[int, dict]]:
    """``(line, row)`` for each data row of the CSV at ``source``, after
    checking that the header is present and holds every ``required`` column.
    ``line`` is the physical line on which the row ends, counted from 1 at the
    header: blank lines count, and so does every line of a quoted field that
    spans lines. Header errors start with ``where``.

    A UTF-8 byte-order mark, read as U+FEFF, is dropped from the start of a
    file and of a stream alike; files are written without one."""
    with _csv_stream(source, "r") as fh:
        lines = iter(fh)
        first = next(lines, "").removeprefix("\ufeff")
        reader = csv.DictReader(itertools.chain([first] if first else [], lines))
        if reader.fieldnames is None:
            raise ScoreSetFormatError(f"{where}empty input: missing header row")
        missing = set(required) - set(reader.fieldnames)
        if missing:
            raise ScoreSetFormatError(
                f"{where}missing required column(s): " + ", ".join(sorted(missing))
            )
        for row in reader:
            yield reader.line_num, row


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
    (missing values must already be ``None``), trailing newline. The text is
    encoded before the file is opened, so a payload that cannot be written
    leaves no partial file."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_scoreset(source: str | Path | IO[str]) -> ScoreSet:
    """Parse a score CSV into a :class:`ScoreSet`.

    The file must carry a header row with at least ``score`` and ``label``
    columns; ``sample_id`` and ``group`` are optional and default as described
    on :class:`ScoreSet`. Any other column is ignored.

    Raises
    ------
    ScoreSetFormatError
        On a missing header/column, a score outside [0, 1], or a label other
        than 0/1; messages name the physical line on which the offending row
        ends (the header is line 1).
    """
    scores: list[float] = []
    labels: list[int] = []
    sample_ids: list[str] = []
    groups: list[str] = []
    for line, row in _csv_records(source, ("score", "label")):
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
    # ScoreSet converts (and so copies) each column once
    return ScoreSet(scores, labels, sample_ids, groups)


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

    The draw is ``choice(N, size=m, replace=False)`` from the seed's generator;
    its indices are put in order by marking them in an ``N``-record mask and
    reading the mask's positions back, which gives the array that sorting them
    would, in linear time.

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
    if m == n:
        # every record, which is what any seed's draw would return once sorted
        idx = np.arange(n)
    else:
        drawn = np.zeros(n, dtype=bool)
        drawn[np.random.default_rng(seed).choice(n, size=m, replace=False)] = True
        idx = np.flatnonzero(drawn)
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

    Stratified by label: round(n * P / N) of the minority's n records come from
    the majority's P positives of N; as n <= N, neither class runs short.
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
    n_neg = n_target - n_pos
    rng = np.random.default_rng(seed)
    parts = []
    if n_pos:
        parts.append(rng.choice(pos, size=n_pos, replace=False))
    if n_neg:
        parts.append(rng.choice(neg, size=n_neg, replace=False))
    return np.sort(np.concatenate(parts))
