"""Score-file ingestion, grouped evaluation populations, and seeded resampling."""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

UNKNOWN_GROUP = "unknown"

ROLE_TRAIN = "train"
ROLE_VALIDATION = "validation"
ROLE_TEST = "test"

Seed = int | Sequence[int]


class ScoreSetFormatError(ValueError):
    """Raised when an input score file violates the expected CSV layout."""


class DegenerateSampleError(ValueError):
    """Raised when a resampling operation produces an unusable subset."""


@dataclass(frozen=True)
class ScoreSet:
    """Immutable evaluation population: probability scores, binary labels, group tags.

    ``sample_ids`` default to the record index, ``patient_ids`` default to the
    sample id, and ``groups`` default to :data:`UNKNOWN_GROUP`. Arrays are
    copied and marked read-only, so instances are safe to share across
    concurrent evaluation tasks.
    """

    scores: np.ndarray
    labels: np.ndarray
    sample_ids: np.ndarray | None = None
    patient_ids: np.ndarray | None = None
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
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")

        if self.sample_ids is None:
            sample_ids = np.arange(n).astype(str)
        else:
            sample_ids = np.array(self.sample_ids, dtype=str, copy=True).reshape(-1)
        if self.patient_ids is None:
            patient_ids = sample_ids
        else:
            patient_ids = np.array(self.patient_ids, dtype=str, copy=True).reshape(-1)
        if self.groups is None:
            groups = np.full(n, UNKNOWN_GROUP)
        else:
            groups = np.array(self.groups, dtype=str, copy=True).reshape(-1)
        for name, arr in (
            ("sample_ids", sample_ids),
            ("patient_ids", patient_ids),
            ("groups", groups),
        ):
            if arr.size != n:
                raise ValueError(f"{name} must have the same length as scores")

        for name, arr in (
            ("scores", scores),
            ("labels", labels),
            ("sample_ids", sample_ids),
            ("patient_ids", patient_ids),
            ("groups", groups),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.scores.size)

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def prevalence(self) -> float:
        """Fraction of positive labels."""
        return float(self.labels.mean())

    def take(self, indices: np.ndarray) -> "ScoreSet":
        """Return the sub-population at ``indices`` (order preserved)."""
        idx = np.asarray(indices)
        return ScoreSet(
            scores=self.scores[idx],
            labels=self.labels[idx],
            sample_ids=self.sample_ids[idx],
            patient_ids=self.patient_ids[idx],
            groups=self.groups[idx],
        )

    def with_scores(self, scores: np.ndarray) -> "ScoreSet":
        """Return a copy with ``scores`` replaced (e.g. after recalibration)."""
        return ScoreSet(
            scores=scores,
            labels=self.labels,
            sample_ids=self.sample_ids,
            patient_ids=self.patient_ids,
            groups=self.groups,
        )

    def filter_group(self, tag: str) -> "ScoreSet":
        """Return the records whose group equals ``tag``."""
        idx = np.flatnonzero(self.groups == tag)
        if idx.size == 0:
            raise ValueError(f"group {tag!r} has no records")
        return self.take(idx)

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


def load_scoreset(source: str | IO[str]) -> ScoreSet:
    """Parse a score CSV into a :class:`ScoreSet`.

    The file must carry a header row with at least ``score`` and ``label``
    columns; ``sample_id``, ``patient_id`` and ``group`` are optional and
    default as described on :class:`ScoreSet`. Unknown columns are ignored.

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
    patient_ids: list[str] = []
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
        sample_id = (row.get("sample_id") or "").strip() or str(len(scores))
        scores.append(score)
        labels.append(int(raw_label))
        sample_ids.append(sample_id)
        patient_ids.append((row.get("patient_id") or "").strip() or sample_id)
        groups.append((row.get("group") or "").strip() or UNKNOWN_GROUP)
    if not scores:
        raise ScoreSetFormatError("no data rows")
    return ScoreSet(
        scores=np.array(scores),
        labels=np.array(labels),
        sample_ids=np.array(sample_ids),
        patient_ids=np.array(patient_ids),
        groups=np.array(groups),
    )


def write_scoreset_csv(scoreset: ScoreSet, dest: str | IO[str]) -> None:
    """Write the standard five-column score CSV."""
    with _csv_stream(dest, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "patient_id", "score", "label", "group"])
        for i in range(scoreset.n):
            writer.writerow(
                [
                    scoreset.sample_ids[i],
                    scoreset.patient_ids[i],
                    str(scoreset.scores[i]),
                    int(scoreset.labels[i]),
                    scoreset.groups[i],
                ]
            )


@dataclass(frozen=True)
class SplitAssignment:
    """Per-record role assignment for one cross-validation run."""

    run_index: int
    outer_fold: int
    inner_fold: int
    roles: np.ndarray

    def __post_init__(self) -> None:
        roles = np.array(self.roles, dtype=str, copy=True).reshape(-1)
        valid = np.isin(roles, (ROLE_TRAIN, ROLE_VALIDATION, ROLE_TEST))
        if not valid.all():
            raise ValueError("roles must be train/validation/test")
        roles.setflags(write=False)
        object.__setattr__(self, "roles", roles)

    def indices(self, role: str) -> np.ndarray:
        return np.flatnonzero(self.roles == role)


def _patient_table(scoreset: ScoreSet):
    """Collapse records to patients: any-positive label, modal group (ties: lexicographic)."""
    patients, rec_patient = np.unique(scoreset.patient_ids, return_inverse=True)
    n_patients = patients.size
    plabels = np.zeros(n_patients, dtype=np.int64)
    np.maximum.at(plabels, rec_patient, scoreset.labels)
    counters = [Counter() for _ in range(n_patients)]
    for pi, grp in zip(rec_patient, scoreset.groups):
        counters[pi][str(grp)] += 1
    pgroups = np.array(
        [sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[0][0] for c in counters],
        dtype=str,
    )
    return patients, rec_patient, plabels, pgroups


def _deal(member_arrays, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    # round-robin within each stratum keeps per-fold stratum counts within one
    folds: list[list[int]] = [[] for _ in range(k)]
    for members in member_arrays:
        members = np.asarray(members)
        perm = members[rng.permutation(members.size)]
        for j, p in enumerate(perm):
            folds[j % k].append(int(p))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def stratified_double_kfold(
    scoreset: ScoreSet, k_outer: int, k_inner: int, seed: Seed
) -> list[SplitAssignment]:
    """Two-stage stratified K-fold split at the patient level.

    The outer K-fold over patients selects the test fold; an inner K-fold over
    the remaining patients selects validation, and everything else is train,
    yielding ``k_outer * k_inner`` runs. Folds are stratified jointly on the
    patient-level label and group (the unknown group is its own stratum), so
    per-fold stratum counts stay within one patient of an even split.
    Deterministic given ``seed``.
    """
    if k_outer < 2 or k_inner < 2:
        raise ValueError("k_outer and k_inner must both be >= 2")
    _, rec_patient, plabels, pgroups = _patient_table(scoreset)
    strata: dict[tuple[int, str], list[int]] = {}
    for i in range(plabels.size):
        strata.setdefault((int(plabels[i]), str(pgroups[i])), []).append(i)
    for (lab, grp), members in strata.items():
        if len(members) < k_outer:
            raise ValueError(
                f"stratum (label={lab}, group={grp!r}) has {len(members)} patient(s); "
                f"need at least {k_outer}"
            )
    outer = _deal(strata.values(), k_outer, np.random.default_rng([_entropy(seed), 0]))
    n_patients = plabels.size
    assignments = []
    for fo in range(k_outer):
        test_mask = np.zeros(n_patients, dtype=bool)
        test_mask[outer[fo]] = True
        rest = [np.asarray(m)[~test_mask[np.asarray(m)]] for m in strata.values()]
        inner = _deal(rest, k_inner, np.random.default_rng([_entropy(seed), 1 + fo]))
        for fi in range(k_inner):
            val_mask = np.zeros(n_patients, dtype=bool)
            val_mask[inner[fi]] = True
            roles = np.full(scoreset.n, ROLE_TRAIN, dtype="<U10")
            roles[test_mask[rec_patient]] = ROLE_TEST
            roles[val_mask[rec_patient]] = ROLE_VALIDATION
            assignments.append(
                SplitAssignment(
                    run_index=fo * k_inner + fi,
                    outer_fold=fo,
                    inner_fold=fi,
                    roles=roles,
                )
            )
    return assignments


def _entropy(seed: Seed) -> int:
    # fold a sequence seed into one integer so it can be extended with stream keys
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    keys = [int(s) for s in seed]
    return int(np.random.SeedSequence(keys).generate_state(1, np.uint64)[0])


def role_subset(
    scoreset: ScoreSet,
    assignment: SplitAssignment,
    role: str,
    drop_unknown_group: bool = False,
) -> ScoreSet:
    """Records holding ``role`` in ``assignment``, optionally without the unknown group."""
    mask = assignment.roles == role
    if drop_unknown_group:
        mask &= scoreset.groups != UNKNOWN_GROUP
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError(f"no records with role {role!r}")
    return scoreset.take(idx)


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


def subsample(scoreset: ScoreSet, fraction: float, seed: Seed) -> ScoreSet:
    """Uniform without-replacement subsample; identity when ``fraction`` is 1."""
    return scoreset.take(subsample_indices(scoreset.labels, fraction, seed))


def _match_group_indices(
    scoreset: ScoreSet, majority: str, minority: str, seed: Seed
) -> np.ndarray:
    groups = scoreset.groups
    maj_idx = np.flatnonzero(groups == majority)
    min_idx = np.flatnonzero(groups == minority)
    for tag, idx in ((majority, maj_idx), (minority, min_idx)):
        if idx.size == 0:
            raise ValueError(f"group {tag!r} has no records")
    if min_idx.size > maj_idx.size:
        raise ValueError(
            f"group {minority!r} is larger than {majority!r}; swap the arguments"
        )
    n_target = int(min_idx.size)
    maj_labels = scoreset.labels[maj_idx]
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


def match_group_size(
    scoreset: ScoreSet, majority: str, minority: str, seed: Seed
) -> ScoreSet:
    """Subsample the majority group down to the minority group's size.

    Sampling is stratified by label so the majority's prevalence is preserved
    within one sample per class. Returns only the subsampled majority records.
    """
    return scoreset.take(_match_group_indices(scoreset, majority, minority, seed))
