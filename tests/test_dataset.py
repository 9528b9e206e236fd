import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calaudit import (
    AuditRun,
    DegenerateSampleError,
    ScoreSet,
    ScoreSetFormatError,
    load_scoreset,
    subsample_indices,
    write_scoreset_csv,
)
from calaudit.dataset import UNKNOWN_GROUP

import oracles
from helpers import calibrated_scoreset, make_scoreset, match_indices


class TestScoreSet:
    def test_basic_invariants(self):
        s = make_scoreset([0.2, 0.9], [0, 1])
        assert s.n == 2
        assert s.prevalence == 0.5
        assert list(s.groups) == [UNKNOWN_GROUP, UNKNOWN_GROUP]

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_scoreset([0.2, 1.5], [0, 1])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            make_scoreset([0.2, 0.5], [0, 2])

    # casting NaN to the integer label column warns before the check rejects it
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.parametrize("bad", [2.0, np.nan])
    def test_rejects_float_labels_other_than_zero_or_one(self, bad):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            ScoreSet(scores=np.array([0.2, 0.5]), labels=np.array([0.0, bad]))

    def test_accepts_negative_zero_label(self):
        s = ScoreSet(scores=np.array([0.2, 0.5]), labels=np.array([-0.0, 1.0]))
        assert s.labels.tolist() == [0, 1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one record"):
            ScoreSet(scores=np.array([]), labels=np.array([]))

    def test_arrays_are_read_only(self):
        s = make_scoreset([0.2, 0.9], [0, 1])
        with pytest.raises(ValueError):
            s.scores[0] = 0.5

    @pytest.mark.parametrize("name", ["scores", "labels", "sample_ids", "groups"])
    def test_columns_cannot_be_reassigned_or_deleted(self, name):
        s = make_scoreset([0.2, 0.9], [0, 1])
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(s, name, np.array([1, 0]))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(s, name)

    def test_take_preserves_alignment(self):
        s = make_scoreset([0.1, 0.2, 0.3], [0, 1, 0], groups=["a", "b", "a"])
        sub = s.take(np.array([2, 0]))
        assert list(sub.scores) == [0.3, 0.1]
        assert list(sub.groups) == ["a", "a"]

    @pytest.mark.parametrize(
        "empty", [np.array([], dtype=int), [], np.zeros(3, dtype=bool)]
    )
    def test_take_of_no_record_raises(self, empty):
        s = make_scoreset([0.1, 0.2, 0.3], [0, 1, 0])
        with pytest.raises(ValueError, match="at least one record"):
            s.take(empty)

    def test_take_is_read_only(self):
        sub = make_scoreset([0.1, 0.2, 0.3], [0, 1, 0]).take(np.array([2, 0]))
        for name in ("scores", "labels", "sample_ids", "groups"):
            with pytest.raises(ValueError):
                getattr(sub, name)[0] = getattr(sub, name)[1]

    def test_default_ids_render_after_two_takes(self):
        n = 12
        s = ScoreSet(scores=np.linspace(0.0, 1.0, n), labels=np.arange(n) % 2)
        i = np.array([1, 3, 4, 7, 9, 10, 11])
        j = np.array([0, 2, 5, 6])
        assert vars(s)["_sample_ids"] is None
        np.testing.assert_array_equal(vars(s.take(i))["_sample_ids"], i)
        taken = s.take(i).take(j)
        expected = np.arange(n).astype(str)[i][j]
        ids = taken.sample_ids
        np.testing.assert_array_equal(ids, expected)
        assert ids.dtype == expected.dtype and ids.dtype.kind == "U"
        assert not ids.flags.writeable
        buffer = io.StringIO()
        write_scoreset_csv(taken, buffer)
        assert buffer.getvalue() == (
            "sample_id,score,label,group\n"
            "1,0.09090909090909091,1,unknown\n"
            "4,0.36363636363636365,0,unknown\n"
            "10,0.9090909090909092,0,unknown\n"
            "11,1.0,1,unknown\n"
        )

    @pytest.mark.parametrize(
        "idx", [[3, -1, 0], [True, False, True, False, True], np.array([[4, 1], [0, 2]])]
    )
    def test_taken_default_ids_name_the_parents_records(self, idx):
        s = ScoreSet(scores=np.linspace(0.0, 1.0, 5), labels=np.arange(5) % 2)
        expected = np.arange(5).astype(str)[np.asarray(idx)].reshape(-1)
        np.testing.assert_array_equal(s.take(idx).sample_ids, expected)

    @pytest.mark.parametrize(
        "idx", [np.array([4, 0, 2]), np.array([-5, 3, -1]), np.array([[4, -1], [0, 2]])]
    )
    def test_take_leaves_the_callers_indices_as_they_were(self, idx):
        s = ScoreSet(scores=np.linspace(0.0, 1.0, 5), labels=np.arange(5) % 2)
        given = idx.copy()
        ids = vars(s.take(idx))["_sample_ids"]
        # the set's ids are the parent's record indices, frozen in a copy of
        # their own: the caller's array stays writeable and as it was
        assert ids.dtype == given.dtype
        np.testing.assert_array_equal(ids, given.reshape(-1) % 5)
        assert idx.flags.writeable
        idx[...] = 1
        np.testing.assert_array_equal(ids, given.reshape(-1) % 5)

    def test_default_groups_render_on_first_read(self):
        n = 12
        s = ScoreSet(scores=np.linspace(0.0, 1.0, n), labels=np.arange(n) % 2)
        sub = s.take(np.array([1, 3, 4, 7, 9, 10, 11]))
        assert vars(s)["_groups"] is None and vars(sub)["_groups"] is None
        j = np.array([0, 2, 5, 6])
        before = sub.take(j)
        groups = sub.groups
        expected = np.full(sub.n, UNKNOWN_GROUP)
        assert groups.dtype == expected.dtype
        np.testing.assert_array_equal(groups, expected)
        assert not groups.flags.writeable
        after = sub.take(j)
        for taken in (before, after):
            assert taken.groups.dtype == expected.dtype
            np.testing.assert_array_equal(taken.groups, expected[j])
        explicit = ScoreSet(scores=s.scores, labels=s.labels, groups=np.full(n, UNKNOWN_GROUP))
        texts = []
        for t in (s, explicit):
            buffer = io.StringIO()
            write_scoreset_csv(t, buffer)
            texts.append(buffer.getvalue())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("ids", [["b7", "a", "zz"], [5, 60, 7]])
    def test_explicit_ids_stored_as_given_strings(self, ids):
        s = ScoreSet(scores=np.array([0.1, 0.5, 0.9]), labels=np.array([0, 1, 1]), sample_ids=ids)
        expected = np.array(ids, dtype=str)
        assert s.sample_ids.dtype == expected.dtype
        np.testing.assert_array_equal(s.sample_ids, expected)
        assert not s.sample_ids.flags.writeable
        np.testing.assert_array_equal(s.take(np.array([2, 0])).sample_ids, expected[[2, 0]])

    def test_take_equals_a_fresh_scoreset(self):
        s = ScoreSet(
            scores=np.array([0.1, 0.2, 0.3, 0.4]),
            labels=np.array([0, 1, 0, 1]),
            sample_ids=np.array(["a", "bb", "ccc", "d"]),
            groups=np.array(["x", "y", "x", "long-tag"]),
        )
        for idx in (np.array([3, 0, 3]), np.array([True, False, True, True])):
            sub = s.take(idx)
            fresh = ScoreSet(
                scores=s.scores[idx],
                labels=s.labels[idx],
                sample_ids=s.sample_ids[idx],
                groups=s.groups[idx],
            )
            assert sub.n == fresh.n
            for name in ("scores", "labels", "sample_ids", "groups"):
                got, want = getattr(sub, name), getattr(fresh, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_compares_and_hashes_by_identity(self):
        s = make_scoreset([0.1, 0.2], [0, 1])
        assert s == s
        assert (s == s.take(np.arange(s.n))) is False
        assert len({s, s, s.take(np.arange(s.n))}) == 2
        assert len({AuditRun(0, s, s), AuditRun(1, s, s)}) == 2


class TestLoadScoreset:
    def test_two_row_file(self):
        s = load_scoreset(io.StringIO("score,label\n0.2,0\n0.9,1\n"))
        assert s.n == 2
        assert s.prevalence == 0.5

    def test_score_out_of_bounds_names_line(self):
        src = io.StringIO("score,label\n0.2,0\n1.5,1\n")
        with pytest.raises(ScoreSetFormatError, match="line 3"):
            load_scoreset(src)

    def test_non_numeric_score_names_line(self):
        with pytest.raises(ScoreSetFormatError, match="line 2"):
            load_scoreset(io.StringIO("score,label\noops,0\n"))

    def test_bad_label_names_line(self):
        with pytest.raises(ScoreSetFormatError, match="line 2.*label"):
            load_scoreset(io.StringIO("score,label\n0.5,2\n"))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("score,label\n\n0.5,2\n", 3),  # after a blank line
            ("score,label\n0.2,0\n\n\n0.5,x\n", 5),
            ("score,label\r\n0.2,0\r\n\r\n0.5,2\r\n", 4),
            # after a quoted sample id that spans two lines
            ('sample_id,score,label\n"a\nb",0.2,0\nc,0.5,3\n', 4),
        ],
        ids=["blank-line", "two-blank-lines", "crlf-blank-line", "two-line-id"],
    )
    @pytest.mark.parametrize("from_file", [False, True], ids=["stream", "file"])
    def test_error_names_the_physical_line(self, tmp_path, text, line, from_file):
        source = io.StringIO(text)
        if from_file:
            source = tmp_path / "scores.csv"
            source.write_bytes(text.encode())
        with pytest.raises(ScoreSetFormatError, match=f"^line {line}: label"):
            load_scoreset(source)

    def test_missing_group_column_defaults_unknown(self):
        s = load_scoreset(io.StringIO("score,label\n0.2,0\n0.9,1\n"))
        assert set(s.groups) == {UNKNOWN_GROUP}

    def test_empty_group_token_is_unknown(self):
        s = load_scoreset(io.StringIO("score,label,group\n0.2,0,dark\n0.9,1,\n"))
        assert list(s.groups) == ["dark", UNKNOWN_GROUP]

    def test_missing_required_column(self):
        with pytest.raises(ScoreSetFormatError, match="label"):
            load_scoreset(io.StringIO("score\n0.2\n"))

    def test_patient_id_column_is_ignored(self):
        plain = "sample_id,score,label,group\nx1,0.2,0,a\nx2,0.9,1,b\n"
        extra = "sample_id,patient_id,score,label,group\nx1,p1,0.2,0,a\nx2,p1,0.9,1,b\n"
        s = load_scoreset(io.StringIO(extra))
        expected = load_scoreset(io.StringIO(plain))
        for name in ("scores", "labels", "groups", "sample_ids"):
            np.testing.assert_array_equal(getattr(s, name), getattr(expected, name))
        np.testing.assert_array_equal(s.sample_ids, ["x1", "x2"])

    @pytest.mark.parametrize(
        "header",
        ["sample_id,score,label,group", "score,label,sample_id,group",
         '"sample_id",score,label,group'],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        rows = {"sample_id": ["a", "b"], "score": ["0.2", "0.9"], "label": ["0", "1"],
                "group": ["x", "y"]}
        columns = [c.strip('"') for c in header.split(",")]
        text = "\n".join([header] + [",".join(rows[c][i] for c in columns) for i in (0, 1)])
        path = tmp_path / "scores.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"\n")
        # the mark is dropped by one rule, whether the reader opens the file or
        # is handed a text stream that still holds it
        with open(path, encoding="utf-8", newline="") as fh:
            for s in (load_scoreset(str(path)), load_scoreset(fh),
                      load_scoreset(io.StringIO("\ufeff" + text + "\n"))):
                assert s.sample_ids.tolist() == ["a", "b"]
                assert s.scores.tolist() == [0.2, 0.9]
                assert s.groups.tolist() == ["x", "y"]

    def test_round_trip(self):
        s = make_scoreset([0.25, 0.75], [0, 1], groups=["a", "b"])
        buffer = io.StringIO()
        write_scoreset_csv(s, buffer)
        buffer.seek(0)
        again = load_scoreset(buffer)
        np.testing.assert_array_equal(again.scores, s.scores)
        np.testing.assert_array_equal(again.labels, s.labels)
        np.testing.assert_array_equal(again.groups, s.groups)
        np.testing.assert_array_equal(again.sample_ids, s.sample_ids)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("groups", " a"),
            ("groups", "a\t"),
            ("groups", ""),
            ("sample_ids", "x "),
            ("sample_ids", "\u00a0x"),
            ("sample_ids", ""),
        ],
    )
    def test_tags_that_would_not_load_back_rejected(self, column, value, tmp_path):
        # the loader strips ids and tags and fills in empty ones
        s = ScoreSet(
            scores=np.array([0.25, 0.75]),
            labels=np.array([0, 1]),
            **{column: np.array(["ok", value])},
        )
        name = "group" if column == "groups" else "sample_id"
        with pytest.raises(ValueError, match=f"record 1: {name}"):
            write_scoreset_csv(s, tmp_path / "scores.csv")
        assert not (tmp_path / "scores.csv").exists()


# scores with awkward text forms: the bounds, subnormals, exponent reprs;
# drawing from this short list also makes ties common
_EDGE_SCORES = (0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-05, 1.5e-07, 0.5)
# non-empty printable tags without surrounding whitespace, commas and quotes included
_TAG_CHAR = st.one_of(st.sampled_from(',"\''), st.characters(exclude_categories=("C", "Z")))
_TAGS = st.one_of(
    _TAG_CHAR,
    st.builds(
        lambda first, middle, last: first + middle + last,
        _TAG_CHAR,
        st.text(st.one_of(_TAG_CHAR, st.just(" ")), max_size=6),
        _TAG_CHAR,
    ),
)


@st.composite
def _scoresets(draw) -> ScoreSet:
    n = draw(st.integers(min_value=1, max_value=30))
    column = lambda elements: st.lists(elements, min_size=n, max_size=n)
    scores = draw(column(st.one_of(st.sampled_from(_EDGE_SCORES), st.floats(0.0, 1.0))))
    return ScoreSet(
        scores=np.array(scores),
        labels=np.array(draw(column(st.sampled_from((0, 1))))),
        sample_ids=np.array(draw(column(_TAGS))),
        groups=np.array(draw(column(_TAGS))),
    )


@settings(database=None, deadline=None)
@given(_scoresets())
def test_score_csv_round_trip_property(s):
    buffer = io.StringIO()
    write_scoreset_csv(s, buffer)
    buffer.seek(0)
    again = load_scoreset(buffer)
    np.testing.assert_array_equal(again.scores, s.scores)
    np.testing.assert_array_equal(again.labels, s.labels)
    np.testing.assert_array_equal(again.groups, s.groups)
    np.testing.assert_array_equal(again.sample_ids, s.sample_ids)


# score-CSV texts for the parser oracle: cells that parse, pad, quote or (now
# and then) fail, rows cut short or run long, blank lines and either line end
def _mostly(good, bad):
    """``good``, or ``bad`` one draw in 25."""
    return st.integers(0, 24).flatmap(lambda k: bad if k == 0 else good)


_PAD = st.sampled_from(("", "", " ", "  ", "\t"))
_SCORE_TEXTS = _mostly(
    st.one_of(
        st.floats(0.0, 1.0).map(repr),
        st.sampled_from(_EDGE_SCORES).map(str),
        st.sampled_from(("0", "1", "-0", "1e-7", ".5", "1E-3")),
    ),
    st.sampled_from(("1.0000001", "-1e-9", "nan", "inf", "1e400", "", "x", "0,5", "0.5.1")),
)
_LABEL_TEXTS = _mostly(
    st.sampled_from(("0", "1")), st.sampled_from(("2", "-1", "1.0", "01", "", "x"))
)
_TAG_TEXTS = st.text(st.sampled_from('ab ,"\t\n\u00a0'), max_size=4)
_CELLS = {
    "sample_id": _TAG_TEXTS,
    "score": _SCORE_TEXTS,
    "label": _LABEL_TEXTS,
    "group": _TAG_TEXTS,
    "note": _TAG_TEXTS,
}


@st.composite
def _score_csv_texts(draw) -> str:
    if draw(st.integers(0, 20)) == 0:
        return ""
    required = [c for c in ("score", "label") if draw(st.integers(0, 15))]
    optional = draw(st.lists(st.sampled_from(("sample_id", "group", "note")), unique=True))
    header = draw(st.permutations(required + optional))
    ending = draw(st.sampled_from(("\n", "\r\n")))
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        quoting=draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL))),
        lineterminator=ending,
    )
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 6)) == 0:
            buffer.write(ending)  # a blank line
            continue
        row = [draw(_PAD) + draw(_CELLS[c]) + draw(_PAD) for c in header]
        # now and then a short (< 0) or long (> 0) row
        cut = draw(st.sampled_from((0,) * 12 + (-2, -1, 1, 2)))
        row = row[: len(row) + cut] if cut < 0 else row + ["extra"] * cut
        writer.writerow(row)
    return buffer.getvalue()


def _parsed(parse, text: str):
    """Each column's dtype and bytes, or the exception's type and message."""
    try:
        s = parse(io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)
    return [
        (column.dtype.str, column.tobytes())
        for column in (s.scores, s.labels, s.sample_ids, s.groups)
    ]


# three times the profile's example count: 300 in tier-1, ten times that
# under --hypothesis-profile=ci
@settings(database=None, deadline=None, max_examples=3 * settings.default.max_examples)
@given(_score_csv_texts())
def test_load_scoreset_matches_parser_oracle(text):
    assert _parsed(load_scoreset, text) == _parsed(oracles._parse_scores, text)


@st.composite
def _subsample_inputs(draw):
    """Labels of 1 to 3,000 records at any prevalence (0 and 1 included, so
    that some draws lose a class), a fraction and a draw seed."""
    n = draw(st.integers(1, 3000))
    prevalence = draw(st.sampled_from([0.0, 0.002, 0.5, 0.998, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.binomial(1, prevalence, n)
    fraction = draw(st.floats(0.0, 1.0, exclude_min=True))
    return labels, fraction, draw(st.integers(0, 2**32 - 1))


def _subsample_outcome(subsample, labels, fraction, seed):
    try:
        idx = subsample(labels, fraction, seed)
    except DegenerateSampleError as exc:
        return str(exc)
    return idx.dtype, idx.tobytes()


@settings(database=None, deadline=None)
@given(_subsample_inputs())
@example((np.array([0, 1, 0, 1]), 1.0, 0))  # m == n: every record, no draw
@example((np.array([0, 1, 1, 1]), 0.999, 0))  # rounds to m == n
@example((np.zeros(6, dtype=np.int64), 1.0, 0))  # m == n, one class
@example((np.array([0, 0, 0, 1]), 0.5, 0))  # a 2-record draw that may lose the positive
@example((np.array([0, 1, 1]), 0.4, 0))  # m = 1: too small
@example((np.resize([0, 1], 20_000), 0.9, 101))  # a sweep run's size
def test_subsample_indices_equal_the_sorted_draw(data):
    labels, fraction, seed = data
    got = _subsample_outcome(subsample_indices, labels, fraction, seed)
    assert got == _subsample_outcome(oracles.subsample_indices_sorted, labels, fraction, seed)
    if not isinstance(got, str):
        assert got[0] == np.dtype(np.intp)


class TestSubsample:
    def test_full_fraction_is_identity(self):
        s = calibrated_scoreset(50, seed=1)
        drawn = np.random.default_rng(4).choice(50, size=50, replace=False)
        # 0.995 * 50 rounds to every record as well
        for fraction in (1.0, 0.995):
            idx = subsample_indices(s.labels, fraction, 4)
            assert idx.dtype == drawn.dtype
            np.testing.assert_array_equal(idx, np.arange(50))
            again = s.take(idx)
            np.testing.assert_array_equal(again.scores, s.scores)
            np.testing.assert_array_equal(again.sample_ids, s.sample_ids)

    def test_ten_percent_of_20000(self):
        s = calibrated_scoreset(20_000, seed=2)
        assert s.take(subsample_indices(s.labels, 0.1, 0)).n == 2_000

    def test_different_seeds_differ(self):
        s = calibrated_scoreset(200, seed=3)
        a = s.take(subsample_indices(s.labels, 0.5, 1))
        b = s.take(subsample_indices(s.labels, 0.5, 2))
        assert a.n == b.n == 100
        assert set(a.sample_ids) != set(b.sample_ids)

    def test_same_seed_identical(self):
        s = calibrated_scoreset(200, seed=3)
        a = s.take(subsample_indices(s.labels, 0.3, 11))
        b = s.take(subsample_indices(s.labels, 0.3, 11))
        np.testing.assert_array_equal(a.sample_ids, b.sample_ids)

    def test_single_class_result_raises(self):
        s = make_scoreset([0.1, 0.2, 0.3, 0.9], [0, 0, 0, 1])
        with pytest.raises(DegenerateSampleError):
            # 2-record draws from this set often lose the lone positive
            for seed in range(50):
                s.take(subsample_indices(s.labels, 0.5, seed))
        # a full-size subsample is not drawn, but is checked all the same
        with pytest.raises(DegenerateSampleError, match="lost one of the label classes"):
            subsample_indices(np.zeros(5, dtype=np.int64), 1.0, 0)

    def test_fraction_out_of_range(self):
        s = calibrated_scoreset(10, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            s.take(subsample_indices(s.labels, 0.0, 0))

    def test_metric_equivalence_at_full_fraction(self):
        from calaudit import (
            ada_ece,
            balanced_accuracy,
            bin_scores,
            brier,
            cross_entropy,
            ece,
            mce,
            pr_auc,
            pr_auc_gain,
            roc_auc,
        )

        s = calibrated_scoreset(400, seed=9)
        t = s.take(subsample_indices(s.labels, 1.0, 123))
        for metric in (roc_auc, pr_auc, pr_auc_gain, brier):
            assert metric(t.scores, t.labels) == metric(s.scores, s.labels)
        assert balanced_accuracy(t.scores, t.labels, 0.5) == balanced_accuracy(
            s.scores, s.labels, 0.5
        )
        assert cross_entropy(t.scores, t.labels, 1e-7) == cross_entropy(
            s.scores, s.labels, 1e-7
        )
        for metric in (ece, mce):
            assert metric(t.scores, t.labels, bin_scores(t.scores)) == metric(
                s.scores, s.labels, bin_scores(s.scores)
            )
        assert ada_ece(t.scores, t.labels, 15) == ada_ece(s.scores, s.labels, 15)


@st.composite
def _match_inputs(draw):
    """A majority of 1 to 300 records with any number of positives (none and
    all included), a minority of 1 record up to the majority's size, the two
    groups' records interleaved at random, and a draw seed."""
    n_majority = draw(st.integers(1, 300))
    n_minority = draw(st.integers(1, n_majority))
    n_positive = draw(st.integers(0, n_majority))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    in_majority = rng.permutation(np.arange(n_majority + n_minority) < n_majority)
    labels = rng.integers(0, 2, in_majority.size)
    labels[in_majority] = rng.permutation(np.arange(n_majority) < n_positive)
    groups = np.where(in_majority, "big", "small")
    s = make_scoreset(rng.random(labels.size), labels, groups)
    return s, draw(st.integers(0, 2**32 - 1))


@settings(database=None, deadline=None)
@given(_match_inputs())
@example((make_scoreset([0.5] * 3, [1, 1, 0], ["big", "small", "big"]), 0))
@example((make_scoreset([0.5] * 3, [1, 0, 1], ["big", "small", "big"]), 0))  # one class
@example((make_scoreset([0.5] * 2, [0, 1], ["big", "small"]), 0))  # the whole majority
def test_match_indices_equal_the_clamped_draw(data):
    s, seed = data
    maj_idx, min_idx = (np.flatnonzero(s.groups == t) for t in ("big", "small"))
    got = match_indices(s, "big", "small", seed)
    want = oracles.match_group_indices_clamped(s.labels, maj_idx, min_idx, seed)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


class TestMatchGroupSize:
    def test_matches_minority_count(self):
        rng = np.random.default_rng(0)
        groups = ["big"] * 400 + ["small"] * 20
        s = make_scoreset(rng.random(420), rng.integers(0, 2, 420), groups=groups)
        matched = s.take(match_indices(s, "big", "small", 0))
        assert matched.n == 20
        assert set(matched.groups) == {"big"}

    def test_equal_sizes_return_whole_group(self):
        rng = np.random.default_rng(1)
        groups = ["big"] * 30 + ["small"] * 30
        s = make_scoreset(rng.random(60), rng.integers(0, 2, 60), groups=groups)
        matched = s.take(match_indices(s, "big", "small", 5))
        big = s.take(np.flatnonzero(s.groups == "big"))
        assert sorted(matched.sample_ids) == sorted(big.sample_ids)

    def test_prevalence_preserved_within_one(self):
        rng = np.random.default_rng(2)
        labels = np.array([1] * 50 + [0] * 50 + list(rng.integers(0, 2, 20)))
        groups = ["big"] * 100 + ["small"] * 20
        s = make_scoreset(rng.random(120), labels, groups=groups)
        matched = s.take(match_indices(s, "big", "small", 3))
        # majority prevalence is exactly 0.5, so 20 matched records hold 10 +/- 1
        assert matched.n == 20
        assert abs(int(matched.labels.sum()) - 10) <= 1

    def test_swapped_arguments_instruct(self):
        rng = np.random.default_rng(3)
        groups = ["big"] * 40 + ["small"] * 10
        s = make_scoreset(rng.random(50), rng.integers(0, 2, 50), groups=groups)
        with pytest.raises(ValueError, match="swap"):
            s.take(match_indices(s, "small", "big", 0))

    def test_absent_group(self):
        s = make_scoreset([0.1, 0.9], [0, 1], groups=["big", "big"])
        with pytest.raises(ValueError, match="no records"):
            s.take(match_indices(s, "big", "small", 0))
