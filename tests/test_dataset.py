import io

import numpy as np
import pytest
from hypothesis import given, settings
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


class TestSubsample:
    def test_full_fraction_is_identity(self):
        s = calibrated_scoreset(50, seed=1)
        again = s.take(subsample_indices(s.labels, 1.0, 4))
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
