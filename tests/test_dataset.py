import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calaudit import (
    DegenerateSampleError,
    ScoreSet,
    ScoreSetFormatError,
    UNKNOWN_GROUP,
    load_scoreset,
    match_group_size,
    subsample,
    write_scoreset_csv,
)

from helpers import calibrated_scoreset, make_scoreset


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

    def test_with_scores_validates_range(self):
        s = make_scoreset([0.1, 0.2], [0, 1])
        with pytest.raises(ValueError):
            s.with_scores(np.array([0.5, 1.2]))


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
        again = subsample(s, 1.0, seed=4)
        np.testing.assert_array_equal(again.scores, s.scores)
        np.testing.assert_array_equal(again.sample_ids, s.sample_ids)

    def test_ten_percent_of_20000(self):
        s = calibrated_scoreset(20_000, seed=2)
        assert subsample(s, 0.1, seed=0).n == 2_000

    def test_different_seeds_differ(self):
        s = calibrated_scoreset(200, seed=3)
        a = subsample(s, 0.5, seed=1)
        b = subsample(s, 0.5, seed=2)
        assert a.n == b.n == 100
        assert set(a.sample_ids) != set(b.sample_ids)

    def test_same_seed_identical(self):
        s = calibrated_scoreset(200, seed=3)
        a = subsample(s, 0.3, seed=11)
        b = subsample(s, 0.3, seed=11)
        np.testing.assert_array_equal(a.sample_ids, b.sample_ids)

    def test_single_class_result_raises(self):
        s = make_scoreset([0.1, 0.2, 0.3, 0.9], [0, 0, 0, 1])
        with pytest.raises(DegenerateSampleError):
            # 2-record draws from this set often lose the lone positive
            for seed in range(50):
                subsample(s, 0.5, seed=seed)

    def test_fraction_out_of_range(self):
        s = calibrated_scoreset(10, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            subsample(s, 0.0, seed=0)

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
        t = subsample(s, 1.0, seed=123)
        for metric in (roc_auc, pr_auc, pr_auc_gain, brier):
            assert metric(t) == metric(s)
        assert balanced_accuracy(t, 0.5) == balanced_accuracy(s, 0.5)
        assert cross_entropy(t, 1e-7) == cross_entropy(s, 1e-7)
        assert ece(t, bin_scores(t)) == ece(s, bin_scores(s))
        assert mce(t, bin_scores(t)) == mce(s, bin_scores(s))
        assert ada_ece(t, 15) == ada_ece(s, 15)


class TestMatchGroupSize:
    def test_matches_minority_count(self):
        rng = np.random.default_rng(0)
        groups = ["big"] * 400 + ["small"] * 20
        s = make_scoreset(rng.random(420), rng.integers(0, 2, 420), groups=groups)
        matched = match_group_size(s, "big", "small", seed=0)
        assert matched.n == 20
        assert set(matched.groups) == {"big"}

    def test_equal_sizes_return_whole_group(self):
        rng = np.random.default_rng(1)
        groups = ["big"] * 30 + ["small"] * 30
        s = make_scoreset(rng.random(60), rng.integers(0, 2, 60), groups=groups)
        matched = match_group_size(s, "big", "small", seed=5)
        big = s.filter_group("big")
        assert sorted(matched.sample_ids) == sorted(big.sample_ids)

    def test_prevalence_preserved_within_one(self):
        rng = np.random.default_rng(2)
        labels = np.array([1] * 50 + [0] * 50 + list(rng.integers(0, 2, 20)))
        groups = ["big"] * 100 + ["small"] * 20
        s = make_scoreset(rng.random(120), labels, groups=groups)
        matched = match_group_size(s, "big", "small", seed=3)
        # majority prevalence is exactly 0.5, so 20 matched records hold 10 +/- 1
        assert matched.n == 20
        assert abs(int(matched.labels.sum()) - 10) <= 1

    def test_swapped_arguments_instruct(self):
        rng = np.random.default_rng(3)
        groups = ["big"] * 40 + ["small"] * 10
        s = make_scoreset(rng.random(50), rng.integers(0, 2, 50), groups=groups)
        with pytest.raises(ValueError, match="swap"):
            match_group_size(s, "small", "big", seed=0)

    def test_absent_group(self):
        s = make_scoreset([0.1, 0.9], [0, 1], groups=["big", "big"])
        with pytest.raises(ValueError, match="no records"):
            match_group_size(s, "big", "small", seed=0)
