import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calaudit import InsufficientPairsError, summarize, wilcoxon_signed_rank
from calaudit import stats

import oracles
from oracles import midranks
from helpers import record_bits


class TestMidranks:
    def test_no_ties(self):
        np.testing.assert_array_equal(
            midranks(np.array([0.3, 0.1, 0.2])), [3.0, 1.0, 2.0]
        )

    def test_ties_share_average(self):
        np.testing.assert_array_equal(
            midranks(np.array([1.0, 2.0, 2.0, 3.0])), [1.0, 2.5, 2.5, 4.0]
        )

    def test_all_equal(self):
        np.testing.assert_array_equal(midranks(np.array([5.0] * 4)), [2.5] * 4)


_TIE_PRONE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _few_ties(n: int, seed: int, ties: int, nans: int = 0) -> np.ndarray:
    """``n`` distinct shuffled values, ``ties`` of them then copied over other
    records (the smallest and the largest first) and ``nans`` records set to
    NaN: a sweep-sized array on which only a few records are tied."""
    rng = np.random.default_rng(seed)
    v = rng.permutation(n) / 8.0
    sources = np.concatenate(([0.0, (n - 1) / 8.0], rng.choice(v, ties)))[:ties]
    v[rng.choice(n, ties + nans, replace=False)] = np.concatenate(
        (sources, np.full(nans, np.nan))
    )
    return v


@settings(database=None, deadline=None)
@given(
    st.one_of(
        st.lists(_TIE_PRONE, max_size=60).map(lambda v: np.array(v, dtype=np.float64)),
        st.tuples(
            st.integers(2000, 4000), st.integers(0, 2**32 - 1), st.integers(1, 8),
            st.integers(0, 5),
        ).map(lambda t: _few_ties(*t)),
        st.lists(st.sampled_from([0.0, -0.0]), max_size=60).map(
            lambda v: np.array(v, dtype=np.float64)
        ),
        st.tuples(_TIE_PRONE, st.integers(0, 60)).map(lambda t: np.full(t[1], t[0])),
        st.lists(st.integers(-3, 3), max_size=60).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.integers(-(2**62), 2**62), max_size=60).map(
            lambda v: np.array(v, dtype=np.int64)
        ),
    )
)
@example(np.array([], dtype=np.float64))
@example(np.array([2.5]))
@example(np.array([1, 0], dtype=np.int64))
# sweep-sized: a tie at the smallest value, at the largest, several NaNs, all tied
@example(_few_ties(2500, 1, ties=1))
@example(_few_ties(2500, 2, ties=2))
@example(_few_ties(3000, 3, ties=6, nans=5))
@example(_few_ties(2000, 4, ties=0, nans=4))
@example(np.full(2500, 0.75))
@example(np.full(2500, np.nan))
def test_stable_order_equals_stable_argsort(values):
    expected = np.argsort(values, kind="stable")
    got = stats._stable_order(values)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


class TestWilcoxonSignedRank:
    def test_all_positive_n5(self):
        result = wilcoxon_signed_rank(
            np.array([2.0, 3.0, 4.0, 5.0, 6.0]), np.array([1.0] * 5)
        )
        assert result.method == "exact"
        assert result.statistic == 0.0
        assert result.p_value == 0.0625

    def test_identical_samples_rejected(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InsufficientPairsError, match="insufficient pairs"):
            wilcoxon_signed_rank(x, x)

    def test_two_sided_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.5, 1.0, 15)
        y = rng.normal(0.0, 1.0, 15)
        forward = wilcoxon_signed_rank(x, y)
        backward = wilcoxon_signed_rank(y, x)
        assert forward.statistic == backward.statistic
        assert forward.p_value == backward.p_value

    def test_exact_null_is_cached_and_free_of_pair_order(self):
        rng = np.random.default_rng(11)
        # one decimal, so the absolute differences tie
        x = np.round(rng.normal(0.3, 1.0, 20), 1)
        y = np.round(rng.normal(0.0, 1.0, 20), 1)
        result = wilcoxon_signed_rank(x, y)
        assert result.method == "exact"
        for _ in range(5):
            perm = rng.permutation(x.size)
            assert wilcoxon_signed_rank(x[perm], y[perm]) == result
        d = (x - y)[x != y]
        doubled = np.rint(2.0 * midranks(np.abs(d))).astype(np.int64)
        cached = stats._exact_distribution(tuple(np.sort(doubled).tolist()))
        assert not cached.flags.writeable
        # the convolution folded in record order, outside the cache
        uncached = stats._exact_distribution.__wrapped__(tuple(doubled.tolist()))
        assert cached.tobytes() == uncached.tobytes()

    def test_exact_matches_enumeration_all_patterns(self):
        # every tie-free sign pattern up to n=12, against the 2^n oracle
        for n in range(3, 13):
            ranks = np.arange(1.0, n + 1.0)
            cached: dict[float, float] = {}
            for mask in range(1, 2**n - 1):
                signs = np.array(
                    [1.0 if mask & (1 << i) else -1.0 for i in range(n)]
                )
                diffs = signs * ranks
                result = wilcoxon_signed_rank(diffs, np.zeros(n))
                if result.statistic not in cached:
                    cached[result.statistic] = oracles.wilcoxon_enumerated(diffs)[1]
                assert result.p_value == cached[result.statistic]

    def test_exact_matches_enumeration_with_ties(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(4, 11))
            diffs = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
            expected_w, expected_p = oracles.wilcoxon_enumerated(diffs)
            result = wilcoxon_signed_rank(diffs, np.zeros(n))
            assert result.statistic == expected_w
            assert result.p_value == pytest.approx(expected_p, abs=1e-12)

    def test_zero_differences_discarded(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([1.0, 2.0, 3.0, 3.0, 4.0, 5.0])  # first three are zeros
        result = wilcoxon_signed_rank(x, y)
        assert result.n_effective == 3

    def test_normal_approximation_beyond_cutoff(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.4, 1.0, 40)
        y = rng.normal(0.0, 1.0, 40)
        result = wilcoxon_signed_rank(x, y)
        assert result.method == "normal_approx"
        assert 0.0 <= result.p_value <= 1.0

    def test_exact_and_normal_agree_in_overlap(self):
        # tie-free samples of n in [20, 25]: the approximation sits within 0.02
        import math

        rng = np.random.default_rng(3)
        worst = 0.0
        for trial in range(40):
            n = int(rng.integers(20, 26))
            x = rng.normal(0.2, 1.0, n)
            y = rng.normal(0.0, 1.0, n)
            exact = wilcoxon_signed_rank(x, y)
            assert exact.method == "exact"
            # |W - mu| is the same for W+ and W-, so the min statistic suffices
            mu = n * (n + 1) / 4.0
            sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
            z = max(0.0, abs(exact.statistic - mu) - 0.5) / sigma
            approx_p = math.erfc(z / math.sqrt(2.0))
            worst = max(worst, abs(exact.p_value - approx_p))
        assert worst < 0.02

    def test_nan_pair_rejected(self):
        # a NaN difference would count toward n but enter neither rank sum
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, np.nan], [0.0, 0.0, 0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equally long"):
            wilcoxon_signed_rank(np.array([1.0, 2.0]), np.array([1.0]))


class TestSummarize:
    def test_hand_order_statistics(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.median == 3.0
        assert summary.q1 == 2.0
        assert summary.q3 == 4.0
        assert summary.iqr == 2.0
        assert summary.mean == 3.0
        assert summary.n == 5

    def test_matches_hand_interpolation(self):
        rng = np.random.default_rng(4)
        values = rng.random(17)
        summary = summarize(values)
        q1, med, q3 = oracles.quantiles_by_hand(values, [0.25, 0.5, 0.75])
        assert summary.q1 == pytest.approx(q1, abs=1e-12)
        assert summary.median == pytest.approx(med, abs=1e-12)
        assert summary.q3 == pytest.approx(q3, abs=1e-12)

    def test_constant_values(self):
        summary = summarize([2.5] * 7)
        assert summary.iqr == 0.0
        assert summary.mean == summary.median == 2.5

    def test_single_element(self):
        summary = summarize([0.4])
        assert summary.q1 == summary.median == summary.q3 == 0.4

    def test_ordering_invariant(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert summary.q1 <= summary.median <= summary.q3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            summarize([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            summarize([1.0, float("nan")])


_QUANTILE_METHODS = (
    "inverted_cdf", "averaged_inverted_cdf", "closest_observation",
    "interpolated_inverted_cdf", "hazen", "weibull", "linear", "median_unbiased",
    "normal_unbiased", "lower", "higher", "midpoint", "nearest",
)


@st.composite
def _tables(draw, values, max_runs):
    """A float64 table of 1-6 rows, each with its own share of NaN (missing)
    entries: all, none or a random mix, so rows differ in their counts. Half
    the tables have at least three quarters of ``max_runs`` columns."""
    n_runs = draw(st.integers(0, max_runs) | st.integers(max_runs * 3 // 4, max_runs))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(values, min_size=n_runs, max_size=n_runs))
        missing = draw(
            st.one_of(
                st.just("none"), st.just("all"),
                # about one entry in four missing
                st.lists(
                    st.sampled_from([False, False, False, True]),
                    min_size=n_runs, max_size=n_runs,
                ),
            )
        )
        if missing == "all":
            row = [np.nan] * n_runs
        elif missing != "none":
            row = [np.nan if gone else v for v, gone in zip(row, missing)]
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_runs)


def _one_row(call):
    """``call()``'s result, or the type and message of the ``ValueError`` it raises."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


_SUMMARY_VALUES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(0.0, 1.0).map(lambda v: round(v, 1)),  # ties
    st.sampled_from([0.0, -0.0, 0.25]),
)


@settings(database=None, deadline=None)
@given(
    _tables(st.one_of(_SUMMARY_VALUES, st.just(np.inf)), max_runs=40),
    st.sampled_from(_QUANTILE_METHODS),
)
@example(np.full((2, 3), np.nan), "linear")
@example(np.array([[0.1, np.nan, 0.3], [np.inf, 1.0, 2.0]]), "linear")
def test_summaries_equal_one_row_summaries(table, method):
    """``stats._summaries`` gives every row the summary that the old
    ``summarize`` gives its non-NaN values (``None`` when there are none)."""
    expected = [
        _one_row(lambda: oracles.summarize_one_row(row[~np.isnan(row)], method))
        if (~np.isnan(row)).any() else None
        for row in table
    ]
    errors = [e for e in expected if isinstance(e, tuple)]
    got = _one_row(lambda: stats._summaries(table, method))
    if errors:
        assert got == errors[0] == (ValueError, "summarize needs finite values")
        return
    assert [record_bits(s) for s in got] == [record_bits(s) for s in expected]
    for row, summary in zip(table, got):
        if summary is not None:
            assert {type(v) for k, v in vars(summary).items() if k != "n"} == {float}
            # the public call is the one-row case
            assert record_bits(summarize(row[~np.isnan(row)], method)) == record_bits(summary)


@settings(database=None, deadline=None)
@given(st.lists(st.one_of(_SUMMARY_VALUES, st.just(np.nan), st.just(-np.inf)), max_size=30))
def test_summarize_refuses_what_it_refused(values):
    expected = _one_row(lambda: oracles.summarize_one_row(values))
    got = _one_row(lambda: summarize(values))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert record_bits(got) == record_bits(expected)


_DIFFERENCES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, np.inf, -np.inf]),
    st.floats(-3.0, 3.0).map(lambda v: round(v, 1)),  # ties
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(database=None, deadline=None)
@given(_tables(_DIFFERENCES, max_runs=36))
@example(np.array([[1.0, -2.0, 0.0, np.nan, 3.0], [0.0, -0.0, 1.0, np.nan, np.nan]]))
@example(np.arange(1.0, 31.0).reshape(1, 30) * np.where(np.arange(30) % 3, 1.0, -1.0))
# 3, 1, 3 and 0 kept differences: the two rows of 3 are not adjacent, so their
# block is a gathered copy
@example(
    np.array(
        [
            [1.0, -1.0, 2.0, np.nan, 0.0],
            [0.0, 4.0, np.nan, -0.0, np.nan],
            [-3.0, np.nan, 3.0, 3.0, 0.0],
            [0.0, -0.0, np.nan, np.nan, np.nan],
        ]
    )
)
def test_signed_rank_tests_equal_one_row_tests(diffs):
    """``stats._signed_rank_tests`` gives every row the result (or the
    ``InsufficientPairsError`` and its text) of the old test on that row's
    non-NaN differences, on both sides of the exact/normal cutoff."""
    got = stats._signed_rank_tests(diffs)
    assert len(got) == len(diffs)
    for row, result in zip(diffs, got):
        d = row[~np.isnan(row)]
        try:
            expected = oracles.wilcoxon_one_row(d, np.zeros(d.size))
        except InsufficientPairsError as exc:
            assert type(result) is InsufficientPairsError
            assert str(result) == str(exc)
            with pytest.raises(InsufficientPairsError) as raised:
                wilcoxon_signed_rank(d, np.zeros(d.size))
            assert str(raised.value) == str(exc)
            continue
        assert record_bits(result) == record_bits(expected)
        assert type(result.statistic) is type(result.p_value) is float
        assert record_bits(wilcoxon_signed_rank(d, np.zeros(d.size))) == record_bits(expected)
