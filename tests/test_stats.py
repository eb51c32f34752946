import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from soundskew.stats import (
    StatsError,
    f_upper_p,
    one_sample_t,
    reg_inc_beta,
    simple_ols,
    summarize,
    two_sample_pooled_t,
    two_sided_t_p,
)
from tests.conftest import beta_quadrature, normal_equation_ols


# A sample of one repeated finite float: its values are all equal, however
# its mean and sum of squares round.  Beyond about 1e306 the sum of a few
# values overflows, which is a different fault from a degenerate sample.
REPEATED_VALUE = st.floats(min_value=-1e300, max_value=1e300,
                           allow_nan=False)
SAMPLE_SIZE = st.integers(2, 30)


def tail_outcome(tail, t, df):
    """A tail's p as its exact bits, or its ``StatsError`` text."""
    try:
        return tail(t, df).hex()
    except StatsError as exc:
        return f"StatsError: {exc}"


class TestRegIncBeta:
    def test_boundaries(self):
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.9])
    def test_uniform_case(self, x):
        assert reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, rel=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0.1, 5.0, size=2)
            x = float(rng.uniform(0.0, 1.0))
            assert reg_inc_beta(a, b, x) \
                == pytest.approx(beta_quadrature(a, b, x), abs=1e-9)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.uniform(0.2, 10.0, size=2)
            x = float(rng.uniform(0.0, 1.0))
            assert reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) \
                == pytest.approx(1.0, abs=1e-12)

    def test_domain_violations(self):
        with pytest.raises(StatsError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(StatsError):
            reg_inc_beta(1.0, -1.0, 0.5)
        with pytest.raises(StatsError):
            reg_inc_beta(1.0, 1.0, 1.5)


class TestTwoSidedTP:
    def test_published_values(self):
        # printed as 0.031 and 0.012 in the source tables
        assert two_sided_t_p(2.6, 8) == pytest.approx(0.0316, abs=5e-4)
        assert two_sided_t_p(2.8, 17) == pytest.approx(0.0123, abs=5e-4)

    def test_zero_t(self):
        for df in (1, 5, 100):
            assert two_sided_t_p(0.0, df) == 1.0

    def test_sign_symmetric(self):
        assert two_sided_t_p(2.1, 9) == pytest.approx(two_sided_t_p(-2.1, 9))

    def test_monotone_decreasing_in_abs_t(self):
        df = 12
        ts = np.linspace(0.0, 6.0, 40)
        ps = [two_sided_t_p(float(t), df) for t in ts]
        assert all(b <= a for a, b in zip(ps, ps[1:]))

    def test_bad_df(self):
        with pytest.raises(StatsError):
            two_sided_t_p(1.0, 0)

    @given(st.floats(), st.integers(1, 10_000))
    @example(0.0, 1)
    @example(-0.0, 10_000)
    @example(5e-324, 7)             # subnormal: t² rounds to 0
    @example(-1e-160, 2)
    @example(1e160, 5)              # t² overflows to inf
    @example(math.inf, 3)
    @example(-math.inf, 1)
    @example(math.nan, 3)
    def test_is_the_closed_form_t_tail(self, t, df):
        """The tail through ``f_upper_p(t², 1, df)`` is, bit for bit, the
        closed form of the two-sided t tail, or fails with its text."""
        def closed_form(t, df):
            if t == 0.0:
                return 1.0
            return reg_inc_beta(df / 2, 0.5, df / (df + t * t))

        assert tail_outcome(two_sided_t_p, t, df) \
            == tail_outcome(closed_form, t, df)


class TestFUpperP:
    def test_zero_f(self):
        assert f_upper_p(0.0, 1, 10) == 1.0

    def test_monotone_decreasing_in_f(self):
        fs = np.linspace(0.0, 30.0, 50)
        ps = [f_upper_p(float(F), 1, 20) for F in fs]
        assert all(b <= a for a, b in zip(ps, ps[1:]))

    def test_equals_squared_t(self):
        # F(1, df) upper tail equals the two-sided t tail at sqrt(F)
        for F, df in ((4.0, 15), (9.3, 40)):
            assert f_upper_p(F, 1, df) \
                == pytest.approx(two_sided_t_p(math.sqrt(F), df), rel=1e-10)


class TestDegenerateSamples:
    """Equal values are judged from the values, not from rounded sums: at
    three values of 0.1 the rounded mean differs from each value, which
    once gave t = -4.1e16 against 0.5."""

    @given(REPEATED_VALUE, SAMPLE_SIZE, REPEATED_VALUE, SAMPLE_SIZE)
    @example(0.1, 3, 0.6, 3)
    @example(33.3, 7, 0.1, 2)
    def test_repeated_value_has_zero_sd_and_no_t_test(self, v, n, w, m):
        assert summarize([v] * n).sd == 0.0
        with pytest.raises(StatsError, match="zero variance"):
            one_sample_t([v] * n, 0.5)
        with pytest.raises(StatsError, match="zero pooled variance"):
            two_sample_pooled_t([v] * n, [w] * m)

    @given(REPEATED_VALUE, st.integers(3, 30))
    @example(0.1, 3)
    @example(40.0, 4)
    @example(0.1, 7)
    def test_repeated_value_has_no_regression(self, v, n):
        varied = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0][:n] + [9.0] * (n - 7)
        with pytest.raises(StatsError, match="constant response"):
            simple_ols(varied, [v] * n)
        with pytest.raises(StatsError, match="constant predictor"):
            simple_ols([v] * n, varied)


class TestOverflow:
    """A mean or sum of squares that overflows raises, and numpy does not
    warn: the squared deviations of values near 1e200 once gave sd = inf,
    so t = 0 and p = 1, and a regression failed as ``x ... got nan``."""

    @pytest.mark.parametrize("call", [
        lambda: one_sample_t([1e200, 2e200, 3e200], 0.5),
        lambda: two_sample_pooled_t([1e200, 2e200, 3e200], [1, 2, 3]),
        lambda: summarize([1e300, 1.5e300, 1e308]),
        lambda: summarize([1e308, 1e308, 1.5e308]),
        lambda: simple_ols([1, 2, 3, 4], [1e200, 1.2e200, 1.5e200, 1.7e200]),
        # each sample's sum of squares is finite, their pooled sum is not
        lambda: two_sample_pooled_t([0, 1.3e154, 0, 1.3e154],
                                    [0, 1.2e154, 0, 1.2e154]),
    ], ids=["one-sample-t", "two-sample-t", "summarize-sd", "summarize-mean",
            "ols-response", "pooled-sum"])
    def test_overflow_raises_without_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StatsError, match="overflow"):
                call()


class TestOneSampleT:
    def test_symmetric_pair_is_null(self):
        result = one_sample_t([0.49, 0.51], 0.5)
        assert result.t == 0.0
        assert result.p == 1.0

    def test_constructed_effect(self):
        # mean 0.55, SD 0.0577, n = 9 gives t close to 2.6 with df 8
        values = 0.55 + 0.0577 * np.array(
            [-1.2, -0.8, -0.4, -0.1, 0.0, 0.1, 0.4, 0.8, 1.2])
        values = 0.55 + (values - values.mean())
        values = values / values.std(ddof=1) * 0.0577
        values = values - values.mean() + 0.55
        result = one_sample_t(values, 0.5)
        assert result.df == 8
        assert result.t == pytest.approx((0.55 - 0.5) / (0.0577 / 3),
                                         rel=1e-10)
        assert result.p == pytest.approx(two_sided_t_p(result.t, 8))

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0.5, 0.1, size=12)
        a = one_sample_t(values, 0.45)
        b = one_sample_t(values + 3.0, 3.45)
        assert a.t == pytest.approx(b.t, rel=1e-9)
        assert a.p == pytest.approx(b.p, rel=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(StatsError):
            one_sample_t([0.5], 0.5)
        with pytest.raises(StatsError, match="variance"):
            one_sample_t([0.5, 0.5], 0.5)


class TestTwoSamplePooledT:
    def test_identical_groups(self):
        result, *_ = two_sample_pooled_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p == 1.0

    def test_hand_computed(self):
        result, sa, sb = two_sample_pooled_t([1, 2, 3], [4, 5, 6])
        assert result.estimate == pytest.approx(-3.0)
        assert result.df == 4
        assert result.t == pytest.approx(-3.0 / math.sqrt(2.0 / 3.0))
        assert (sa.mean, sa.sd, sa.n) == (2.0, 1.0, 3)
        assert (sb.mean, sb.sd, sb.n) == (5.0, 1.0, 3)

    def test_antisymmetric(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, 8)
        b = rng.normal(0.5, 1, 11)
        fwd, *_ = two_sample_pooled_t(a, b)
        rev, *_ = two_sample_pooled_t(b, a)
        assert fwd.t == pytest.approx(-rev.t)
        assert fwd.p == pytest.approx(rev.p)

    def test_equals_ols_on_indicator(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            na, nb = rng.integers(3, 20, size=2)
            a = rng.normal(0, 1, na)
            b = rng.normal(rng.normal(), 1, nb)
            result, *_ = two_sample_pooled_t(a, b)
            x = np.concatenate([np.ones(na), np.zeros(nb)])
            y = np.concatenate([a, b])
            ols = simple_ols(x, y)
            assert ols.slope == pytest.approx(result.estimate, rel=1e-10)
            assert ols.F == pytest.approx(result.t ** 2, rel=1e-10)
            assert ols.p == pytest.approx(result.p, rel=1e-10)

    def test_degenerate(self):
        with pytest.raises(StatsError):
            two_sample_pooled_t([1.0], [2.0, 3.0])
        with pytest.raises(StatsError):
            two_sample_pooled_t([1.0, 1.0], [1.0, 1.0])


class TestSimpleOls:
    def test_exact_fit(self):
        x = np.arange(1.0, 8.0)
        result = simple_ols(x, 2 * x + 1)
        assert result.slope == pytest.approx(2.0)
        assert result.intercept == pytest.approx(1.0)
        assert result.r2 == 1.0
        assert result.p == 0.0

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = rng.normal(0, 2, n)
            if np.allclose(x, x[0]):
                continue
            y = rng.normal(1, 1, n) + rng.normal() * x
            result = simple_ols(x, y)
            slope, intercept, r2 = normal_equation_ols(x, y)
            assert result.slope == pytest.approx(slope, rel=1e-10, abs=1e-10)
            assert result.intercept == pytest.approx(intercept, rel=1e-10,
                                                     abs=1e-10)
            assert result.r2 == pytest.approx(r2, rel=1e-8, abs=1e-10)

    def test_r2_is_squared_correlation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            x = rng.normal(0, 1, n)
            y = rng.normal(0, 1, n) + 0.5 * x
            result = simple_ols(x, y)
            corr = np.corrcoef(x, y)[0, 1]
            assert result.r2 == pytest.approx(corr ** 2, abs=1e-12)

    def test_f_is_slope_t_squared_df1_is_one(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 25)
        y = 0.3 * x + rng.normal(0, 1, 25)
        result = simple_ols(x, y)
        assert result.df1 == 1
        assert result.df2 == 23
        # slope t-stat from the standard error formula
        fitted = result.intercept + result.slope * x
        sse = ((y - fitted) ** 2).sum()
        se = math.sqrt(sse / 23 / ((x - x.mean()) ** 2).sum())
        assert result.F == pytest.approx((result.slope / se) ** 2, rel=1e-10)

    def test_constant_predictor_rejected(self):
        with pytest.raises(StatsError):
            simple_ols([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_underflowing_predictor_variance_rejected(self):
        # unequal values whose squared deviations round to 0
        with pytest.raises(StatsError, match="variance underflows"):
            simple_ols([0.0, 1e-200, 2e-200], [1.0, 2.0, 3.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(StatsError):
            simple_ols([1.0, 2.0], [1.0, 2.0])
