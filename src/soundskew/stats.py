"""Classical inference: t-tests, simple OLS with F-test, and their tail kernels.

Every p-value is one tail, ``f_upper_p``: the upper tail of F(df1, df2),
from the regularized incomplete beta function, evaluated by the standard
continued fraction with the symmetry switch at x = (a + 1) / (a + b + 2).
The two-sided t tail at t on df degrees is that tail at F = t² on (1, df);
directionality is read off the sign of the estimate.  Both t-tests build
their result in ``_t_test``.
Each test alone decides, from the values, when it cannot be computed: too
few values, all of them equal (``min == max``, not a rounded sum), or a mean
or sum of squares that overflows.  Overflow is read from the results, under
``np.errstate``, so it raises ``StatsError`` rather than a numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class StatsError(ValueError):
    """Raised for degenerate inference inputs (n too small, equal values)."""


@dataclass(frozen=True)
class GroupSummary:
    mean: float
    sd: float        # sample SD, n-1 denominator
    n: int


@dataclass(frozen=True)
class TTestResult:
    estimate: float  # mean (one-sample) or mean difference (two-sample)
    t: float
    df: int
    p: float


@dataclass(frozen=True)
class OlsResult:
    slope: float
    intercept: float
    F: float | None  # None for a perfect fit (no residual), with p = 0
    df1: int
    df2: int
    p: float
    r2: float


_CF_MAX_ITER = 500
_CF_EPS = 1e-15
_CF_TINY = 1e-300


def _lentz(num: float, c: float, d: float) -> tuple[float, float]:
    """One modified-Lentz update of ``c`` and ``d`` by coefficient ``num``:
    both clamped away from 0, and ``d`` inverted."""
    d = 1.0 + num * d
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    c = 1.0 + num / c
    if abs(c) < _CF_TINY:
        c = _CF_TINY
    return c, 1.0 / d


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, by the modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    _, d = _lentz(-qab * x / qap, 1.0, 1.0)   # the first step moves d only
    c, result = 1.0, d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        c, d = _lentz(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        result *= d * c
        c, d = _lentz(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
                      c, d)
        delta = d * c
        result *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return result
    raise StatsError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise StatsError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise StatsError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def two_sided_t_p(t: float, df: int) -> float:
    """Two-sided tail of the t distribution on df: F(1, df)'s tail at t²."""
    return f_upper_p(t * t, 1, df)


def f_upper_p(F: float, df1: int, df2: int) -> float:
    """Upper-tail probability of the F distribution."""
    if F < 0:
        raise StatsError(f"F must be >= 0, got {F}")
    if df1 < 1 or df2 < 1:
        raise StatsError(f"degrees of freedom must be >= 1, got {df1}, "
                         f"{df2}")
    x = df2 / (df2 + df1 * F)
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, x)


def summarize(values) -> GroupSummary:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise StatsError(f"need at least 2 values, got {arr.size}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(arr.mean())
        sd = 0.0 if arr.min() == arr.max() else float(arr.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise StatsError("summarize: overflow: the mean or the sum of "
                         "squares is not finite")
    return GroupSummary(mean=mean, sd=sd, n=int(arr.size))


def _t_test(estimate: float, se: float, df: int) -> TTestResult:
    """The t-test of ``estimate`` with standard error ``se`` on ``df``."""
    t = estimate / se
    return TTestResult(estimate=estimate, t=t, df=df, p=two_sided_t_p(t, df))


def one_sample_t(values, mu0: float) -> TTestResult:
    """One-sample t-test of the mean against mu0 (two-sided)."""
    s = summarize(values)
    if s.sd == 0.0:
        raise StatsError("one_sample_t: zero variance in sample")
    return _t_test(s.mean - mu0, s.sd / math.sqrt(s.n), s.n - 1)


def two_sample_pooled_t(a, b) -> tuple[TTestResult, GroupSummary, GroupSummary]:
    """Pooled-variance two-sample t-test; equivalent to OLS on an indicator."""
    sa, sb = summarize(a), summarize(b)
    df = sa.n + sb.n - 2
    pooled_var = ((sa.n - 1) * sa.sd ** 2 + (sb.n - 1) * sb.sd ** 2) / df
    if pooled_var == 0.0:
        raise StatsError("two_sample_pooled_t: zero pooled variance")
    if not math.isfinite(pooled_var):
        raise StatsError("two_sample_pooled_t: overflow: the pooled sum of "
                         "squares is not finite")
    se = math.sqrt(pooled_var * (1.0 / sa.n + 1.0 / sb.n))
    return _t_test(sa.mean - sb.mean, se, df), sa, sb


def simple_ols(x, y) -> OlsResult:
    """Least-squares fit of y on x with slope F-test and R-squared."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 3 or y.size != n:
        raise StatsError(f"simple_ols needs n >= 3 paired values, got {n}")
    for values, name in ((x, "predictor"), (y, "response")):
        if values.min() == values.max():
            raise StatsError(f"simple_ols: constant {name}")
    with np.errstate(over="ignore", invalid="ignore"):
        xm, ym = x.mean(), y.mean()
        sxx = float(((x - xm) ** 2).sum())
        if sxx == 0.0:
            raise StatsError("simple_ols: the predictor's variance underflows")
        sxy = float(((x - xm) * (y - ym)).sum())
        slope = sxy / sxx
        intercept = ym - slope * xm
        fitted = intercept + slope * x
        sse = float(((y - fitted) ** 2).sum())
        sst = float(((y - ym) ** 2).sum())
    if not all(map(math.isfinite, (xm, ym, sxx, sse, sst))):
        raise StatsError("simple_ols: overflow: a mean or a sum of squares "
                         "is not finite")
    ssr = sst - sse
    df1, df2 = 1, n - 2
    if sse == 0.0:
        return OlsResult(slope=slope, intercept=intercept, F=None,
                         df1=df1, df2=df2, p=0.0, r2=1.0)
    F = (ssr / df1) / (sse / df2)
    F = max(F, 0.0)
    r2 = ssr / sst if sst > 0 else 0.0
    return OlsResult(slope=slope, intercept=intercept, F=F, df1=df1, df2=df2,
                     p=f_upper_p(F, df1, df2), r2=r2)
