"""Acceptance suite: each exit criterion's checks, once, one id per check.

Criteria 1-3 are the source's published tails and confusion matrices and
the boosted learner's properties.  Criteria 4
and 5 run one body on each dataset.  Their ``[paper]`` ids need the
original study's dataset, which is not redistributable; they run only when
a copy is supplied (see conftest for the expected paths / environment
variables) and skip otherwise.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from soundskew import runner
from soundskew.boost import BoostParams, leaf_weight, predict_margin, train
from soundskew.corpus import ATTRIBUTE_NAMES, load_corpus
from soundskew.labeling import median_split
from soundskew.metrics import accuracy, fp_rate_skew_adjusted
from soundskew.runner import ExperimentConfig, run_experiment
from soundskew.stats import (
    f_upper_p,
    reg_inc_beta,
    simple_ols,
    two_sample_pooled_t,
    two_sided_t_p,
)
from tests.conftest import (
    CORPUS_CSV,
    GIVEN_NAMES_CM,
    INVENTORY_CSV,
    NAMES_CM,
    NO_SAMPLING,
    PAPER_CORPUS_CSV,
    PAPER_INVENTORY_CSV,
    beta_quadrature,
    model_document,
    normal_equation_ols,
    serialized,
    sorted_median_labels,
    train_losses,
)

# The tails the source printed: (kernel, arguments, the values its p must
# lie near).  The source truncated t = 2.6's exact 0.03162 to 0.031, so
# that row allows one unit in the last printed digit.  Each t row also
# holds the exact tail to three significant figures.
PUBLISHED_TAILS = [
    pytest.param(two_sided_t_p, (2.6, 8), [pytest.approx(0.031, abs=1e-3),
                                           pytest.approx(0.0316, abs=5e-5)],
                 id="t-2.6-df8"),
    pytest.param(two_sided_t_p, (2.8, 17), [pytest.approx(0.012, abs=5e-4),
                                            pytest.approx(0.0123, abs=5e-5)],
                 id="t-2.8-df17"),
    *(pytest.param(f_upper_p, (F, 1, 2693),
                   [pytest.approx(p, rel=0.05, abs=0)], id=f"F-{F:.2f}")
      for F, p in ((58.88, 2.33e-14), (49.36, 2.69e-12), (17.95, 2.35e-5),
                   (27.40, 1.79e-7))),
]


@pytest.mark.parametrize("kernel, args, near", PUBLISHED_TAILS)
def test_criterion_1_distribution_kernels(kernel, args, near):
    p = kernel(*args)
    for value in near:
        assert p == value


# The published confusion matrices (in conftest): (matrix, metric, the
# metric from the matrix's counts, the metric to three places and, where
# the source printed it so, to two).
PUBLISHED_MATRICES = [
    pytest.param(GIVEN_NAMES_CM, accuracy, 38457 / 57541, ["0.668"],
                 id="given-names-accuracy"),
    pytest.param(GIVEN_NAMES_CM, fp_rate_skew_adjusted,
                 (12623 / 22162) / (12623 / 22162 + 6461 / 35379),
                 ["0.757", "0.76"], id="given-names-fp-rate"),
    pytest.param(NAMES_CM, accuracy, 1146 / 1890, ["0.606", "0.61"],
                 id="character-names-accuracy"),
    pytest.param(NAMES_CM, fp_rate_skew_adjusted,
                 (444 / 923) / (444 / 923 + 300 / 967), ["0.608"],
                 id="character-names-fp-rate"),
]


@pytest.mark.parametrize("matrix, metric, from_counts, rounded",
                         PUBLISHED_MATRICES)
def test_criterion_2_metric_vs_published_counts(matrix, metric, from_counts,
                                                rounded):
    value = metric(matrix)
    assert value == pytest.approx(from_counts)
    for figure in rounded:
        assert f"{value:.{len(figure) - 2}f}" == figure


def counts(seed, shape, label):
    """A seeded matrix of counts 0-3 and its labels, ``label(X, rng)``,
    which may draw noise from the generator after ``X``."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=shape).astype(float)
    return X, label(X, rng).astype(int)


def loss_non_increasing(X, y, params):
    losses = train_losses(train(X, y, params), X, y)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def depth_one_leaf_weights(X, y, params):
    model = train(X, y, params)
    tree = model_document(model)["trees"][0]
    assert tree["feature"] == 0
    assert tree["threshold"] == pytest.approx(0.5)
    # each side: 4 samples at prob 0.5 -> |G| = 2, H = 1
    left, right = tree["left"]["weight"], tree["right"]["weight"]
    assert abs(left - leaf_weight(2.0, 1.0, 1.0)) <= 1e-12
    assert abs(right - leaf_weight(-2.0, 1.0, 1.0)) <= 1e-12
    for row, margin in zip(X, predict_margin(model, X)):
        assert margin == pytest.approx(left if row[0] < 0.5 else right)


def bit_identical_refits(X, y, params):
    assert serialized(model_document(train(X, y, params))) \
        == serialized(model_document(train(X, y, params)))


def zero_column_invariance(X, y, params):
    padded = np.hstack([X, np.zeros((len(X), 1))])
    assert np.array_equal(predict_margin(train(padded, y, params), padded),
                          predict_margin(train(X, y, params), X))


# (property, [((X, y), params), ...]).  Zero-column invariance runs with
# column subsampling off, the only regime where the seeded column sampler
# cannot shift.
NOISY = counts(314, (150, 15), lambda X, rng:
               X[:, 0] + 0.5 * X[:, 1] + rng.normal(0, 1, 150) > 2.0)
NO_COLUMN_SAMPLING = BoostParams(rounds=20, col_subsample_per_node=1.0)
BOOST_PROPERTIES = [
    pytest.param(loss_non_increasing, [
        (NOISY, BoostParams(rounds=40, **NO_SAMPLING)),
    ], id="loss-non-increasing"),
    pytest.param(depth_one_leaf_weights, [
        ((np.array([[0.0]] * 4 + [[1.0]] * 4), np.array([0] * 4 + [1] * 4)),
         BoostParams(rounds=1, max_depth=1, learning_rate=1.0, l2_lambda=1.0,
                     min_child_weight=0.0, **NO_SAMPLING)),
    ], id="depth-one-leaf-weights"),
    pytest.param(bit_identical_refits, [
        (NOISY, BoostParams(rounds=25, seed=77)),
        (counts(4, (80, 12), lambda X, rng: X[:, 0] > 1),
         BoostParams(rounds=25, seed=99)),
    ], id="bit-identical-refits"),
    pytest.param(zero_column_invariance, [
        (NOISY, NO_COLUMN_SAMPLING),
        (counts(6, (60, 6), lambda X, rng: X[:, 1] > 1), NO_COLUMN_SAMPLING),
    ], id="zero-column-invariance"),
]


@pytest.mark.parametrize("check, problems", BOOST_PROPERTIES)
def test_criterion_3_boost_properties(check, problems):
    for (X, y), params in problems:
        check(X, y, params)


DATASETS = {"paper": (PAPER_CORPUS_CSV, PAPER_INVENTORY_CSV),
            "fixture": (CORPUS_CSV, INVENTORY_CSV)}
ON_EACH_DATASET = pytest.mark.parametrize("dataset", [
    pytest.param("paper", marks=pytest.mark.skipif(
        not all(map(os.path.exists, DATASETS["paper"])),
        reason="original study dataset not supplied "
               "(set SOUNDSKEW_PAPER_CORPUS / SOUNDSKEW_PAPER_INVENTORY)")),
    "fixture"])

# Criterion 4, per dataset: the boost rounds, and the published mean
# accuracy per (language, variable) cell (Table 4 of the source, as
# fractions) that the run's must lie within 0.07 of.  Measured on the
# fixture at 20 rounds: every cell's accuracy is 0.618-0.741, combat FP%
# 0.423 against size FP% 0.399.
PIPELINES = {
    "paper": (200, {
        ("jpn", "Attack"): 0.5915, ("cmn", "Attack"): 0.5704,
        ("kor", "Attack"): 0.5610,
        ("jpn", "Defend"): 0.5916, ("cmn", "Defend"): 0.5566,
        ("kor", "Defend"): 0.5407,
        ("jpn", "Height"): 0.6303, ("cmn", "Height"): 0.5927,
        ("kor", "Height"): 0.5777,
        ("jpn", "Weight"): 0.6233, ("cmn", "Weight"): 0.5751,
        ("kor", "Weight"): 0.5538,
    }),
    "fixture": (20, {}),
}


@ON_EACH_DATASET
def test_criterion_4_pipeline(dataset):
    rounds, published = PIPELINES[dataset]
    config = ExperimentConfig(*DATASETS[dataset],
                              boost_params=BoostParams(rounds=rounds))
    report = run_experiment(config)
    assert not report.failures
    cells = {(a.language, a.variable): a for a in report.aggregates}
    assert len(cells) == 12
    for key, agg in cells.items():
        assert agg.mean_accuracy > 0.5, f"{key} accuracy not above chance"
        if key in published:
            assert abs(agg.mean_accuracy - published[key]) <= 0.07, \
                f"{key} accuracy outside +/-7 points of the published cell"
    combat = [r.fp_pct for r in report.records
              if r.variable in config.combat_set and r.fp_pct is not None]
    size = [r.fp_pct for r in report.records
            if r.variable in config.size_set and r.fp_pct is not None]
    assert np.mean(combat) > np.mean(size)


# Criterion 5, per dataset: each variable's combined-scope F and r² as open
# ranges, the (scope, variable)s whose p exceeds 0.05, and a bound on every
# other p.  The paper's ranges are the source's F within 10% and R² within
# 0.005.  Measured on the fixture: combined F 531-1,063 and r² 0.372-0.542,
# and every p below 1e-26.
LENGTH_REGRESSIONS = {
    "paper": ({variable: ((0.9 * F, 1.1 * F), (r2 - 0.005, r2 + 0.005))
               for variable, F, r2 in (
                   ("Attack", 58.88, 0.021), ("Defend", 49.36, 0.018),
                   ("Height", 17.95, 0.007), ("Weight", 27.40, 0.010))},
              {("cmn", "Height"), ("cmn", "Weight")}, math.inf),
    "fixture": (dict.fromkeys(ATTRIBUTE_NAMES, ((500, 1100), (0.35, 0.56))),
                set(), 1e-26),
}


@ON_EACH_DATASET
def test_criterion_5_length_regression(dataset):
    combined, not_significant, p_below = LENGTH_REGRESSIONS[dataset]
    config = ExperimentConfig(*DATASETS[dataset])
    corpus, _ = load_corpus(*DATASETS[dataset])
    languages = tuple(dict.fromkeys(corpus.language.tolist()))
    results = {(e.language, e.variable): e.result
               for e in runner.length_regression(corpus, config, languages)}
    assert list(results) == [(scope, variable)
                             for scope in (*languages, "combined")
                             for variable in config.variables]
    for variable, ((F_low, F_high), (r2_low, r2_high)) in combined.items():
        assert F_low < results["combined", variable].F < F_high
        assert r2_low < results["combined", variable].r2 < r2_high
    for key, result in results.items():
        assert result.p > 0.05 if key in not_significant \
            else result.p < p_below, key


def test_criterion_6_oracle_equivalence_suites():
    rng = np.random.default_rng(2718)

    # simple_ols vs normal equations, 200 random instances, 1e-10 relative
    for _ in range(200):
        n = int(rng.integers(3, 60))
        x = rng.normal(0, 2, n)
        if np.ptp(x) == 0:
            continue
        y = rng.normal() * x + rng.normal(0, 1, n)
        result = simple_ols(x, y)
        assert (result.slope, result.intercept) == pytest.approx(
            normal_equation_ols(x, y)[:2], rel=1e-10, abs=1e-12)

    # pooled two-sample t vs OLS on an indicator, 1e-10
    for _ in range(100):
        na, nb = rng.integers(3, 25, size=2)
        a = rng.normal(0, 1, na)
        b = rng.normal(rng.normal(), 1.5, nb)
        t_result, *_ = two_sample_pooled_t(a, b)
        ols = simple_ols(np.concatenate([np.ones(na), np.zeros(nb)]),
                         np.concatenate([a, b]))
        assert ols.slope == pytest.approx(t_result.estimate, rel=1e-10,
                                          abs=1e-12)
        assert math.sqrt(ols.F) == pytest.approx(abs(t_result.t), rel=1e-10)
        assert ols.p == pytest.approx(t_result.p, rel=1e-10, abs=0)

    # median_split vs sort oracle, exact, 500 random multisets
    for _ in range(500):
        n = int(rng.integers(1, 60))
        vals = rng.integers(-5, 6, size=n)
        values = [(str(i), float(v)) for i, v in enumerate(vals)]
        assert median_split(values) == sorted_median_labels(values)

    # reg_inc_beta vs quadrature, 1e-9
    for _ in range(100):
        a, b = rng.uniform(0.1, 5.0, size=2)
        x = float(rng.uniform(0.0, 1.0))
        assert abs(reg_inc_beta(a, b, x) - beta_quadrature(a, b, x)) <= 1e-9


def test_criterion_7_end_to_end_determinism(tmp_path):
    config = ExperimentConfig(
        corpus_path=CORPUS_CSV, inventory_path=INVENTORY_CSV,
        boost_params=BoostParams(rounds=30))
    for sub in ("a", "b"):
        report = run_experiment(dataclasses.replace(
            config, out_dir=str(tmp_path / sub), formats=("tsv",)))
        runner.emit_report(report)
    assert (tmp_path / "a" / "records.tsv").read_bytes() \
        == (tmp_path / "b" / "records.tsv").read_bytes()
