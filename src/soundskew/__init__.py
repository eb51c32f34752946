"""Deterministic experiment harness for false-positive skew in name classifiers.

The pipeline: load a name corpus and per-language token inventories, featurize
names as token occurrence counts, median-split a continuous attribute into a
balanced binary label, train cross-validated gradient-boosted tree classifiers,
and analyse the distribution of false-positive errors with skew-adjusted rates
and classical t/F inference.
"""

from soundskew.corpus import (
    Corpus,
    CorpusError,
    TokenInventory,
    featurize,
    load_corpus,
    name_length,
)
from soundskew.labeling import (
    BinaryLabeledSet,
    balance,
    make_folds,
    median_split,
    subseed,
)
from soundskew.boost import (
    BoostModel,
    BoostParams,
    classify,
    feature_importance,
    leaf_weight,
    predict_margin,
    predict_prob,
    train,
)
from soundskew.metrics import (
    ConfusionMatrix,
    IterationRecord,
    accuracy,
    fp_rate_skew_adjusted,
    pool,
)
from soundskew.stats import (
    GroupSummary,
    OlsResult,
    TTestResult,
    f_upper_p,
    one_sample_t,
    reg_inc_beta,
    simple_ols,
    two_sample_pooled_t,
    two_sided_t_p,
)
from soundskew.runner import (
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    hypothesis_h1,
    hypothesis_h2,
    length_regression,
    run_experiment,
)

__version__ = "0.1.0"
