"""Train one boosted model by hand and inspect it.

Builds the Attack classifier for the Japanese fixture names: one count
matrix for the language, its rows labeled, balanced and folded as a run
does (``label_group``), then a second-order boosted tree ensemble, trained
and counted as a run does fold 0 (``fit_fold``, ``fit_seed``) on the int16
counts that the loader stores, so its counts are the shipped run's
jpn/Attack fold 0 record.
Prints how many names each labeling stage kept, the loss curve, the
confusion matrix of one fold, and the highest-gain features.  The model
keeps only its trees; the training loss after round ``r`` is recomputed
from the first ``r`` of them.
"""

import dataclasses
import os

import numpy as np

from soundskew.boost import BoostParams, feature_importance, predict_prob
from soundskew.corpus import ATTRIBUTE_NAMES, load_corpus
from soundskew.labeling import label_group
from soundskew.metrics import accuracy, fp_rate_skew_adjusted
from soundskew.runner import fit_fold, fit_seed

DATA = os.path.join(os.path.dirname(__file__), "..", "data")
SEED = 20220307


def train_loss(model, rounds, X, y):
    """Log-loss of the first ``rounds`` trees on their training rows."""
    prefix = dataclasses.replace(model, trees=model.trees[:rounds])
    p = np.clip(predict_prob(prefix, X), 1e-15, 1.0 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


corpus, inventories = load_corpus(
    os.path.join(DATA, "corpus.csv"), os.path.join(DATA, "inventory.csv"))
inventory = inventories["jpn"]
features = corpus.counts["jpn"]
attack = corpus.attributes[corpus.language == "jpn",
                           ATTRIBUTE_NAMES.index("Attack")]

rows, y, folds, funnel = label_group(attack, "jpn", "Attack", 3, SEED)
print(f"{len(features)} names: {funnel.values} with an Attack value, "
      f"{funnel.omitted} tied with the median, {funnel.kept} kept after "
      f"balance")

X = features[rows]
in_test = folds == 0

# Fold 0 as the runner fits and counts it.
model, cm = fit_fold(X, y, in_test,
                     BoostParams(seed=fit_seed(SEED, "jpn", "Attack", 0)))
X_train, y_train = X[~in_test], y[~in_test]
print(f"trained {len(model.trees)} trees; "
      f"loss {train_loss(model, 1, X_train, y_train):.4f} -> "
      f"{train_loss(model, len(model.trees), X_train, y_train):.4f}")
print(f"fold 0: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
print(f"accuracy {accuracy(cm):.3f}, "
      f"skew-adjusted FP% {fp_rate_skew_adjusted(cm):.3f}")

top = sorted(feature_importance(model).items(), key=lambda kv: -kv[1])[:5]
print("top-gain tokens:",
      {inventory.tokens[i]: round(g, 2) for i, g in top})
