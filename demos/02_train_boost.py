"""Train one boosted model by hand and inspect it.

Builds the Attack classifier for the Japanese fixture names: one count
matrix for the language, median split and balance over its rows, stratified
folds, then a second-order boosted tree ensemble on the count features.
Prints the loss curve, the confusion matrix of one fold, and the
highest-gain features.  The model keeps only its trees; the training loss
after round ``r`` is recomputed from the first ``r`` of them.
"""

import dataclasses
import os

import numpy as np

from soundskew import (
    BinaryLabeledSet,
    BoostParams,
    ConfusionMatrix,
    accuracy,
    balance,
    classify,
    feature_importance,
    fp_rate_skew_adjusted,
    load_corpus,
    make_folds,
    median_split,
    predict_prob,
    subseed,
    train,
)
from soundskew.corpus import ATTRIBUTE_NAMES

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
features = corpus.counts["jpn"].astype(float)
attack = corpus.attributes[corpus.language == "jpn",
                           ATTRIBUTE_NAMES.index("Attack")]

split = median_split(list(enumerate(attack.tolist())))
samples = tuple((i, lab) for i, lab in split.items() if lab != "omitted")
labeled = balance(BinaryLabeledSet(variable="Attack", language="jpn",
                                   samples=samples),
                  subseed(SEED, "jpn", "Attack", "balance"))
folds = make_folds(labeled, 3, subseed(SEED, "jpn", "Attack", "folds"))
print(f"{len(features)} names -> {len(labeled.samples)} after split+balance")

X = features[[i for i, _ in labeled.samples]]
y = np.array([lab == "high" for _, lab in labeled.samples])
in_test = folds == 0

X_train, y_train = X[~in_test], y[~in_test]
model = train(X_train, y_train, BoostParams(seed=SEED))
print(f"trained {len(model.trees)} trees; "
      f"loss {train_loss(model, 1, X_train, y_train):.4f} -> "
      f"{train_loss(model, len(model.trees), X_train, y_train):.4f}")

pred = classify(model, X[in_test])
truth = y[in_test]
cm = ConfusionMatrix(tp=int((pred & truth).sum()),
                     fp=int((pred & ~truth).sum()),
                     fn=int((~pred & truth).sum()),
                     tn=int((~pred & ~truth).sum()))
print(f"fold 0: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn}")
print(f"accuracy {accuracy(cm):.3f}, "
      f"skew-adjusted FP% {fp_rate_skew_adjusted(cm):.3f}")

top = sorted(feature_importance(model).items(), key=lambda kv: -kv[1])[:5]
print("top-gain tokens:",
      {inventory.tokens[i]: round(g, 2) for i, g in top})
