"""Confusion-matrix accounting and the skew-adjusted false-positive rate.

The positive class is the "threat" class (high attribute value by default).
FP counts non-threat samples classified threat; FN counts threat samples
classified non-threat.  The skew adjustment works class-conditionally:
fp_pct = FPR / (FPR + FNR), which is scale-free in the class sizes of the
test subset.  An ``IterationRecord`` is one fold's test-set confusion matrix
plus the fields that name its fit, so these functions take records as is.
"""

from __future__ import annotations

from dataclasses import dataclass


class MetricsError(ValueError):
    """Raised for empty or inconsistent confusion matrices."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise MetricsError("confusion-matrix counts must be >= 0")

    @property
    def n_threat(self) -> int:
        return self.tp + self.fn

    @property
    def n_nonthreat(self) -> int:
        return self.tn + self.fp

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class IterationRecord(ConfusionMatrix):
    """Outcome of one (language, variable, fold) train/evaluate cycle."""

    language: str
    variable: str
    fold: int
    seed: int
    accuracy: float
    fp_pct: float | None


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise MetricsError("accuracy of an empty matrix is undefined")
    return (cm.tp + cm.tn) / cm.total


def fp_rate_skew_adjusted(cm: ConfusionMatrix) -> float | None:
    """Share of class-conditional error rate carried by false positives.

    FPR = fp / (tn + fp), FNR = fn / (tp + fn); result = FPR / (FPR + FNR).
    Equals fp / (fp + fn) when the test classes are balanced.  Returns None
    when the model makes no errors at all (the share is undefined).
    """
    if cm.n_threat == 0 or cm.n_nonthreat == 0:
        raise MetricsError(
            "fp_rate_skew_adjusted needs both classes in the test set")
    fpr = cm.fp / cm.n_nonthreat
    fnr = cm.fn / cm.n_threat
    if fpr + fnr == 0.0:
        return None
    return fpr / (fpr + fnr)


def pool(matrices) -> ConfusionMatrix:
    """Elementwise sum of confusion matrices.

    Each matrix counts its own group's threat class as positive, so any
    matrices can be pooled.
    """
    matrices = list(matrices)
    if not matrices:
        raise MetricsError("pool of zero matrices")
    return ConfusionMatrix(
        tp=sum(m.tp for m in matrices),
        fp=sum(m.fp for m in matrices),
        fn=sum(m.fn for m in matrices),
        tn=sum(m.tn for m in matrices))
