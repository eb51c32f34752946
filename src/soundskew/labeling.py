"""Median-split labeling, class balancing, and stratified fold assignment.

``label_group`` runs the stage chain on one column: median_split -> balance
-> make_folds, so every fold is approximately balanced, and counts the rows
that survive each stage as a ``Funnel``.  Everything is seeded; the same
column, variable, language, seed and k give the same folds.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

LOW, HIGH, OMITTED = "low", "high", "omitted"


class LabelingError(ValueError):
    """Raised for degenerate labeling inputs (empty class, k too large...)."""


@dataclass(frozen=True)
class BinaryLabeledSet:
    """The (row, label) pairs of one column: ``row`` indexes the language's
    feature matrix and ``label`` is "low" or "high"."""

    samples: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class Funnel:
    """How many rows of a column each stage of ``label_group`` saw:
    ``values`` were not blank, ``omitted`` of them tied the median, and
    ``kept`` were left after balance."""

    values: int
    omitted: int
    kept: int


def subseed(master_seed: int, *parts: str) -> int:
    """Derive an independent 64-bit sub-seed from a master seed and labels.

    Splitting is by SHA-256 over the master seed and the canonical label
    string, so adding a (language, variable) pair never perturbs the streams
    of the others.
    """
    text = f"{master_seed}|" + "|".join(parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def median_split(values: list[tuple[Hashable, float]]) -> dict[Hashable, str]:
    """Label each key by the side of the median its value falls on.

    Keys are opaque (the runner passes feature-matrix rows) and the result
    keeps their input order.  The median is the midpoint of the two central
    order statistics for even counts.  Values strictly below map to "low",
    strictly above to "high", and exact ties with the median to "omitted".
    """
    if not values:
        raise LabelingError("median_split: empty input")
    arr = np.asarray([v for _, v in values], dtype=float)
    if not np.all(np.isfinite(arr)):
        raise LabelingError("median_split: non-finite value")
    ordered = np.sort(arr)
    n = len(ordered)
    if n % 2 == 1:
        median = float(ordered[n // 2])
    else:
        a, b = float(ordered[n // 2 - 1]), float(ordered[n // 2])
        median = (a + b) / 2.0
        if math.isinf(median):          # the sum overflowed; halves cannot
            median = a / 2.0 + b / 2.0
    out = {}
    for sid, v in values:
        if v < median:
            out[sid] = LOW
        elif v > median:
            out[sid] = HIGH
        else:
            out[sid] = OMITTED
    return out


def balance(labeled: BinaryLabeledSet, seed: int) -> BinaryLabeledSet:
    """Down-sample the majority class uniformly at random to the minority size.

    The minority class is untouched and the relative order of retained
    samples is preserved, so an already balanced set keeps every sample.
    """
    low_idx = [i for i, (_, lab) in enumerate(labeled.samples) if lab == LOW]
    high_idx = [i for i, (_, lab) in enumerate(labeled.samples) if lab == HIGH]
    if not low_idx or not high_idx:
        raise LabelingError("balance: class with zero samples")
    minority, majority = sorted((low_idx, high_idx), key=len)
    keep = np.random.default_rng(seed).choice(
        len(majority), size=len(minority), replace=False).tolist()
    dropped = set(majority) - {majority[i] for i in keep}
    return BinaryLabeledSet(tuple(s for i, s in enumerate(labeled.samples)
                                  if i not in dropped))


def make_folds(high: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Stratified k-fold assignment via a seeded shuffle within each class.

    Returns each sample's fold in [0, k), given its class as the bool
    ``high``.  Each class (low, then high) is shuffled and dealt round-robin
    over the k folds, so fold sizes per class differ by at most one.
    """
    if k < 2:
        raise LabelingError(f"make_folds: k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    folds = np.empty(len(high), dtype=int)
    for label, members in ((LOW, ~high), (HIGH, high)):
        pos = np.flatnonzero(members)
        if len(pos) < k:
            raise LabelingError(
                f"make_folds: class {label!r} has {len(pos)} samples, "
                f"need at least k={k}")
        folds[pos[rng.permutation(len(pos))]] = np.arange(len(pos)) % k
    return folds


def label_group(values: np.ndarray, language: str, variable: str, k: int,
                seed: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Funnel]:
    """The kept rows of a column (NaN: blank) in ascending order, whether
    each is "high", each one's fold in [0, k), and the column's ``Funnel``.
    Each stage is called by its module-global name, so a wrapper set on it
    sees every call."""
    rows = np.flatnonzero(~np.isnan(values)).tolist()
    split = median_split(list(zip(rows, values[rows].tolist())))
    untied = tuple((i, lab) for i, lab in split.items() if lab != OMITTED)
    labeled = balance(BinaryLabeledSet(untied),
                      subseed(seed, language, variable, "balance"))
    kept, labels = zip(*labeled.samples)
    high = np.array(labels) == HIGH
    funnel = Funnel(values=len(rows), omitted=len(rows) - len(untied),
                    kept=len(kept))
    return np.array(kept), high, make_folds(
        high, k, subseed(seed, language, variable, "folds")), funnel
