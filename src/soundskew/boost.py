"""Second-order gradient-boosted decision trees for binary logistic loss.

Exact greedy split search over sorted unique feature values; leaf weights are
the regularized second-order optimum, stored pre-multiplied by the learning
rate.  Training is bit-for-bit deterministic for a given seed: candidate
splits are reduced in a fixed order (lowest feature index, then lowest
threshold, wins ties) and the row/column subsampler consumes the seeded
generator in a fixed depth-first order.

Split search uses presorted column blocks (XGBoost's exact greedy layout,
Chen & Guestrin 2016, arXiv:1603.02754, section 4.1): each column is sorted
once per fit, and each node's per-column lists are split by a stable
partition instead of being sorted again.  A node's row ids stay ascending and
its per-column lists stay in (value, row id) order, which is exactly the
order a stable sort of the node's own rows gives.  So every prefix sum, gain,
threshold and leaf weight adds the same floats in the same order as sorting
each node afresh, and serialized models are unchanged.  Histogram binning was
not used because bin sums add the gradients in a different order; the last
bits of the gains change, and with them the serialized model.

Each node does its work once.  Gradients and hessians are packed as one
complex array ``gh = g + 1j*h`` per round, so one gather and one cumsum give
both prefix sums with the same float adds as two separate cumsums.  The
node totals stay float sums of ``g`` and ``h``, since numpy sums a complex
array in another order.  A node whose hessian total cannot leave both
children ``min_child_weight`` is a leaf without a search, and a node builds
its per-column lists from its parent's only when it searches.  The margins
are not updated after the last round, which nothing reads.

A tree is held in exactly the nested form that ``model_to_json`` writes, the
node form of an XGBoost JSON dump: a leaf is ``{"weight": w}`` and an
internal node is ``{"feature": j, "threshold": t, "gain": g, "left": ...,
"right": ...}``, routing ``x[j] < t`` to the left child.  ``predict_margin``
on the first ``r`` trees repeats training's margin sums, so training's loss
curve can be recomputed bit for bit from a model and its training rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

MODEL_FORMAT_VERSION = 1


class BoostError(ValueError):
    """Raised for invalid hyperparameters or malformed training inputs."""


@dataclass(frozen=True)
class BoostParams:
    rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 4
    l2_lambda: float = 1.0
    min_split_gain: float = 0.0
    min_child_weight: float = 1.0
    row_subsample: float = 0.8
    col_subsample_per_node: float = 0.8
    base_score: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise BoostError("rounds must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise BoostError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise BoostError("max_depth must be >= 1")
        if self.l2_lambda < 0 or self.min_split_gain < 0:
            raise BoostError("l2_lambda and min_split_gain must be >= 0")
        if self.min_child_weight < 0:
            raise BoostError("min_child_weight must be >= 0")
        if not 0.0 < self.row_subsample <= 1.0:
            raise BoostError("row_subsample must be in (0, 1]")
        if not 0.0 < self.col_subsample_per_node <= 1.0:
            raise BoostError("col_subsample_per_node must be in (0, 1]")
        if not 0.0 < self.base_score < 1.0:
            raise BoostError("base_score must be in (0, 1)")


@dataclass
class BoostModel:
    """A fitted ensemble, held as the trees that ``model_to_json`` writes.

    Each tree is a nested dict: a leaf is ``{"weight": w}`` and a split is
    ``{"feature", "threshold", "gain", "left", "right"}``.  The margin of
    ``x`` is ``base_margin`` plus the weight of the leaf that each tree
    routes ``x`` to; ``n_features`` is the width ``x`` must have.
    """

    trees: list[dict]
    params: BoostParams
    n_features: int
    base_margin: float

    @property
    def split_gain_log(self) -> list[tuple[int, float]]:
        """(feature, gain) of every split, tree by tree in preorder.

        That is the order in which training made the splits.
        """
        log = []

        def walk(node: dict):
            if "weight" not in node:
                log.append((node["feature"], node["gain"]))
                walk(node["left"])
                walk(node["right"])

        for tree in self.trees:
            walk(tree)
        return log


def sigmoid(margin):
    return 1.0 / (1.0 + np.exp(-np.asarray(margin, dtype=float)))


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _score(G, H, l2_lambda: float):
    """Structure score G^2 / (H + lambda); 0 where H + lambda <= 0."""
    denom = H + l2_lambda
    return np.divide(G * G, denom, out=np.zeros_like(G), where=denom > 0)


def leaf_weight(G: float, H: float, l2_lambda: float) -> float:
    """Regularized second-order optimum -G/(H + lambda)."""
    if H < 0:
        raise BoostError("hessian sum must be >= 0")
    if H + l2_lambda == 0.0:
        raise BoostError("H + l2_lambda must be positive")
    return -G / (H + l2_lambda)


def _best_split(XT: np.ndarray, gh: np.ndarray, S: np.ndarray,
                cols: np.ndarray, G: float, H: float, params: BoostParams):
    """Exact greedy search over the given columns; returns the winning split.

    ``XT`` is the training matrix transposed (one C-contiguous row per
    feature), ``gh`` packs each row id's gradient and hessian as
    ``g + 1j*h``, and row ``j`` of ``S`` lists the node's row ids sorted by
    (``XT[j]``, row id).  ``G`` and ``H`` are the node's gradient and hessian
    totals, summed in ascending row-id order.  Because the order within ``S``
    matches a stable sort of the node's own rows, the prefix sums, gains and
    thresholds are bit-for-bit those of sorting the node afresh.

    One gather of ``gh`` and one complex cumsum give both prefix sums: a
    complex add adds the real parts and the imaginary parts separately, so
    each running sum is the same sequence of float adds as a cumsum of ``g``
    or ``h`` alone.  The left sums, the right sums and the node's own totals
    go through one ``_score`` call; the parent score is its last element.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values.  Only those boundary positions are scored, flattened one column
    after another; the first maximum implements the
    lowest-feature-then-lowest-threshold tie break.
    """
    n, m = XT.shape[1], S.shape[1]
    Sc = S.take(cols, axis=0)
    xs = XT.ravel().take(Sc + (cols * n)[:, None])
    bounds = (xs[:, :-1] < xs[:, 1:]).ravel().nonzero()[0]
    if bounds.size == 0:
        return None
    at = bounds + bounds // (m - 1)          # flat positions in (cols, m)
    left = gh.take(Sc).cumsum(axis=1).ravel().take(at)
    GL, HL = left.real, left.imag
    k = at.size
    Gs = np.concatenate((GL, G - GL, [G]))
    Hs = np.concatenate((HL, H - HL, [H]))
    s = _score(Gs, Hs, params.l2_lambda)
    gains = 0.5 * (s[:k] + s[k:-1] - s[-1]) - params.min_split_gain
    gains = np.where(np.minimum(HL, Hs[k:-1]) >= params.min_child_weight,
                     gains, -np.inf)
    best = int(gains.argmax())
    best_gain = float(gains[best])
    if not math.isfinite(best_gain) or best_gain <= 0.0:
        return None
    i = at[best]
    feature = int(cols[i // m])
    flat = xs.ravel()
    threshold = float(flat[i] + flat[i + 1]) / 2.0
    return feature, threshold, best_gain


def _build_tree(XT: np.ndarray, gh: np.ndarray, idx: np.ndarray,
                S: np.ndarray, keep: np.ndarray | None, depth: int,
                params: BoostParams, rng: np.random.Generator) -> dict:
    """Grow a subtree over the ascending row ids ``idx``; returns its node.

    The node's per-feature lists, its rows once per feature sorted by (value,
    row id), are ``S[keep].reshape(n_features, -1)``: ``S`` is the parent's
    lists and ``keep`` the mask of this node's side, or ``None`` when ``S``
    is already this node's.  A stable mask keeps the lists sorted.  They are
    built only when the node searches, so a leaf by depth, by size or by the
    child-weight rule below never partitions.

    The totals ``G`` and ``H`` are float sums of the gathered ``g`` and
    ``h``, not a sum of ``gh``: numpy sums a float array pairwise and a
    complex array in another order, and the last bits would differ.

    A node with ``H - min_child_weight < min_child_weight`` is a leaf once
    its columns are drawn (the draw keeps the generator's stream unchanged):
    any left sum ``HL >= min_child_weight`` leaves a right sum
    ``H - HL <= H - min_child_weight`` in floats, so no candidate is valid.
    """
    G = float(gh.real[idx].sum())
    H = float(gh.imag[idx].sum())

    def leaf():
        return {"weight": params.learning_rate
                * leaf_weight(G, H, params.l2_lambda)}

    if depth >= params.max_depth or len(idx) < 2:
        return leaf()
    n_features = XT.shape[0]
    if params.col_subsample_per_node < 1.0:
        m = max(1, math.ceil(params.col_subsample_per_node * n_features))
        cols = np.sort(rng.choice(n_features, size=m, replace=False))
    else:
        cols = np.arange(n_features)
    mcw = params.min_child_weight
    if H - mcw < mcw:
        return leaf()
    if keep is not None:
        S = S.ravel().compress(keep.ravel()).reshape(n_features, -1)
    found = _best_split(XT, gh, S, cols, G, H, params)
    if found is None:
        return leaf()
    feature, threshold, gain = found
    go_left = XT[feature] < threshold
    on_left = go_left[idx]
    # Children at max_depth are leaves and never read their lists.
    in_left = go_left.take(S) if depth + 1 < params.max_depth else None
    left = _build_tree(XT, gh, idx[on_left], S, in_left, depth + 1, params,
                       rng)
    right = _build_tree(XT, gh, idx[~on_left], S,
                        None if in_left is None else ~in_left, depth + 1,
                        params, rng)
    return {"feature": feature, "threshold": threshold, "gain": gain,
            "left": left, "right": right}


def _apply_tree(node: dict, X: np.ndarray, out: np.ndarray,
                idx: np.ndarray) -> None:
    if "weight" in node:
        out[idx] = node["weight"]
        return
    go_left = X[idx, node["feature"]] < node["threshold"]
    _apply_tree(node["left"], X, out, idx[go_left])
    _apply_tree(node["right"], X, out, idx[~go_left])


def _tree_output(node: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=float)
    _apply_tree(node, X, out, np.arange(X.shape[0]))
    return out


def train(X: np.ndarray, y: np.ndarray, params: BoostParams) -> BoostModel:
    """Fit a boosted ensemble; deterministic for fixed (X, y, params).

    The columns are presorted in ``X``'s own dtype when every value of it
    converts to float exactly, so the stable order is the float order; for
    ``int16`` counts numpy's stable argsort is a radix sort.
    """
    X = np.asarray(X)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise BoostError("X must be a non-empty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise BoostError("y length must match X rows")
    if not np.all((y == 0) | (y == 1)):
        raise BoostError("labels must be 0 or 1")
    exact = X.dtype.kind in "biuf" and X.dtype.itemsize <= 4
    order = np.argsort(X.T if exact else X.T.astype(float), axis=1,
                       kind="stable")
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    rng = np.random.default_rng(params.seed)
    base_margin = logit(params.base_score)
    margins = np.full(n, base_margin)
    model = BoostModel(trees=[], params=params, n_features=X.shape[1],
                       base_margin=base_margin)
    gh = np.empty(n, dtype=complex)
    for _ in range(params.rounds):
        p = sigmoid(margins)
        gh.real = p - y
        gh.imag = p * (1.0 - p)
        if params.row_subsample < 1.0:
            m = max(1, int(math.floor(params.row_subsample * n)))
            idx = np.sort(rng.choice(n, size=m, replace=False))
            keep = np.zeros(n, dtype=bool)
            keep[idx] = True
            keep = keep.take(order)
        else:
            idx = np.arange(n)
            keep = None
        tree = _build_tree(XT, gh, idx, order, keep, 0, params, rng)
        model.trees.append(tree)
        if len(model.trees) < params.rounds:   # the last update is unread
            margins += _tree_output(tree, X)
    return model


def predict_margin(model: BoostModel, x: np.ndarray):
    """Raw margin: base margin plus the sum of (scaled) leaf weights."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != model.n_features:
        raise BoostError(
            f"expected {model.n_features} features, got {X.shape[1]}")
    margins = np.full(X.shape[0], model.base_margin)
    for tree in model.trees:
        margins += _tree_output(tree, X)
    return float(margins[0]) if single else margins


def predict_prob(model: BoostModel, x: np.ndarray):
    return sigmoid(predict_margin(model, x))


def classify(model: BoostModel, x: np.ndarray):
    """Threshold at exactly 0.5; a tie goes to the positive (threat) class."""
    prob = predict_prob(model, x)
    return np.asarray(prob) >= 0.5 if np.ndim(prob) else prob >= 0.5


def feature_importance(model: BoostModel) -> dict[int, float]:
    """Total realized split gain per feature; unused features map to 0."""
    totals = {i: 0.0 for i in range(model.n_features)}
    for feature, gain in model.split_gain_log:
        totals[feature] += gain
    return totals


def model_to_json(model: BoostModel) -> str:
    """Versioned JSON serialization for audit and golden-file tests."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "params": asdict(model.params),
        "n_features": model.n_features,
        "base_margin": model.base_margin,
        "trees": model.trees,
    }
    return json.dumps(doc, indent=1, sort_keys=True)
