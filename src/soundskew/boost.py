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

All trees of a model are one node table in preorder, tree after tree
(``Trees``): parallel arrays ``feature``, ``threshold``, ``gain``, ``left``,
``right`` and ``value``, where a leaf's children are the leaf itself.  So a
row reaches its leaf in every tree after at most ``max_depth`` vectorized
gathers, with no recursion: training routes all its rows through each new
tree that way, and ``predict_margin`` routes the rows through blocks of
trees and adds the leaf values to the base margin tree by tree.  So
``predict_margin`` on the first ``r`` trees repeats training's margin sums,
and training's loss curve can be recomputed bit for bit from a model and its
training rows.  ``model_to_json`` writes the table as the nested node form
of an XGBoost JSON dump: a leaf is ``{"weight": w}`` and a split is
``{"feature": j, "threshold": t, "gain": g, "left": ..., "right": ...}``,
routing ``x[j] < t`` to the left child.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

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


@dataclass(frozen=True, eq=False)
class Trees:
    """Fitted trees as one node table: each tree's nodes in preorder.

    Node ``i`` routes ``x`` to ``left[i]`` when ``x[feature[i]] <
    threshold[i]`` and to ``right[i]`` otherwise; ``gain[i]`` is the gain of
    that split.  A leaf is a node whose ``left`` and ``right`` are itself;
    its ``value`` is its weight (0 at a split) and its ``feature``,
    ``threshold`` and ``gain`` are 0.  Tree ``t`` is nodes ``roots[t]`` up
    to ``ends[t]``, and no path from a root to a leaf has more than
    ``depth`` splits.  A slice selects consecutive trees and shares the node
    arrays, so ``trees[:r]`` is the ensemble after ``r`` rounds.
    """

    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    ends: np.ndarray
    depth: int

    def __len__(self) -> int:
        return len(self.roots)

    def __getitem__(self, key: slice) -> Trees:
        if key.step not in (None, 1):
            raise ValueError("a slice of trees must be contiguous")
        return replace(self, roots=self.roots[key], ends=self.ends[key])


_NODE_ARRAYS = ("feature", "threshold", "gain", "left", "right", "value")


def _map_nodes(trees: Trees, f) -> Trees:
    """``trees`` with ``f`` applied to each of its node arrays."""
    return replace(trees, **{k: f(getattr(trees, k)) for k in _NODE_ARRAYS})


@dataclass
class BoostModel:
    """A fitted ensemble, held as its ``Trees``.

    The margin of ``x`` is ``base_margin`` plus the value of the leaf that
    each tree routes ``x`` to; ``n_features`` is the width ``x`` must have.
    """

    trees: Trees
    params: BoostParams
    n_features: int
    base_margin: float

    @property
    def split_gain_log(self) -> list[tuple[int, float]]:
        """(feature, gain) of every split, tree by tree in preorder.

        That is the order in which training made the splits.
        """
        t = self.trees
        ids = np.arange(t.roots[0], t.ends[-1]) if len(t) else np.arange(0)
        ids = ids[t.left.take(ids) != ids]
        return list(zip(t.feature.take(ids).tolist(),
                        t.gain.take(ids).tolist()))


def sigmoid(margin):
    return 1.0 / (1.0 + np.exp(-np.asarray(margin, dtype=float)))


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _score(G, H, l2_lambda: float):
    """Structure score G^2 / (H + lambda).

    With ``l2_lambda == 0`` the score is 0 where ``H <= 0``.  With
    ``l2_lambda > 0`` the sum is divided by as it is, so the score of a
    negative ``H`` is undefined and the caller must not read it: hessian
    sums are ``>= 0``, and a right sum ``H - HL`` that rounding leaves below
    zero fails the child-weight rule, which ``_best_split`` applies.
    """
    if l2_lambda > 0:
        return G * G / (H + l2_lambda)
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
    or ``h`` alone.  The gain ``0.5 * (left + right - parent) -
    min_split_gain`` is computed in place, in that order.

    Candidate thresholds are float midpoints between consecutive distinct
    sorted values.  Only those boundary positions are scored, flattened one
    column after another; the first maximum implements the
    lowest-feature-then-lowest-threshold tie break.
    """
    n, m = XT.shape[1], S.shape[1]
    if m < 2:
        return None
    Sc = S.take(cols, axis=0)
    ghs = gh.take(Sc)
    Sc += (cols * n)[:, None]               # row ids to positions in XT
    xs = XT.take(Sc).ravel()
    edge = xs[:-1] < xs[1:]
    edge[m - 1::m] = False                  # across two columns
    at = edge.nonzero()[0]                  # flat positions in (cols, m)
    if at.size == 0:
        return None
    left = ghs.cumsum(axis=1, out=ghs).ravel().take(at)
    GL, HL = left.real, left.imag
    GR, HR = G - GL, H - HL
    lam = params.l2_lambda
    gains = _score(GL, HL, lam)
    gains += _score(GR, HR, lam)
    gains -= _score(G, H, lam)
    gains *= 0.5
    gains -= params.min_split_gain
    np.putmask(gains, np.minimum(HL, HR) < params.min_child_weight, -np.inf)
    best = int(gains.argmax())
    best_gain = float(gains[best])
    if not math.isfinite(best_gain) or best_gain <= 0.0:
        return None
    i = at[best]
    threshold = (float(xs[i]) + float(xs[i + 1])) / 2.0
    return int(cols[i // m]), threshold, best_gain


def _build_tree(XT: np.ndarray, gh: np.ndarray, idx: np.ndarray,
                S: np.ndarray, keep: np.ndarray, params: BoostParams,
                rng: np.random.Generator, nodes: Trees, i: int) -> int:
    """Grow a tree over the ascending row ids ``idx``, in preorder.

    The tree is written into the arrays of ``nodes`` from id ``i`` on.
    Returns the first id after the tree.  Nodes wait on an explicit stack,
    so no ``max_depth`` can exhaust Python's recursion limit: a split pushes
    its right child, then its left child, so the nodes are popped, given
    ids and drawn their columns in preorder.  A split's left child is
    ``i + 1``; its right child, popped once the left subtree is done, sets
    the split's ``right`` id.

    A node's per-feature lists, its rows once per feature sorted by (value,
    row id), are ``S[keep].reshape(n_features, -1)``: ``S`` is the parent's
    lists and ``keep`` the mask of this node's side; at the root, ``S`` is
    the presorted order of all rows and ``keep`` marks the round's rows.  A
    stable mask keeps the lists sorted.  They are built only when the node
    searches, so a leaf by depth, by size or by the child-weight rule below
    never partitions.

    The totals ``G`` and ``H`` are float sums of the gathered ``g`` and
    ``h``, not a sum of ``gh``: numpy sums a float array pairwise and a
    complex array in another order, and the last bits would differ.

    A node with ``H - min_child_weight < min_child_weight`` is a leaf once
    its columns are drawn (the draw keeps the generator's stream unchanged):
    any left sum ``HL >= min_child_weight`` leaves a right sum
    ``H - HL <= H - min_child_weight`` in floats, so no candidate is valid.
    """
    n_features = XT.shape[0]
    mcw = params.min_child_weight
    draw = params.col_subsample_per_node < 1.0
    m = max(1, math.ceil(params.col_subsample_per_node * n_features))
    cols = np.arange(n_features)
    # (row ids, lists, keep mask, depth, id of the split whose right child
    # this is, or -1)
    stack = [(idx, S, keep, 0, -1)]
    while stack:
        idx, S, keep, depth, parent = stack.pop()
        if parent >= 0:
            nodes.right[parent] = i
        G = float(np.add.reduce(gh.real[idx]))
        H = float(np.add.reduce(gh.imag[idx]))
        found = None
        if depth < params.max_depth and len(idx) >= 2:
            if draw:
                cols = rng.choice(n_features, size=m, replace=False)
                cols.sort()
            if H - mcw >= mcw:
                S = S.ravel().compress(keep.ravel()).reshape(n_features, -1)
                found = _best_split(XT, gh, S, cols, G, H, params)
        if found is None:
            nodes.left[i] = nodes.right[i] = i
            nodes.value[i] = params.learning_rate * leaf_weight(
                G, H, params.l2_lambda)
            i += 1
            continue
        nodes.feature[i], nodes.threshold[i], nodes.gain[i] = found
        go_left = XT[found[0]] < np.float64(found[1])
        on_left = go_left.take(idx)
        # Children at max_depth are leaves and never read their lists.
        in_left = go_left.take(S) if depth + 1 < params.max_depth else None
        nodes.left[i] = i + 1
        stack.append((idx.compress(~on_left), S,
                      None if in_left is None else ~in_left, depth + 1, i))
        stack.append((idx.compress(on_left), S, in_left, depth + 1, -1))
        i += 1
    return i


def _routable(X) -> np.ndarray:
    """``X`` as a row-major 2-D array: as stored if float-exact (kind b/i/u/f,
    <= 4 bytes, so it routes like its upcast) or float64, else as float."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise BoostError("X must be a 2-D matrix")
    exact = X.dtype.kind in "biuf" and X.dtype.itemsize <= 4
    return np.ascontiguousarray(X, None if exact else float)


def _leaves(trees: Trees, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf id of every (root, row of ``X``): ``trees.depth`` gathers.

    A leaf routes to itself, so the routes of shallower trees stay put.  The
    result has shape ``(len(roots), len(X))``, or ``(len(roots), 1)`` (every
    row at its root) when ``trees.depth`` is 0.
    """
    row_start = np.arange(0, X.size, X.shape[1])
    node = roots[:, None]
    for _ in range(trees.depth):
        x = X.take(row_start + trees.feature.take(node))
        node = np.where(x < trees.threshold.take(node),
                        trees.left.take(node), trees.right.take(node))
    return node


def train(X: np.ndarray, y: np.ndarray, params: BoostParams) -> BoostModel:
    """Fit a boosted ensemble; deterministic for fixed (X, y, params).

    ``X`` is used in its ``_routable`` dtype; its one copy, the
    feature-major ``XT``, is presorted, searched and partitioned.
    """
    X = _routable(X)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise BoostError("X must be a non-empty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise BoostError("y length must match X rows")
    if not np.all((y == 0) | (y == 1)):
        raise BoostError("labels must be 0 or 1")
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    rng = np.random.default_rng(params.seed)
    base_margin = logit(params.base_score)
    margins = np.full(n, base_margin)
    rows = n
    if params.row_subsample < 1.0:
        rows = max(1, int(math.floor(params.row_subsample * n)))
    # Every leaf holds a row, so no path has more than rows - 1 splits and no
    # tree more than 2 * rows - 1 nodes; unused room stays zero.  Routing by
    # max_depth alone would loop for a max_depth of 10**9.
    depth = min(params.max_depth, rows - 1)
    tree_size = min(2 * rows - 1, 2 ** (depth + 1) - 1)
    roots, ends = np.zeros((2, params.rounds), dtype=np.intp)
    nodes = Trees(*(np.zeros(tree_size, dtype) for dtype in
                    (np.intp, float, float, np.intp, np.intp, float)),
                  roots, ends, depth)
    gh = np.empty(n, dtype=complex)
    free = 0
    for r in range(params.rounds):
        p = sigmoid(margins)
        gh.real = p - y
        gh.imag = p * (1.0 - p)
        if rows < n:
            idx = rng.choice(n, size=rows, replace=False)
            idx.sort()
        else:
            idx = np.arange(n)
        keep = np.zeros(n, dtype=bool)
        keep[idx] = True
        keep = keep.take(order)
        if free + tree_size > len(nodes.value):     # doubling fits a tree
            nodes = _map_nodes(
                nodes, lambda a: np.concatenate([a, np.zeros_like(a)]))
        roots[r] = free
        free = _build_tree(XT, gh, idx, order, keep, params, rng, nodes, free)
        ends[r] = free
        if r + 1 < params.rounds:              # the last update is unread
            leaf = _leaves(nodes, roots[r:r + 1], X)
            margins += nodes.value.take(leaf[0])
    trees = _map_nodes(nodes, lambda a: a[:free].copy())
    return BoostModel(trees=trees, params=params, n_features=X.shape[1],
                      base_margin=base_margin)


def predict_margin(model: BoostModel, X: np.ndarray) -> np.ndarray:
    """Raw margin of each row of the 2-D ``X``: base margin plus the sum of
    (scaled) leaf weights.

    The leaf values are added to the base margin tree by tree, as training
    added them.  ``X`` is routed as ``_routable`` keeps it, a block of trees
    at a time, about 2**16 (tree, row) pairs, so memory stays O(rows).
    """
    X = _routable(X)
    if X.shape[1] != model.n_features:
        raise BoostError(
            f"expected {model.n_features} features, got {X.shape[1]}")
    trees = model.trees
    margins = np.full(X.shape[0], model.base_margin)
    step = max(1, 2**16 // max(1, X.shape[0]))
    for s in range(0, len(trees), step):
        leaves = _leaves(trees, trees.roots[s:s + step], X)
        for values in trees.value.take(leaves):
            margins += values
    return margins


def predict_prob(model: BoostModel, X: np.ndarray) -> np.ndarray:
    return sigmoid(predict_margin(model, X))


def feature_importance(model: BoostModel) -> dict[int, float]:
    """Total realized split gain per feature; unused features map to 0."""
    totals = {i: 0.0 for i in range(model.n_features)}
    for feature, gain in model.split_gain_log:
        totals[feature] += gain
    return totals


def model_to_json(model: BoostModel) -> str:
    """Versioned JSON serialization for audit and golden-file tests.

    Each tree is written in the nested node form of an XGBoost JSON dump.
    The text is ``json.dumps(doc, indent=1, sort_keys=True)`` of that nested
    document, but each tree is written from an explicit stack, so a tree
    of any depth serializes.
    """
    t = model.trees
    feature, threshold, gain, left, right, value = (
        a.tolist() for a in (t.feature, t.threshold, t.gain, t.left, t.right,
                             t.value))
    dumps = json.dumps

    def tree_text(root: int) -> str:
        # A node is (id, indent of its braces); its keys are one deeper.  A
        # split's keys in sorted order are feature, gain, left, right and
        # threshold, so its text is cut around its two children.
        parts, stack = [], [(root, 2)]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            i, indent = item
            pad, end = "\n" + " " * (indent + 1), "\n" + " " * indent + "}"
            if left[i] == i:
                parts.append(f'{{{pad}"weight": {dumps(value[i])}{end}')
                continue
            parts.append(f'{{{pad}"feature": {feature[i]},'
                         f'{pad}"gain": {dumps(gain[i])},{pad}"left": ')
            stack += [f',{pad}"threshold": {dumps(threshold[i])}{end}',
                      (right[i], indent + 1), f',{pad}"right": ',
                      (left[i], indent + 1)]
        return "".join(parts)

    text = json.dumps({
        "format_version": MODEL_FORMAT_VERSION,
        "params": asdict(model.params),
        "n_features": model.n_features,
        "base_margin": model.base_margin,
        "trees": [],
    }, indent=1, sort_keys=True)
    # "trees" sorts last, so the text ends with its empty list and "\n}".
    trees = ",\n  ".join(tree_text(root) for root in t.roots.tolist())
    return text[:-len("[]\n}")] + (f"[\n  {trees}\n ]" if trees else "[]") \
        + "\n}"
