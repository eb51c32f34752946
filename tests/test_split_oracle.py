"""The presorted split search against a per-node-sort reference oracle.

``oracle_best_split`` and ``oracle_train`` are the earlier implementation,
which sorts every node's rows afresh, sums ``g`` and ``h`` separately and
searches every node it reaches.  They live here only as references: the
presorted column blocks, packed gradient pairs, skipped searches and lazy
partitions in ``soundskew.boost`` must give the same split, gain and
model bit for bit, not merely approximately.  The oracle trees are nested
dicts in the node form of the tests' nested view of a model,
``conftest.model_document``, routed by the recursive ``tree_output``, and
models are compared as the ``serialized`` text of that view.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from soundskew.boost import (
    MODEL_FORMAT_VERSION,
    BoostParams,
    _best_split,
    leaf_weight,
    logit,
    sigmoid,
    train,
)
from tests.conftest import (
    model_document,
    serialized,
    serialized_gain_log,
    tree_output,
)


def oracle_best_split(X, g, h, cols, params):
    """Exact greedy search on the node's own rows, sorted per call."""
    n = X.shape[0]
    if n < 2:
        return None
    Xs = X[:, cols].astype(float, copy=False)
    order = np.argsort(Xs, axis=0, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=0)
    gs = g[order]
    hs = h[order]
    GL = np.cumsum(gs, axis=0)[:-1]
    HL = np.cumsum(hs, axis=0)[:-1]
    Gtot, Htot = g.sum(), h.sum()
    GR = Gtot - GL
    HR = Htot - HL
    lam = params.l2_lambda

    def score(G, H):
        denom = H + lam
        return np.divide(G * G, denom, out=np.zeros_like(G),
                         where=denom > 0)

    parent = score(np.array(Gtot), np.array(Htot))
    gains = 0.5 * (score(GL, HL) + score(GR, HR) - parent) \
        - params.min_split_gain
    valid = (xs[:-1] < xs[1:]) \
        & (HL >= params.min_child_weight) \
        & (HR >= params.min_child_weight)
    gains = np.where(valid, gains, -np.inf)
    flat = gains.ravel(order="F")
    best = int(np.argmax(flat))
    best_gain = float(flat[best])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    col_pos, row = divmod(best, gains.shape[0])
    feature = int(cols[col_pos])
    threshold = float(xs[row, col_pos] + xs[row + 1, col_pos]) / 2.0
    return feature, threshold, best_gain


def oracle_build_tree(X, g, h, idx, depth, params, rng):
    G = float(g[idx].sum())
    H = float(h[idx].sum())

    def leaf():
        return {"weight": params.learning_rate
                * leaf_weight(G, H, params.l2_lambda)}

    if depth >= params.max_depth or len(idx) < 2:
        return leaf()
    n_features = X.shape[1]
    if params.col_subsample_per_node < 1.0:
        m = max(1, math.ceil(params.col_subsample_per_node * n_features))
        cols = np.sort(rng.choice(n_features, size=m, replace=False))
    else:
        cols = np.arange(n_features)
    found = oracle_best_split(X[idx], g[idx], h[idx], cols, params)
    if found is None:
        return leaf()
    feature, threshold, gain = found
    go_left = X[idx, feature] < threshold
    left = oracle_build_tree(X, g, h, idx[go_left], depth + 1, params, rng)
    right = oracle_build_tree(X, g, h, idx[~go_left], depth + 1, params,
                              rng)
    return {"feature": feature, "threshold": threshold, "gain": gain,
            "left": left, "right": right}


def oracle_train(X, y, params):
    """The fitted model as the document ``model_document`` builds."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    rng = np.random.default_rng(params.seed)
    base_margin = logit(params.base_score)
    margins = np.full(n, base_margin)
    trees = []
    for _ in range(params.rounds):
        p = sigmoid(margins)
        g = p - y
        h = p * (1.0 - p)
        if params.row_subsample < 1.0:
            m = max(1, int(math.floor(params.row_subsample * n)))
            idx = np.sort(rng.choice(n, size=m, replace=False))
        else:
            idx = np.arange(n)
        tree = oracle_build_tree(X, g, h, idx, 0, params, rng)
        trees.append(tree)
        margins += tree_output(tree, X)
    return {"format_version": MODEL_FORMAT_VERSION, "params": asdict(params),
            "n_features": X.shape[1], "base_margin": base_margin,
            "trees": trees}


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 60))
    f = draw(st.integers(1, 8))
    X = draw(arrays(np.int64, (n, f), elements=st.integers(0, 4)))
    g = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    # Zero hessians reach the denom == 0 branch at l2_lambda=0; tiny ones
    # would only overflow both searches alike.
    h = draw(arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(1e-6, 0.25))))
    in_node = draw(arrays(bool, n, elements=st.booleans()))
    cols = sorted(draw(st.sets(st.integers(0, f - 1), min_size=1)))
    params = BoostParams(
        l2_lambda=draw(st.sampled_from([0.0, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 1.0, 5.0])),
        min_split_gain=draw(st.sampled_from([0.0, 0.01])))
    return X.astype(float), g, h, in_node, np.array(cols), params


@settings(max_examples=300, deadline=None)
@given(split_problems())
def test_presorted_search_equals_per_node_sort(problem):
    X, g, h, in_node, cols, params = problem
    idx = np.flatnonzero(in_node)
    order = np.argsort(X.T, axis=1, kind="stable")
    S = order[in_node[order]].reshape(X.shape[1], len(idx))
    found = _best_split(np.ascontiguousarray(X.T), g + 1j * h, S, cols,
                        float(g[idx].sum()), float(h[idx].sum()), params)
    assert found == oracle_best_split(X[idx], g[idx], h[idx], cols, params)


def oracle_problem():
    rng = np.random.default_rng(7)
    X = rng.integers(0, 5, size=(150, 12))
    y = (X[:, 0] + X[:, 3] + rng.integers(0, 3, size=150) > 5).astype(float)
    return X, y


@pytest.mark.parametrize("overrides", [
    {"l2_lambda": 0.0},
    {"min_child_weight": 0.0},
    {"min_child_weight": 5.0},
    {"min_split_gain": 0.5},
    {"max_depth": 1},
    {"max_depth": 6},
    {"rounds": 1},
    {"row_subsample": 1.0, "col_subsample_per_node": 1.0},
    {"rounds": 15},
], ids=["lambda0", "mcw0", "mcw5", "gamma", "depth1", "depth6", "rounds1",
        "no-subsample", "subsampled"])
def test_training_serializes_like_oracle(overrides):
    X, y = oracle_problem()
    params = BoostParams(**{"rounds": 10, "seed": 3, **overrides})
    model = train(X.astype(float), y, params)
    reference = oracle_train(X, y, params)
    assert serialized(model_document(model)) == serialized(reference)
    assert model.split_gain_log == serialized_gain_log(reference["trees"])


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32,
                                   np.float32], ids=lambda t: t.__name__)
def test_int16_and_float_input_give_the_same_model(dtype):
    X, y = oracle_problem()
    params = BoostParams(rounds=10, seed=3)
    assert serialized(model_document(train(X.astype(dtype), y, params))) \
        == serialized(model_document(train(X.astype(float), y, params)))


def test_float32_neighbours_route_by_their_float64_midpoint():
    # Each midpoint lies halfway between two adjacent float32 values; cast
    # to float32 it would round onto one of them and route both alike.
    a = np.float32(1.0) + np.arange(4, dtype=np.float32)
    X = np.stack([a, np.nextafter(a, np.float32(np.inf))], axis=1)
    X = np.tile(X.reshape(-1, 1), (5, 1))
    y = np.tile([0.0, 1.0], len(X) // 2)
    params = BoostParams(rounds=5, max_depth=3, row_subsample=1.0,
                         col_subsample_per_node=1.0, min_child_weight=0.0)
    assert serialized(model_document(train(X, y, params))) \
        == serialized(model_document(train(X.astype(float), y, params)))


def test_int16_midpoint_does_not_wrap():
    X = np.tile(np.array([[32766], [32767]], dtype=np.int16), (4, 1))
    y = np.tile([0.0, 1.0], 4)
    params = BoostParams(rounds=1, row_subsample=1.0,
                         col_subsample_per_node=1.0, min_child_weight=0.0)
    trees = train(X, y, params).trees
    assert trees.threshold[trees.roots[0]] == 32766.5


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_no_split_when_hessian_total_is_below_twice_min_child_weight(data):
    n = data.draw(st.integers(2, 30))
    f = data.draw(st.integers(1, 4))
    X = data.draw(arrays(np.int64, (n, f), elements=st.integers(0, 4)))
    g = data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    h = data.draw(arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(1e-6, 0.25))))
    H = h.sum()
    mcw = data.draw(st.floats(H / 2, 2 * H + 1.0))
    assume(H - mcw < mcw)
    params = BoostParams(l2_lambda=data.draw(st.sampled_from([0.0, 1.0])),
                         min_child_weight=mcw)
    assert oracle_best_split(X.astype(float), g, h, np.arange(f),
                             params) is None
