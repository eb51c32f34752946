import dataclasses
import glob
import inspect
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from soundskew.boost import (
    BoostError,
    BoostParams,
    Trees,
    _score,
    feature_importance,
    leaf_weight,
    model_to_json,
    predict_margin,
    predict_prob,
    train,
)
from soundskew.runner import fit_fold
from tests.conftest import (
    NO_SAMPLING,
    model_document,
    serialized,
    serialized_gain_log,
    train_losses,
    tree_output,
)


def logistic_loss(label, margin):
    p = 1.0 / (1.0 + math.exp(-margin))
    return -(label * math.log(p) + (1 - label) * math.log(1 - p))


def grad_hess(label: int, prob: float) -> tuple[float, float]:
    """Oracle: gradient and hessian of the logistic loss at ``prob``."""
    if not 0.0 < prob < 1.0:
        raise BoostError(f"prob must be strictly inside (0, 1), got {prob}")
    if label not in (0, 1):
        raise BoostError(f"label must be 0 or 1, got {label!r}")
    return prob - label, prob * (1.0 - prob)


def split_gain(GL: float, HL: float, GR: float, HR: float,
               l2_lambda: float, min_split_gain: float = 0.0) -> float:
    """Oracle: gain of splitting a node into (GL, HL) and (GR, HR).

    Built on ``boost._score``, the structure score ``_best_split`` uses, so
    these tests check that kernel on hand-sized inputs.
    """
    left, right, parent = _score(np.array([GL, GR, GL + GR], dtype=float),
                                 np.array([HL, HR, HL + HR], dtype=float),
                                 l2_lambda)
    return float(0.5 * (left + right - parent) - min_split_gain)


def finite_difference_grad_hess(label: int, margin: float):
    """Central differences of the logistic loss in the margin."""
    g_eps, h_eps = 1e-6, 1e-4  # larger step for the second difference
    g = (logistic_loss(label, margin + g_eps)
         - logistic_loss(label, margin - g_eps)) / (2 * g_eps)
    h = (logistic_loss(label, margin + h_eps)
         - 2 * logistic_loss(label, margin)
         + logistic_loss(label, margin - h_eps)) / h_eps ** 2
    return g, h


class TestGradHess:
    def test_label_one_at_half(self):
        assert grad_hess(1, 0.5) == (-0.5, 0.25)

    def test_label_zero_at_half(self):
        assert grad_hess(0, 0.5) == (0.5, 0.25)

    def test_prob_bounds_enforced(self):
        for prob in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(BoostError):
                grad_hess(1, prob)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            label = int(rng.integers(0, 2))
            prob = float(rng.uniform(0.05, 0.95))
            margin = math.log(prob / (1 - prob))
            g, h = grad_hess(label, prob)
            g_fd, h_fd = finite_difference_grad_hess(label, margin)
            assert abs(g - g_fd) < 1e-6
            assert abs(h - h_fd) < 1e-6


class TestSplitGain:
    def test_hand_computed(self):
        assert split_gain(-2, 1, 2, 1, l2_lambda=1, min_split_gain=0) \
            == pytest.approx(2.0)

    def test_zero_gradients_give_minus_gamma(self):
        assert split_gain(0, 1, 0, 1, l2_lambda=0.5, min_split_gain=0.3) \
            == pytest.approx(-0.3)

    def test_proportional_children_never_gain(self):
        # GL/HL == GR/HR means both children share the parent's optimum
        rng = np.random.default_rng(1)
        for _ in range(200):
            ratio = rng.normal()
            hl, hr = rng.uniform(0.1, 5, size=2)
            gain = split_gain(ratio * hl, hl, ratio * hr, hr,
                              l2_lambda=0.0, min_split_gain=0.0)
            assert gain <= 1e-12


class TestLeafWeight:
    def test_hand_computed(self):
        # 4 samples, all label 1, initial prob 0.5: G=-2, H=1
        assert leaf_weight(-2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero_gradient(self):
        assert leaf_weight(0.0, 2.0, 1.0) == 0.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(BoostError):
            leaf_weight(1.0, 0.0, 0.0)

    def test_minimizes_quadratic_objective(self):
        rng = np.random.default_rng(2)
        grid = np.arange(-10, 10, 1e-4)
        for _ in range(20):
            G = float(rng.normal(scale=3))
            H = float(rng.uniform(0.1, 5))
            lam = float(rng.uniform(0, 2))
            w = leaf_weight(G, H, lam)
            objective = G * grid + 0.5 * (H + lam) * grid ** 2
            best = grid[np.argmin(objective)]
            assert abs(w - best) < 2e-4


def chain_model():
    """(X, y, model) of a one-tree model deeper than the recursion limit.

    Alternating labels on one column make a chain of splits, about one
    level per row.
    """
    X = np.arange(1500, dtype=float)[:, None]
    y = np.arange(1500) % 2
    return X, y, train(X, y, BoostParams(rounds=1, max_depth=5000,
                                         min_child_weight=0.0, **NO_SAMPLING))


class TestTrain:
    def test_single_class_degenerates_to_that_class(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 3, size=(20, 5)).astype(float)
        model = train(X, np.ones(20, dtype=int), BoostParams(rounds=5))
        assert (predict_prob(model, X) >= 0.5).all()
        model = train(X, np.zeros(20, dtype=int), BoostParams(rounds=5))
        assert not (predict_prob(model, X) >= 0.5).any()

    @pytest.mark.parametrize("X, y, message", [
        (np.zeros((0, 3)), np.zeros(0), "X must be a non-empty 2-D matrix"),
        (np.zeros((4, 3)), np.zeros(3), "y length must match X rows"),
        (np.zeros((2, 3)), np.array([0, 2]), "labels must be 0 or 1"),
    ], ids=["empty-matrix", "y-length", "labels"])
    def test_bad_input_rejected(self, X, y, message):
        with pytest.raises(BoostError) as info:
            train(X, y, BoostParams())
        assert str(info.value) == message

    def test_training_loss_non_increasing_without_subsampling(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 4, size=(100, 8)).astype(float)
        y = (X[:, 0] + rng.normal(0, 1, 100) > 1.5).astype(int)
        model = train(X, y, BoostParams(rounds=50, **NO_SAMPLING))
        losses = train_losses(model, X, y)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_depth_bound_respected(self):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 5, size=(100, 10)).astype(float)
        y = rng.integers(0, 2, size=100)
        model = train(X, y, BoostParams(rounds=5, max_depth=3, **NO_SAMPLING))

        def depth(node):
            return 0 if "weight" in node \
                else 1 + max(depth(node["left"]), depth(node["right"]))

        assert all(depth(t) <= 3 for t in model_document(model)["trees"])

    def test_tree_deeper_than_recursion_limit(self):
        X, y, model = chain_model()
        t = model.trees
        depth = np.zeros(len(t.left), dtype=int)
        for i in np.flatnonzero(t.left != np.arange(len(t.left))):
            depth[[t.left[i], t.right[i]]] = depth[i] + 1
        assert depth.max() > sys.getrecursionlimit()
        assert ((predict_prob(model, X) >= 0.5) == y).all()

    def test_leaf_weights_are_scaled_leaf_optimum(self):
        # reconstruct (G, H) at each leaf from the training trajectory, both
        # in closed form and from finite differences of the logistic loss
        rng = np.random.default_rng(8)
        X = rng.integers(0, 3, size=(50, 4)).astype(float)
        y = (X[:, 0] > 0).astype(int)
        params = BoostParams(rounds=10, learning_rate=0.3, l2_lambda=1.5,
                             **NO_SAMPLING)
        model = train(X, y, params)
        margins = np.full(50, model.base_margin)
        for tree in model_document(model)["trees"]:
            p = 1.0 / (1.0 + np.exp(-margins))
            g, h = p - y, p * (1 - p)
            fd = np.array([finite_difference_grad_hess(label, margin)
                           for label, margin in zip(y, margins)])
            assert np.allclose(fd[:, 0], g, rtol=0, atol=1e-6)
            assert np.allclose(fd[:, 1], h, rtol=0, atol=1e-6)

            def check(node, idx):
                if "weight" in node:
                    expected = params.learning_rate * leaf_weight(
                        g[idx].sum(), h[idx].sum(), params.l2_lambda)
                    assert node["weight"] == pytest.approx(expected,
                                                           abs=1e-12)
                    from_fd = params.learning_rate * leaf_weight(
                        fd[idx, 0].sum(), fd[idx, 1].sum(), params.l2_lambda)
                    assert node["weight"] == pytest.approx(from_fd, abs=1e-5)
                    margins[idx] += node["weight"]
                    return
                mask = X[idx, node["feature"]] < node["threshold"]
                check(node["left"], idx[mask])
                check(node["right"], idx[~mask])

            check(tree, np.arange(50))


class TestPredict:
    def test_zero_tree_model_ties_to_threat(self):
        model = train(np.array([[0.0], [1.0]]), np.array([0, 1]),
                      BoostParams(rounds=1, **NO_SAMPLING))
        model.trees = model.trees[:0]
        x = np.array([3.0])
        assert predict_margin(model, x[None, :]).tolist() == [0.0]
        assert predict_prob(model, x[None, :]).tolist() == [0.5]
        # A fold counts a tie as threat: two equal training rows labeled 0
        # and 1 give one leaf of weight 0, so the test row's p is exactly
        # 0.5, and its non-threat label makes it a false positive.
        X = np.array([[1.0], [1.0], [3.0]])
        model, cm = fit_fold(X, np.array([0, 1, 0]),
                             np.array([False, False, True]),
                             BoostParams(rounds=1, **NO_SAMPLING))
        assert model.trees.value.tolist() == [0.0]
        assert predict_prob(model, X[2:]).tolist() == [0.5]
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 1, 0, 0)

    def test_single_leaf_tree_weight_is_margin(self):
        model = train(np.array([[0.0], [1.0]]), np.array([0, 1]),
                      BoostParams(rounds=1, **NO_SAMPLING))
        model.trees = Trees(
            feature=np.zeros(1, dtype=np.intp), threshold=np.zeros(1),
            gain=np.zeros(1), left=np.zeros(1, dtype=np.intp),
            right=np.zeros(1, dtype=np.intp), value=np.array([0.75]),
            roots=np.array([0]), ends=np.array([1]), depth=0)
        x = np.array([0.0])
        assert predict_margin(model, x[None, :]).tolist() \
            == pytest.approx([0.75])

    def test_dimension_mismatch_rejected(self):
        model = train(np.array([[0.0], [1.0]]), np.array([0, 1]),
                      BoostParams(rounds=1, **NO_SAMPLING))
        with pytest.raises(BoostError, match="expected 1 features, got 2"):
            predict_margin(model, np.array([[1.0, 2.0]]))
        # a single row is a 1 x n matrix, not a 1-D array
        with pytest.raises(BoostError, match="2-D"):
            predict_margin(model, np.array([1.0]))

    def test_int16_rows_route_as_stored(self):
        """An int16 matrix gets the margins of its float64 upcast, byte for
        byte, and is routed without a float copy."""
        rng = np.random.default_rng(7)
        X = rng.integers(-3, 4, size=(10_000, 200)).astype(np.int16)
        X[:, 0] = rng.integers(-2**15, 2**15, size=len(X))
        y = (X[:, 0] > 1000) ^ (X[:, 1] + X[:, 2] > 0)
        model = train(X[:400], y[:400], BoostParams(rounds=8, seed=3))
        assert len({f for f, _ in model.split_gain_log}) > 3
        want = predict_margin(model, X.astype(float))
        tracemalloc.start()
        try:
            got = predict_margin(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < X.size * 8 / 2, peak


def oracle_margin(model, X):
    """Base margin plus each nested tree's recursive output, in order."""
    margins = np.full(X.shape[0], model.base_margin)
    for tree in model_document(model)["trees"]:
        margins += tree_output(tree, X)
    return margins


def thresholds(node: dict) -> list[float]:
    if "weight" in node:
        return []
    return [node["threshold"], *thresholds(node["left"]),
            *thresholds(node["right"])]


@st.composite
def models_and_rows(draw):
    """A small fitted model, and query rows with some exactly at its
    thresholds (midpoints of the integer training values)."""
    n = draw(st.integers(2, 40))
    f = draw(st.integers(1, 5))
    X = draw(arrays(np.int16, (n, f), elements=st.integers(0, 4)))
    y = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    params = BoostParams(
        rounds=draw(st.integers(1, 8)), max_depth=draw(st.integers(1, 4)),
        min_child_weight=draw(st.sampled_from([0.0, 0.5, 2.0])),
        row_subsample=draw(st.sampled_from([1.0, 0.7])),
        col_subsample_per_node=draw(st.sampled_from([1.0, 0.6])),
        seed=draw(st.integers(0, 1000)))
    model = train(X, y, params)
    rows = draw(arrays(float, (draw(st.integers(1, 20)), f),
                       elements=st.sampled_from(np.arange(-1.0, 5.5, 0.5))))
    at = [t for tree in model_document(model)["trees"]
          for t in thresholds(tree)]
    at_threshold = np.repeat(np.array(at).reshape(-1, 1), f, axis=1)
    return model, np.vstack([rows, at_threshold])


class TestTreeArrays:
    """The array trees against the recursive router on their nested form."""

    @settings(max_examples=150, deadline=None)
    @given(models_and_rows())
    def test_predict_and_gain_log_match_serialized_trees(self, problem):
        model, X = problem
        assert len(model.trees) == model.params.rounds
        # the node arrays hold the fitted nodes and no spare room
        assert len(model.trees.value) == model.trees.ends[-1]
        assert predict_margin(model, X).tobytes() \
            == oracle_margin(model, X).tobytes()
        assert predict_margin(model, X[:1]).tobytes() \
            == oracle_margin(model, X[:1]).tobytes()
        for r in range(len(model.trees) + 1):
            prefix = dataclasses.replace(model, trees=model.trees[:r])
            assert len(prefix.trees) == r
            assert model_document(prefix)["trees"] \
                == model_document(model)["trees"][:r]
            assert predict_margin(prefix, X).tobytes() \
                == oracle_margin(prefix, X).tobytes()
            # preorder is the order in which training made the splits
            assert prefix.split_gain_log \
                == serialized_gain_log(model_document(prefix)["trees"])

    def test_many_rows_are_routed_in_blocks_of_trees(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 5, size=(20_000, 6)).astype(float)
        y = (X[:, 0] + rng.integers(0, 3, size=20_000) > 4).astype(float)
        model = train(X, y, BoostParams(rounds=7, max_depth=3, seed=5))
        # about 2**16 (tree, row) pairs at a time: blocks of 3, 3 and 1 trees
        assert predict_margin(model, X).tobytes() \
            == oracle_margin(model, X).tobytes()

    def test_strided_slice_of_trees_rejected(self):
        model = train(np.array([[0.0], [1.0]]), np.array([0, 1]),
                      BoostParams(rounds=3, **NO_SAMPLING))
        with pytest.raises(ValueError, match="contiguous"):
            model.trees[::2]


class TestModelToJson:
    @settings(max_examples=100, deadline=None)
    @given(problem=models_and_rows(), data=st.data())
    def test_matches_nested_serialization(self, problem, data):
        model = problem[0]
        t = model.trees
        # any float in the float columns, NaN and the infinities included
        floats = {name: data.draw(arrays(float, len(t.value),
                                         elements=st.floats()))
                  for name in ("threshold", "gain", "value")}
        rounds = data.draw(st.integers(0, len(t)))
        for m in (model, dataclasses.replace(
                model, base_margin=data.draw(st.floats()),
                trees=dataclasses.replace(t, **floats)[:rounds])):
            assert model_to_json(m) == serialized(model_document(m))

    def test_chain_deeper_than_recursion_limit(self):
        model = chain_model()[2]
        text = model_to_json(model)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)   # the oracle recurses per level
        try:
            assert text == serialized(model_document(model))
        finally:
            sys.setrecursionlimit(limit)

    def test_only_this_class_and_the_model_pin_call_the_writer(self):
        """Every other test sees a model through ``model_document``, the
        first-model pin too."""
        calls = {}
        for path in glob.glob(os.path.join(os.path.dirname(__file__),
                                           "*.py")):
            with open(path, encoding="utf-8") as fh:
                text = fh.read().replace(inspect.getsource(TestModelToJson),
                                         "")
            calls[os.path.basename(path)] = text.count("model_to_json(")
        assert {name: n for name, n in calls.items() if n} == {}


class TestFeatureImportance:
    def test_zero_tree_model_all_zero(self):
        model = train(np.array([[0.0], [1.0]]), np.array([0, 1]),
                      BoostParams(rounds=1, **NO_SAMPLING))
        model.trees = model.trees[:0]
        assert set(feature_importance(model).values()) == {0.0}

    def test_depth_one_single_nonzero(self):
        X = np.array([[0.0, 5.0]] * 4 + [[1.0, 5.0]] * 4)
        y = np.array([0] * 4 + [1] * 4)
        model = train(X, y, BoostParams(rounds=1, max_depth=1,
                                        min_child_weight=0.0, **NO_SAMPLING))
        imp = feature_importance(model)
        assert imp[0] > 0
        assert imp[1] == 0.0
        assert imp[0] \
            == pytest.approx(model_document(model)["trees"][0]["gain"])

    def test_totals_match_training_gain_log(self):
        rng = np.random.default_rng(9)
        X = rng.integers(0, 4, size=(90, 7)).astype(float)
        y = (X[:, 2] > 1).astype(int)
        model = train(X, y, BoostParams(rounds=30))
        assert sum(feature_importance(model).values()) \
            == pytest.approx(sum(g for _, g in model.split_gain_log))


class TestParams:
    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"rounds": 0}, "rounds must be >= 1", id="rounds"),
        pytest.param({"learning_rate": 0.0}, "learning_rate must be in (0, 1]",
                     id="learning-rate-zero"),
        pytest.param({"learning_rate": 1.5}, "learning_rate must be in (0, 1]",
                     id="learning-rate-above-1"),
        pytest.param({"max_depth": 0}, "max_depth must be >= 1",
                     id="max-depth"),
        pytest.param({"l2_lambda": -1},
                     "l2_lambda and min_split_gain must be >= 0",
                     id="l2-lambda"),
        pytest.param({"min_split_gain": -1},
                     "l2_lambda and min_split_gain must be >= 0",
                     id="min-split-gain"),
        pytest.param({"row_subsample": 0.0}, "row_subsample must be in (0, 1]",
                     id="row-subsample"),
        pytest.param({"col_subsample_per_node": 1.0001},
                     "col_subsample_per_node must be in (0, 1]",
                     id="col-subsample"),
        pytest.param({"base_score": 1.0}, "base_score must be in (0, 1)",
                     id="base-score"),
        pytest.param({"min_child_weight": -0.5},
                     "min_child_weight must be >= 0", id="min-child-weight"),
    ])
    def test_invalid_params_rejected(self, kwargs, message):
        with pytest.raises(BoostError) as info:
            BoostParams(**kwargs)
        assert str(info.value) == message
