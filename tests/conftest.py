import csv
import dataclasses
import importlib.util
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate

from soundskew.boost import MODEL_FORMAT_VERSION, predict_prob
from soundskew.corpus import CORPUS_COLUMNS, INVENTORY_COLUMNS, load_corpus
from soundskew.labeling import HIGH, LOW, OMITTED
from soundskew.metrics import ConfusionMatrix

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
CORPUS_CSV = os.path.join(DATA_DIR, "corpus.csv")
INVENTORY_CSV = os.path.join(DATA_DIR, "inventory.csv")
BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench")

# The original study's dataset is behind a dead-tree shortlink; when a copy
# is available, drop it at these paths (same CSV schemas) to enable the
# dataset-dependent acceptance tests.
PAPER_CORPUS_CSV = os.environ.get(
    "SOUNDSKEW_PAPER_CORPUS",
    os.path.join(DATA_DIR, "paper_corpus.csv"))
PAPER_INVENTORY_CSV = os.environ.get(
    "SOUNDSKEW_PAPER_INVENTORY",
    os.path.join(DATA_DIR, "paper_inventory.csv"))

# Published confusion matrices: a character-name classifier (threat =
# post-evolution) and a given-name classifier (threat = male).
NAMES_CM = ConfusionMatrix(tp=667, fn=300, fp=444, tn=479)
GIVEN_NAMES_CM = ConfusionMatrix(tp=28918, fn=6461, fp=12623, tn=9539)

# BoostParams keywords that turn row and column subsampling off.
NO_SAMPLING = dict(row_subsample=1.0, col_subsample_per_node=1.0)


def child_env(src: str = SRC_DIR) -> dict:
    """This process's environment for a child Python that imports
    ``soundskew`` from ``src``, the checkout's ``src/`` unless given:
    ``src`` goes first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.fixture(scope="session")
def fixture_corpus():
    return load_corpus(CORPUS_CSV, INVENTORY_CSV)


def csv_rows(path) -> list[list[str]]:
    """The data rows of a corpus or inventory CSV, as lists of cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


@pytest.fixture
def write_corpus(tmp_path):
    """Write a corpus and an inventory CSV and return their paths.  A row,
    or a header, is a list of cells or a string written as is."""

    def _write(corpus_rows, inventory_rows,
               headers=(CORPUS_COLUMNS, INVENTORY_COLUMNS)):
        paths = str(tmp_path / "corpus.csv"), str(tmp_path / "inventory.csv")
        for path, header, rows in zip(paths, headers,
                                      (corpus_rows, inventory_rows)):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                for row in [header, *rows]:
                    if isinstance(row, str):
                        fh.write(row + "\n")
                    else:
                        writer.writerow(row)
        return paths

    return _write


@pytest.fixture
def load_bench(monkeypatch):
    """Import a ``perfbench/`` script by name, for this test only, writing
    no bytecode into ``perfbench/``."""
    monkeypatch.syspath_prepend(BENCH_DIR)      # run.py imports gen.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(BENCH_DIR, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load


def train_losses(model, X, y) -> list[float]:
    """Training log-loss after each round, from the model's tree prefixes.

    ``predict_prob`` on the first ``r`` trees adds the same tree outputs in
    the same order as training did, so this is bit for bit the curve that
    training would have logged for rows ``X``.
    """
    y = np.asarray(y, dtype=float)
    losses = []
    for r in range(1, len(model.trees) + 1):
        prefix = dataclasses.replace(model, trees=model.trees[:r])
        p = np.clip(predict_prob(prefix, X), 1e-15, 1.0 - 1e-15)
        losses.append(
            float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    return losses


def model_document(model) -> dict:
    """The model as a nested document: each tree of ``model.trees`` in the
    nested node form of an XGBoost JSON dump, built recursively."""
    t = model.trees
    feature, threshold, gain, left, right, value = (
        a.tolist() for a in (t.feature, t.threshold, t.gain, t.left, t.right,
                             t.value))

    def node(i: int) -> dict:
        if left[i] == i:
            return {"weight": value[i]}
        return {"feature": feature[i], "threshold": threshold[i],
                "gain": gain[i], "left": node(left[i]),
                "right": node(right[i])}

    return {
        "format_version": MODEL_FORMAT_VERSION,
        "params": dataclasses.asdict(model.params),
        "n_features": model.n_features,
        "base_margin": model.base_margin,
        "trees": [node(root) for root in t.roots.tolist()],
    }


def serialized(document: dict) -> str:
    """A nested model document as text.  Compare models by this text, not
    by their dicts, so that ``-0.0`` against ``0.0`` and NaN differ."""
    return json.dumps(document, indent=1, sort_keys=True)


def tree_output(node: dict, X: np.ndarray) -> np.ndarray:
    """Oracle: the weight of the leaf each row of ``X`` reaches in a
    nested tree, routed recursively, ``x[feature] < threshold`` left."""
    out = np.empty(X.shape[0], dtype=float)

    def route(node: dict, idx: np.ndarray) -> None:
        if "weight" in node:
            out[idx] = node["weight"]
            return
        go_left = X[idx, node["feature"]] < node["threshold"]
        route(node["left"], idx[go_left])
        route(node["right"], idx[~go_left])

    route(node, np.arange(X.shape[0]))
    return out


def serialized_gain_log(trees: list[dict]) -> list[tuple[int, float]]:
    """(feature, gain) of every split of nested trees, in preorder."""
    log = []

    def walk(node: dict) -> None:
        if "weight" not in node:
            log.append((node["feature"], node["gain"]))
            walk(node["left"])
            walk(node["right"])

    for tree in trees:
        walk(tree)
    return log


def beta_quadrature(a, b, x):
    """Independent oracle: adaptive quadrature of the beta density."""
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return integrate.quad(lambda t: math.exp(
        log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)),
        0.0, x, limit=200)[0]


def normal_equation_ols(x, y):
    """Independent oracle: (slope, intercept, R²) by the normal equations."""
    A = np.column_stack([np.ones(len(x)), x])
    coef = np.linalg.solve(A.T @ A, A.T @ np.asarray(y, dtype=float))
    sse = float(((y - A @ coef) ** 2).sum())
    sst = float(((y - np.mean(y)) ** 2).sum())
    return coef[1], coef[0], 1.0 - sse / sst


def sorted_median_labels(values) -> dict:
    """Oracle: ``median_split``'s labels, with the median found by sorting."""
    s = sorted(v for _, v in values)
    n = len(s)
    med = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
    return {sid: LOW if v < med else HIGH if v > med else OMITTED
            for sid, v in values}
