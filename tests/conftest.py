import dataclasses
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from soundskew.boost import model_to_json, predict_prob
from soundskew.corpus import load_corpus

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")
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


@pytest.fixture(scope="session")
def fixture_corpus():
    return load_corpus(CORPUS_CSV, INVENTORY_CSV)


@pytest.fixture
def write_corpus(tmp_path):
    """Write small corpus/inventory CSVs and return their paths."""

    def _write(corpus_rows, inventory_rows):
        corpus = tmp_path / "corpus.csv"
        inventory = tmp_path / "inventory.csv"
        corpus.write_text(
            "id,language,name,transcription,attack,defend,height,weight\n"
            + "".join(r + "\n" for r in corpus_rows), encoding="utf-8")
        inventory.write_text(
            "language,token,is_tone\n"
            + "".join(r + "\n" for r in inventory_rows), encoding="utf-8")
        return str(corpus), str(inventory)

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


def json_trees(model) -> list[dict]:
    """The model's trees in their serialized nested node form."""
    return json.loads(model_to_json(model))["trees"]


def tree_output(node: dict, X: np.ndarray) -> np.ndarray:
    """Oracle: the weight of the leaf each row of ``X`` reaches in a
    serialized tree, routed recursively, ``x[feature] < threshold`` left."""
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
    """(feature, gain) of every split of serialized trees, in preorder."""
    log = []

    def walk(node: dict) -> None:
        if "weight" not in node:
            log.append((node["feature"], node["gain"]))
            walk(node["left"])
            walk(node["right"])

    for tree in trees:
        walk(tree)
    return log
