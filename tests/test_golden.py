"""Stored-hash determinism check for every benchmark workload.

Two runs agreeing with each other (acceptance criterion 7) does not catch a
change that alters every number deterministically; these pins do.  Each case
runs one of ``perfbench/run.py``'s workloads through ``cli.main`` on the
inputs the benchmark writes for it at its pinned seed, and compares the
records, the report (hypothesis tests and name-length regressions) and the
first fitted model's serialization with ``perfbench/golden.json``, through
the benchmark's own hashing.  The model is serialized through the tests'
nested view, whose text ``TestModelToJson`` checks equals the writer's.  So
Tier-1 fails on any change that moves a pin, and a change that moves one on
purpose edits one copy.
"""

import json
import os

import pytest

from soundskew import boost
from soundskew.cli import main as cli_main
from tests.conftest import BENCH_DIR, DATA_DIR, model_document, serialized

with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("name", GOLDEN)
def test_workload_matches_pins(name, tmp_path, monkeypatch, capsys,
                               load_bench):
    bench_run = load_bench("run")
    assert list(GOLDEN) == list(bench_run.WORKLOADS)   # each one is pinned
    workload = bench_run.WORKLOADS[name]
    if workload.names is None:          # the shipped corpus and config
        with open(os.path.join(DATA_DIR, "config.json"),
                  encoding="utf-8") as fh:
            base = json.load(fh)
        for key in ("corpus_path", "inventory_path"):
            base[key] = os.path.join(DATA_DIR, base[key])
    else:
        paths = bench_run.gen.write_corpus(
            str(tmp_path / "input"), workload.names, workload.copies,
            bench_run.DEFAULT_SEED, os.path.dirname(bench_run.BENCH_DIR))
        base = dict(zip(("corpus_path", "inventory_path"), paths))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**base, **workload.config}))

    models = []
    real_train = boost.train

    def recording_train(*args, **kwargs):
        model = real_train(*args, **kwargs)
        models.append(model)
        return model

    monkeypatch.setattr(boost, "train", recording_train)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()

    pins = GOLDEN[name]
    sha256 = bench_run.sha256
    assert sha256((out / "records.tsv").read_bytes()) == pins["records.tsv"]
    report = json.loads((out / "report.json").read_bytes())
    assert sha256(bench_run.normalized_report(report)) == pins["report.json"]
    assert sha256(serialized(model_document(models[0])).encode("utf-8")) \
        == pins["model"]
