"""Stored-hash determinism check for the shipped config.

Two runs agreeing with each other (acceptance criterion 7) does not catch a
change that alters every number deterministically; these pins do.  They are
the benchmark's ``fixture`` pins, read from ``perfbench/golden.json``, so
that Tier-1 fails on any change to the records, to the report (hypothesis
tests and name-length regressions) or to a fitted model's serialization.
"""

import hashlib
import json
import os

from soundskew import boost
from soundskew.cli import main as cli_main
from tests.conftest import CORPUS_CSV, DATA_DIR, INVENTORY_CSV

GOLDEN_JSON = os.path.join(DATA_DIR, "..", "perfbench", "golden.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalized_report(doc: dict) -> bytes:
    """report.json without the fields that name a time or a path."""
    doc = dict(doc, config=dict(doc["config"]))
    doc.pop("timestamp")
    for key in ("corpus_path", "inventory_path", "out_dir"):
        doc["config"].pop(key)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def test_shipped_config_at_20_rounds_matches_pins(tmp_path, monkeypatch,
                                                  capsys):
    with open(f"{DATA_DIR}/config.json", encoding="utf-8") as fh:
        config = json.load(fh)
    config.update(corpus_path=CORPUS_CSV, inventory_path=INVENTORY_CSV,
                  out_dir=str(tmp_path / "out"),
                  boost_params={"rounds": 20})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    models = []
    real_train = boost.train

    def recording_train(*args, **kwargs):
        model = real_train(*args, **kwargs)
        models.append(model)
        return model

    monkeypatch.setattr(boost, "train", recording_train)
    assert cli_main(["run", "--config", str(path)]) == 0
    capsys.readouterr()

    with open(GOLDEN_JSON, encoding="utf-8") as fh:
        pins = json.load(fh)["fixture"]
    records = (tmp_path / "out" / "records.tsv").read_bytes()
    assert sha256(records) == pins["records.tsv"]
    report = json.loads((tmp_path / "out" / "report.json").read_bytes())
    assert sha256(normalized_report(report)) == pins["report.json"]
    assert sha256(boost.model_to_json(models[0]).encode("utf-8")) \
        == pins["model"]
