"""Stored-hash determinism check for the shipped config.

Two runs agreeing with each other (acceptance criterion 7) does not catch a
change that alters every number deterministically; these pins do.  They are
the ``fixture`` pins of the benchmark, copied here so that Tier-1 fails on
any change to the records, to the report (hypothesis tests and name-length
regressions) or to a fitted model's serialization.
"""

import hashlib
import json

from soundskew import boost
from soundskew.cli import main as cli_main
from tests.conftest import CORPUS_CSV, DATA_DIR, INVENTORY_CSV

RECORDS_SHA256 = \
    "bfb1850fee28f2d4c3d6b0d2d3a4fe3b9bd72a70a3ccbf7fe51978f9cbe80896"
REPORT_SHA256 = \
    "b4ec92ca8626c07e2e70eb44cec82537966913d6db2610f446d3b951c38cb940"
FIRST_MODEL_SHA256 = \
    "53da8a648651c0c6dd60e71c3f50038e37e3ea2fcc690d7076a3f8d01d60e0ed"


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

    records = (tmp_path / "out" / "records.tsv").read_bytes()
    assert sha256(records) == RECORDS_SHA256
    report = json.loads((tmp_path / "out" / "report.json").read_bytes())
    assert sha256(normalized_report(report)) == REPORT_SHA256
    assert sha256(boost.model_to_json(models[0]).encode("utf-8")) \
        == FIRST_MODEL_SHA256
