"""Generate benchmark corpora with the fixture generator's entry model.

Entries come from ``generate_entry`` and ``INVENTORIES`` in
``demos/make_fixture_corpus.py``, which stays the single definition of how a
synthetic name and its attributes are drawn.  This module only adds size,
language copies and seed: copy 0 keeps the fixture language codes, copy
``c > 0`` renames them to ``<code><c>`` with the same inventory.  With 300
names per language, one copy and seed 898 the output is byte-identical to
``data/corpus.csv`` and ``data/inventory.csv``.

Usage: python3 perfbench/gen.py OUT_DIR --names N --copies C --seed S
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import os

import numpy as np

CORPUS_FIELDS = ["id", "language", "name", "transcription",
                 "attack", "defend", "height", "weight"]


def load_fixture_module(root: str = "."):
    """Import ``demos/make_fixture_corpus.py`` of the checkout at ``root``."""
    path = os.path.join(root, "demos", "make_fixture_corpus.py")
    spec = importlib.util.spec_from_file_location("make_fixture_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_corpus(out_dir: str, names: int, copies: int, seed: int,
                 root: str = ".") -> tuple[str, str]:
    """Write corpus.csv and inventory.csv into ``out_dir``; return paths."""
    fixture = load_fixture_module(root)
    rng = np.random.default_rng(seed)
    languages = [(code if c == 0 else f"{code}{c}", spec)
                 for c in range(copies)
                 for code, spec in fixture.INVENTORIES.items()]
    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.csv")
    with open(corpus_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CORPUS_FIELDS)
        writer.writeheader()
        for language, spec in languages:
            writer.writerows(fixture.generate_entry(rng, language, spec, i)
                             for i in range(names))
    inventory_path = os.path.join(out_dir, "inventory.csv")
    with open(inventory_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["language", "token", "is_tone"])
        for language, spec in languages:
            writer.writerows([language, token, 0] for token in spec["tokens"])
            writer.writerows([language, tone, 1] for tone in spec["tones"])
    return corpus_path, inventory_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--names", type=int, required=True,
                        help="names per language")
    parser.add_argument("--copies", type=int, default=1,
                        help="renamed copies of the fixture languages")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for path in write_corpus(args.out_dir, args.names, args.copies, args.seed):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
