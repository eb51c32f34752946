"""Run the complete experiment grid on the fixture corpus.

Equivalent to `soundskew run --config data/config.json --out data/out`: it
reads that config, and runs 3 languages x 4 variables x 3 folds, hypothesis
tests on the per-iteration FP rates, and name-length regressions.  Writes
reports into data/out/ and prints the report.md it wrote.
"""

import dataclasses
import os

from soundskew.runner import ExperimentConfig, emit_report, run_experiment

DATA = os.path.join(os.path.dirname(__file__), "..", "data")

# The shipped config, writing next to it rather than into the working
# directory.
config = dataclasses.replace(
    ExperimentConfig.from_json(os.path.join(DATA, "config.json")),
    out_dir=os.path.join(DATA, "out"))

report = run_experiment(config)
print(f"{len(report.records)} iterations, {len(report.failures)} failures")
for path in emit_report(report):
    print("wrote", path)

with open(os.path.join(config.out_dir, "report.md"), encoding="utf-8") as fh:
    print("\n" + fh.read(), end="")
