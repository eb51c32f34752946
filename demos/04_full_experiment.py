"""Run the complete experiment grid on the fixture corpus.

Equivalent to `soundskew run --config data/config.json --out data/out`: it
reads that config, and runs 3 languages x 4 variables x 3 folds, hypothesis
tests on the per-iteration FP rates, and name-length regressions.  Writes
reports into data/out/.
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
print(f"{len(report.records)} iterations, {len(report.failures)} failures\n")

print("mean accuracy / FP% per (language, variable):")
for agg in report.aggregates:
    fp = "NA" if agg.mean_fp_pct is None else f"{agg.mean_fp_pct:.1%}"
    print(f"  {agg.language:4s} {agg.variable:7s} "
          f"acc {agg.mean_accuracy:.1%}  fp {fp}")

print("\nH1 (FP% vs 50% chance):")
for entry in report.h1:
    if entry.result is None:
        print(f"  {entry.group}: untestable ({entry.untestable_reason})")
    else:
        r = entry.result
        print(f"  {entry.group:7s} t({r.df}) = {r.t:+.2f}, p = {r.p:.3f}")

if report.h2.result is not None:
    r = report.h2.result
    print(f"\nH2 (combat vs size FP%): t({r.df}) = {r.t:+.2f}, "
          f"p = {r.p:.3g}")

paths = emit_report(report)
print("\nwrote:", *paths, sep="\n  ")
