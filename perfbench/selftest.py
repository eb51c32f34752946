"""Quick self-test of the benchmark at tiny sizes (a few seconds).

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that the generator reproduces the shipped fixture byte for byte, that
both modes print every metric by name with a unit and emit exactly the
metrics BENCHMARK.json declares, and that a corrupted ``records.tsv`` or a
hash that differs from its pin counts every group of the run as failed.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import sys
import tempfile

import gen
import run

# The metrics the benchmark was specified to print, one name each.
SPECIFIED = {
    0: ("run_s", "setup_s", "fits_per_s", "peak_rss_mb", "failed_frac"),
    1: ("boost.train_s", "boost.train_calls", "boost.fit_s_p50",
        "boost.fit_s_tail", "boost.trees", "boost.nodes", "boost.splits",
        "boost.train_row_rounds", "boost.train_ns_per_row_round",
        "boost.predict_s", "boost.predict_rows", "corpus.load_s",
        "corpus.entries", "corpus.featurize_s", "corpus.featurize_calls",
        "corpus.name_length_s", "corpus.name_length_calls",
        "labeling.median_split_s", "labeling.balance_s",
        "labeling.make_folds_s", "labeling.omitted", "labeling.kept_frac",
        "metrics.s", "metrics.calls", "stats.s", "stats.ttest_calls",
        "stats.ols_calls", "runner.run_experiment_s", "runner.self_s",
        "runner.emit_s", "runner.report_bytes", "cli.import_s",
        "trace.overhead_frac", "trace.accounted_frac"),
}

TINY = run.Workload("tiny", names=40,
                    config={"k": 2,
                            "boost_params": {"rounds": 2, "max_depth": 2}})


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_generator(root: str, work: str) -> None:
    out = os.path.join(work, "fixture")
    gen.write_corpus(out, names=300, copies=1, seed=898, root=root)
    for name in ("corpus.csv", "inventory.csv"):
        check(filecmp.cmp(os.path.join(out, name),
                          os.path.join(root, "data", name), shallow=False),
              f"generator does not reproduce data/{name}")


def check_modes(root: str, work: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        bench = run.Bench(root, TINY, run.DEFAULT_SEED,
                          tempfile.mkdtemp(dir=work))
        result = bench.measure(seconds=0, trace=bool(trace))
        check(result["correct"] and result["failed"] == 0,
              f"tiny run with trace {trace} is not correct: {bench.lines}")
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        check(set(emitted) == {m["name"] for m in declared[key]},
              f"trace {trace} emits {sorted(emitted)}, BENCHMARK.json "
              f"declares {[m['name'] for m in declared[key]]}")
        for m in declared[key]:
            check(emitted[m["name"]] == m["unit"],
                  f"{m['name']} unit {emitted[m['name']]} != {m['unit']}")
        for name in SPECIFIED[trace]:
            pattern = rf"^{re.escape(name)} = \S+ \S+"
            check(any(re.match(pattern, ln) for ln in bench.lines),
                  f"{name} is not printed with a unit")


def check_corruption(root: str, work: str) -> None:
    bench = run.Bench(root, TINY, 1, tempfile.mkdtemp(dir=work))
    out_dir = os.path.join(bench.work, "out")
    rc = bench.spawn([sys.executable, "-m", "soundskew.cli", "run",
                      "--config", bench.config, "--out", out_dir]).code
    failed, hashes, problems = run.check_outputs(out_dir, rc, TINY, None)
    check(failed == 0 and not problems, f"clean run flagged: {problems}")
    failed, _, _ = run.check_outputs(out_dir, rc, TINY,
                                     dict(hashes, **{"records.tsv": "0"}))
    check(failed == TINY.groups, "a hash that differs from its pin passed")
    path = os.path.join(out_dir, "records.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    cells = lines[1].split("\t")
    cells[4] = str(int(cells[4]) + 1)      # one more true positive
    lines[1] = "\t".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    failed, _, problems = run.check_outputs(out_dir, rc, TINY, None)
    check(failed == TINY.groups, "a corrupted records.tsv passed")
    failed, _, _ = run.check_outputs(out_dir, 2, TINY, None)
    check(failed == TINY.groups, "a non-zero exit passed")


def main() -> int:
    root = os.getcwd()
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        check_generator(root, work)
        check_modes(root, work)
        check_corruption(root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
