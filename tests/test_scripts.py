"""The repository's scripts, each run as a reader runs it: a child Python on
the checkout's ``src/``, from a copy under ``tmp_path`` of the files it reads,
so nothing is written into the checkout.

- The demos run under ``-W error``, so a numpy deprecation that could change
  a statistic fails.  Demo 04 is the shipped config's 200-round run, and its
  ``records.tsv`` is checked against the one stored hash of the shipped run,
  and it prints the ``report.md`` it wrote.  Demo 02 trains that run's
  jpn/Attack fold 0 model, and its counts are checked against that fold's
  record.
- The fixture generator rewrites ``data/``'s corpus and inventory byte for
  byte.
- The benchmark self-test passes.  It runs as a child because ``Bench`` pins
  its own process to one CPU.
"""

import hashlib
import os
import shutil
import subprocess
import sys

import pytest

from tests.conftest import child_env

ROOT = os.path.join(os.path.dirname(__file__), "..")
DATA_INPUTS = ("data/config.json", "data/corpus.csv", "data/inventory.csv")
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name[:2].isdigit())

# sha256 of the records.tsv that the shipped data/config.json writes.
SHIPPED_RECORDS_SHA256 = \
    "98a08c902af12e2a6d8ebf8a2694cca49b25cd14690d9a3dd08b743667f854a2"


def copy_checkout(tmp_path, *paths):
    """Copy the checkout's files and directories ``paths`` into ``tmp_path``,
    without bytecode, and return it."""
    for path in paths:
        source, target = os.path.join(ROOT, path), tmp_path / path
        if os.path.isdir(source):
            shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                "__pycache__", "*.egg-info"))
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, target)
    return tmp_path


def run_script(cwd, *args) -> str:
    """Run ``python3 *args`` in ``cwd`` on the checkout's ``src/``; assert
    that it exits 0 and return its standard output."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_without_warnings(demo, tmp_path):
    work = copy_checkout(tmp_path, "demos", *DATA_INPUTS)
    out = run_script(work, "-W", "error", os.path.join("demos", demo))
    if demo == "02_train_boost.py":     # the shipped jpn/Attack/0 record
        assert "\nfold 0: tp=37 fp=15 fn=11 tn=33\n" in out
    if demo == "04_full_experiment.py":
        records = (work / "data" / "out" / "records.tsv").read_bytes()
        assert hashlib.sha256(records).hexdigest() == SHIPPED_RECORDS_SHA256
        assert out.endswith((work / "data" / "out" / "report.md").read_text())


def test_fixture_generator_rewrites_data(tmp_path):
    work = copy_checkout(tmp_path, "demos")
    run_script(work, os.path.join("demos", "make_fixture_corpus.py"))
    for name in ("corpus.csv", "inventory.csv"):
        with open(os.path.join(ROOT, "data", name), "rb") as fh:
            assert (work / "data" / name).read_bytes() == fh.read(), name


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the benchmark pins itself to one CPU with "
                           "os.sched_setaffinity")
def test_benchmark_selftest_passes(tmp_path):
    work = copy_checkout(tmp_path, "src", "demos", "perfbench",
                         "BENCHMARK.json", *DATA_INPUTS)
    out = run_script(work, os.path.join("perfbench", "selftest.py"))
    assert out.endswith("selftest passed\n"), out
