"""The soundskew benchmark: CLI runs end to end, and one traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixture|tall|groups --seed N \\
        --seconds S --trace 0|1

Every measurement is a fresh ``soundskew`` child process, one at a time,
with the program from ``src/`` of this checkout and a pinned environment
(one BLAS/OpenMP thread, fixed ``PYTHONHASHSEED``).  The benchmark and its
children run on one CPU.

``--trace 0`` measures end to end with tracing off.  Times are CPU times
of the child (user + system, from its own rusage), which for this
single-threaded program is its wall time without the spells the hypervisor
steals.  Each is scaled to a nominal host speed by a reference kernel timed
just before and just after the child (``perfbench/hostspeed.py``); the
unscaled CPU and wall times are printed as well.  A change that made the
program use more than one CPU would need wall time on free CPUs instead.

- ``setup_s``: median time of ``soundskew validate`` (interpreter start,
  imports, config parse, corpus and inventory load), sampled once before
  each run;
- ``run_s``: median time of ``soundskew run``, repeated while another
  set-up sample and run still fit in ``--seconds`` (at least one);
- ``fits_per_s``: records written (one per boosted fit) per ``run_s``;
- ``peak_rss_mb``: the median over runs of the ``run`` child's peak RSS;
- ``ok_frac``: 1 - failed_frac, where failed_frac is failed (language,
  variable) groups over groups attempted.  It is also in the result's
  ``failed`` and ``attempted``, and printed by name.

``--trace 1`` gives the per-layer numbers: one untraced ``run``, then the
same ``run`` under ``perfbench/traced.py``, which records a span around every
call the CLI and the runner make into a module.  A layer is a module.

Each run's ``records.tsv`` and ``report.json`` (without its timestamp and
paths) are hashed and checked: the record rows against their own counts,
against the JSON report and against the other runs, and against
``perfbench/golden.json``.  The fixture inputs do not depend on the seed, so
its pins hold at every seed; the generated workloads are pinned at seed 0
and their hashes are printed at every seed.  A mismatch counts all of the
run's groups as failed and makes the exit code 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2, with no result, means the
benchmark could not run: the checkout lacks the program, or the program
imports from elsewhere, or the traced run wrote no spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import gen
from hostspeed import NOMINAL_S as HOST_NOMINAL_S, HostSpeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
PROGRAM_FILES = ("src/soundskew/cli.py", "demos/make_fixture_corpus.py",
                 "data/config.json")
DEFAULT_SEED = 0
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 150
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
VARIABLES = ("Attack", "Defend", "Height", "Weight")
RECORD_HEADER = ("language\tvariable\tfold\tseed\ttp\tfp\tfn\ttn"
                 "\taccuracy\tfp_pct")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "fits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER_UNITS = {
    "boost.train_s": "s",
    "boost.train_calls": "count",
    "boost.fit_s_p50": "s",
    "boost.fit_s_tail": "s",
    "boost.fit_s_tail_pct": "percentile",
    "boost.trees": "count",
    "boost.nodes": "count",
    "boost.splits": "count",
    "boost.train_row_rounds": "count",
    "boost.train_ns_per_row_round": "ns",
    "boost.predict_s": "s",
    "boost.predict_rows": "count",
    "corpus.load_s": "s",
    "corpus.entries": "count",
    "corpus.featurize_s": "s",
    "corpus.featurize_calls": "count",
    "corpus.name_length_s": "s",
    "corpus.name_length_calls": "count",
    "labeling.median_split_s": "s",
    "labeling.balance_s": "s",
    "labeling.make_folds_s": "s",
    "labeling.omitted": "count",
    "labeling.kept_frac": "fraction",
    "metrics.s": "s",
    "metrics.calls": "count",
    "stats.s": "s",
    "stats.ttest_calls": "count",
    "stats.ols_calls": "count",
    "runner.run_experiment_s": "s",
    "runner.self_s": "s",
    "runner.emit_s": "s",
    "runner.report_bytes": "B",
    "cli.import_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
}


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing program, bad set-up)."""


@dataclasses.dataclass(frozen=True)
class Workload:
    """A corpus shape and config overrides; ``names=None`` is the shipped
    fixture corpus and config."""

    name: str
    names: int | None = None      # names per generated language
    copies: int = 1               # renamed copies of the 3 fixture languages
    config: dict = dataclasses.field(default_factory=dict)

    @property
    def languages(self) -> int:
        return 3 * self.copies

    @property
    def entries(self) -> int:
        return self.languages * (300 if self.names is None else self.names)

    @property
    def groups(self) -> int:
        used = len(self.config.get("languages", ())) or self.languages
        return used * len(VARIABLES)

    @property
    def k(self) -> int:
        return self.config.get("k", 3)

    def pinned_at(self, seed: int) -> bool:
        return self.names is None or seed == DEFAULT_SEED


# Each is sized so that one run takes about 2 s on a quiet 2-vCPU host: the
# host's speed changes from one run to the next, so a window of --seconds
# needs many runs for a steady median.
# fixture: the shipped corpus and config at 20 rounds instead of 200, so
# boost.train is ~92% and per-node overhead rules.
# tall: one of the three generated languages, at ~7x the fixture rows per
# node, so per-row split-search work rules.
# groups: many groups of trivial fits, so the runner's per-group scans,
# corpus, labeling and emit rule, and boost shows only its per-fit cost.
WORKLOADS = {
    "fixture": Workload("fixture", config={"boost_params": {"rounds": 20}}),
    "tall": Workload("tall", names=2000,
                     config={"languages": ["jpn"],
                             "boost_params": {"rounds": 20}}),
    "groups": Workload("groups", names=500, copies=8,
                       config={"k": 5,
                               "boost_params": {"rounds": 1,
                                                "max_depth": 1}}),
}


@dataclasses.dataclass(frozen=True)
class Child:
    """One finished child process, from its own rusage."""

    wall_s: float
    cpu_s: float          # user + system, its threads and children included
    code: int
    rss_mb: float
    output: str


@dataclasses.dataclass
class RunOutcome:
    """One ``soundskew run`` child and the check of what it wrote."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    fits: int
    failed: int
    hashes: dict
    problems: list


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def normalized_report(doc: dict) -> bytes:
    """report.json without the fields that name a time or a path."""
    doc = dict(doc, config=dict(doc["config"]))
    doc.pop("timestamp")
    for key in ("corpus_path", "inventory_path", "out_dir"):
        doc["config"].pop(key)
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def check_records(text: str, doc: dict, workload: Workload) -> list[str]:
    """Problems in records.tsv, judged by its own counts and the report."""
    lines = text.splitlines()
    if not lines or lines[0] != RECORD_HEADER:
        return ["records.tsv: bad header"]
    rows = [ln.split("\t") for ln in lines[1:]]
    expected = (workload.groups - len(doc["failures"])) * workload.k
    if len(rows) != expected:
        return [f"records.tsv: {len(rows)} rows, expected {expected}"]
    if len(doc["records"]) != len(rows):
        return ["report.json and records.tsv differ in length"]
    for row, rec in zip(rows, doc["records"]):
        if len(row) != 10:
            return [f"records.tsv: bad row {row!r}"]
        try:
            tp, fp, fn, tn = map(int, row[4:8])
        except ValueError:
            return [f"records.tsv: bad counts in {row!r}"]
        if (row[0], row[1], int(row[2]), tp, fp, fn, tn) != (
                rec["language"], rec["variable"], rec["fold"],
                rec["tp"], rec["fp"], rec["fn"], rec["tn"]):
            return [f"records.tsv row {row!r} differs from report.json"]
        if min(tp + fn, fp + tn) == 0:
            return [f"records.tsv: a test class is empty in {row!r}"]
        fpr, fnr = fp / (fp + tn), fn / (fn + tp)
        fp_pct = "NA" if fpr + fnr == 0 else f"{fpr / (fpr + fnr):.10g}"
        if (row[8], row[9]) != (f"{(tp + tn) / (tp + fp + fn + tn):.10g}",
                                fp_pct):
            return [f"records.tsv: accuracy or fp_pct wrong in {row!r}"]
    return []


def check_outputs(out_dir: str, exit_code: int, workload: Workload,
                  pinned: dict | None) -> tuple[int, dict, list[str]]:
    """Return (failed groups, output hashes, problems) for one run."""
    if exit_code != 0:
        return workload.groups, {}, [f"exit code {exit_code}"]
    try:
        with open(os.path.join(out_dir, "records.tsv"), "rb") as fh:
            records = fh.read()
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            doc = json.loads(fh.read())
        hashes = {"records.tsv": sha256(records),
                  "report.json": sha256(normalized_report(doc))}
        problems = check_records(records.decode("utf-8"), doc, workload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return workload.groups, {}, [f"unreadable output: {exc!r}"]
    for name, digest in hashes.items():
        if pinned is not None and pinned.get(name) != digest:
            problems.append(f"{name} sha256 {digest} != pinned "
                            f"{pinned.get(name)}")
    failed = workload.groups if problems else len(doc["failures"])
    return failed, hashes, problems


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_MIN_BEYOND samples above it."""
    arr = np.asarray(samples, dtype=float)
    for pct in TAIL_PERCENTILES:
        value = float(np.percentile(arr, pct))
        if np.count_nonzero(arr > value) >= TAIL_MIN_BEYOND:
            return pct, value
    return None


def self_times(spans) -> tuple[np.ndarray, np.ndarray]:
    """Per span: duration, and duration minus the time its children cover.

    The program is single-threaded, so a span's children never overlap and
    the time they cover is the sum of their durations.
    """
    dur = (spans["end"] - spans["start"]) / 1e9
    parent = spans["parent"]
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur, dur - covered


def layer_metrics(spans, meta: dict, traced_wall: float,
                  untraced_wall: float, import_s: float) -> dict:
    """The per-layer metrics from one traced run's spans and counts."""
    dur, own = self_times(spans)
    name_ids = {name: i for i, name in enumerate(meta["names"])}
    counts = meta["counts"]

    def mask(*names):
        ids = [name_ids[n] for n in names if n in name_ids]
        return np.isin(spans["name"], ids)

    def total(*names):
        return float(dur[mask(*names)].sum())

    def calls(*names):
        return int(np.count_nonzero(mask(*names)))

    fits = dur[mask("boost.train")]
    tail_pct, tail = tail_percentile(fits) or (50, float(np.median(fits)))
    metric_calls = ("metrics.accuracy", "metrics.fp_rate_skew_adjusted",
                    "metrics.pool")
    ttests = ("stats.one_sample_t", "stats.two_sample_pooled_t")
    train_s = total("boost.train")
    return {
        "boost.train_s": train_s,
        "boost.train_calls": calls("boost.train"),
        "boost.fit_s_p50": float(np.median(fits)),
        "boost.fit_s_tail": tail,
        "boost.fit_s_tail_pct": tail_pct,
        "boost.trees": counts["boost.trees"],
        "boost.nodes": 2 * counts["boost.splits"] + counts["boost.trees"],
        "boost.splits": counts["boost.splits"],
        "boost.train_row_rounds": counts["boost.train_row_rounds"],
        "boost.train_ns_per_row_round":
            1e9 * train_s / counts["boost.train_row_rounds"],
        "boost.predict_s": total("boost.predict_prob"),
        "boost.predict_rows": counts["boost.predict_rows"],
        "corpus.load_s": total("corpus.load_corpus"),
        "corpus.entries": counts["corpus.entries"],
        "corpus.featurize_s": total("corpus.featurize"),
        "corpus.featurize_calls": calls("corpus.featurize"),
        "corpus.name_length_s": total("corpus.name_length"),
        "corpus.name_length_calls": calls("corpus.name_length"),
        "labeling.median_split_s": total("labeling.median_split"),
        "labeling.balance_s": total("labeling.balance"),
        "labeling.make_folds_s": total("labeling.make_folds"),
        "labeling.omitted": counts["labeling.omitted"],
        "labeling.kept_frac":
            counts["labeling.kept"] / counts["labeling.values"],
        "metrics.s": total(*metric_calls),
        "metrics.calls": calls(*metric_calls),
        "stats.s": total(*ttests, "stats.simple_ols"),
        "stats.ttest_calls": calls(*ttests),
        "stats.ols_calls": calls("stats.simple_ols"),
        "runner.run_experiment_s": total("runner.run_experiment"),
        "runner.self_s": float(own[mask("runner.run_experiment")].sum()),
        "runner.emit_s": total("runner.emit_report"),
        "runner.report_bytes": counts["runner.report_bytes"],
        "cli.import_s": import_s,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.accounted_frac": float(own.sum()) / traced_wall,
    }


class Bench:
    """One benchmark invocation: a workload and seed in one checkout."""

    def __init__(self, root: str, workload: Workload, seed: int, work: str):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        # The benchmark, its children and the reference kernel share one CPU,
        # so that the kernel runs at the speed the children see.
        self.nproc = len(os.sched_getaffinity(0))
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.lines: list[str] = []
        self.problems: list[str] = []
        self.children = 0
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh).get(workload.name)
        self.pinned = golden if workload.pinned_at(seed) else None
        self.config = self._prepare()

    def say(self, line: str) -> None:
        self.lines.append(line)

    def _prepare(self) -> str:
        """Write the workload's inputs (not timed); return its config path."""
        w = self.workload
        in_dir = os.path.join(self.work, "input")
        if w.names is None:
            data = os.path.join(self.root, "data")
            with open(os.path.join(data, "config.json"),
                      encoding="utf-8") as fh:
                base = json.load(fh)
            for key in ("corpus_path", "inventory_path"):
                base[key] = os.path.join(data, base[key])
            os.makedirs(in_dir)
        else:
            gen.write_corpus(in_dir, w.names, w.copies, self.seed, self.root)
            base = {"corpus_path": "corpus.csv",
                    "inventory_path": "inventory.csv"}
        path = os.path.join(in_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**base, **w.config}, fh)
        return path

    def spawn(self, args: list[str]) -> Child:
        """Run one child to its end and return what it used and printed."""
        self.children += 1
        log_path = os.path.join(self.work, f"child{self.children}.log")
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(args, env=self.env, cwd=self.root,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # Popen did not reap the child; tell it, so it never waits again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            output = fh.read()
        return Child(wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                     usage.ru_maxrss / 1024.0, output)

    def import_time(self) -> float:
        """Seconds to import soundskew.cli in a fresh process."""
        code = ("import time\nt = time.perf_counter()\nimport soundskew.cli\n"
                "print(time.perf_counter() - t)\n"
                "print(soundskew.cli.__file__)\n")
        child = self.spawn([sys.executable, "-c", code])
        rc, out = child.code, child.output
        expected = os.path.join(self.root, "src", "soundskew", "cli.py")
        lines = out.split("\n")
        if rc != 0 or len(lines) < 2 or lines[1] != expected:
            raise BenchError(f"soundskew.cli does not import from {expected}:"
                             f" {out.strip()}")
        return float(lines[0])

    def validate(self) -> Child:
        child = self.spawn([sys.executable, "-m", "soundskew.cli", "validate",
                            "--config", self.config])
        w = self.workload
        want = f"corpus: {w.entries} entries, {w.languages} languages"
        if child.code != 0 or not child.output.startswith(want):
            self.problems.append(
                f"validate: exit {child.code}, output "
                f"{child.output.splitlines()[:1]}, expected {want!r}")
        return child

    def cli_run(self, traced_prefix: str | None = None) -> RunOutcome:
        out_dir = os.path.join(self.work, f"out{self.children + 1}")
        cli = ["run", "--config", self.config, "--out", out_dir]
        if traced_prefix is None:
            args = [sys.executable, "-m", "soundskew.cli", *cli]
        else:
            run_id = f"{self.workload.name}-seed{self.seed}-{os.getpid()}"
            args = [sys.executable, os.path.join(BENCH_DIR, "traced.py"),
                    traced_prefix, run_id, *cli]
        child = self.spawn(args)
        failed, hashes, problems = check_outputs(
            out_dir, child.code, self.workload, self.pinned)
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            problems.append("output: " + " | ".join(
                child.output.strip().splitlines()[-5:]))
        # A checked run wrote k records for every group that did not fail.
        w = self.workload
        fits = 0 if problems else (w.groups - failed) * w.k
        return RunOutcome(child.wall_s, child.cpu_s, child.rss_mb, fits,
                          failed, hashes, problems)

    def finish_runs(self, runs: list[RunOutcome]) -> None:
        """Check runs agree with each other; record hashes and problems."""
        distinct = {json.dumps(r.hashes, sort_keys=True) for r in runs
                    if r.hashes}
        if len(distinct) > 1:
            for r in runs:
                r.failed = self.workload.groups
            self.problems.append(f"runs of one input differ: {distinct}")
        for r in runs:
            self.problems.extend(r.problems)
        state = ("checked against perfbench/golden.json" if self.pinned
                 else "not pinned at this seed")
        for digest in sorted(distinct):
            for name, value in json.loads(digest).items():
                self.say(f"sha256 {name} {value} ({state})")

    def header(self) -> None:
        w = self.workload
        self.say(f"env: python {platform.python_version()} numpy "
                 f"{np.__version__} nproc {self.nproc} machine "
                 f"{platform.machine()}; runs on CPU {self.cpu}")
        self.say(f"workload {w.name} seed {self.seed}: {w.entries} names, "
                 f"{w.languages} languages, {w.groups} groups, k={w.k}, "
                 f"boost {w.config.get('boost_params', 'defaults')}")

    def end_to_end(self, seconds: float) -> tuple[dict, int, int]:
        self.import_time()  # checks the module path, warms bytecode caches
        host = HostSpeed()
        host.sample()
        setup, setup_s, runs, run_times = [], [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            # A set-up sample next to each run, and the reference kernel
            # timed between every two children: each child's CPU time is
            # scaled by the kernel's times just before and just after it.
            start = time.perf_counter()
            setup.append(self.validate())
            host.sample()
            setup_s.append(setup[-1].cpu_s * host.scale())
            runs.append(self.cli_run())
            host.sample()
            run_times.append(runs[-1].cpu_s * host.scale())
            if 2 * time.perf_counter() - start > deadline:
                break
        self.finish_runs(runs)
        run_s = median(run_times)
        attempted = self.workload.groups * len(runs)
        failed = sum(r.failed for r in runs)
        tail = tail_percentile(run_times)
        tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                     f"none (needs more than {TAIL_MIN_BEYOND} runs)")
        self.say(f"host speed: reference kernel CPU time median "
                 f"{median(host.samples):.4f} s over n={len(host.samples)} "
                 f"(range {min(host.samples):.4f}-{max(host.samples):.4f}),"
                 f" nominal {HOST_NOMINAL_S} s")
        self.say(f"run_s: median {run_s:.4f} s over n={len(runs)} runs "
                 f"({' '.join(f'{x:.3f}' for x in run_times)}); tail "
                 f"{tail_text}; unscaled CPU median "
                 f"{median([r.cpu_s for r in runs]):.4f} s, wall median "
                 f"{median([r.wall_s for r in runs]):.4f} s")
        self.say(f"setup_s: median {median(setup_s):.4f} s over "
                 f"n={len(setup)} validate runs; unscaled CPU median "
                 f"{median([c.cpu_s for c in setup]):.4f} s, wall median "
                 f"{median([c.wall_s for c in setup]):.4f} s")
        self.say(f"failed_frac = {failed / attempted:g} fraction ({failed} "
                 f"of {attempted} groups failed)")
        metrics = {
            "run_s": run_s,
            "setup_s": median(setup_s),
            "fits_per_s": median([r.fits for r in runs]) / run_s,
            "peak_rss_mb": median([r.rss_mb for r in runs]),
            "ok_frac": 1.0 - failed / attempted,
        }
        return metrics, attempted, failed

    def per_layer(self) -> tuple[dict, int, int]:
        import_s = median([self.import_time() for _ in range(IMPORT_REPS)])
        untraced = self.cli_run()
        prefix = os.path.join(self.work, "spans")
        traced = self.cli_run(traced_prefix=prefix)
        runs = [untraced, traced]
        if not os.path.exists(prefix + ".json"):
            raise BenchError(f"the traced run wrote no spans: "
                             f"{traced.problems}")
        with open(prefix + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        model_sha = meta["first_model_sha256"]
        if self.pinned and self.pinned.get("model") != model_sha:
            traced.failed = self.workload.groups
            traced.problems.append(f"first model sha256 {model_sha} != "
                                   f"pinned {self.pinned.get('model')}")
        self.finish_runs(runs)
        self.say(f"sha256 model {model_sha} (run id {meta['run_id']})")
        with np.load(prefix + ".npz") as data:
            spans = {key: data[key] for key in data.files}
        metrics = layer_metrics(spans, meta, traced.wall_s, untraced.wall_s,
                                import_s)
        self.say(f"boost.fit_s_tail is p{metrics['boost.fit_s_tail_pct']:g}"
                 f" of {metrics['boost.train_calls']} fits")
        self.say(f"spans: {len(spans['name'])}")
        attempted = self.workload.groups * len(runs)
        return metrics, attempted, sum(r.failed for r in runs)

    def measure(self, seconds: float, trace: bool) -> dict:
        """Run the benchmark; return the result object printed last."""
        self.header()
        if trace:
            metrics, attempted, failed = self.per_layer()
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed = self.end_to_end(seconds)
            units = END_TO_END_UNITS
        for name, value in metrics.items():
            self.say(f"{name} = {value:.6g} {units[name]}")
        for problem in self.problems:
            self.say(f"PROBLEM: {problem}")
        return {
            "correct": not self.problems and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    missing = [p for p in PROGRAM_FILES
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: not a soundskew checkout, missing {missing}",
              file=sys.stderr)
        return 2
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        bench = Bench(root, WORKLOADS[args.workload], args.seed, work)
        result = bench.measure(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(bench.lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
