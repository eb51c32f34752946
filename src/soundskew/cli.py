"""Command-line entry point.

Subcommands:
  validate  parse corpus + inventory from a config, check its languages as
            run does, print per-language counts
  run       full experiment, write records.tsv / report.json / report.md
  stats     recompute H1/H2 from a run's report.json, with the run's config

A config or report is read through its dataclasses (``runner.decode``).
Exit codes: 0 success, 1 bad input (naming the file, or a path the OS refuses
as ``_BAD_PATH`` lists) or usage error, 2 runtime failure (ENOSPC, EIO, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from soundskew import runner, stats as stats_mod
from soundskew.corpus import CorpusError, load_corpus
from soundskew.runner import ConfigError, ExperimentConfig

_BAD_PATH = {errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.EACCES,
             errno.EPERM, errno.EEXIST, errno.ENAMETOOLONG, errno.ELOOP}


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input, so it exits 1; 2 is for runtime faults."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="soundskew",
        description="Deterministic FP-skew experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate corpus and inventory files")
    p.add_argument("--config", required=True)

    p = sub.add_parser("run", help="run the full experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    p.add_argument("--out", default=None,
                   help="override the config's output directory")

    p = sub.add_parser("stats",
                       help="recompute H1/H2 from a run's report.json")
    p.add_argument("--report", required=True)
    return parser


def _cmd_validate(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    corpus, _ = load_corpus(config.corpus_path, config.inventory_path)
    runner.resolve_languages(config, corpus)
    present = sorted(lang for lang, matrix in corpus.counts.items()
                     if len(matrix))
    print(f"corpus: {len(corpus)} entries, {len(present)} languages")
    for language in present:
        rows, tokens = corpus.counts[language].shape
        print(f"  {language}: {rows} entries, {tokens} inventory tokens")
    return 0


def _keep_heap_resident() -> None:
    """Have glibc reuse freed heap for the split search's node arrays.

    At glibc's default 128 KiB thresholds the ~800 KB that a node of ~1,600
    rows gathers is mmapped, or trimmed off the heap when freed, so every
    large node faults its pages in afresh (30-40k minor faults in a
    2,000-name run against 6k). Setting one threshold stops glibc adapting
    the other, so both are set. 4 / 8 MiB ran as fast as 1 / 2 MiB and keep
    nodes four times as large on the heap; peak RSS rose under 2%.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes  # here, so that the other subcommands do not load it
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # no glibc: keep the defaults
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def _cmd_run(args) -> int:
    _keep_heap_resident()
    config = ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        config = dataclasses.replace(config, **overrides)
    os.makedirs(config.out_dir, exist_ok=True)
    report = runner.run_experiment(config)
    written = runner.emit_report(report)
    print(f"{len(report.records)} iterations, "
          f"{len(report.failures)} failed groups")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_stats(args) -> int:
    doc = runner.read_json(args.report)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != runner.REPORT_FORMAT_VERSION:
        raise ConfigError(
            f"{args.report}: unsupported report version {version!r}")
    report = runner.decode(runner.ExperimentReport, doc, args.report)
    # The run's own partition (combat_set, size_set) groups the variables.
    for entry in runner.hypothesis_h1(report.records, report.config):
        if entry.result is None:
            print(f"H1 {entry.group}: untestable "
                  f"({entry.untestable_reason})")
        else:
            r = entry.result
            print(f"H1 {entry.group}: n={entry.n} t({r.df})={r.t:.3f} "
                  f"p={r.p:.4g}")
    h2 = runner.hypothesis_h2(report.records, report.config)
    if h2.result is None:
        print(f"H2: untestable ({h2.untestable_reason})")
    else:
        print(f"H2: combat M={h2.combat.mean:.4f} SD={h2.combat.sd:.4f} "
              f"vs size M={h2.size.mean:.4f} SD={h2.size.sd:.4f}; "
              f"t({h2.result.df})={h2.result.t:.3f} p={h2.result.p:.4g}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        if isinstance(exc, (ConfigError, CorpusError, stats_mod.StatsError)) \
                or isinstance(exc, OSError) and exc.errno in _BAD_PATH:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
