"""Command-line entry point.

Subcommands:
  validate  parse corpus + inventory from a config, check its languages as
            run does, print per-language counts
  run       full experiment, write records.tsv / report.json / report.md
  stats     recompute H1/H2 from a run's report.json with the run's config,
            and print them as report.md's H1 and H2 sections

Every rule of the config and report formats is in ``runner``, none here.
Exit codes: 0 success, also where the reader closes stdout early; 1 bad input
(naming the file, or a path the OS refuses as ``_BAD_PATH`` lists) or usage
error; 2 runtime failure (ENOSPC, EIO, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys

from soundskew import runner
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
    runner.make_out_dir(config.out_dir)
    report = runner.run_experiment(config)
    written = runner.emit_report(report)
    print(f"{len(report.records)} iterations, "
          f"{len(report.failures)} failed groups")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_stats(args) -> int:
    report = runner.read_report(args.report)
    # The run's own partition (combat_set, size_set) groups the variables.
    print(*runner.hypothesis_sections(
        runner.hypothesis_h1(report.records, report.config),
        runner.hypothesis_h2(report.records, report.config)), sep="\n")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, after the command did its work.  Point
        # fd 1 at /dev/null, so the interpreter's last flush cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        if isinstance(exc, (ConfigError, CorpusError)) \
                or isinstance(exc, OSError) and exc.errno in _BAD_PATH:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
