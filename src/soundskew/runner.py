"""Experiment orchestration: languages x variables x folds, tests, reports.

The loaded corpus is columns in file order plus one count matrix per
language, which all of the language's variables share.  Each (language,
variable) group takes its rows, labels and folds from
``labeling.label_group``, then trains and evaluates one boosted model per
fold on those rows of the matrix.  Hypothesis tests run on the per-iteration
skew-adjusted FP rates; name-length regressions run on the full corpus (no
median or balance filtering), on the corpus's length column.  Everything
downstream of the config is deterministic; sub-seeds are derived per group
so removing a language never perturbs the others.

The dataclasses are the file formats: a config file is read by ``decode``,
``report.json`` is ``dataclasses.asdict(report)`` and is read back by
``read_report``, and ``records.tsv`` has one row per ``IterationRecord``.
``soundskew stats`` prints report.md's H1/H2 text, ``hypothesis_sections``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import functools
import itertools
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from soundskew import boost, corpus as corpus_mod, labeling, metrics, stats
from soundskew.boost import BoostParams
from soundskew.corpus import ATTRIBUTE_NAMES, Corpus
from soundskew.metrics import ConfusionMatrix, IterationRecord

REPORT_FORMAT_VERSION = 1

RECORD_COLUMNS = ("language", "variable", "fold", "seed",
                  "tp", "fp", "fn", "tn", "accuracy", "fp_pct")


class ConfigError(ValueError):
    """Raised for invalid experiment configuration."""


# Each scalar type by name.  A bool is not a number, and a float is finite
# (NaN fails every comparison, an overlong integer overflows).
_SCALARS = {str: "a string", int: "an integer", float: "a finite number"}
_type_hints = functools.cache(typing.get_type_hints)    # once per dataclass


def read_json(path: str):
    """The JSON value in the file ``path``; unreadable JSON (bad syntax or
    UTF-8, an integer too long to parse, nesting deeper than the recursion
    limit) raises ConfigError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: {exc}") from None


def decode(tp, raw, where: str):
    """Read the decoded JSON value ``raw`` as type ``tp``: a dataclass from an
    object of its fields, ``tuple[X, ...]`` or ``list[X]`` from a list read
    item by item, ``X | None`` from null or an X.  A wrong value, or one that
    the dataclass's own checks reject, raises ConfigError naming ``where``,
    the file and the path to the value: ``[i]`` for an item, ``: name`` for a
    field and ``['key']`` for a dict key."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:                       # X | None
        return None if raw is None else decode(args[0], raw, where)
    if tp in _SCALARS:
        if isinstance(raw, (int, float) if tp is float else tp) \
                and not isinstance(raw, bool) \
                and (tp is not float or abs(raw) <= sys.float_info.max):
            return raw
        expected = _SCALARS[tp]
    elif origin in (tuple, list):
        if isinstance(raw, list):
            return origin(decode(args[0], v, f"{where}[{i}]")
                          for i, v in enumerate(raw))
        expected = "a list"
    elif not isinstance(raw, dict):
        expected = "an object"
    elif origin is dict:
        return {key: decode(args[1], value, f"{where}[{key!r}]")
                for key, value in raw.items()}
    else:
        hints = _type_hints(tp)
        unknown = sorted(raw.keys() - hints.keys())
        if unknown:
            raise ConfigError(f"{where}: unknown keys: {unknown}")
        kwargs = {key: decode(hints[key], value, f"{where}: {key}")
                  for key, value in raw.items()}
        try:
            return tp(**kwargs)
        except (TypeError, ValueError) as exc:  # a missing field, a check
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where} must be {expected}, got {raw!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_path: str
    inventory_path: str
    languages: tuple[str, ...] | None = None   # None: every corpus language
    variables: tuple[str, ...] = ATTRIBUTE_NAMES
    threat_direction: dict[str, str] = field(
        default_factory=dict)                  # variable -> "high" | "low"
    combat_set: tuple[str, ...] = ("Attack", "Defend")
    size_set: tuple[str, ...] = ("Height", "Weight")
    k: int = 3
    seed: int = 20220307
    boost_params: BoostParams = field(default_factory=BoostParams)
    out_dir: str = "out"
    formats: tuple[str, ...] = ("tsv", "json", "md")

    def __post_init__(self):
        for key in ("variables", "combat_set", "size_set",
                    "threat_direction"):
            unknown = set(getattr(self, key)) - set(ATTRIBUTE_NAMES)
            if unknown:
                raise ConfigError(
                    f"{key}: unknown attributes {sorted(unknown)}; "
                    f"expected a subset of {list(ATTRIBUTE_NAMES)}")
        for key in ("languages", "variables"):
            values = getattr(self, key)
            if values is not None and not values:
                raise ConfigError(f"{key} must be non-empty when given")
            if values and len(set(values)) < len(values):
                raise ConfigError(f"{key}: repeated entries in {list(values)}")
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if set(self.combat_set) & set(self.size_set):
            raise ConfigError("combat_set and size_set must be disjoint")
        for var, direction in self.threat_direction.items():
            if direction not in ("high", "low"):
                raise ConfigError(
                    f"threat_direction[{var!r}] must be 'high' or 'low'")
        bad = set(self.formats) - {"tsv", "json", "md"}
        if bad:
            raise ConfigError(f"unknown report formats: {sorted(bad)}")
        if not self.formats:                # a run that would write nothing
            raise ConfigError("formats must be non-empty")

    def threat_class(self, variable: str) -> str:
        return self.threat_direction.get(variable, "high")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        """Read a config file; relative corpus and inventory paths are taken
        from its directory.  A ``boost_params.seed`` is refused: each fit's
        seed is derived from ``seed``, and a report would record it unused."""
        raw = read_json(path)
        config = decode(cls, raw, path)
        if "seed" in raw.get("boost_params", {}):
            raise ConfigError(f"{path}: boost_params: seed is derived per fit "
                              f"from the top-level seed; set seed instead")
        base = os.path.dirname(os.path.abspath(path))
        return dataclasses.replace(
            config, corpus_path=os.path.join(base, config.corpus_path),
            inventory_path=os.path.join(base, config.inventory_path))


@dataclass
class GroupFailure:
    language: str
    variable: str
    stage: str
    reason: str


@dataclass
class GroupAggregate:
    language: str
    variable: str
    mean_accuracy: float
    mean_fp_pct: float | None       # mean over defined per-iteration values
    pooled_accuracy: float
    pooled_fp_pct: float | None
    n_iterations: int
    n_undefined_fp: int


@dataclass
class HypothesisEntry:
    group: str                      # variable name, "combat", or "size"
    n: int
    n_excluded: int
    result: stats.TTestResult | None
    untestable_reason: str | None = None


@dataclass
class H2Entry:
    result: stats.TTestResult | None = None
    combat: stats.GroupSummary | None = None
    size: stats.GroupSummary | None = None
    untestable_reason: str | None = None


@dataclass
class LengthRegressionEntry:
    language: str                   # language code or "combined"
    variable: str
    n: int
    result: stats.OlsResult | None
    untestable_reason: str | None = None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: list[IterationRecord]
    failures: list[GroupFailure]
    aggregates: list[GroupAggregate]
    h1: list[HypothesisEntry]
    h2: H2Entry
    length_regressions: list[LengthRegressionEntry]
    languages: tuple[str, ...]
    version: int = REPORT_FORMAT_VERSION
    timestamp: str = ""


def read_report(path: str) -> ExperimentReport:
    """Read a ``report.json`` of this format version as ``decode`` does,
    and refuse a record that H1 and H2 would misread (the run has no such
    group or fold, it repeats a (language, variable, fold), or it is not
    what ``iteration_record`` builds from its counts, its key and the
    config's seed, naming the first field that differs).  Then refuse
    ``languages`` that are empty, repeat or are not the config's, and a
    failure that names no group of the run, repeats, or names a group with
    records.  Then refuse a report that lacks a record H1 and H2 would
    count: each (language, variable) of the run has a record for every fold
    or a failure.  Last, refuse stored ``aggregates``, ``h1`` or ``h2`` that
    are not what the records and the config give, naming the first field
    that differs."""
    doc = read_json(path)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != REPORT_FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported report version {version!r}")
    report = decode(ExperimentReport, doc, path)
    config, languages, first = report.config, list(report.languages), {}

    def check_group(where: str, entry) -> None:
        if entry.language not in languages:
            raise ConfigError(f"{where}: language {entry.language!r} is "
                              f"not in languages {languages}")
        if entry.variable not in config.variables:
            raise ConfigError(f"{where}: variable {entry.variable!r} is not "
                              f"in config.variables {list(config.variables)}")

    for i, record in enumerate(report.records):
        where = f"{path}: records[{i}]"
        check_group(where, record)
        if not 0 <= record.fold < config.k:
            raise ConfigError(f"{where}: fold {record.fold} is outside "
                              f"[0, {config.k})")
        key = (record.language, record.variable, record.fold)
        if key in first:
            raise ConfigError(f"{where}: {record.language}/{record.variable}"
                              f"/{record.fold} repeats records[{first[key]}]")
        first[key] = i
        try:
            derived = iteration_record(record, *key,
                                       fit_seed(config.seed, *key))
        except metrics.MetricsError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        difference = _first_difference(where, record, derived)
        if difference:
            raise ConfigError(difference)
    if not languages:
        raise ConfigError(f"{path}: languages must be non-empty")
    if len(set(languages)) < len(languages):
        raise ConfigError(f"{path}: languages: repeated entries in "
                          f"{languages}")
    if config.languages and languages != list(config.languages):
        raise ConfigError(f"{path}: languages {languages} are not "
                          f"config.languages {list(config.languages)}")
    failed = {}
    for i, failure in enumerate(report.failures):
        where = f"{path}: failures[{i}]"
        check_group(where, failure)
        group = (failure.language, failure.variable)
        if group in failed:
            raise ConfigError(f"{where}: {'/'.join(group)} repeats "
                              f"failures[{failed[group]}]")
        if any((*group, fold) in first for fold in range(config.k)):
            raise ConfigError(f"{where}: {'/'.join(group)} has records")
        failed[group] = i
    for key in itertools.product(languages, config.variables,
                                 range(config.k)):
        if key not in first and key[:2] not in failed:
            language, variable, fold = key
            raise ConfigError(f"{path}: {language}/{variable}/{fold} has no "
                              f"record, and {language}/{variable} no failure")
    for name, derived in (
            ("aggregates", _aggregate(report.records)),
            ("h1", hypothesis_h1(report.records, config)),
            ("h2", hypothesis_h2(report.records, config))):
        difference = _first_difference(f"{path}: {name}",
                                       getattr(report, name), derived)
        if difference:
            raise ConfigError(difference)
    return report


def _first_difference(where: str, stored, derived) -> str | None:
    """The first field, item by item, where the decoded ``stored`` is not
    its recomputation ``derived``, as a message naming it below ``where`` as
    ``decode`` names a value; None if none."""
    if dataclasses.is_dataclass(stored) and type(stored) is type(derived):
        pairs = [(f"{where}: {f.name}", getattr(stored, f.name),
                  getattr(derived, f.name))
                 for f in dataclasses.fields(stored)]
    elif isinstance(stored, list) and isinstance(derived, list):
        if len(stored) != len(derived):
            return (f"{where} has {len(stored)} entries, not the recomputed "
                    f"{len(derived)}")
        pairs = [(f"{where}[{i}]", *pair)
                 for i, pair in enumerate(zip(stored, derived))]
    elif stored == derived:
        return None
    else:
        return f"{where} is {stored!r}, not the recomputed {derived!r}"
    return next(filter(None, itertools.starmap(_first_difference, pairs)),
                None)


def fit_seed(seed: int, language: str, variable: str, fold: int) -> int:
    """The seed of a run's model for ``fold`` of (language, variable)."""
    return labeling.subseed(seed, language, variable, "train",
                            str(fold)) & (2 ** 63 - 1)


def iteration_record(cm: ConfusionMatrix, language: str, variable: str,
                     fold: int, seed: int) -> IterationRecord:
    """The record of ``fold`` of (language, variable), fitted with ``seed``,
    whose test rows counted ``cm``: the counts, the key and the seed, and
    the accuracy and FP rate that ``metrics`` gives for the counts."""
    return IterationRecord(cm.tp, cm.fp, cm.fn, cm.tn, language, variable,
                           fold, seed, metrics.accuracy(cm),
                           metrics.fp_rate_skew_adjusted(cm))


def fit_fold(X: np.ndarray, y: np.ndarray, in_test: np.ndarray,
             params: BoostParams) -> tuple[boost.BoostModel, ConfusionMatrix]:
    """Train on the rows outside ``in_test`` and count the rows inside: ``y``
    is 1 for threat, and p >= 0.5 predicts threat, so a tie counts as threat.
    """
    model = boost.train(X[~in_test], y[~in_test], params)
    threat = boost.predict_prob(model, X[in_test]) >= 0.5
    tn, fp, fn, tp = np.bincount(2 * y[in_test] + threat, minlength=4).tolist()
    return model, ConfusionMatrix(tp, fp, fn, tn)


def _run_group(features: np.ndarray, values: np.ndarray, language: str,
               variable: str, config: ExperimentConfig
               ) -> list[IterationRecord]:
    """Run one group on a language's count matrix and its ``variable``
    column (NaN: blank), one value per matrix row."""
    rows, high, fold_of, _ = labeling.label_group(
        values, language, variable, config.k, config.seed)
    X = features[rows]
    y = high == (config.threat_class(variable) == "high")
    records = []
    for fold in range(config.k):
        seed = fit_seed(config.seed, language, variable, fold)
        _, cm = fit_fold(X, y, fold_of == fold, dataclasses.replace(
            config.boost_params, seed=seed))
        records.append(iteration_record(cm, language, variable, fold, seed))
    return records


def _aggregate(records: list[IterationRecord]) -> list[GroupAggregate]:
    groups: dict[tuple[str, str], list[IterationRecord]] = {}
    for r in records:
        groups.setdefault((r.language, r.variable), []).append(r)
    out = []
    for (language, variable), recs in sorted(groups.items()):
        defined, undefined = _fp_values(recs, (variable,))
        pooled = metrics.pool(recs)
        out.append(GroupAggregate(
            language=language, variable=variable,
            mean_accuracy=float(np.mean([r.accuracy for r in recs])),
            mean_fp_pct=float(np.mean(defined)) if defined else None,
            pooled_accuracy=metrics.accuracy(pooled),
            pooled_fp_pct=metrics.fp_rate_skew_adjusted(pooled),
            n_iterations=len(recs),
            n_undefined_fp=undefined))
    return out


def _fp_values(records, variables) -> tuple[list[float], int]:
    """The defined FP values of ``variables`` in record order, and the
    count of undefined ones."""
    vals = [r.fp_pct for r in records if r.variable in variables]
    defined = [v for v in vals if v is not None]
    return defined, len(vals) - len(defined)


def _attempt(test, *args) -> tuple:
    """(result, untestable_reason) of ``test(*args)``: the result and None,
    or None and the ``StatsError`` text if the test cannot be run."""
    try:
        return test(*args), None
    except stats.StatsError as exc:
        return None, str(exc)


def hypothesis_h1(records: list[IterationRecord],
                  config: ExperimentConfig) -> list[HypothesisEntry]:
    """Per-variable and per-group one-sample t-tests of FP% against 0.5."""
    groups = [(v, (v,)) for v in config.variables]
    groups.append(("combat", config.combat_set))
    groups.append(("size", config.size_set))
    out = []
    for name, variables in groups:
        values, excluded = _fp_values(records, variables)
        result, reason = _attempt(stats.one_sample_t, values, 0.5)
        out.append(HypothesisEntry(
            group=name, n=len(values), n_excluded=excluded, result=result,
            untestable_reason=reason))
    return out


def hypothesis_h2(records: list[IterationRecord],
                  config: ExperimentConfig) -> H2Entry:
    """Pooled two-sample t-test: combat-variable FP% vs size-variable FP%."""
    combat, _ = _fp_values(records, config.combat_set)
    size, _ = _fp_values(records, config.size_set)
    tested, reason = _attempt(stats.two_sample_pooled_t, combat, size)
    result, sa, sb = tested or (None, None, None)
    return H2Entry(result=result, combat=sa, size=sb, untestable_reason=reason)


def length_regression(corpus: Corpus, config: ExperimentConfig,
                      languages: tuple[str, ...]
                      ) -> list[LengthRegressionEntry]:
    """Regress each attribute on tone-excluding name length.

    Runs per language and pooled over all configured languages, on every
    sample with the attribute present (no median or balance filtering).
    Each scope selects its rows in corpus-file order, so the combined scope
    adds the same floats in the same order however the file interleaves
    its languages.
    """
    scopes = [(lang, corpus.language == lang) for lang in languages]
    scopes.append(("combined", np.isin(corpus.language, languages)))
    out = []
    for scope_name, rows in scopes:
        for variable in config.variables:
            y = corpus.attributes[rows, ATTRIBUTE_NAMES.index(variable)]
            present = ~np.isnan(y)
            x, y = corpus.length[rows][present], y[present]
            result, reason = _attempt(stats.simple_ols, x, y)
            out.append(LengthRegressionEntry(
                language=scope_name, variable=variable, n=len(x),
                result=result, untestable_reason=reason))
    return out


def resolve_languages(config: ExperimentConfig, corpus: Corpus
                      ) -> tuple[str, ...]:
    """The languages a run covers: the config's, else the corpus's in file
    order.  Each needs an inventory, i.e. a matrix in ``corpus.counts``.
    ``validate`` and ``run`` both check a config through this."""
    languages = config.languages or tuple(
        dict.fromkeys(corpus.language.tolist()))
    if not languages:
        raise ConfigError(f"{config.corpus_path}: corpus contains no entries")
    for lang in languages:
        if lang not in corpus.counts:
            raise ConfigError(f"{config.inventory_path}: no inventory for "
                              f"configured language {lang!r}")
    return languages


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full pipeline and collect every result into one report."""
    corpus, _ = corpus_mod.load_corpus(config.corpus_path,
                                       config.inventory_path)
    languages = resolve_languages(config, corpus)
    records: list[IterationRecord] = []
    failures: list[GroupFailure] = []
    for language in languages:
        attributes = corpus.attributes[corpus.language == language]
        for variable in config.variables:
            try:
                records.extend(_run_group(
                    corpus.counts[language],
                    attributes[:, ATTRIBUTE_NAMES.index(variable)],
                    language, variable, config))
            except (labeling.LabelingError, boost.BoostError,
                    metrics.MetricsError) as exc:
                failures.append(GroupFailure(
                    language=language, variable=variable,
                    stage=type(exc).__name__, reason=str(exc)))
    records.sort(key=lambda r: (r.language, r.variable, r.fold))
    return ExperimentReport(
        config=config,
        records=records,
        failures=failures,
        aggregates=_aggregate(records),
        h1=hypothesis_h1(records, config),
        h2=hypothesis_h2(records, config),
        length_regressions=length_regression(corpus, config, languages),
        languages=languages,
        timestamp=datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"))


# ---------------------------------------------------------------------------
# Report emission


def _fmt_pct(value: float | None) -> str:
    return "NA" if value is None else f"{100.0 * value:.2f}%"


def _tsv_cell(value) -> str:
    if value is None:
        return "NA"
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def records_tsv(records: list[IterationRecord]) -> str:
    lines = ["\t".join(RECORD_COLUMNS)]
    for r in records:
        lines.append("\t".join(_tsv_cell(getattr(r, c))
                               for c in RECORD_COLUMNS))
    return "\n".join(lines) + "\n"


def _table(header: tuple[str, ...], rows) -> list[str]:
    """The lines of a report.md table: the header, the separator and one
    line per row of cells, with ``|`` escaped in every cell."""
    def line(row) -> str:
        return "| " + " | ".join(str(cell).replace("|", "\\|")
                                 for cell in row) + " |"

    return [line(header), "|---" * len(header) + "|", *map(line, rows)]


def hypothesis_sections(h1: list[HypothesisEntry], h2: H2Entry
                        ) -> list[str]:
    """The lines of report.md's H1 and H2 sections, which ``soundskew stats``
    prints for the entries it has checked against their records."""
    lines = ["## H1: FP% vs 50% chance (per-iteration values)", "",
             *_table(("Group", "n", "t", "df", "p"), (
                 (e.group, e.n, "-", "-", f"untestable: {e.untestable_reason}")
                 if e.result is None else
                 (e.group, e.n, f"{e.result.t:.3f}", e.result.df,
                  f"{e.result.p:.4g}") for e in h1))]
    lines += ["", "## H2: combat FP% vs size FP%", ""]
    if h2.result is None:
        lines.append(f"Untestable: {h2.untestable_reason}")
    else:
        r, ca, sz = h2.result, h2.combat, h2.size
        lines.append(
            f"combat (M = {_fmt_pct(ca.mean)}, SD = {_fmt_pct(ca.sd)}) "
            f"vs size (M = {_fmt_pct(sz.mean)}, SD = {_fmt_pct(sz.sd)}); "
            f"t({r.df}) = {r.t:.3f}, p = {r.p:.4g}")
    return lines


def report_markdown(report: ExperimentReport) -> str:
    """Render the report as markdown tables (accuracy/FP%, H1 and H2, OLS)."""
    lines = ["# Experiment report", "",
             f"Generated: {report.timestamp}", ""]
    lines += ["## Accuracy and skew-adjusted FP rate (mean over folds)", "",
              *_table(("Language", "Variable", "Accuracy", "FP%"), (
                  (a.language, a.variable, _fmt_pct(a.mean_accuracy),
                   _fmt_pct(a.mean_fp_pct)) for a in report.aggregates))]
    lines += ["", *hypothesis_sections(report.h1, report.h2),
              "", "## Name-length regressions", "",
              *_table(("Scope", "Variable", "df", "F", "p", "R^2"), (
                  (e.language, e.variable, "-", "-", "-",
                   f"untestable: {e.untestable_reason}") if e.result is None
                  else (e.language, e.variable,
                        f"{e.result.df1}, {e.result.df2}",
                        "inf" if e.result.F is None else f"{e.result.F:.2f}",
                        f"{e.result.p:.4g}", f"{e.result.r2:.3f}")
                  for e in report.length_regressions))]
    if report.failures:
        lines += ["", "## Failures", ""]
        for f in report.failures:
            lines.append(f"- {f.language}/{f.variable} "
                         f"({f.stage}): {f.reason}")
    return "\n".join(lines) + "\n"


def make_out_dir(path: str) -> None:
    """``os.makedirs(path, exist_ok=True)``; where ``path`` is a link that
    leads nowhere, the error is ``stat``'s (ELOOP for a loop), not EEXIST."""
    try:
        os.makedirs(path, exist_ok=True)
    except FileExistsError:
        os.stat(path)
        raise


def emit_report(report: ExperimentReport) -> list[str]:
    """Write the config's formats into its out_dir; returns written paths.

    Each requested file is written whole or not at all.  Each is rendered
    into a temporary file beside its final name, ``report.json`` streamed
    by ``json.dump`` rather than held as one text; only when every one is
    written does each temporary replace its final name.  An exception
    removes the temporaries, so a render or write fault (a non-finite
    float in ``report.json``, a full disk) replaces no earlier file."""
    def write_json(fh) -> None:
        json.dump(dataclasses.asdict(report), fh, indent=1, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")

    outputs = (
        ("tsv", "records.tsv",
         lambda fh: fh.write(records_tsv(report.records))),
        ("json", "report.json", write_json),
        ("md", "report.md", lambda fh: fh.write(report_markdown(report))))
    make_out_dir(report.config.out_dir)
    staged = []                                     # (temporary, final path)
    try:
        for fmt, name, render in outputs:
            if fmt in report.config.formats:
                path = os.path.join(report.config.out_dir, name)
                staged.append((f"{path}.{os.getpid()}.tmp", path))
                with open(staged[-1][0], "w", encoding="utf-8") as fh:
                    render(fh)
        for temporary, path in staged:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):      # gone, or replaced
                os.remove(temporary)
        raise
    return [path for _, path in staged]
