"""Experiment orchestration: languages x variables x folds, tests, reports.

The loaded corpus is columns in file order plus one count matrix per
language, which all of the language's variables share.  Each (language,
variable) group runs median_split -> balance -> make_folds on rows of that
matrix, then trains and evaluates one boosted model per fold.  Hypothesis
tests run on the per-iteration skew-adjusted FP rates; name-length
regressions run on the full corpus (no median or balance filtering), on the
corpus's length column.  Everything downstream of the config is
deterministic; sub-seeds are derived per group so removing a language never
perturbs the others.

The dataclasses are the file formats: a config file is read by ``decode``,
``report.json`` is ``dataclasses.asdict(report)`` and is read back by
``decode``, and ``records.tsv`` has one row per ``IterationRecord``.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from soundskew import boost, corpus as corpus_mod, labeling, metrics, stats
from soundskew.boost import BoostParams
from soundskew.corpus import ATTRIBUTE_NAMES, Corpus
from soundskew.labeling import BinaryLabeledSet, subseed
from soundskew.metrics import ConfusionMatrix, IterationRecord

REPORT_FORMAT_VERSION = 1

RECORD_COLUMNS = ("language", "variable", "fold", "seed",
                  "tp", "fp", "fn", "tn", "accuracy", "fp_pct")


class ConfigError(ValueError):
    """Raised for invalid experiment configuration."""


# Each scalar type, named alone and in a list.  A bool is not a number, and a
# float is finite (NaN fails every comparison, an overlong integer overflows).
_SCALARS = {str: ("a string", "strings"), int: ("an integer", "integers"),
            float: ("a finite number", "finite numbers")}
_type_hints = functools.cache(typing.get_type_hints)    # once per dataclass


def _fits(tp, raw) -> bool:
    if tp is float:
        return isinstance(raw, (int, float)) and not isinstance(raw, bool) \
            and abs(raw) <= sys.float_info.max
    return isinstance(raw, tp) and not isinstance(raw, bool)


def read_json(path: str):
    """The JSON value in the file ``path``; unreadable JSON (bad syntax or
    UTF-8, an integer too long to parse) raises ConfigError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def decode(tp, raw, where: str):
    """Read the decoded JSON value ``raw`` as type ``tp``: a dataclass from an
    object of its fields, ``tuple[X, ...]`` or ``list[X]`` from a list, ``X |
    None`` from null or an X.  A wrong value, or one that the dataclass's own
    checks reject, raises ConfigError naming ``where``, the file and the path
    to the value."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:                       # X | None
        return None if raw is None else decode(args[0], raw, where)
    if origin is typing.Annotated:          # a float that may be infinite
        return raw if raw in (math.inf, -math.inf) \
            else decode(args[0], raw, where)
    if tp in _SCALARS:
        if _fits(tp, raw):
            return raw
        expected = _SCALARS[tp][0]
    elif origin in (tuple, list):
        item = args[0]
        if isinstance(raw, list) and (
                item not in _SCALARS or all(_fits(item, v) for v in raw)):
            return origin(decode(item, v, f"{where}[{i}]")
                          for i, v in enumerate(raw))
        expected = "a list of " + (
            _SCALARS[item][1] if item in _SCALARS else "objects")
    elif not isinstance(raw, dict):
        expected = "an object"
    elif origin is dict:
        return {key: decode(args[1], value, f"{where}[{key!r}]")
                for key, value in raw.items()}
    else:
        hints = _type_hints(tp, include_extras=True)
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


def _run_group(features: np.ndarray, values: np.ndarray, language: str,
               variable: str, config: ExperimentConfig
               ) -> list[IterationRecord]:
    """Run one group on a language's count matrix and its ``variable``
    column (NaN: blank), one value per matrix row."""
    rows = np.flatnonzero(~np.isnan(values)).tolist()
    split = labeling.median_split(list(zip(rows, values[rows].tolist())))
    samples = tuple((i, lab) for i, lab in split.items()
                    if lab != labeling.OMITTED)
    labeled = labeling.balance(
        BinaryLabeledSet(variable=variable, language=language,
                         samples=samples),
        subseed(config.seed, language, variable, "balance"))
    fold_of = labeling.make_folds(
        labeled, config.k, subseed(config.seed, language, variable, "folds"))

    threat = config.threat_class(variable)
    X = features[[i for i, _ in labeled.samples]]
    y = np.array([lab == threat for _, lab in labeled.samples])
    records = []
    for fold in range(config.k):
        train_seed = subseed(config.seed, language, variable, "train",
                             str(fold))
        params = dataclasses.replace(config.boost_params,
                                     seed=train_seed & (2 ** 63 - 1))
        in_test = fold_of == fold
        in_train = ~in_test
        model = boost.train(X[in_train], y[in_train], params)
        pred = boost.classify(model, X[in_test])
        tn, fp, fn, tp = np.bincount(2 * y[in_test] + pred,
                                     minlength=4).tolist()
        cm = ConfusionMatrix(tp, fp, fn, tn)
        records.append(IterationRecord(
            tp, fp, fn, tn, language, variable, fold, params.seed,
            metrics.accuracy(cm), metrics.fp_rate_skew_adjusted(cm)))
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


def _fmt_p(p: float) -> str:
    return f"{p:.3g}" if p >= 1e-3 else f"{p:.2e}"


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


def report_markdown(doc: dict) -> str:
    """Render the report dict as markdown tables (accuracy/FP% and OLS)."""
    lines = ["# Experiment report", "",
             f"Generated: {doc['timestamp']}", ""]
    lines += ["## Accuracy and skew-adjusted FP rate (mean over folds)", "",
              "| Language | Variable | Accuracy | FP% |",
              "|---|---|---|---|"]
    for a in doc["aggregates"]:
        lines.append(
            f"| {a['language']} | {a['variable']} "
            f"| {_fmt_pct(a['mean_accuracy'])} "
            f"| {_fmt_pct(a['mean_fp_pct'])} |")
    lines += ["", "## H1: FP% vs 50% chance (per-iteration values)", "",
              "| Group | n | t | df | p |", "|---|---|---|---|---|"]
    for e in doc["h1"]:
        if e["result"] is None:
            lines.append(f"| {e['group']} | {e['n']} | - | - | "
                         f"untestable: {e['untestable_reason']} |")
        else:
            r = e["result"]
            lines.append(f"| {e['group']} | {e['n']} | {r['t']:.2f} "
                         f"| {r['df']} | {_fmt_p(r['p'])} |")
    lines += ["", "## H2: combat FP% vs size FP%", ""]
    if doc["h2"]["result"] is None:
        lines.append(f"Untestable: {doc['h2']['untestable_reason']}")
    else:
        r = doc["h2"]["result"]
        ca, sz = doc["h2"]["combat"], doc["h2"]["size"]
        lines.append(
            f"combat (M = {_fmt_pct(ca['mean'])}, SD = {_fmt_pct(ca['sd'])}) "
            f"vs size (M = {_fmt_pct(sz['mean'])}, SD = {_fmt_pct(sz['sd'])}); "
            f"t({r['df']}) = {r['t']:.2f}, p = {_fmt_p(r['p'])}")
    lines += ["", "## Name-length regressions", "",
              "| Scope | Variable | df | F | p | R^2 |",
              "|---|---|---|---|---|---|"]
    for e in doc["length_regressions"]:
        if e["result"] is None:
            lines.append(f"| {e['language']} | {e['variable']} | - | - | - | "
                         f"untestable: {e['untestable_reason']} |")
        else:
            r = e["result"]
            lines.append(
                f"| {e['language']} | {e['variable']} "
                f"| {r['df1']}, {r['df2']} | {r['F']:.2f} "
                f"| {_fmt_p(r['p'])} | {r['r2']:.3f} |")
    if doc["failures"]:
        lines += ["", "## Failures", ""]
        for f in doc["failures"]:
            lines.append(f"- {f['language']}/{f['variable']} "
                         f"({f['stage']}): {f['reason']}")
    return "\n".join(lines) + "\n"


def emit_report(report: ExperimentReport) -> list[str]:
    """Write the config's formats into its out_dir; returns written paths."""
    doc = dataclasses.asdict(report)
    outputs = (
        ("tsv", "records.tsv", records_tsv(report.records)),
        ("json", "report.json", json.dumps(doc, indent=1, sort_keys=True)
         + "\n"),
        ("md", "report.md", report_markdown(doc)))
    os.makedirs(report.config.out_dir, exist_ok=True)
    written = []
    for fmt, name, text in outputs:
        if fmt in report.config.formats:
            path = os.path.join(report.config.out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
    return written
