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

The result dataclasses are the output format: ``report.json`` is
``dataclasses.asdict(report)`` and ``records.tsv`` has one row per
``IterationRecord``, its fields in ``RECORD_COLUMNS`` order.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from soundskew import boost, corpus as corpus_mod, labeling, metrics, stats
from soundskew.boost import BoostError, BoostParams
from soundskew.corpus import ATTRIBUTE_NAMES, Corpus
from soundskew.labeling import BinaryLabeledSet, subseed
from soundskew.metrics import ConfusionMatrix, IterationRecord

REPORT_FORMAT_VERSION = 1

RECORD_COLUMNS = ("language", "variable", "fold", "seed",
                  "tp", "fp", "fn", "tn", "accuracy", "fp_pct")


class ConfigError(ValueError):
    """Raised for invalid experiment configuration."""


# The JSON values that each field annotation admits (``X | None``: or null).
_JSON_TYPES = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "tuple[str, ...]": (list, "a list of strings"),
    "dict[str, str]": (dict, "an object"),
    "BoostParams": (dict, "an object"),
}


def check_json_types(cls, raw, where: str) -> None:
    """Raise ConfigError, ``where`` first, unless ``raw`` is a JSON object
    whose keys are ``cls`` fields and whose values have their JSON types."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}expected an object, got {raw!r}")
    unknown = sorted(raw.keys() - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{where}unknown keys: {unknown}")
    for f in dataclasses.fields(cls):
        value = raw.get(f.name)
        if f.name not in raw or value is None and f.type.endswith(" | None"):
            continue
        kinds, expected = _JSON_TYPES[f.type.removesuffix(" | None")]
        # A bool is not a number, a float is finite (NaN fails every
        # comparison) and a list holds strings.
        if isinstance(value, bool) or not isinstance(value, kinds) \
                or f.type.startswith("float") \
                and not abs(value) <= sys.float_info.max \
                or isinstance(value, list) \
                and not all(isinstance(v, str) for v in value):
            raise ConfigError(
                f"{where}{f.name} must be {expected}, got {value!r}")


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
        for key in ("variables", "combat_set", "size_set"):
            unknown = set(getattr(self, key)) - set(ATTRIBUTE_NAMES)
            if unknown:
                raise ConfigError(
                    f"{key}: unknown attributes {sorted(unknown)}; "
                    f"expected a subset of {list(ATTRIBUTE_NAMES)}")
        if self.k < 2:
            raise ConfigError("k must be >= 2")
        if set(self.combat_set) & set(self.size_set):
            raise ConfigError("combat_set and size_set must be disjoint")
        if self.languages is not None and not self.languages:
            raise ConfigError("languages must be non-empty when given")
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
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:   # bad JSON or UTF-8, an overlong int
                raise ConfigError(f"{path}: {exc}") from None
        return cls.from_dict(raw, path)

    @classmethod
    def from_dict(cls, raw: dict, path: str) -> "ExperimentConfig":
        """Build a config from its JSON object, read from the file ``path``.

        Relative corpus and inventory paths are taken from ``path``'s
        directory.
        """
        if not isinstance(raw, dict) or "corpus_path" not in raw \
                or "inventory_path" not in raw:
            raise ConfigError(
                f"{path}: config must set corpus_path and inventory_path")
        check_json_types(cls, raw, f"{path}: ")
        # Only the tuple fields hold JSON lists (check_json_types).
        kwargs = {key: tuple(value) if isinstance(value, list) else value
                  for key, value in raw.items()}
        if "boost_params" in kwargs:
            check_json_types(BoostParams, kwargs["boost_params"],
                             f"{path}: boost_params: ")
            try:
                kwargs["boost_params"] = BoostParams(**kwargs["boost_params"])
            except BoostError as exc:
                raise ConfigError(
                    f"{path}: invalid boost_params: {exc}") from exc
        # Config paths are relative to the config file's directory.
        base = os.path.dirname(os.path.abspath(path))
        for key in ("corpus_path", "inventory_path"):
            if not os.path.isabs(kwargs[key]):
                kwargs[key] = os.path.join(base, kwargs[key])
        return cls(**kwargs)


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
    if not rows:
        raise labeling.LabelingError(
            f"no values for {variable} in {language}")
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
        model = boost.train(X[~in_test], y[~in_test], params)
        pred = boost.classify(model, X[in_test])
        truth = y[in_test]
        counts = dict(tp=int(np.sum(pred & truth)),
                      fp=int(np.sum(pred & ~truth)),
                      fn=int(np.sum(~pred & truth)),
                      tn=int(np.sum(~pred & ~truth)))
        cm = ConfusionMatrix(**counts)
        records.append(IterationRecord(
            **counts, language=language, variable=variable, fold=fold,
            seed=params.seed, accuracy=metrics.accuracy(cm),
            fp_pct=metrics.fp_rate_skew_adjusted(cm)))
    return records


def _aggregate(records: list[IterationRecord]) -> list[GroupAggregate]:
    groups: dict[tuple[str, str], list[IterationRecord]] = {}
    for r in records:
        groups.setdefault((r.language, r.variable), []).append(r)
    out = []
    for (language, variable), recs in sorted(groups.items()):
        defined = [r.fp_pct for r in recs if r.fp_pct is not None]
        pooled = metrics.pool(recs)
        out.append(GroupAggregate(
            language=language, variable=variable,
            mean_accuracy=float(np.mean([r.accuracy for r in recs])),
            mean_fp_pct=float(np.mean(defined)) if defined else None,
            pooled_accuracy=metrics.accuracy(pooled),
            pooled_fp_pct=metrics.fp_rate_skew_adjusted(pooled),
            n_iterations=len(recs),
            n_undefined_fp=len(recs) - len(defined)))
    return out


def _fp_values(records, variables) -> tuple[list[float], int]:
    vals = [r.fp_pct for r in records if r.variable in variables]
    defined = [v for v in vals if v is not None]
    return defined, len(vals) - len(defined)


def hypothesis_h1(records: list[IterationRecord],
                  config: ExperimentConfig) -> list[HypothesisEntry]:
    """Per-variable and per-group one-sample t-tests of FP% against 0.5."""
    groups = [(v, (v,)) for v in config.variables]
    groups.append(("combat", config.combat_set))
    groups.append(("size", config.size_set))
    out = []
    for name, variables in groups:
        values, excluded = _fp_values(records, variables)
        if len(values) < 2:
            out.append(HypothesisEntry(
                group=name, n=len(values), n_excluded=excluded, result=None,
                untestable_reason="fewer than 2 defined FP values"))
            continue
        try:
            result = stats.one_sample_t(values, 0.5)
        except stats.StatsError as exc:
            out.append(HypothesisEntry(
                group=name, n=len(values), n_excluded=excluded, result=None,
                untestable_reason=str(exc)))
            continue
        out.append(HypothesisEntry(group=name, n=len(values),
                                   n_excluded=excluded, result=result))
    return out


def hypothesis_h2(records: list[IterationRecord],
                  config: ExperimentConfig) -> H2Entry:
    """Pooled two-sample t-test: combat-variable FP% vs size-variable FP%."""
    combat, _ = _fp_values(records, config.combat_set)
    size, _ = _fp_values(records, config.size_set)
    if len(combat) < 2 or len(size) < 2:
        return H2Entry(
            untestable_reason="fewer than 2 defined FP values in a group")
    try:
        result, sa, sb = stats.two_sample_pooled_t(combat, size)
    except stats.StatsError as exc:
        return H2Entry(untestable_reason=str(exc))
    return H2Entry(result=result, combat=sa, size=sb)


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
            if len(x) < 3:
                out.append(LengthRegressionEntry(
                    language=scope_name, variable=variable, n=len(x),
                    result=None,
                    untestable_reason="fewer than 3 samples"))
                continue
            try:
                result = stats.simple_ols(x, y)
            except stats.StatsError as exc:
                out.append(LengthRegressionEntry(
                    language=scope_name, variable=variable, n=len(x),
                    result=None, untestable_reason=str(exc)))
                continue
            out.append(LengthRegressionEntry(
                language=scope_name, variable=variable, n=len(x),
                result=result))
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the full pipeline and collect every result into one report."""
    corpus, inventories = corpus_mod.load_corpus(
        config.corpus_path, config.inventory_path)
    languages = config.languages or tuple(
        dict.fromkeys(corpus.language.tolist()))
    if not languages:
        raise ConfigError("corpus contains no entries")
    for lang in languages:
        if lang not in inventories:
            raise ConfigError(f"no inventory for configured language {lang!r}")
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
