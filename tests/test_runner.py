import ctypes
import dataclasses
import errno
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import types
import typing
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from soundskew import boost, cli, corpus, runner, stats
from soundskew.boost import BoostParams
from soundskew.cli import main as cli_main
from soundskew.metrics import IterationRecord
from soundskew.runner import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    hypothesis_h1,
    hypothesis_h2,
    run_experiment,
)
from tests.conftest import (
    CORPUS_CSV,
    INVENTORY_CSV,
    SRC_DIR,
    child_env,
    csv_rows,
    normal_equation_ols,
)

FAST_BOOST = BoostParams(rounds=20, max_depth=3)

# The smallest config object that decodes, a record, and a report that
# stats and report read, whose records fill the config's groups (each
# variable's 3 folds); TABLES_REPORT adds an aggregate and an H1 entry.
CONFIG_KEYS = {"corpus_path": "corpus.csv", "inventory_path": "inventory.csv"}
RECORD = {"language": "jpn", "variable": "Attack", "fold": 0, "seed": 1,
          "tp": 1, "fp": 0, "fn": 0, "tn": 1, "accuracy": 1.0, "fp_pct": None}
RECORDS = [dict(RECORD, variable=variable, fold=fold)
           for variable in corpus.ATTRIBUTE_NAMES for fold in range(3)]
FAILURE = {"language": "jpn", "variable": "Attack", "stage": "LabelingError",
           "reason": "too few"}
REPORT = {"version": 1, "timestamp": "", "config": CONFIG_KEYS,
          "languages": ["jpn"], "records": RECORDS, "failures": [],
          "aggregates": [], "h1": [], "length_regressions": [],
          "h2": {"result": None, "combat": None, "size": None,
                 "untestable_reason": "none"}}
AGGREGATE = {"language": "jpn", "variable": "Attack", "mean_accuracy": 1.0,
             "mean_fp_pct": None, "pooled_accuracy": 1.0,
             "pooled_fp_pct": None, "n_iterations": 1, "n_undefined_fp": 1}
H1_ENTRY = {"group": "Attack", "n": 0, "n_excluded": 1, "result": None,
            "untestable_reason": "fewer than 2 defined FP values"}
TABLES_REPORT = dict(REPORT, aggregates=[AGGREGATE], h1=[H1_ENTRY])


def report_text(base=REPORT, **changes) -> str:
    """The text of a report.json: ``base`` with ``changes``."""
    return json.dumps(dict(base, **changes))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def fast_config(**overrides):
    defaults = dict(corpus_path=CORPUS_CSV, inventory_path=INVENTORY_CSV,
                    boost_params=FAST_BOOST)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def synthetic_records(fp_values, variable="Attack", language="jpn"):
    records = []
    for i, fp in enumerate(fp_values):
        records.append(IterationRecord(
            language=language, variable=variable, fold=i % 3, seed=i,
            tp=10, fp=5, fn=5, tn=10, accuracy=0.6, fp_pct=fp))
    return records


class TestConfig:
    def test_from_json_with_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "corpus_path": CORPUS_CSV, "inventory_path": INVENTORY_CSV}))
        config = ExperimentConfig.from_json(str(path))
        assert config.k == 3
        assert config.combat_set == ("Attack", "Defend")
        assert config.size_set == ("Height", "Weight")
        assert config.boost_params == BoostParams()

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "c.csv").write_text("x")
        (tmp_path / "i.csv").write_text("x")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "corpus_path": "c.csv", "inventory_path": "i.csv"}))
        config = ExperimentConfig.from_json(str(path))
        assert config.corpus_path == str(tmp_path / "c.csv")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "corpus_path": "c", "inventory_path": "i", "bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_json(str(path))

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ConfigError):
            fast_config(combat_set=("Attack",), size_set=("Attack",))

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            fast_config(k=1)


class TestRunExperiment:
    def test_full_grid_yields_36_records(self):
        report = run_experiment(fast_config())
        assert len(report.records) == 36
        assert not report.failures
        langs = {r.language for r in report.records}
        variables = {r.variable for r in report.records}
        assert langs == {"jpn", "cmn", "kor"}
        assert variables == {"Attack", "Defend", "Height", "Weight"}

    def test_single_group_yields_k_records_and_mean_aggregate(self):
        report = run_experiment(fast_config(
            languages=("jpn",), variables=("Attack",)))
        assert len(report.records) == 3
        agg = report.aggregates[0]
        assert agg.mean_accuracy == pytest.approx(
            np.mean([r.accuracy for r in report.records]), abs=1e-12)

    def test_aggregates_recomputable_from_records(self):
        report = run_experiment(fast_config(languages=("kor",)))
        for agg in report.aggregates:
            recs = [r for r in report.records
                    if (r.language, r.variable) == (agg.language,
                                                    agg.variable)]
            assert agg.n_iterations == len(recs) == 3
            assert agg.mean_accuracy == pytest.approx(
                np.mean([r.accuracy for r in recs]), abs=1e-12)
            defined = [r.fp_pct for r in recs if r.fp_pct is not None]
            assert agg.mean_fp_pct == pytest.approx(np.mean(defined),
                                                    abs=1e-12)

    def test_each_sample_tested_exactly_once(self):
        # the three test folds partition the balanced set
        report = run_experiment(fast_config(
            languages=("jpn",), variables=("Attack",)))
        sizes = [r.total for r in report.records]
        assert max(sizes) - min(sizes) <= 2
        # balanced set size: per-class counts are equal and every sample
        # appears in exactly one test fold
        assert sum(r.n_threat for r in report.records) \
            == sum(r.n_nonthreat for r in report.records)

    def test_removing_language_leaves_others_unchanged(self):
        full = run_experiment(fast_config(languages=("jpn", "kor")))
        solo = run_experiment(fast_config(languages=("kor",)))
        full_kor = [r for r in full.records if r.language == "kor"]
        assert [dataclasses.astuple(r) for r in full_kor] \
            == [dataclasses.astuple(r) for r in solo.records]

    def test_flipping_threat_direction_mirrors_each_fold(self):
        """Calling each variable's low class the threat swaps tp with tn and
        fp with fn, so FP% and its mirror sum to 1.  Floats need not mirror
        exactly: ``sigmoid(-m)`` need not equal ``1 - sigmoid(m)``, and a
        tie at p = 0.5 goes to threat.  The bound is the measured one: on
        the fixture at 20 and at 200 rounds 35 of 36 folds mirror, and the
        largest deviation from 1 is 0.0118 and 0.0120."""
        config = fast_config(boost_params=BoostParams(rounds=20))
        low = dataclasses.replace(
            config, threat_direction=dict.fromkeys(config.variables, "low"))
        shipped = run_experiment(config).records
        flipped = run_experiment(low).records
        assert [(r.language, r.variable, r.fold, r.seed) for r in shipped] \
            == [(r.language, r.variable, r.fold, r.seed) for r in flipped]
        mirrored = [(r.tp, r.fp, r.fn, r.tn) == (m.tn, m.fn, m.fp, m.tp)
                    for r, m in zip(shipped, flipped)]
        assert len(mirrored) == 36 and sum(mirrored) >= 35
        for r, m in zip(shipped, flipped):
            if r.fp_pct is not None and m.fp_pct is not None:
                assert abs(r.fp_pct + m.fp_pct - 1.0) <= 0.02, (r, m)

    def test_missing_attribute_group_fails_in_isolation(self, write_corpus):
        rows = [f"n{i},xx,ka,k a,{i},,{i + 1},{i + 2}" for i in range(12)]
        corpus, inventory = write_corpus(
            rows, ["xx,a,0", "xx,k,0"])
        config = ExperimentConfig(
            corpus_path=corpus, inventory_path=inventory,
            boost_params=FAST_BOOST)
        report = run_experiment(config)
        failed = {(f.language, f.variable) for f in report.failures}
        assert ("xx", "Defend") in failed
        done = {(r.language, r.variable) for r in report.records}
        assert ("xx", "Attack") in done

    def test_unknown_configured_language_rejected(self):
        with pytest.raises(ConfigError,
                           match="no inventory for configured language"):
            run_experiment(fast_config(languages=("nope",)))

    def test_language_without_rows_fails_each_group(self, write_corpus):
        # yy has an inventory, and so an empty count matrix, but no rows
        rows = [f"n{i},xx,ka,k a,{i},{i + 1},{i + 2},{i + 3}"
                for i in range(12)]
        corpus, inventory = write_corpus(rows,
                                         ["xx,a,0", "xx,k,0", "yy,o,0"])
        config = ExperimentConfig(
            corpus_path=corpus, inventory_path=inventory,
            languages=("xx", "yy"), boost_params=FAST_BOOST)
        report = run_experiment(config)
        assert [(f.language, f.variable, f.stage, f.reason)
                for f in report.failures] \
            == [("yy", v, "LabelingError", "median_split: empty input")
                for v in config.variables]
        assert {r.language for r in report.records} == {"xx"}

    def test_each_entry_featurized_and_measured_once(self, monkeypatch):
        calls = Counter()
        for name in ("featurize", "name_length"):
            def counting(*args, _name=name, _real=getattr(corpus, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(corpus, name, counting)
        run_experiment(fast_config(boost_params=BoostParams(rounds=1)))
        # one call per language of the fixture: its rows are shared by 4
        # variables and by the per-language and combined regression scopes
        assert calls == {"featurize": 3, "name_length": 3}

    def test_interleaved_corpus_keeps_file_order(self, write_corpus):
        rows = csv_rows(CORPUS_CSV)
        by_lang = {}
        for row in rows:
            by_lang.setdefault(row[1], []).append(row)
        interleaved = [row for group in zip(*by_lang.values())
                       for row in group]
        assert sorted(interleaved) == sorted(rows) != interleaved
        paths = write_corpus(interleaved, csv_rows(INVENTORY_CSV))
        languages = tuple(reversed(by_lang))
        params = BoostParams(rounds=2, max_depth=2)
        report = run_experiment(fast_config(
            corpus_path=paths[0], inventory_path=paths[1],
            languages=languages, boost_params=params))

        loaded, _ = corpus.load_corpus(*paths)
        combined = {e.variable: e.result for e in report.length_regressions
                    if e.language == "combined"}
        for variable in report.config.variables:
            j = corpus.ATTRIBUTE_NAMES.index(variable)
            present = ~np.isnan(loaded.attributes[:, j])
            assert combined[variable] == stats.simple_ols(
                loaded.length[present].tolist(),
                loaded.attributes[present, j].tolist())

        blocked = run_experiment(fast_config(
            languages=languages, boost_params=params))
        assert [dataclasses.astuple(r) for r in report.records] \
            == [dataclasses.astuple(r) for r in blocked.records]


class TestHypotheses:
    def test_h1_paper_shape_degrees_of_freedom(self):
        report = run_experiment(fast_config())
        h1 = {e.group: e for e in report.h1}
        assert h1["Attack"].n == 9
        assert h1["Attack"].result.df == 8
        assert h1["combat"].n == 18
        assert h1["combat"].result.df == 17
        assert h1["size"].result.df == 17

    def test_h1_zero_variance_flagged(self):
        records = synthetic_records([0.5] * 6)
        config = fast_config()
        entries = {e.group: e for e in hypothesis_h1(records, config)}
        assert entries["Attack"].result is None
        assert "variance" in entries["Attack"].untestable_reason

    def test_h1_repeated_value_untestable(self):
        # the rounded mean of three 0.1s is not 0.1, which once gave a
        # t of -4.1e16 instead of a zero variance
        entries = {e.group: e for e in hypothesis_h1(
            synthetic_records([0.1] * 3), fast_config())}
        assert entries["Attack"].result is None
        assert entries["Attack"].untestable_reason \
            == "one_sample_t: zero variance in sample"

    def test_untestable_reason_is_the_statistics_own_text(self):
        records = (synthetic_records([0.6])
                   + synthetic_records([0.4, 0.5], variable="Height"))
        entries = {e.group: e for e in hypothesis_h1(records, fast_config())}
        assert (entries["Attack"].n, entries["Attack"].untestable_reason) \
            == (1, "need at least 2 values, got 1")
        assert (entries["Defend"].n, entries["Defend"].untestable_reason) \
            == (0, "need at least 2 values, got 0")
        h2 = hypothesis_h2(records, fast_config())
        assert (h2.result, h2.combat, h2.size) == (None, None, None)
        assert h2.untestable_reason == "need at least 2 values, got 1"

    def test_h2_repeated_values_untestable(self):
        records = (synthetic_records([0.6] * 3)
                   + synthetic_records([0.1] * 3, variable="Weight"))
        h2 = hypothesis_h2(records, fast_config())
        assert h2.result is None
        assert h2.untestable_reason \
            == "two_sample_pooled_t: zero pooled variance"

    def test_h1_positive_skew_gives_positive_estimate(self):
        records = synthetic_records([0.55, 0.6, 0.58, 0.62, 0.57, 0.59])
        entries = {e.group: e for e in hypothesis_h1(records, fast_config())}
        assert entries["Attack"].result.estimate > 0

    def test_h1_undefined_fp_excluded_with_count(self):
        records = synthetic_records([0.6, None, 0.55, 0.58])
        entries = {e.group: e for e in hypothesis_h1(records, fast_config())}
        assert entries["Attack"].n == 3
        assert entries["Attack"].n_excluded == 1

    def test_h2_paper_shape_df(self):
        report = run_experiment(fast_config())
        assert report.h2.result.df == 34

    def test_h2_identical_groups_zero_t(self):
        records = (synthetic_records([0.5, 0.6, 0.7], variable="Attack")
                   + synthetic_records([0.5, 0.6, 0.7], variable="Height"))
        h2 = hypothesis_h2(records, fast_config())
        assert h2.untestable_reason is None
        assert h2.result.t == 0.0

    def test_h2_shifted_groups_match_summaries(self):
        size_vals = [0.45, 0.48, 0.50, 0.47]
        combat_vals = [v + 0.06 for v in size_vals]
        records = (synthetic_records(combat_vals, variable="Defend")
                   + synthetic_records(size_vals, variable="Weight"))
        h2 = hypothesis_h2(records, fast_config())
        assert h2.untestable_reason is None
        assert h2.result.estimate == pytest.approx(
            h2.combat.mean - h2.size.mean)
        assert h2.result.estimate == pytest.approx(0.06)


class TestLengthRegression:
    def test_exact_fit_when_attribute_equals_length(self, write_corpus):
        rows = []
        for i in range(10):
            tokens = " ".join(["a"] * (i % 5 + 1))
            n = i % 5 + 1
            rows.append(f"n{i},xx,x,{tokens},{n},{n},{n},{n}")
        corpus, inventory = write_corpus(rows, ["xx,a,0"])
        config = ExperimentConfig(corpus_path=corpus,
                                  inventory_path=inventory)
        loaded, _ = __import__(
            "soundskew.corpus", fromlist=["load_corpus"]).load_corpus(
                corpus, inventory)
        results = runner.length_regression(loaded, config, ("xx",))
        for e in results:
            assert e.result.r2 == pytest.approx(1.0)
            assert e.result.slope == pytest.approx(1.0)

    @pytest.mark.parametrize("names, reason", [
        (2, "simple_ols needs n >= 3 paired values, got 2"),
        (40, "simple_ols: constant response")])
    def test_untestable_scope_gives_the_statistics_own_text(
            self, write_corpus, names, reason):
        # every Attack is 50, in the language and so in the combined scope
        rows = [f"n{i},xx,x,{' '.join(['a'] * (i % 5 + 1))},50,{i},{i},{i}"
                for i in range(names)]
        loaded, _ = corpus.load_corpus(*write_corpus(rows, ["xx,a,0"]))
        config = fast_config(variables=("Attack",))
        entries = runner.length_regression(loaded, config, ("xx",))
        assert [(e.language, e.n, e.result, e.untestable_reason)
                for e in entries] \
            == [("xx", names, None, reason), ("combined", names, None, reason)]

    def test_fixture_produces_per_language_and_combined(self, fixture_corpus):
        loaded, _ = fixture_corpus
        config = fast_config()
        results = runner.length_regression(
            loaded, config, ("jpn", "cmn", "kor"))
        scopes = {e.language for e in results}
        assert scopes == {"jpn", "cmn", "kor", "combined"}
        combined = [e for e in results if e.language == "combined"]
        assert all(e.n == 900 for e in combined)
        assert all(e.result.df2 == 898 for e in combined)

    def test_matches_normal_equation_oracle(self, fixture_corpus):
        loaded, inventories = fixture_corpus
        config = fast_config()
        results = runner.length_regression(loaded, config, ("jpn",))
        jpn = {e.variable: e for e in results if e.language == "jpn"}
        # lengths recounted from the transcriptions, not the loader's column
        rows = csv_rows(CORPUS_CSV)
        inv = inventories["jpn"]
        x = np.array([sum(not inv.is_tone[inv.index[t]] for t in r[3].split())
                      for r in rows if r[1] == "jpn"], dtype=float)
        y = np.array([float(r[4]) for r in rows if r[1] == "jpn"])
        result = jpn["Attack"].result
        assert (result.slope, result.intercept) \
            == pytest.approx(normal_equation_ols(x, y)[:2], abs=1e-9)


class TestEmitReport:
    def test_files_written_and_row_counts(self, tmp_path):
        report = run_experiment(fast_config(
            languages=("jpn",), variables=("Attack",), out_dir=str(tmp_path)))
        paths = emit_report(report)
        assert [os.path.basename(p) for p in paths] \
            == ["records.tsv", "report.json", "report.md"]
        lines = (tmp_path / "records.tsv").read_text().splitlines()
        assert len(lines) == len(report.records) + 1
        assert lines[0].split("\t") == list(runner.RECORD_COLUMNS)
        assert sorted(runner.RECORD_COLUMNS) \
            == sorted(f.name for f in dataclasses.fields(IterationRecord))

    def test_undefined_fp_pct_is_written_na(self):
        # RECORD's fold has no errors, so its fp_pct is None
        assert runner.records_tsv([IterationRecord(**RECORD)]).splitlines() \
            == ["\t".join(runner.RECORD_COLUMNS),
                "jpn\tAttack\t0\t1\t1\t0\t0\t1\t1\tNA"]

    def test_empty_record_set_still_valid(self, tmp_path):
        report = run_experiment(fast_config(
            languages=("jpn",), variables=("Attack",), out_dir=str(tmp_path),
            formats=("tsv", "md")))
        report.records = []
        report.aggregates = []
        emit_report(report)
        lines = (tmp_path / "records.tsv").read_text().splitlines()
        assert len(lines) == 1
        assert (tmp_path / "report.md").read_text().startswith("#")
        assert not (tmp_path / "report.json").exists()

    def test_json_round_trip_reproduces_aggregates(self, tmp_path):
        report = run_experiment(fast_config(
            languages=("cmn",), out_dir=str(tmp_path), formats=("json",)))
        emit_report(report)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [IterationRecord(**r) for r in doc["records"]] \
            == report.records
        by_key = {(a["language"], a["variable"]): a
                  for a in doc["aggregates"]}
        for agg in report.aggregates:
            loaded = by_key[(agg.language, agg.variable)]
            assert loaded["mean_accuracy"] == pytest.approx(
                agg.mean_accuracy, rel=1e-15)
            # aggregates recomputable from the serialized records
            recs = [r for r in doc["records"]
                    if (r["language"], r["variable"])
                    == (agg.language, agg.variable)]
            assert np.mean([r["accuracy"] for r in recs]) \
                == pytest.approx(agg.mean_accuracy, abs=1e-12)

    def test_full_disk_leaves_the_earlier_files(self, tmp_path, small_run,
                                                monkeypatch):
        """ENOSPC while the last file is written replaces no earlier file
        and leaves no temporary."""
        report = dataclasses.replace(small_run, config=dataclasses.replace(
            small_run.config, out_dir=str(tmp_path)))
        emit_report(report)
        names = ["records.tsv", "report.json", "report.md"]
        before = {name: (tmp_path / name).read_bytes() for name in names}

        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_disk_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if os.path.basename(path).startswith("report.md"):
                fh.write = fh.writelines = full_disk
            return fh

        monkeypatch.setattr(runner, "open", full_disk_open, raising=False)
        report = dataclasses.replace(report, records=report.records[:1],
                                     timestamp="later")
        with pytest.raises(OSError) as exc:
            emit_report(report)
        assert exc.value.errno == errno.ENOSPC
        assert sorted(os.listdir(tmp_path)) == names
        assert {name: (tmp_path / name).read_bytes()
                for name in names} == before

    def test_non_finite_float_writes_no_file(self, tmp_path, small_run):
        """A strict-JSON fault mid-stream leaves no truncated report.json,
        and no records.tsv written before it."""
        aggregates = [dataclasses.replace(small_run.aggregates[0],
                                          mean_accuracy=float("nan")),
                      *small_run.aggregates[1:]]
        report = dataclasses.replace(
            small_run, aggregates=aggregates,
            config=dataclasses.replace(small_run.config,
                                       out_dir=str(tmp_path)))
        with pytest.raises(ValueError, match="JSON compliant"):
            emit_report(report)
        assert os.listdir(tmp_path) == []

    def test_peak_per_record(self, tmp_path, small_run):
        """report.json is streamed, not held as one text.

        4,000 records.  Joining the encoder's chunks into one text peaks at
        about 2,200 B per record; streaming them at about 300 B.
        """
        record = small_run.records[0]
        report = dataclasses.replace(
            small_run, records=[dataclasses.replace(record, fold=i)
                                for i in range(4000)],
            config=dataclasses.replace(small_run.config, out_dir=str(tmp_path),
                                       formats=("json",)))
        tracemalloc.start()
        try:
            emit_report(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "report.json").stat().st_size \
            > 200 * len(report.records)
        assert peak / len(report.records) < 1000

    def test_reports_identical_apart_from_timestamp(self, tmp_path):
        config = fast_config(languages=("jpn",), variables=("Weight",))
        doc_a = dataclasses.asdict(run_experiment(config))
        doc_b = dataclasses.asdict(run_experiment(config))
        doc_a["timestamp"] = doc_b["timestamp"] = ""
        assert doc_a == doc_b


class TestCli:
    def write_config(self, tmp_path, **overrides):
        payload = {"corpus_path": CORPUS_CSV,
                   "inventory_path": INVENTORY_CSV,
                   "languages": ["jpn"], "variables": ["Attack"],
                   "boost_params": {"rounds": 10, "max_depth": 3},
                   "out_dir": str(tmp_path / "out")}
        payload.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_validate(self, tmp_path, capsys):
        assert cli_main(["validate", "--config",
                         self.write_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "900 entries" in out
        assert "jpn" in out

    @pytest.mark.parametrize("case", ["unknown-language", "header-only"])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys,
                                               write_corpus, case):
        if case == "unknown-language":
            config = self.write_config(tmp_path, languages=["xyz"])
            message = (f"error: {INVENTORY_CSV}: no inventory for "
                       "configured language 'xyz'\n")
        else:
            path, _ = write_corpus([], [])
            config = self.write_config(tmp_path, corpus_path=path,
                                       languages=None)
            message = f"error: {path}: corpus contains no entries\n"
        for command in ("validate", "run"):
            assert cli_main([command, "--config", config]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message)

    @pytest.mark.parametrize("text", [
        '{"k": 3',
        '{"k": ' + "1" * 5000 + "}",
        b"\xff\xfe{}",
        "[" * 100_000 + "]" * 100_000,
        "{}",                       # JSON, but neither a config nor a report
    ], ids=["truncated", "overlong-int", "not-utf8", "nested-too-deep",
            "empty-object"])
    def test_unreadable_json_exits_1_naming_file(self, tmp_path, capsys,
                                                 text):
        path = tmp_path / "bad.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        for argv in (["validate", "--config", str(path)],
                     ["stats", "--report", str(path)]):
            assert cli_main(argv) == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: ")

    # The Attack cell of each case's i-th jpn row; None keeps the cell.
    JPN_ATTACK = {
        "constant": lambda i: "50",
        # squared, 1e200 overflows the regression's sums of squares
        "1e200": lambda i: "1e200" if i == 0 else None,
        # the sum of two central values overflows, so the median is taken
        # from their halves
        "near-max": lambda i: repr(1.0e308 + i * 2.0e305),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("languages", [["jpn"], None],
                             ids=["jpn", "all"])
    @pytest.mark.parametrize("case, reason", [
        ("constant", "simple_ols: constant response"),
        ("1e200", "simple_ols: overflow: a mean or a sum of squares is not "
                  "finite"),
        ("near-max", "simple_ols: overflow: a mean or a sum of squares is "
                     "not finite"),
    ], ids=["constant", "1e200", "near-max"])
    def test_constant_attribute_is_an_untestable_regression(
            self, tmp_path, capsys, write_corpus, case, reason, languages):
        rows = csv_rows(CORPUS_CSV)
        jpn = [cells for cells in rows if cells[1] == "jpn"]
        for i, cells in enumerate(jpn):
            cells[4] = self.JPN_ATTACK[case](i) or cells[4]
        corpus_path, inventory_path = write_corpus(rows,
                                                   csv_rows(INVENTORY_CSV))
        config = self.write_config(
            tmp_path, corpus_path=corpus_path, inventory_path=inventory_path,
            languages=languages, boost_params={"rounds": 1, "max_depth": 1})
        assert cli_main(["run", "--config", config]) == 0

        def reject(token):
            raise AssertionError(f"report.json holds {token}")

        out_dir = tmp_path / "out"
        doc = json.loads((out_dir / "report.json").read_text(),
                         parse_constant=reject)
        reasons = {e["language"]: e["untestable_reason"]
                   for e in doc["length_regressions"] if e["result"] is None}
        # other languages' Attack values make the combined scope vary
        untestable = ({"jpn"} if case == "constant" and languages is None
                      else {"jpn", "combined"})
        assert reasons == dict.fromkeys(untestable, reason)
        # a constant Attack ties every value with its median, so no group
        # is left to train; the near-float-max values still split
        failed = [(f["language"], f["variable"]) for f in doc["failures"]]
        assert failed == ([("jpn", "Attack")] if case == "constant" else [])
        assert "inf" not in (out_dir / "report.md").read_text()

    def test_stats_repeated_fp_values_are_untestable(self, tmp_path, capsys):
        # stats refuses a record whose fp_pct is not what its counts give
        counts = {0.1: {"tp": 1, "fp": 1, "fn": 9, "tn": 9},
                  0.6: {"tp": 6, "fp": 6, "fn": 4, "tn": 4}}
        records = [dict(RECORD, variable=variable, fold=fold, fp_pct=fp,
                        accuracy=0.5, **counts[fp])
                   for variable, fp in (("Attack", 0.1), ("Weight", 0.6))
                   for fold in range(3)]
        path = tmp_path / "report.json"
        config = dict(CONFIG_KEYS, variables=["Attack", "Weight"])
        path.write_text(report_text(config=config, records=records))
        assert cli_main(["stats", "--report", str(path)]) == 0
        out = capsys.readouterr().out
        # H1 Attack, Weight, combat and size have zero variance, as has H2
        assert out.count("one_sample_t: zero variance in sample") == 4
        assert out.count("two_sample_pooled_t: zero pooled variance") == 1

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_empty_variables_exits_1_naming_config(self, tmp_path, capsys,
                                                   command):
        config = self.write_config(tmp_path, variables=[])
        assert cli_main([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {config}: variables must be non-empty when given\n")
        assert not (tmp_path / "out").exists()

    def test_run_and_stats_and_report(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert cli_main(["run", "--config", config]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "records.tsv").exists()
        assert (out_dir / "report.json").exists()
        assert (out_dir / "report.md").exists()
        capsys.readouterr()

        assert cli_main(["stats", "--report",
                         str(out_dir / "report.json")]) == 0

        # report.md re-renders from the decoded report.json
        decoded = runner.read_report(str(out_dir / "report.json"))
        assert runner.report_markdown(decoded) \
            == (out_dir / "report.md").read_text()

    def test_pipe_in_language_stays_one_markdown_cell(self, tmp_path, capsys,
                                                      write_corpus):
        corpus_path, inventory_path = write_corpus(   # jpn's rows, as j|p
            [[r[0], "j|p", *r[2:]] for r in csv_rows(CORPUS_CSV)
             if r[1] == "jpn"],
            [["j|p", *r[1:]] for r in csv_rows(INVENTORY_CSV)
             if r[0] == "jpn"])
        config = self.write_config(
            tmp_path, corpus_path=corpus_path, inventory_path=inventory_path,
            languages=["j|p"])
        assert cli_main(["run", "--config", config]) == 0
        capsys.readouterr()
        text = (tmp_path / "out" / "report.md").read_text()
        assert "| j\\|p | Attack |" in text
        tables = re.findall(r"(?m)(?:^\|.*\n)+", text)
        assert len(tables) == 3
        for table in tables:        # cells end at pipes no backslash escapes
            assert len({len(re.split(r"(?<!\\)\|", row))
                        for row in table.splitlines()}) == 1, table

    def test_stats_uses_the_runs_partition(self, tmp_path, capsys):
        # Under the default partition Height would join Weight in "size".
        config = self.write_config(
            tmp_path, variables=["Attack", "Height", "Weight"],
            combat_set=["Attack"], size_set=["Weight"])
        assert cli_main(["run", "--config", config]) == 0
        capsys.readouterr()
        report = tmp_path / "out" / "report.json"
        assert cli_main(["stats", "--report", str(report)]) == 0
        # stats prints report.md's H1 and H2 sections, byte for byte
        markdown = (tmp_path / "out" / "report.md").read_text()
        start = markdown.index("## H1")
        end = markdown.index("## Name-length regressions")
        assert capsys.readouterr().out == markdown[start:end - 1]

    # The arguments that a report without these keys misses, as Python's
    # TypeError ends its message.
    MISSING = ("'failures', 'aggregates', 'h1', 'h2', 'length_regressions', "
               "and 'languages'")
    INIT = "ExperimentReport.__init__() missing"
    # (name, report text, the message that stats prints after the path)
    BAD_REPORTS = [
        ("list", "[]", "unsupported report version None"),
        ("no-config", '{"version": 1, "records": []}',
         f"{INIT} 7 required positional arguments: 'config', {MISSING}"),
        ("version", '{"version": 99}', "unsupported report version 99"),
        ("version-only", '{"version": 1}',
         f"{INIT} 8 required positional arguments: 'config', 'records', "
         f"{MISSING}"),
        ("int-list", "[1]", "unsupported report version None"),
        ("no-tables", json.dumps({"version": 1, "config": CONFIG_KEYS,
                                  "records": []}),
         f"{INIT} 6 required positional arguments: {MISSING}"),
        ("negative-count", report_text(records=[dict(RECORD, tp=-1)]),
         "records[0]: confusion-matrix counts must be >= 0"),
        ("string-fp-pct", report_text(records=[dict(RECORD, fp_pct="0.5")]),
         "records[0]: fp_pct must be a finite number, got '0.5'"),
        ("record-list", report_text(records=[[1]]),
         "records[0] must be an object, got [1]"),
        # a record must hold what its own counts give (fp_pct None, 1.0)
        ("fp-pct-not-its-counts",
         report_text(records=[dict(RECORD, fp_pct=0.5)]),
         "records[0]: fp_pct 0.5 does not match its counts (None)"),
        ("accuracy-not-its-counts",
         report_text(records=[dict(RECORD, accuracy=0.5)]),
         "records[0]: accuracy 0.5 does not match its counts (1.0)"),
        # a record that H1 and H2 would count twice, or that the run has no
        # group or fold for
        ("record-repeated", report_text(records=[RECORD] * 2),
         "records[1]: jpn/Attack/0 repeats records[0]"),
        ("record-language",
         report_text(records=[dict(RECORD, language="kor")]),
         "records[0]: language 'kor' is not in languages ['jpn']"),
        ("record-variable",
         report_text(records=[dict(RECORD, variable="Speed")]),
         "records[0]: variable 'Speed' is not in config.variables "
         "['Attack', 'Defend', 'Height', 'Weight']"),
        ("record-fold", report_text(records=[dict(RECORD, fold=3)]),
         "records[0]: fold 3 is outside [0, 3)"),
        # a record whose metrics its counts leave undefined
        ("record-empty-matrix",
         report_text(records=[dict(RECORD, tp=0, tn=0)]),
         "records[0]: accuracy of an empty matrix is undefined"),
        ("record-one-class", report_text(records=[dict(RECORD, tp=0)]),
         "records[0]: fp_rate_skew_adjusted needs both classes in the test "
         "set"),
        # a group of the run without all of its folds and without a failure
        ("record-missing",
         report_text(records=[r for r in RECORDS if r["fold"] != 1]),
         "jpn/Attack/1 has no record, and jpn/Attack no failure"),
        ("group-missing", report_text(
            records=[r for r in RECORDS if r["variable"] == "Attack"],
            failures=[dict(FAILURE, variable="Defend")]),
         "jpn/Height/0 has no record, and jpn/Height no failure"),
        # a failure that the run could not have written, and languages that
        # are not the run's
        ("failure-unknown-group", report_text(
            failures=[dict(FAILURE, language="zzz", variable="Speed")]),
         "failures[0]: language 'zzz' is not in languages ['jpn']"),
        ("failure-with-records", report_text(failures=[FAILURE]),
         "failures[0]: jpn/Attack has records"),
        ("failure-repeated", report_text(
            records=[r for r in RECORDS if r["variable"] != "Attack"],
            failures=[FAILURE] * 2),
         "failures[1]: jpn/Attack repeats failures[0]"),
        ("languages-not-config", report_text(
            config=dict(CONFIG_KEYS, languages=["jpn", "kor"])),
         "languages ['jpn'] are not config.languages ['jpn', 'kor']"),
        ("languages-repeated", report_text(languages=["jpn", "jpn"]),
         "languages: repeated entries in ['jpn', 'jpn']"),
        # a run never writes one: resolve_languages refuses an empty corpus
        ("languages-empty", report_text(languages=[], records=[]),
         "languages must be non-empty"),
        # every part of a report is read, not only the records
        ("h1-n-null", report_text(TABLES_REPORT, h1=[dict(H1_ENTRY, n=None)]),
         "h1[0]: n must be an integer, got None"),
        ("timestamp-number", report_text(TABLES_REPORT, timestamp=5),
         "timestamp must be a string, got 5"),
        ("languages-int", report_text(TABLES_REPORT, languages=7),
         "languages must be a list of strings, got 7"),
        ("aggregate-count-string", report_text(
            TABLES_REPORT, aggregates=[dict(AGGREGATE, n_iterations="three")]),
         "aggregates[0]: n_iterations must be an integer, got 'three'"),
        ("h2-unknown-key",
         report_text(TABLES_REPORT, h2=dict(REPORT["h2"], bogus=1)),
         "h2: unknown keys: ['bogus']"),
        # earlier versions wrote a perfect fit's F as Infinity, not JSON
        ("infinite-F", report_text(TABLES_REPORT, length_regressions=[
            {"language": "xx", "variable": "Attack", "n": 3, "result": {
                "slope": 10.0, "intercept": 0.0, "F": float("inf"),
                "df1": 1, "df2": 1, "p": 0.0, "r2": 1.0},
             "untestable_reason": None}]),
         "length_regressions[0]: result: F must be a finite number, got inf"),
    ]

    @pytest.mark.parametrize("text, message", [row[1:] for row in BAD_REPORTS],
                             ids=[row[0] for row in BAD_REPORTS])
    def test_stats_bad_report_exits_1(self, tmp_path, capsys, text, message):
        """Refused with one line naming the file and the cause.  A missing
        key is named by Python's TypeError."""
        path = tmp_path / "report.json"
        path.write_text(text)
        assert cli_main(["stats", "--report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_bad_report_message_names_the_value(self, tmp_path, capsys):
        # a bool is not an integer, nor is a whole float or a numeral
        path = tmp_path / "report.json"
        for n in (None, True, 3.0, "3"):
            path.write_text(report_text(TABLES_REPORT,
                                        h1=[dict(H1_ENTRY, n=n)]))
            assert cli_main(["stats", "--report", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: h1[0]: n must be an integer, got {n!r}\n")

    def test_smallest_report_is_read(self, tmp_path, capsys):
        # the reports that the bad-report cases change one part of, and a
        # report whose config names a boost seed, which only config files
        # refuse
        path = tmp_path / "report.json"
        seeded = dict(REPORT, config=dict(CONFIG_KEYS,
                                          boost_params={"seed": 5}))
        for doc in (REPORT, TABLES_REPORT, seeded):
            path.write_text(json.dumps(doc))
            assert cli_main(["stats", "--report", str(path)]) == 0

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["run"],
        ["run", "--config", "c.json", "--bogus"],
        ["run", "--config", "c.json", "--seed", "seven"],
        ["stats", "--records", "records.tsv"],
        ["report", "--json", "report.json"],
    ], ids=["no-command", "unknown-command", "run-no-config",
            "unknown-option", "bad-seed", "stats-records", "report-command"])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 0
        assert "usage: soundskew" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_count_beyond_int16_exits_1_naming_file(self, tmp_path, capsys,
                                                    write_corpus, command):
        rows = csv_rows(CORPUS_CSV)
        rows[0][3] = " ".join(["a"] * 32768)
        corpus_path, inventory_path = write_corpus(rows,
                                                   csv_rows(INVENTORY_CSV))
        config = self.write_config(tmp_path, corpus_path=corpus_path,
                                   inventory_path=inventory_path)
        assert cli_main([command, "--config", config]) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus_path}: entry '{rows[0][0]}': a token occurs "
            "32768 times, more than 32767\n")

    def test_run_seed_and_out_overrides(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        alt = tmp_path / "alt"
        assert cli_main(["run", "--config", config, "--seed", "7",
                         "--out", str(alt)]) == 0
        doc = json.loads((alt / "report.json").read_text())
        assert doc["config"]["seed"] == 7

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["validate", "run", "stats"])
    def test_closed_stdout_exits_0_quietly(self, tmp_path, small_run,
                                           command, unbuffered):
        """A reader that closes stdout early, as ``| head -0`` does, is no
        fault: the command has done its work, so it exits 0, silent.  A
        buffered stdout fails at its flush, an unbuffered one at a print."""
        config = self.write_config(tmp_path)
        report = os.path.join(small_run.config.out_dir, "report.json")
        argv = {"validate": ["--config", config], "run": ["--config", config],
                "stats": ["--report", report]}[command]
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "soundskew.cli", command, *argv],
                env=env, stdout=write_end, stderr=subprocess.PIPE,
                timeout=300)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")
        if command == "run":
            assert sorted(os.listdir(tmp_path / "out")) \
                == ["records.tsv", "report.json", "report.md"]

    @pytest.mark.parametrize("library", ["unloadable", "without-mallopt"])
    def test_run_without_mallopt_writes_the_same_records(
            self, tmp_path, capsys, monkeypatch, library):
        config = self.write_config(tmp_path)
        assert cli_main(["run", "--config", config,
                         "--out", str(tmp_path / "plain")]) == 0
        loaded = []

        def fake_cdll(name):
            loaded.append(name)
            if library == "unloadable":
                raise OSError(f"{name}: cannot open shared object file")
            return types.SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert cli_main(["run", "--config", config]) == 0
        assert loaded == (["libc.so.6"] if sys.platform.startswith("linux")
                          else [])
        assert (tmp_path / "out" / "records.tsv").read_bytes() \
            == (tmp_path / "plain" / "records.tsv").read_bytes()

    def test_validate_leaves_the_allocator_alone(self, tmp_path, capsys,
                                                 monkeypatch):
        def refuse():
            raise RuntimeError("allocator helper called")

        monkeypatch.setattr(cli, "_keep_heap_resident", refuse)
        config = self.write_config(tmp_path)
        assert cli_main(["validate", "--config", config]) == 0
        capsys.readouterr()
        # The same patch stops run, so it is the helper run calls.
        assert cli_main(["run", "--config", config]) == 2
        assert capsys.readouterr().err \
            == "runtime failure: allocator helper called\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="sets glibc's malloc thresholds")
    @pytest.mark.parametrize("where", ["checkout", "deep"])
    def test_run_keeps_large_node_temporaries_resident(self, tmp_path, where,
                                                       load_bench):
        """A 2,000-name language, jpn of the ``tall`` workload's input,
        gives split-search nodes whose temporaries pass glibc's default
        128 KiB thresholds; with them raised, the run takes far fewer minor
        page faults than with the helper a no-op.

        Both runs are counted above a child that only imports the CLI.
        Imports take most of the as-is run's faults, so without that base
        the verdict would turn on where the heap happens to lie, which
        moves with the checkout's path.  So the children import the
        checkout's ``src/``, or a copy of it under a deeper path, and each
        checks that it imported the one it was given."""
        corpus_path, inventory_path = load_bench("gen").write_corpus(
            str(tmp_path / "input"), 2000, 1, 0,
            os.path.join(os.path.dirname(__file__), ".."))
        config = self.write_config(
            tmp_path, corpus_path=corpus_path, inventory_path=inventory_path,
            variables=corpus.ATTRIBUTE_NAMES, boost_params={"rounds": 10})
        src = SRC_DIR
        if where == "deep":
            copy = tmp_path / "a/deeper/path/to/a/copy/of/the/checkout/src"
            shutil.copytree(src, copy,
                            ignore=shutil.ignore_patterns("__pycache__"))
            src = str(copy)
        child = ("import sys\nimport soundskew.cli as cli\n"
                 f"assert cli.__file__.startswith({src + os.sep!r}), "
                 "cli.__file__\n"
                 "if sys.argv[1] == 'import-only':\n"
                 "    sys.exit(0)\n"
                 "if sys.argv[1] == 'no-op':\n"
                 "    cli._keep_heap_resident = lambda: None\n"
                 "sys.exit(cli.main(sys.argv[2:]))\n")
        faults, records = {}, {}
        for helper in ("import-only", "as-is", "no-op"):
            out = tmp_path / helper
            with open(tmp_path / f"{helper}.log", "wb") as log:
                proc = subprocess.Popen(
                    [sys.executable, "-c", child, helper, "run", "--config",
                     config, "--out", str(out)],
                    env=child_env(src), stdout=log, stderr=subprocess.STDOUT)
                # os.wait4 for the child's own rusage, killed if it hangs
                timer = threading.Timer(300, proc.kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            assert proc.returncode == 0, \
                (tmp_path / f"{helper}.log").read_text()
            faults[helper] = usage.ru_minflt
            if helper != "import-only":
                records[helper] = (out / "records.tsv").read_bytes()
        assert records["as-is"] == records["no-op"]
        base = faults["import-only"]
        assert faults["as-is"] - base < (faults["no-op"] - base) / 2, faults

    # (name, config keys over write_config's, the message after the path)
    BAD_CONFIGS = [
        ("roundz", {"boost_params": {"roundz": 3}},
         "boost_params: unknown keys: ['roundz']"),
        ("rounds", {"boost_params": {"rounds": 0}},
         "boost_params: rounds must be >= 1"),
        ("k", {"k": "3"}, "k must be an integer, got '3'"),
        ("variables", {"variables": ["Speed"]},
         "variables: unknown attributes ['Speed']; expected a subset of "
         "['Attack', 'Defend', 'Height', 'Weight']"),
        # a wrong JSON type
        ("threat-list", {"threat_direction": ["Attack"]},
         "threat_direction must be an object, got ['Attack']"),
        ("languages-int", {"languages": 5},
         "languages must be a list of strings, got 5"),
        ("languages-str", {"languages": "jpn"},
         "languages must be a list of strings, got 'jpn'"),
        ("variables-null", {"variables": None},
         "variables must be a list of strings, got None"),
        ("combat-int-item", {"combat_set": ["Attack", 1]},
         "combat_set must be a list of strings, got ['Attack', 1]"),
        ("out-dir-int", {"out_dir": 5}, "out_dir must be a string, got 5"),
        ("rounds-float", {"boost_params": {"rounds": 2.5}},
         "boost_params: rounds must be an integer, got 2.5"),
        ("rate-bool", {"boost_params": {"learning_rate": True}},
         "boost_params: learning_rate must be a finite number, got True"),
        ("lambda-nan", {"boost_params": {"l2_lambda": float("nan")}},
         "boost_params: l2_lambda must be a finite number, got nan"),
        ("weight-overflow", {"boost_params": {"min_child_weight": 10 ** 400}},
         "boost_params: min_child_weight must be a finite number, got "
         f"{10 ** 400}"),
        ("params-int", {"boost_params": 5},
         "boost_params must be an object, got 5"),
        # the runner derives each fit's seed, so this one would go unused
        ("params-seed", {"boost_params": {"seed": 5}},
         "boost_params: seed is derived per fit from the top-level seed; set "
         "seed instead"),
        # the config's own rules
        ("k-1", {"k": 1}, "k must be >= 2"),
        ("overlapping-sets",
         {"combat_set": ["Attack"], "size_set": ["Attack"]},
         "combat_set and size_set must be disjoint"),
        ("threat-value", {"threat_direction": {"Attack": "up"}},
         "threat_direction['Attack'] must be 'high' or 'low'"),
        ("formats", {"formats": ["pdf"]}, "unknown report formats: ['pdf']"),
        ("formats-empty", {"formats": []}, "formats must be non-empty"),
        ("languages-empty", {"languages": []},
         "languages must be non-empty when given"),
        # a repeated group would be counted twice in H1, H2 and the OLS
        ("languages-repeated", {"languages": ["jpn", "jpn"]},
         "languages: repeated entries in ['jpn', 'jpn']"),
        ("variables-repeated", {"variables": ["Attack", "Attack"]},
         "variables: repeated entries in ['Attack', 'Attack']"),
        # a misspelt attribute would silently keep the default direction
        ("threat-key", {"threat_direction": {"attack": "low"}},
         "threat_direction: unknown attributes ['attack']; expected a subset "
         "of ['Attack', 'Defend', 'Height', 'Weight']"),
        ("unknown-key", {"bogus": 1}, "unknown keys: ['bogus']"),
    ]

    @pytest.mark.parametrize("overrides, message",
                             [row[1:] for row in BAD_CONFIGS],
                             ids=[row[0] for row in BAD_CONFIGS])
    def test_config_mistake_exits_1_naming_key(self, tmp_path, capsys,
                                               overrides, message):
        """Refused by validate and by run with one line naming the config
        file and the cause, before run makes its output directory."""
        config = self.write_config(tmp_path, **overrides)
        for command in ("validate", "run"):
            assert cli_main([command, "--config", config]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) \
                == ("", f"error: {config}: {message}\n")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column, cell, message", [
        pytest.param(4, "-3", "entry 'jpn-0004': attribute Attack = -3.0 "
                     "must be finite and non-negative", id="negative"),
        pytest.param(4, "inf", "entry 'jpn-0004': attribute Attack = inf "
                     "must be finite and non-negative", id="inf"),
        pytest.param(5, "nan", "entry 'jpn-0004': attribute Defend = nan "
                     "must be finite and non-negative", id="nan"),
        pytest.param(3, "", "entry 'jpn-0004' has an empty transcription",
                     id="blank-transcription"),
        pytest.param(6, "tall",
                     "attribute column 'height' is not numeric: 'tall'",
                     id="non-numeric"),
    ])
    def test_bad_corpus_row_exits_1_naming_file_and_row(
            self, tmp_path, capsys, write_corpus, column, cell, message):
        rows = csv_rows(CORPUS_CSV)
        rows[4][column] = cell          # file row 6, after the header
        corpus_path, inventory_path = write_corpus(rows,
                                                   csv_rows(INVENTORY_CSV))
        config = self.write_config(tmp_path, corpus_path=corpus_path,
                                   inventory_path=inventory_path)
        assert cli_main(["validate", "--config", config]) == 1
        assert capsys.readouterr().err \
            == f"error: {corpus_path}: row 6: {message}\n"

    @pytest.mark.parametrize("fault", ["not-utf8", "field-too-long"])
    @pytest.mark.parametrize("name, line, ending", [
        ("corpus.csv", 3, b"\r\n"), ("corpus.csv", 40, b"\r\n"),
        ("corpus.csv", 600, b"\r\n"), ("corpus.csv", 40, b"\r"),
        ("inventory.csv", 3, b"\n"), ("inventory.csv", 40, b"\r")],
        ids=["corpus-3", "corpus-40", "corpus-600", "corpus-40-cr",
             "inventory-3", "inventory-40-cr"])
    def test_unreadable_csv_exits_1_naming_file_and_line(
            self, tmp_path, capsys, fault, name, line, ending):
        """A file that is not UTF-8, or not CSV, is bad input.  The file
        is decoded a block ahead of the rows read, so a bad byte on line 40
        surfaces while the header is read; the message still names its
        line, counting a lone \\r as a line end as the reader does."""
        paths = {"corpus.csv": tmp_path / "corpus.csv",
                 "inventory.csv": tmp_path / "inventory.csv"}
        for source, path in zip((CORPUS_CSV, INVENTORY_CSV), paths.values()):
            with open(source, "rb") as fh:
                path.write_bytes(fh.read())
        lines = paths[name].read_bytes().splitlines()
        first, rest = lines[line - 1].split(b",", 1)
        lines[line - 1] = (first + b"\xff," if fault == "not-utf8"
                           else b'"' + b"x" * 140_000 + b'",') + rest
        paths[name].write_bytes(b"".join(row + ending for row in lines))
        config = self.write_config(
            tmp_path, corpus_path=str(paths["corpus.csv"]),
            inventory_path=str(paths["inventory.csv"]))
        assert cli_main(["validate", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {paths[name]}: line {line}: ")

    def test_missing_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        for argv in (["validate", "--config", str(path)],
                     ["stats", "--report", str(path)]):
            assert cli_main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: [Errno {errno.ENOENT}] "
                f"{os.strerror(errno.ENOENT)}: '{path}'\n")

    def test_directory_input_exits_1_naming_path(self, tmp_path, capsys,
                                                 monkeypatch):
        """A path that the OS refuses is bad input, whatever the refusal:
        a directory, a name too long, a symlink loop, which names itself as
        one even where ``--out`` is the loop."""
        config = self.write_config(
            tmp_path, boost_params={"rounds": 1, "max_depth": 1})
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        cases = [["validate", "--config", str(tmp_path)],
                 ["stats", "--report", str(tmp_path)]]
        for path in (tmp_path / ("x" * 300), loop / "out"):
            cases += [["validate", "--config", str(path)],
                      ["stats", "--report", str(path)],
                      ["run", "--config", config, "--out", str(path)]]
        cases.append(["run", "--config", config, "--out", str(loop)])
        for argv in cases:
            assert cli_main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert argv[-1] in err
            if argv[-1].startswith(str(loop)):
                assert os.strerror(errno.ELOOP) in err, argv

        # A fault while writing is a runtime failure.
        def full_disk(report):
            raise OSError(errno.ENOSPC, "No space left on device",
                          report.config.out_dir)

        monkeypatch.setattr(runner, "emit_report", full_disk)
        assert cli_main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"runtime failure: [Errno {errno.ENOSPC}] No space left on "
            f"device: '{tmp_path / 'out'}'\n")

    def test_run_out_existing_file_fails_before_training(
            self, tmp_path, capsys, monkeypatch):
        calls = Counter()
        real_train = boost.train

        def counting_train(*args, **kwargs):
            calls["train"] += 1
            return real_train(*args, **kwargs)

        monkeypatch.setattr(boost, "train", counting_train)
        taken = tmp_path / "taken"
        taken.write_text("")
        config = self.write_config(tmp_path)
        assert cli_main(["run", "--config", config, "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(taken) in err
        assert calls["train"] == 0

    def test_run_makes_every_layer_call_the_tracer_wraps(
            self, tmp_path, capsys, monkeypatch, load_bench):
        """The benchmark's tracer wraps the module attributes that its
        ``LAYER_CALLS`` name.  A run that reached a layer through any other
        binding (say a ``train`` imported into the runner) would leave that
        layer without spans, and its per-layer metrics would not compute."""
        traced, bench_run = load_bench("traced"), load_bench("run")
        tracer = traced.Tracer("tier1")
        wrapped = []
        for module_name, attr, hook in traced.LAYER_CALLS:
            module = sys.modules[f"soundskew.{module_name}"]
            monkeypatch.setattr(module, attr, getattr(module, attr))
            tracer.wrap(module, attr, f"{module_name}.{attr}", hook)
            wrapped.append(f"{module_name}.{attr}")
        config = self.write_config(tmp_path, languages=None,
                                   variables=list(corpus.ATTRIBUTE_NAMES),
                                   boost_params={"rounds": 2})
        assert cli_main(["run", "--config", config]) == 0
        capsys.readouterr()
        spans = {"name": np.frombuffer(tracer.name, dtype=np.int32),
                 "parent": np.frombuffer(tracer.parent, dtype=np.int32),
                 "start": np.frombuffer(tracer.start, dtype=np.int64),
                 "end": np.frombuffer(tracer.end, dtype=np.int64)}
        spanned = {tracer.names[i] for i in np.unique(spans["name"])}
        assert [name for name in wrapped if name not in spanned] == []
        metrics = bench_run.layer_metrics(
            spans, {"names": tracer.names, "counts": tracer.counts},
            traced_wall=1.0, untraced_wall=1.0, import_s=0.0)
        assert metrics.keys() == bench_run.PER_LAYER_UNITS.keys()
        assert metrics["boost.train_calls"] == 36

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_json_type_in_config_exits_1(self, tmp_path, capsys,
                                               data):
        path = data.draw(st.sampled_from(
            [(f.name,) for f in dataclasses.fields(ExperimentConfig)]
            + [("boost_params", f.name)
               for f in dataclasses.fields(BoostParams)]))
        tp = field_type(ExperimentConfig, path)
        value = data.draw(JSON_VALUES.filter(
            lambda v: not fits_annotation(v, tp)))
        stumps = {"rounds": 1, "max_depth": 1}
        if len(path) == 1:
            overrides = {"boost_params": stumps, path[0]: value}
        else:
            overrides = {"boost_params": {**stumps, path[1]: value}}
        config = self.write_config(tmp_path, **overrides)
        assert cli_main(["run", "--config", config]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: ")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_malformed_corpus_or_inventory_exits_1_naming_file(
            self, tmp_path, capsys, write_corpus, data):
        # each file with its header first, so that a fault may hit either
        files = [
            [list(corpus.CORPUS_COLUMNS), *csv_rows(CORPUS_CSV)[:12]],
            [list(corpus.INVENTORY_COLUMNS),
             *(row for row in csv_rows(INVENTORY_CSV) if row[0] == "jpn")]]
        rows = files[data.draw(st.integers(0, 1))]
        row = data.draw(st.integers(0, len(rows) - 1))
        cells = rows[row]
        column = data.draw(st.integers(0, len(cells) - 1))
        if data.draw(st.booleans()):
            del cells[column]           # a missing column
        else:
            cells[column] = data.draw(st.text(max_size=8))
        # written as is, so a drawn comma, quote or line end splits cells
        rows[row] = ",".join(cells)
        paths = write_corpus(*(file[1:] for file in files),
                             headers=[file[0] for file in files])
        config = self.write_config(tmp_path, corpus_path=paths[0],
                                   inventory_path=paths[1])
        code = cli_main(["validate", "--config", config])
        err = capsys.readouterr().err
        # A replaced cell may still be valid.  A rejection names an input
        # file: an inventory change can orphan a corpus row's token.
        assert code in (0, 1)
        if code == 1:
            assert err.startswith((f"error: {paths[0]}: ",
                                   f"error: {paths[1]}: "))


def json_leaves(doc, path=()):
    """(path, value) for each value of a JSON document that is not a
    non-empty list or object."""
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for key, value in items:
            yield from json_leaves(value, path + (key,))
    else:
        yield path, doc


def field_type(root, path):
    """The annotation of the value at ``path`` in a document of type
    ``root``, such as a report or a config."""
    tp = root
    for step in path:
        if typing.get_origin(tp) is types.UnionType:     # X | None
            tp = typing.get_args(tp)[0]
        if dataclasses.is_dataclass(tp):
            tp = typing.get_type_hints(tp)[step]
        else:                           # list[X], tuple[X, ...], dict[str, X]
            tp = typing.get_args(tp)[-1 if isinstance(step, str) else 0]
    return tp


def fits_annotation(value, tp) -> bool:
    """Whether a JSON value has the JSON type of annotation ``tp``: a bool is
    not a number, a float is finite, and any object fits a dataclass."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return value is None or fits_annotation(value, args[0])
    if origin in (list, tuple):
        return isinstance(value, list) \
            and all(fits_annotation(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) \
            and all(fits_annotation(v, args[1]) for v in value.values())
    if dataclasses.is_dataclass(tp):
        return isinstance(value, dict)
    if isinstance(value, bool):
        return False
    if tp is float:
        return isinstance(value, (int, float)) \
            and abs(value) <= sys.float_info.max
    return isinstance(value, tp)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small run on the fixture with testable H1, H2 and regressions; its
    files are in ``config.out_dir``."""
    report = run_experiment(fast_config(
        languages=("jpn",), variables=("Attack", "Weight"),
        combat_set=("Attack",), size_set=("Weight",),
        boost_params=BoostParams(rounds=2, max_depth=2),
        out_dir=str(tmp_path_factory.mktemp("run"))))
    emit_report(report)
    return report


class TestReportFile:
    def test_decoded_report_equals_the_written_one(self, small_run):
        assert small_run.h2.result is not None
        assert all(e.result is not None for e in small_run.h1)
        out_dir = small_run.config.out_dir
        decoded = runner.read_report(os.path.join(out_dir, "report.json"))
        assert decoded == small_run
        with open(os.path.join(out_dir, "report.md"), encoding="utf-8") as fh:
            assert runner.report_markdown(decoded) == fh.read()

    def test_perfect_fit_report_is_read(self, tmp_path, write_corpus,
                                        capsys):
        # Attack is exactly linear in name length, so the regressions have
        # no F: report.json holds null and stays strict JSON, and report.md
        # shows inf.
        corpus_path, inventory_path = write_corpus(
            [f"x{n},xx,n{n},{' '.join('a' * n)},{10 * n},1,1,1"
             for n in (2, 3, 4)], ["xx,a,0"])
        report = run_experiment(ExperimentConfig(
            corpus_path=corpus_path, inventory_path=inventory_path,
            variables=("Attack",), boost_params=BoostParams(rounds=1),
            out_dir=str(tmp_path / "out")))
        emit_report(report)
        path = tmp_path / "out" / "report.json"
        assert '"F": null' in path.read_text()

        def reject(token):
            raise AssertionError(f"report.json holds {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert [(e["result"]["F"], e["result"]["p"], e["result"]["r2"])
                for e in doc["length_regressions"]] \
            == [(None, 0.0, 1.0), (None, 0.0, 1.0)]
        assert cli_main(["stats", "--report", str(path)]) == 0
        decoded = runner.read_report(str(path))
        assert decoded == report
        markdown = (tmp_path / "out" / "report.md").read_text()
        assert "| xx | Attack | 1, 1 | inf | 0 | 1.000 |" in markdown
        assert runner.report_markdown(decoded) == markdown

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_type_anywhere_in_report_exits_1(self, small_run, tmp_path,
                                                   capsys, data):
        with open(os.path.join(small_run.config.out_dir, "report.json"),
                  encoding="utf-8") as fh:
            doc = json.load(fh)
        path, old = data.draw(st.sampled_from(list(json_leaves(doc))))
        value = data.draw(JSON_VALUES.filter(
            lambda v: type(v) is not type(old)))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        fits = fits_annotation(value, field_type(ExperimentReport, path))
        code = cli_main(["stats", "--report", str(report)])
        err = capsys.readouterr().err
        # exit 0 only for a value of the field's type, which the dataclass's
        # own checks may still reject
        assert code == 1 or code == 0 and fits, (path, value, err)
        if code == 1:
            assert err.startswith(f"error: {report}: ")
