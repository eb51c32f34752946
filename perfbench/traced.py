"""Run one soundskew CLI command with a span around every layer call.

Usage: python3 perfbench/traced.py OUT_PREFIX RUN_ID CLI_ARG...

The program is not edited: the tracer wraps the module attributes that the
CLI and the runner call through (``soundskew.boost.train``,
``soundskew.corpus.featurize`` and so on), so each call records a span
(name, start, end, parent span) in memory.  Counts are taken at the same
boundaries.  When the command returns, the spans go to ``OUT_PREFIX.npz``
and the span names, counts, run id and the SHA-256 of the first fitted
model's ``model_to_json`` go to ``OUT_PREFIX.json``.  The exit code is the
CLI's.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import time
from array import array
from collections import Counter


def _count_train(tracer, model, args):
    tracer.counts.update({"boost.trees": len(model.trees),
                          "boost.splits": len(model.split_gain_log),
                          "boost.train_row_rounds":
                              len(args[0]) * model.params.rounds})
    if tracer.first_model is None:
        tracer.first_model = model


# (module, attribute, count hook) for every layer call the runner or the CLI
# makes through a module attribute.  A hook sees (tracer, result, args) after
# the span has closed; it is O(1) or one C-level pass so that it adds little
# to the parent span's self time.
LAYER_CALLS = (
    ("corpus", "load_corpus",
     lambda t, r, a: t.counts.update({"corpus.entries": len(r[0])})),
    ("corpus", "featurize", None),
    ("corpus", "name_length", None),
    ("labeling", "median_split",
     lambda t, r, a: t.counts.update({
         "labeling.values": len(a[0]),
         "labeling.omitted": list(r.values()).count("omitted")})),
    ("labeling", "balance",
     lambda t, r, a: t.counts.update({"labeling.kept": len(r.samples)})),
    ("labeling", "make_folds", None),
    ("boost", "train", _count_train),
    ("boost", "predict_prob",
     lambda t, r, a: t.counts.update({"boost.predict_rows": len(a[1])})),
    ("metrics", "accuracy", None),
    ("metrics", "fp_rate_skew_adjusted", None),
    ("metrics", "pool", None),
    ("stats", "one_sample_t", None),
    ("stats", "two_sample_pooled_t", None),
    ("stats", "simple_ols", None),
    ("runner", "run_experiment", None),
    ("runner", "emit_report",
     lambda t, r, a: t.counts.update({
         "runner.report_bytes": sum(os.path.getsize(p) for p in r)})),
)


class Tracer:
    """In-memory span recorder; span ids are positions in the arrays."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.first_model = None

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, module, attr: str, name: str, hook=None) -> None:
        fn = getattr(module, attr)
        name_id = self._name_id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack, clock = self.stack, time.perf_counter_ns

        # span() inlined: groups makes ~580k layer calls, and the context
        # manager would about double the tracing cost of each.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result, args)
            return result

        setattr(module, attr, traced)

    def save(self, prefix: str, **extra) -> None:
        import numpy as np
        np.savez(prefix + ".npz",
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64))
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "counts": dict(self.counts), **extra}, fh)


def main(argv: list[str]) -> int:
    prefix, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    with tracer.span("cli.import"):
        import soundskew.cli
    for module_name, attr, hook in LAYER_CALLS:
        tracer.wrap(sys.modules[f"soundskew.{module_name}"], attr,
                    f"{module_name}.{attr}", hook)
    with tracer.span("cli.main"):
        code = soundskew.cli.main(cli_args)
    model_sha = None
    if tracer.first_model is not None:
        text = sys.modules["soundskew.boost"].model_to_json(tracer.first_model)
        model_sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    tracer.save(prefix, exit_code=code, first_model_sha256=model_sha,
                module_file=soundskew.cli.__file__)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
