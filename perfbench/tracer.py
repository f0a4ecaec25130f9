"""In-memory span tracer wrapped around emlang's public functions.

The benchmark never edits the package: it swaps each traced name, in the
module (or on the class) where the caller looks it up, for a wrapper that
records one span per call, and restores the originals afterwards.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span, None for a root
    op: int  # operation id: one emlang CLI call
    attrs: dict | None  # counts taken at the call, e.g. {"rows": 32}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn inside a span; `count(args, result)` returns span attrs."""
        index = len(self.spans)
        self.spans.append(None)  # reserve the index children point at
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            attrs = count(args, result) if count is not None else None
            self.spans[index] = Span(name, start, end, parent, self.op, attrs)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


def write_spans(path, reps):
    """One JSON line per span; `id` and `parent` index spans of one `rep`."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for rep, spans in enumerate(reps):
            for i, s in enumerate(spans):
                fh.write(json.dumps({"rep": rep, "id": i, **s._asdict()}) + "\n")


def _rows(args, result):
    return {"rows": len(args[1])}


def _loaded_rows(args, result):
    return {"rows": result.num_samples} if result is not None else None


def _train_log(args, result):
    if result is None:
        return None
    return {"epochs": len(result.epochs), "best_epoch": result.best_epoch}


def targets():
    """(owner, attribute, span name, counter) for every traced name.

    The owner is where the caller looks the name up: `cli` imports the
    classifier, data and attribution entry points by name, `classifier`
    imports `adam_step` and `softmax_cross_entropy` by name, and
    `per_symbol_report` calls the module-level `neuron_conductance`.
    """
    from emlang import attribution, classifier, cli, gumbel, nn

    return [
        (cli, "generate_synthetic", "data.generate_synthetic", None),
        (cli, "save_csv", "data.save_csv", None),
        (cli, "load_csv", "data.load_csv", _loaded_rows),
        (cli, "train", "classifier.train", _train_log),
        (cli, "evaluate", "classifier.evaluate", None),
        (cli, "save_checkpoint", "classifier.save_checkpoint", None),
        (cli, "load_checkpoint", "classifier.load_checkpoint", None),
        (cli, "per_symbol_report", "attribution.per_symbol_report", None),
        (classifier, "dataset_loss", "classifier.dataset_loss", None),
        (classifier, "adam_step", "nn.adam_step", None),
        (classifier, "softmax_cross_entropy", "nn.softmax_cross_entropy", None),
        (classifier.ModelGraph, "forward", "classifier.ModelGraph.forward", None),
        (classifier.ModelGraph, "backward", "classifier.ModelGraph.backward", None),
        (attribution, "neuron_conductance", "attribution.neuron_conductance", None),
        (nn.DenseLayer, "forward", "nn.DenseLayer.forward", _rows),
        (nn.DenseLayer, "backward", "nn.DenseLayer.backward", None),
        (gumbel.GumbelSoftmaxSampler, "forward", "gumbel.GumbelSoftmaxSampler.forward", None),
        (gumbel.GumbelSoftmaxSampler, "backward", "gumbel.GumbelSoftmaxSampler.backward", None),
    ]


class installed:
    """Context manager: route every traced name through `tracer`."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for owner, attr, name, count in targets():
            original = owner.__dict__.get(attr)
            if original is None:  # the name is gone: its layer reads 0
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self.tracer.wrap(name, original, count))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start_ns
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end_ns - s.start_ns - covered) / 1e9)
    return out


def _under(spans, i, name):
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def rep_summary(spans):
    """Aggregates of one traced repetition (set-up plus one timed pass)."""
    selfs = self_times(spans)
    calls, rows, self_s = defaultdict(int), defaultdict(int), defaultdict(float)
    durations = defaultdict(list)
    epochs = best = cond_rows = 0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += selfs[i]
        durations[s.name].append((s.end_ns - s.start_ns) / 1e9)
        attrs = s.attrs or {}
        rows[s.name] += attrs.get("rows", 0)
        epochs += attrs.get("epochs", 0)
        best += attrs.get("best_epoch", 0)
        if s.name == "nn.DenseLayer.forward" and _under(
            spans, i, "attribution.neuron_conductance"
        ):
            cond_rows += attrs["rows"]
    conductance_calls = calls["attribution.neuron_conductance"]
    exact = {
        "nn.adam_step.calls": calls["nn.adam_step"],
        "nn.DenseLayer.forward.calls": calls["nn.DenseLayer.forward"],
        "nn.DenseLayer.forward.rows": rows["nn.DenseLayer.forward"],
        "nn.DenseLayer.backward.calls": calls["nn.DenseLayer.backward"],
        "gumbel.GumbelSoftmaxSampler.forward.calls": calls[
            "gumbel.GumbelSoftmaxSampler.forward"
        ],
        "classifier.train.epochs": epochs,
        # one optimizer step per backward pass through the model
        "classifier.train.steps": calls["classifier.ModelGraph.backward"],
        "attribution.neuron_conductance.calls": conductance_calls,
        "attribution.forward_rows_per_sample": (
            cond_rows / conductance_calls if conductance_calls else 0.0
        ),
        "data.load_csv.rows": rows["data.load_csv"],
        "classifier.train.best_epoch_ratio": best / epochs if epochs else 0.0,
    }
    return exact, dict(self_s), durations


SELF_S = (
    "nn.adam_step",
    "nn.DenseLayer.forward",
    "nn.DenseLayer.backward",
    "nn.softmax_cross_entropy",
    "gumbel.GumbelSoftmaxSampler.forward",
    "gumbel.GumbelSoftmaxSampler.backward",
    "classifier.ModelGraph.forward",
    "classifier.ModelGraph.backward",
    "classifier.dataset_loss",
    "classifier.evaluate",
    "classifier.save_checkpoint",
    "classifier.load_checkpoint",
    "attribution.neuron_conductance",
    "attribution.per_symbol_report",
    "data.generate_synthetic",
    "data.save_csv",
    "data.load_csv",
)

US_P50 = (
    "nn.adam_step",
    "nn.DenseLayer.forward",
    "nn.DenseLayer.backward",
    "gumbel.GumbelSoftmaxSampler.forward",
    "gumbel.GumbelSoftmaxSampler.backward",
)


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(reps):
    """Per-layer metrics over traced repetitions of one seed.

    Counts come from the first repetition and are returned with the names
    of any that differ in a later one; self times are medians over
    repetitions; call percentiles pool every call of every repetition. A
    layer that did not run reads 0.
    """
    summaries = [rep_summary(spans) for spans in reps]
    out = dict(summaries[0][0])
    unsteady = sorted(
        {name for exact, _, _ in summaries[1:] for name in out if exact[name] != out[name]}
    )
    for name in SELF_S:
        out[f"{name}.self_s"] = _median(s[1].get(name, 0.0) for s in summaries)
    pooled = defaultdict(list)
    for _, _, durations in summaries:
        for name, values in durations.items():
            pooled[name].extend(values)
    for name in US_P50:
        out[f"{name}.us_p50"] = _median(pooled[name]) * 1e6
    cond = [d * 1e3 for d in pooled["attribution.neuron_conductance"]]
    out["attribution.neuron_conductance.ms_p50"] = _median(cond)
    out["attribution.neuron_conductance.ms_p99"] = (
        statistics.quantiles(cond, n=100)[98] if len(cond) > 1 else _median(cond)
    )
    return out, unsteady
