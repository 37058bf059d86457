"""Spans around calls into holopulse's modules, recorded from outside the package.

Each public function is wrapped at the name its caller imported, so the
package itself is unchanged. A span is (name, start, end, parent, job, attrs);
attrs carries counts read from the call's arguments or result. Spans stay in
memory and are written out when the benchmark ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _closed_attrs(args, result):
    # check=True adds a half-resolution pass
    factor = 1.5 if args["check"] else 1.0
    return {"steps": factor * result.steps}


def _open_attrs(args, result):
    return {"steps": args["steps"]}


def _points_attrs(args, result):
    return {"points": int(getattr(result[0], "size", 1))}


def _sequence_attrs(args, result):
    specs, _recovery = result
    return {"gates": len(specs) + 1}


def _mle_attrs(args, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _write_attrs(args, result):
    return {"bytes": len((args["self"].header + args["body"]).encode("utf-8"))}


def _eta_attrs(args, result):
    return {"eta": args["eta"]}


def targets(hp):
    """(owner, attribute, span name, attrs function) for every patched call.

    `hp` maps module names to the imported holopulse modules.
    """
    cli, rbench, sideband = hp["cli"], hp["rbench"], hp["sideband"]
    return [
        (cli, "propagate_unitary", "engine.closed", _closed_attrs),
        (rbench, "propagate_unitary", "engine.closed", _closed_attrs),
        (rbench, "open_superoperator", "engine.open", _open_attrs),
        (cli, "synthesize", "pulses.synthesize", None),
        (rbench, "synthesize", "pulses.synthesize", None),
        (sideband, "synthesize", "pulses.synthesize", None),
        (hp["pulses"], "peak_envelope", "pulses.peak_envelope", _eta_attrs),
        (hp["engine"], "controls_arrays", "paths.controls_arrays", _points_attrs),
        (hp["pulses"], "controls_arrays", "paths.controls_arrays", _points_attrs),
        (sideband, "controls_arrays", "paths.controls_arrays", _points_attrs),
        (rbench, "axis_angle", "gates.axis_angle", None),
        (rbench, "build_sequence", "rbench.build_sequence", _sequence_attrs),
        (rbench, "fit_decay", "rbench.fit_decay", None),
        (cli, "run_rb", "rbench.run_rb", None),
        (cli, "mle_process", "tomo.mle", _mle_attrs),
        (cli, "simulate_counts", "tomo.simulate_counts", None),
        (sideband, "verify_full_model", "sideband.verify", None),
        (sideband, "synthesize_cphase", "sideband.synthesize_cphase", None),
        (cli, "fidelity_qubit_subspace", "qcore.fidelity", None),
        (cli.OutputWriter, "write", "cli.write", _write_attrs),
    ]


class Tracer:
    """In-memory span recorder; wrapped calls record under the open job."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None

    def wrap(self, name, fn, attrs=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "job": self._job, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = attrs(bound.arguments, result)
            return result
        return traced

    @contextmanager
    def job(self, job_id):
        self._job = job_id
        try:
            yield
        finally:
            self._job = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextmanager
def patched(patches):
    """Set (owner, attribute, replacement) triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def instrument(tracer, hp):
    """Patches that route every target through `tracer`."""
    return [(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))
            for owner, attr, name, attrs in targets(hp)]


class Aggregate:
    """Per-span-name totals over all jobs: calls, inclusive and self time, attrs."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child[span["parent"]] += span["end"] - span["start"]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.attrs = defaultdict(lambda: defaultdict(float))
        self.values = defaultdict(set)       # distinct (job, eta) per name
        self.self_by_job = defaultdict(float)
        self.child_calls = defaultdict(int)  # (parent name, name) -> calls
        for i, span in enumerate(spans):
            if span["parent"] is not None:
                self.child_calls[spans[span["parent"]]["name"], span["name"]] += 1
            name, dur = span["name"], span["end"] - span["start"]
            self.calls[name] += 1
            self.incl[name] += dur
            self.self_s[name] += dur - child[i]
            self.self_by_job[span["job"]] += dur - child[i]
            for key, value in span["attrs"].items():
                if key == "eta":
                    self.values[name].add((span["job"], value))
                else:
                    self.attrs[name][key] += value

    def self_prefix(self, prefix):
        return sum(v for k, v in self.self_s.items()
                   if k == prefix or k.startswith(prefix + "."))
