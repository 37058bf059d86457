"""holopulse benchmark: seed-drawn CLI jobs, timed end to end or traced per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; holopulse is imported from ./src.
Load shape: a closed loop with one client. One process issues the next CLI
job (``holopulse.cli.main`` called in-process) when the previous one returns,
with BLAS capped at one thread. Every job's outputs are checked.

--trace 0 reports the end-to-end metrics: job_ref.mean (mean job time in
units of a fixed reference computation timed around each job), setup_s
(median of several fresh set-ups, each from the import of holopulse through
one warm-up job, scaled by the reference timed after it), peak_rss_mb and
accuracy_digits; it also prints job_s.p50, the tail and failed_frac.
--trace 1 runs every job twice, untraced and traced, checks that both write
the same bytes, and reports the per-layer metrics of the traced jobs
(per-job means), the tracing overhead and, on verify, a shot-noise MLE panel.
Human-readable lines come first; the last line of stdout is one JSON object.
The full report, and the spans of a traced run, go to .perfbench_results/.
See NOTES.md for the workloads and the definition of every metric.
"""
from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans
import workloads
from workloads import UNCONVERGED, WRONG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_results"
SETUP_CHILDREN = 2          # fresh set-ups besides this process's own
ACCURACY_CAP = 12.0
PROBE_FACTOR = 4
REF_REPS = 2
# the reference time (s) of a fast phase of a 2-CPU x86_64 host; set-up times
# are scaled to it (see measure)
REF_NOMINAL_S = 0.025
MLE_PANEL = 4               # shot-noise QPT calls after a traced verify run
MODULES = ("cli", "engine", "gates", "paths", "pulses", "qcore", "rbench",
           "sideband", "tomo")


def import_holopulse():
    """Import holopulse from the checkout's src/ (never from site-packages)."""
    if not (SRC / "holopulse" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'holopulse'} not found; run from a holopulse checkout")
    sys.path.insert(0, str(SRC))
    hp = {name: importlib.import_module(f"holopulse.{name}") for name in MODULES}
    if Path(hp["cli"].__file__).resolve().parent != SRC / "holopulse":
        sys.exit(f"error: holopulse imported from {hp['cli'].__file__}, not {SRC}")
    return hp


class Runner:
    """Runs one job (a list of CLI calls) in-process into fresh output dirs."""

    def __init__(self, hp, work: Path):
        self.main = hp["cli"].main
        self.work = work
        self._n = 0

    def run(self, job, main=None):
        """(seconds inside cli.main, output dirs, problems)."""
        main = main or self.main
        seconds, outs, problems = 0.0, [], []
        for command, cfg, cli_seed in job:
            self._n += 1
            cfg_path = self.work / f"{self._n}.json"
            cfg_path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
            out = self.work / f"out{self._n}"
            outs.append(out)
            argv = [command, "--config", str(cfg_path), "--seed", str(cli_seed),
                    "--out", str(out)]
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:   # a crashing job is a failed job, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            seconds += time.perf_counter() - t0
            if rc == 3:    # the CLI's "result not converged" status; outputs are written
                problems.append((UNCONVERGED, f"{command} exited with 3"))
            elif rc != 0:
                problems.append((WRONG, f"{command} failed: {rc}"))
                break
        return seconds, outs, problems

    def checked(self, workload, job, main=None):
        seconds, outs, problems = self.run(job, main)
        if not any(kind == WRONG for kind, _ in problems):
            try:
                problems += workloads.check_outputs(workload, job, outs)
            except (OSError, KeyError, IndexError, ValueError) as exc:
                problems.append((WRONG, f"unreadable output: {type(exc).__name__}: {exc}"))
        return seconds, outs, problems

    @staticmethod
    def discard(outs):
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)


def setup(workload, seed, work):
    """Import holopulse and run one untimed warm-up job.

    Returns the time taken, the reference time measured right after it, and
    the runner. The warm-up job is job 0, which the timed loop runs and
    checks again.
    """
    t0 = time.perf_counter()
    hp = import_holopulse()
    runner = Runner(hp, work)
    _, outs, _ = runner.run(workloads.draw_job(workload, seed, 0))
    elapsed = time.perf_counter() - t0
    runner.discard(outs)
    return elapsed, Reference().seconds(), hp, runner


def fresh_setup(workload, seed, work):
    """(set-up time, reference time) of a fresh interpreter running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload, "--seed", str(seed), "--work", str(work / "child")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    elapsed, ref = proc.stdout.split()[-2:]
    return float(elapsed), float(ref)


class Reference:
    """A fixed computation, timed around every job to track the host's speed.

    Host speed on shared machines drifts by up to 2x over minutes, and job
    times drift with it. The reference is numpy and Python work of the kinds
    the jobs do (batched eigh of 3x3 and 12x12 matrices, an einsum, a chain
    of 12x12 products, an RK4 loop over 9x9 matrices, an interpreter loop) and
    does not use holopulse, so job time / reference time cancels most of the
    drift but still moves with any change to holopulse. It is timed as the
    mean of REF_REPS runs, not the best, so that a slow phase of the host
    shows in it as it does in the jobs.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)

        def hermitian(n, d):
            a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            return a + np.conj(np.swapaxes(a, 1, 2))
        self._h3, self._h12 = hermitian(1024, 3), hermitian(512, 12)
        self._g9 = 0.01j * hermitian(1025, 9)

    def _once(self):
        np = self._np
        for h in (self._h3, self._h12):
            w, v = np.linalg.eigh(h)
            u = np.einsum("...ij,...j,...kj->...ik", v, np.exp(1j * w), v.conj())
        p = np.eye(12, dtype=complex)
        for m in u[:256]:
            p = m @ p
        phi, g, dt = np.eye(9, dtype=complex), self._g9, 0.1
        for k in range(512):
            k1 = g[2 * k] @ phi
            k2 = g[2 * k + 1] @ (phi + 0.5 * dt * k1)
            k3 = g[2 * k + 1] @ (phi + 0.5 * dt * k2)
            k4 = g[2 * k + 2] @ (phi + dt * k3)
            phi = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sum(i * i for i in range(10_000))

    def seconds(self):
        """Mean wall time of one reference computation over REF_REPS runs."""
        t0 = time.perf_counter()
        for _ in range(REF_REPS):
            self._once()
        return (time.perf_counter() - t0) / REF_REPS


def host_context():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(BLAS_THREADS), "machine": platform.machine()}


def _capture(fn, sink):
    def captured(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result
    return captured


def accuracy_probe(workload, job, hp, runner):
    """Run `job` with shots off at its steps and at PROBE_FACTOR x steps.

    Returns (figures, problems). The figures are accuracy_digits and the
    engine's deviations (max |dU|, |dPhi| between the two runs) and defects
    at the configured steps.
    """
    import numpy as np
    cli, rbench = hp["cli"], hp["rbench"]
    values, closed, opened, problems = {}, {}, {}, []
    for factor in (1, PROBE_FACTOR):
        closed[factor], opened[factor] = [], []
        patches = [
            (cli, "propagate_unitary", _capture(cli.propagate_unitary, closed[factor])),
            (rbench, "propagate_unitary", _capture(rbench.propagate_unitary, closed[factor])),
            (rbench, "open_superoperator", _capture(rbench.open_superoperator, opened[factor])),
        ]
        with spans.patched(patches):
            _, outs, errs = runner.run(workloads.probe_job(job, factor))
        problems += [(WRONG, f"accuracy probe x{factor}: {msg}") for _, msg in errs]
        if not errs:
            values[factor] = workloads.numeric_outputs(workload, outs)
        runner.discard(outs)
    figures = {"accuracy_digits": 0.0, "max_dU": 0.0, "unitarity_defect": 0.0,
               "max_dPhi": 0.0, "trace_defect": 0.0}
    if problems:
        return figures, problems
    base, ref = values[1], values[PROBE_FACTOR]
    if len(base) != len(ref) or not base:
        return figures, [(WRONG, f"probe outputs differ in length: {len(base)} vs {len(ref)}")]
    dev = max(abs(a - b) for a, b in zip(base, ref))
    figures["accuracy_digits"] = min(ACCURACY_CAP, -math.log10(dev)) if dev else ACCURACY_CAP
    pairs = list(zip(closed[1], closed[PROBE_FACTOR]))
    if pairs:
        figures["max_dU"] = max(float(np.max(np.abs(a.unitary - b.unitary))) for a, b in pairs)
        figures["unitarity_defect"] = max(hp["qcore"].unitarity_defect(a.unitary)
                                          for a, _ in pairs)
    pairs = list(zip(opened[1], opened[PROBE_FACTOR]))
    if pairs:
        figures["max_dPhi"] = max(float(np.max(np.abs(a - b))) for a, b in pairs)
        figures["trace_defect"] = max(hp["engine"].trace_defect(a) for a, _ in pairs)
    return figures, problems


def _same_bytes(outs_a, outs_b):
    if len(outs_a) != len(outs_b):
        return False
    for a, b in zip(outs_a, outs_b):
        files = sorted(p.name for p in a.iterdir())
        if files != sorted(p.name for p in b.iterdir()):
            return False
        if any((a / f).read_bytes() != (b / f).read_bytes() for f in files):
            return False
    return True


def tail(times):
    """(percentile, value): the highest percentile with at least ten jobs beyond it.

    None below 21 jobs, where that percentile would not lie above the median.
    """
    ordered = sorted(times)
    k = len(ordered) - 10
    if 2 * k <= len(ordered):
        return None, None
    return 100.0 * k / len(ordered), ordered[k - 1]


def layer_metrics(agg, n_jobs, figures):
    """Per-layer metrics of the traced jobs: per-job means, ratios over all jobs."""
    def per(v):
        return v / n_jobs

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_step(name):
        return 1e6 * ratio(agg.incl[name], agg.attrs[name]["steps"])

    lookups = agg.attrs["rbench.build_sequence"]["gates"]
    propagations = (agg.child_calls["rbench.run_rb", "engine.open"]
                    + agg.child_calls["rbench.run_rb", "engine.closed"])
    return {
        "engine.closed.calls": per(agg.calls["engine.closed"]),
        "engine.closed.self_s": per(agg.self_s["engine.closed"]),
        "engine.closed.steps": per(agg.attrs["engine.closed"]["steps"]),
        "engine.closed.us_per_step": us_per_step("engine.closed"),
        "engine.closed.max_dU": figures["max_dU"],
        "engine.closed.unitarity_defect": figures["unitarity_defect"],
        "engine.open.calls": per(agg.calls["engine.open"]),
        "engine.open.self_s": per(agg.self_s["engine.open"]),
        "engine.open.steps": per(agg.attrs["engine.open"]["steps"]),
        "engine.open.us_per_step": us_per_step("engine.open"),
        "engine.open.max_dPhi": figures["max_dPhi"],
        "engine.open.trace_defect": figures["trace_defect"],
        "rbench.self_s": per(agg.self_prefix("rbench")),
        "rbench.sequences": per(agg.calls["rbench.build_sequence"]),
        "rbench.gate_applications": per(lookups),
        "rbench.propagations": per(propagations),
        "rbench.cache_hit_ratio": ratio(lookups - propagations, lookups),
        "rbench.fit_decay.self_s": per(agg.self_s["rbench.fit_decay"]),
        "pulses.synthesize.calls": per(agg.calls["pulses.synthesize"]),
        "pulses.synthesize.self_s": per(agg.self_s["pulses.synthesize"]),
        "pulses.peak_envelope.calls": per(agg.calls["pulses.peak_envelope"]),
        "pulses.peak_envelope.distinct_frac": ratio(len(agg.values["pulses.peak_envelope"]),
                                                    agg.calls["pulses.peak_envelope"]),
        "paths.controls_arrays.calls": per(agg.calls["paths.controls_arrays"]),
        "paths.controls_arrays.self_s": per(agg.self_s["paths.controls_arrays"]),
        "paths.controls_arrays.points": per(agg.attrs["paths.controls_arrays"]["points"]),
        "sideband.verify.calls": per(agg.calls["sideband.verify"]),
        "sideband.verify.self_s": per(agg.self_s["sideband.verify"]),
        "sideband.synthesize_cphase.self_s": per(agg.self_s["sideband.synthesize_cphase"]),
        "tomo.mle.calls": per(agg.calls["tomo.mle"]),
        "tomo.mle.self_s": per(agg.self_s["tomo.mle"]),
        "tomo.mle.iterations": ratio(agg.attrs["tomo.mle"]["iterations"], agg.calls["tomo.mle"]),
        "tomo.mle.converged_frac": ratio(agg.attrs["tomo.mle"]["converged"],
                                         agg.calls["tomo.mle"]),
        "gates.axis_angle.calls": per(agg.calls["gates.axis_angle"]),
        "gates.axis_angle.self_s": per(agg.self_s["gates.axis_angle"]),
        "qcore.fidelity.calls": per(agg.calls["qcore.fidelity"]),
        "qcore.fidelity.self_s": per(agg.self_s["qcore.fidelity"]),
        "cli.self_s": per(agg.self_s["cli"]),
        "cli.write_s": per(agg.self_s["cli.write"]),
        "cli.bytes_written": per(agg.attrs["cli.write"]["bytes"]),
    }


UNITS = {".calls": "count", ".steps": "count", ".sequences": "count",
         ".gate_applications": "count", ".propagations": "count", ".points": "count",
         ".iterations": "count", ".jobs": "count", ".nproc": "count",
         ".blas_threads": "count", ".us_per_step": "us", ".bytes_written": "bytes",
         "_mb": "MB", "_digits": "digits", "job_ref.mean": "ref"}


def unit_of(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "1"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def mle_panel(args, hp, runner):
    """Shot-noise QPT on drawn gates, traced apart from the jobs.

    Not an operation of the workload: an unconverged MLE here is a measured
    figure, not a failed job. Returns (metrics, problems).
    """
    tracer = spans.Tracer()
    calls = workloads.mle_panel(args.seed, MLE_PANEL if args.workload == "verify" else 0)
    problems = []
    for i, call in enumerate(calls):
        with tracer.job(i), spans.patched(spans.instrument(tracer, hp)):
            _, outs, errs = runner.run([call], tracer.wrap("cli", hp["cli"].main))
        problems += [(kind, f"MLE panel call {i}: {msg}") for kind, msg in errs
                     if kind == WRONG]
        runner.discard(outs)
    agg = spans.Aggregate(tracer.spans)
    mle = agg.calls["tomo.mle"]
    return {
        "tomo.shot_mle.calls": float(mle),
        "tomo.shot_mle.self_s": agg.self_s["tomo.mle"] / mle if mle else 0.0,
        "tomo.shot_mle.iterations": agg.attrs["tomo.mle"]["iterations"] / mle if mle else 0.0,
        "tomo.shot_mle.converged_frac": agg.attrs["tomo.mle"]["converged"] / mle if mle else 0.0,
        "tomo.shot_mle.counts_self_s": (agg.self_s["tomo.simulate_counts"] / mle
                                        if mle else 0.0),
    }, problems


def timed_loop(args, runner, reference, tracer, traced_main, patches):
    """Issue jobs until --seconds have passed.

    Returns lists of per-job seconds (untraced and traced) and of the reference
    time around each job, the attempted and failed counts, and the problems.
    """
    job_s, traced_s, ref_s, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds:
        job = workloads.draw_job(args.workload, args.seed, index)
        before = reference.seconds()
        if args.trace:
            runs = {}
            # alternate which run goes first, so neither gets a systematic edge
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                with (tracer.job(index) if traced else nullcontext()), \
                        spans.patched(patches if traced else []):
                    runs[traced] = runner.checked(args.workload, job,
                                                  traced_main if traced else None)
            errs = runs[False][2] + runs[True][2]
            differ = not _same_bytes(runs[False][1], runs[True][1])
            if differ:
                errs.append((WRONG, "traced outputs differ from untraced outputs"))
            job_s.append(runs[False][0])
            traced_s.append(runs[True][0])
            attempted += 2
            failed += bool(runs[False][2] or differ) + bool(runs[True][2] or differ)
            outs = runs[False][1] + runs[True][1]
        else:
            seconds, outs, errs = runner.checked(args.workload, job)
            job_s.append(seconds)
            attempted += 1
            failed += bool(errs)
        ref_s.append((before + reference.seconds()) / 2.0)
        runner.discard(outs)
        problems += [(kind, f"job {index}: {msg}") for kind, msg in errs]
        index += 1
    return job_s, traced_s, ref_s, attempted, failed, problems


def measure(args, work):
    setup_own, setup_ref, hp, runner = setup(args.workload, args.seed, work)
    setups = [(setup_own, setup_ref)] + [fresh_setup(args.workload, args.seed, work)
                                         for _ in range(SETUP_CHILDREN)]
    host, reference = host_context(), Reference()
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli", hp["cli"].main)
    patches = spans.instrument(tracer, hp)

    job_s, traced_s, ref_s, attempted, failed, problems = timed_loop(
        args, runner, reference, tracer, traced_main, patches)
    # read before the probe: the 4x-steps probe is not part of the measured work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures, probe_problems = accuracy_probe(
        args.workload, workloads.draw_job(args.workload, args.seed, 0), hp, runner)
    problems += probe_problems

    calibration_s = statistics.median(ref_s)
    pct, tail_s = tail(job_s)
    end_to_end = {
        # total over total: averages out the noise of the short reference timings
        "job_ref.mean": sum(job_s) / sum(ref_s),
        # set-up seconds on a host whose reference time is REF_NOMINAL_S: each
        # set-up is scaled by the reference timed right after it in its process
        "setup_s": statistics.median(t * REF_NOMINAL_S / r for t, r in setups),
        "peak_rss_mb": peak_rss_mb,
        "accuracy_digits": figures["accuracy_digits"],
    }
    lines = [f"workload {args.workload}, seed {args.seed}: {len(job_s)} jobs"
             + (", each run untraced and traced" if args.trace else "")
             + f"; {attempted} attempted, {failed} failed",
             "host: " + ", ".join(f"{k}={v}" for k, v in host.items())
             + f", calibration={calibration_s:.6g} s (median reference time)"]
    lines += [f"{name} = {value:.6g} {unit_of(name)}" for name, value in end_to_end.items()]
    lines.append(f"job_s.p50 = {statistics.median(job_s):.6g} s ({len(job_s)} jobs)")
    lines.append("job_s.tail = " + (f"{tail_s:.6g} s (p{pct:.0f} of {len(job_s)} jobs)"
                                    if pct else f"n/a (needs 21 jobs, ran {len(job_s)})"))
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host, "host_calibration_s": calibration_s,
              "setup_samples_s_ref": setups, "job_s": job_s, "traced_job_s": traced_s,
              "reference_s": ref_s, "job_s_tail": {"percentile": pct, "value": tail_s},
              "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
              "problems": problems, "probe": figures, "end_to_end": end_to_end}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    if args.trace:
        agg = spans.Aggregate(tracer.spans)
        self_sums = [agg.self_by_job[i] for i in range(len(traced_s))]
        metrics = layer_metrics(agg, len(traced_s), figures)
        panel, panel_problems = mle_panel(args, hp, runner)
        metrics.update(panel)
        problems += panel_problems
        metrics.update({
            "trace.jobs": float(len(traced_s)),
            "trace.job_s.p50": statistics.median(traced_s),
            "trace.untraced_job_s.p50": statistics.median(job_s),
            "trace.overhead_s": statistics.median(traced_s) - statistics.median(job_s),
            "trace.self_sum_s": statistics.median(self_sums),
            "trace.unaccounted_s": statistics.median(
                t - s for t, s in zip(traced_s, self_sums)),
            "host.calibration_s": calibration_s,
            "host.nproc": float(host["nproc"]),
            "host.blas_threads": float(host["blas_threads"]),
        })
        report["per_layer"] = metrics
        lines += [f"{name} = {value:.6g} {unit_of(name)}" for name, value in metrics.items()]
        tracer.write(RESULTS / f"{stem}_spans.jsonl")
    else:
        metrics = end_to_end
    lines += [f"{kind}: {msg}" for kind, msg in problems[:20]]
    (RESULTS / f"{stem}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")

    # failed counts every job that did not succeed; correct is false only for a
    # wrong output, not for a result the program itself flagged as unconverged
    correct = (not any(kind == WRONG for kind, _ in problems)
               and all(math.isfinite(v) for v in metrics.values()))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))


def main(argv=None):
    args = parse_args(argv)
    if args.setup_child:
        args.work.mkdir(parents=True, exist_ok=True)
        elapsed, ref, _, _ = setup(args.workload, args.seed, args.work)
        print(elapsed, ref)
        return
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
