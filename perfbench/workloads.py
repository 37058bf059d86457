"""Seed-drawn CLI jobs of each workload, their output checks and accuracy probes.

A job is a list of CLI calls ``(command, config, cli_seed)``. Configs are
drawn from ``random.Random`` keyed by (workload, seed, job index), so the
same seed gives the same jobs and the program only sees the generated JSON.
This module imports nothing from numpy, so that set-up timing starts at the
import of holopulse.
"""
from __future__ import annotations

import csv
import math
import random
import re
from pathlib import Path

# Problem kinds: a wrong output, or a result the program itself flagged as
# not converged (CLI exit code 3, or converged=False in its output).
WRONG = "wrong"
UNCONVERGED = "unconverged"

SWEEP_EPS = 0.2
# 1 - fidelity comes out as low as -1.6e-12 at epsilon = 0: the fidelity of a
# propagator that is unitary only to ~1e-12 can round above 1. The [0, 1]
# check allows the unitarity tolerance that qcore's fidelity itself accepts.
ROUNDING = 1e-9


def _gate(rng):
    """A holonomic gate with theta in [0, pi], phi in [-pi, pi), gamma in [0.05, pi]."""
    return {"theta": rng.uniform(0.0, math.pi),
            "phi": rng.uniform(-math.pi, math.pi),
            "gamma": rng.uniform(0.05, math.pi)}


def _sweep_job(rng):
    return [("sweep", {
        "experiment": "sweep", "mode": "direct", "gate": _gate(rng),
        "schemes": [{"scheme": "holonomic", "eta": 0.0},
                    {"scheme": "holonomic", "eta": 1.0}],
        "epsilon_grid": {"min": -SWEEP_EPS, "max": SWEEP_EPS, "points": 21},
        "n_samples": 1024, "steps": 2048}, 0)]


def _rb_job(rng):
    return [("rb", {
        "experiment": "rb", "interleaved": "T", "eta": 0.2,
        "noise": {"gamma_1a": 100.0, "gamma_0a": 10.0},
        "lengths": [1, 2, 4, 8, 16, 32], "sequences": 10, "shots": 1000,
        "n_samples": 256, "steps": 512}, rng.randrange(2 ** 31))]


def _verify_job(rng):
    # QPT from exact probabilities: with shot noise the MLE stops unconverged
    # on about one drawn gate in ten (see mle_panel and NOTES.md)
    return [("sideband", {
        "experiment": "sideband", "gamma": rng.uniform(0.05, math.pi), "eta": 0.2,
        "n_samples": 512, "steps": 4096, "n_max": 5}, 0),
        ("qpt", {"experiment": "qpt", "gate": _gate(rng), "analytic": True}, 0)]


def mle_panel(seed: int, size: int):
    """QPT calls with 10 000 shots on drawn gates: the MLE under shot noise.

    Run only by a traced run, outside the timed jobs, so that its
    convergence is measured without counting as the workload's operations.
    """
    rng = random.Random(f"mle_panel:{seed}")
    return [("qpt", {"experiment": "qpt", "gate": _gate(rng), "shots": 10000},
             rng.randrange(2 ** 31)) for _ in range(size)]


_DRAW = {"sweep": _sweep_job, "rb_dephasing": _rb_job, "verify": _verify_job}
WORKLOADS = tuple(_DRAW)
# steps the CLI uses when a config leaves them out (qpt default)
_DEFAULT_STEPS = {"qpt": 8192}


def draw_job(workload: str, seed: int, index: int):
    """The index-th job of a workload for one benchmark seed."""
    return _DRAW[workload](random.Random(f"{workload}:{seed}:{index}"))


def probe_job(job, steps_factor: int):
    """The same job with shots off and `steps_factor` times the steps."""
    calls = []
    for command, cfg, cli_seed in job:
        cfg = dict(cfg)
        cfg["steps"] = steps_factor * cfg.get("steps", _DEFAULT_STEPS.get(command))
        if command == "rb":
            cfg["shots"] = None
        elif command == "qpt":
            cfg.pop("shots", None)
            cfg["analytic"] = True
        calls.append((command, cfg, cli_seed))
    return calls


# --- reading outputs --------------------------------------------------------

def _rows(path: Path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _fit_p(path: Path):
    """The decay parameter p of an RB fit summary, or None if it does not parse."""
    match = re.search(r'^  "p": ([-+0-9.eE]+),$', path.read_text(encoding="utf-8"), re.M)
    return float(match.group(1)) if match else None


def _wrapped(angle: float) -> float:
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


# --- output checks ------------------------------------------------------------

def _check_sweep(job, outs):
    rows = _rows(outs[0] / "sweep.csv")
    infid = {(float(r["epsilon"]), r["scheme"]): float(r["infidelity_mean"]) for r in rows}
    problems = [(WRONG, f"infidelity {v} outside [0, 1] at {k}")
                for k, v in infid.items() if not -ROUNDING <= v <= 1.0]
    # at epsilon = 0 each scheme must hit its target gate (measured: <= 1.1e-12)
    eps0 = min((eps for eps, _ in infid), key=abs)
    for label in ("holonomic:eta=0", "holonomic:eta=1"):
        value = infid.get((eps0, label))
        if value is None or abs(value) > ROUNDING:
            problems.append((WRONG, f"{label} misses its target at epsilon={eps0}: "
                                    f"infidelity {value}"))
    for eps in (-SWEEP_EPS, SWEEP_EPS):
        eta0 = infid.get((eps, "holonomic:eta=0"))
        eta1 = infid.get((eps, "holonomic:eta=1"))
        if eta0 is None or eta1 is None or not eta1 < eta0:
            problems.append((WRONG, f"eta=1 not below eta=0 at epsilon={eps}: "
                                    f"{eta1} vs {eta0}"))
    return problems


def _check_rb(job, outs):
    problems = []
    for name in ("rb_reference_fit.txt", "rb_interleaved_fit.txt"):
        p = _fit_p(outs[0] / name)
        if p is None or not 0.0 < p <= 1.0:
            problems.append((WRONG, f"{name}: p = {p} outside (0, 1]"))
            continue
        f_ave = 1.0 - (1.0 - p) / 2.0
        if not 0.98 <= f_ave <= 1.0:
            problems.append((WRONG, f"{name}: F_ave = {f_ave} outside [0.98, 1]"))
    return problems


def _check_verify(job, outs):
    problems = []
    gamma = job[0][1]["gamma"]
    sb = _rows(outs[0] / "sideband_report.csv")[0]
    if not float(sb["subspace_fidelity"]) >= 0.999:
        problems.append((WRONG, f"sideband fidelity {sb['subspace_fidelity']} < 0.999"))
    if not float(sb["leakage"]) < 1e-3:
        problems.append((WRONG, f"sideband leakage {sb['leakage']} >= 1e-3"))
    dphase = abs(_wrapped(float(sb["conditional_phase_rad"]) - gamma))
    if not dphase < 1e-6:
        problems.append((WRONG, f"conditional phase off gamma by {dphase}"))
    qpt = _rows(outs[1] / "qpt_summary.csv")[0]
    if not float(qpt["process_fidelity"]) >= 0.99:
        problems.append((WRONG, f"QPT process fidelity {qpt['process_fidelity']} < 0.99"))
    if qpt["converged"] != "True":
        problems.append((UNCONVERGED, f"QPT MLE stopped after {qpt['iterations']} iterations"))
    return problems


_CHECKS = {"sweep": _check_sweep, "rb_dephasing": _check_rb, "verify": _check_verify}


def check_outputs(workload: str, job, outs) -> list:
    """(kind, message) for each problem in one job's outputs."""
    return _CHECKS[workload](job, outs)


# --- numeric outputs compared by the accuracy probe ----------------------------

def _numbers(path: Path, columns, keep=lambda row: True):
    return [float(r[c]) for r in _rows(path) if keep(r) for c in columns]


def numeric_outputs(workload: str, outs) -> list:
    """The physical numbers a job reports, in a fixed order."""
    if workload == "sweep":
        return _numbers(outs[0] / "sweep.csv", ["infidelity_mean"])
    if workload == "rb_dephasing":
        return (_numbers(outs[0] / "rb_reference.csv", ["mean_fidelity", "std"])
                + _numbers(outs[0] / "rb_interleaved.csv", ["mean_fidelity", "std"]))
    return (_numbers(outs[0] / "sideband_report.csv",
                     ["conditional_phase_rad", "subspace_fidelity", "leakage"])
            + _numbers(outs[1] / "qpt_summary.csv", ["process_fidelity"])
            + _numbers(outs[1] / "chi.csv", ["re", "im"],
                       lambda r: r["component"] == "estimated"))
