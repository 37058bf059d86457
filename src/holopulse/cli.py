"""Config-driven command-line runner.

Subcommands: synth | propagate | qpt | rb | sweep | sideband | export-awg.
Each takes a JSON config file, an optional seed override, and an output
directory. A command accepts only the config keys it reads, and parses the
whole config before it creates the output directory. Every output file
starts with header lines echoing the full effective config, except
tones.csv, which carries the tone-descriptor header that
`pulses.parse_tones` reads; a manifest.txt lists the files written, so runs
are reproducible byte-for-byte given (config, seed). Exit codes: 0 success;
2 "config error", nothing written; 3 a result did not converge or an RB fit
failed (manifest.txt lists the files written before that).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, sideband
from .engine import DEFAULT_STEPS, NoiseModel, check_steps, propagate_unitary
from .gates import target_unitary
from .paths import DYNAMICAL, HOLONOMIC
from .pulses import OMEGA_MAX_DEFAULT, GateSpec, export_tones, named_gate, synthesize
from .qcore import fidelity_qubit_subspace, leakage
from .rbench import FitError, GateCache, RBConfig, curve_to_csv, fit_summary, run_rb
from .tomo import (chi_of_channel, exact_records, mle_process,
                   process_fidelity, propagator_channel, records_to_csv,
                   simulate_counts, unitary_channel)

_ALLOWED_KEYS = {
    "synth": {"gate", "omega_max", "n_samples"},
    "export-awg": {"gate", "omega_max", "n_samples"},
    "propagate": {"gate", "omega_max", "n_samples", "steps", "noise"},
    "qpt": {"gate", "omega_max", "n_samples", "steps", "noise", "shots", "analytic"},
    "rb": {"omega_max", "n_samples", "steps", "noise", "lengths", "sequences", "shots",
           "interleaved", "eta", "scheme"},
    "sweep": {"gate", "omega_max", "n_samples", "steps", "noise", "epsilon_grid",
              "schemes", "mode", "lengths", "sequences"},
    "sideband": {"gamma", "eta", "omega_eff_max", "n_max", "eta_ld", "n_samples", "steps"},
}
_NOISE_KEYS = {"epsilon", "gamma_1a", "gamma_0a", "prep_error",
               "detection_error_bright", "detection_error_dark"}
# Upper bounds on the sizes a config may ask for, checked at parse time. A
# larger value overflows (shots) or asks for a run of no practical length.
# None of them sizes a propagation's memory: the propagators make and reduce
# their steps one block at a time (engine._CLOSED_BLOCK, engine._OPEN_BLOCK),
# so a propagation holds about 40 MB at most, also at MAX_STEPS or with
# MAX_GRID_POINTS epsilon points.
MAX_STEPS = 2 ** 18
MAX_N_SAMPLES = 2 ** 18
MAX_SHOTS = 10 ** 9
MAX_SEQUENCES = 10 ** 4
MAX_LENGTH = 10 ** 4
MAX_GRID_POINTS = 10 ** 4


class ConfigError(ValueError):
    pass


def _object(raw, allowed, what) -> dict:
    """`raw` as a JSON object whose keys all lie in `allowed`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what} fields {sorted(unknown)}; "
                          f"accepted: {sorted(allowed)}")
    return raw


def _size(value, name, bound) -> int:
    """`value` as an int no larger than `bound`."""
    size = int(value)
    if size > bound:
        raise ConfigError(f"{name} must be <= {bound}, got {value!r}")
    return size


def load_config(path, kind_override=None) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    kind = cfg.get("experiment", kind_override)
    if kind is None:
        raise ConfigError("config field 'experiment' is required")
    if kind not in _ALLOWED_KEYS:
        raise ConfigError(f"unknown experiment kind {kind!r}; "
                          f"expected one of {sorted(_ALLOWED_KEYS)}")
    _object(cfg, _ALLOWED_KEYS[kind] | {"experiment", "seed"}, f"{kind!r} config")
    cfg["experiment"] = kind
    return cfg


def parse_gate(cfg, key="gate") -> GateSpec:
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"config field '{key}' is required")
    if isinstance(raw, str):
        raw = {"name": raw, "eta": cfg.get("eta", 0.0)}
    raw = _object(raw, {"name", "theta", "phi", "gamma", "eta", "scheme"}, "gate")
    try:
        eta = float(raw.get("eta", 0.0))
        scheme = raw.get("scheme", HOLONOMIC)
        if "name" in raw:
            return named_gate(raw["name"], eta=eta, scheme=scheme)
        if scheme == DYNAMICAL:
            return GateSpec.dynamical(float(raw["theta"]), float(raw["phi"]), eta)
        return GateSpec(theta=float(raw["theta"]), phi=float(raw["phi"]),
                        gamma=float(raw["gamma"]), eta=eta, scheme=scheme)
    except KeyError as exc:
        raise ConfigError(f"gate object missing field {exc}")


def parse_noise(cfg, fields=_NOISE_KEYS) -> NoiseModel:
    """The config's noise model; `fields` are the ones the command models."""
    raw = _object(cfg.get("noise", {}), fields, "noise")
    try:
        return NoiseModel(**{k: float(v) for k, v in raw.items()})
    except ValueError as exc:
        raise ConfigError(f"invalid noise model: {exc}")


def _schedule(cfg, synth, n_samples, steps=None, omega_key="omega_max"):
    """(synth(omega_max, n_samples), steps through the steps guard, or None)."""
    sched = synth(float(cfg.get(omega_key, OMEGA_MAX_DEFAULT)),
                  _size(cfg.get("n_samples", n_samples), "n_samples", MAX_N_SAMPLES))
    if steps is not None:
        steps = _size(cfg.get("steps", steps), "steps", MAX_STEPS)
        check_steps(steps, sched.n_samples)
    return sched, steps


def _header(cfg: dict, seed) -> str:
    lines = [f"# artifact_version = {__version__}"]
    flat = dict(cfg)
    if seed is not None:
        flat["seed"] = seed
    for key in sorted(flat):
        lines.append(f"# {key} = {json.dumps(flat[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


class OutputWriter:
    def __init__(self, out_dir: Path, cfg: dict, seed):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.header = _header(cfg, seed)
        self.files = []

    def write(self, name: str, body: str) -> Path:
        path = self.out_dir / name
        path.write_text(self.header + body, encoding="utf-8")
        self.files.append(name)
        return path

    def finish(self):
        manifest = self.header + "\n".join(self.files) + "\n"
        (self.out_dir / "manifest.txt").write_text(manifest, encoding="utf-8")


# Each command parses its config and returns run(writer) -> exit status.

def _synth(cfg, seed):
    sched, _ = _schedule(cfg, partial(synthesize, parse_gate(cfg)), 4096)

    def run(writer: OutputWriter):
        export_tones(sched, writer.out_dir / "tones.csv")
        writer.files.append("tones.csv")
        writer.write("synth_summary.csv", "duration_s,omega_max_rad_s,n_samples\n"
                     "%.17g,%.17g,%d\n" % (sched.duration, sched.omega_max, sched.n_samples))
        return 0
    return run


def _propagate(cfg, seed):
    spec = parse_gate(cfg)
    eps = parse_noise(cfg, {"epsilon"}).epsilon
    sched, steps = _schedule(cfg, partial(synthesize, spec), 4096, DEFAULT_STEPS)

    def run(writer: OutputWriter):
        res = propagate_unitary(sched, eps, steps)
        fid = fidelity_qubit_subspace(res.unitary, target_unitary(spec))
        writer.write("propagate.csv",
                     "epsilon,fidelity,infidelity,leakage,truncation_error,converged\n"
                     "%.17g,%.17g,%.17g,%.17g,%.17g,%s\n" % (
                         eps, fid, 1.0 - fid, leakage(res.unitary),
                         res.truncation_error, res.converged))
        return 0 if res.converged else 3
    return run


def _qpt(cfg, seed):
    spec = parse_gate(cfg)
    noise = parse_noise(cfg, _NOISE_KEYS - {"gamma_1a", "gamma_0a"})
    sched, steps = _schedule(cfg, partial(synthesize, spec), 4096, DEFAULT_STEPS)
    analytic = bool(cfg.get("analytic", False))
    if analytic and "shots" in cfg:
        raise ConfigError("'shots' is not read when 'analytic' is true")
    shots = None if analytic else _size(cfg.get("shots", 10000), "shots", MAX_SHOTS)
    if shots is not None and shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")

    def run(writer: OutputWriter):
        res = propagate_unitary(sched, noise.epsilon, steps)
        choi = propagator_channel(res.unitary)
        if shots is None:
            counts = exact_records(choi, noise)
        else:
            counts = simulate_counts(choi, noise, shots, seed=seed)
        writer.write("counts.csv", records_to_csv(counts))
        mle = mle_process(counts)
        ideal = chi_of_channel(unitary_channel(target_unitary(spec)))
        fatt = process_fidelity(mle.chi, ideal)
        body = ["component,m,n,re,im"]
        for label, chi in (("estimated", mle.chi), ("ideal", ideal)):
            for m in range(4):
                for n in range(4):
                    body.append("%s,%d,%d,%.17g,%.17g" % (
                        label, m, n, chi[m, n].real, chi[m, n].imag))
        writer.write("chi.csv", "\n".join(body) + "\n")
        writer.write("qpt_summary.csv",
                     "process_fidelity,iterations,converged,truncation_error\n"
                     "%.17g,%d,%s,%.17g\n" % (fatt, mle.iterations, mle.converged,
                                             res.truncation_error))
        return 0 if mle.converged and res.converged else 3
    return run


def _rb_config(cfg, seed, noise, lengths=RBConfig.lengths) -> RBConfig:
    """The config's RBConfig; a key it omits takes RBConfig's default, and
    `lengths` the given ones."""
    lengths = cfg.get("lengths", list(lengths))
    if not isinstance(lengths, list):
        raise ConfigError(f"'lengths' must be a list of sequence lengths, got {lengths!r}")
    return RBConfig(
        lengths=tuple(_size(m, "a sequence length", MAX_LENGTH) for m in lengths),
        n_sequences=_size(cfg.get("sequences", RBConfig.n_sequences), "sequences",
                          MAX_SEQUENCES),
        shots=None if cfg.get("shots") is None else _size(cfg["shots"], "shots", MAX_SHOTS),
        seed=seed, noise=noise, eta=float(cfg.get("eta", RBConfig.eta)),
        scheme=cfg.get("scheme", RBConfig.scheme),
        omega_max=float(cfg.get("omega_max", RBConfig.omega_max)),
        n_samples=_size(cfg.get("n_samples", RBConfig.n_samples), "n_samples",
                        MAX_N_SAMPLES),
        steps=_size(cfg.get("steps", RBConfig.steps), "steps", MAX_STEPS))


def _rb(cfg, seed):
    ref_cfg = _rb_config(cfg, seed, parse_noise(cfg))
    int_cfg = (None if cfg.get("interleaved") is None
               else replace(ref_cfg, interleaved=parse_gate(cfg, key="interleaved")))

    def run(writer: OutputWriter):
        cache = GateCache()     # the interleaved run reuses the reference Cliffords
        ref = run_rb(ref_cfg, cache)
        writer.write("rb_reference.csv", curve_to_csv(ref, ref_cfg.n_sequences))
        writer.write("rb_reference_fit.txt", fit_summary(ref))
        if int_cfg is not None:
            inter = run_rb(int_cfg, cache)
            writer.write("rb_interleaved.csv", curve_to_csv(inter, int_cfg.n_sequences))
            writer.write("rb_interleaved_fit.txt", fit_summary(inter, p_ref=ref.p))
        return 0
    return run


def _parse_sweep_schemes(cfg):
    raw = cfg.get("schemes", [{"scheme": HOLONOMIC, "eta": 0.0},
                              {"scheme": HOLONOMIC, "eta": 1.0}])
    out = []
    for item in raw:
        item = _object(item, {"scheme", "eta"}, "sweep scheme")
        scheme = item.get("scheme", HOLONOMIC)
        if scheme not in (HOLONOMIC, DYNAMICAL):
            raise ConfigError(f"unknown scheme {scheme!r}")
        out.append((scheme, float(item.get("eta", 0.0))))
    if not 2 <= len(out) <= 3:
        raise ConfigError("sweep needs two or three schemes")
    return out


def _sweep_grid(cfg):
    raw = cfg.get("epsilon_grid", {"min": -0.2, "max": 0.2, "points": 41})
    if isinstance(raw, list):
        grid = np.asarray([float(x) for x in raw])
    else:
        raw = _object(raw, {"min", "max", "points"}, "epsilon_grid")
        grid = np.linspace(float(raw.get("min", -0.2)), float(raw.get("max", 0.2)),
                           _size(raw.get("points", 41), "epsilon_grid points",
                                 MAX_GRID_POINTS))
    if grid.size == 0:
        raise ConfigError("epsilon grid is empty")
    if not np.all(np.abs(grid) <= 0.5):
        raise ConfigError("epsilon grid must stay within [-0.5, 0.5]")
    return grid


def _direct_points(sched, steps, target, grid):
    """(infidelity, std, truncation_error, converged) per epsilon, from one
    batched propagation with the truncation check."""
    res = propagate_unitary(sched, grid, steps)
    return [(1.0 - fidelity_qubit_subspace(u, target), 0.0, float(err), bool(ok))
            for u, err, ok in zip(res.unitary, res.truncation_error, res.converged)]


def _rb_points(rb_cfg, grid):
    """(infidelity, std, None, True) per epsilon: RB propagates unchecked."""
    points = []
    for eps in grid:
        curve = run_rb(replace(rb_cfg, noise=replace(rb_cfg.noise, epsilon=float(eps))))
        perr = float(np.sqrt(max(curve.cov[1, 1], 0.0)))
        points.append((1.0 - curve.f_ave, perr / 2.0, None, True))
    return points


def _sweep_rows(cfg, seed):
    """Parse a sweep config into rows() -> [(epsilon, label, infidelity_mean,
    std, truncation_error, converged)]; truncation_error is None in rb mode."""
    grid = _sweep_grid(cfg)
    mode = cfg.get("mode", "direct")
    if mode == "rb":    # the grid sets epsilon; RB averages over the Cliffords
        _object(cfg, _ALLOWED_KEYS["sweep"] - {"gate"} | {"experiment", "seed"},
                "rb-mode sweep config")
        rb_cfg = _rb_config(cfg, seed, parse_noise(cfg, _NOISE_KEYS - {"epsilon"}),
                            lengths=(1, 2, 4, 8, 12, 16))
    elif mode != "direct":
        raise ConfigError(f"sweep mode must be 'direct' or 'rb', got {mode!r}")
    elif set(cfg) & {"noise", "lengths", "sequences"}:
        raise ConfigError("a direct sweep reads none of 'noise', 'lengths', 'sequences'")
    elif isinstance(cfg.get("gate"), dict) and {"eta", "scheme"} & set(cfg["gate"]):
        raise ConfigError("a direct sweep reads only theta, phi and gamma of its gate; "
                          "set 'eta' and 'scheme' in 'schemes'")
    else:
        base = parse_gate(cfg)
    points = []
    for scheme, eta in _parse_sweep_schemes(cfg):
        if mode == "rb":
            point = partial(_rb_points, replace(rb_cfg, eta=eta, scheme=scheme))
        else:
            if scheme == DYNAMICAL:
                spec = GateSpec.dynamical(base.theta, base.phi, eta)
            else:
                spec = GateSpec(theta=base.theta, phi=base.phi, gamma=base.gamma,
                                eta=eta, scheme=scheme)
            sched, steps = _schedule(cfg, partial(synthesize, spec), 1024, 2048)
            point = partial(_direct_points, sched, steps, target_unitary(spec))
        points.append((f"{scheme}:eta={eta:g}", point))

    def rows():
        return [(float(eps), label, *result)
                for label, point in points for eps, result in zip(grid, point(grid))]
    return rows


def run_sweep(cfg, seed):
    """Robustness sweep rows (epsilon, scheme_label, infidelity_mean, std)."""
    return [row[:4] for row in _sweep_rows(cfg, seed)()]


def _sweep(cfg, seed):
    rows = _sweep_rows(cfg, seed)
    checked = cfg.get("mode", "direct") == "direct"

    def run(writer: OutputWriter):
        table = rows()
        body = ["epsilon,scheme,infidelity_mean,infidelity_std"
                + (",truncation_error" if checked else "")]
        for eps, label, mean, std, err, _ in table:
            body.append("%.17g,%s,%.17g,%.17g" % (eps, label, mean, std)
                        + (",%.17g" % err if checked else ""))
        writer.write("sweep.csv", "\n".join(body) + "\n")
        return 0 if all(row[5] for row in table) else 3
    return run


def _sideband(cfg, seed):
    gamma = float(cfg.get("gamma", np.pi))
    eta = float(cfg.get("eta", 0.2))
    system = sideband.SidebandSystem(n_max=int(cfg.get("n_max", 5)),
                                     eta_ld=float(cfg.get("eta_ld", 0.1)))
    sched, steps = _schedule(
        cfg, lambda omega, n: sideband.synthesize_cphase(gamma, omega, eta, n),
        4096, DEFAULT_STEPS, omega_key="omega_eff_max")

    def run(writer: OutputWriter):
        report = sideband.verify_full_model(sched, system, steps)
        writer.write("sideband_report.csv", report.to_text())
        return 0
    return run


_COMMANDS = {
    "synth": _synth,
    "export-awg": _synth,
    "propagate": _propagate,
    "qpt": _qpt,
    "rb": _rb,
    "sweep": _sweep,
    "sideband": _sideband,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holopulse",
        description="Compile and simulate robust holonomic qutrit gates.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, kind_override=args.command)
        if cfg["experiment"] != args.command:
            raise ConfigError(
                f"config is for {cfg['experiment']!r} but command is {args.command!r}")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        run = _COMMANDS[args.command](cfg, seed)
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    writer = OutputWriter(args.out, cfg, seed)
    try:
        status = run(writer)
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        status = 3
    writer.finish()
    return status


if __name__ == "__main__":
    sys.exit(main())
