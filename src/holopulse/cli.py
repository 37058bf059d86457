"""Config-driven command-line runner.

Subcommands: synth | propagate | qpt | rb | sweep | sideband | export-awg.
Each takes a JSON config file (unknown keys are errors), an optional seed
override, and an output directory. Every output file starts with header
lines echoing the full effective config, and a manifest.txt lists the files
written, so runs are reproducible byte-for-byte given (config, seed).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .engine import NoiseModel, propagate_unitary
from .gates import target_unitary
from .paths import DYNAMICAL, HOLONOMIC, dynamical_gamma
from .pulses import (OMEGA_MAX_DEFAULT, GateSpec, compute_duration, export_tones,
                     named_gate, synthesize)
from .qcore import fidelity_qubit_subspace, leakage
from .rbench import GateCache, RBConfig, curve_to_csv, fit_summary, run_rb
from .tomo import (chi_of_channel, exact_records, mle_process,
                   process_fidelity, propagator_channel, records_to_csv,
                   simulate_counts, unitary_channel)

_COMMON_KEYS = {"experiment", "seed", "omega_max", "n_samples", "steps", "noise", "gate"}
_ALLOWED_KEYS = {
    "synth": _COMMON_KEYS,
    "export-awg": _COMMON_KEYS,
    "propagate": _COMMON_KEYS | {"epsilon"},
    "qpt": _COMMON_KEYS | {"shots", "analytic"},
    "rb": (_COMMON_KEYS - {"gate"}) | {"lengths", "sequences", "shots", "interleaved",
                                       "eta", "scheme"},
    "sweep": _COMMON_KEYS | {"epsilon_grid", "schemes", "realizations", "mode",
                             "lengths", "sequences"},
    "sideband": {"experiment", "seed", "gamma", "eta", "omega_eff_max", "n_max",
                 "eta_ld", "n_samples", "steps"},
}
_NOISE_KEYS = {"epsilon", "gamma_1a", "gamma_0a", "prep_error",
               "detection_error_bright", "detection_error_dark"}


class ConfigError(ValueError):
    pass


def load_config(path, kind_override=None) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    kind = cfg.get("experiment", kind_override)
    if kind is None:
        raise ConfigError("config field 'experiment' is required")
    if kind not in _ALLOWED_KEYS:
        raise ConfigError(f"unknown experiment kind {kind!r}; "
                          f"expected one of {sorted(_ALLOWED_KEYS)}")
    unknown = set(cfg) - _ALLOWED_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown config keys for {kind!r}: {sorted(unknown)}")
    cfg["experiment"] = kind
    return cfg


def parse_gate(cfg, key="gate") -> GateSpec:
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"config field '{key}' is required")
    if isinstance(raw, str):
        raw = {"name": raw, "eta": cfg.get("eta", 0.0)}
    if not isinstance(raw, dict):
        raise ConfigError(f"'{key}' must be a gate name or an object")
    unknown = set(raw) - {"name", "theta", "phi", "gamma", "eta", "scheme"}
    if unknown:
        raise ConfigError(f"unknown gate fields: {sorted(unknown)}")
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
    except ValueError as exc:
        raise ConfigError(f"invalid gate: {exc}")


def parse_noise(cfg) -> NoiseModel:
    raw = cfg.get("noise", {})
    unknown = set(raw) - _NOISE_KEYS
    if unknown:
        raise ConfigError(f"unknown noise fields: {sorted(unknown)}")
    try:
        return NoiseModel(**{k: float(v) for k, v in raw.items()})
    except ValueError as exc:
        raise ConfigError(f"invalid noise model: {exc}")


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


def _run_synth(cfg, seed, writer: OutputWriter):
    spec = parse_gate(cfg)
    omega_max = float(cfg.get("omega_max", OMEGA_MAX_DEFAULT))
    sched = synthesize(spec, omega_max, int(cfg.get("n_samples", 4096)))
    tone_path = writer.out_dir / "tones.csv"
    export_tones(sched, tone_path)
    writer.files.append("tones.csv")
    writer.write("synth_summary.csv",
                 "duration_s,omega_max_rad_s,n_samples\n"
                 "%.17g,%.17g,%d\n" % (sched.duration, omega_max, sched.n_samples))
    return 0


def _run_propagate(cfg, seed, writer: OutputWriter):
    spec = parse_gate(cfg)
    noise = parse_noise(cfg)
    eps = float(cfg.get("epsilon", noise.epsilon))
    omega_max = float(cfg.get("omega_max", OMEGA_MAX_DEFAULT))
    sched = synthesize(spec, omega_max, int(cfg.get("n_samples", 4096)))
    res = propagate_unitary(sched, eps, int(cfg.get("steps", 8192)))
    fid = fidelity_qubit_subspace(res.unitary, target_unitary(spec))
    writer.write("propagate.csv",
                 "epsilon,fidelity,infidelity,leakage,truncation_error,converged\n"
                 "%.17g,%.17g,%.17g,%.17g,%.17g,%s\n" % (
                     eps, fid, 1.0 - fid, leakage(res.unitary),
                     res.truncation_error, res.converged))
    return 0 if res.converged else 3


def _run_qpt(cfg, seed, writer: OutputWriter):
    spec = parse_gate(cfg)
    noise = parse_noise(cfg)
    omega_max = float(cfg.get("omega_max", OMEGA_MAX_DEFAULT))
    sched = synthesize(spec, omega_max, int(cfg.get("n_samples", 4096)))
    res = propagate_unitary(sched, noise.epsilon, int(cfg.get("steps", 8192)))
    channel = propagator_channel(res.unitary)
    if bool(cfg.get("analytic", False)):
        records = exact_records(channel, noise)
    else:
        records = simulate_counts(channel, noise, int(cfg.get("shots", 10000)),
                                  seed=seed)
    writer.write("counts.csv", records_to_csv(records))
    mle = mle_process(records)
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
                 "process_fidelity,iterations,converged\n"
                 "%.17g,%d,%s\n" % (fatt, mle.iterations, mle.converged))
    return 0 if mle.converged else 3


def _rb_config(cfg, seed, interleaved=None) -> RBConfig:
    noise = parse_noise(cfg)
    try:
        return RBConfig(
            lengths=tuple(int(m) for m in cfg.get("lengths", (1, 2, 4, 8, 12, 16, 24, 32))),
            n_sequences=int(cfg.get("sequences", 20)),
            shots=None if cfg.get("shots") is None else int(cfg["shots"]),
            seed=seed,
            interleaved=interleaved,
            noise=noise,
            eta=float(cfg.get("eta", 0.0)),
            scheme=cfg.get("scheme", HOLONOMIC),
            omega_max=float(cfg.get("omega_max", OMEGA_MAX_DEFAULT)),
            n_samples=int(cfg.get("n_samples", 1024)),
            steps=int(cfg.get("steps", 2048)))
    except ValueError as exc:
        raise ConfigError(f"invalid RB config: {exc}")


def _rb_configs(cfg, seed):
    """(reference config, interleaved config or None)."""
    if cfg.get("interleaved") is None:
        return _rb_config(cfg, seed), None
    gate = parse_gate(cfg, key="interleaved")
    return _rb_config(cfg, seed), _rb_config(cfg, seed, interleaved=gate)


def _run_rb(cfg, seed, writer: OutputWriter):
    ref_cfg, int_cfg = _rb_configs(cfg, seed)
    cache = GateCache()     # the interleaved run reuses the reference Cliffords
    ref = run_rb(ref_cfg, cache)
    writer.write("rb_reference.csv", curve_to_csv(ref, ref_cfg.n_sequences))
    writer.write("rb_reference_fit.txt", fit_summary(ref))
    if int_cfg is not None:
        inter = run_rb(int_cfg, cache)
        writer.write("rb_interleaved.csv", curve_to_csv(inter, int_cfg.n_sequences))
        writer.write("rb_interleaved_fit.txt", fit_summary(inter, p_ref=ref.p))
    return 0


def _parse_sweep_schemes(cfg):
    raw = cfg.get("schemes", [{"scheme": HOLONOMIC, "eta": 0.0},
                              {"scheme": HOLONOMIC, "eta": 1.0}])
    out = []
    for item in raw:
        unknown = set(item) - {"scheme", "eta"}
        if unknown:
            raise ConfigError(f"unknown sweep scheme fields: {sorted(unknown)}")
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
        unknown = set(raw) - {"min", "max", "points"}
        if unknown:
            raise ConfigError(f"unknown epsilon_grid fields: {sorted(unknown)}")
        grid = np.linspace(float(raw.get("min", -0.2)), float(raw.get("max", 0.2)),
                           int(raw.get("points", 41)))
    if np.any(np.abs(grid) > 0.5):
        raise ConfigError("epsilon grid must stay within [-0.5, 0.5]")
    return grid


def run_sweep(cfg, seed):
    """Robustness sweep rows (epsilon, scheme_label, infidelity_mean, std)."""
    base = parse_gate(cfg)
    grid = _sweep_grid(cfg)
    schemes = _parse_sweep_schemes(cfg)
    mode = cfg.get("mode", "direct")
    if mode not in ("direct", "rb"):
        raise ConfigError(f"sweep mode must be 'direct' or 'rb', got {mode!r}")
    omega_max = float(cfg.get("omega_max", OMEGA_MAX_DEFAULT))
    n_samples = int(cfg.get("n_samples", 1024))
    steps = int(cfg.get("steps", 2048))
    if mode == "rb":
        try:
            rb_cfg = RBConfig(
                lengths=tuple(int(m) for m in cfg.get("lengths", (1, 2, 4, 8, 12, 16))),
                n_sequences=int(cfg.get("realizations", cfg.get("sequences", 20))),
                seed=seed, omega_max=omega_max, n_samples=n_samples, steps=steps,
                noise=parse_noise(cfg))
        except ValueError as exc:
            raise ConfigError(f"invalid RB config: {exc}")
    rows = []
    for scheme, eta in schemes:
        if scheme == DYNAMICAL:
            spec = GateSpec.dynamical(base.theta, base.phi, eta)
        else:
            spec = GateSpec(theta=base.theta, phi=base.phi, gamma=base.gamma,
                            eta=eta, scheme=scheme)
        label = f"{scheme}:eta={eta:g}"
        target = target_unitary(spec)
        sched = synthesize(spec, omega_max, n_samples)
        for eps in grid:
            if mode == "direct":
                res = propagate_unitary(sched, float(eps), steps, check=False)
                infid = 1.0 - fidelity_qubit_subspace(res.unitary, target)
                rows.append((float(eps), label, infid, 0.0))
            else:
                noise = replace(rb_cfg.noise, epsilon=float(eps))
                curve = run_rb(replace(rb_cfg, eta=eta, scheme=scheme, noise=noise))
                perr = float(np.sqrt(max(curve.cov[1, 1], 0.0)))
                rows.append((float(eps), label, 1.0 - curve.f_ave, perr / 2.0))
    return rows


def _run_sweep_cmd(cfg, seed, writer: OutputWriter):
    rows = run_sweep(cfg, seed)
    body = ["epsilon,scheme,infidelity_mean,infidelity_std"]
    for eps, label, infid, std in rows:
        body.append("%.17g,%s,%.17g,%.17g" % (eps, label, infid, std))
    writer.write("sweep.csv", "\n".join(body) + "\n")
    return 0


def _sideband_system(cfg):
    from .sideband import SidebandSystem
    try:
        return SidebandSystem(n_max=int(cfg.get("n_max", 5)),
                              eta_ld=float(cfg.get("eta_ld", 0.1)))
    except ValueError as exc:
        raise ConfigError(f"invalid sideband system: {exc}")


def _run_sideband(cfg, seed, writer: OutputWriter):
    from .sideband import synthesize_cphase, verify_full_model
    gamma = float(cfg.get("gamma", np.pi))
    eta = float(cfg.get("eta", 0.2))
    omega_eff_max = float(cfg.get("omega_eff_max", OMEGA_MAX_DEFAULT))
    sched = synthesize_cphase(gamma, omega_eff_max, eta,
                              int(cfg.get("n_samples", 4096)))
    report = verify_full_model(sched, _sideband_system(cfg),
                               int(cfg.get("steps", 8192)))
    writer.write("sideband_report.csv", report.to_text())
    return 0


_RUNNERS = {
    "synth": _run_synth,
    "export-awg": _run_synth,
    "propagate": _run_propagate,
    "qpt": _run_qpt,
    "rb": _run_rb,
    "sweep": _run_sweep_cmd,
    "sideband": _run_sideband,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holopulse",
        description="Compile and simulate robust holonomic qutrit gates.")
    parser.add_argument("command", choices=sorted(_RUNNERS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--mode", choices=("direct", "rb"), default=None,
                        help="sweep fidelity mode override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, kind_override=args.command)
        if cfg["experiment"] != args.command:
            raise ConfigError(
                f"config is for {cfg['experiment']!r} but command is {args.command!r}")
        if args.mode is not None:
            if args.command != "sweep":
                raise ConfigError("--mode only applies to the sweep command")
            cfg["mode"] = args.mode
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        # reject a bad sideband system or RB config before --out is created
        if args.command == "sideband":
            _sideband_system(cfg)
        elif args.command == "rb":
            _rb_configs(cfg, seed)
        writer = OutputWriter(args.out, cfg, seed)
        status = _RUNNERS[args.command](cfg, seed, writer)
        writer.finish()
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
