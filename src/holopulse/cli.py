"""Config-driven command-line runner.

Subcommands: synth | propagate | qpt | rb | sweep | sideband. Each takes a JSON
config file, an optional seed override, and an output directory. A command
accepts exactly the config keys its parse reads, and parses the whole config
before it creates the output directory; omega_max is read by synth and by rb or
an rb-mode sweep under dephasing; an rb-mode sweep reports `rbench.decay_rate`,
which reads no sequences or SPAM. Every output file starts with header lines
echoing the config keys as given (not the defaults left out) and the seed,
except tones.csv, which carries the tone-descriptor header of
`pulses.export_tones`; a manifest.txt lists the files written, so runs are
reproducible byte-for-byte given (config, seed). main alone sets the exit
status: 2, "config error", when the config or --out is unusable, and nothing is
written; 3 when a write was flagged converged=False or the fit of rb failed
(manifest.txt lists the files written); 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__, sideband
from .engine import DEFAULT_STEPS, NoiseModel, check_steps, propagate_unitary
from .gates import target_unitary
from .paths import DYNAMICAL, HOLONOMIC
from .pulses import OMEGA_MAX_DEFAULT, GateSpec, export_tones, named_gate, synthesize
from .qcore import fidelity_qubit_subspace, leakage
from .rbench import (FitError, GateCache, RBConfig, curve_to_csv, decay_rate, fit_summary,
                     run_rb)
from .tomo import (chi_of_channel, exact_records, mle_process,
                   process_fidelity, propagator_channel, records_to_csv,
                   simulate_counts, unitary_channel)

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
_SPAM = ("prep_error", "detection_error_bright", "detection_error_dark")


class ConfigError(ValueError):
    pass


class _Object(dict):
    """A JSON object whose check() rejects each key not read through get or []."""

    def __init__(self, raw, what):
        if not isinstance(raw, dict):
            raise ConfigError(f"{what} must be a JSON object")
        super().__init__(raw)
        self.what, self.read = what, set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        if key not in self:
            raise ConfigError(f"{self.what} object missing field {key!r}")
        return super().__getitem__(key)

    def check(self):
        unknown = set(self) - self.read
        if unknown:
            raise ConfigError(f"unknown {self.what} fields {sorted(unknown)}; "
                              f"this run reads {sorted(self.read)}")


def _size(value, name, bound=np.inf) -> int:
    """`value` as an int no larger than `bound`: no JSON boolean, no fraction."""
    size = int(value)
    if isinstance(value, bool) or size != value:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if size > bound:
        raise ConfigError(f"{name} must be <= {bound}, got {value!r}")
    return size


def _real(value, name) -> float:
    """`value` as a float: a JSON number, no boolean or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def load_config(path, command) -> _Object:
    """The config at `path` for `command`, which its `experiment`, when given,
    must name; main checks its keys after the command's parse."""
    try:
        cfg = _Object(json.loads(Path(path).read_text(encoding="utf-8")), "config root")
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    kind = cfg.get("experiment", command)
    if kind != command:
        raise ConfigError(f"config is for {kind!r} but command is {command!r}")
    cfg["experiment"], cfg.what = command, f"{command!r} config"
    return cfg


def parse_gate(cfg, key="gate", eta=0.0, scheme=None) -> GateSpec:
    """The gate at `key`: a name, holonomic at `eta`, or an object with its own eta
    and scheme; given `scheme`, an object is of it at `eta` (dynamical: no gamma)."""
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"config field '{key}' is required")
    named = isinstance(raw, str)
    gate = _Object({"name": raw} if named else raw, "gate")
    own = not named and scheme is None
    if own:
        eta, scheme = _real(gate.get("eta", 0.0), "gate eta"), gate.get("scheme", HOLONOMIC)
    if "name" in gate:      # a name sets all three angles
        spec = named_gate(gate["name"], eta=eta, scheme=scheme if own else HOLONOMIC)
    else:
        theta, phi = _real(gate["theta"], "gate theta"), _real(gate["phi"], "gate phi")
        spec = (GateSpec.dynamical(theta, phi, eta) if scheme == DYNAMICAL else
                GateSpec(theta, phi, _real(gate["gamma"], "gate gamma"), eta, scheme))
    gate.check()
    return spec


def parse_noise(cfg, fields=tuple(NoiseModel.__dataclass_fields__)) -> NoiseModel:
    """The config's noise model; `fields` are the ones the command models."""
    noise = _Object(cfg.get("noise", {}), "noise")
    try:
        model = NoiseModel(**{k: _real(noise[k], f"noise {k}") for k in fields if k in noise})
    except ValueError as exc:
        raise ConfigError(f"invalid noise model: {exc}")
    noise.check()
    return model


def _schedule(cfg, synth, n_samples, steps=None):
    """(synth(n_samples), steps through the steps guard, or None)."""
    sched = synth(n_samples=_size(cfg.get("n_samples", n_samples), "n_samples",
                                  MAX_N_SAMPLES))
    if steps is not None:
        steps = _size(cfg.get("steps", steps), "steps", MAX_STEPS)
        check_steps(steps, sched.n_samples)
    return sched, steps


def _header(cfg: dict, seed) -> str:
    flat = dict(cfg, seed=seed)
    return "".join([f"# artifact_version = {__version__}\n"] + [
        f"# {key} = {json.dumps(flat[key], sort_keys=True)}\n" for key in sorted(flat)])


class OutputWriter:
    """A run's files under one header; `converged` is False after a flagged write."""

    def __init__(self, out_dir: Path, cfg: dict, seed):
        self.out_dir = Path(out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out_dir} cannot be a directory: {exc.strerror}")
        self.header = _header(cfg, seed)
        self.files, self.converged = [], True

    def write(self, name: str, body: str, converged: bool = True) -> Path:
        path = self.out_dir / name
        path.write_text(self.header + body, encoding="utf-8")
        self.files.append(name)
        self.converged = self.converged and bool(converged)
        return path

    def finish(self):
        manifest = self.header + "\n".join(self.files) + "\n"
        (self.out_dir / "manifest.txt").write_text(manifest, encoding="utf-8")


# Each command parses its config and returns run(writer), which writes its files.

def _synth(cfg, seed):
    omega_max = _real(cfg.get("omega_max", OMEGA_MAX_DEFAULT), "omega_max")
    sched, _ = _schedule(cfg, partial(synthesize, parse_gate(cfg), omega_max), 4096)

    def run(writer: OutputWriter):
        export_tones(sched, writer.out_dir / "tones.csv")
        writer.files.append("tones.csv")
        writer.write("synth_summary.csv", "duration_s,omega_max_rad_s,n_samples\n"
                     "%.17g,%.17g,%d\n" % (sched.duration, sched.omega_max, sched.n_samples))
    return run


def _propagate(cfg, seed):
    spec = parse_gate(cfg)
    eps = parse_noise(cfg, ("epsilon",)).epsilon
    sched, steps = _schedule(cfg, partial(synthesize, spec), 4096, DEFAULT_STEPS)

    def run(writer: OutputWriter):
        res = propagate_unitary(sched, eps, steps)
        fid = fidelity_qubit_subspace(res.unitary, target_unitary(spec))
        writer.write("propagate.csv",
                     "epsilon,fidelity,infidelity,leakage,truncation_error,converged\n"
                     "%.17g,%.17g,%.17g,%.17g,%.17g,%s\n" % (
                         eps, fid, 1.0 - fid, leakage(res.unitary),
                         res.truncation_error, res.converged), converged=res.converged)
    return run


def _qpt(cfg, seed):
    spec = parse_gate(cfg)
    noise = parse_noise(cfg, ("epsilon",) + _SPAM)
    sched, steps = _schedule(cfg, partial(synthesize, spec), 4096, DEFAULT_STEPS)
    analytic = cfg.get("analytic", False)
    if not isinstance(analytic, bool):
        raise ConfigError(f"'analytic' must be true or false, got {analytic!r}")
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
        body = ["component,m,n,re,im"] + [
            "%s,%d,%d,%.17g,%.17g" % (label, m, n, chi[m, n].real, chi[m, n].imag)
            for label, chi in (("estimated", mle.chi), ("ideal", ideal))
            for m in range(4) for n in range(4)]
        writer.write("chi.csv", "\n".join(body) + "\n")
        writer.write("qpt_summary.csv",
                     "process_fidelity,iterations,converged,truncation_error\n"
                     "%.17g,%d,%s,%.17g\n" % (fatt, mle.iterations, mle.converged,
                                             res.truncation_error),
                     converged=mle.converged and res.converged)
    return run


def _rb_config(cfg, noise, **fields) -> RBConfig:
    """The config's RBConfig with `fields`; a key it omits takes RBConfig's
    default. omega_max is read under dephasing alone: the closed dynamics are
    invariant under t -> omega_max t."""
    if noise.dephased:
        fields["omega_max"] = _real(cfg.get("omega_max", RBConfig.omega_max), "omega_max")
    return RBConfig(
        noise=noise,
        n_samples=_size(cfg.get("n_samples", RBConfig.n_samples), "n_samples",
                        MAX_N_SAMPLES),
        steps=_size(cfg.get("steps", RBConfig.steps), "steps", MAX_STEPS), **fields)


def _rb(cfg, seed):
    eta, shots = _real(cfg.get("eta", RBConfig.eta), "eta"), cfg.get("shots")
    lengths = cfg.get("lengths", list(RBConfig.lengths))
    if not isinstance(lengths, list):
        raise ConfigError(f"'lengths' must be a list of sequence lengths, got {lengths!r}")
    ref_cfg = _rb_config(
        cfg, parse_noise(cfg), eta=eta, seed=seed,
        lengths=tuple(_size(m, "a sequence length", MAX_LENGTH) for m in lengths),
        n_sequences=_size(cfg.get("sequences", RBConfig.n_sequences), "sequences",
                          MAX_SEQUENCES),
        shots=None if shots is None else _size(shots, "shots", MAX_SHOTS))
    int_cfg = (None if cfg.get("interleaved") is None
               else replace(ref_cfg, interleaved=parse_gate(cfg, "interleaved", eta)))

    def run(writer: OutputWriter):
        cache = GateCache()     # the interleaved run reuses the reference channels and draws
        ref = run_rb(ref_cfg, cache)
        writer.write("rb_reference.csv", curve_to_csv(ref, ref_cfg.n_sequences))
        writer.write("rb_reference_fit.txt",
                     fit_summary(ref, p_spectral=decay_rate(ref_cfg, cache)))
        if int_cfg is not None:
            inter = run_rb(int_cfg, cache)
            writer.write("rb_interleaved.csv", curve_to_csv(inter, int_cfg.n_sequences))
            writer.write("rb_interleaved_fit.txt", fit_summary(inter, p_ref=ref.p))
    return run


def _parse_sweep_schemes(cfg, rb):
    """(scheme, eta) per item; rb mode reads eta alone: RB's Cliffords are holonomic."""
    out = []
    for item in cfg.get("schemes", [{"eta": 0.0}, {"eta": 1.0}]):
        item = _Object(item, "sweep scheme")
        scheme = HOLONOMIC if rb else item.get("scheme", HOLONOMIC)
        if scheme not in (HOLONOMIC, DYNAMICAL):
            raise ConfigError(f"unknown scheme {scheme!r}")
        out.append((scheme, _real(item.get("eta", 0.0), "a sweep scheme's eta")))
        item.check()
    if not 2 <= len(out) <= 3:
        raise ConfigError("sweep needs two or three schemes")
    return out


def _sweep_grid(cfg):
    raw = cfg.get("epsilon_grid", {"min": -0.2, "max": 0.2, "points": 41})
    if isinstance(raw, list):
        grid = np.asarray([_real(x, "an epsilon_grid entry") for x in raw])
    else:
        raw = _Object(raw, "epsilon_grid")
        grid = np.linspace(_real(raw.get("min", -0.2), "epsilon_grid min"),
                           _real(raw.get("max", 0.2), "epsilon_grid max"),
                           _size(raw.get("points", 41), "epsilon_grid points",
                                 MAX_GRID_POINTS))
        raw.check()
    if grid.size == 0:
        raise ConfigError("epsilon grid is empty")
    if not np.all(np.abs(grid) <= 0.5):
        raise ConfigError("epsilon grid must stay within [-0.5, 0.5]")
    return grid


def _direct_points(sched, steps, target, grid):
    """([(infidelity, truncation_error)] per epsilon, all converged), one checked batch."""
    res = propagate_unitary(sched, grid, steps)
    infidelity = 1.0 - fidelity_qubit_subspace(res.unitary, target)
    return ([(float(inf), float(err)) for inf, err in zip(infidelity, res.truncation_error)],
            bool(res.converged.all()))


def _rb_points(rb_cfg, grid):
    """([(infidelity, None)] per epsilon, True): (1 - p)/2 at RB's decay p, unchecked."""
    configs = [replace(rb_cfg, noise=replace(rb_cfg.noise, epsilon=float(eps))) for eps in grid]
    return [((1.0 - decay_rate(config)) / 2.0, None) for config in configs], True


def _sweep_rows(cfg):
    """Parse a sweep config into rows() -> ([(epsilon, label, infidelity_mean,
    truncation_error)], all converged); truncation_error is None in rb mode."""
    grid, mode = _sweep_grid(cfg), cfg.get("mode", "direct")
    if mode not in ("direct", "rb"):
        raise ConfigError(f"sweep mode must be 'direct' or 'rb', got {mode!r}")
    schemes = _parse_sweep_schemes(cfg, mode == "rb")
    if mode == "rb":    # the grid sets epsilon; RB averages over the Cliffords
        rb_cfg = _rb_config(cfg, parse_noise(cfg, ("gamma_1a", "gamma_0a")))
    else:               # 'schemes' sets eta and scheme; a holonomic one needs gamma
        base = parse_gate(cfg, scheme=HOLONOMIC if HOLONOMIC in dict(schemes) else DYNAMICAL)
    points = []
    for scheme, eta in schemes:
        if mode == "rb":
            point = partial(_rb_points, replace(rb_cfg, eta=eta))
        else:
            spec = (GateSpec.dynamical(base.theta, base.phi, eta) if scheme == DYNAMICAL
                    else replace(base, eta=eta))
            sched, steps = _schedule(cfg, partial(synthesize, spec), 1024, 2048)
            point = partial(_direct_points, sched, steps, target_unitary(spec))
        points.append((f"{scheme}:eta={eta:g}", point))

    def rows():
        results = [(label, *point(grid)) for label, point in points]
        return ([(float(eps), label, *result) for label, column, _ in results
                 for eps, result in zip(grid, column)], all(ok for _, _, ok in results))
    return rows


def run_sweep(cfg, seed):
    """Sweep rows (epsilon, scheme_label, infidelity_mean, truncation_error or None)."""
    return _sweep_rows(cfg)()[0]


def _sweep(cfg, seed):
    rows = _sweep_rows(cfg)

    def run(writer: OutputWriter):
        table, converged = rows()
        checked = table[0][3] is not None
        body = ["epsilon,scheme,infidelity_mean" + (",truncation_error" if checked else "")]
        for eps, label, mean, err in table:
            body.append("%.17g,%s,%.17g" % (eps, label, mean)
                        + (",%.17g" % err if checked else ""))
        writer.write("sweep.csv", "\n".join(body) + "\n", converged=converged)
    return run


def _sideband(cfg, seed):
    gamma = _real(cfg.get("gamma", np.pi), "gamma")
    eta = _real(cfg.get("eta", 0.2), "eta")
    system = sideband.SidebandSystem(n_max=_size(cfg.get("n_max", 5), "n_max"))
    synth = partial(sideband.synthesize_cphase, gamma, OMEGA_MAX_DEFAULT, eta)
    sched, steps = _schedule(cfg, synth, 4096, DEFAULT_STEPS)

    def run(writer: OutputWriter):
        report = sideband.verify_full_model(sched, system, steps)
        writer.write("sideband_report.csv", report.to_text())
    return run


_COMMANDS = {"synth": _synth, "propagate": _propagate, "qpt": _qpt, "rb": _rb,
             "sweep": _sweep, "sideband": _sideband}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args does not
    change it, and looks up sys.stderr only when it reports a usage error."""
    parser = argparse.ArgumentParser(
        prog="holopulse",
        description="Compile and simulate robust holonomic qutrit gates.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default="out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        seed = _size(cfg.get("seed", 0), "seed")    # checked even when --seed overrides it
        seed = seed if args.seed is None else args.seed
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        run = _COMMANDS[args.command](cfg, seed)
        cfg.check()
        writer = OutputWriter(args.out, cfg, seed)
    except (ValueError, TypeError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        run(writer)
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        writer.converged = False
    writer.finish()
    return 0 if writer.converged else 3


if __name__ == "__main__":
    sys.exit(main())
