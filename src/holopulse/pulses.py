"""Compile a gate specification into a two-tone pulse schedule.

The target single-qubit rotation (theta, phi, gamma) is realized by a pair of
resonant tones driving |0><->|a> and |1><->|a>. The total Rabi rate Omega(t)
and phase phi0(t) come from the path inverse engineering in `paths`; the tone
split is fixed by theta (Omega0/Omega1 = tan(theta/2)) and the tone phase
offset by phi (phi0 - phi1 + pi = phi at every sample).

The gate duration is always derived from the maximum-drive bound
max_t Omega(t) = Omega_max; it is never taken from quoted nominal values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .paths import DYNAMICAL, HOLONOMIC, SCHEMES, controls_arrays, dynamical_gamma

OMEGA_MAX_DEFAULT = 2.0 * np.pi * 1.0e4   # rad/s
TONE0_HZ_DEFAULT = 12.6428e9              # |0> <-> |a| transition
TONE1_HZ_DEFAULT = TONE0_HZ_DEFAULT - 12.5e6   # |1> <-> |a| transition
PEAK_REL_TOL = 1e-3     # allowed relative miss of the peak Rabi rate

_HEADER_KEYS = ("omega_max_rad_s", "duration_s", "sample_rate_hz", "scheme",
                "eta", "theta_rad", "phi_rad", "gamma_rad", "tone0_hz", "tone1_hz")


@dataclass(frozen=True)
class GateSpec:
    """Target rotation by gamma about axis (sin t cos p, sin t sin p, cos t)."""
    theta: float
    phi: float
    gamma: float
    eta: float = 0.0
    scheme: str = HOLONOMIC

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not -np.pi <= self.phi < np.pi:
            raise ValueError(f"phi must lie in [-pi, pi), got {self.phi}")
        if not -2.0 * np.pi < self.gamma <= 2.0 * np.pi:
            raise ValueError(f"gamma must lie in (-2pi, 2pi], got {self.gamma}")
        if not np.isfinite(self.eta):
            raise ValueError("eta must be finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == DYNAMICAL and self.gamma != dynamical_gamma(self.eta):
            raise ValueError("dynamical scheme fixes gamma = -2*pi*eta")

    @classmethod
    def dynamical(cls, theta: float, phi: float, eta: float) -> "GateSpec":
        """The dynamical-scheme gate, gamma = -2*pi*eta. Since gamma must lie in
        (-2pi, 2pi], eta must lie in [-1, 1): eta = 1 (gamma = -2pi) is rejected."""
        return cls(theta=theta, phi=phi, gamma=dynamical_gamma(eta),
                   eta=eta, scheme=DYNAMICAL)


_NAMED = {
    "X": (np.pi / 2.0, 0.0, np.pi),
    "H": (np.pi / 4.0, 0.0, np.pi),
    "T": (0.0, 0.0, np.pi / 4.0),
    "S": (0.0, 0.0, np.pi / 2.0),
    "I": (0.0, 0.0, 0.0),
}


def named_gate(name: str, eta: float = 0.0, scheme: str = HOLONOMIC) -> GateSpec:
    """Standard gates by name: X, H, T, S, I."""
    if not isinstance(name, str):
        raise TypeError(f"gate name must be a string, got {name!r}")
    try:
        theta, phi, gamma = _NAMED[name.upper()]
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}; expected one of {sorted(_NAMED)}")
    return GateSpec(theta=theta, phi=phi, gamma=gamma, eta=eta, scheme=scheme)


@dataclass
class PulseSchedule:
    """Sampled two-tone waveform over [0, T] for one gate."""
    spec: GateSpec
    duration: float
    times: np.ndarray
    omega0: np.ndarray
    omega1: np.ndarray
    phi0: np.ndarray
    phi1: np.ndarray
    omega_max: float
    tone0_hz: float = TONE0_HZ_DEFAULT
    tone1_hz: float = TONE1_HZ_DEFAULT

    @property
    def n_samples(self) -> int:
        return len(self.times) - 1

    @property
    def sample_rate(self) -> float:
        return self.n_samples / self.duration

    def validate(self):
        """Check the schedule invariants; raises on violation."""
        total = np.hypot(self.omega0, self.omega1)
        if np.any(self.omega0 < 0) or np.any(self.omega1 < 0):
            raise ValueError("negative tone amplitude")
        peak = float(np.max(total))
        if abs(peak - self.omega_max) > PEAK_REL_TOL * self.omega_max:
            raise ValueError(f"peak Rabi rate {peak} misses omega_max {self.omega_max}")
        n = self.n_samples
        for k in (0, n // 2, n):
            if total[k] != 0.0:
                raise ValueError(f"total Rabi rate nonzero at sample {k}")
        dphi = self.phi0 - self.phi1 + np.pi
        if np.max(np.abs(dphi - self.spec.phi)) > 1e-12:
            raise ValueError("phi0 - phi1 + pi does not equal the constant phi")
        live = self.omega1 > 1e-12 * self.omega_max
        if np.any(live):
            ratio = self.omega0[live] / self.omega1[live]
            if np.max(np.abs(ratio - np.tan(self.spec.theta / 2.0))) > 1e-9:
                raise ValueError("tone amplitude ratio drifts from tan(theta/2)")
        duration = compute_duration(self.spec, self.omega_max)
        if not math.isclose(self.duration, duration, rel_tol=1e-12):
            raise ValueError(f"duration {self.duration} is not the {duration} s "
                             f"that omega_max and eta fix")
        grid = np.linspace(0.0, self.duration, n + 1)
        if np.max(np.abs(self.times - grid)) > 1e-12 * self.duration:
            raise ValueError("sample times are not the uniform grid over [0, duration]")


def _envelope_factor(s, eta):
    """The dimensionless envelope Omega(sT)*T/pi^2 as a function of s = t/T."""
    s = np.asarray(s, dtype=float)
    alpha = np.pi * np.sin(np.pi * s) ** 2
    return np.abs(np.sin(2.0 * np.pi * s)) * np.sqrt(
        1.0 + 16.0 * eta ** 2 * np.sin(alpha) ** 6)


def peak_envelope(eta: float) -> float:
    """max_s of the dimensionless envelope, exactly: both of its factors,
    |sin(2 pi s)| and sqrt(1 + 16 eta^2 sin(alpha)^6), peak at s = 1/4, where
    alpha = pi/2, so the maximum is the envelope there, sqrt(1 + 16 eta^2)."""
    return float(_envelope_factor(0.25, eta))


def compute_duration(spec: GateSpec, omega_max: float = OMEGA_MAX_DEFAULT) -> float:
    """Minimal cycle time T such that max_t Omega(t) = omega_max."""
    if not omega_max > 0:
        raise ValueError("omega_max must be positive")
    return math.pi ** 2 * peak_envelope(spec.eta) / omega_max


def check_sampling(omega_max: float, n_samples: int):
    """Reject a peak Rabi rate not in (0, inf), and a sample count below 256 or odd."""
    if not 0.0 < omega_max < math.inf:
        raise ValueError(f"omega_max must be positive and finite, got {omega_max}")
    if n_samples < 256:
        raise ValueError(f"n_samples must be >= 256, got {n_samples}")
    if n_samples % 2:
        raise ValueError("n_samples must be even so that T/2 is a sample")


def synthesize(spec: GateSpec, omega_max: float = OMEGA_MAX_DEFAULT,
               n_samples: int = 4096) -> PulseSchedule:
    """Compile a gate into a uniformly sampled two-tone schedule.

    n_samples counts uniform intervals; the schedule holds n_samples + 1
    samples so that both T/2 and T land exactly on samples. The phase jump at
    T/2 sits between adjacent samples (Omega = 0 there, so it is free).
    """
    check_sampling(omega_max, n_samples)
    duration = compute_duration(spec, omega_max)
    times = np.linspace(0.0, duration, n_samples + 1)
    omega, phi0 = controls_arrays(spec, duration, times)
    # endpoint clamps: Omega vanishes exactly at 0, T/2, T
    omega[[0, n_samples // 2, n_samples]] = 0.0
    omega0 = omega * np.sin(spec.theta / 2.0)
    omega1 = omega * np.cos(spec.theta / 2.0)
    phi1 = phi0 + np.pi - spec.phi
    sched = PulseSchedule(spec=spec, duration=duration, times=times,
                          omega0=omega0, omega1=omega1, phi0=phi0, phi1=phi1,
                          omega_max=omega_max)
    sched.validate()
    return sched


def export_tones(schedule: PulseSchedule, path) -> Path:
    """Write the tone-descriptor text file; deterministic bytes per input."""
    if schedule.n_samples < 1:
        raise ValueError("schedule has no samples")
    schedule.validate()
    spec = schedule.spec
    meta = {
        "omega_max_rad_s": repr(schedule.omega_max),
        "duration_s": repr(schedule.duration),
        "sample_rate_hz": repr(schedule.sample_rate),
        "scheme": spec.scheme,
        "eta": repr(spec.eta),
        "theta_rad": repr(spec.theta),
        "phi_rad": repr(spec.phi),
        "gamma_rad": repr(spec.gamma),
        "tone0_hz": repr(schedule.tone0_hz),
        "tone1_hz": repr(schedule.tone1_hz),
    }
    lines = [f"# {key} = {meta[key]}" for key in _HEADER_KEYS]
    lines.append("# t_s,omega0_rad_s,phi0_rad,omega1_rad_s,phi1_rad")
    for k in range(schedule.n_samples + 1):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (
            schedule.times[k], schedule.omega0[k], schedule.phi0[k],
            schedule.omega1[k], schedule.phi1[k]))
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def parse_tones(path) -> PulseSchedule:
    """Read a tone-descriptor file back into a PulseSchedule; raises if it
    breaks a schedule invariant (`PulseSchedule.validate`) or if its
    sample_rate_hz is not n_samples / duration_s."""
    meta = {}
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        rows.append([float(x) for x in line.split(",")])
    missing = [k for k in _HEADER_KEYS if k not in meta]
    if missing:
        raise ValueError(f"tone descriptor missing metadata keys {missing}")
    if not rows:
        raise ValueError("tone descriptor has no sample rows")
    data = np.array(rows, dtype=float)
    spec = GateSpec(theta=float(meta["theta_rad"]), phi=float(meta["phi_rad"]),
                    gamma=float(meta["gamma_rad"]), eta=float(meta["eta"]),
                    scheme=meta["scheme"])
    schedule = PulseSchedule(
        spec=spec, duration=float(meta["duration_s"]), times=data[:, 0],
        omega0=data[:, 1], phi0=data[:, 2], omega1=data[:, 3], phi1=data[:, 4],
        omega_max=float(meta["omega_max_rad_s"]),
        tone0_hz=float(meta["tone0_hz"]), tone1_hz=float(meta["tone1_hz"]))
    schedule.validate()
    rate = float(meta["sample_rate_hz"])
    if not math.isclose(rate, schedule.sample_rate, rel_tol=1e-12):
        raise ValueError(f"sample_rate_hz {rate} is not n_samples / duration_s "
                         f"= {schedule.sample_rate}")
    return schedule
