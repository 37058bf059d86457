"""Compile a gate specification into a two-tone pulse schedule.

The target single-qubit rotation (theta, phi, gamma) is realized by a pair of
resonant tones driving |0><->|a> and |1><->|a>. The total Rabi rate Omega(t)
and phase phi0(t) come from the path inverse engineering in `paths`; the tone
split is fixed by theta (Omega0/Omega1 = tan(theta/2)) and the tone phase
offset by phi (phi0 - phi1 + pi = phi at every sample).

The gate duration is always derived from the maximum-drive bound
max_t Omega(t) = Omega_max; it is never taken from quoted nominal values.
A `PulseSchedule` holds only what fixes the drive; the engine propagates its
continuous control law, and the sample table, derived on first use, is the
export artifact. The tone frequencies are the constants TONE0_HZ and
TONE1_HZ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .paths import DYNAMICAL, HOLONOMIC, SCHEMES, controls_arrays, dynamical_gamma

OMEGA_MAX_DEFAULT = 2.0 * np.pi * 1.0e4   # rad/s
TONE0_HZ = 12.6428e9              # |0> <-> |a| transition
TONE1_HZ = TONE0_HZ - 12.5e6      # |1> <-> |a| transition

_HEADER_KEYS = ("omega_max_rad_s", "duration_s", "sample_rate_hz", "scheme",
                "eta", "theta_rad", "phi_rad", "gamma_rad", "tone0_hz", "tone1_hz")
_COLUMNS = ("t_s", "omega0_rad_s", "phi0_rad", "omega1_rad_s", "phi1_rad")


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


@dataclass(frozen=True)
class PulseSchedule:
    """One gate's two-tone drive at peak Rabi rate omega_max; n_samples sets
    the resolution of its exported sample table (and the steps guard)."""
    spec: GateSpec
    omega_max: float
    n_samples: int

    @cached_property
    def duration(self) -> float:
        return compute_duration(self.spec, self.omega_max)

    @property
    def sample_rate(self) -> float:
        return self.n_samples / self.duration

    @cached_property
    def samples(self) -> np.ndarray:
        """The (n_samples + 1, 5) table of the tone file's columns (t, Omega0,
        phi0, Omega1, phi1) on the uniform grid over [0, T], so that both T/2
        and T are samples. The phase jump at T/2 sits between adjacent
        samples (Omega = 0 there, so it is free)."""
        n, spec = self.n_samples, self.spec
        times = np.linspace(0.0, self.duration, n + 1)
        omega, phi0 = controls_arrays(spec, self.duration, times)
        # endpoint clamps: Omega vanishes exactly at 0, T/2, T
        omega[[0, n // 2, n]] = 0.0
        return np.column_stack([times, omega * np.sin(spec.theta / 2.0), phi0,
                                omega * np.cos(spec.theta / 2.0),
                                phi0 + np.pi - spec.phi])

    times = property(lambda self: self.samples[:, 0])
    omega0 = property(lambda self: self.samples[:, 1])
    phi0 = property(lambda self: self.samples[:, 2])
    omega1 = property(lambda self: self.samples[:, 3])
    phi1 = property(lambda self: self.samples[:, 4])


def peak_envelope(eta: float) -> float:
    """max_s of the dimensionless envelope Omega(sT) T / pi^2, exactly: both of
    its factors, |sin(2 pi s)| and sqrt(1 + 16 eta^2 sin(alpha)^6), peak at
    s = 1/4, where alpha = pi/2, so the maximum is sqrt(1 + 16 eta^2)."""
    return math.sqrt(1.0 + 16.0 * eta ** 2)


def compute_duration(spec: GateSpec, omega_max: float = OMEGA_MAX_DEFAULT) -> float:
    """Minimal cycle time T such that max_t Omega(t) = omega_max; raises for an
    omega_max outside (0, inf), NaN included, and if T overflows."""
    if not 0.0 < omega_max < math.inf:
        raise ValueError(f"omega_max must be positive and finite, got {omega_max}")
    try:
        duration = math.pi ** 2 * peak_envelope(spec.eta) / omega_max
    except OverflowError:   # eta ** 2 beyond the float range
        duration = math.inf
    if duration == math.inf:
        raise ValueError(f"duration overflows at omega_max {omega_max}, eta {spec.eta}")
    return duration


def check_sampling(n_samples: int):
    """Reject a sample count below 256 or odd."""
    if n_samples < 256:
        raise ValueError(f"n_samples must be >= 256, got {n_samples}")
    if n_samples % 2:
        raise ValueError("n_samples must be even so that T/2 is a sample")


def synthesize(spec: GateSpec, omega_max: float = OMEGA_MAX_DEFAULT,
               n_samples: int = 4096) -> PulseSchedule:
    """The schedule of a gate at peak Rabi rate omega_max, sampled over
    n_samples uniform intervals; raises for a bad omega_max (see
    `compute_duration`) or n_samples."""
    check_sampling(n_samples)
    schedule = PulseSchedule(spec, omega_max, n_samples)
    schedule.duration   # computed now, so that a bad omega_max raises here
    return schedule


def export_tones(schedule: PulseSchedule, path) -> Path:
    """Write the tone-descriptor text file; deterministic bytes per input."""
    spec = schedule.spec
    values = (schedule.omega_max, schedule.duration, schedule.sample_rate, spec.scheme,
              spec.eta, spec.theta, spec.phi, spec.gamma, TONE0_HZ, TONE1_HZ)
    lines = [f"# {key} = {v if isinstance(v, str) else repr(v)}"
             for key, v in zip(_HEADER_KEYS, values)]
    lines.append("# " + ",".join(_COLUMNS))
    lines += ["%.17g,%.17g,%.17g,%.17g,%.17g" % tuple(row) for row in schedule.samples]
    out = Path(path)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out

