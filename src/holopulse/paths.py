"""Evolution-path parameterization and the inverse-engineered drive controls.

The cyclic evolution over [0, T] is parameterized by three angles:
    alpha(t) = pi * sin^2(pi t / T)
    f(t)     = sign * eta * (2 alpha - sin 2 alpha)
    beta(t)  = beta_start + sign * (4 eta / 3) * sin^3 alpha
with the loop split into two equal segments [0, T/2] and [T/2, T].

The holonomic scheme keeps the same f on both segments and applies a phase
jump gamma to beta at the start of segment 2. The dynamical scheme flips the
sign of f on segment 2, keeps beta continuous, and realizes the fixed angle
gamma_D = -2 pi eta.

Inverting the equations of motion gives the physical controls
    Omega(t) = sqrt(alpha_dot^2 + f_dot^2 sin^2 alpha)   (total Rabi rate)
    phi0(t)  = chi(t) - beta(t),   chi = atan2(alpha_dot, f_dot sin alpha)
with Omega >= 0 everywhere and Omega = 0 at t in {0, T/2, T}. At those
endpoints both atan2 arguments vanish; chi is defined by the one-sided limit
(+pi/2 on segment 1, -pi/2 on segment 2), which keeps phi0 continuous within
each segment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HOLONOMIC = "holonomic"
DYNAMICAL = "dynamical"
SCHEMES = (HOLONOMIC, DYNAMICAL)


def dynamical_gamma(eta: float) -> float:
    """The fixed rotation angle realized by the dynamical scheme."""
    return -2.0 * np.pi * eta


@dataclass(frozen=True)
class PathParams:
    """One single-loop evolution path."""
    duration: float          # total cyclic time T, seconds
    eta: float               # dimensionless path parameter
    scheme: str = HOLONOMIC
    gamma: float = 0.0       # phase jump (holonomic); -2*pi*eta for dynamical

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == DYNAMICAL and self.gamma != dynamical_gamma(self.eta):
            raise ValueError(
                "dynamical scheme requires gamma = -2*pi*eta "
                f"(= {dynamical_gamma(self.eta)}), got {self.gamma}")

    @classmethod
    def dynamical(cls, duration: float, eta: float) -> "PathParams":
        return cls(duration=duration, eta=eta, scheme=DYNAMICAL,
                   gamma=dynamical_gamma(eta))


def alpha_of_t(t, duration):
    """alpha(t) = pi sin^2(pi t / T) on [0, T]."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > duration):
        raise ValueError("t outside [0, T]")
    return np.pi * np.sin(np.pi * t / duration) ** 2


def alpha_dot(t, duration):
    t = np.asarray(t, dtype=float)
    return (np.pi ** 2 / duration) * np.sin(2.0 * np.pi * t / duration)


def f_of_alpha(alpha, eta, sign=1):
    """f = sign * eta * (2 alpha - sin 2 alpha), monotone for sign*eta >= 0."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < -1e-12) or np.any(alpha > np.pi + 1e-12):
        raise ValueError("alpha outside [0, pi]")
    return sign * eta * (2.0 * alpha - np.sin(2.0 * alpha))


def segment_of(t, duration):
    """Segment index (1 or 2); T/2 belongs to segment 1."""
    t = np.asarray(t, dtype=float)
    return np.where(t <= duration / 2.0, 1, 2)


def f_sign(scheme: str, segment) -> np.ndarray:
    """Sign carried by f on the given segment (dynamical flips on segment 2)."""
    segment = np.asarray(segment)
    if scheme == HOLONOMIC:
        return np.ones_like(segment, dtype=float)
    return np.where(segment == 1, 1.0, -1.0)


def beta_start(params: PathParams, segment: int) -> float:
    """beta value at the start of the segment (jump of gamma at T/2 for holonomic)."""
    if segment == 1:
        return 0.0
    return params.gamma if params.scheme == HOLONOMIC else 0.0


def beta_of_t(t, params: PathParams, segment: int):
    """Closed-form beta(t) = beta_start + sign*(4 eta/3) sin^3 alpha within a segment."""
    t = np.asarray(t, dtype=float)
    half = params.duration / 2.0
    if segment == 1:
        if np.any(t < 0) or np.any(t > half):
            raise ValueError("t outside segment 1")
    elif segment == 2:
        if np.any(t < half) or np.any(t > params.duration):
            raise ValueError("t outside segment 2")
    else:
        raise ValueError(f"segment must be 1 or 2, got {segment}")
    alpha = alpha_of_t(t, params.duration)
    sign = f_sign(params.scheme, segment)
    return beta_start(params, segment) + sign * (4.0 * params.eta / 3.0) * np.sin(alpha) ** 3


def controls_arrays(params: PathParams, t):
    """Vectorized controls; returns (omega, phi0, alpha, beta, f) arrays.

    The T/2 sample is attributed to segment 1; Omega vanishes there so the
    choice only fixes which side of the beta jump the sample reports.
    """
    t = np.asarray(t, dtype=float)
    T = params.duration
    seg = segment_of(t, T)
    sign = f_sign(params.scheme, seg)

    alpha = alpha_of_t(t, T)
    adot = alpha_dot(t, T)
    sin_a = np.sin(alpha)
    fdot = sign * 4.0 * params.eta * sin_a ** 2 * adot
    fs = fdot * sin_a

    omega = np.hypot(adot, fs)
    chi = np.arctan2(adot, fs)
    # atan2(0, 0) at exact endpoints: use the one-sided limit per segment
    degenerate = (adot == 0.0) & (fs == 0.0)
    chi = np.where(degenerate, np.where(seg == 1, np.pi / 2.0, -np.pi / 2.0), chi)

    start = np.where(seg == 1, beta_start(params, 1), beta_start(params, 2))
    beta = start + sign * (4.0 * params.eta / 3.0) * sin_a ** 3
    phi0 = chi - beta
    f = f_of_alpha(alpha, params.eta, sign)
    return omega, phi0, alpha, beta, f

