"""The single-loop evolution path and its inverse-engineered drive controls.

The cyclic evolution over [0, T] is parameterized by three angles:
    alpha(t) = pi * sin^2(pi t / T)
    f(t)     = sign * eta * (2 alpha - sin 2 alpha)
    beta(t)  = jump + sign * (4 eta / 3) * sin^3 alpha
with the loop split into two equal segments [0, T/2] and [T/2, T]; T/2
belongs to segment 1, where sign = 1 and jump = 0.

The holonomic scheme keeps sign = 1 on segment 2 and applies the phase jump
jump = gamma to beta there. The dynamical scheme flips the sign of f on
segment 2, keeps beta continuous (jump = 0), and realizes the fixed angle
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

import numpy as np

HOLONOMIC = "holonomic"
DYNAMICAL = "dynamical"
SCHEMES = (HOLONOMIC, DYNAMICAL)


def dynamical_gamma(eta: float) -> float:
    """The fixed rotation angle realized by the dynamical scheme."""
    return -2.0 * np.pi * eta


def alpha_of_t(t, duration):
    """alpha(t) = pi sin^2(pi t / T) on [0, T]."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > duration):
        raise ValueError("t outside [0, T]")
    return np.pi * np.sin(np.pi * t / duration) ** 2


def alpha_dot(t, duration):
    t = np.asarray(t, dtype=float)
    return (np.pi ** 2 / duration) * np.sin(2.0 * np.pi * t / duration)


def controls_arrays(spec, duration: float, t):
    """(Omega, phi0) at times t for the path of a `pulses.GateSpec` of the
    given duration; eta, scheme and gamma are read from the spec.

    The T/2 sample is attributed to segment 1; Omega vanishes there so the
    choice only fixes which side of the beta jump the sample reports.
    """
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    t = np.asarray(t, dtype=float)
    first = t <= duration / 2.0
    if spec.scheme == DYNAMICAL:
        sign, jump = np.where(first, 1.0, -1.0), 0.0
    else:
        sign, jump = np.ones_like(t), spec.gamma

    alpha = alpha_of_t(t, duration)
    adot = alpha_dot(t, duration)
    sin_a = np.sin(alpha)
    fdot = sign * 4.0 * spec.eta * sin_a ** 2 * adot
    fs = fdot * sin_a

    omega = np.hypot(adot, fs)
    chi = np.arctan2(adot, fs)
    # atan2(0, 0) at exact endpoints: use the one-sided limit per segment
    degenerate = (adot == 0.0) & (fs == 0.0)
    chi = np.where(degenerate, np.where(first, np.pi / 2.0, -np.pi / 2.0), chi)

    beta = np.where(first, 0.0, jump) + sign * (4.0 * spec.eta / 3.0) * sin_a ** 3
    return omega, chi - beta
