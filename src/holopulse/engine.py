"""Propagation of the driven three-level system.

The drive couples only the bright state |b> to |a>; the dark state |d> never
moves. Every closed-system Hamiltonian here (the qutrit drive, and each 2x2
block of the blue-sideband ladder in `sideband`) therefore couples one level
to the others with zero diagonal, so h^3 = w^2 h with w^2 = tr(h^2)/2 and

    exp(-i h dt) = I - i (sin(w dt)/w) h - (2 sin^2(w dt/2)/w^2) h^2,

a closed form with no eigendecomposition (`_expm_step`). Closed-system
evolution uses a fourth-order commutator-free scheme (`cf4`): per step, two
such exponentials of real combinations of the Hamiltonian at the two Gauss
nodes. Every factor is exactly unitary, and step-doubling agreement at 1e-9
is reached at the default resolution. Open-system evolution integrates the
vectorized master equation (two pure-dephasing dissipators) with classical
fixed-step RK4 acting on the full 9x9 superoperator.

The Hamiltonian is evaluated from the schedule's continuous-time control law
(gate spec + duration); the sampled arrays are the export artifact.
Basis order everywhere: (|0>, |1>, |a>), hbar = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .paths import controls_arrays
from .pulses import PulseSchedule

DEFAULT_STEPS = 8192

_SQ3 = np.sqrt(3.0)
_GAUSS_C = (0.5 - _SQ3 / 6.0, 0.5 + _SQ3 / 6.0)
_CF4_A = (0.25 + _SQ3 / 6.0, 0.25 - _SQ3 / 6.0)


@dataclass(frozen=True)
class NoiseModel:
    """Static amplitude error, pure dephasing rates and SPAM probabilities."""
    epsilon: float = 0.0        # fractional Rabi miscalibration
    gamma_1a: float = 0.0       # 1/s, dephasing of the |1>-|a> coherence
    gamma_0a: float = 0.0       # 1/s, dephasing of the |0>-|a> coherence
    prep_error: float = 0.0
    detection_error_bright: float = 0.0
    detection_error_dark: float = 0.0

    def __post_init__(self):
        if not -0.5 <= self.epsilon <= 0.5:
            raise ValueError(f"epsilon must lie in [-0.5, 0.5], got {self.epsilon}")
        if self.gamma_1a < 0 or self.gamma_0a < 0:
            raise ValueError("dephasing rates must be >= 0")
        for name in ("prep_error", "detection_error_bright", "detection_error_dark"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


def dephasing_from_t2(t2_1a: float = 20e-3, t2_0a: float = 200e-3, **kw) -> NoiseModel:
    """Noise model whose coherences e-fold at the given Ramsey T2 times."""
    return NoiseModel(gamma_1a=2.0 / t2_1a, gamma_0a=2.0 / t2_0a, **kw)


@dataclass
class PropagationResult:
    unitary: Optional[np.ndarray] = None      # 3x3, closed system
    density: Optional[np.ndarray] = None      # 3x3, open system
    superoperator: Optional[np.ndarray] = None  # 9x9 row-major vec map
    steps: int = 0
    truncation_error: float = 0.0
    converged: bool = True


def bright_state(spec) -> np.ndarray:
    """|b> = sin(t/2)|0> - cos(t/2) e^{i phi}|1> in the three-level basis."""
    return np.array([np.sin(spec.theta / 2.0),
                     -np.cos(spec.theta / 2.0) * np.exp(1j * spec.phi),
                     0.0], dtype=complex)


def dark_state(spec) -> np.ndarray:
    """|d> = -cos(t/2) e^{-i phi}|0> - sin(t/2)|1>."""
    return np.array([-np.cos(spec.theta / 2.0) * np.exp(-1j * spec.phi),
                     -np.sin(spec.theta / 2.0),
                     0.0], dtype=complex)


def _hamiltonians(schedule: PulseSchedule, t, epsilon: float) -> np.ndarray:
    """Batched 3x3 Hamiltonians at times t (shape (..., 3, 3))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    omega, phi0, _, _, _ = controls_arrays(schedule.path_params(), t)
    spec = schedule.spec
    omega0 = omega * np.sin(spec.theta / 2.0)
    omega1 = omega * np.cos(spec.theta / 2.0)
    phi1 = phi0 + np.pi - spec.phi
    h = np.zeros(t.shape + (3, 3), dtype=complex)
    c0 = 0.5 * (1.0 + epsilon) * omega0 * np.exp(-1j * phi0)
    c1 = 0.5 * (1.0 + epsilon) * omega1 * np.exp(-1j * phi1)
    h[..., 0, 2] = c0
    h[..., 1, 2] = c1
    h[..., 2, 0] = np.conj(c0)
    h[..., 2, 1] = np.conj(c1)
    return h


def _expm_step(h: np.ndarray, dt: float) -> np.ndarray:
    """Batched exp(-i h dt) for Hermitian h with h^3 = w^2 h, w^2 = tr(h^2)/2.

    Exact for every zero-diagonal Hamiltonian that couples one level to the
    others. The h^2 coefficient 2 sin^2(w dt/2)/w^2 is 1 - cos(w dt) over w^2
    without cancellation; at w = 0 the coefficients take their limits dt and
    dt^2/2.
    """
    w = np.sqrt(0.5 * np.sum(np.abs(h) ** 2, axis=(-2, -1)))
    nonzero = w > 0.0
    w_safe = np.where(nonzero, w, 1.0)
    s1 = np.where(nonzero, np.sin(w * dt) / w_safe, dt)
    s2 = np.where(nonzero, 2.0 * (np.sin(0.5 * w * dt) / w_safe) ** 2, 0.5 * dt * dt)
    eye = np.eye(h.shape[-1], dtype=complex)
    return eye - 1j * s1[..., None, None] * h - s2[..., None, None] * (h @ h)


def _chron_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] via pairwise reduction."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        paired = mats[1:n - n % 2:2] @ mats[0:n - n % 2:2]
        if n % 2:
            mats = np.concatenate([paired, mats[-1:]], axis=0)
        else:
            mats = paired
    return mats[0]


def cf4(hamiltonians: Callable[[np.ndarray], np.ndarray], t0: float, t1: float,
        steps: int) -> np.ndarray:
    """Fourth-order commutator-free propagator over [t0, t1].

    `hamiltonians(t)` returns the batched Hamiltonians (shape (len(t), d, d))
    at an array of times; it is called once per Gauss node.
    """
    h = (t1 - t0) / steps
    base = t0 + np.arange(steps) * h
    h1 = hamiltonians(base + _GAUSS_C[0] * h)
    h2 = hamiltonians(base + _GAUSS_C[1] * h)
    a1, a2 = _CF4_A
    first = _expm_step(a1 * h1 + a2 * h2, h)   # acts first
    second = _expm_step(a2 * h1 + a1 * h2, h)
    return _chron_product(second @ first)


def propagate_unitary(schedule: PulseSchedule, epsilon: float = 0.0,
                      steps: int = DEFAULT_STEPS, t0: float = 0.0,
                      t1: Optional[float] = None,
                      check: bool = True) -> PropagationResult:
    """Closed-system propagator over [t0, t1] (default the full cycle).

    With check=True a half-resolution pass estimates the truncation error;
    an estimate above 1e-6 is flagged (converged=False), never silently.
    """
    if t1 is None:
        t1 = schedule.duration
    if t0 == 0.0 and t1 == schedule.duration and steps < schedule.n_samples:
        raise ValueError(f"steps = {steps} below schedule resolution {schedule.n_samples}")
    if steps % 2:
        raise ValueError("steps must be even (phase jump must fall on a boundary)")

    def hamiltonians(t):
        return _hamiltonians(schedule, t, epsilon)

    u = cf4(hamiltonians, t0, t1, steps)
    err = 0.0
    converged = True
    if check:
        u_half = cf4(hamiltonians, t0, t1, steps // 2)
        err = float(np.max(np.abs(u - u_half)))
        converged = err < 1e-6
    return PropagationResult(unitary=u, steps=steps, truncation_error=err,
                             converged=converged)


def survival_probability(schedule: PulseSchedule, epsilon: float,
                         steps: int = DEFAULT_STEPS // 2) -> float:
    """|<psi_0(T/2)|psi_eps(T/2)>|^2 for evolution of |b> over the first segment."""
    half = schedule.duration / 2.0
    b = bright_state(schedule.spec)
    u_ideal = cf4(lambda t: _hamiltonians(schedule, t, 0.0), 0.0, half, steps)
    u_err = cf4(lambda t: _hamiltonians(schedule, t, epsilon), 0.0, half, steps)
    overlap = np.vdot(u_ideal @ b, u_err @ b)
    return float(abs(overlap) ** 2)


def _vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1)


def _unvec(v: np.ndarray) -> np.ndarray:
    return v.reshape(3, 3)


def _dissipator_superop(noise: NoiseModel) -> np.ndarray:
    """Constant Lindblad part of the generator in row-major vec convention."""
    eye = np.eye(3, dtype=complex)
    d = np.zeros((9, 9), dtype=complex)
    for rate, level in ((noise.gamma_1a, 1), (noise.gamma_0a, 0)):
        if rate == 0.0:
            continue
        L = np.zeros((3, 3), dtype=complex)
        L[level, level] = np.sqrt(rate)
        ldl = L.conj().T @ L
        d += (np.kron(L, L.conj())
              - 0.5 * np.kron(ldl, eye)
              - 0.5 * np.kron(eye, ldl.T))
    return d


def open_superoperator(schedule: PulseSchedule, noise: NoiseModel,
                       steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Full-cycle quantum channel as a 9x9 matrix on row-major vec(rho)."""
    if steps % 2:
        raise ValueError("steps must be even")
    T = schedule.duration
    h = T / steps
    ts = np.linspace(0.0, T, 2 * steps + 1)
    hs = _hamiltonians(schedule, ts, noise.epsilon)
    eye = np.eye(3, dtype=complex)
    gs = -1j * (np.einsum("tij,kl->tikjl", hs, eye).reshape(-1, 9, 9)
                - np.einsum("ij,tkl->tikjl", eye, np.swapaxes(hs, 1, 2)).reshape(-1, 9, 9))
    gs = gs + _dissipator_superop(noise)
    phi = np.eye(9, dtype=complex)
    for k in range(steps):
        g1, g2, g3 = gs[2 * k], gs[2 * k + 1], gs[2 * k + 2]
        k1 = g1 @ phi
        k2 = g2 @ (phi + 0.5 * h * k1)
        k3 = g2 @ (phi + 0.5 * h * k2)
        k4 = g3 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def trace_defect(superop: np.ndarray) -> float:
    """Deviation of the channel from trace preservation."""
    eye_vec = _vec(np.eye(3, dtype=complex))
    row = np.zeros(9, dtype=complex)
    for i in range(3):
        row += superop[4 * i, :]
    return float(np.max(np.abs(row - eye_vec)))


def propagate_open(schedule: PulseSchedule, rho0: np.ndarray, noise: NoiseModel,
                   steps: int = DEFAULT_STEPS) -> PropagationResult:
    """Evolve a density matrix through the full cycle under drive + dephasing."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (3, 3):
        raise ValueError("rho0 must be 3x3")
    phi = open_superoperator(schedule, noise, steps)
    drift = trace_defect(phi)
    if drift > 1e-6:
        raise RuntimeError(f"open-system trace drift {drift} exceeds 1e-6")
    rho = _unvec(phi @ _vec(rho0))
    rho = 0.5 * (rho + rho.conj().T)
    return PropagationResult(density=rho, superoperator=phi, steps=steps,
                             truncation_error=drift, converged=drift < 1e-9)
