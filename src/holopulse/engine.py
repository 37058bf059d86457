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
is reached at the default resolution. Open-system evolution (two pure-
dephasing dissipators) shares the same per-step CF4 propagators (`_cf4_steps`):
the dissipator is diagonal on vec(rho), so its exponential is elementwise, and
each step is a Strang splitting around U (x) U*, Richardson-extrapolated to
fourth order. All steps are batched and reduced by one ordered product.

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


def _cf4_steps(hamiltonians: Callable[[np.ndarray], np.ndarray], t0: float,
               t1: float, steps: int) -> np.ndarray:
    """Per-step fourth-order commutator-free propagators over [t0, t1].

    `hamiltonians(t)` returns the batched Hamiltonians (shape (len(t), d, d))
    at an array of times; it is called once per Gauss node. The result has
    shape (steps, d, d), step k propagating over [t0 + k h, t0 + (k+1) h].
    """
    h = (t1 - t0) / steps
    base = t0 + np.arange(steps) * h
    h1 = hamiltonians(base + _GAUSS_C[0] * h)
    h2 = hamiltonians(base + _GAUSS_C[1] * h)
    a1, a2 = _CF4_A
    first = _expm_step(a1 * h1 + a2 * h2, h)   # acts first
    second = _expm_step(a2 * h1 + a1 * h2, h)
    return second @ first


def cf4(hamiltonians: Callable[[np.ndarray], np.ndarray], t0: float, t1: float,
        steps: int) -> np.ndarray:
    """Fourth-order commutator-free propagator over [t0, t1] (see `_cf4_steps`)."""
    return _chron_product(_cf4_steps(hamiltonians, t0, t1, steps))


def _check_steps(schedule: PulseSchedule, steps: int, full_cycle: bool):
    """Reject step counts below 2, odd, or (over the full cycle) coarser than
    the schedule's sampling."""
    if steps < 2 or steps % 2:
        raise ValueError(f"steps must be even and >= 2 (the phase jump must fall "
                         f"on a step boundary), got {steps}")
    if full_cycle and steps < schedule.n_samples:
        raise ValueError(f"steps = {steps} below schedule resolution {schedule.n_samples}")


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
    _check_steps(schedule, steps, full_cycle=(t0 == 0.0 and t1 == schedule.duration))

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


def _dephasing_rates(noise: NoiseModel) -> np.ndarray:
    """Pure-dephasing generator on row-major vec(rho): a diagonal, as 9 rates.

    L_l = sqrt(gamma_l)|l><l| damps rho_ij at gamma_l/2 when exactly one of
    i, j is l and leaves every other entry alone, so exp(D t) is elementwise.
    """
    levels = np.arange(3)
    rates = np.zeros((3, 3))
    for gamma, level in ((noise.gamma_0a, 0), (noise.gamma_1a, 1)):
        hit = levels == level
        rates -= 0.5 * gamma * (hit[:, None] != hit[None, :])
    return rates.reshape(-1)


def _lift(u: np.ndarray) -> np.ndarray:
    """Batched U (x) U*, the map rho -> U rho U^dag on row-major vec(rho)."""
    n, d = u.shape[0], u.shape[-1]
    return (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(n, d * d, d * d)


def open_superoperator(schedule: PulseSchedule, noise: NoiseModel,
                       steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Full-cycle quantum channel as a 9x9 matrix on row-major vec(rho).

    Each step of length h is the Strang splitting S_h = E(h/2) (U (x) U*) E(h/2)
    of the exact dephasing factor E(t) = exp(D t) around the CF4 propagator U,
    Richardson-extrapolated to fourth order as (4 S_{h/2} S_{h/2} - S_h) / 3.
    The CF4 propagators are computed once on the 2*steps half steps; a full
    step's U is the product of its two halves. Every factor preserves the
    trace, and so does their affine combination.
    """
    _check_steps(schedule, steps, full_cycle=True)
    half = _cf4_steps(lambda t: _hamiltonians(schedule, t, noise.epsilon),
                      0.0, schedule.duration, 2 * steps)
    first, second = half[0::2], half[1::2]
    h = schedule.duration / steps
    rates = _dephasing_rates(noise)
    e_quarter = np.exp(0.25 * h * rates)
    e_half = np.exp(0.5 * h * rates)
    two_halves = (e_quarter[:, None]
                  * (_lift(second) @ (e_half[:, None] * _lift(first)))
                  * e_quarter)
    full = e_half[:, None] * _lift(second @ first) * e_half
    return _chron_product((4.0 * two_halves - full) / 3.0)


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
