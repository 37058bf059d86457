"""Propagation of the driven three-level system.

The two tones couple only the bright state |b> to |a>; the dark state |d>,
fixed by (theta, phi), never moves. The Hamiltonian is therefore
H(t) = (1+eps) c(t)|b><a| + h.c. with one complex scalar coupling
c = Omega(t) e^{-i phi0(t)} / 2 (`_coupling`), and the closed dynamics is
SU(2) on span{|b>, |a>}. Every block propagator is kept as its Cayley-Klein
pair (a, b), U2 = [[a, b], [-b*, a*]]. The block Hamiltonian
s [[0, c], [c*, 0]] has the closed-form exponential

    a = cos(s |c| dt),   b = -i sin(s |c| dt) c/|c|

(`_su2_step`), and a product of two blocks is four elementwise complex
products (`_ck_product`). Closed-system evolution uses a fourth-order
commutator-free scheme (`cf4`): per step, two such exponentials of real
combinations of the coupling at the two Gauss nodes. Every array carries a
trailing batch axis for the scale s = 1 + eps: the control law is evaluated
once at the Gauss nodes, and a whole epsilon grid is propagated in one pass
(`propagate_unitary` with an array of eps). Both kernels reduce their steps
with the one pairwise ordered product (`_ordered_product`), whose tree
`_blockwise` follows to make the steps one block at a time, split at powers
of two, so memory does not grow with the step count. Every factor
is exactly unitary, and step-doubling agreement at 1e-9 is reached at the
default resolution. U2 depends on the path (gamma, eta, scheme) and eps
only; the qutrit propagator is its embedding |d><d| + E U2 E^dag with
E = [|b>, |a>] (`block_basis`), and `_embed` is the only place a 3x3
matrix is built. `sideband` drives the same kernel with the
anti-Jaynes-Cummings coupling of its n = 0 block.

Open-system evolution (two pure-dephasing dissipators) runs on the same
per-step CF4 pairs (`_cf4_steps`) at every half step and at every full step
(the Cayley-Klein product of its two halves). Each step is a Strang
splitting of the exact dephasing factor around rho -> U rho U^dag,
Richardson-extrapolated to fourth order. The channel is a real 9x9 in the
coordinates r = vec(Re rho + Im rho) = C vec(rho), row-major, with
C = (1-i)/2 I + (1+i)/2 P and P the transpose permutation: the dissipator is
diagonal on vec(rho) and symmetric under P, so its exponential is the same
elementwise factor on r. U = I + E X E^dag is affine in
x = (Re a - 1, Im a, Re b, Im b), so the lift R(U) - I is a quadratic form
F K in x, with F the 14 non-constant products x_i x_j (x_0 = 1) and K a real
14 x 81 matrix built once per gate from |b> (`_lift_coefficients`). A batch
of Strang steps is one real (n x 14) @ (14 x 81) product (`_strang_steps`),
the Richardson combination one batched real product, and the same blockwise
reduction multiplies the real 9x9 steps; the channel converts back to
vec(rho) once, as C^-1 R C.

The CF4 pairs of the open kernel are its "drive" (`drive_steps`), and no
gate sets it: c depends on the path (eta, scheme) and omega_max alone.
theta never enters c, and enters a channel only through K. gamma enters
only as the jump of beta at T/2, which multiplies c, and so every b, by
e^{i gamma} on the steps after T/2, a step boundary since `steps` is even;
the dynamical path has no jump. The drive of one block of steps is thus a
pure function of (eta, scheme, omega_max, epsilon, steps, block), memoized
for its last two blocks (0.8 MB) in the process, and `open_superoperator`
calls it with its own gate's path for every block; a channel made from a
remembered block costs K, the phased b, the Strang steps and their
reduction. The memo shares the drive of a one-block run (up to
`_OPEN_BLOCK` steps) between two paths, as the Cliffords' and an
interleaved gate's of RB, and that of a two-block run within one; above two
blocks its slots are cycled through and every channel makes its own steps.

The coupling is evaluated from the schedule's continuous-time control law
(gate spec + duration); its sample table is only the export artifact and is
never built here.
Basis order everywhere: (|0>, |1>, |a>), hbar = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .paths import DYNAMICAL, HOLONOMIC, controls_arrays
from .pulses import GateSpec, PulseSchedule, compute_duration

DEFAULT_STEPS = 8192

_SQ3 = np.sqrt(3.0)
_GAUSS_C = (0.5 - _SQ3 / 6.0, 0.5 + _SQ3 / 6.0)
_CF4_A = (0.25 + _SQ3 / 6.0, 0.25 - _SQ3 / 6.0)
# Steps made and reduced at a time, which bounds a propagation's memory. The
# closed kernel holds about 105 B per step and epsilon point: its block counts
# steps x points (27 MB; a scalar epsilon, about 145 B per step, 38 MB). The
# open kernel holds about 3 kB per step (12 MB); its drive is 96 B per step of
# a block (0.4 MB), of which the memo of `drive_steps` keeps the last two made
# in the process. Runs up to a 21-point sweep at 8192 steps, 32768 closed or
# 4096 open steps are one block, whose arithmetic is that of an unblocked
# product.
_CLOSED_BLOCK = 2 ** 18
_OPEN_BLOCK = 2 ** 12


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
        for name in ("gamma_1a", "gamma_0a"):
            rate = getattr(self, name)
            if not 0.0 <= rate < np.inf:
                raise ValueError(f"dephasing rate {name} must be finite and >= 0, got {rate}")
        for name in ("prep_error", "detection_error_bright", "detection_error_dark"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")

    @property
    def dephased(self) -> bool:
        """Whether a dephasing rate is nonzero: gates are then channels, not unitaries."""
        return self.gamma_1a > 0.0 or self.gamma_0a > 0.0

    def readout(self, p):
        """Probability of a bright count when the bright population is p,
        clipped to [0, 1], with both detection errors."""
        p = np.clip(p, 0.0, 1.0)
        return (p * (1.0 - self.detection_error_bright)
                + (1.0 - p) * self.detection_error_dark)


def dephasing_from_t2(t2_1a: float = 20e-3, t2_0a: float = 200e-3) -> NoiseModel:
    """Noise model whose coherences e-fold at the given Ramsey T2 times."""
    return NoiseModel(gamma_1a=2.0 / t2_1a, gamma_0a=2.0 / t2_0a)


@dataclass
class PropagationResult:
    """A closed-system propagation: one 3x3 unitary for a scalar epsilon, or
    a stack (n, 3, 3) with per-point truncation_error and converged arrays."""
    unitary: np.ndarray
    steps: int
    truncation_error: Union[float, np.ndarray]
    converged: Union[bool, np.ndarray]


def bright_state(spec) -> np.ndarray:
    """|b> = sin(t/2)|0> - cos(t/2) e^{i phi}|1> in the three-level basis."""
    return np.array([np.sin(spec.theta / 2.0),
                     -np.cos(spec.theta / 2.0) * np.exp(1j * spec.phi),
                     0.0], dtype=complex)


def block_basis(spec) -> np.ndarray:
    """E = [|b>, |a>], shape (3, 2): the driven block's basis, U2 = E^dag U E."""
    return np.stack([bright_state(spec), [0.0, 0.0, 1.0]], axis=1)


def _coupling(spec, duration: float, t) -> np.ndarray:
    """Bright-auxiliary coupling c(t) = <b|H|a> = Omega(t) e^{-i phi0(t)} / 2
    of the gate `spec` at cycle time `duration`.

    The two tones add up to H = c|b><a| + h.c.: <0|H|a> = c sin(theta/2) and
    <1|H|a> = -c cos(theta/2) e^{i phi}, since phi1 = phi0 + pi - phi. A
    static amplitude error scales it to (1+eps) c, which the kernel takes as
    its `scale`.
    """
    omega, phi0 = controls_arrays(spec, duration, t)
    return 0.5 * omega * np.exp(-1j * phi0)


def _su2_step(c: np.ndarray, dt: float, scale=1.0):
    """Cayley-Klein pair (a, b) of exp(-i dt s [[0, c], [c*, 0]]) for every
    coupling c and every real scale s; shape c.shape + np.shape(scale).

    The SU(2) matrix [[a, b], [-b*, a*]] has a = cos(s |c| dt) and
    b = -i sin(s |c| dt) c/|c|, which is -i sin(|sc| dt)/|sc| sc; at c = 0,
    b = 0. Only the angle and its sine and cosine carry the scale axis.
    """
    w = np.abs(c)
    phase = np.zeros_like(c)
    np.divide(c, w, out=phase, where=w > 0.0)
    phase = -1j * phase.reshape(phase.shape + (1,) * np.ndim(scale))
    theta = np.multiply.outer(w * dt, scale)
    a = np.cos(theta)
    return a, np.sin(theta, out=theta) * phase


def _ck_product(later, earlier):
    """(a, b) of U2 U1 for Cayley-Klein pairs later = (a2, b2), earlier = (a1, b1).
    np.conj's temporary goes on the left, where numpy puts it when it reuses a
    large one in place: the rounding then does not depend on the block size."""
    (a2, b2), (a1, b1) = later, earlier
    return a2 * a1 - np.conj(b1) * b2, a2 * b1 + np.conj(a1) * b2


def _ordered_product(steps: tuple, product: Callable[[tuple, tuple], tuple]) -> tuple:
    """Ordered product steps[-1] ... steps[0] over the leading axis by pairwise
    reduction, kept as an axis of length one so that a product of two results
    is an array product too (numpy scalars round differently). `steps` is a
    tuple of stacked factors, (a, b) closed or (m,) open, `product(later,
    earlier)` multiplies two such tuples, and trailing axes are a batch."""
    while steps[0].shape[0] > 1:
        n = steps[0].shape[0]
        even = n - n % 2
        paired = product(tuple(s[1:even:2] for s in steps),
                         tuple(s[0:even:2] for s in steps))
        if n % 2:
            paired = tuple(np.concatenate([p, s[-1:]], axis=0)
                           for p, s in zip(paired, steps))
        steps = paired
    return steps


def _embed(spec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Qutrit propagators |d><d| + E U2 E^dag, E = [|b>, |a>], for a batch of
    blocks U2 = [[a, b], [-b*, a*]]; shape a.shape + (3, 3).

    Evaluated as I + E (U2 - I) E^dag, which keeps the identity exact. On
    row-major vec, E X E^dag is (E (x) E*) vec(X).
    """
    e = block_basis(spec)
    x = np.stack([a - 1.0, b, -np.conj(b), np.conj(a) - 1.0], axis=-1)
    u = x @ np.kron(e, e.conj()).T + np.eye(3).reshape(-1)
    return u.reshape(np.shape(a) + (3, 3))


def _cf4_steps(coupling: Callable[[np.ndarray], np.ndarray], t1: float, steps: int,
               scale=1.0, start: int = 0, stop: Optional[int] = None):
    """Per-step fourth-order commutator-free propagators of the 2x2 block over [0, t1].

    `coupling(t)` returns the complex coupling c at an array of times; it is
    called once per Gauss node. The block is propagated under s c for every
    s in `scale` (a scalar, or an array that becomes a trailing batch axis).
    Each factor is the SU(2) step at a real combination of the two nodes'
    couplings. Returns Cayley-Klein arrays (a, b) of shape
    (stop - start,) + np.shape(scale) for the steps k in [start, stop) of the
    `steps` uniform steps (all of them by default), step k propagating over
    [k h, (k+1) h].
    """
    h = t1 / steps
    base = np.arange(start, steps if stop is None else stop) * h
    c1 = coupling(base + _GAUSS_C[0] * h)
    c2 = coupling(base + _GAUSS_C[1] * h)
    a1, a2 = _CF4_A
    first = _su2_step(a1 * c1 + a2 * c2, h, scale)   # acts first
    second = _su2_step(a2 * c1 + a1 * c2, h, scale)
    return _ck_product(second, first)


def _blockwise(make_steps: Callable[[int, int], tuple], start: int, stop: int,
               size: int, product: Callable[[tuple, tuple], tuple]) -> tuple:
    """`_ordered_product` of the steps `make_steps(start, stop)` with at most
    `size` steps made at a time.

    A range longer than `size` is split at the largest power of two below
    its length, the root of the pairwise reduction's own tree. With `size` a
    power of two the blocks form the tree of one reduction over the whole
    range, and its arithmetic too unless a factor array exceeds 256 KiB,
    where numpy multiplies a temporary in place, operands swapped.
    """
    if stop - start <= size:
        return _ordered_product(make_steps(start, stop), product)
    half = 1 << ((stop - start - 1).bit_length() - 1)
    return product(_blockwise(make_steps, start + half, stop, size, product),
                   _blockwise(make_steps, start, start + half, size, product))


def cf4(coupling: Callable[[np.ndarray], np.ndarray], t1: float, steps: int, scale=1.0):
    """Fourth-order commutator-free block propagator over [0, t1] as its
    Cayley-Klein pair (a, b), one per scale (see `_cf4_steps`). The steps are
    made and reduced at most `_CLOSED_BLOCK` (steps x scales) elements at a
    time, in blocks of a power of two steps (see `_blockwise`)."""
    size = 1 << (max(1, _CLOSED_BLOCK // np.size(scale)).bit_length() - 1)
    a, b = _blockwise(partial(_cf4_steps, coupling, t1, steps, scale),
                      0, steps, size, _ck_product)
    return a[0], b[0]


def check_steps(steps: int, n_samples: int):
    """Reject step counts below 2, odd, or coarser than `n_samples`, the
    sampling of the schedule they propagate over its full cycle."""
    if steps < 2 or steps % 2:
        raise ValueError(f"steps must be even and >= 2 (the phase jump must fall "
                         f"on a step boundary), got {steps}")
    if steps < n_samples:
        raise ValueError(f"steps = {steps} below schedule resolution {n_samples}")


def propagate_unitary(schedule: PulseSchedule, epsilon: Union[float, np.ndarray] = 0.0,
                      steps: int = DEFAULT_STEPS,
                      check: bool = True) -> PropagationResult:
    """Closed-system propagator over the full cycle [0, T].

    `epsilon` is a scalar or a 1-D array; an array propagates every point in
    one pass and returns `unitary` of shape (n, 3, 3) with per-point
    `truncation_error` and `converged` arrays. With check=True a pass at
    2 * (steps // 4) steps, even so that the phase jump at T/2 stays on a
    step boundary, estimates the truncation error; an estimate above 1e-6 is
    flagged (converged=False), never silently.
    """
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim > 1:
        raise ValueError(f"epsilon must be a scalar or a 1-D array, got shape {eps.shape}")
    check_steps(steps, schedule.n_samples)
    if check and steps < 4:
        raise ValueError(f"the truncation check needs steps >= 4, got {steps}")

    coupling = partial(_coupling, schedule.spec, schedule.duration)

    def block(n):
        return cf4(coupling, schedule.duration, n, 1.0 + eps)

    u = _embed(schedule.spec, *block(steps))
    err = np.zeros(eps.shape)
    if check:
        u_coarse = _embed(schedule.spec, *block(2 * (steps // 4)))
        err = np.max(np.abs(u - u_coarse), axis=(-2, -1))
    converged = err < 1e-6
    if eps.ndim == 0:
        err, converged = float(err), bool(converged)
    return PropagationResult(unitary=u, steps=steps, truncation_error=err,
                             converged=converged)


def survival_probability(schedule: PulseSchedule, epsilon: float,
                         steps: int = DEFAULT_STEPS // 2) -> float:
    """|<psi_0(T/2)|psi_eps(T/2)>|^2 for evolution of |b> over the first segment."""
    a, b = cf4(partial(_coupling, schedule.spec, schedule.duration), schedule.duration / 2.0,
               steps, np.array([1.0, 1.0 + epsilon]))
    # |b> is the first block basis vector, mapped to (a, -b*); E preserves
    # inner products
    overlap = np.conj(a[0]) * a[1] + b[0] * np.conj(b[1])
    return float(abs(overlap) ** 2)


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


# r = vec(Re rho + Im rho) = C vec(rho) on row-major vec; C^-1 = C*
_TRANSPOSE = np.eye(9)[np.arange(9).reshape(3, 3).T.reshape(-1)]
_TO_REAL = 0.5 * (1.0 - 1.0j) * np.eye(9) + 0.5 * (1.0 + 1.0j) * _TRANSPOSE
_FROM_REAL = _TO_REAL.conj()
# U2 - I = sum_k x_k G_k over x = (Re a - 1, Im a, Re b, Im b)
_SU2_GENERATORS = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]],
                            [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
# the products x_i x_j, i <= j, of (x_0 = 1, x) other than x_0 x_0
_PAIR_I, _PAIR_J = (k[1:] for k in np.triu_indices(5))


def _lift_coefficients(spec) -> np.ndarray:
    """Real K, shape (14, 81), with R(U) - I = F K for every block (a, b).

    R(U) = C (U (x) U*) C^-1 is the lift of rho -> U rho U^dag to the real
    coordinates, and U = sum_k x_k M_k with x_0 = 1, M_0 = I and
    M_k = E G_k E^dag, so U (x) U* = sum_{k,l} x_k x_l M_k (x) M_l*. Row p of K
    is the coefficient of the product F_p = x_i x_j, flattened row-major. It is
    real because R(U) is real for every real x.
    """
    e = block_basis(spec)
    m = np.concatenate([np.eye(3)[None], e @ _SU2_GENERATORS @ e.conj().T])
    lift = (m[:, None, :, None, :, None]
            * m.conj()[None, :, None, :, None, :]).reshape(5, 5, 9, 9)
    pair = (lift + lift.swapaxes(0, 1))[_PAIR_I, _PAIR_J]
    pair[_PAIR_I == _PAIR_J] /= 2.0
    return (_TO_REAL @ pair @ _FROM_REAL).real.reshape(14, 81)


def _strang_steps(coef: np.ndarray, a: np.ndarray, b: np.ndarray,
                  rates: np.ndarray, t: float) -> np.ndarray:
    """Real Strang steps E(t) R(U) E(t), E(t) = exp(D t), for a batch of
    blocks (a, b); shape (n, 9, 9).

    Entry (k, l) of a step carries the factor w_kl = exp(t (d_k + d_l)), so
    the step is diag(w) + F (K o w): the identity part of R(U) is added
    exactly. Every step repeats the rounding of w, which therefore builds up
    over the steps, so each w_kl is one exponential, rounded once.
    """
    x = np.stack([np.ones(a.shape), a.real - 1.0, a.imag, b.real, b.imag], axis=-1)
    w = np.exp(t * np.add.outer(rates, rates)).reshape(-1)
    steps = (x[:, _PAIR_I] * x[:, _PAIR_J]) @ (coef * w)
    steps[:, ::10] += w[::10]
    return steps.reshape(-1, 9, 9)


@lru_cache(maxsize=2)
def drive_steps(eta: float, scheme: str, omega_max: float, epsilon: float, steps: int,
                start: int, stop: int) -> tuple:
    """The drive of the path (eta, scheme) at peak Rabi rate omega_max,
    amplitude error epsilon and `steps` steps, over the full steps
    [start, stop): ((a, b) of their 2 (stop - start) half steps, (a, b) of the
    full steps), each full step the product of its two halves, under the
    coupling of the path with no phase jump (theta = phi = gamma = 0). The
    arrays are read-only, so the memo hands one block to every gate."""
    spec = (GateSpec.dynamical(0.0, 0.0, eta) if scheme == DYNAMICAL
            else GateSpec(0.0, 0.0, 0.0, eta, scheme))
    duration = compute_duration(spec, omega_max)
    a, b = _cf4_steps(partial(_coupling, spec, duration), duration, 2 * steps,
                      1.0 + epsilon, 2 * start, 2 * stop)
    full = _ck_product((a[1::2], b[1::2]), (a[0::2], b[0::2]))
    for x in (a, b, *full):
        x.flags.writeable = False
    return (a, b), full


def _jumped(b: np.ndarray, first: int, phase: complex) -> np.ndarray:
    """b with its entries from index `first` on multiplied by `phase`."""
    if first >= len(b) or phase == 1.0:
        return b
    b = b.copy()
    b[max(first, 0):] *= phase
    return b


def open_superoperator(schedule: PulseSchedule, noise: NoiseModel,
                       steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Full-cycle quantum channel as a 9x9 matrix on row-major vec(rho).

    Each step of length h is the Strang splitting S_h = E(h/2) R(U) E(h/2)
    of the exact dephasing factor E(t) = exp(D t) around the lift R(U) of the
    CF4 propagator U, Richardson-extrapolated to fourth order as
    (4 S_{h/2} S_{h/2} - S_h) / 3, in the real coordinates
    r = vec(Re rho + Im rho). The CF4 propagators of the 2*steps half steps
    and the steps full steps (each the product of its two halves) are the
    drive, which `drive_steps` makes for the schedule's own path one block at
    a time, or hands back from its memo of the last two blocks made in the
    process; a holonomic gate's phase jump multiplies their b by
    e^{i gamma} after T/2. Every factor preserves the trace, and so does
    their affine combination. The steps are made and reduced `_OPEN_BLOCK`
    at a time, so memory does not grow with `steps`.
    """
    check_steps(steps, schedule.n_samples)
    spec = schedule.spec
    phase = np.exp(1j * spec.gamma) if spec.scheme == HOLONOMIC else 1.0
    coef = _lift_coefficients(spec)
    h = schedule.duration / steps
    rates = _dephasing_rates(noise)

    def block(start, stop):
        # half steps from steps on, full steps from steps/2 on, lie after T/2
        (a, b), (fa, fb) = drive_steps(spec.eta, spec.scheme, schedule.omega_max,
                                       noise.epsilon, steps, start, stop)
        half = _strang_steps(coef, a, _jumped(b, steps - 2 * start, phase),
                             rates, 0.25 * h)
        full = _strang_steps(coef, fa, _jumped(fb, steps // 2 - start, phase),
                             rates, 0.5 * h)
        return ((4.0 * (half[1::2] @ half[0::2]) - full) / 3.0,)

    real, = _blockwise(block, 0, steps, _OPEN_BLOCK,
                       lambda later, earlier: (later[0] @ earlier[0],))
    return _FROM_REAL @ real[0] @ _TO_REAL


def trace_defect(superop: np.ndarray) -> float:
    """Deviation of the channel from trace preservation."""
    row = superop[0::4].sum(axis=0)     # the rows of rho_00, rho_11, rho_22
    return float(np.max(np.abs(row - np.eye(3).reshape(-1))))
