"""Propagation of the driven three-level system.

The two tones couple only the bright state |b> to |a>; the dark state |d>,
fixed by (theta, phi), never moves. The Hamiltonian is therefore
H(t) = (1+eps) c(t)|b><a| + h.c. with one complex scalar coupling c
(`_coupling`), and the closed dynamics is SU(2) on span{|b>, |a>}. Every
block propagator is kept as its Cayley-Klein pair (a, b),
U2 = [[a, b], [-b*, a*]] (`_su2_step`, `_ck_product`); U2 depends on the path
(gamma, eta, scheme) and eps only, and the qutrit propagator is its embedding
(`_embed`). An amplitude error only scales H, so a whole epsilon grid is one
batched pass of the fourth-order commutator-free kernel (`cf4`). The
pure-dephasing dissipator is diagonal on vec(rho), so its exponential is
elementwise, and the open kernel runs a gate as a real 9x9 channel split
around the same CF4 steps (`first_half_channel`). Both kernels reduce their
steps with one pairwise ordered product (`_ordered_product`), a block at a
time (`_blockwise`).

The loop is its own mirror, so every kernel makes only its first half
[0, T/2] and closes the loop with one identity (`_loop_block`,
`_loop_channel`). On the holonomic path c(T - t) = -c(t) e^{i gamma}, so the
second half is U2 = D U1^dag D^dag with D = diag(1, e^{-i gamma}) on
(|b>, |a>); on the dynamical path c(T - t) = c(t)*, so U2 = U1^T. The CF4
step, the Strang splitting and the Richardson combination are symmetric in
time, so this holds step by step in the discrete kernels too.

On [0, T/2] both paths have sign = 1 and no phase jump, so c depends on eta
and omega_max alone: the first half is the same for every gate at one eta,
whatever theta, phi, gamma or scheme, and theta enters an open channel only
through `_lift_coefficients`. Four memos in the process make what the gates
share once; each is a pure function of its key, hands out read-only arrays,
and gives its key, bound and size in its docstring:
- `first_half_block`, the closed first half, for `propagate_unitary` and
  `survival_probability`: one per eta serves every gate of a closed RB run
  and every `sideband` report (its n = 0 block is the theta = 0 gate's, its
  coupling times a constant phase).
- `drive_steps`, the open kernel's CF4 drive, for `first_half_channel`: one
  per eta serves every gate, holonomic or dynamical.
- `first_half_channel`, the open first half Phi1, for `open_superoperator`
  and `first_half_series`: one per (theta, phi) serves every gamma and
  scheme, as RB's dephased gates.
- `first_half_series`, Phi1 of every theta at one setting, for RB's
  recoveries of a dephased run whose interleaved gate is not a Clifford:
  each has a theta of its own, which no memo of first halves could share.

The coupling is evaluated from the schedule's continuous-time control law;
its sample table is only the export artifact. Basis order everywhere:
(|0>, |1>, |a>), hbar = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .paths import DYNAMICAL, controls_arrays
from .pulses import GateSpec, PulseSchedule, compute_duration

DEFAULT_STEPS = 8192

_SQ3 = np.sqrt(3.0)
_GAUSS_C = (0.5 - _SQ3 / 6.0, 0.5 + _SQ3 / 6.0)
_CF4_A = (0.25 + _SQ3 / 6.0, 0.25 - _SQ3 / 6.0)
# Steps made and reduced at a time, which bounds a propagation's memory to
# about 40 MB, whatever its steps or epsilon points. The closed kernel holds
# about 107 B per step and epsilon point: its block counts steps x points
# (28 MB; a scalar epsilon, about 145 B per step, 38 MB). The open kernel
# holds about 2.7 kB per step (11 MB), and its drive 96 B per step (0.4 MB a
# block). The kernels make the first half of the loop, so runs up to a
# 21-point sweep at 16384 steps, 2^19 closed or 8192 open steps are one
# block, whose arithmetic is that of an unblocked product.
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
    """(a, b) of U2 U1 for Cayley-Klein pairs later = (a2, b2), earlier = (a1, b1):
    four elementwise complex products. np.conj's temporary goes on the left,
    where numpy puts it when it reuses a large one in place: the rounding then
    does not depend on the block size."""
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


def _matmul(later: tuple, earlier: tuple) -> tuple:
    """`_ordered_product`'s product of one-matrix tuples (m,): later @ earlier,
    for the open kernel's 9x9 steps and RB's 2x2 recovery factors."""
    return (later[0] @ earlier[0],)


def _embed(spec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Qutrit propagators |d><d| + E U2 E^dag, E = [|b>, |a>], for a batch of
    blocks U2 = [[a, b], [-b*, a*]]; shape a.shape + (3, 3).

    Evaluated as I + E (U2 - I) E^dag, which keeps the identity exact. On
    row-major vec, E X E^dag is (E (x) E*) vec(X), here a broadcast outer
    product, whose entries are those of np.kron's bit for bit.
    """
    e = block_basis(spec)
    x = np.empty(np.shape(a) + (4,), dtype=complex)
    x[..., 0], x[..., 1] = a - 1.0, b
    x[..., 2], x[..., 3] = -np.conj(b), np.conj(a) - 1.0
    basis = (e[:, None, :, None] * e.conj()[None, :, None, :]).reshape(9, 4)
    u = x @ basis.T + np.eye(3).reshape(-1)
    return u.reshape(np.shape(a) + (3, 3))


def _cf4_steps(coupling: Callable[[np.ndarray], np.ndarray], t1: float, steps: int,
               scale=1.0, start: int = 0, stop: Optional[int] = None):
    """Per-step fourth-order commutator-free propagators of the 2x2 block over [0, t1].

    `coupling(t)` returns the complex coupling c at an array of times; it is
    called once per Gauss node. The block is propagated under s c for every
    s in `scale` (a scalar, or an array that becomes a trailing batch axis).
    Each step is two factors, each the SU(2) step at a real combination of
    the two nodes' couplings. Returns Cayley-Klein arrays (a, b) of shape
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
    `size` steps made at a time, so memory does not grow with the step count.

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


def _loop_block(spec, a, b) -> tuple:
    """(a, b) of the loop of the gate `spec` from the pair (a, b) of its first
    half: the second half is (a*, -b e^{i gamma}) when holonomic, (a, -b*)
    when dynamical."""
    if spec.scheme == DYNAMICAL:
        return _ck_product((a, -np.conj(b)), (a, b))
    return _ck_product((np.conj(a), -np.exp(1j * spec.gamma) * b), (a, b))


@lru_cache(maxsize=16)
def first_half_block(eta: float, omega_max: float, epsilon, steps: int) -> tuple:
    """The Cayley-Klein pair (a, b) of the first half [0, T/2] of every gate
    at eta, either scheme and any (theta, phi, gamma), at peak Rabi rate
    omega_max, amplitude error epsilon and `steps` steps over [0, T]: `cf4`
    over its steps/2 steps. `epsilon` is a float, or a tuple for a batch,
    whose pair has shape (n,): a 1-tuple rounds as a batch, not as the float.
    The arrays are read-only, so the memo hands one pair to every gate. It
    keeps the last 16 keys, about 1.1 kB each with a scalar epsilon and 64 B
    more per point of a batch (0.6 MB for the CLI's largest grid, 10^4
    points)."""
    spec = GateSpec(0.0, 0.0, 0.0, eta)
    duration = compute_duration(spec, omega_max)
    pair = cf4(partial(_coupling, spec, duration), duration / 2.0, steps // 2,
               1.0 + np.asarray(epsilon, dtype=float))
    for x in pair:
        if x.flags.writeable:       # a batch; a numpy scalar is read-only
            x.flags.writeable = False
    return pair


def check_steps(steps: int, n_samples: int):
    """Reject step counts below 2, odd, or coarser than `n_samples`, the
    sampling of the schedule they propagate over its full cycle."""
    if steps < 2 or steps % 2:
        raise ValueError(f"steps must be even and >= 2 (the loop's mirror point T/2 "
                         f"must fall on a step boundary), got {steps}")
    if steps < n_samples:
        raise ValueError(f"steps = {steps} below schedule resolution {n_samples}")


def propagate_unitary(schedule: PulseSchedule, epsilon: Union[float, np.ndarray] = 0.0,
                      steps: int = DEFAULT_STEPS,
                      check: bool = True) -> PropagationResult:
    """Closed-system propagator over the full cycle [0, T]: the first half
    (`first_half_block`, from its memo when another gate at eta made it),
    closed by `_loop_block`.

    `epsilon` is a scalar or a non-empty 1-D array; an array propagates every
    point in one pass and returns `unitary` of shape (n, 3, 3) with per-point
    `truncation_error` and `converged` arrays. With check=True a pass at
    2 * (steps // 4) steps, steps // 4 over each half, estimates the
    truncation error; an estimate above 1e-6 is flagged (converged=False),
    never silently.
    """
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim > 1 or eps.size == 0:
        raise ValueError(f"epsilon must be a scalar or a non-empty 1-D array, "
                         f"got shape {eps.shape}")
    check_steps(steps, schedule.n_samples)
    if check and steps < 4:
        raise ValueError(f"the truncation check needs steps >= 4, got {steps}")

    spec = schedule.spec
    key = float(eps) if eps.ndim == 0 else tuple(eps.tolist())

    def unitary(n):
        first = first_half_block(spec.eta, schedule.omega_max, key, n)
        return _embed(spec, *_loop_block(spec, *first))

    u = unitary(steps)
    err = np.zeros(eps.shape)
    if check:
        err = np.max(np.abs(u - unitary(2 * (steps // 4))), axis=(-2, -1))
    converged = err < 1e-6
    if eps.ndim == 0:
        err, converged = float(err), bool(converged)
    return PropagationResult(unitary=u, steps=steps, truncation_error=err,
                             converged=converged)


def survival_probability(schedule: PulseSchedule, epsilon: float,
                         steps: int = DEFAULT_STEPS // 2) -> float:
    """|<psi_0(T/2)|psi_eps(T/2)>|^2 for evolution of |b> over the first
    segment in `steps` steps, from the first half's memo (`first_half_block`)."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    a, b = first_half_block(schedule.spec.eta, schedule.omega_max, (0.0, float(epsilon)),
                            2 * steps)
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


# vec(rho^T) = vec(rho)[_SWAP]; r = vec(Re rho + Im rho) = C vec(rho), C^-1 = C*,
# with C = (1-i)/2 I + (1+i)/2 T, T the transpose permutation. The dissipator
# is diagonal on vec(rho) and symmetric under T, so its exponential is the
# same elementwise factor on r.
_SWAP = np.arange(9).reshape(3, 3).T.reshape(-1)
_TO_REAL = 0.5 * (1.0 - 1.0j) * np.eye(9) + 0.5 * (1.0 + 1.0j) * np.eye(9)[_SWAP]
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
    real because R(U) is real for every real x, and it is made once per gate,
    from the gate's |b> (`block_basis`).
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
    blocks (a, b), by one real (n x 14) @ (14 x 81) product; shape (n, 9, 9).

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
def drive_steps(eta: float, omega_max: float, epsilon: float, steps: int,
                start: int, stop: int) -> tuple:
    """The drive at eta, peak Rabi rate omega_max, amplitude error epsilon
    and `steps` steps over [0, T], over the full steps [start, stop) of the
    first half: ((a, b) of their 2 (stop - start) half steps, (a, b) of the
    full steps, each the product of its two halves), for every gate at eta.
    The arrays are read-only, so the memo hands one block to every gate.

    A block is `_OPEN_BLOCK` steps of the first half, and the memo keeps the
    last two (0.8 MB). So a run of up to two blocks (steps <= 4 *
    `_OPEN_BLOCK`) makes one drive per eta; above two blocks the memo cycles,
    and each channel makes its own."""
    spec = GateSpec(0.0, 0.0, 0.0, eta)
    duration = compute_duration(spec, omega_max)
    a, b = _cf4_steps(partial(_coupling, spec, duration), duration, 2 * steps,
                      1.0 + epsilon, 2 * start, 2 * stop)
    full = _ck_product((a[1::2], b[1::2]), (a[0::2], b[0::2]))
    for x in (a, b, *full):
        x.flags.writeable = False
    return (a, b), full


@lru_cache(maxsize=128)
def first_half_channel(theta: float, phi: float, eta: float, omega_max: float,
                       epsilon: float, gamma_1a: float, gamma_0a: float,
                       steps: int) -> np.ndarray:
    """Phi1, the channel of the first half [0, T/2] of every gate (theta,
    phi, eta), either scheme and any gamma, at peak Rabi rate omega_max,
    amplitude error epsilon, dephasing rates gamma_1a and gamma_0a, and
    `steps` steps over [0, T]: a read-only complex 9x9 on row-major vec(rho).

    Each step of length h is the Strang splitting S_h = E(h/2) R(U) E(h/2)
    of the exact dephasing factor E(t) = exp(D t) around the lift R(U) of the
    CF4 propagator U, Richardson-extrapolated to fourth order as
    (4 S_{h/2} S_{h/2} - S_h) / 3, in the real coordinates
    r = vec(Re rho + Im rho). The steps/2 steps are made from the drive
    (`drive_steps`) and reduced `_OPEN_BLOCK` at a time, so memory does not
    grow with `steps`. Every factor preserves the trace, and so does their
    affine combination.

    The memo keeps the last 128 keys (about 1.7 kB each with its key,
    0.2 MB). A default dephased RB run, reference and interleaved T and its
    `decay_rate`, makes 12 of them (RB seeds 0 to 5): the nine nodes j pi / 8
    of one theta series, which hold 4 of the Cliffords' 7 thetas, and the
    other 3.
    """
    spec = GateSpec(theta, phi, 0.0, eta)
    coef = _lift_coefficients(spec)
    h = compute_duration(spec, omega_max) / steps
    rates = _dephasing_rates(NoiseModel(gamma_1a=gamma_1a, gamma_0a=gamma_0a))

    def block(start, stop):
        half, full = drive_steps(eta, omega_max, epsilon, steps, start, stop)
        half = _strang_steps(coef, *half, rates, 0.25 * h)
        full = _strang_steps(coef, *full, rates, 0.5 * h)
        return ((4.0 * (half[1::2] @ half[0::2]) - full) / 3.0,)

    real, = _blockwise(block, 0, steps // 2, _OPEN_BLOCK, _matmul)
    first = _FROM_REAL @ real[0] @ _TO_REAL
    first.flags.writeable = False
    return first


def _diagonal(k: int, phase) -> np.ndarray:
    """A diagonal of ones with `phase` at k: (3,), or (..., 3) for an array of phases."""
    d = np.ones((*np.shape(phase), 3), dtype=complex)
    d[..., k] = phase
    return d


def _conjugate_by_diagonal(channel: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(D (x) D*) channel (D (x) D*)^dag on row-major vec for D = diag(d): the
    elementwise channel[k, l] r_k conj(r_l), r the diagonal of D (x) D*, for
    one channel or a stack of them, with one d or a stack (..., 3) of them."""
    r = (d[..., :, None] * d.conj()[..., None, :]).reshape(*d.shape[:-1], 9)
    return channel * (r[..., :, None] * r.conj()[..., None, :])


# the first and the largest sample count of the theta series, and the tail
# it must reach (see `first_half_series`)
_SERIES_MIN = 32
_SERIES_MAX = 256
_SERIES_TOL = 1e-13
# Phi1(theta + 2 pi) = P^ Phi1(theta) P^dag and Phi1(-theta) = D^ Phi1(theta) D^dag
_SHIFT = np.array([1.0, 1.0, -1.0])         # P
_MIRROR = np.array([-1.0, 1.0, 1.0])        # D


def _series_samples(built: np.ndarray) -> np.ndarray:
    """Phi1 at theta_j = 4 pi j / n, j = 0 ... n - 1, from the n/4 + 1 builds
    `built` at theta_j in [0, pi]: theta in (pi, 2 pi] is 2 pi - theta_j, in
    (2 pi, 3 pi] 2 pi + theta_j, and in (3 pi, 4 pi) -theta_j."""
    back = built[::-1]
    return np.concatenate([built, _conjugate_by_diagonal(back[1:], _SHIFT * _MIRROR),
                           _conjugate_by_diagonal(built[1:], _SHIFT),
                           _conjugate_by_diagonal(back[1:-1], _MIRROR)])


@dataclass(frozen=True)
class FirstHalfSeries:
    """Phi1(theta, phi = 0) of one setting as the Fourier series
    sum_k c_k e^{i k theta / 2} over k = -n/2 ... n/2 of its n samples, or,
    when `direct` (see `first_half_series`), as direct builds.

    `tail` is the sum over |k| > 3n/8 of the largest entry of c_k. Past
    harmonic 4 of the half-angle the coefficients fall geometrically, so the
    top quarter of the harmonics bounds what aliases into the series."""
    key: tuple                  # (eta, omega_max, epsilon, gamma_1a, gamma_0a, steps)
    coefficients: np.ndarray    # (n + 1, 81), read-only
    tail: float
    direct: bool

    def evaluate(self, theta: np.ndarray) -> np.ndarray:
        """The series at each theta of an array, a stack (n, 9, 9) on
        row-major vec(rho), as a stacked mat-vec: it rounds each theta as
        e(theta) @ c alone does, which one (n, K) @ (K, 81) product would not."""
        half = len(self.coefficients) // 2
        e = np.exp(0.5j * theta[:, None] * np.arange(-half, half + 1))
        return (e[:, None] @ self.coefficients).reshape(-1, 9, 9)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Phi1 at each theta of an array and phi = 0: the series, or direct builds."""
        if self.direct:
            return np.stack([first_half_channel(t, 0.0, *self.key) for t in theta.tolist()])
        return self.evaluate(theta)


def _fourier(samples: np.ndarray) -> tuple:
    """(c, tail) of the n samples over [0, 4 pi): c_k for k = -n/2 ... n/2,
    the Nyquist term split between its two ends, by one DFT matrix product."""
    n = len(samples)
    harmonics = np.arange(-(n // 2), n // 2 + 1)
    dft = np.exp(-2j * np.pi * (np.multiply.outer(harmonics, np.arange(n)) % n) / n) / n
    dft[[0, -1]] /= 2.0
    coef = dft @ samples.reshape(n, 81)
    tail = float(np.abs(coef[np.abs(harmonics) > 3 * n // 8]).max(axis=1).sum())
    return coef, tail


@lru_cache(maxsize=4)
def first_half_series(eta: float, omega_max: float, epsilon: float, gamma_1a: float,
                      gamma_0a: float, steps: int) -> FirstHalfSeries:
    """Phi1(theta, 0) for every theta at one setting (the arguments of
    `first_half_channel` but theta and phi), as a `FirstHalfSeries`.

    At phi = 0, theta enters Phi1 only through `_lift_coefficients`, a trig
    polynomial of theta/2, so Phi1 is 4 pi-periodic in theta. Its n samples
    over [0, 4 pi) come from the n/4 + 1 `first_half_channel` builds in
    [0, pi] by two exact diagonal symmetries (`_series_samples`), which both
    commute with the dephasing. From n = `_SERIES_MIN` = 32, 9 builds at
    theta = j pi / 8, the samples double while the tail exceeds `_SERIES_TOL`
    = 1e-13, reusing every earlier build; a setting still above it at
    `_SERIES_MAX` = 256 samples gets direct builds (`direct`). Which of the
    two a setting gets depends on its key alone. The memo keeps the last 4
    settings (about 43 kB each at 32 samples, 0.3 MB at 256)."""
    key = (eta, omega_max, epsilon, gamma_1a, gamma_0a, steps)
    quarter = _SERIES_MIN // 4

    def builds(thetas):
        return np.stack([first_half_channel(t, 0.0, *key) for t in thetas])

    built = builds([np.pi * j / quarter for j in range(quarter + 1)])
    while True:
        coef, tail = _fourier(_series_samples(built))
        if tail <= _SERIES_TOL or 8 * quarter > _SERIES_MAX:
            coef.flags.writeable = False
            return FirstHalfSeries(key, coef, tail, direct=tail > _SERIES_TOL)
        finer = np.empty((2 * quarter + 1, 9, 9), dtype=complex)
        finer[0::2] = built
        finer[1::2] = builds([np.pi * (2 * j + 1) / (2 * quarter) for j in range(quarter)])
        built, quarter = finer, 2 * quarter


def _loop_channel(first: np.ndarray, scheme: str, gamma, phi) -> np.ndarray:
    """The loop's channel Phi2 Phi1 on row-major vec(rho) from its first
    half's Phi1, for one gate of `scheme`, or for a stack of first halves
    whose gamma and phi are arrays.

    The closed mirror (see the module docstring) carries over: on the qutrit,
    D is P = diag(1, 1, e^{-i gamma}), and the transpose is conjugated by
    R = diag(1, e^{2i phi}, 1). Both commute with the dissipator, so the
    second half's channel is P^ (T Phi1^T T) P^dag or R^ Phi1^T R^dag, with
    T the transpose permutation, P^ = P (x) P* and R^ = R (x) R* applied as
    elementwise phases (`_conjugate_by_diagonal`)."""
    second = first.swapaxes(-1, -2)
    if scheme == DYNAMICAL:
        d = _diagonal(1, np.exp(2j * phi))
    else:
        d, second = _diagonal(2, np.exp(-1j * gamma)), second[..., _SWAP, :][..., _SWAP]
    return _conjugate_by_diagonal(second, d) @ first


def open_superoperator(schedule: PulseSchedule, noise: NoiseModel,
                       steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Full-cycle quantum channel as a 9x9 matrix on row-major vec(rho): the
    first half's channel (`first_half_channel`, from its memo when another
    gamma or scheme of the gate made it), closed by `_loop_channel`."""
    check_steps(steps, schedule.n_samples)
    spec = schedule.spec
    first = first_half_channel(spec.theta, spec.phi, spec.eta, schedule.omega_max,
                               noise.epsilon, noise.gamma_1a, noise.gamma_0a, steps)
    return _loop_channel(first, spec.scheme, spec.gamma, spec.phi)


def trace_defect(superop: np.ndarray) -> float:
    """Deviation of the channel from trace preservation."""
    row = superop[0::4].sum(axis=0)     # the rows of rho_00, rho_11, rho_22
    return float(np.max(np.abs(row - np.eye(3).reshape(-1))))
