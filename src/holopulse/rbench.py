"""Reference and interleaved randomized benchmarking over the pulse pipeline.

Sequences of uniformly random Cliffords (optionally with a fixed gate
interleaved) are closed by an exact-inverse recovery gate; survival is the
population returned to |0>. When every gate is a Clifford, the recovery is
read from the Cayley table of the group (the inverse of the accumulated
index); a non-Clifford interleaved gate such as T takes it from `axis_angle`
of the accumulated product.

Every gate, the recovery included, is a 9x9 channel on row-major vec(rho)
from `GateCache`, so one survival loop serves every noise model: the lift
U (x) U* of the propagated unitary when closed (a static amplitude error),
the engine's open-system channel under dephasing, and in the synthetic
"exact" mode the lift of the ideal gate followed by a depolarizer. The cache
propagates only what the pulses tell apart: one block per gamma when closed,
one channel per (theta, gamma) under dephasing. A reference and an
interleaved run sharing a cache propagate the common gates once. Under
dephasing, the channels share the gate-independent CF4 steps through the
engine's memo (see `engine.drive_steps`).

Decay curves are fitted to F = A p^m + B by least squares over p in (0, 1],
with A and B solved linearly at each p (variable projection, numpy alone),
on at least 4 distinct lengths, since the three parameters fit 3 exactly;
average and per-gate fidelities follow from F_ave = 1 - (1 - p_ref)/2 and
F_gate = 1 - (1 - p_gate/p_ref)/2. `decay_rate` is p in the limit of many
sequences (Wallman, Quantum 2, 47, 2018; Proctor et al., PRL 119, 130502, 2017).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .engine import (NoiseModel, _embed, block_basis, check_steps, open_superoperator,
                     propagate_unitary)
from .gates import (_clifford_rotations, axis_angle, clifford_index, clifford_products,
                    clifford_table, target_unitary)
from .paths import DYNAMICAL
from .pulses import (OMEGA_MAX_DEFAULT, GateSpec, check_sampling, compute_duration,
                     synthesize)


@dataclass(frozen=True)
class RBConfig:
    lengths: tuple = (1, 2, 4, 8, 12, 16, 24, 32)
    n_sequences: int = 20
    shots: Optional[int] = None          # None: exact survival expectation
    seed: int = 0
    interleaved: Optional[GateSpec] = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    eta: float = 0.0
    omega_max: float = OMEGA_MAX_DEFAULT
    n_samples: int = 1024
    steps: int = 2048
    mode: str = "pulse"                  # "pulse" | "exact"
    depolarizing: float = 0.0            # synthetic channel in "exact" mode

    def __post_init__(self):
        if any(m < 1 for m in self.lengths):
            raise ValueError("sequence lengths must be >= 1")
        if len(set(self.lengths)) < 4:
            raise ValueError("need at least 4 distinct sequence lengths: the "
                             "three-parameter model A p^m + B interpolates 3 exactly")
        if self.n_sequences < 2:
            raise ValueError("need at least 2 sequences per length")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.mode not in ("pulse", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.depolarizing <= (1.0 if self.mode == "exact" else 0.0):
            raise ValueError("depolarizing must be 0, or in [0, 1] in exact mode, "
                             f"got {self.depolarizing}")
        clifford_table(self.eta)    # rejects a bad eta
        noise = self.noise
        if self.mode == "exact" and (noise.epsilon or noise.gamma_1a or noise.gamma_0a):
            raise ValueError("exact mode reads only the SPAM fields of noise; epsilon, "
                             "gamma_1a and gamma_0a must be 0")
        if self.mode == "pulse":
            check_sampling(self.n_samples)
            compute_duration(GateSpec(0.0, 0.0, 0.0, self.eta), self.omega_max)
            check_steps(self.steps, self.n_samples)


@dataclass
class RBCurve:
    lengths: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    a: float
    p: float
    b: float
    f_ave: float
    metadata: dict = field(default_factory=dict)


def build_sequence(m: int, rng, interleaved: Optional[GateSpec] = None, eta: float = 0.0):
    """m random Cliffords (+ optional interleaved gate) plus the recovery.

    Returns (gate_specs, recovery_spec); applying all gates in order acts as
    the identity on an ideal qubit, up to a global phase. The recovery is the
    Cayley-table inverse of the accumulated Clifford when every gate is a
    Clifford, else `axis_angle` of the inverse of the accumulated product.
    """
    if m < 1:
        raise ValueError("sequence length must be >= 1")
    table = clifford_table(eta)
    idx = rng.integers(0, len(table), size=m)
    specs = []
    for i in idx:
        specs.append(table[i].spec)
        if interleaved is not None:
            specs.append(interleaved)
    g = None if interleaved is None else target_unitary(interleaved)
    k = None if g is None else clifford_index(g)
    if g is None or k is not None:
        products = clifford_products()
        acc = 0
        for i in idx:
            acc = products[i][acc]
            if k is not None:
                acc = products[k][acc]
        return specs, table[acc].recovery
    acc = np.eye(2, dtype=complex)
    for i in idx:
        acc = g @ (table[i].matrix @ acc)
    return specs, axis_angle(acc.conj().T, eta=eta)


_DIGITS = 14


def _canonical_spec(spec: GateSpec) -> GateSpec:
    """The spec with its angles rounded to _DIGITS decimals, from which a cached
    channel is built, so that the channel depends on the rounded angles alone
    and not on which of several near-equal specs came first. A spec that
    rounding would carry out of GateSpec's domain (gamma = 2 pi) stays as is."""
    theta, phi, eta = (round(x, _DIGITS) for x in (spec.theta, spec.phi, spec.eta))
    try:
        if spec.scheme == DYNAMICAL:
            return GateSpec.dynamical(theta, phi, eta)
        return GateSpec(theta, phi, round(spec.gamma, _DIGITS), eta, spec.scheme)
    except ValueError:
        return spec


def _key(spec: GateSpec, config: RBConfig) -> tuple:
    """Everything that sets the channel of `spec` under `config`; n_samples sets
    none, since the engine reads the continuous control law."""
    return (spec, config.mode, config.depolarizing, config.noise, config.omega_max,
            config.steps)


def _depolarizer(d: float) -> np.ndarray:
    """rho -> (1 - d) rho + d Tr(rho) P/2, P = diag(1, 1, 0), on row-major vec."""
    vec_i = np.eye(3).reshape(-1)       # Tr rho = vec_i . vec(rho); vec(P) = vec_i - e_8
    return (1.0 - d) * np.eye(9) + 0.5 * d * np.outer(vec_i - np.eye(9)[8], vec_i)


class GateCache:
    """Per-gate channels: 9x9 superoperators on row-major vec(rho).

    One propagation serves every gate that differs from its representative,
    the canonical spec at phi = 0, only by an exact symmetry:
    - closed: the block U2 = E^dag U E depends on (gamma, eta, scheme) and
      epsilon alone, so the representative also has theta = 0, and each gate
      is the lift U (x) U* of the embedding U = |d><d| + E U2 E^dag of its
      block; in "exact" mode the block is the ideal diag(e^{i gamma},
      e^{-i gamma}), followed by the depolarizer;
    - dephased: Phi(theta, phi, gamma) = (R (x) R*) Phi(theta, 0, gamma)
      (R (x) R*)^dag with R = diag(1, e^{i phi}, 1), elementwise
      Phi[k, l] r_k conj(r_l) for the diagonal r of R (x) R*.
    Keyed on everything else that sets the channel, so one cache can serve
    several RB runs (reference and interleaved); a repeated spec returns its
    channel from a memo. The drive under dephasing is shared by the engine
    (see `engine.drive_steps`).
    """

    def __init__(self):
        self._channels = {}
        self._propagated = {}

    def channel(self, spec: GateSpec, config: RBConfig) -> np.ndarray:
        key = _key(spec, config)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = self._build(_canonical_spec(spec), config)
        return channel

    def _build(self, spec: GateSpec, config: RBConfig) -> np.ndarray:
        dephased = config.noise.dephased     # exact mode admits no dephasing
        rep = replace(spec, theta=spec.theta if dephased else 0.0, phi=0.0)
        key = _key(rep, config)
        if key not in self._propagated:
            self._propagated[key] = self._propagate(rep, config)
        if dephased:
            r = np.array([1.0, np.exp(1j * spec.phi), 1.0])
            r = np.outer(r, r.conj()).reshape(-1)      # the diagonal of R (x) R*
            return self._propagated[key] * np.outer(r, r.conj())
        u = _embed(spec, *self._propagated[key])
        lift = np.kron(u, u.conj())
        return _depolarizer(config.depolarizing) @ lift if config.depolarizing else lift

    def _propagate(self, rep: GateSpec, config: RBConfig):
        """The representative's 9x9 channel, or the Cayley-Klein pair (a, b) of
        its block U2 = E^dag U E when closed; in "exact" mode the ideal block,
        since the gate is |d><d| + e^{i gamma}|b><b|."""
        if config.mode == "exact":
            return np.exp(1j * rep.gamma), 0j
        sched = synthesize(rep, config.omega_max, config.n_samples)
        if config.noise.dephased:
            return open_superoperator(sched, config.noise, config.steps)
        u = propagate_unitary(sched, config.noise.epsilon, config.steps, check=False).unitary
        e = block_basis(rep)
        block = e.conj().T @ u @ e
        return block[0, 0], block[0, 1]


def _survival(specs, recovery, cache: GateCache, config: RBConfig) -> float:
    """Exact |0>-return probability of the sequence, with SPAM."""
    v = np.zeros(9, dtype=complex)      # row-major vec(rho)
    v[0], v[4] = 1.0 - config.noise.prep_error, config.noise.prep_error
    for spec in [*specs, recovery]:
        v = cache.channel(spec, config) @ v
    return float(config.noise.readout(np.real(v[0])))


def decay_rate(config: RBConfig, cache: GateCache) -> float:
    """Reference RB's decay p in the limit of many sequences, with no SPAM: the
    real part of the eigenvalue of largest modulus of the 27x27 mean over the
    Cliffords g of Phi_g (x) R_g, Phi_g the channel of g and R_g its Bloch rotation."""
    twirl = np.mean([np.kron(cache.channel(el.spec, config), r) for el, r
                     in zip(clifford_table(config.eta), _clifford_rotations())], axis=0)
    eigenvalues = np.linalg.eigvals(twirl)
    return float(np.real(eigenvalues[np.argmax(np.abs(eigenvalues))]))


class FitError(RuntimeError):
    """The least-squares decay lies at p -> 0, or rises with m (A < 0)."""


_SQRT_EPS = np.sqrt(np.finfo(float).eps)
# t = log(1 - p) from p = 1 - sqrt(eps) to p = sqrt(eps), spaced 0.009. At
# p = 1 - sqrt(eps) the double p still holds half the digits of 1 - p, and A,
# which grows as 1/(1 - p) toward a straight line, stays small enough that
# A p^m + B reproduces the fitted curve to about 1e-10.
_LOG_Q = np.linspace(np.log(_SQRT_EPS), np.log1p(-_SQRT_EPS), 2001)
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _projection(t, lengths, centred):
    """(RSS, A, mean of p^m) of the least-squares A and B at each t = log(1 - p).

    For fixed p the model is linear in A and B: with u = p^m - 1 (by expm1, to
    full precision near p = 1) and centred u, y, A = u.y / u.u and
    B = mean(y) - A mean(p^m). Where p^m underflows at every length, the
    centred u is 0 and so is A."""
    p = -np.expm1(t)
    u = np.expm1(np.multiply.outer(np.log(p), lengths))
    u_mean = u.mean(axis=-1)
    u = u - u_mean[..., None]
    uu = np.maximum(np.einsum("...i,...i->...", u, u), np.finfo(float).tiny)
    a = (u @ centred) / uu
    r = centred - a[..., None] * u
    return np.einsum("...i,...i->...", r, r), a, 1.0 + u_mean


def _golden_section(f, lo, hi):
    """The minimum of f on [lo, hi], by golden-section search down to rounding."""
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while lo < c < d < hi:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return c if fc <= fd else d


def fit_decay(lengths, means):
    """Unweighted least-squares fit of F = A p^m + B over p in (0, 1].

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973):
    A and B are linear, so the residual is a function of p alone. Its global
    minimum is found on a grid in log(1 - p) over [sqrt(eps), 1 - sqrt(eps)]
    and refined by golden-section search between the best point's neighbours.
    At the grid's end p = 1 - sqrt(eps) the optimum is the limit p -> 1 (a
    straight line, A -> infinity), and the fit returns that end. A curve whose
    spread is within sqrt(eps) of its size shows no decay: p = 1 and A = B =
    mean / 2, the minimum-norm split of a constant. Raises FitError when the
    optimum lies at p -> 0, or when A < 0.
    """
    lengths = np.asarray(lengths, dtype=float)
    means = np.asarray(means, dtype=float)
    mean = float(np.mean(means))
    centred = means - mean
    if np.linalg.norm(centred) <= _SQRT_EPS * np.linalg.norm(means):
        return mean / 2.0, 1.0, mean / 2.0
    k = int(np.argmin(_projection(_LOG_Q, lengths, centred)[0]))
    if k == len(_LOG_Q) - 1:
        raise FitError("the least-squares decay lies at p -> 0")
    t = _LOG_Q[0] if k == 0 else _golden_section(
        lambda s: _projection(s, lengths, centred)[0], _LOG_Q[k - 1], _LOG_Q[k + 1])
    _, a, x_mean = _projection(t, lengths, centred)
    if a < 0.0:
        raise FitError(f"fitted A = {float(a)} < 0: the curve rises with m")
    return float(a), float(-np.expm1(t)), float(mean - a * x_mean)


def average_fidelity(p_ref: float) -> float:
    return 1.0 - (1.0 - p_ref) / 2.0


def interleaved_gate_fidelity(p_ref: float, p_gate: float) -> float:
    return 1.0 - (1.0 - p_gate / p_ref) / 2.0


def run_rb(config: RBConfig, cache: Optional[GateCache] = None) -> RBCurve:
    """Run one RB experiment (reference, or interleaved when configured).

    Pass one `cache` to several runs to propagate each distinct gate once.
    """
    if cache is None:
        cache = GateCache()
    means, stds = [], []
    for m in config.lengths:
        fids = []
        for j in range(config.n_sequences):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=(config.seed, int(m), j)))
            specs, recovery = build_sequence(int(m), rng, config.interleaved, config.eta)
            f = _survival(specs, recovery, cache, config)
            if config.shots is not None:
                f = float(rng.binomial(config.shots, f)) / config.shots
            fids.append(f)
        means.append(float(np.mean(fids)))
        stds.append(float(np.std(fids)))
    lengths = np.asarray(config.lengths, dtype=int)
    means, stds = np.asarray(means), np.asarray(stds)
    a, p, b = fit_decay(lengths, means)
    metadata = {
        "interleaved": config.interleaved is not None,
        "mode": config.mode,
        "eta": config.eta,
        "seed": config.seed,
    }
    if config.interleaved is not None:
        # decay interpretation is approximate when the interleaved gate is
        # not itself a Clifford (e.g. T)
        metadata["interleaved_is_clifford"] = (
            clifford_index(target_unitary(config.interleaved)) is not None)
    return RBCurve(lengths=lengths, means=means, stds=stds, a=a, p=p, b=b,
                   f_ave=average_fidelity(p), metadata=metadata)


def curve_to_csv(curve: RBCurve, n_sequences: int) -> str:
    lines = ["m,mean_fidelity,std,n_sequences"]
    for m, mean, std in zip(curve.lengths, curve.means, curve.stds):
        lines.append("%d,%.17g,%.17g,%d" % (m, mean, std, n_sequences))
    return "\n".join(lines) + "\n"


def fit_summary(curve: RBCurve, p_ref: Optional[float] = None, p_spectral=None) -> str:
    """JSON-like text block with the fit parameters, derived fidelity and p_spectral."""
    lines = ["{",
             '  "A": %.12g,' % curve.a,
             '  "p": %.12g,' % curve.p,
             '  "B": %.12g,' % curve.b]
    if p_spectral is not None:
        lines.append('  "p_spectral": %.12g,' % p_spectral)
    if curve.metadata.get("interleaved") and p_ref is not None:
        lines.append('  "F_gate": %.12g,' % interleaved_gate_fidelity(p_ref, curve.p))
    else:
        lines.append('  "F_ave": %.12g,' % curve.f_ave)
    for key in sorted(curve.metadata):
        lines.append('  "%s": %s,' % (key, repr(curve.metadata[key]).lower()
                                      if isinstance(curve.metadata[key], bool)
                                      else repr(curve.metadata[key])))
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}")
    return "\n".join(lines) + "\n"
