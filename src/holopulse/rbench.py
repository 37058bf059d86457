"""Reference and interleaved randomized benchmarking over the pulse pipeline.

Sequences of uniformly random Cliffords (optionally with a fixed gate
interleaved) are closed by an exact-inverse recovery gate; survival is the
population returned to |0>. Every gate, the recovery included, is a 9x9
channel on row-major vec(rho), under every noise model. A run (`run_rb`)
reads, per length:
- its sequences from `GateCache.draw` (`_streams`), closed by
  `build_sequence`;
- its gates from `GateCache.channels`, one memo per noise model that a
  reference run, its interleaved run and `decay_rate` share, and whose
  builds the engine's memos serve (`engine.first_half_block` closed,
  `engine.first_half_channel` under dephasing); but the recoveries of a
  dephased run whose interleaved gate is not a Clifford come from the
  engine's theta series (`_series_channel`, `engine.first_half_series`);
- its survivals from `_survivals`, its sequences in lock-step;
and it fits the decay by `fit_decay`. `decay_rate` is p in the limit of
many sequences (Wallman, Quantum 2, 47, 2018; Proctor et al., PRL 119,
130502, 2017).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .engine import (NoiseModel, _conjugate_by_diagonal, _diagonal, _embed, _loop_channel,
                     _matmul, _ordered_product, check_steps, first_half_series,
                     open_superoperator, propagate_unitary)
from .gates import (_clifford_matrices, _clifford_rotations, axis_angle, clifford_index,
                    clifford_products, clifford_table, target_unitary)
from .paths import HOLONOMIC
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
        sizes = (*self.lengths, self.n_sequences, 1 if self.shots is None else self.shots,
                 self.seed)
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in sizes):
            raise ValueError("sequence lengths, n_sequences, shots and seed must be integers, "
                             f"got {self.lengths}, {self.n_sequences!r}, {self.shots!r} and "
                             f"{self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
            if self.interleaved is not None:    # it may carry its own eta
                compute_duration(self.interleaved, self.omega_max)
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


@lru_cache(maxsize=8)
def _interleaved(spec: GateSpec) -> tuple:
    """The interleaved gate g's `clifford_index` and read-only stack g @ C_i, (24, 2, 2)."""
    g = target_unitary(spec)
    stack = g @ _clifford_matrices()
    stack.flags.writeable = False
    return clifford_index(g), stack


def build_sequence(m: int, idx, interleaved: Optional[GateSpec] = None, eta: float = 0.0):
    """One sequence of m random Cliffords (+ optional interleaved gate) and its
    recovery per row of the drawn indices `idx`, all of one length at once.

    `idx` is the (n, m) int array of Clifford indices that `GateCache.draw`
    keeps, row j drawn from stream (seed, m, j). Returns (gates, recoveries):
    `gates` is an (n, L) int array into the run's gate stack (`_gate_stack`),
    `idx` itself for a reference run, else with the interleaved gate at 24
    after each Clifford, so a row reads [i0, 24, i1, 24, ...]; `recoveries`
    holds row j's recovery spec at j.
    Applying a row's gates and then its recovery acts as the identity on an
    ideal qubit, up to a global phase. The recovery is the Cayley-table
    inverse of the accumulated Clifford when every gate is a Clifford (a
    loop over Python ints per row), else `axis_angle` of the inverse of the
    accumulated product: one ordered product of the stacked g @ C_i at the
    drawn indices, (m, n, 2, 2) with the rows as its trailing batch, then
    one scalar `axis_angle` per row.
    """
    if m < 1:
        raise ValueError("sequence length must be >= 1")
    table = clifford_table(eta)
    gates = idx if interleaved is None else np.stack(
        [idx, np.full_like(idx, 24)], axis=-1).reshape(len(idx), 2 * m)
    k, stack = (None, None) if interleaved is None else _interleaved(interleaved)
    if interleaved is None or k is not None:
        products = clifford_products()
        recoveries = []
        for row in idx.tolist():
            acc = 0
            for i in row:
                acc = products[i][acc]
                if k is not None:
                    acc = products[k][acc]
            recoveries.append(table[acc].recovery)
        return gates, recoveries
    (acc,), = _ordered_product((stack[idx.T],), _matmul)
    return gates, [axis_angle(a.conj().T, eta=eta) for a in acc]


def _streams(seed: int, m: int, n: int) -> list:
    """The generators of the n sequences of length m: sequence j reads the
    stream (seed, m, j), the one `np.random.default_rng` makes of that
    entropy, built without its dispatch: its Cliffords by one
    `integers(0, 24, size=m)` (`GateCache.draw`), then its shots, if any
    (`run_rb`). Every run of a seed reads the same streams, so a reference
    run and its interleaved run draw the same Cliffords. The one place that
    makes a generator; `GateCache.draw` calls it once per (seed, m, n)."""
    return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, m, j))))
            for j in range(n)]


# the most channels one memo keeps, least recently used dropped first (about
# 1.5 kB each, 0.4 MB in all); an rb_dephasing-sized run builds fewer than 100
_CHANNEL_MEMO_SIZE = 256


def _settings(config: RBConfig) -> tuple:
    """Everything in `config` that sets a gate's channel; n_samples sets none,
    since the engine reads the continuous control law."""
    return config.mode, config.depolarizing, config.noise, config.omega_max, config.steps


def _depolarizer(d: float) -> np.ndarray:
    """rho -> (1 - d) rho + d Tr(rho) P/2, P = diag(1, 1, 0), on row-major vec."""
    vec_i = np.eye(3).reshape(-1)       # Tr rho = vec_i . vec(rho); vec(P) = vec_i - e_8
    return (1.0 - d) * np.eye(9) + 0.5 * d * np.outer(vec_i - np.eye(9)[8], vec_i)


class GateCache:
    """What the RB runs of one CLI call share: a memo of gate channels per
    noise model (`channels`) and each length's draw (`draw`, `streams`). The
    draws die with the cache."""

    def __init__(self):
        self._memos = {}
        self._draws = {}

    def channels(self, config: RBConfig):
        """The memoized spec -> channel (`_build_channel`) of `config`'s channel
        settings (`_settings`), read by every run on the cache with those
        settings: a reference run, its interleaved run and `decay_rate`. A run
        reads each gate of its stack (`_gate_stack`) and each recovery from it
        once. It keeps the last `_CHANNEL_MEMO_SIZE` (a dropped one is rebuilt
        bit for bit) and holds no reference to the cache, so a dropped cache
        is freed at once, without the cycle collector."""
        settings = _settings(config)
        if settings not in self._memos:
            memo = lru_cache(maxsize=_CHANNEL_MEMO_SIZE)(partial(_build_channel, config))
            self._memos[settings] = memo
        return self._memos[settings]

    def draw(self, seed: int, m: int, n: int) -> np.ndarray:
        """The read-only (n, m) Clifford indices of the n sequences of length m,
        row j one `integers(0, 24, size=m)` of stream (seed, m, j) (`_streams`),
        drawn on the first call for (seed, m, n), which also saves each
        stream's state after its draw (`bit_generator.state`)."""
        key = seed, m, n
        if key not in self._draws:
            rngs = _streams(seed, m, n)
            idx = np.array([rng.integers(0, 24, size=m) for rng in rngs])
            idx.flags.writeable = False
            self._draws[key] = idx, rngs, [rng.bit_generator.state for rng in rngs]
        return self._draws[key][0]

    def streams(self, seed: int, m: int, n: int) -> list:
        """The streams of `draw(seed, m, n)`, each restored to where its draw
        left it, so every run on the cache, a length repeated in a run and a
        rerun included, draws the shots a fresh cache would."""
        self.draw(seed, m, n)
        _, rngs, states = self._draws[seed, m, n]
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
        return rngs


def _build_channel(config: RBConfig, spec: GateSpec) -> np.ndarray:
    """The channel of `spec` under `config`, one engine call at that spec as
    given, with no rounding of its angles:
    - closed: the lift U (x) U* of its propagated unitary
      (`propagate_unitary`); in "exact" mode U is the ideal gate
      |d><d| + e^{i gamma}|b><b|, followed by the depolarizer;
    - dephased: Phi(theta, phi, gamma) = (R (x) R*) Phi(theta, 0, gamma)
      (R (x) R*)^dag (`_turned`), so that every phi of a theta reads the one
      first-half channel the engine makes and closes per gamma
      (`open_superoperator`)."""
    if config.noise.dephased:       # exact mode admits no dephasing
        sched = synthesize(replace(spec, phi=0.0), config.omega_max, config.n_samples)
        return _turned(spec.phi, open_superoperator(sched, config.noise, config.steps))
    if config.mode == "exact":
        u = _embed(spec, np.exp(1j * spec.gamma), 0j)
    else:
        sched = synthesize(spec, config.omega_max, config.n_samples)
        u = propagate_unitary(sched, config.noise.epsilon, config.steps, check=False).unitary
    lift = np.kron(u, u.conj())
    return _depolarizer(config.depolarizing) @ lift if config.depolarizing else lift


def _turned(phi, channel: np.ndarray) -> np.ndarray:
    """The channel of a gate at `phi` from that of its phi = 0 gate: (R (x) R*)
    channel (R (x) R*)^dag, R = diag(1, e^{i phi}, 1); for a stack, phi is
    an array."""
    return _conjugate_by_diagonal(channel, _diagonal(1, np.exp(1j * phi)))


def _series_channel(config: RBConfig, specs) -> np.ndarray:
    """The dephased channels (n, 9, 9) of holonomic `specs` at config.eta, as
    `axis_angle` gives them: the engine's theta series of the first half
    (`engine.first_half_series`), closed by the loop's mirror and turned to
    their phis, each step on the whole stack and each channel bit for bit
    what its spec alone would get; built anew each call.

    `run_rb` reads the recoveries of a dephased run whose interleaved gate is
    not a Clifford from here, a length's at once: each has a continuous theta
    of its own, which no memo would hit again, so no memo keeps them. The
    cache's channels are all direct builds, so a recovery one ulp from a
    Clifford's spec never reads a channel of the other kind, and which
    channels read the series is a function of the config alone: reference
    runs, Clifford gates and `decay_rate` never do, and a rerun in a warm
    process gives the bits of a fresh one."""
    noise = config.noise
    series = first_half_series(config.eta, config.omega_max, noise.epsilon, noise.gamma_1a,
                               noise.gamma_0a, config.steps)
    theta, phi, gamma = np.array([(s.theta, s.phi, s.gamma) for s in specs]).T
    return _turned(phi, _loop_channel(series(theta), HOLONOMIC, gamma, 0.0))


def _gate_stack(channel, eta: float, interleaved: Optional[GateSpec] = None) -> np.ndarray:
    """The read-only (24 [+1], 9, 9) stack of a run's gate channels, which
    `build_sequence`'s indices address: the Cliffords at `eta` in
    `clifford_table` order, then the interleaved gate, if any."""
    specs = [el.spec for el in clifford_table(eta)] + [interleaved] * (interleaved is not None)
    stack = np.array([channel(spec) for spec in specs])
    stack.flags.writeable = False
    return stack


def _survivals(gates, stack, recoveries, noise: NoiseModel) -> np.ndarray:
    """Exact |0>-return probabilities of equal-length sequences, with SPAM, in
    lock-step: the (n, 9, 1) stack of row-major vec(rho) advances by each
    column of `gates` (n, L), the indices into `stack` (`_gate_stack`), as
    v = stack[column] @ v, and last by the stacked `recoveries` (n, 9, 9)."""
    v = np.zeros((len(gates), 9, 1), dtype=complex)
    v[:, 0], v[:, 4] = 1.0 - noise.prep_error, noise.prep_error
    for column in gates.T:
        v = stack[column] @ v
    return noise.readout(np.real((recoveries @ v)[:, 0, 0]))


def decay_rate(config: RBConfig, cache: Optional[GateCache] = None) -> float:
    """Reference RB's decay p in the limit of many sequences, with no SPAM: the
    real part of the eigenvalue of largest modulus of the 27x27 mean over the
    Cliffords g of Phi_g (x) R_g, Phi_g the channel of g and R_g its Bloch
    rotation, one broadcast product of the Clifford stack (`_gate_stack`). It
    reads `cache.channels(config)`, so a run's channels serve it."""
    if cache is None:
        cache = GateCache()
    channels, r = _gate_stack(cache.channels(config), config.eta), _clifford_rotations()
    twirl = (channels[:, :, None, :, None] * r[:, None, :, None, :]).reshape(24, 27, 27).mean(0)
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
_TINY = np.finfo(float).tiny


def _basis(t, lengths):
    """(centred u, u.u, mean of u) at each t = log(1 - p), with u = p^m - 1 (by
    expm1, to full precision near p = 1) and u.u floored at the smallest
    normal double: the half of `_projection` that reads no data."""
    p = -np.expm1(t)
    u = np.expm1(np.multiply.outer(np.log(p), lengths))
    u_mean = u.mean(axis=-1)
    u = u - u_mean[..., None]
    return u, np.maximum(np.einsum("...i,...i->...", u, u), _TINY), u_mean


def _projection(t, lengths, centred, basis=None):
    """(RSS, A, mean of p^m) of the least-squares A and B at each t = log(1 - p).

    For fixed p the model is linear in A and B: with u = p^m - 1 and centred
    u, y, A = u.y / u.u and B = mean(y) - A mean(p^m). Where p^m underflows
    at every length, the centred u is 0 and so is A. `basis` is `_basis(t,
    lengths)` when the caller has it."""
    u, uu, u_mean = _basis(t, lengths) if basis is None else basis
    a = (u @ centred) / uu
    r = centred - a[..., None] * u
    return np.einsum("...i,...i->...", r, r), a, 1.0 + u_mean


@lru_cache(maxsize=4)
def _grid_basis(lengths: tuple) -> tuple:
    """The read-only `_basis` of `_LOG_Q` at `lengths` (a tuple of floats): the
    grid stage's data-independent terms, made once per set of lengths."""
    basis = _basis(_LOG_Q, np.array(lengths))
    for x in basis:
        x.flags.writeable = False
    return basis


def _rss(t, lengths, centred):
    """`_projection(t, lengths, centred)[0]` at one t, bit for bit: the same
    ufuncs on the 1-D arrays, with no broadcasting and the mean as its sum
    over the count, which is how `mean` takes it. It is a copy kept for
    speed: with `_projection` in its place the fits keep their bits, but a
    six-length fit takes about 30 % longer."""
    u = np.expm1(np.log(-np.expm1(t)) * lengths)
    u = u - np.add.reduce(u) / len(u)
    a = (u @ centred) / np.maximum(np.einsum("i,i->", u, u), _TINY)
    r = centred - a * u
    return np.einsum("i,i->", r, r)


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
    """Unweighted least-squares fit of F = A p^m + B over p in (0, 1], on numpy alone.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973):
    A and B are linear, so the residual is a function of p alone. Its global
    minimum is found on a grid in log(1 - p) over [sqrt(eps), 1 - sqrt(eps)],
    whose data-independent terms are memoized per set of lengths
    (`_grid_basis`), and refined by golden-section search between the best
    point's neighbours on the scalar residual (`_rss`).
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
    grid = _projection(_LOG_Q, lengths, centred, _grid_basis(tuple(lengths.tolist())))[0]
    k = int(np.argmin(grid))
    if k == len(_LOG_Q) - 1:
        raise FitError("the least-squares decay lies at p -> 0")
    t = _LOG_Q[0] if k == 0 else _golden_section(
        lambda s: _rss(s, lengths, centred), _LOG_Q[k - 1], _LOG_Q[k + 1])
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

    Pass one `cache` to several runs to propagate each distinct gate, and to
    draw each length's sequences, once.
    """
    if cache is None:
        cache = GateCache()
    channel = cache.channels(config)
    stack = _gate_stack(channel, config.eta, config.interleaved)
    clifford = config.interleaved is None or _interleaved(config.interleaved)[0] is not None
    series = config.noise.dephased and not clifford     # see `_series_channel`
    means, stds = [], []
    for m in config.lengths:
        key = config.seed, int(m), config.n_sequences
        gates, specs = build_sequence(int(m), cache.draw(*key), config.interleaved, config.eta)
        recoveries = (_series_channel(config, specs) if series
                      else np.array([channel(s) for s in specs]))
        fids = _survivals(gates, stack, recoveries, config.noise)
        if config.shots is not None:
            fids = np.array([rng.binomial(config.shots, f)
                             for rng, f in zip(cache.streams(*key), fids)]) / config.shots
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
        metadata["interleaved_is_clifford"] = clifford
    return RBCurve(lengths=lengths, means=means, stds=stds, a=a, p=p, b=b,
                   f_ave=average_fidelity(p), metadata=metadata)


def curve_to_csv(curve: RBCurve, n_sequences: int) -> str:
    lines = ["m,mean_fidelity,std,n_sequences"]
    for m, mean, std in zip(curve.lengths, curve.means, curve.stds):
        lines.append("%d,%.17g,%.17g,%d" % (m, mean, std, n_sequences))
    return "\n".join(lines) + "\n"


def fit_summary(curve: RBCurve, p_ref: Optional[float] = None, p_spectral=None) -> str:
    """JSON object with the fit parameters, derived fidelity, p_spectral and metadata."""
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
        lines.append('  "%s": %s,' % (key, json.dumps(curve.metadata[key])))
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}")
    return "\n".join(lines) + "\n"
