import gc
import importlib.util
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from holopulse import engine, rbench
from holopulse.engine import NoiseModel, dephasing_from_t2
from holopulse.gates import axis_angle, clifford_products, clifford_table, target_unitary
from holopulse.pulses import GateSpec, named_gate
from holopulse.rbench import (FitError, GateCache, RBConfig, average_fidelity,
                              build_sequence, curve_to_csv, decay_rate,
                              fit_decay, interleaved_gate_fidelity, run_rb)


def _closes(gates, recovery, gate_specs, phase_equivalent, eta=0.0, interleaved=None):
    """Whether one row of gates and its recovery make the identity, up to a phase."""
    acc = np.eye(2, dtype=complex)
    for s in gate_specs(gates, eta, interleaved) + [recovery]:
        acc = target_unitary(s) @ acc
    return phase_equivalent(acc, np.eye(2), tol=1e-9)


def _draw(rngs, m):
    """The (n, m) Clifford indices that `GateCache.draw` takes from `rngs`."""
    return np.array([rng.integers(0, 24, size=m) for rng in rngs])


def test_build_sequence_inverts(gate_specs, phase_equivalent):
    rngs = [np.random.default_rng(j) for j in range(3)]
    for m in (1, 3, 8):
        gates, recoveries = build_sequence(m, _draw(rngs, m))
        assert gates.dtype.kind == "i" and gates.shape == (3, m) and np.all(gates < 24)
        assert len(recoveries) == 3
        assert all(_closes(row, r, gate_specs, phase_equivalent)
                   for row, r in zip(gates, recoveries))


def test_build_sequence_interleaved_inverts(gate_specs, phase_equivalent):
    # the interleaved gate is index 24 of the run's stack, after each Clifford
    t_gate = named_gate("T")
    gates, recoveries = build_sequence(4, _draw([np.random.default_rng(j) for j in (1, 2)], 4),
                                       interleaved=t_gate)
    assert gates.shape == (2, 8) and len(recoveries) == 2
    assert np.all(gates[:, 0::2] < 24) and np.all(gates[:, 1::2] == 24)
    assert all(_closes(row, r, gate_specs, phase_equivalent, 0.0, t_gate)
               for row, r in zip(gates, recoveries))


@pytest.mark.parametrize("interleaved", [
    named_gate("T"), GateSpec.dynamical(1.1, 0.4, 0.3), GateSpec(0.7, -2.1, 1.3, 0.2)])
def test_pairwise_recovery_product_matches_the_sequential_one(interleaved):
    # the ordered product of the stacked g @ C_i at the drawn indices, taken
    # as a tree of pairs, against g @ (C_i @ acc) accumulated gate by gate
    g = target_unitary(interleaved)
    k, stack = rbench._interleaved(interleaved)
    assert k is None        # a non-Clifford: its recovery takes the product
    matrices = [el.matrix for el in clifford_table()]
    rng = np.random.default_rng(11)
    for m in (*range(1, 10), 16, 31, 32, 33, 63, 64):
        idx = rng.integers(0, 24, size=m)
        acc = np.eye(2, dtype=complex)
        for i in idx:
            acc = g @ (matrices[i] @ acc)
        (pairwise,), = engine._ordered_product((stack[idx],), engine._matmul)
        assert np.max(np.abs(pairwise - acc)) <= 1e-14


def test_a_lock_step_survival_does_not_depend_on_its_batch():
    noise = NoiseModel(gamma_1a=100.0, gamma_0a=10.0, prep_error=0.01,
                       detection_error_bright=0.02, detection_error_dark=0.03)
    cfg = RBConfig(eta=0.2, noise=noise, n_samples=256, steps=512,
                   interleaved=named_gate("T", eta=0.2))
    channel = GateCache().channels(cfg)
    stack = rbench._gate_stack(channel, cfg.eta, cfg.interleaved)
    gates, specs = build_sequence(6, _draw([np.random.default_rng(j) for j in range(5)], 6),
                                  cfg.interleaved, cfg.eta)
    recoveries = np.stack([channel(recovery) for recovery in specs])
    batch = rbench._survivals(gates, stack, recoveries, noise)
    alone = [rbench._survivals(gates[j:j + 1], stack, recoveries[j:j + 1], noise)[0]
             for j in range(len(gates))]
    assert batch.tolist() == alone
    assert np.all((0.0 < batch) & (batch < 1.0))


def _spec_bits(spec):
    return np.array([spec.theta, spec.phi, spec.gamma, spec.eta]).tobytes(), spec.scheme


@pytest.mark.parametrize("eta", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("name", [None, "X", "T"])
def test_one_call_per_length_is_each_sequence_built_alone(name, eta):
    # the cache's draw of a length, closed at once, gives each row the
    # indices, layout and recovery of that sequence built on its own from its
    # default_rng twin: the Cayley inverse over Python ints for a Clifford
    # run, axis_angle of the sequence's own ordered product for T; and each
    # stream is left where its twin is, so the shots draw the same binomials
    interleaved = None if name is None else named_gate(name, eta)
    table, products = clifford_table(eta), clifford_products()
    k, stack = (None, None) if name is None else rbench._interleaved(interleaved)
    assert name is None or (k is None) == (name == "T")
    seed = 12345
    for m in (1, 2, 3, 7, 32):
        for n in (2, 10):
            cache = GateCache()
            idx = cache.draw(seed, m, n)
            assert idx.shape == (n, m) and not idx.flags.writeable
            gates, recoveries = build_sequence(m, idx, interleaved, eta)
            rngs = cache.streams(seed, m, n)
            assert gates.dtype == np.int64 and len(recoveries) == n
            for j, (row, recovery, rng) in enumerate(zip(gates, recoveries, rngs)):
                twin = np.random.default_rng(np.random.SeedSequence((seed, m, j)))
                idx = twin.integers(0, 24, size=m)
                alone = idx if name is None else np.array([idx, np.full(m, 24)]).T.ravel()
                assert row.tobytes() == alone.tobytes()
                if name == "T":
                    (acc,), = engine._ordered_product((stack[idx],), engine._matmul)
                    expected = axis_angle(acc.conj().T, eta=eta)
                else:
                    acc = 0
                    for i in idx.tolist():
                        acc = products[i][acc]
                        acc = acc if k is None else products[k][acc]
                    expected = table[acc].recovery
                assert _spec_bits(recovery) == _spec_bits(expected)
                assert rng.binomial(1000, 0.37) == twin.binomial(1000, 0.37)


def _random_curves(rng, count):
    """`count` decays A p^m + B with noise, at 4 to 8 distinct lengths up to 64."""
    for _ in range(count):
        size = rng.integers(4, 9)
        lengths = np.sort(rng.choice(np.arange(1, 65), size, replace=False)).astype(float)
        a, p, b = rng.uniform(0.1, 0.6), rng.uniform(0.5, 1.0), rng.uniform(0.3, 0.6)
        means = a * p ** lengths + b + rng.normal(0.0, 10.0 ** rng.uniform(-6, -1), size)
        yield lengths, means - np.mean(means)


def test_the_memoized_grid_is_the_projections_bit_for_bit():
    # the grid stage's data-independent terms, read from the memo by lengths,
    # give the residual of the whole projection at every grid point; every
    # other draw reuses one of two sets of lengths, so the memo hits and misses
    rng = np.random.default_rng(22)
    rbench._grid_basis.cache_clear()
    sets = [lengths for lengths, _ in _random_curves(rng, 2)]
    for i, (lengths, centred) in enumerate(_random_curves(rng, 2000)):
        if i % 2:
            lengths = sets[i // 2 % 2]
            centred = rng.normal(0.0, 0.1, len(lengths))
        basis = rbench._grid_basis(tuple(lengths.tolist()))
        assert not any(x.flags.writeable for x in basis)
        memoized = rbench._projection(rbench._LOG_Q, lengths, centred, basis)[0]
        assert memoized.tobytes() == rbench._projection(rbench._LOG_Q, lengths, centred)[0].tobytes()
    info = rbench._grid_basis.cache_info()
    assert info.hits > 0 and info.currsize <= info.maxsize


def _search(lengths, centred):
    """(t, k, evaluations) of `fit_decay`'s search on a centred decaying curve,
    by `_projection` alone: the whole grid and every step of Brent's method
    through the broadcast form, with no memo. k is the grid's best index; at
    either end of the grid there is no search, and t is that end."""
    grid = rbench._LOG_Q
    residual = rbench._projection(grid, lengths, centred)[0]
    k = int(np.argmin(residual))
    calls = []

    def f(s):
        calls.append(s)
        return rbench._projection(s, lengths, centred)[0]

    t = grid[k] if k in (0, len(grid) - 1) else rbench._brent(
        f, grid[k - 1:k + 2], residual[k - 1:k + 2])
    return t, k, len(calls)


def _projection_fit(lengths, means):
    """`fit_decay` of a decaying curve by `_projection` alone (`_search`)."""
    lengths, means = np.asarray(lengths, dtype=float), np.asarray(means, dtype=float)
    mean = float(np.mean(means))
    centred = means - mean
    t, _, _ = _search(lengths, centred)
    _, a, x_mean = rbench._projection(t, lengths, centred)
    return float(a), float(-np.expm1(t)), float(mean - a * x_mean)


@pytest.fixture(scope="module")
def rb_dephasing_curves():
    """The 24 curves (reference and T-interleaved, shots on) that `fit_decay`
    reads in rb_dephasing jobs 0-11 at benchmark seed 1."""
    curves = []
    fit = rbench.fit_decay

    def recorded(lengths, means):
        curves.append((lengths, means))
        return fit(lengths, means)

    workloads = _workloads()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rbench, "fit_decay", recorded)
        for index in range(12):
            (command, job, seed), = workloads.draw_job("rb_dephasing", 1, index)
            cfg = _job_config(job, seed)
            cache = GateCache()
            run_rb(replace(cfg, interleaved=None), cache)
            run_rb(cfg, cache)
    assert len(curves) == 24
    return curves


def test_fit_decay_is_the_projections_fit_on_rb_dephasing_curves(rb_dephasing_curves):
    for lengths, means in rb_dephasing_curves:
        assert fit_decay(lengths, means) == _projection_fit(lengths, means)


def test_brent_search_reaches_the_residuals_minimum_on_rb_dephasing_curves(rb_dephasing_curves):
    # each fitted residual is the least of 20 001 points spanning its bracket
    # to rounding, within 20 evaluations; the grid-end fits make no search
    searched = 0
    for lengths, means in rb_dephasing_curves:
        lengths, means = np.asarray(lengths, dtype=float), np.asarray(means, dtype=float)
        centred = means - np.mean(means)
        t, k, evaluations = _search(lengths, centred)
        if k == 0:
            assert evaluations == 0
            continue
        searched += 1
        dense = np.linspace(rbench._LOG_Q[k - 1], rbench._LOG_Q[k + 1], 20001)
        least = rbench._projection(dense, lengths, centred)[0].min()
        assert rbench._projection(t, lengths, centred)[0] <= least * (1.0 + 1e-12)
        assert evaluations <= 20
    assert searched >= 12


def test_brent_search_ends_on_random_curves():
    # Brent's method falls back to golden-section steps, so it ends however
    # rough the residual; the most these draws take is 48 evaluations
    rng = np.random.default_rng(23)
    searched = 0
    for lengths, centred in _random_curves(rng, 2000):
        t, k, evaluations = _search(lengths, centred)
        if 0 < k < len(rbench._LOG_Q) - 1:
            searched += 1
            assert rbench._LOG_Q[k - 1] <= t <= rbench._LOG_Q[k + 1]
            assert evaluations <= 64
    assert searched > 1500


def test_fit_decay_recovers_parameters():
    m = np.array([1, 2, 4, 8, 16, 32, 64])
    a, p, b = 0.47, 0.97, 0.51
    y = a * p ** m + b
    af, pf, bf = fit_decay(m, y)
    assert pf == pytest.approx(p, abs=1e-8)
    assert af == pytest.approx(a, abs=1e-6)
    assert bf == pytest.approx(b, abs=1e-6)


@pytest.mark.parametrize("means", [
    [1.0, 0.995, 0.995, 0.995],     # the optimum lies at p -> 0
    [0.6, 0.7, 0.9, 0.95],          # a rising curve: A < 0
])
def test_fit_decay_failure_is_fit_error(means):
    with pytest.raises(FitError):
        fit_decay([1, 2, 4, 8], means)


@pytest.mark.parametrize("lengths, means, name", [
    ([1, 2, 4, 8], [0.99, np.nan, 0.95, 0.9], "means"),
    ([1, 2, 4, 8], [0.99, 0.97, np.inf, 0.9], "means"),
    ([1, np.nan, 4, 8], [0.99, 0.97, 0.95, 0.9], "lengths"),
])
def test_fit_decay_rejects_a_non_finite_input(lengths, means, name):
    with pytest.raises(ValueError, match=f"finite {name}"):
        fit_decay(lengths, means)


def test_fit_decay_flat_curve_has_p_1():
    # equal to rounding, as a noise-free closed run at epsilon = 0: every p
    # fits, so no decay is reported and A = B splits the constant
    a, p, b = fit_decay([1, 2, 4, 8], [1.0 - 1e-14, 1.0 - 2e-14, 1.0, 1.0 - 7e-14])
    assert p == 1.0
    assert a == b == pytest.approx(0.5, abs=1e-13)


def test_fit_decay_straight_line_is_the_limit_p_to_1():
    # a falling straight line is A p^m + B in the limit p -> 1, A -> infinity:
    # the fit returns p just below 1 and reproduces the line
    m = np.array([1, 2, 4, 8, 16, 32])
    line = 0.99 - 0.003 * m
    a, p, b = fit_decay(m, line)
    assert 1.0 - 1e-7 < p < 1.0
    assert np.max(np.abs(a * p ** m + b - line)) <= 1e-8


def test_fidelity_formulas():
    assert average_fidelity(1.0) == 1.0
    assert average_fidelity(0.98) == pytest.approx(0.99)
    assert interleaved_gate_fidelity(0.98, 0.98) == 1.0
    assert interleaved_gate_fidelity(1.0, 0.98) == pytest.approx(0.99)


def test_rb_exact_depolarizing_recovers_p():
    cfg = RBConfig(lengths=(1, 2, 4, 8, 16, 32), n_sequences=12, seed=5,
                   mode="exact", depolarizing=0.02)
    curve = run_rb(cfg)
    assert curve.p == pytest.approx(0.98, abs=2e-3)


def test_rb_deterministic():
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=4, seed=9, mode="exact",
                   depolarizing=0.05, shots=200)
    a = run_rb(cfg)
    b = run_rb(cfg)
    assert np.array_equal(a.means, b.means)
    assert a.p == b.p


def test_rb_pulse_noiseless_near_perfect():
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=2,
                   n_samples=256, steps=512)
    curve = run_rb(cfg)
    assert np.all(curve.means > 1.0 - 1e-6)


def test_rb_pulse_amplitude_error_decays():
    cfg = RBConfig(lengths=(1, 4, 8, 16), n_sequences=4, seed=2,
                   noise=NoiseModel(epsilon=0.05), n_samples=256, steps=512)
    curve = run_rb(cfg)
    assert curve.means[0] > curve.means[-1]
    assert 0.0 < curve.p < 1.0
    assert curve.f_ave < 1.0


def test_rb_interleaved_metadata():
    s_gate = clifford_table()[5].spec     # a Clifford, quarter turn about z
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=2, interleaved=s_gate,
                   mode="exact", depolarizing=0.02)
    curve = run_rb(cfg)
    assert curve.metadata["interleaved"] is True
    assert curve.metadata["interleaved_is_clifford"] is True
    t_cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=2,
                     interleaved=named_gate("T"), mode="exact")
    assert run_rb(t_cfg).metadata["interleaved_is_clifford"] is False


def test_curve_csv_shape():
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=0, mode="exact",
                   depolarizing=0.01)
    curve = run_rb(cfg)
    text = curve_to_csv(curve, cfg.n_sequences)
    lines = text.strip().splitlines()
    assert lines[0] == "m,mean_fidelity,std,n_sequences"
    assert len(lines) == 5
    assert lines[1].endswith(",3")


def test_config_validation():
    with pytest.raises(ValueError):
        RBConfig(lengths=(0, 1))
    with pytest.raises(ValueError):
        RBConfig(n_sequences=1)
    with pytest.raises(ValueError):
        RBConfig(mode="fancy")
    with pytest.raises(ValueError):
        RBConfig(lengths=(1, 2))
    with pytest.raises(ValueError):
        RBConfig(lengths=(1, 2, 2))
    with pytest.raises(ValueError, match="three-parameter model"):
        RBConfig(lengths=(1, 2, 4, 4))
    with pytest.raises(ValueError):
        RBConfig(shots=0)
    with pytest.raises(ValueError):
        RBConfig(n_samples=1024, steps=256)
    with pytest.raises(ValueError):
        RBConfig(n_samples=256, steps=513)
    with pytest.raises(ValueError):
        RBConfig(n_samples=128, steps=256)
    with pytest.raises(ValueError):
        RBConfig(n_samples=257, steps=514)
    for omega_max in (0.0, -1.0, float("inf")):
        with pytest.raises(ValueError):
            RBConfig(omega_max=omega_max)
    with pytest.raises(ValueError):
        RBConfig(eta=float("nan"))
    for bad in (dict(depolarizing=0.1), dict(mode="exact", depolarizing=float("nan")),
                dict(mode="exact", depolarizing=1.5)):
        with pytest.raises(ValueError):     # depolarizing is exact mode's channel
            RBConfig(**bad)
    for bad in (dict(epsilon=0.3), dict(gamma_1a=100.0), dict(gamma_0a=10.0)):
        with pytest.raises(ValueError):     # exact mode ignores the pulse noise
            RBConfig(mode="exact", noise=NoiseModel(**bad))
    # a size is an integer and no boolean: lengths (1, 1.5, 2, 4) passed the
    # 4-distinct check and ran at (1, 1, 2, 4); 2.5 sequences and a length of
    # inf raised inside run_rb
    exact = dict(mode="exact", depolarizing=0.02)
    for bad in (dict(lengths=(1, 1.5, 2, 4)), dict(lengths=(1, 2, 4, float("inf"))),
                dict(lengths=(True, 2, 4, 8)), dict(n_sequences=2.5),
                dict(n_sequences=True), dict(shots=True), dict(shots=100.0),
                dict(seed=1.5), dict(seed=True)):
        with pytest.raises(ValueError, match="must be integers"):
            RBConfig(**exact, **bad)
    # a seed of 1.5 or -1 raised TypeError or ValueError inside SeedSequence,
    # and True ran as seed 1
    with pytest.raises(ValueError, match="seed must be >= 0"):
        RBConfig(**exact, seed=-1)
    RBConfig(lengths=tuple(np.arange(1, 5)), n_sequences=np.int64(2), shots=np.int32(10),
             seed=np.uint32(3))
    RBConfig(n_samples=1024, steps=256, mode="exact")    # steps unused
    RBConfig(n_samples=128, omega_max=-1.0, mode="exact")
    RBConfig(mode="exact", noise=NoiseModel(prep_error=0.01, detection_error_bright=0.02,
                                            detection_error_dark=0.03))    # SPAM is read


def test_shared_cache_matches_separate_runs(monkeypatch, gate_specs):
    built, sequences = [], []
    monkeypatch.setattr(rbench, "_build_channel", _recording(rbench._build_channel, built, 1))
    monkeypatch.setattr(rbench, "build_sequence", _recording(rbench.build_sequence, sequences))
    noise = dephasing_from_t2(20e-3, 200e-3)
    ref_cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=4, eta=0.2,
                       noise=noise, n_samples=256, steps=512)
    int_cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=4, eta=0.2,
                       noise=noise, n_samples=256, steps=512,
                       interleaved=named_gate("T", eta=0.2))
    cache = GateCache()
    shared = [run_rb(ref_cfg, cache), decay_rate(ref_cfg, cache)]
    reference = len(sequences)
    shared.append(run_rb(int_cfg, cache))
    # one memo for both runs and decay_rate, which builds each distinct spec
    # once; the T run's recoveries come from the engine's theta series, not
    # from the memo
    assert cache.channels(ref_cfg) is cache.channels(int_cfg)
    specs = {s for gates, _ in sequences for row in gates
             for s in gate_specs(row, 0.2, int_cfg.interleaved)}
    specs |= {recovery for _, recoveries in sequences[:reference] for recovery in recoveries}
    specs |= {el.spec for el in clifford_table(0.2)}
    assert Counter(built) == Counter(specs)
    separate = [run_rb(ref_cfg), decay_rate(ref_cfg), run_rb(int_cfg)]
    assert shared[1] == separate[1]
    for a, b in zip(shared[::2], separate[::2]):
        assert np.array_equal(a.means, b.means) and a.p == b.p
    # the shared cache returns what a fresh propagation gives, whatever changed
    spec = named_gate("X", eta=0.2)
    for changed in (dict(noise=NoiseModel(gamma_1a=1.0)), dict(steps=1024),
                    dict(omega_max=0.5 * ref_cfg.omega_max), dict(n_samples=512)):
        cfg = replace(ref_cfg, **changed)
        assert np.array_equal(cache.channels(cfg)(spec), GateCache().channels(cfg)(spec))
        if "n_samples" in changed:      # sets no channel: the memo is shared
            assert cache.channels(cfg) is cache.channels(ref_cfg)
        else:                           # the others change the channel, in a memo of their own
            assert cache.channels(cfg) is not cache.channels(ref_cfg)
            assert not np.array_equal(cache.channels(cfg)(spec),
                                      cache.channels(ref_cfg)(spec))


def _rb_config(noise, name, shots, **changes):
    """A small rb_dephasing-like run: closed or dephased, reference or interleaved."""
    noise = {"closed": NoiseModel(epsilon=0.05),
             "dephased": NoiseModel(gamma_1a=100.0, gamma_0a=10.0)}[noise]
    return replace(RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=5, eta=0.2, noise=noise,
                            shots=shots, n_samples=256, steps=512,
                            interleaved=None if name is None else named_gate(name, eta=0.2)),
                   **changes)


@pytest.mark.parametrize("name", ["T", "X"])
@pytest.mark.parametrize("noise", ["closed", "dephased"])
@pytest.mark.parametrize("shots", [None, 1000])
def test_one_cache_draws_each_stream_once(monkeypatch, noise, name, shots):
    # a reference run and its interleaved run on one cache make the
    # generators of each (seed, m, n) once and share the drawn indices, and
    # each run's curve is bit for bit that run's on a fresh cache
    ref_cfg = _rb_config(noise, None, shots)
    int_cfg = replace(ref_cfg, interleaved=named_gate(name, eta=0.2))
    fresh = [_curve_bytes(run_rb(cfg)) for cfg in (ref_cfg, int_cfg)]
    calls, streams = Counter(), rbench._streams

    def counted(*key):
        calls[key] += 1
        return streams(*key)
    monkeypatch.setattr(rbench, "_streams", counted)
    cache = GateCache()
    shared = [_curve_bytes(run_rb(cfg, cache)) for cfg in (ref_cfg, int_cfg)]
    assert calls == Counter((ref_cfg.seed, m, ref_cfg.n_sequences) for m in ref_cfg.lengths)
    assert shared == fresh


def test_every_read_restores_the_streams():
    # a length repeated in one run, and a run repeated on one cache, draw the
    # shots of a fresh cache's first read: each read of a length's streams
    # puts them back where the draw left them
    cfg = _rb_config("closed", "T", 1000, lengths=(1, 2, 2, 4, 8))
    cache = GateCache()
    first = run_rb(cfg, cache)
    assert first.means[1] == first.means[2] and first.stds[1] == first.stds[2]
    once = run_rb(replace(cfg, lengths=(1, 2, 4, 8)))
    assert first.means[1] == once.means[1] and first.stds[1] == once.stds[1]
    fresh = _curve_bytes(run_rb(cfg))
    assert _curve_bytes(first) == fresh
    assert _curve_bytes(run_rb(cfg, cache)) == fresh


def test_a_dropped_cache_is_freed_without_the_collector():
    # a memo that closed over its cache would keep the cache in a reference
    # cycle until a full collection, and every run's channels with it
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=2, mode="exact", depolarizing=0.02)
    gc.disable()
    try:
        cache = GateCache()
        run_rb(cfg, cache)
        decay_rate(cfg, cache)
        dropped = weakref.ref(cache)
        del cache
        assert dropped() is None
    finally:
        gc.enable()


def test_the_channel_memo_is_bounded(monkeypatch):
    # each T recovery is a spec of its own; a memo that kept them all would
    # grow with the sequences, and one that drops them must rebuild them
    # bitwise: the T run's stack needs the 24 Cliffords again, which the
    # reference run built and its recoveries pushed out of 8 entries
    ref = RBConfig(lengths=(1, 2, 3, 4), n_sequences=4, seed=3, noise=NoiseModel(epsilon=0.05),
                   n_samples=256, steps=512)
    cfg = replace(ref, interleaved=named_gate("T"))
    monkeypatch.setattr(rbench, "_CHANNEL_MEMO_SIZE", None)
    free = GateCache()
    unbounded = [run_rb(ref, free), run_rb(cfg, free)]
    monkeypatch.setattr(rbench, "_CHANNEL_MEMO_SIZE", 8)
    small = GateCache()
    bounded = [run_rb(ref, small), run_rb(cfg, small)]
    kept, held = small.channels(cfg).cache_info(), free.channels(cfg).cache_info()
    assert kept.maxsize == 8 and kept.currsize == 8 < held.currsize
    assert kept.misses > held.misses        # dropped channels were built again
    for b, u in zip(bounded, unbounded):
        assert _curve_bytes(b) == _curve_bytes(u)


def test_cached_channel_depends_on_key_only():
    # recovery gates from axis_angle differ from each other in the last bits;
    # each spec's channel is the same whichever of its neighbours came first,
    # and the channels of two specs one ulp apart agree to rounding
    cfg = RBConfig(eta=0.2, noise=dephasing_from_t2(20e-3, 200e-3),
                   n_samples=256, steps=512)
    theta = 0.9553166181245093
    a = GateSpec(theta, np.pi / 4.0, 2.0 * np.pi / 3.0, 0.2)
    b = replace(a, theta=np.nextafter(theta, 0.0))
    d = GateSpec.dynamical(theta, 0.3, 0.2)
    e = GateSpec.dynamical(np.nextafter(theta, 0.0), 0.3, 0.2)
    closed = replace(cfg, noise=NoiseModel(epsilon=0.05))
    for config, neighbour, spec in ((cfg, a, b), (closed, d, e)):
        fresh = GateCache().channels(config)(spec)
        for memo in (engine.first_half_block, engine.drive_steps, engine.first_half_channel):
            memo.cache_clear()
        channel = GateCache().channels(config)
        first = channel(neighbour)
        assert np.array_equal(channel(spec), fresh)
        assert np.max(np.abs(first - fresh)) <= 1e-15


def _recording(fn, results, arg=None):
    """`fn`, appending each result to `results`, or argument `arg` when given."""
    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result if arg is None else args[arg])
        return result
    return recorded


def test_closed_rb_makes_one_first_half(monkeypatch):
    # every gate at one eta shares the closed first half, whatever its gamma
    # or scheme: a reference run and a T-interleaved run each make it once,
    # one drive evaluated at its two Gauss nodes, and close it per gate
    calls, propagated = [], []
    monkeypatch.setattr(engine, "controls_arrays", _recording(engine.controls_arrays, calls))
    monkeypatch.setattr(rbench, "propagate_unitary",
                        _recording(rbench.propagate_unitary, propagated))
    cfg = RBConfig(noise=NoiseModel(epsilon=0.05))
    for interleaved in (None, named_gate("T")):
        engine.first_half_block.cache_clear()
        calls.clear()
        run_rb(replace(cfg, interleaved=interleaved))
        assert engine.first_half_block.cache_info().misses == 1
        assert len(calls) == 2
    assert len(propagated) > 24


def test_dephased_rb_makes_one_first_half_channel_per_theta(monkeypatch, gate_specs):
    # each distinct spec of the memo is one channel: every Clifford of the
    # runs' stack, T, and the reference recoveries; the gates of one theta, at
    # every phi and gamma, close one first-half channel. The T run's
    # recoveries make no channel call: they read one theta series, once per
    # length, whose nine nodes theta = j pi / 8 are first halves too and hold
    # 4 of the Cliffords' 7 thetas, so 12 in all
    calls, sequences = [], []
    monkeypatch.setattr(rbench, "open_superoperator", _recording(rbench.open_superoperator, calls))
    monkeypatch.setattr(rbench, "build_sequence", _recording(rbench.build_sequence, sequences))
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=4, seed=7, eta=0.2,
                   noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    cache = GateCache()
    run_rb(cfg, cache)
    reference = len(sequences)
    t_gate = named_gate("T", eta=0.2)
    run_rb(replace(cfg, interleaved=t_gate), cache)
    specs = {s for gates, _ in sequences for row in gates for s in gate_specs(row, 0.2, t_gate)}
    specs |= {el.spec for el in clifford_table(0.2)} | {t_gate}
    specs |= {recovery for _, recoveries in sequences[:reference] for recovery in recoveries}
    thetas = {s.theta for s in specs} | {np.pi * j / 8 for j in range(9)}
    assert len(calls) == len(specs)
    # one call per length, one row per sequence
    assert len(sequences) - reference == reference == len(cfg.lengths)
    assert [len(gates) for gates, _ in sequences] == [cfg.n_sequences] * 2 * len(cfg.lengths)
    # hits, misses: one series call per length
    assert engine.first_half_series.cache_info()[:2] == (len(cfg.lengths) - 1, 1)
    assert engine.first_half_channel.cache_info().misses == len(thetas) == 12


def _dephased_t_config(seed=3, **changes):
    """A shots-off dephased T-interleaved run at rb_dephasing's setting."""
    noise = NoiseModel(gamma_1a=100.0, gamma_0a=10.0, **changes.pop("noise", {}))
    return replace(RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=seed, eta=0.2,
                            noise=noise, n_samples=256, steps=512,
                            interleaved=named_gate("T", eta=0.2)), **changes)


def _curve_bytes(curve):
    return [np.asarray(getattr(curve, f)).tobytes() for f in ("means", "stds", "a", "p", "b")]


def test_a_dephased_t_run_is_the_same_warm_and_cold():
    # which channels read the theta series depends on the config alone, so a
    # run with every engine memo empty and one after runs at other settings
    # filled them, the series memo included, give the same curve bit for bit
    cfg = _dephased_t_config()
    cold = _curve_bytes(run_rb(cfg))
    for memo in (engine.first_half_block, engine.drive_steps, engine.first_half_channel,
                 engine.first_half_series):
        memo.cache_clear()
    cache = GateCache()
    for other in (_dephased_t_config(noise=dict(epsilon=0.02)), replace(cfg, steps=1024),
                  replace(cfg, interleaved=None), _dephased_t_config(seed=4)):
        run_rb(other, cache)
    assert engine.first_half_series.cache_info().currsize == 3
    assert _curve_bytes(run_rb(cfg, cache)) == cold
    assert _curve_bytes(run_rb(cfg)) == cold


@pytest.mark.parametrize("name, first_halves", [(None, 7), ("X", 7), ("S", 7), ("H", 8)])
def test_clifford_rb_builds_a_first_half_per_raw_theta(monkeypatch, gate_specs, name,
                                                      first_halves):
    # a dephased reference run, its decay_rate and a Clifford-interleaved run
    # at rb_dephasing's setting read no theta series: each gate is built at its
    # own theta, so the first halves are the distinct raw thetas of the specs.
    # H's theta pi / 4 is one ulp from the table's and makes one of its own
    sequences = []
    monkeypatch.setattr(rbench, "build_sequence", _recording(rbench.build_sequence, sequences))
    cfg = _dephased_t_config(interleaved=None)
    cache = GateCache()
    run_rb(cfg, cache)
    decay_rate(cfg, cache)
    interleaved = None if name is None else named_gate(name, eta=0.2)
    if name is not None:
        run_rb(replace(cfg, interleaved=interleaved), cache)
    specs = {s for gates, recoveries in sequences for row, recovery in zip(gates, recoveries)
             for s in (*gate_specs(row, 0.2, interleaved), recovery)}
    thetas = {s.theta for s in specs | {el.spec for el in clifford_table(0.2)}}
    assert engine.first_half_series.cache_info().misses == 0
    assert engine.first_half_channel.cache_info().misses == len(thetas) == first_halves


def _workloads():
    """perfbench's job drawer, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _job_config(job, seed):
    """The T-interleaved RBConfig of a drawn rb_dephasing job, as the CLI reads it."""
    return RBConfig(lengths=tuple(job["lengths"]), n_sequences=job["sequences"],
                    shots=job["shots"], seed=seed, eta=job["eta"],
                    noise=NoiseModel(**job["noise"]), n_samples=job["n_samples"],
                    steps=job["steps"], interleaved=named_gate("T", eta=job["eta"]))


def test_series_recoveries_match_direct_builds(monkeypatch):
    # the recoveries of 8 drawn rb_dephasing jobs (perfbench's drawer, loaded
    # from its file) with shots off: each channel the series gives is its
    # direct build within the engine's series bound
    workloads = _workloads()
    sequences = []
    monkeypatch.setattr(rbench, "build_sequence", _recording(rbench.build_sequence, sequences))
    worst = 0.0
    for index in range(8):
        (command, job, seed), = workloads.draw_job("rb_dephasing", 1, index)
        assert command == "rb" and job["interleaved"] == "T"
        cfg = replace(_job_config(job, seed), shots=None)
        sequences.clear()
        run_rb(cfg)
        recoveries = [recovery for _, specs in sequences for recovery in specs]
        for recovery, channel in zip(recoveries, rbench._series_channel(cfg, recoveries)):
            direct = rbench._build_channel(cfg, recovery)
            worst = max(worst, np.max(np.abs(channel - direct)))
    assert len(sequences) == 6 and len(recoveries) == 60
    assert worst <= engine._SERIES_TOL + 1e-13, worst


@pytest.mark.parametrize("direct", [False, True])
def test_batched_series_recoveries_are_each_recoverys_own(monkeypatch, direct):
    # the stacked series, mirror and phi turn of a length's recoveries give
    # each one bit for bit what its own scalar series(theta), loop closing
    # and turn give, for a series and, with the samples capped and the
    # tolerance out of reach, for direct builds; the series at one theta is
    # the plain mat-vec e(theta) @ c
    if direct:
        monkeypatch.setattr(engine, "_SERIES_MAX", engine._SERIES_MIN)
        monkeypatch.setattr(engine, "_SERIES_TOL", 1e-30)
    sequences = []
    monkeypatch.setattr(rbench, "build_sequence", _recording(rbench.build_sequence, sequences))
    cfg = _dephased_t_config()
    run_rb(cfg)
    noise = cfg.noise
    series = engine.first_half_series(cfg.eta, cfg.omega_max, noise.epsilon, noise.gamma_1a,
                                      noise.gamma_0a, cfg.steps)
    assert series.direct is direct
    recoveries = [recovery for _, specs in sequences for recovery in specs]
    batched = rbench._series_channel(cfg, recoveries)
    half = len(series.coefficients) // 2
    for spec, channel in zip(recoveries, batched):
        first, = series(np.array([spec.theta]))
        if direct:
            assert np.array_equal(first, engine.first_half_channel(spec.theta, 0.0, *series.key))
        else:
            e = np.exp(0.5j * spec.theta * np.arange(-half, half + 1))
            assert first.tobytes() == (e @ series.coefficients).reshape(9, 9).tobytes()
        loop = engine._loop_channel(first, spec.scheme, spec.gamma, 0.0)
        assert rbench._turned(spec.phi, loop).tobytes() == channel.tobytes()
    assert len(recoveries) == len(cfg.lengths) * cfg.n_sequences


def test_one_drive_serves_every_gate_on_the_clifford_path(monkeypatch):
    # a drive evaluates the controls once per Gauss node: 2 calls at 512 steps
    calls, channels = [], []
    monkeypatch.setattr(engine, "controls_arrays", _recording(engine.controls_arrays, calls))
    monkeypatch.setattr(rbench, "open_superoperator",
                        _recording(rbench.open_superoperator, channels))
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=4, seed=7, eta=0.2,
                   noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    cache = GateCache()
    run_rb(cfg, cache)
    run_rb(replace(cfg, interleaved=named_gate("T", eta=0.2)), cache)
    assert len(calls) == 2
    # every first half the engine makes reads the drive; the other gammas of
    # a theta read its first half
    halves = engine.first_half_channel.cache_info().misses
    assert halves < len(channels)
    assert engine.drive_steps.cache_info()[:2] == (halves - 1, 1)   # hits, misses
    # a dynamical interleaved gate with its own eta makes its own drive, once
    run_rb(replace(cfg, interleaved=GateSpec.dynamical(1.1, 0.4, 0.3)), cache)
    assert len(calls) == 4
    halves = engine.first_half_channel.cache_info().misses
    assert engine.drive_steps.cache_info()[:2] == (halves - 2, 2)


def test_gate_caches_share_one_drive(monkeypatch):
    # the memos belong to the engine, not to a cache: a second cache reads the
    # first half the first one made
    calls = []
    monkeypatch.setattr(engine, "controls_arrays", _recording(engine.controls_arrays, calls))
    cfg = RBConfig(eta=0.2, noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    for cache in (GateCache(), GateCache()):
        cache.channels(cfg)(named_gate("X", eta=0.2))
    assert len(calls) == 2


def test_the_drive_memo_stays_bounded_across_epsilons(monkeypatch):
    # each epsilon has its own drive, 96 B per step of the first half and
    # 1.6 MB here: a memo that kept more than its last two blocks (49 kB) would
    # raise the peak by that much per epsilon. 256-step blocks keep the
    # channel's own workspace (about 2.7 kB per step of a block) below it.
    monkeypatch.setattr(engine, "_OPEN_BLOCK", 256)
    steps = 2 ** 15
    cfg = RBConfig(eta=0.2, noise=NoiseModel(gamma_1a=100.0, gamma_0a=10.0),
                   n_samples=256, steps=steps)
    cache, spec = GateCache(), named_gate("X", eta=0.2)

    def peak_after(epsilons):
        for eps in epsilons:
            cache.channels(replace(cfg, noise=replace(cfg.noise, epsilon=eps)))(spec)
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        one = peak_after([0.0])
        three = peak_after([0.01, 0.02])
    finally:
        tracemalloc.stop()
    assert three - one < 0.5 * 96 * steps


def test_a_cache_holds_no_drive_that_grows_with_steps():
    # one drive held for the whole first half, 96 B per step of it, took the
    # peak from 13.8 to 37.9 MB; the memo's two blocks do not depend on the
    # step count
    def peak(steps):
        cfg = RBConfig(eta=0.2, noise=NoiseModel(gamma_1a=100.0, gamma_0a=10.0),
                       n_samples=256, steps=steps)
        cache = GateCache()
        tracemalloc.start()
        try:
            for name in ("X", "H"):
                cache.channels(cfg)(named_gate(name, eta=0.2))
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    assert peak(2 ** 18) <= peak(2 ** 16) + 4.0


def test_no_gate_can_corrupt_a_shared_drive_block():
    cfg = RBConfig(eta=0.2, noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    specs = [named_gate(name, eta=0.2) for name in ("X", "H", "T", "S")]
    specs += [GateSpec(1.0, 0.3, -2.0, 0.2), GateSpec.dynamical(1.1, 0.4, 0.3)]
    forward, backward = GateCache(), GateCache()
    ahead = [forward.channels(cfg)(spec) for spec in specs]
    engine.first_half_channel.cache_clear()     # the backward run reads the drive again
    behind = [backward.channels(cfg)(spec) for spec in reversed(specs)][::-1]
    assert all(np.array_equal(x, y) for x, y in zip(ahead, behind))
    # the block the channels share: the first half's 256 steps, from the memo
    hits = engine.drive_steps.cache_info().hits
    (a, b), (fa, fb) = engine.drive_steps(0.2, cfg.omega_max, 0.0, 512, 0, 256)
    assert engine.drive_steps.cache_info().hits == hits + 1
    for x in (a, b, fa, fb):
        with pytest.raises(ValueError):
            x[0] = 1.0


@pytest.mark.parametrize("d", [0.01, 0.05])
def test_decay_rate_of_a_depolarizer_is_one_minus_d(d):
    # exact mode has no leakage: every Clifford is followed by the depolarizer
    cfg = RBConfig(mode="exact", depolarizing=d)
    assert abs(decay_rate(cfg, GateCache()) - (1.0 - d)) <= 1e-12


@pytest.mark.parametrize("eta, noise, r", [
    (0.0, NoiseModel(epsilon=0.05), 5.09e-3),
    (0.0, NoiseModel(epsilon=0.2), 7.40e-2),
    (1.0, NoiseModel(epsilon=0.05), 1.84e-5),
    (1.0, NoiseModel(epsilon=0.2), 3.57e-3),
    (0.2, NoiseModel(gamma_1a=100.0, gamma_0a=10.0), 2.86e-3),
])
def test_decay_rate_matches_the_spectral_table(eta, noise, r):
    # r = (1 - p)/2 to three significant digits: the first four at RBConfig's
    # defaults, the last on the configuration of the benchmark's rb_dephasing jobs
    steps = {"n_samples": 256, "steps": 512} if noise.gamma_1a else {}
    p = decay_rate(RBConfig(eta=eta, noise=noise, **steps), GateCache())
    assert float("%.3g" % ((1.0 - p) / 2.0)) == r
