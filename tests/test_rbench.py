import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from holopulse import engine, rbench
from holopulse.engine import NoiseModel, dephasing_from_t2
from holopulse.gates import clifford_table, phase_equivalent, target_unitary
from holopulse.paths import HOLONOMIC
from holopulse.pulses import GateSpec, named_gate
from holopulse.rbench import (FitError, GateCache, RBConfig, average_fidelity,
                              build_sequence, curve_to_csv, decay_rate,
                              fit_decay, interleaved_gate_fidelity, run_rb)


def test_build_sequence_inverts():
    rng = np.random.default_rng(0)
    for m in (1, 3, 8):
        specs, recovery = build_sequence(m, rng)
        acc = np.eye(2, dtype=complex)
        for s in specs:
            acc = target_unitary(s) @ acc
        acc = target_unitary(recovery) @ acc
        assert phase_equivalent(acc, np.eye(2), tol=1e-9)


def test_build_sequence_interleaved_inverts():
    rng = np.random.default_rng(1)
    t_gate = named_gate("T")
    specs, recovery = build_sequence(4, rng, interleaved=t_gate)
    assert len(specs) == 8
    acc = np.eye(2, dtype=complex)
    for s in specs:
        acc = target_unitary(s) @ acc
    acc = target_unitary(recovery) @ acc
    assert phase_equivalent(acc, np.eye(2), tol=1e-9)


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
    RBConfig(n_samples=1024, steps=256, mode="exact")    # steps unused
    RBConfig(n_samples=128, omega_max=-1.0, mode="exact")
    RBConfig(mode="exact", noise=NoiseModel(prep_error=0.01, detection_error_bright=0.02,
                                            detection_error_dark=0.03))    # SPAM is read


def test_shared_cache_matches_separate_runs():
    noise = dephasing_from_t2(20e-3, 200e-3)
    ref_cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=4, eta=0.2,
                       noise=noise, n_samples=256, steps=512)
    int_cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=3, seed=4, eta=0.2,
                       noise=noise, n_samples=256, steps=512,
                       interleaved=named_gate("T", eta=0.2))
    cache = GateCache()
    shared = [run_rb(ref_cfg, cache), run_rb(int_cfg, cache)]
    separate = [run_rb(ref_cfg), run_rb(int_cfg)]
    for a, b in zip(shared, separate):
        assert np.array_equal(a.means, b.means) and a.p == b.p
    # the shared cache returns what a fresh propagation gives, whatever changed
    spec = named_gate("X", eta=0.2)
    for changed in (dict(noise=NoiseModel(gamma_1a=1.0)), dict(steps=1024),
                    dict(omega_max=0.5 * ref_cfg.omega_max), dict(n_samples=512)):
        cfg = replace(ref_cfg, **changed)
        assert np.array_equal(cache.channel(spec, cfg), GateCache().channel(spec, cfg))
        if "n_samples" not in changed:     # the others change the channel
            assert not np.array_equal(cache.channel(spec, cfg),
                                      cache.channel(spec, ref_cfg))


def test_cached_channel_depends_on_key_only():
    # recovery gates from axis_angle differ from each other in the last bits;
    # specs that share a key must get the same channel whichever comes first
    cfg = RBConfig(eta=0.2, noise=dephasing_from_t2(20e-3, 200e-3),
                   n_samples=256, steps=512)
    theta = 0.9553166181245093
    a = GateSpec(theta, np.pi / 4.0, 2.0 * np.pi / 3.0, 0.2)
    b = replace(a, theta=np.nextafter(theta, 0.0))
    assert np.array_equal(GateCache().channel(a, cfg), GateCache().channel(b, cfg))
    d = GateSpec.dynamical(theta, 0.3, 0.2)
    e = GateSpec.dynamical(np.nextafter(theta, 0.0), 0.3, 0.2)
    closed = replace(cfg, noise=NoiseModel(epsilon=0.05))
    assert np.array_equal(GateCache().channel(d, closed), GateCache().channel(e, closed))


def _recording(fn, results):
    def recorded(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]
    return recorded


def test_default_closed_rb_propagates_once_per_gamma(monkeypatch):
    # the Cliffords and their recoveries have gamma in {0, pi/2, 2pi/3, pi}
    calls = []
    monkeypatch.setattr(rbench, "propagate_unitary", _recording(rbench.propagate_unitary, calls))
    run_rb(RBConfig(noise=NoiseModel(epsilon=0.05)))
    assert len(calls) == 4


def test_dephased_rb_propagates_once_per_theta_gamma(monkeypatch):
    calls, sequences = [], []
    monkeypatch.setattr(rbench, "open_superoperator", _recording(rbench.open_superoperator, calls))
    monkeypatch.setattr(rbench, "build_sequence", _recording(rbench.build_sequence, sequences))
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=4, seed=7, eta=0.2,
                   noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    cache = GateCache()
    run_rb(cfg, cache)
    run_rb(replace(cfg, interleaved=named_gate("T", eta=0.2)), cache)
    keys = {(round(s.theta, 14), round(s.gamma, 14))
            for specs, recovery in sequences for s in specs + [recovery]}
    assert len(calls) == len(keys) > 10


def test_one_drive_serves_every_gate_on_the_clifford_path(monkeypatch):
    # a drive evaluates the controls once per Gauss node: 2 calls at 512 steps
    calls, channels = [], []
    monkeypatch.setattr(engine, "controls_arrays", _recording(engine.controls_arrays, calls))
    monkeypatch.setattr(rbench, "open_superoperator",
                        _recording(rbench.open_superoperator, channels))
    engine.drive_steps.cache_clear()
    cfg = RBConfig(lengths=(1, 2, 4, 8), n_sequences=4, seed=7, eta=0.2,
                   noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    cache = GateCache()
    run_rb(cfg, cache)
    run_rb(replace(cfg, interleaved=named_gate("T", eta=0.2)), cache)
    assert len(calls) == 2
    assert engine.drive_steps.cache_info()[:2] == (len(channels) - 1, 1)   # hits, misses
    # a dynamical interleaved gate with its own eta makes its own drive, once
    run_rb(replace(cfg, interleaved=GateSpec.dynamical(1.1, 0.4, 0.3)), cache)
    assert len(calls) == 4
    assert engine.drive_steps.cache_info()[:2] == (len(channels) - 2, 2)


def test_gate_caches_share_one_drive(monkeypatch):
    # the memo belongs to the engine, not to a cache: a second cache reads the
    # drive the first one made
    calls = []
    monkeypatch.setattr(engine, "controls_arrays", _recording(engine.controls_arrays, calls))
    engine.drive_steps.cache_clear()
    cfg = RBConfig(eta=0.2, noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    for cache in (GateCache(), GateCache()):
        cache.channel(named_gate("X", eta=0.2), cfg)
    assert len(calls) == 2


def test_the_drive_memo_stays_bounded_across_epsilons(monkeypatch):
    # each epsilon has its own drive, 96 B per step and 3.1 MB here: a memo
    # that kept more than its last two blocks (49 kB) would raise the peak by
    # that much per epsilon. 256-step blocks keep the channel's own workspace
    # (about 3 kB per step of a block) below it.
    monkeypatch.setattr(engine, "_OPEN_BLOCK", 256)
    engine.drive_steps.cache_clear()
    steps = 2 ** 15
    cfg = RBConfig(eta=0.2, noise=NoiseModel(gamma_1a=100.0, gamma_0a=10.0),
                   n_samples=256, steps=steps)
    cache, spec = GateCache(), named_gate("X", eta=0.2)

    def peak_after(epsilons):
        for eps in epsilons:
            cache.channel(spec, replace(cfg, noise=replace(cfg.noise, epsilon=eps)))
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        one = peak_after([0.0])
        three = peak_after([0.01, 0.02])
    finally:
        tracemalloc.stop()
    assert three - one < 0.5 * 96 * steps


def test_a_cache_holds_no_drive_that_grows_with_steps():
    # a drive held for the whole run, 96 B per step, took the peak from 17.0
    # to 35.9 MB; the memo's two blocks do not depend on the step count
    def peak(steps):
        cfg = RBConfig(eta=0.2, noise=NoiseModel(gamma_1a=100.0, gamma_0a=10.0),
                       n_samples=256, steps=steps)
        cache = GateCache()
        tracemalloc.start()
        try:
            for name in ("X", "H"):
                cache.channel(named_gate(name, eta=0.2), cfg)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    assert peak(2 ** 18) <= peak(2 ** 16) + 4.0


def test_no_gate_can_corrupt_a_shared_drive_block():
    engine.drive_steps.cache_clear()
    cfg = RBConfig(eta=0.2, noise=dephasing_from_t2(20e-3, 200e-3), n_samples=256, steps=512)
    specs = [named_gate(name, eta=0.2) for name in ("X", "H", "T", "S")]
    specs += [GateSpec(1.0, 0.3, -2.0, 0.2), GateSpec.dynamical(1.1, 0.4, 0.3)]
    forward, backward = GateCache(), GateCache()
    ahead = [forward.channel(spec, cfg) for spec in specs]
    behind = [backward.channel(spec, cfg) for spec in reversed(specs)][::-1]
    assert all(np.array_equal(x, y) for x, y in zip(ahead, behind))
    (a, b), (fa, fb) = engine.drive_steps(0.2, HOLONOMIC, cfg.omega_max, 0.0, 512, 0, 512)
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
