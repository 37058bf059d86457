import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from holopulse import engine
from holopulse.engine import (_CF4_A, _GAUSS_C, NoiseModel, _blockwise, _cf4_steps,
                              _ck_product, _coupling, _dephasing_rates, _embed,
                              _lift_coefficients, _strang_steps, _su2_step, block_basis,
                              bright_state, cf4, dephasing_from_t2, drive_steps,
                              first_half_block, first_half_channel, first_half_series,
                              open_superoperator, propagate_unitary, survival_probability,
                              trace_defect)
from holopulse.gates import target_unitary
from holopulse.paths import HOLONOMIC, controls_arrays
from holopulse.pulses import GateSpec, named_gate, synthesize
from holopulse.qcore import fidelity_qubit_subspace, leakage, unitarity_defect


def _sched(name="X", eta=0.0, n=256):
    return synthesize(named_gate(name, eta=eta), n_samples=n)


def _half_loop(sched, steps, epsilon=0.0):
    """Qutrit propagator over the first segment [0, T/2]."""
    block = cf4(partial(_coupling, sched.spec, sched.duration), sched.duration / 2.0, steps,
                1.0 + epsilon)
    return _embed(sched.spec, *block)


# gamma at the ends of (-2pi, 2pi] and at +-pi, 0
_GAMMA_EDGES = (2.0 * np.pi, np.nextafter(-2.0 * np.pi, 0.0), np.pi, -np.pi, 0.0)


def _qutrit_hamiltonians(sched, t, epsilon):
    """Two-tone qutrit Hamiltonians (shape (len(t), 3, 3)), built tone by tone:
    <0|H|a> = (1+eps) Omega0 e^{-i phi0} / 2, <1|H|a> = (1+eps) Omega1 e^{-i phi1} / 2."""
    spec = sched.spec
    omega, phi0 = controls_arrays(spec, sched.duration, t)
    phi1 = phi0 + np.pi - spec.phi
    h = np.zeros(np.shape(t) + (3, 3), dtype=complex)
    h[..., 0, 2] = 0.5 * (1.0 + epsilon) * omega * np.sin(spec.theta / 2.0) * np.exp(-1j * phi0)
    h[..., 1, 2] = 0.5 * (1.0 + epsilon) * omega * np.cos(spec.theta / 2.0) * np.exp(-1j * phi1)
    h[..., 2, :2] = h[..., :2, 2].conj()
    return h


def _cf4_expm(hamiltonians, t0, t1, steps):
    """CF4 propagator over [t0, t1] with scipy's expm for every factor."""
    dt = (t1 - t0) / steps
    base = t0 + np.arange(steps) * dt
    h1, h2 = (hamiltonians(base + c * dt) for c in _GAUSS_C)
    a1, a2 = _CF4_A
    u = np.eye(h1.shape[-1], dtype=complex)
    for m1, m2 in zip(h1, h2):
        u = expm(-1j * dt * (a2 * m1 + a1 * m2)) @ expm(-1j * dt * (a1 * m1 + a2 * m2)) @ u
    return u


def test_propagator_matches_qutrit_expm_reference():
    rng = np.random.default_rng(11)
    for k in range(8):
        theta, phi = rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi)
        eta, eps = rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3)
        if k % 4 == 3:
            spec = GateSpec.dynamical(theta, phi, eta)
        else:
            spec = GateSpec(theta, phi, rng.uniform(-np.pi, np.pi), eta)
        sched = synthesize(spec, n_samples=256)
        full = propagate_unitary(sched, eps, 256, check=False).unitary
        for t1, steps, u in ((sched.duration, 256, full),
                             (sched.duration / 2.0, 128, _half_loop(sched, 128, eps))):
            ref = _cf4_expm(lambda t: _qutrit_hamiltonians(sched, t, eps), 0.0, t1, steps)
            assert np.max(np.abs(u - ref)) <= 1e-12, (spec, eps, t1)


def _full_loop(sched, steps, scale):
    """The qutrit propagators of `cf4` over the whole loop [0, T] under the
    gate's own coupling, phase jump or sign flip included."""
    block = cf4(partial(_coupling, sched.spec, sched.duration), sched.duration, steps, scale)
    return _embed(sched.spec, *block)


def _loop_specs(rng):
    """Holonomic gates at eta 0, 0.2, 1 over the gamma edges and 3 random
    gammas; dynamical gates whose gamma = -2 pi eta runs over the edges."""
    gammas = (*_GAMMA_EDGES, *rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 3))
    specs = [GateSpec(rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi), g, eta)
             for eta in (0.0, 0.2, 1.0) for g in gammas]
    return specs + [GateSpec.dynamical(rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi), eta)
                    for eta in (-1.0, np.nextafter(1.0, 0.0), -0.5, 0.5, 0.0, 0.2)]


def test_closed_loop_is_its_first_half_mirrored():
    # propagate_unitary makes [0, T/2] only; the full loop makes every step
    rng = np.random.default_rng(17)
    grid = np.array([-0.2, 0.0, 0.13])
    for spec in _loop_specs(rng):
        sched = synthesize(spec, n_samples=256)
        for steps in (512, 2050):       # 1025 steps a half
            u = propagate_unitary(sched, grid, steps, check=False).unitary
            ref = _full_loop(sched, steps, 1.0 + grid)
            assert np.max(np.abs(u - ref)) <= 1e-13, (spec, steps)
            # a mirror phased by e^{-i gamma} is the gate at -gamma
            if spec.scheme == HOLONOMIC and np.sin(spec.gamma) ** 2 > 0.1:
                flipped = synthesize(replace(spec, gamma=-spec.gamma), n_samples=256)
                u = propagate_unitary(flipped, grid, steps, check=False).unitary
                assert np.min(np.max(np.abs(u - ref), axis=(1, 2))) > 1e-3


def test_coupling_scales_exactly_with_amplitude_error():
    # the kernel takes (1+eps) as a scale axis on the error-free coupling
    sched = _sched("H", eta=1.0)
    t = np.linspace(0.0, sched.duration, 65)
    c0 = _coupling(sched.spec, sched.duration, t)
    dt = sched.duration / 512
    scale = np.array([1.1, 0.8, 1.0])
    a, b = _su2_step(c0, dt, scale)
    assert a.shape == b.shape == (65, 3)
    for k, s in enumerate(scale):
        ref_a, ref_b = _su2_step(s * c0, dt)
        assert np.max(np.abs(a[:, k] - ref_a)) <= 1e-15
        assert np.max(np.abs(b[:, k] - ref_b)) <= 1e-15
    with pytest.raises(ValueError):
        _coupling(sched.spec, sched.duration, -1.0)


def test_closed_form_step_matches_expm():
    rng = np.random.default_rng(7)
    c = rng.normal(size=64) + 1j * rng.normal(size=64)
    sched = _sched("H", eta=1.0)
    t = np.linspace(0.0, sched.duration, 33)     # Omega = 0 at 0, T/2 and T
    cases = [(c, 0.37), (c, 4.0), (np.zeros(2, dtype=complex), 0.37),
             (1.2 * _coupling(sched.spec, sched.duration, t), sched.duration / 2048)]
    for cs, dt in cases:
        a, b = _su2_step(cs, dt)
        u = np.array([[a, b], [-np.conj(b), np.conj(a)]]).transpose(2, 0, 1)
        ref = np.array([expm(-1j * dt * np.array([[0.0, x], [np.conj(x), 0.0]]))
                        for x in cs])
        assert np.max(np.abs(u - ref)) <= 1e-13


def test_unitarity_and_step_doubling():
    sched = _sched("H", eta=0.2)
    res = propagate_unitary(sched, steps=2048)
    assert unitarity_defect(res.unitary) < 1e-12
    assert res.converged
    assert res.truncation_error < 1e-9


def test_step_doubling_compares_an_even_coarse_pass():
    # steps = 258 is 2 mod 4: a coarse pass at steps // 2 = 129 would put the
    # phase jump at T/2 inside a step and inflate the estimate 20-fold
    sched = synthesize(GateSpec(theta=1.0, phi=0.3, gamma=2.0, eta=1.0), n_samples=256)
    e256 = propagate_unitary(sched, steps=256).truncation_error
    e258 = propagate_unitary(sched, steps=258).truncation_error
    assert 0.5 * e256 <= e258 <= 2.0 * e256
    # the check's coarse pass needs steps >= 4, even on a 2-interval schedule
    coarse = replace(sched, n_samples=2)
    with pytest.raises(ValueError):
        propagate_unitary(coarse, steps=2)
    assert propagate_unitary(coarse, steps=2, check=False).unitary.shape == (3, 3)


def test_epsilon_batch_shapes():
    # agreement with per-point calls is a property test in test_properties.py
    sched = _sched("H", eta=1.0)
    res = propagate_unitary(sched, np.array([-0.2, 0.0, 0.3]), 512)
    assert res.unitary.shape == (3, 3, 3) and res.steps == 512
    assert res.truncation_error.shape == res.converged.shape == (3,)
    one = propagate_unitary(sched, 0.3, 512)
    assert one.unitary.shape == (3, 3)
    assert isinstance(one.truncation_error, float) and isinstance(one.converged, bool)
    with pytest.raises(ValueError):
        propagate_unitary(sched, np.zeros((2, 2)), 512)
    # an empty grid raised ZeroDivisionError from cf4's block size
    with pytest.raises(ValueError, match="non-empty"):
        propagate_unitary(sched, np.zeros(0), 512)


def test_gate_fidelity_closed():
    for name, eta in (("X", 0.0), ("H", 1.0), ("T", 0.2), ("S", 0.0)):
        spec = named_gate(name, eta=eta)
        sched = synthesize(spec, n_samples=256)
        res = propagate_unitary(sched, steps=2048, check=False)
        assert fidelity_qubit_subspace(res.unitary, target_unitary(spec)) > 1.0 - 1e-9
        assert leakage(res.unitary) < 1e-10


def test_dark_state_invariance():
    spec = GateSpec(theta=0.8, phi=0.3, gamma=1.3, eta=0.5)
    sched = synthesize(spec, n_samples=256)
    u = propagate_unitary(sched, steps=2048, check=False).unitary
    # |d> = -cos(t/2) e^{-i phi}|0> - sin(t/2)|1>, orthogonal to |b> and |a>
    d = np.array([-np.cos(spec.theta / 2.0) * np.exp(-1j * spec.phi),
                  -np.sin(spec.theta / 2.0), 0.0])
    assert abs(abs(np.vdot(d, u @ d)) - 1.0) < 1e-9


def test_bright_state_holonomy():
    # the bright state returns to itself up to the phase e^{i gamma}
    spec = GateSpec(theta=0.8, phi=0.3, gamma=1.3, eta=0.5)
    sched = synthesize(spec, n_samples=256)
    u = propagate_unitary(sched, steps=2048, check=False).unitary
    b = bright_state(spec)
    ov = np.vdot(b, u @ b)
    assert abs(ov - np.exp(1j * spec.gamma)) < 1e-8


def test_half_loop_reaches_auxiliary():
    spec = GateSpec(theta=0.8, phi=0.3, gamma=1.3, eta=0.0)
    sched = synthesize(spec, n_samples=256)
    b = bright_state(spec)
    assert abs(_half_loop(sched, 1024) @ b)[2] == pytest.approx(1.0, abs=1e-9)


def test_survival_quadratic_small_epsilon():
    sched = _sched("X", eta=0.2)
    p = survival_probability(sched, 0.01, steps=1024)
    c = np.sin(0.2 * np.pi) ** 2 / 0.4 ** 2
    assert 1.0 - p == pytest.approx(c * 0.01 ** 2, rel=0.05)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(epsilon=0.7)
    with pytest.raises(ValueError):
        NoiseModel(gamma_1a=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(prep_error=1.2)
    nm = dephasing_from_t2(20e-3, 200e-3)
    assert nm.gamma_1a == pytest.approx(100.0)
    assert nm.gamma_0a == pytest.approx(10.0)


def _evolve(sched, noise, rho0, steps=1024):
    """rho0 through the full-cycle channel, which must preserve the trace."""
    phi = open_superoperator(sched, noise, steps)
    assert trace_defect(phi) < 1e-9
    return (phi @ rho0.reshape(-1)).reshape(3, 3)


def test_open_matches_closed_without_dissipation():
    sched = _sched("H")
    u = propagate_unitary(sched, steps=1024, check=False).unitary
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    rho = _evolve(sched, NoiseModel(), rho0)
    assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-9


def test_open_trace_preserved_with_dephasing():
    sched = _sched("X", n=256)
    rho0 = np.diag([0.6, 0.4, 0.0]).astype(complex)
    rho = _evolve(sched, dephasing_from_t2(), rho0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert evals.min() > -1e-9


def test_dephasing_reduces_fidelity():
    spec = named_gate("X")
    sched = synthesize(spec, n_samples=256)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    clean = _evolve(sched, NoiseModel(), rho0)
    noisy = _evolve(sched, dephasing_from_t2(), rho0)
    target = np.zeros(3, dtype=complex)
    target[:2] = target_unitary(spec) @ np.array([1.0, 0.0])
    f_clean = np.real(np.vdot(target, clean @ target))
    f_noisy = np.real(np.vdot(target, noisy @ target))
    assert f_clean > 1.0 - 1e-8
    assert f_noisy < f_clean
    assert f_noisy > 0.95   # dephasing over ~160 us is a small perturbation


def test_step_validation():
    sched = _sched(n=512)
    with pytest.raises(ValueError):
        propagate_unitary(sched, steps=256)    # below schedule resolution
    with pytest.raises(ValueError):
        propagate_unitary(sched, steps=1025)
    for steps in (0, -2):       # no step of the first segment to make
        with pytest.raises(ValueError):
            survival_probability(sched, 0.01, steps)


def _lindblad_dissipator(noise):
    """Pure-dephasing Lindblad generator on row-major vec(rho), built from
    L_l = sqrt(gamma_l)|l><l| by Kronecker products."""
    eye = np.eye(3, dtype=complex)
    d = np.zeros((9, 9), dtype=complex)
    for rate, level in ((noise.gamma_1a, 1), (noise.gamma_0a, 0)):
        L = np.zeros((3, 3), dtype=complex)
        L[level, level] = np.sqrt(rate)
        ldl = L.conj().T @ L
        d += np.kron(L, L.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T)
    return d


def _rk4_channel(sched, noise, steps):
    """Reference channel: classical fixed-step RK4 on the vectorized master equation."""
    h = sched.duration / steps
    hs = _qutrit_hamiltonians(sched, np.linspace(0.0, sched.duration, 2 * steps + 1),
                              noise.epsilon)
    eye = np.eye(3)
    gs = (-1j * (np.einsum("tij,kl->tikjl", hs, eye)
                 - np.einsum("ij,tkl->tikjl", eye, hs.transpose(0, 2, 1))).reshape(-1, 9, 9)
          + _lindblad_dissipator(noise))
    phi = np.eye(9, dtype=complex)
    for k in range(steps):
        g1, g2, g3 = gs[2 * k], gs[2 * k + 1], gs[2 * k + 2]
        k1 = g1 @ phi
        k2 = g2 @ (phi + 0.5 * h * k1)
        k3 = g2 @ (phi + 0.5 * h * k2)
        k4 = g3 @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return phi


def test_dephasing_rates_are_lindblad_diagonal():
    for noise in (NoiseModel(), dephasing_from_t2(20e-3, 200e-3),
                  NoiseModel(gamma_1a=3000.0, gamma_0a=1000.0),
                  NoiseModel(gamma_0a=7.0)):
        d = _lindblad_dissipator(noise)
        assert np.array_equal(d - np.diag(np.diag(d)), np.zeros((9, 9)))
        assert np.allclose(_dephasing_rates(noise), np.diag(d).real, rtol=1e-15, atol=0.0)


def test_open_channel_at_least_as_accurate_as_rk4():
    noise = dephasing_from_t2(20e-3, 200e-3)    # criterion 7
    for name in ("X", "T", "H"):
        sched = _sched(name, eta=0.2)
        ref = _rk4_channel(sched, noise, 8192)
        for steps in (512, 2048):
            err = np.max(np.abs(open_superoperator(sched, noise, steps) - ref))
            err_rk4 = np.max(np.abs(_rk4_channel(sched, noise, steps) - ref))
            assert err <= err_rk4, (name, steps, err, err_rk4)


def test_open_channel_without_dephasing_is_closed_cf4():
    steps = 512
    for name, eta in (("X", 0.0), ("H", 1.0), ("T", 0.2)):
        sched = _sched(name, eta=eta)
        u = propagate_unitary(sched, steps=2 * steps, check=False).unitary
        phi = open_superoperator(sched, NoiseModel(epsilon=0.0), steps)
        assert np.max(np.abs(phi - np.kron(u, u.conj()))) <= 1e-12
    sched = _sched("X", eta=0.2)
    u = propagate_unitary(sched, epsilon=0.1, steps=2 * steps, check=False).unitary
    phi = open_superoperator(sched, NoiseModel(epsilon=0.1), steps)
    assert np.max(np.abs(phi - np.kron(u, u.conj()))) <= 1e-12


def test_open_channel_trace_preserving_under_strong_dephasing():
    noise = NoiseModel(gamma_1a=3000.0, gamma_0a=1000.0)
    for name in ("X", "T", "H"):
        for steps in (256, 2048):
            phi = open_superoperator(_sched(name, eta=0.2), noise, steps)
            assert trace_defect(phi) <= 1e-12


def test_open_step_validation():
    sched = _sched(n=512)
    noise = dephasing_from_t2()
    for steps in (0, 1, 256, 1025):     # below 2, below resolution, odd
        with pytest.raises(ValueError):
            open_superoperator(sched, noise, steps)
    with pytest.raises(ValueError):
        propagate_unitary(sched, steps=0)


def _pairwise(factors):
    """The product tree of `_ordered_product` over string factors."""
    while len(factors) > 1:
        n = len(factors)
        paired = [f"({factors[k + 1]} {factors[k]})" for k in range(0, n - n % 2, 2)]
        factors = paired + factors[n - n % 2:]
    return factors[0]


_join = np.frompyfunc(lambda later, earlier: f"({later} {earlier})", 2, 1)


def test_blocks_of_a_power_of_two_keep_the_pairwise_tree():
    def labels(start, stop):
        return (np.array([str(k) for k in range(start, stop)], dtype=object),)

    for steps in range(1, 70):
        whole = _pairwise([str(k) for k in range(steps)])
        for size in (1, 2, 4, 8, 64):
            blocked, = _blockwise(labels, 0, steps, size,
                                  lambda later, earlier: (_join(later[0], earlier[0]),))
            assert blocked.tolist() == [whole], (steps, size)


def test_multi_block_kernels_match_one_block(monkeypatch):
    sched = _sched("H", eta=0.5)
    grid = np.linspace(-0.2, 0.2, 21)
    noise = NoiseModel(epsilon=0.05, gamma_1a=300.0, gamma_0a=100.0)
    steps = 2050                        # the last block is partial
    one = propagate_unitary(sched, grid, steps, check=False).unitary
    one_scalar = propagate_unitary(sched, 0.1, steps, check=False).unitary
    one_open = open_superoperator(sched, noise, steps)
    monkeypatch.setattr(engine, "_CLOSED_BLOCK", 21 * 100)     # 64-step blocks
    monkeypatch.setattr(engine, "_OPEN_BLOCK", 48)
    first_half_block.cache_clear()      # the memos' keys hold no block size
    first_half_channel.cache_clear()
    many = propagate_unitary(sched, grid, steps, check=False).unitary
    assert np.max(np.abs(many - one)) <= 1e-13
    many_scalar = propagate_unitary(sched, 0.1, steps, check=False).unitary
    assert np.max(np.abs(many_scalar - one_scalar)) <= 1e-13
    assert np.max(np.abs(open_superoperator(sched, noise, steps) - one_open)) <= 1e-13


def test_power_of_two_blocks_are_bitwise_one_block(monkeypatch):
    # At 2050 steps one block of 21 points holds arrays over 256 KiB, which
    # numpy multiplies in place as conj(b1) * b2; `_ck_product` writes that
    # order, so the 21-point batch is bitwise equal too.
    sched = _sched("H", eta=0.5)
    grid = np.linspace(-0.2, 0.2, 21)
    noise = NoiseModel(epsilon=0.05, gamma_1a=300.0, gamma_0a=100.0)
    steps = 2050                        # the last block is partial

    def kernels():
        return (propagate_unitary(sched, 0.1, steps, check=False).unitary,
                propagate_unitary(sched, grid, steps, check=False).unitary,
                open_superoperator(sched, noise, steps))

    one = kernels()
    monkeypatch.setattr(engine, "_CLOSED_BLOCK", 64)     # 64-step blocks, 2 on the batch
    monkeypatch.setattr(engine, "_OPEN_BLOCK", 64)
    first_half_block.cache_clear()      # the memos' keys hold no block size
    first_half_channel.cache_clear()
    for blocked, whole in zip(kernels(), one):
        assert np.array_equal(blocked, whole)


def _own_coupling_channel(sched, noise, steps, stop=None):
    """The open channel with every step made from the gate's own coupling,
    phase jump included: `_cf4_steps` per block, over the whole loop or its
    steps [0, stop)."""
    coupling = partial(_coupling, sched.spec, sched.duration)
    coef = _lift_coefficients(sched.spec)
    h = sched.duration / steps
    rates = _dephasing_rates(noise)

    def block(start, stop):
        a, b = _cf4_steps(coupling, sched.duration, 2 * steps, 1.0 + noise.epsilon,
                          2 * start, 2 * stop)
        half = _strang_steps(coef, a, b, rates, 0.25 * h)
        full = _strang_steps(coef, *_ck_product((a[1::2], b[1::2]), (a[0::2], b[0::2])),
                             rates, 0.5 * h)
        return ((4.0 * (half[1::2] @ half[0::2]) - full) / 3.0,)

    real, = _blockwise(block, 0, steps if stop is None else stop, engine._OPEN_BLOCK,
                       lambda later, earlier: (later[0] @ earlier[0],))
    return engine._FROM_REAL @ real[0] @ engine._TO_REAL


def test_a_shared_drive_gives_each_gate_its_own_channel(monkeypatch):
    # 2050 steps in 48-step blocks: a channel makes the first half's 1025
    # steps, its last block partial, and the reference's block of steps
    # [1024, 1056) straddles T/2. 512 steps are one block, which every gate
    # after the first at one eta reads from the memo.
    rng = np.random.default_rng(3)
    gammas = [*_GAMMA_EDGES, *rng.uniform(-2.0 * np.pi, 2.0 * np.pi, 3)]
    for steps, block in ((2050, 48), (512, engine._OPEN_BLOCK)):
        monkeypatch.setattr(engine, "_OPEN_BLOCK", block)
        for eta, epsilon in ((0.2, 0.0), (1.0, -0.15), (0.0, 0.3)):
            noise = NoiseModel(epsilon=epsilon, gamma_1a=300.0, gamma_0a=100.0)
            specs = [GateSpec(rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi), g, eta)
                     for g in gammas]
            dynamical = [GateSpec.dynamical(rng.uniform(0.0, np.pi), 0.5, -eta / 2.0)]
            scheds = [synthesize(spec, n_samples=256) for spec in specs + dynamical]
            drive_steps.cache_clear()
            first_half_channel.cache_clear()
            shared = [open_superoperator(sched, noise, steps) for sched in scheds]
            if steps == 512:
                # one miss per eta: at eta = 0 the dynamical gate's -0.0 is a hit
                drives = len({sched.spec.eta for sched in scheds})
                assert drive_steps.cache_info()[:2] == (len(scheds) - drives, drives)
            for sched, channel in zip(scheds, shared):
                err = np.max(np.abs(channel - _own_coupling_channel(sched, noise, steps)))
                assert err <= 1e-14, (sched.spec, epsilon, err)
                # with the memos empty, the channel makes the same steps itself
                drive_steps.cache_clear()
                first_half_channel.cache_clear()
                assert np.array_equal(open_superoperator(sched, noise, steps), channel)


def test_the_first_half_memo_stays_bounded():
    # 400 thetas, over three times the bound: the memo keeps its last 128
    # channels, about 1.7 kB each with their keys (0.22 MB); one that kept
    # every theta would hold 0.7 MB. A channel at 256 steps takes about
    # 0.4 MB more while it is made.
    noise = NoiseModel(gamma_1a=300.0, gamma_0a=100.0)
    scheds = [synthesize(GateSpec(theta, 0.0, 1.0, 0.2), n_samples=256)
              for theta in np.linspace(0.0, np.pi, 400)]
    tracemalloc.start()
    try:
        for sched in scheds:
            open_superoperator(sched, noise, 256)
            info = first_half_channel.cache_info()
            assert info.currsize <= info.maxsize == 128
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_half_channel.cache_info().misses == len(scheds)
    assert held <= 0.3e6 and peak <= 1.0e6, (held, peak)


OMEGA = 2.0 * np.pi * 1.0e6
# the theta series against direct first-half builds: its tolerance on the
# truncation, plus the rounding of a direct build, about 5e-14 at 2048 steps
SERIES_BOUND = engine._SERIES_TOL + 1e-13


def _series_error(series, thetas):
    """Largest |series - direct build| at `thetas`, the sum read in full."""
    direct = np.stack([first_half_channel(t, 0.0, *series.key) for t in thetas])
    return np.max(np.abs(series.evaluate(np.asarray(thetas)) - direct))


@settings(derandomize=True, deadline=None, max_examples=12)
@given(eta=st.floats(-1.0, 1.0), epsilon=st.floats(-0.2, 0.2),
       gamma_1a=st.floats(0.0, 1e5), gamma_0a=st.floats(0.0, 1e5),
       steps=st.sampled_from([512, 2048]),
       thetas=st.lists(st.floats(0.0, np.pi), min_size=3, max_size=3))
def test_the_theta_series_matches_direct_builds(eta, epsilon, gamma_1a, gamma_0a, steps,
                                                thetas):
    # up to 1e5 s^-1 at |eta| <= 1 the series reaches its tolerance by 64
    # samples, and the tail estimate bounds what it misses by
    series = first_half_series(eta, OMEGA, epsilon, gamma_1a, gamma_0a, steps)
    assert not series.direct and len(series.coefficients) - 1 <= 64
    assert series.tail <= engine._SERIES_TOL
    error = _series_error(series, thetas)
    assert error <= SERIES_BOUND and error <= series.tail + 1e-13, (error, series.tail)
    assert np.array_equal(series(np.asarray(thetas)), series.evaluate(np.asarray(thetas)))
    assert not series.coefficients.flags.writeable


def test_the_tail_bounds_the_truncation_error(monkeypatch):
    # eta = 10 at 1e6 s^-1 needs 256 samples. Below that the tail misses the
    # tolerance, and it bounds the series' error: at 32 and 64 samples, where
    # the series misses by far more than rounding, and at 128, where it
    # misses by rounding alone but the tail is not yet below the tolerance
    key = (10.0, OMEGA, 0.0, 1e6, 1e6, 512)
    thetas = np.random.default_rng(5).uniform(0.0, np.pi, 5)
    for cap, truncated in ((32, 1e-3), (64, 1e-6), (128, 0.0)):
        monkeypatch.setattr(engine, "_SERIES_MAX", cap)
        first_half_series.cache_clear()
        series = first_half_series(*key)
        assert series.direct and len(series.coefficients) == cap + 1
        error = _series_error(series, thetas)
        assert truncated <= error <= series.tail, (cap, error, series.tail)
    monkeypatch.undo()
    first_half_series.cache_clear()
    first_half_channel.cache_clear()
    series = first_half_series(*key)
    assert not series.direct and len(series.coefficients) == 257
    assert _series_error(series, thetas) <= SERIES_BOUND
    # the nodes nest: 65 builds at theta = j pi / 64 make all four rounds
    assert first_half_channel.cache_info().misses == 65 + len(thetas)


def test_above_the_cap_the_series_gives_direct_builds(monkeypatch):
    # a setting whose tail misses the tolerance at the cap builds each theta
    # directly, bit for bit, whatever the memo held before
    monkeypatch.setattr(engine, "_SERIES_TOL", 1e-30)
    key = (0.2, OMEGA, 0.0, 100.0, 10.0, 512)
    series = first_half_series(*key)
    assert series.direct and len(series.coefficients) == engine._SERIES_MAX + 1
    for theta in np.random.default_rng(2).uniform(0.0, np.pi, 4):
        first, = series(np.array([theta]))
        first_half_channel.cache_clear()
        assert np.array_equal(first, first_half_channel(theta, 0.0, *key))


def test_the_series_memo_stays_bounded():
    # 20 settings, five times the bound: the memo keeps its last 4 series,
    # about 43 kB each at 32 samples, and the first-half memo the last 128 of
    # their nodes: about 0.5 MB held in all, where a memo that kept every
    # setting would hold 1.1 MB.
    tracemalloc.start()
    try:
        for epsilon in np.linspace(-0.2, 0.2, 20):
            first_half_series(0.2, OMEGA, float(epsilon), 300.0, 100.0, 64)
            info = first_half_series.cache_info()
            assert info.currsize <= info.maxsize == 4
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_half_series.cache_info().misses == 20
    assert held <= 0.8e6 and peak <= 1.0e6, (held, peak)


def test_embed_matches_the_kron_form():
    # the broadcast outer product has np.kron's entries bit for bit, for a
    # scalar block and for a batch
    rng = np.random.default_rng(3)
    for _ in range(50):
        spec = GateSpec(rng.uniform(0.0, np.pi), rng.uniform(-np.pi, np.pi),
                        rng.uniform(-np.pi, np.pi), rng.uniform(-1.0, 1.0))
        e = block_basis(spec)
        for shape in ((), (21,)):
            z = rng.normal(size=(4,) + shape)
            a, b = z[0] + 1j * z[1], z[2] + 1j * z[3]
            x = np.stack([a - 1.0, b, -np.conj(b), np.conj(a) - 1.0], axis=-1)
            kron = (x @ np.kron(e, e.conj()).T + np.eye(3).reshape(-1)).reshape(shape + (3, 3))
            assert np.array_equal(_embed(spec, a, b), kron)



def _phased(d, channel):
    """D^ channel D^dag for the qutrit diagonal d, D^ = diag(d) (x) diag(d)*."""
    d = np.kron(d, np.conj(d))
    return channel * np.outer(d, d.conj())


def test_open_loop_is_its_first_half_mirrored():
    # the mirror of the first half's channel against the channel whose steps
    # all come from the gate's own coupling; each broken mirror misses by far
    swap = np.arange(9).reshape(3, 3).T.reshape(-1)
    noise = NoiseModel(epsilon=-0.1, gamma_1a=300.0, gamma_0a=100.0)
    specs = [GateSpec(1.1, 0.4, 2.0, 0.2), GateSpec(0.3, -2.0, -1.0, 1.0),
             GateSpec.dynamical(1.1, 0.5, -0.1), GateSpec.dynamical(2.0, -1.2, 0.3)]
    for spec in specs:
        sched = synthesize(spec, n_samples=256)
        ref = _own_coupling_channel(sched, noise, 512)
        first = _own_coupling_channel(sched, noise, 512, stop=256)
        assert np.max(np.abs(open_superoperator(sched, noise, 512) - ref)) <= 1e-14
        if spec.scheme == HOLONOMIC:
            d = np.array([1.0, 1.0, np.exp(-1j * spec.gamma)])
            broken = (_phased(d.conj(), first.T[swap][:, swap]),   # conjugated phase
                      _phased(d, first.T),                         # no transpose permutation
                      _phased(d, first[swap][:, swap]))            # no transpose
        else:
            d = np.array([1.0, np.exp(2j * spec.phi), 1.0])
            broken = (_phased(d.conj(), first.T), _phased(d, first))
        for second in broken:
            assert np.max(np.abs(second @ first - ref)) > 1e-3, spec


def test_holonomic_and_dynamical_gates_share_one_drive(monkeypatch):
    # on [0, T/2] neither the scheme nor gamma sets the coupling
    calls = []

    def recording(*args):
        calls.append(args)
        return controls_arrays(*args)

    monkeypatch.setattr(engine, "controls_arrays", recording)
    noise = NoiseModel(gamma_1a=300.0, gamma_0a=100.0)
    for spec in (GateSpec(1.1, 0.4, 2.0, 0.3), GateSpec.dynamical(0.7, -0.2, 0.3)):
        open_superoperator(synthesize(spec, n_samples=256), noise, 512)
    assert drive_steps.cache_info()[:2] == (1, 1)      # hits, misses
    assert len(calls) == 2                             # one drive, two Gauss nodes


def _peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_propagation_memory_does_not_grow_with_steps():
    # holding every step at once took 195 MB and 172 MB
    sched = _sched("T", eta=0.2)
    noise = NoiseModel(gamma_1a=100.0, gamma_0a=10.0)
    peak = _peak_mb(lambda: open_superoperator(sched, noise, 2 ** 16))
    assert peak <= 40.0
    # the channel makes its drive's steps block by block and the memo keeps two
    # blocks: one drive of the whole first half took the peak from 13.8 to 37.9 MB
    assert _peak_mb(lambda: open_superoperator(sched, noise, 2 ** 18)) <= peak + 4.0
    sched = synthesize(GateSpec(theta=1.1, phi=0.4, gamma=2.0, eta=1.0), n_samples=1024)
    grid = np.linspace(-0.2, 0.2, 201)
    assert _peak_mb(lambda: propagate_unitary(sched, grid, 8192)) <= 60.0
