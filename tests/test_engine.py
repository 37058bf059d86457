import numpy as np
import pytest
from scipy.linalg import expm

from holopulse.engine import (NoiseModel, _dephasing_rates, _expm_step,
                              _hamiltonians, bright_state, dark_state,
                              dephasing_from_t2, open_superoperator,
                              propagate_open, propagate_unitary,
                              survival_probability, trace_defect)
from holopulse.gates import target_unitary
from holopulse.pulses import GateSpec, named_gate, synthesize
from holopulse.qcore import fidelity_qubit_subspace, leakage, unitarity_defect


def _sched(name="X", eta=0.0, n=256):
    return synthesize(named_gate(name, eta=eta), n_samples=n)


def test_hamiltonian_structure():
    sched = _sched()
    h = _hamiltonians(sched, 0.25 * sched.duration, 0.0)[0]
    assert np.allclose(h, h.conj().T)
    assert h[0, 1] == 0.0 and h[1, 0] == 0.0    # no direct 0-1 coupling
    assert np.allclose(np.diag(h), 0.0)
    with pytest.raises(ValueError):
        _hamiltonians(sched, -1.0, 0.0)


def test_hamiltonian_amplitude_error_scales_linearly():
    sched = _sched()
    t = 0.25 * sched.duration
    h0 = _hamiltonians(sched, t, 0.0)
    h1 = _hamiltonians(sched, t, 0.1)
    assert np.allclose(h1, 1.1 * h0)


def test_closed_form_step_matches_expm():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
    h3 = np.zeros((64, 3, 3), dtype=complex)    # |a> coupled to |0> and |1>
    h3[:, :2, 2] = c
    h3[:, 2, :2] = c.conj()
    h2 = np.zeros((64, 2, 2), dtype=complex)
    h2[:, 0, 1] = c[:, 0]
    h2[:, 1, 0] = c[:, 0].conj()
    sched = _sched("H", eta=1.0)
    t = np.linspace(0.0, sched.duration, 33)
    cases = [(h3, 0.37), (h3, 4.0), (h2, 0.37), (np.zeros((2, 3, 3), dtype=complex), 0.37),
             (_hamiltonians(sched, t, 0.2), sched.duration / 2048)]
    for h, dt in cases:
        u = _expm_step(h, dt)
        ref = np.array([expm(-1j * dt * m) for m in h])
        assert np.max(np.abs(u - ref)) <= 1e-13


def test_unitarity_and_step_doubling():
    sched = _sched("H", eta=0.2)
    res = propagate_unitary(sched, steps=2048)
    assert unitarity_defect(res.unitary) < 1e-12
    assert res.converged
    assert res.truncation_error < 1e-9


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
    d = dark_state(spec)
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
    res = propagate_unitary(sched, steps=1024, t1=sched.duration / 2.0, check=False)
    b = bright_state(spec)
    assert abs(res.unitary @ b)[2] == pytest.approx(1.0, abs=1e-9)


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


def test_open_matches_closed_without_dissipation():
    sched = _sched("H")
    u = propagate_unitary(sched, steps=1024, check=False).unitary
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    res = propagate_open(sched, rho0, NoiseModel(), steps=1024)
    assert np.max(np.abs(res.density - u @ rho0 @ u.conj().T)) < 1e-9


def test_open_trace_preserved_with_dephasing():
    sched = _sched("X", n=256)
    noise = dephasing_from_t2()
    phi = open_superoperator(sched, noise, steps=1024)
    assert trace_defect(phi) < 1e-9
    rho0 = np.diag([0.6, 0.4, 0.0]).astype(complex)
    res = propagate_open(sched, rho0, noise, steps=1024)
    assert np.trace(res.density).real == pytest.approx(1.0, abs=1e-9)
    evals = np.linalg.eigvalsh(res.density)
    assert evals.min() > -1e-9


def test_dephasing_reduces_fidelity():
    spec = named_gate("X")
    sched = synthesize(spec, n_samples=256)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    clean = propagate_open(sched, rho0, NoiseModel(), steps=1024).density
    noisy = propagate_open(sched, rho0, dephasing_from_t2(), steps=1024).density
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
    hs = _hamiltonians(sched, np.linspace(0.0, sched.duration, 2 * steps + 1),
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
        propagate_unitary(sched, steps=0, t1=sched.duration / 2.0)
