import numpy as np
import pytest
from scipy.linalg import expm

from holopulse import engine, sideband
from holopulse.engine import _CF4_A, _GAUSS_C, cf4, first_half_block, propagate_unitary
from holopulse.paths import controls_arrays
from holopulse.pulses import GateSpec, synthesize
from holopulse.sideband import SidebandSystem, synthesize_cphase, verify_full_model


def test_system_indexing_and_validation():
    with pytest.raises(ValueError):
        SidebandSystem(n_max=2)
    with pytest.raises(ValueError):
        SidebandSystem(eta_ld=0.5)


def test_full_model_is_cz():
    sched = synthesize_cphase(np.pi, 2.0 * np.pi * 1.0e4, 0.2, n_samples=512)
    assert (sched.spec.theta, sched.spec.gamma, sched.spec.eta) == (0.0, np.pi, 0.2)
    report = verify_full_model(sched, SidebandSystem(n_max=5), steps=2048)
    # the computational block is diag(1, 1, 1, u11), |u11| = sqrt(1 - leakage)
    u11 = np.sqrt(1.0 - report.leakage) * np.exp(1j * report.conditional_phase)
    assert abs(u11 - (-1.0)) < 1e-8


def test_full_model_cz_report():
    sched = synthesize_cphase(np.pi, 2.0 * np.pi * 1.0e4, 0.2, n_samples=512)
    report = verify_full_model(sched, SidebandSystem(n_max=5), steps=4096)
    assert report.subspace_fidelity > 0.999
    assert report.leakage < 1e-3
    assert report.fixed_point_deviation < 1e-10
    assert abs(abs(report.conditional_phase) - np.pi) < 1e-6


@pytest.mark.parametrize("gamma", [np.pi / 4.0, np.pi / 2.0])
def test_conditional_phase_tracks_gamma(gamma):
    sched = synthesize_cphase(gamma, 2.0 * np.pi * 1.0e4, 0.2, n_samples=512)
    report = verify_full_model(sched, SidebandSystem(n_max=5), steps=4096)
    assert report.conditional_phase == pytest.approx(gamma, abs=1e-6)
    assert report.subspace_fidelity > 0.999


def test_conditional_phase_at_pi_is_on_the_target_branch():
    # here Im u11 rounds below zero, so np.angle(u11) alone would give -pi
    sched = synthesize_cphase(np.pi, 2.0 * np.pi * 1.0e4, 0.5, n_samples=512)
    report = verify_full_model(sched, SidebandSystem(), steps=1024)
    assert report.conditional_phase == pytest.approx(np.pi, abs=1e-6)


def test_report_text_round():
    sched = synthesize_cphase(np.pi, 2.0 * np.pi * 1.0e4, 0.2, n_samples=512)
    report = verify_full_model(sched, SidebandSystem(n_max=5), steps=2048)
    text = report.to_text()
    assert text.splitlines()[0].startswith("conditional_phase_rad")
    assert "omega_eff = 2*eta_ld*omega_r" in text


def _anti_jc_ladder(sys, omega_r, phi):
    """Truncated blue-sideband Hamiltonians, basis index spin * (n_max+1) + n.

    <1, n+1| H |a, n> = i * omega_r * eta_ld * sqrt(n+1) * e^{i phi}; the
    spin-|0> ladder is uncoupled.
    """
    levels = sys.n_max + 1
    h = np.zeros(omega_r.shape + (3 * levels, 3 * levels), dtype=complex)
    coupling = 1j * omega_r * sys.eta_ld * np.exp(1j * phi)
    for n in range(sys.n_max):
        row, col = levels + n + 1, 2 * levels + n
        h[:, row, col] = coupling * np.sqrt(n + 1.0)
        h[:, col, row] = np.conj(h[:, row, col])
    return h


def test_full_model_matches_truncated_ladder():
    gamma, steps = 1.1, 1024
    sys = SidebandSystem(n_max=3, eta_ld=0.1)
    sched = synthesize_cphase(gamma, 2.0 * np.pi * 1.0e4, 0.2, n_samples=512)
    dt = sched.duration / steps
    base = np.arange(steps) * dt
    hams = []
    for c in _GAUSS_C:
        omega, phi0 = controls_arrays(sched.spec, sched.duration, base + c * dt)
        phi_eff = phi0 + np.pi - sched.spec.phi
        hams.append(_anti_jc_ladder(sys, omega / (2.0 * sys.eta_ld),
                                    -(phi_eff + np.pi / 2.0)))
    a1, a2 = _CF4_A
    u = np.eye(hams[0].shape[-1], dtype=complex)
    for h1, h2 in zip(*hams):
        u = expm(-1j * dt * (a2 * h1 + a1 * h2)) @ expm(-1j * dt * (a1 * h1 + a2 * h2)) @ u
    levels = sys.n_max + 1
    comp = [0, 1, levels, levels + 1]        # |0,0>, |0,1>, |1,0>, |1,1>
    block = u[np.ix_(comp, comp)]
    target = np.diag([1.0, 1.0, 1.0, np.exp(1j * gamma)])
    fidelity = abs(np.trace(block.conj().T @ target)) / 4.0
    leak = max(1.0 - np.sum(np.abs(block[:, j]) ** 2) for j in range(4))
    phase = np.angle(block[3, 3] * np.conj(block[0, 0]))

    report = verify_full_model(sched, sys, steps=steps)
    assert abs(report.conditional_phase - phase) <= 1e-10
    assert abs(report.subspace_fidelity - fidelity) <= 1e-10
    assert abs(report.leakage - leak) <= 1e-10


def _anti_jc_coupling(sched, sys):
    """<1,1|H|a,0> = i * omega_r * eta_ld * e^{i phi_anti_jc} at times t."""
    def coupling(t):
        omega_eff, phi0 = controls_arrays(sched.spec, sched.duration, t)
        phi = -(phi0 + np.pi - sched.spec.phi + np.pi / 2.0)
        return 1j * omega_eff / (2.0 * sys.eta_ld) * sys.eta_ld * np.exp(1j * phi)
    return coupling


def test_full_model_is_the_mirror_of_its_first_half():
    # verify_full_model makes [0, T/2] only; here every step of [0, T] is made
    sys = SidebandSystem(n_max=5)
    for gamma in (2.0 * np.pi, np.nextafter(-2.0 * np.pi, 0.0), np.pi, -1.1, 0.3):
        for eta, steps in ((0.0, 1024), (0.2, 2050), (1.0, 4096)):
            sched = synthesize_cphase(gamma, 2.0 * np.pi * 1.0e4, eta, n_samples=512)
            u11, _ = cf4(_anti_jc_coupling(sched, sys), sched.duration, steps)
            target = np.exp(1j * gamma)
            report = verify_full_model(sched, sys, steps=steps)
            assert abs(report.conditional_phase
                       - (gamma + np.angle(u11 * np.conj(target)))) <= 1e-14
            assert abs(report.subspace_fidelity - abs(3.0 + np.conj(u11) * target) / 4.0) <= 1e-14
            assert abs(report.leakage - max(0.0, 1.0 - abs(u11) ** 2)) <= 1e-14


def test_full_model_takes_the_holonomic_loop():
    sched = synthesize(GateSpec.dynamical(0.0, 0.5, 0.2), 2.0 * np.pi * 1.0e4, 512)
    with pytest.raises(ValueError):
        verify_full_model(sched, SidebandSystem())


def test_full_model_shares_the_gates_first_half(monkeypatch):
    # the n = 0 block is the theta = 0 gate's: every sideband report and every
    # gate at one eta close one first half, made once
    calls = []

    def recording(*args):
        calls.append(args)
        return controls_arrays(*args)

    for module in (engine, sideband):
        monkeypatch.setattr(module, "controls_arrays", recording)
    first_half_block.cache_clear()
    for gamma in (np.pi, 0.7):
        verify_full_model(synthesize_cphase(gamma, 2.0 * np.pi * 1.0e4, 0.2, n_samples=512),
                          SidebandSystem(), steps=4096)
    propagate_unitary(synthesize(GateSpec(1.1, 0.4, 2.0, 0.2), 2.0 * np.pi * 1.0e4, 512),
                      0.0, 4096, check=False)
    assert first_half_block.cache_info()[:2] == (2, 1)      # hits, misses
    assert len(calls) == 2                                  # one first half, two Gauss nodes
