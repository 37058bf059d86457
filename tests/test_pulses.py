import numpy as np
import pytest

from holopulse.paths import DYNAMICAL, HOLONOMIC
from holopulse.pulses import (OMEGA_MAX_DEFAULT, GateSpec, compute_duration,
                              export_tones, named_gate, peak_envelope, synthesize)


def test_duration_eta_zero_anchor():
    # eta = 0: max |Omega| = pi^2/T exactly, so T = pi^2 / Omega_max
    spec = GateSpec(theta=0.5, phi=0.0, gamma=1.0)
    T = compute_duration(spec, OMEGA_MAX_DEFAULT)
    assert T == pytest.approx(np.pi ** 2 / OMEGA_MAX_DEFAULT, rel=1e-12)
    assert T == pytest.approx(157.0796e-6, rel=1e-4)


def test_duration_scales_inversely_with_drive():
    spec = GateSpec(theta=0.5, phi=0.0, gamma=1.0, eta=0.3)
    assert compute_duration(spec, 2.0e4) == pytest.approx(
        2.0 * compute_duration(spec, 4.0e4), rel=1e-12)


def _envelope_factor(s, eta):
    """The dimensionless envelope Omega(sT)*T/pi^2 as a function of s = t/T."""
    s = np.asarray(s, dtype=float)
    alpha = np.pi * np.sin(np.pi * s) ** 2
    return np.abs(np.sin(2.0 * np.pi * s)) * np.sqrt(
        1.0 + 16.0 * eta ** 2 * np.sin(alpha) ** 6)


def test_peak_envelope_against_dense_grid():
    s = np.linspace(0.0, 1.0, 2_000_001)
    for eta in (0.0, 0.2, 0.5, 1.0):
        vals = _envelope_factor(s, eta)
        assert peak_envelope(eta) == pytest.approx(float(np.max(vals)), rel=1e-9)


def test_peak_envelope_equals_bounded_brent():
    # the peak was an 8193-point grid search refined by scipy's bounded Brent;
    # the grid holds the maximiser s = 1/4, so the refinement never raised it.
    # Every duration, and with it every output, depends on the peak's bits.
    from scipy.optimize import minimize_scalar

    grid = np.linspace(0.0, 0.5, 8193)
    for eta in [*np.linspace(-1.0, 1.0, 401), 0.0, 0.2, 1.0]:
        vals = _envelope_factor(grid, eta)
        k = int(np.argmax(vals))
        res = minimize_scalar(lambda s: -_envelope_factor(s, eta),
                              bounds=(grid[k - 1], grid[k + 1]), method="bounded",
                              options={"xatol": 1e-14})
        assert peak_envelope(eta) == max(vals[k], -res.fun), eta


def test_duration_rejects_omega_max_outside_0_inf():
    for omega_max in (float("inf"), float("nan"), 0.0):
        with pytest.raises(ValueError, match="omega_max must be positive and finite"):
            compute_duration(named_gate("X"), omega_max)


def test_duration_rejects_an_eta_whose_envelope_overflows():
    # 16 eta^2 overflows to inf at 1e154, and eta ** 2 raises OverflowError
    # above about 1.3e154: both are the documented ValueError
    for eta in (1e154, 1.4e154, -1e200, 1e308):
        with pytest.raises(ValueError, match="duration overflows"):
            compute_duration(GateSpec(theta=1.0, phi=0.0, gamma=1.0, eta=eta))


def test_duration_grows_with_eta():
    ds = [compute_duration(GateSpec(theta=0.0, phi=0.0, gamma=1.0, eta=e))
          for e in (0.0, 0.2, 0.5, 1.0)]
    assert ds == sorted(ds)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(theta=-0.1, phi=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        GateSpec(theta=0.1, phi=np.pi, gamma=1.0)
    with pytest.raises(ValueError):
        GateSpec(theta=0.1, phi=0.0, gamma=3.0 * np.pi)
    with pytest.raises(ValueError):
        GateSpec(theta=0.1, phi=0.0, gamma=0.3, scheme=DYNAMICAL)
    d = GateSpec.dynamical(0.1, 0.0, 0.25)
    assert d.gamma == pytest.approx(-np.pi / 2.0)


def test_named_gates():
    x = named_gate("X")
    assert (x.theta, x.phi, x.gamma) == (np.pi / 2.0, 0.0, np.pi)
    assert named_gate("h").theta == pytest.approx(np.pi / 4.0)
    assert named_gate("T").gamma == pytest.approx(np.pi / 4.0)
    with pytest.raises(ValueError):
        named_gate("CNOT")


def test_schedule_invariants():
    spec = named_gate("X", eta=0.5)
    sched = synthesize(spec, OMEGA_MAX_DEFAULT, 512)
    n = sched.n_samples
    assert n == 512
    assert len(sched.times) == n + 1
    total = np.hypot(sched.omega0, sched.omega1)
    assert total[0] == 0.0 and total[n // 2] == 0.0 and total[n] == 0.0
    assert np.max(total) == pytest.approx(OMEGA_MAX_DEFAULT, rel=1e-3)
    assert np.allclose(sched.phi0 - sched.phi1 + np.pi, spec.phi, atol=1e-12)
    live = sched.omega1 > 1e-9
    assert np.allclose(sched.omega0[live] / sched.omega1[live],
                       np.tan(spec.theta / 2.0), atol=1e-9)


def test_envelope_independent_of_target_angles():
    a = synthesize(GateSpec(theta=0.3, phi=0.1, gamma=2.0, eta=0.4), n_samples=256)
    b = synthesize(GateSpec(theta=2.5, phi=-1.0, gamma=0.7, eta=0.4), n_samples=256)
    assert a.duration == pytest.approx(b.duration, rel=1e-14)
    assert np.allclose(np.hypot(a.omega0, a.omega1),
                       np.hypot(b.omega0, b.omega1), atol=1e-6)


def test_dynamical_envelope_matches_holonomic():
    h = synthesize(GateSpec(theta=0.4, phi=0.0, gamma=1.0, eta=0.5), n_samples=256)
    d = synthesize(GateSpec.dynamical(0.4, 0.0, 0.5), n_samples=256)
    assert np.allclose(np.hypot(h.omega0, h.omega1),
                       np.hypot(d.omega0, d.omega1), atol=1e-6)


def test_synthesize_rejects_bad_sampling():
    spec = named_gate("X")
    with pytest.raises(ValueError):
        synthesize(spec, n_samples=100)
    with pytest.raises(ValueError):
        synthesize(spec, n_samples=257)


def test_export_parse_round_trip(tmp_path, check_tone_file):
    # at eta = 1e4 the phases reach 1.3e4 rad; %.17g still round-trips them
    for eta in (1.0, 1e4):
        sched = synthesize(named_gate("H", eta=eta), n_samples=256)
        path = export_tones(sched, tmp_path / "tones.csv")
        check_tone_file(path, sched)


def test_export_deterministic_bytes(tmp_path):
    sched = synthesize(named_gate("X"), n_samples=256)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_tones(sched, p1)
    export_tones(sched, p2)
    assert p1.read_bytes() == p2.read_bytes()
