"""Conventions of the single-loop path on fixed gates; the inverse engineering
over random paths is a property test in test_properties.py."""
import numpy as np
import pytest
from scipy.integrate import quad

from holopulse.paths import DYNAMICAL, alpha_dot, alpha_of_t, controls_arrays, dynamical_gamma
from holopulse.pulses import GateSpec

T = 1.0e-4


def _holonomic(eta, gamma):
    return GateSpec(theta=0.0, phi=0.0, gamma=gamma, eta=eta)


def _beta_step_at_half(spec):
    """beta(T/2+) - beta(T/2), read from phi0 = chi - beta: chi is +pi/2 at
    T/2, which belongs to segment 1, and tends to -pi/2 just after it."""
    _, (half, after) = controls_arrays(spec, T, [T / 2.0, T / 2.0 * (1.0 + 1e-6)])
    return (-np.pi / 2.0 - after) - (np.pi / 2.0 - half)


def test_alpha_endpoints_and_midpoint():
    assert alpha_of_t(0.0, T) == 0.0
    assert alpha_of_t(T, T) == pytest.approx(0.0, abs=1e-12)
    assert alpha_of_t(T / 2.0, T) == pytest.approx(np.pi)


def test_alpha_dot_finite_difference():
    t = np.linspace(1e-7, T - 1e-7, 41)
    h = T * 1e-8
    fd = (alpha_of_t(t + h, T) - alpha_of_t(t - h, T)) / (2.0 * h)
    assert np.max(np.abs(fd - alpha_dot(t, T))) < 1e-4 * np.pi ** 2 / T


def test_segment_and_sign():
    # up to and including T/2 the dynamical path is the holonomic one with the
    # same gamma; after it f changes sign, which leaves Omega unchanged
    dyn = GateSpec.dynamical(0.0, 0.0, 0.4)
    hol = _holonomic(0.4, dyn.gamma)
    t = np.array([0.2, 0.4, 0.5, 0.6, 0.8]) * T
    om_d, ph_d = controls_arrays(dyn, T, t)
    om_h, ph_h = controls_arrays(hol, T, t)
    assert np.array_equal(om_d, om_h)
    assert np.array_equal(ph_d[:3], ph_h[:3])
    assert np.all(np.abs(ph_d[3:] - ph_h[3:]) > 0.05)


def test_beta_closed_form_matches_quadrature():
    # d(beta)/dt = f_dot cos(alpha) = 4 eta sin^2(alpha) cos(alpha) alpha_dot;
    # the beta inside phi0 = chi - beta must match the quadrature of this rate
    eta = 0.7
    spec = _holonomic(eta, 0.3)

    def beta_dot(t):
        a = float(alpha_of_t(t, T))
        return 4.0 * eta * np.sin(a) ** 2 * np.cos(a) * float(alpha_dot(t, T))

    for t_end in (0.13 * T, 0.31 * T, 0.5 * T):
        a, adot = alpha_of_t(t_end, T), alpha_dot(t_end, T)
        chi = np.arctan2(adot, 4.0 * eta * np.sin(a) ** 3 * adot)
        _, phi0 = controls_arrays(spec, T, t_end)
        val, err = quad(beta_dot, 0.0, t_end, limit=200)
        assert abs(val - float(chi - phi0)) < 1e-9 + 10 * err


def test_beta_jump_holonomic():
    assert _beta_step_at_half(_holonomic(0.4, 1.1)) == pytest.approx(1.1, abs=1e-12)


def test_beta_continuous_dynamical():
    assert _beta_step_at_half(GateSpec.dynamical(0.0, 0.0, 0.4)) == pytest.approx(0.0, abs=1e-12)


def test_omega_segment_symmetry():
    spec = _holonomic(0.8, 0.5)
    t = np.linspace(0.0, T / 2.0, 101)
    om1, _ = controls_arrays(spec, T, t)
    om2, _ = controls_arrays(spec, T, T - t[::-1])
    assert np.allclose(om1, om2[::-1], atol=1e-6 * np.pi ** 2 / T)


def test_endpoint_phase_convention():
    omega, phi0 = controls_arrays(_holonomic(0.0, 0.7), T, np.array([0.0, T]))
    assert omega[0] == 0.0
    assert phi0[0] == pytest.approx(np.pi / 2.0)    # chi -> +pi/2, beta = 0
    assert phi0[1] == pytest.approx(-np.pi / 2.0 - 0.7)


def test_param_validation():
    spec = _holonomic(0.0, 0.0)
    for duration in (0.0, -1.0):
        with pytest.raises(ValueError):
            controls_arrays(spec, duration, [0.0])
    with pytest.raises(ValueError):
        GateSpec(theta=0.0, phi=0.0, gamma=0.0, scheme="adiabatic")
    with pytest.raises(ValueError):
        GateSpec(theta=0.0, phi=0.0, gamma=0.0, eta=0.5, scheme=DYNAMICAL)
    assert GateSpec.dynamical(0.0, 0.0, 0.5).gamma == dynamical_gamma(0.5)
    with pytest.raises(ValueError):
        alpha_of_t(-0.1 * T, T)
    with pytest.raises(ValueError):
        controls_arrays(spec, T, [0.5 * T, 1.1 * T])
