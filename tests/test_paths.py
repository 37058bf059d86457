import numpy as np
import pytest
from scipy.integrate import quad

from holopulse.paths import (DYNAMICAL, HOLONOMIC, PathParams, alpha_dot,
                             alpha_of_t, beta_of_t, controls_arrays,
                             dynamical_gamma, f_of_alpha, f_sign, segment_of)

T = 1.0e-4


def test_alpha_endpoints_and_midpoint():
    assert alpha_of_t(0.0, T) == 0.0
    assert alpha_of_t(T, T) == pytest.approx(0.0, abs=1e-12)
    assert alpha_of_t(T / 2.0, T) == pytest.approx(np.pi)


def test_alpha_dot_finite_difference():
    t = np.linspace(1e-7, T - 1e-7, 41)
    h = T * 1e-8
    fd = (alpha_of_t(t + h, T) - alpha_of_t(t - h, T)) / (2.0 * h)
    assert np.max(np.abs(fd - alpha_dot(t, T))) < 1e-4 * np.pi ** 2 / T


def test_f_monotone_and_endpoints():
    alpha = np.linspace(0.0, np.pi, 200)
    f = f_of_alpha(alpha, 0.5)
    assert f[0] == 0.0
    assert f[-1] == pytest.approx(np.pi)     # eta*(2*pi - 0)
    assert np.all(np.diff(f) >= 0)
    assert np.allclose(f_of_alpha(alpha, 0.5, sign=-1), -f)


def test_segment_and_sign():
    assert segment_of(0.4 * T, T) == 1
    assert segment_of(T / 2.0, T) == 1
    assert segment_of(0.6 * T, T) == 2
    assert f_sign(HOLONOMIC, 2) == 1.0
    assert f_sign(DYNAMICAL, 1) == 1.0
    assert f_sign(DYNAMICAL, 2) == -1.0


def test_beta_closed_form_matches_quadrature():
    # d(beta)/dt = 4 eta sin^2(alpha) cos(alpha) alpha_dot; quadrature of this
    # rate must reproduce the closed form (4 eta / 3) sin^3(alpha)
    eta = 0.7
    params = PathParams(duration=T, eta=eta, gamma=0.3)

    def beta_dot(t):
        a = float(alpha_of_t(t, T))
        return 4.0 * eta * np.sin(a) ** 2 * np.cos(a) * float(alpha_dot(t, T))

    for t_end in (0.13 * T, 0.31 * T, 0.5 * T):
        val, err = quad(beta_dot, 0.0, t_end, limit=200)
        assert abs(val - float(beta_of_t(t_end, params, 1))) < 1e-9 + 10 * err


def test_beta_jump_holonomic():
    gamma = 1.1
    params = PathParams(duration=T, eta=0.4, gamma=gamma)
    before = float(beta_of_t(T / 2.0, params, 1))
    after = float(beta_of_t(T / 2.0, params, 2))
    assert after - before == pytest.approx(gamma)


def test_beta_continuous_dynamical():
    params = PathParams.dynamical(T, 0.4)
    before = float(beta_of_t(T / 2.0, params, 1))
    after = float(beta_of_t(T / 2.0, params, 2))
    assert after == pytest.approx(before, abs=1e-12)
    assert before == pytest.approx(0.0, abs=1e-12)    # sin(pi) = 0


def test_inverse_engineering_residuals():
    """Omega and phi0 must solve alpha_dot = Omega sin(chi), f_dot sin a = Omega cos(chi)."""
    for eta, scheme in ((0.0, HOLONOMIC), (0.2, HOLONOMIC), (1.0, HOLONOMIC),
                        (0.5, DYNAMICAL)):
        if scheme == DYNAMICAL:
            params = PathParams.dynamical(T, eta)
        else:
            params = PathParams(duration=T, eta=eta, gamma=0.9)
        t = np.linspace(T * 1e-6, T * (1 - 1e-6), 501)
        omega, phi0, alpha, beta, _ = controls_arrays(params, t)
        chi = phi0 + beta
        adot = alpha_dot(t, T)
        seg = segment_of(t, T)
        sign = f_sign(scheme, seg)
        fdot = sign * 4.0 * eta * np.sin(alpha) ** 2 * adot
        scale = np.pi ** 2 / T
        assert np.max(np.abs(omega * np.sin(chi) - adot)) / scale < 1e-8
        assert np.max(np.abs(omega * np.cos(chi) - fdot * np.sin(alpha))) / scale < 1e-8
        assert np.all(omega >= 0.0)


def test_omega_segment_symmetry():
    params = PathParams(duration=T, eta=0.8, gamma=0.5)
    t = np.linspace(0.0, T / 2.0, 101)
    om1, *_ = controls_arrays(params, t)
    om2, *_ = controls_arrays(params, T - t[::-1])
    assert np.allclose(om1, om2[::-1], atol=1e-6 * np.pi ** 2 / T)


def test_endpoint_phase_convention():
    params = PathParams(duration=T, eta=0.0, gamma=0.7)
    omega, phi0, *_ = controls_arrays(params, np.array([0.0, T]))
    assert omega[0] == 0.0
    assert phi0[0] == pytest.approx(np.pi / 2.0)    # chi -> +pi/2, beta = 0
    assert phi0[1] == pytest.approx(-np.pi / 2.0 - 0.7)


def test_param_validation():
    with pytest.raises(ValueError):
        PathParams(duration=-1.0, eta=0.0)
    with pytest.raises(ValueError):
        PathParams(duration=T, eta=0.0, scheme="adiabatic")
    with pytest.raises(ValueError):
        PathParams(duration=T, eta=0.5, scheme=DYNAMICAL, gamma=0.0)
    assert PathParams.dynamical(T, 0.5).gamma == dynamical_gamma(0.5)
    with pytest.raises(ValueError):
        alpha_of_t(-0.1 * T, T)
    with pytest.raises(ValueError):
        beta_of_t(0.7 * T, PathParams(duration=T, eta=0.1), 1)
