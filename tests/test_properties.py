"""Property tests: the inverse-engineered controls, the closed propagator's
epsilon batch axis, ideal gates and the paper's first-order robustness law,
the real open channel against its complex Strang formula, the memo of its
first half, the gate and tone-file round trips, the tomography measurement
model, the RB gate cache, recovery and decay fit, and the CLI on fuzzed
configs and on edits of every config key."""
import json
import re
import tempfile
from functools import partial
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holopulse import engine, rbench
from holopulse.cli import main
from holopulse.engine import (NoiseModel, _cf4_steps, _ck_product, _coupling,
                              _dephasing_rates, _embed, block_basis, dephasing_from_t2,
                              open_superoperator, propagate_unitary, survival_probability,
                              trace_defect)
from holopulse.gates import (axis_angle, clifford_products, clifford_table, phase_equivalent,
                             target_unitary)
from holopulse.paths import DYNAMICAL, HOLONOMIC, controls_arrays
from holopulse.pulses import GateSpec, export_tones, named_gate, synthesize
from holopulse.rbench import GateCache, RBConfig, build_sequence, decay_rate, run_rb
from holopulse.qcore import SX, fidelity_qubit_subspace, leakage, unitarity_defect
from holopulse.tomo import BASES, exact_records, propagator_channel

STEPS = 512

gates = st.builds(
    GateSpec,
    theta=st.floats(0.0, np.pi),
    phi=st.floats(-np.pi, np.pi, exclude_max=True),
    gamma=st.floats(-np.pi, np.pi),
    eta=st.floats(-1.0, 1.0))
epsilons = arrays(np.float64, st.integers(1, 6), elements=st.floats(-0.5, 0.5))
few = settings(derandomize=True, deadline=None, max_examples=25)

T = 1.0e-4
paths = (st.builds(GateSpec, theta=st.just(0.0), phi=st.just(0.0), eta=st.floats(-1.0, 1.0),
                   gamma=st.floats(-2.0 * np.pi, 2.0 * np.pi, exclude_min=True))
         | st.builds(GateSpec.dynamical, theta=st.just(0.0), phi=st.just(0.0),
                     eta=st.floats(-1.0, 1.0, exclude_max=True)))


@few
@given(spec=paths)
def test_controls_invert_the_path(spec):
    """Omega sin(chi) = alpha_dot and Omega cos(chi) = f_dot sin(alpha) with
    chi = phi0 + beta, for alpha, f and beta in closed form: the sign of f
    flips on segment 2 of a dynamical path, and beta jumps by gamma at T/2 on
    a holonomic one."""
    t = np.linspace(0.0, T, 513)
    omega, phi0 = controls_arrays(spec, T, t)
    alpha = np.pi * np.sin(np.pi * t / T) ** 2
    adot = (np.pi ** 2 / T) * np.sin(2.0 * np.pi * t / T)
    second = t > T / 2.0
    sign = np.where(second & (spec.scheme == DYNAMICAL), -1.0, 1.0)
    jump = spec.gamma if spec.scheme == HOLONOMIC else 0.0
    beta = np.where(second, jump, 0.0) + sign * (4.0 * spec.eta / 3.0) * np.sin(alpha) ** 3
    fdot_sin = sign * 4.0 * spec.eta * np.sin(alpha) ** 3 * adot
    chi = phi0 + beta
    scale = np.pi ** 2 / T
    assert np.all(omega >= 0.0)
    assert np.max(np.abs(omega * np.sin(chi) - adot)) <= 1e-12 * scale
    assert np.max(np.abs(omega * np.cos(chi) - fdot_sin)) <= 1e-12 * scale
    # chi is +pi/2 at T/2 (segment 1) and tends to -pi/2 just after it, so
    # phi0 = chi - beta shows the step of beta there
    _, (half, after) = controls_arrays(spec, T, [T / 2.0, T / 2.0 * (1.0 + 1e-6)])
    assert abs((-np.pi / 2.0 - after) - (np.pi / 2.0 - half) - jump) <= 1e-12


@few
@given(spec=gates, grid=epsilons)
def test_batch_matches_scalar_calls(spec, grid):
    sched = synthesize(spec, n_samples=256)
    batch = propagate_unitary(sched, grid, STEPS)
    for k, eps in enumerate(grid):
        one = propagate_unitary(sched, eps, STEPS)
        assert np.max(np.abs(batch.unitary[k] - one.unitary)) <= 1e-13
        assert abs(batch.truncation_error[k] - one.truncation_error) <= 1e-13
        assert batch.converged[k] == one.converged


@few
@given(spec=gates, grid=epsilons)
def test_dark_state_is_fixed_across_the_batch(spec, grid):
    # |d> = -cos(t/2) e^{-i phi}|0> - sin(t/2)|1>, orthogonal to |b> and |a>
    d = np.array([-np.cos(spec.theta / 2.0) * np.exp(-1j * spec.phi),
                  -np.sin(spec.theta / 2.0), 0.0])
    u = propagate_unitary(synthesize(spec, n_samples=256), grid, STEPS, check=False).unitary
    assert np.max(np.abs(u @ d - d)) <= 1e-13


@few
@given(spec=gates, grid=epsilons)
def test_stacked_unitarity_defect_is_the_worst_matrix(spec, grid):
    u = propagate_unitary(synthesize(spec, n_samples=256), grid, STEPS, check=False).unitary
    assert unitarity_defect(u) == max(unitarity_defect(m) for m in u)


either_scheme = (st.builds(GateSpec, theta=st.floats(0.0, np.pi),
                           phi=st.floats(-np.pi, np.pi, exclude_max=True),
                           gamma=st.floats(-np.pi, np.pi), eta=st.floats(-2.0, 2.0))
                 | st.builds(GateSpec.dynamical, theta=st.floats(0.0, np.pi),
                             phi=st.floats(-np.pi, np.pi, exclude_max=True),
                             eta=st.floats(-1.0, 1.0, exclude_max=True)))


@few
@given(spec=either_scheme, lo=st.floats(-0.5, 0.5), hi=st.floats(-0.5, 0.5),
       points=st.integers(1, 101))
def test_stacked_fidelity_is_the_scalar_fidelity_bitwise(spec, lo, hi, points):
    """One call on a sweep's epsilon stack returns each matrix's scalar
    fidelity, and the scalar form |Tr(U2^dag V)|/2 by abs() of one complex
    scalar, bit for bit: np.abs of the stacked traces would round 1 ulp
    apart on about half the points."""
    grid = np.linspace(lo, hi, points)
    u = propagate_unitary(synthesize(spec, n_samples=256), grid, STEPS, check=False).unitary
    v = target_unitary(spec)
    stacked = fidelity_qubit_subspace(u, v)
    assert stacked.shape == (points,)
    assert stacked.tolist() == [fidelity_qubit_subspace(m, v) for m in u]
    assert stacked.tolist() == [abs(np.trace(m[:2, :2].conj().T @ v)) / 2 for m in u]


@few
@given(spec=gates)
def test_ideal_gate_reaches_its_target(spec):
    """Without an amplitude error the propagated gate is its target on the
    qubit subspace and leaves nothing in |a>."""
    u = propagate_unitary(synthesize(spec, n_samples=256), 0.0, STEPS, check=False).unitary
    assert 1.0 - fidelity_qubit_subspace(u, target_unitary(spec)) <= 1e-9
    assert leakage(u) <= 1e-9


holonomic_gates = st.builds(
    GateSpec, theta=st.floats(0.05, np.pi), phi=st.floats(0.05, np.pi, exclude_max=True),
    gamma=st.floats(0.05, np.pi), eta=st.floats(0.0, 2.5))


@few
@given(spec=holonomic_gates)
def test_first_order_robustness_law(spec):
    """The paper's first-order law: on the driven block U2 = E^dag U E =
    [[a, b], [-b*, a*]] of a holonomic gate, d a / d eps = 0 at eps = 0 and
    |d b / d eps| = |sin(gamma/2) sin(pi eta) / eta| = pi |sin(gamma/2) sinc(eta)|
    (pi |sin(gamma/2)| at eta = 0), so the infidelity is c2 eps^2 with
    c2 = sin^2(gamma/2) sin^2(pi eta) / (2 eta)^2. The derivatives are
    fourth-order central differences at eps = +-h, +-2h, from one batch."""
    h = 1e-5
    u = propagate_unitary(synthesize(spec, n_samples=256), np.array([-2, -1, 1, 2]) * h,
                          8192, check=False).unitary
    e = block_basis(spec)
    block = e.conj().T @ u @ e
    da, db = (np.array([1.0, -8.0, 8.0, -1.0]) @ block[:, 0, :]) / (12.0 * h)
    law = np.pi * abs(np.sin(spec.gamma / 2.0) * np.sinc(spec.eta))   # sinc(0) = 1
    assert abs(da) <= 1e-8
    assert abs(abs(db) - law) <= 1e-9


def _complex_channel(sched, noise, steps):
    """The Strang-Richardson channel on vec(rho), each step lifted as
    np.kron(U, U*) and multiplied in order."""
    a, b = _cf4_steps(partial(_coupling, sched.spec, sched.duration), sched.duration,
                      2 * steps, 1.0 + noise.epsilon)
    half = _embed(sched.spec, a, b)
    whole = _embed(sched.spec, *_ck_product((a[1::2], b[1::2]), (a[0::2], b[0::2])))
    h = sched.duration / steps
    rates = _dephasing_rates(noise)
    quarter, halved = np.diag(np.exp(0.25 * h * rates)), np.diag(np.exp(0.5 * h * rates))
    channel = np.eye(9, dtype=complex)
    for k in range(steps):
        first, second = (quarter @ np.kron(u, u.conj()) @ quarter
                         for u in half[2 * k:2 * k + 2])
        full = halved @ np.kron(whole[k], whole[k].conj()) @ halved
        channel = (4.0 * second @ first - full) / 3.0 @ channel
    return channel


@few
@given(spec=gates, epsilon=st.floats(-0.5, 0.5), gamma_1a=st.floats(0.0, 3000.0),
       gamma_0a=st.floats(0.0, 1000.0), steps=st.sampled_from([256, 512]),
       parts=arrays(np.float64, (2, 3, 3), elements=st.floats(-1.0, 1.0)))
def test_real_open_channel_matches_the_complex_formula(spec, epsilon, gamma_1a, gamma_0a,
                                                       steps, parts):
    """The real 9x9 kernel returns the complex Strang-Richardson channel: it
    preserves the trace and maps Hermitian rho to Hermitian rho."""
    sched = synthesize(spec, n_samples=256)
    noise = NoiseModel(epsilon=epsilon, gamma_1a=gamma_1a, gamma_0a=gamma_0a)
    phi = open_superoperator(sched, noise, steps)
    assert phi.shape == (9, 9) and np.iscomplexobj(phi)
    assert np.max(np.abs(phi - _complex_channel(sched, noise, steps))) <= 1e-12
    assert trace_defect(phi) <= 1e-12
    g = parts[0] + 1j * parts[1]
    rho = (phi @ (g + g.conj().T).reshape(-1)).reshape(3, 3)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12


signed_zeros = st.sampled_from([0.0, -0.0])
loop_gates = st.tuples(st.floats(0.0, np.pi), st.floats(-np.pi, np.pi, exclude_max=True),
                       st.floats(-2.0 * np.pi, 2.0 * np.pi, exclude_min=True), st.booleans())


def _bits(*values):
    return [np.asarray(v).tobytes() for v in values]


@few
@given(gates=st.lists(loop_gates, min_size=1, max_size=4),
       eta=st.floats(-1.0, 1.0, exclude_max=True) | signed_zeros,
       epsilon=st.floats(-0.5, 0.5) | signed_zeros,
       grid=arrays(np.float64, st.integers(1, 4), elements=st.floats(-0.5, 0.5) | signed_zeros))
def test_every_gate_at_eta_has_the_memos_first_half(gates, eta, epsilon, grid):
    """The closed first half is one memo entry for every gate at eta, either
    scheme and any (theta, phi, gamma): `cf4` on the gate's own coupling
    gives the memo's pair bit for bit, for a scalar epsilon and a grid, with
    +-0.0 in eta and epsilon sharing one entry. `propagate_unitary` and
    `survival_probability` give the same bits with the memo warm and cold."""
    specs = [GateSpec.dynamical(theta, phi, gate_eta) if dynamical
             else GateSpec(theta, phi, gamma, gate_eta)
             for theta, phi, gamma, dynamical in gates
             for gate_eta in ({eta, -eta} if eta == 0.0 else (eta,))]
    scheds = [synthesize(spec, n_samples=256) for spec in specs]
    for sched in scheds:
        coupling = partial(_coupling, sched.spec, sched.duration)
        for key in (epsilon, -epsilon, tuple(grid.tolist())):
            memo = engine.first_half_block(sched.spec.eta, sched.omega_max, key, STEPS)
            own = engine.cf4(coupling, sched.duration / 2.0, STEPS // 2,
                             1.0 + np.asarray(key))
            assert _bits(*memo) == _bits(*own), (sched.spec, key)

    def results(sched):
        scalar = propagate_unitary(sched, epsilon, STEPS)
        batch = propagate_unitary(sched, grid, STEPS)
        return _bits(scalar.unitary, scalar.truncation_error, batch.unitary,
                     batch.truncation_error, survival_probability(sched, epsilon, STEPS // 2))

    engine.first_half_block.cache_clear()
    warm = [results(sched) for sched in scheds]
    keys = {(epsilon, STEPS), (epsilon, STEPS // 2), (tuple(grid), STEPS),
            (tuple(grid), STEPS // 2), ((0.0, epsilon), STEPS)}
    assert engine.first_half_block.cache_info().misses == len(keys)
    for sched, made in zip(scheds, warm):
        engine.first_half_block.cache_clear()
        assert results(sched) == made, sched.spec


@few
@given(spec=gates, gammas=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi, exclude_min=True),
                                   min_size=1, max_size=4),
       eta=st.floats(-1.0, 1.0, exclude_max=True))
def test_every_gamma_of_a_theta_closes_one_first_half(spec, gammas, eta):
    """The gates of one (theta, phi, eta), holonomic at every gamma and
    dynamical, share one memoized first-half channel, which is read-only; each
    gate's channel is the same whether it made that half (memo cleared before
    every gate) or read it, first or last."""
    noise = NoiseModel(epsilon=0.05, gamma_1a=300.0, gamma_0a=100.0)
    specs = [GateSpec(spec.theta, spec.phi, gamma, eta) for gamma in gammas]
    specs.append(GateSpec.dynamical(spec.theta, spec.phi, eta))
    scheds = [synthesize(s, n_samples=256) for s in specs]
    cold = []
    for sched in scheds:
        engine.first_half_channel.cache_clear()
        cold.append(open_superoperator(sched, noise, STEPS))
    engine.first_half_channel.cache_clear()
    forward = [open_superoperator(sched, noise, STEPS) for sched in scheds]
    assert engine.first_half_channel.cache_info()[:2] == (len(scheds) - 1, 1)   # hits, misses
    engine.first_half_channel.cache_clear()
    backward = [open_superoperator(sched, noise, STEPS) for sched in reversed(scheds)][::-1]
    for channels in (forward, backward):
        assert all(np.array_equal(x, y) for x, y in zip(cold, channels))
    first = engine.first_half_channel(spec.theta, spec.phi, eta, scheds[0].omega_max,
                                      noise.epsilon, noise.gamma_1a, noise.gamma_0a, STEPS)
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


# every angle GateSpec admits, its endpoints drawn on purpose
angles = st.builds(
    GateSpec,
    theta=st.floats(0.0, np.pi) | st.sampled_from([0.0, np.pi]),
    phi=st.floats(-np.pi, np.pi, exclude_max=True) | st.sampled_from([-np.pi, 0.0]),
    gamma=(st.floats(-2.0 * np.pi, 2.0 * np.pi, exclude_min=True)
           | st.sampled_from([2.0 * np.pi, np.pi, -np.pi, 0.0])))


def _rotation_vector(spec):
    """gamma n for the axis n of (theta, phi): well conditioned where phi is
    not, near the poles, and where n is not, at small gamma."""
    return spec.gamma * np.array([np.sin(spec.theta) * np.cos(spec.phi),
                                  np.sin(spec.theta) * np.sin(spec.phi),
                                  np.cos(spec.theta)])


@few
@given(spec=angles, alpha=st.floats(-np.pi, np.pi))
def test_axis_angle_round_trip_is_phase_equivalent(spec, alpha):
    """axis_angle inverts target_unitary up to a global phase, and ignores
    one: u and e^{i alpha} u give the same rotation to 1e-12."""
    u = target_unitary(spec)
    back = axis_angle(u)
    unitary = target_unitary(back)
    overlap = np.trace(u.conj().T @ unitary)      # 2 e^{i alpha} for a global phase
    assert np.max(np.abs(unitary - overlap / abs(overlap) * u)) <= 1e-7
    shifted = axis_angle(np.exp(1j * alpha) * u)
    assert abs(shifted.gamma - back.gamma) <= 1e-12
    assert np.max(np.abs(_rotation_vector(shifted) - _rotation_vector(back))) <= 1e-12


@few
@given(spec=gates, omega_max=st.floats(1e3, 1e6))
def test_tone_file_round_trip_is_bitwise(check_tone_file, spec, omega_max):
    sched = synthesize(spec, omega_max, n_samples=256)
    with tempfile.TemporaryDirectory() as tmp:
        check_tone_file(export_tones(sched, Path(tmp) / "tones.csv"), sched)


# the inputs |0>, |1>, |+>, |->, |+i>, |-i>, and the bright state of each basis:
# the +1 eigenvector of sigma_b
_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]]) / np.sqrt(
    [[1], [1], [2], [2], [2], [2]])
_BRIGHT_KETS = {"x": _KETS[2], "y": _KETS[4], "z": _KETS[0]}


def _kraus_bright(k, noise, prep, basis):
    """The Born rule in Kraus form: <e_b| K rho_j' K^dag |e_b>, then detection."""
    psi, e = _KETS[prep], _BRIGHT_KETS[basis]
    rho = np.outer(psi, psi.conj())
    rho = (1.0 - noise.prep_error) * rho + noise.prep_error * (SX @ rho @ SX)
    p = np.real(e.conj() @ k @ rho @ k.conj().T @ e)
    p = min(max(p, 0.0), 1.0)
    return (p * (1.0 - noise.detection_error_bright)
            + (1.0 - p) * noise.detection_error_dark)


probabilities = st.floats(0.0, 0.2)


@few
@given(spec=gates, leak=st.floats(0.0, 0.3), prep_error=probabilities,
       bright_error=probabilities, dark_error=probabilities)
def test_exact_records_match_the_kraus_born_rule(spec, leak, prep_error,
                                                 bright_error, dark_error):
    u3 = np.eye(3, dtype=complex)
    u3[:2, :2] = target_unitary(spec)
    mix = np.eye(3, dtype=complex)      # turns |1> towards |a> by the angle leak
    mix[1, 1] = mix[2, 2] = np.cos(leak)
    mix[1, 2], mix[2, 1] = -np.sin(leak), np.sin(leak)
    u3 = mix @ u3
    noise = NoiseModel(prep_error=prep_error, detection_error_bright=bright_error,
                       detection_error_dark=dark_error)
    counts = exact_records(propagator_channel(u3), noise)
    assert counts.bright.shape == (6, len(BASES)) and counts.shots == 1
    for j in range(6):
        for k, b in enumerate(BASES):
            assert abs(counts.bright[j, k] - _kraus_bright(u3[:2, :2], noise, j, b)) <= 1e-15


@few
@given(spec=angles, eta=st.floats(-1.0, 1.0), dephased=st.booleans())
def test_cached_channel_matches_a_direct_propagation(spec, eta, dephased):
    """The cache's channel is the spec's own: the lift U (x) U* of its
    propagated unitary when closed, bit for bit, and under dephasing the
    channel it turns from phi = 0."""
    spec = GateSpec(spec.theta, spec.phi, spec.gamma, eta)
    noise = dephasing_from_t2(20e-3, 200e-3) if dephased else NoiseModel(epsilon=0.05)
    cfg = RBConfig(eta=eta, noise=noise, n_samples=256, steps=STEPS)
    sched = synthesize(spec, cfg.omega_max, cfg.n_samples)
    channel = GateCache().channels(cfg)(spec)
    if dephased:
        assert np.max(np.abs(channel - open_superoperator(sched, noise, STEPS))) <= 1e-13
    else:
        u = propagate_unitary(sched, noise.epsilon, STEPS, check=False).unitary
        assert np.array_equal(channel, np.kron(u, u.conj()))


@few
@given(m=st.integers(1, 40), n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       name=st.sampled_from([None, "X", "T"]), eta=st.floats(-1.0, 1.0))
def test_recovery_closes_the_sequence(gate_specs, m, n, seed, name, eta):
    """The Cayley-table recovery (no interleaved gate, or the Clifford X) and
    the axis_angle one (T) return each of a length's sequences to I up to a
    global phase. The gates are rows of indices into the run's stack:
    Cliffords below 24, and the interleaved gate at 24 after each of them."""
    interleaved = None if name is None else named_gate(name, eta)
    idx = np.array([np.random.default_rng((seed, j)).integers(0, 24, size=m) for j in range(n)])
    gates, recoveries = build_sequence(m, idx, interleaved, eta)
    assert gates.dtype.kind == "i" and gates.shape == (n, m if name is None else 2 * m)
    assert np.all(gates[:, ::1 if name is None else 2] < 24)
    assert name is None or np.all(gates[:, 1::2] == 24)
    assert len(recoveries) == n
    for row, recovery in zip(gates, recoveries):
        acc = np.eye(2, dtype=complex)
        for spec in gate_specs(row, eta, interleaved) + [recovery]:
            assert spec.eta == eta
            acc = target_unitary(spec) @ acc
        assert phase_equivalent(acc, np.eye(2))


def _reference_survival(specs, cfg):
    """The |0>-return probability by direct formulas, with no cache: 3x3
    conjugation by each propagated unitary when closed, each gate's own
    open_superoperator when dephased, and 2x2 ideal targets, each followed by
    the depolarizer, in exact mode."""
    noise = cfg.noise
    if cfg.mode == "exact":
        rho = np.diag([1.0 - noise.prep_error, noise.prep_error]).astype(complex)
        for spec in specs:
            u = target_unitary(spec)
            rho = u @ rho @ u.conj().T
            rho = (1.0 - cfg.depolarizing) * rho + cfg.depolarizing * np.trace(rho) * np.eye(2) / 2.0
    else:
        rho = np.diag([1.0 - noise.prep_error, noise.prep_error, 0.0]).astype(complex)
        for spec in specs:
            sched = synthesize(spec, cfg.omega_max, cfg.n_samples)
            if noise.gamma_1a > 0.0:
                rho = (open_superoperator(sched, noise, cfg.steps) @ rho.reshape(-1)).reshape(3, 3)
            else:
                u = propagate_unitary(sched, noise.epsilon, cfg.steps, check=False).unitary
                rho = u @ rho @ u.conj().T
    p = min(max(float(np.real(rho[0, 0])), 0.0), 1.0)
    return (p * (1.0 - noise.detection_error_bright)
            + (1.0 - p) * noise.detection_error_dark)


@few
@given(eta=st.floats(-1.0, 1.0), epsilon=st.floats(-0.5, 0.5), gamma_1a=st.sampled_from([0.0, 300.0]),
       prep_error=probabilities, bright_error=probabilities, dark_error=probabilities,
       name=st.sampled_from([None, "X", "T"]), exact=st.booleans(),
       depolarizing=st.floats(0.0, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_rb_means_match_the_direct_formulas(gate_specs, eta, epsilon, gamma_1a, prep_error,
                                            bright_error, dark_error, name, exact,
                                            depolarizing, seed):
    """run_rb, whose every gate is a cached 9x9 channel, averages the
    survival that direct propagation of every gate gives, in every mode."""
    if exact:       # exact mode rejects the pulse noise it would ignore
        epsilon = gamma_1a = 0.0
    noise = NoiseModel(epsilon=epsilon, gamma_1a=gamma_1a, gamma_0a=0.1 * gamma_1a,
                       prep_error=prep_error, detection_error_bright=bright_error,
                       detection_error_dark=dark_error)
    mode = {"mode": "exact", "depolarizing": depolarizing} if exact else {}
    cfg = RBConfig(lengths=(1, 2, 3, 4), n_sequences=2, seed=seed, eta=eta, noise=noise,
                   interleaved=None if name is None else named_gate(name, eta),
                   n_samples=256, steps=STEPS, **mode)
    reference = []
    for m in cfg.lengths:
        idx = np.array([np.random.default_rng(np.random.SeedSequence(entropy=(seed, m, j)))
                        .integers(0, 24, size=m) for j in range(cfg.n_sequences)])
        gates, recoveries = build_sequence(m, idx, cfg.interleaved, eta)
        survival = [_reference_survival(gate_specs(row, eta, cfg.interleaved) + [recovery], cfg)
                    for row, recovery in zip(gates, recoveries)]
        reference.append(np.mean(survival))
    no_fit = (1.0, 1.0, 0.0)     # the means alone are compared
    with mock.patch.object(rbench, "fit_decay", return_value=no_fit):
        means = run_rb(cfg).means
    assert np.max(np.abs(means - reference)) <= 1e-13


@settings(derandomize=True, deadline=None, max_examples=10)
@given(eta=st.floats(0.0, 1.0), epsilon=st.floats(-0.2, 0.2), dephased=st.booleans())
def test_sequence_average_decays_at_the_spectral_rates(eta, epsilon, dephased):
    """The exact survival averaged over all Clifford sequences of length m is
    A + B lam^m + C p^m from m = 16 on, at p = decay_rate and lam the
    eigenvalue of second-largest modulus of the mean Clifford channel (the
    leakage decay). The average comes from the transfer recursion on the
    Cayley table: state[c] sums vec(rho) over the sequences whose product is C_c."""
    rates = (300.0, 30.0) if dephased else (0.0, 0.0)
    cfg = RBConfig(eta=eta, noise=NoiseModel(epsilon=epsilon, gamma_1a=rates[0],
                                             gamma_0a=rates[1]),
                   n_samples=256, steps=STEPS)
    cache, table = GateCache(), clifford_table(eta)
    memo = cache.channels(cfg)
    channels = np.stack([memo(el.spec) for el in table])
    recoveries = np.stack([memo(el.recovery) for el in table])
    products = np.array(clifford_products())
    state = np.zeros((len(table), 9), dtype=complex)
    state[0, 0] = 1.0       # |0><0| before the first gate, the identity so far
    survival = []
    for _ in range(64):
        new = np.zeros_like(state)
        for g, channel in enumerate(channels):
            new[products[g]] += state @ channel.T / len(table)
        state = new
        survival.append(np.real(np.sum(recoveries[:, 0, :] * state)))
    eigenvalues = np.linalg.eigvals(np.mean(channels, axis=0))
    lam = np.real(eigenvalues[np.argsort(-np.abs(eigenvalues))[1]])
    m = np.arange(16, 65)
    basis = np.stack([np.ones(m.size), lam ** m, decay_rate(cfg, cache) ** m], axis=1)
    coeffs = np.linalg.lstsq(basis, survival[15:], rcond=None)[0]
    assert np.max(np.abs(basis @ coeffs - survival[15:])) <= 1e-6


def _decay(lengths, a, p, b):
    return a * p ** lengths + b


def _rss(lengths, means, *params):
    residual = means - _decay(lengths, *params)
    return residual @ residual


@few
@given(a=st.floats(0.2, 0.5), p=st.floats(0.9, 0.999), b=st.floats(0.45, 0.55),
       sigma=st.floats(1e-4, 5e-3), seed=st.integers(0, 2 ** 32 - 1))
def test_fit_decay_is_no_worse_than_curve_fit(a, p, b, sigma, seed):
    """On a noisy decay at the benchmark's lengths, fit_decay returns p in (0, 1]
    with a residual no larger than that of scipy's Levenberg-Marquardt fit,
    seeded from a log-linear fit of means - 1/2 (the fit fit_decay replaced)."""
    from scipy.optimize import curve_fit
    lengths = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    rng = np.random.default_rng(seed)
    means = _decay(lengths, a, p, b) + sigma * rng.standard_normal(lengths.size)
    above = means - 0.5
    mask = above > 1e-9
    p0 = (float(np.exp(np.polyfit(lengths[mask], np.log(above[mask]), 1)[0]))
          if np.count_nonzero(mask) >= 2 else 0.99)
    p0 = min(max(p0, 1e-6), 1.0 - 1e-9)
    a0 = float(above[0] / p0 ** lengths[0]) if above[0] > 0 else 0.5
    reference, _ = curve_fit(_decay, lengths, means, p0=(a0, p0, 0.5), method="lm",
                             maxfev=20000)
    fit = rbench.fit_decay(lengths, means)
    assert 0.0 < fit[1] <= 1.0
    assert _rss(lengths, means, *fit) <= _rss(lengths, means, *reference) * (1.0 + 1e-9)


# small valid configs of every command; the edits below never raise
# n_samples or steps above 1024
_SMALL = {
    "synth": {"gate": "X", "n_samples": 256},
    "propagate": {"gate": {"theta": 1.1, "phi": 0.4, "gamma": 2.0, "eta": 0.3},
                  "noise": {"epsilon": 0.05}, "n_samples": 256, "steps": 512},
    "qpt": {"gate": "H", "analytic": True, "n_samples": 256, "steps": 512},
    "rb": {"interleaved": "T", "noise": {"epsilon": 0.05}, "lengths": [1, 2, 4, 8],
           "sequences": 2, "n_samples": 256, "steps": 512},
    "sweep": {"gate": "X", "epsilon_grid": {"min": -0.1, "max": 0.1, "points": 3},
              "n_samples": 256, "steps": 512},
    "sideband": {"gamma": 1.5, "n_samples": 512, "steps": 1024},
}
_FIELDS = sorted({key for cfg in _SMALL.values() for key in cfg}
                 | {"experiment", "seed", "noise", "shots", "eta", "scheme", "mode",
                    "schemes", "omega_max", "n_max", "eta_ld", "bogus"})
_VALUES = st.sampled_from([
    None, True, False, -1, 0, 2, 3, 0.5, -0.25, 1e-3, float("nan"), "", "X", "T",
    "124", "rb", "dynamical", [], [1, 2, 4, 8], [0.05], ["a"], [[1]], {}, {"name": 5},
    {"name": None}, {"theta": 1.0}, {"epsilon": 0.05}, {"gamma_1a": 100.0},
    [{"eta": 0.5}, {"eta": 1.0}]])
_DELETE = object()
_EDITS = (st.tuples(st.sampled_from(_FIELDS), _VALUES | st.just(_DELETE))
          | st.tuples(st.sampled_from(["n_samples", "steps"]),
                      st.sampled_from([256, 512, 1024])))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(command=st.sampled_from(sorted(_SMALL)), edits=st.lists(_EDITS, min_size=1, max_size=3))
def test_fuzzed_config_exits_cleanly(command, edits):
    """Exit code 0, 2 or 3; 2 is a config error and leaves no output directory."""
    cfg = {"experiment": command, **_SMALL[command]}
    for key, value in edits:
        if value is _DELETE:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        status = main([command, "--config", str(path), "--out", str(out)])
        assert status in (0, 2, 3)
        assert out.exists() == (status != 2)


# small valid configs that together read every key a command accepts; each
# gate-taking config but one names its gate by angles, so that the nested
# gate edits apply
_ANGLES = {"theta": 1.1, "phi": 0.4, "gamma": 2.0}
_BASES = [
    ("synth", {"gate": _ANGLES, "n_samples": 256}),
    ("propagate", {"gate": dict(_ANGLES, eta=0.3), "noise": {"epsilon": 0.05},
                   "n_samples": 256, "steps": 512}),
    ("qpt", {"gate": _ANGLES, "analytic": True, "n_samples": 256, "steps": 512}),
    ("qpt", {"gate": "H", "analytic": False, "shots": 200, "noise": {"prep_error": 0.01},
             "n_samples": 256, "steps": 512}),
    ("rb", {"interleaved": "T", "noise": {"epsilon": 0.05}, "lengths": [1, 2, 4, 8],
            "sequences": 2, "n_samples": 256, "steps": 512}),
    ("rb", {"noise": {"gamma_1a": 100.0, "gamma_0a": 10.0}, "eta": 0.2,
            "lengths": [1, 4, 8, 16], "sequences": 2, "n_samples": 256, "steps": 512}),
    ("sweep", {"mode": "direct", "gate": _ANGLES, "n_samples": 256, "steps": 512,
               "epsilon_grid": {"min": -0.1, "max": 0.1, "points": 3}}),
    ("sweep", {"mode": "rb", "epsilon_grid": [0.05], "n_samples": 256, "steps": 512}),
    ("sideband", {"gamma": 1.5, "n_samples": 512, "steps": 1024}),
]
# one or more edits of every key that any command accepted before commands
# read exactly their keys, nested fields and a bogus key included; each value
# is valid wherever the key is read, and differs from the key's default
_OMEGA = 2.0 * np.pi * 3.7e4
_KEY_EDITS = [
    (("experiment",), "synth"), (("experiment",), "qpt"), (("seed",), 5),
    (("gate",), "H"), (("gate",), {"theta": 0.7, "phi": -0.2, "gamma": 1.3}),
    (("gate", "name"), "H"), (("gate", "theta"), 0.7), (("gate", "phi"), -0.2),
    (("gate", "gamma"), 1.3), (("gate", "eta"), 0.6), (("gate", "scheme"), DYNAMICAL),
    (("gate", "bogus"), 1),
    (("omega_max",), _OMEGA), (("n_samples",), 512), (("steps",), 1024),
    (("noise", "epsilon"), 0.03), (("noise", "gamma_1a"), 50.0),
    (("noise", "gamma_0a"), 5.0), (("noise", "prep_error"), 0.02),
    (("noise", "detection_error_bright"), 0.02), (("noise", "detection_error_dark"), 0.03),
    (("noise", "bogus"), 1),
    (("shots",), 300), (("analytic",), True), (("analytic",), False),
    (("lengths",), [1, 2, 3, 4]), (("sequences",), 3),
    (("interleaved",), "H"), (("interleaved",), dict(_ANGLES, eta=0.2)),
    (("eta",), 0.5), (("scheme",), DYNAMICAL),
    (("epsilon_grid",), [0.05, 0.1]), (("epsilon_grid", "min"), -0.15),
    (("epsilon_grid", "max"), 0.15), (("epsilon_grid", "points"), 5),
    (("epsilon_grid", "bogus"), 1),
    (("schemes",), [{"eta": 0.5}, {"eta": 1.0}]),
    (("schemes",), [{"scheme": DYNAMICAL, "eta": 0.5}, {"eta": 0.5}]),
    (("schemes",), [{"eta": 0.0, "bogus": 1}, {"eta": 1.0}]),
    (("mode",), "rb"), (("mode",), "direct"),
    (("gamma",), 2.0), (("omega_eff_max",), _OMEGA), (("n_max",), 6),
    (("eta_ld",), 0.2), (("bogus",), 1),
]
# keys that may change no output, with the interface that keeps each
_KEPT = {
    "n_samples": "criterion 9 and the benchmark workloads pass it",
    "seed": "criterion 9 passes --seed, which overrides it",
    "sideband eta": "the benchmark's verify workload passes it",
    "sideband steps": "the benchmark's verify workload passes it",
    # fidelity to the gate's own target, leakage and the truncation estimate
    # are invariant under a rotation of the gate axis about z
    "propagate gate.phi": "part of the gate, which synth and qpt read",
    "sweep gate.phi": "part of the gate, which synth and qpt read",
}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _outputs(command, cfg):
    """(exit status, {file: its lines without the header})."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        status = main([command, "--config", str(path), "--out", str(out), "--seed", "3"])
        files = {p.name: [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]
                 for p in sorted(out.iterdir())} if out.exists() else {}
    return status, files


def _moved(a, b):
    """Whether lines b differ from lines a in their text, or in a number x by
    more than 1e-12 max(1, |x|). The floor is 1 because every reported figure
    below 1 (an infidelity, a leakage, a truncation estimate) is computed from
    amplitudes of order 1, whose rounding alone moves it by about 1e-16."""
    if len(a) != len(b) or any(_NUMBER.split(x) != _NUMBER.split(y) for x, y in zip(a, b)):
        return True
    pairs = np.array([[float(u), float(v)] for x, y in zip(a, b)
                      for u, v in zip(_NUMBER.findall(x), _NUMBER.findall(y))]).reshape(-1, 2)
    return bool(np.any(np.abs(pairs[:, 0] - pairs[:, 1])
                       > 1e-12 * np.maximum(1.0, np.max(np.abs(pairs), axis=1))))


def _edited(cfg, path, value):
    """cfg with the field at `path` set, or None when the edit changes nothing
    or names a field of a value that is no object."""
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent.setdefault(key, {})
        if not isinstance(parent, dict):
            return None
    if parent.get(path[-1], _DELETE) == value:
        return None
    parent[path[-1]] = value
    return cfg


def test_every_accepted_key_moves_an_output():
    """An edit of any key is a config error or moves some output, unless the
    key is kept in _KEPT for an interface that passes it."""
    inert = []
    for command, base in _BASES:
        base = {"experiment": command, **base}
        status, reference = _outputs(command, base)
        assert status == 0, base
        for path, value in _KEY_EDITS:
            cfg = _edited(base, path, value)
            key = ".".join(path)
            if cfg is None or key in _KEPT or f"{command} {key}" in _KEPT:
                continue
            status, files = _outputs(command, cfg)
            if status == 2:
                assert not files
            elif files.keys() == reference.keys() and not any(
                    _moved(reference[f], files[f]) for f in files):
                inert.append((command, key, value))
    assert inert == []
