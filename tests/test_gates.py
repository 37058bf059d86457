import itertools

import numpy as np
import pytest

from holopulse.gates import (axis_angle, clifford_index, clifford_products,
                             clifford_table, target_unitary)
from holopulse.pulses import GateSpec, named_gate
from holopulse.qcore import SX, SZ, UNITARY_TOL, unitarity_defect


def test_named_targets(phase_equivalent):
    x = target_unitary(named_gate("X"))
    assert phase_equivalent(x, SX)
    h = target_unitary(named_gate("H"))
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    assert phase_equivalent(h, hadamard)
    t = target_unitary(named_gate("T"))
    assert phase_equivalent(t, np.diag([1.0, np.exp(1j * np.pi / 4.0)]))


def test_target_phase_convention():
    # gamma about z on |1>: e^{i gamma/2} * e^{-i gamma/2 sigma_z} = diag(1, e^{i gamma})
    u = target_unitary(GateSpec(theta=0.0, phi=0.0, gamma=0.9))
    assert np.allclose(u, np.diag([1.0, np.exp(0.9j)]))


def test_target_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec = GateSpec(theta=rng.uniform(0, np.pi),
                        phi=rng.uniform(-np.pi, np.pi - 1e-9),
                        gamma=rng.uniform(-2 * np.pi + 1e-9, 2 * np.pi))
        assert unitarity_defect(target_unitary(spec)) < 1e-12


def test_axis_angle_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        spec = GateSpec(theta=rng.uniform(0.05, np.pi - 0.05),
                        phi=rng.uniform(-np.pi, np.pi - 1e-6),
                        gamma=rng.uniform(0.05, np.pi - 0.05))
        back = axis_angle(target_unitary(spec))
        assert back.theta == pytest.approx(spec.theta, abs=1e-9)
        assert back.phi == pytest.approx(spec.phi, abs=1e-9)
        assert back.gamma == pytest.approx(spec.gamma, abs=1e-9)


def test_axis_angle_recovers_rotation(phase_equivalent):
    rng = np.random.default_rng(6)
    for _ in range(50):
        # arbitrary U(2) element
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = h + h.conj().T
        w, v = np.linalg.eigh(h)
        u = v @ np.diag(np.exp(1j * w)) @ v.conj().T
        spec = axis_angle(u)
        assert phase_equivalent(target_unitary(spec), u, tol=1e-8)


def test_axis_angle_identity_and_validation():
    spec = axis_angle(np.exp(0.4j) * np.eye(2))
    assert (spec.theta, spec.phi, spec.gamma) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        axis_angle(np.eye(3))
    with pytest.raises(ValueError):
        axis_angle(1.5 * np.eye(2))


def test_axis_angle_rejects_what_unitarity_defect_rejects(phase_equivalent):
    # the scalar check reads U^dag U - I entry by entry: unitaries scaled off
    # the group by 4e-9 and 4e-10, and sheared, on either side of UNITARY_TOL
    rng = np.random.default_rng(8)
    bases = [target_unitary(named_gate(name)) for name in ("X", "H", "T")]
    bases += [target_unitary(GateSpec(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                                      rng.uniform(-np.pi, np.pi))) for _ in range(3)]
    table = [scale * u for u in bases for scale in (1 + 2e-9, 1 - 2e-9, 1 + 2e-10, 1 - 2e-10)]
    table += [u @ np.array([[1.0, shear], [0.0, 1.0]]) for u in bases
              for shear in (2e-9, 5e-10, 3e-10j)]
    rejected = [unitarity_defect(u) >= UNITARY_TOL for u in table]
    assert 0 < sum(rejected) < len(table)
    for u, reject in zip(table, rejected):
        if reject:
            with pytest.raises(ValueError, match="not unitary"):
                axis_angle(u)
        else:
            assert phase_equivalent(target_unitary(axis_angle(u)), u, tol=1e-8)


def test_axis_angle_pi_rotation_canonical():
    spec = axis_angle(1j * SZ)    # z half turn, either axis sign valid
    assert spec.theta == pytest.approx(0.0, abs=1e-9)
    assert spec.gamma == pytest.approx(np.pi)


def test_clifford_table_size_and_distinctness(phase_equivalent):
    table = clifford_table()
    assert len(table) == 24
    for a, b in itertools.combinations(table, 2):
        assert not phase_equivalent(a.matrix, b.matrix)


def test_clifford_table_closure(phase_equivalent):
    table = clifford_table()
    mats = [el.matrix for el in table]
    products = clifford_products()
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            assert phase_equivalent(a @ b, mats[products[i][j]])
    assert clifford_index(target_unitary(named_gate("T"))) is None


def test_clifford_recovery_is_axis_angle_of_the_inverse(phase_equivalent):
    for el in clifford_table(0.3):
        assert el.recovery.eta == 0.3
        assert phase_equivalent(target_unitary(el.recovery) @ el.matrix, np.eye(2))
        back = axis_angle(el.matrix.conj().T, eta=0.3)
        assert back.theta == pytest.approx(el.recovery.theta, abs=1e-12)
        assert back.gamma == pytest.approx(el.recovery.gamma, abs=1e-12)
        dphi = (back.phi - el.recovery.phi + np.pi) % (2.0 * np.pi) - np.pi
        assert abs(dphi) <= 1e-12


def test_clifford_specs_reproduce_matrices(phase_equivalent):
    for el in clifford_table():
        assert phase_equivalent(target_unitary(el.spec), el.matrix, tol=1e-10)


def test_clifford_table_carries_eta():
    table = clifford_table(1.0)
    assert all(el.spec.eta == 1.0 for el in table)
