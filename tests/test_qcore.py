import numpy as np
import pytest

from holopulse.qcore import (PAULIS, SI, SX, SY, SZ, fidelity_qubit_subspace, leakage,
                             unitarity_defect)


def test_pauli_algebra():
    assert np.allclose(SX @ SX, SI)
    assert np.allclose(SY @ SY, SI)
    assert np.allclose(SZ @ SZ, SI)
    assert np.allclose(SX @ SY, 1j * SZ)
    for p in PAULIS[1:]:
        assert abs(np.trace(p)) < 1e-15


def test_fidelity_qubit_subspace_identity():
    u = np.eye(3, dtype=complex)
    assert fidelity_qubit_subspace(u, np.eye(2)) == pytest.approx(1.0)
    # global phases on either factor are irrelevant
    assert fidelity_qubit_subspace(np.exp(0.7j) * u, np.exp(-0.3j) * np.eye(2)) \
        == pytest.approx(1.0)


def test_fidelity_qubit_subspace_orthogonal():
    u = np.eye(3, dtype=complex)
    x2 = SX
    assert fidelity_qubit_subspace(u, x2) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_rejects_nonunitary():
    with pytest.raises(ValueError):
        fidelity_qubit_subspace(2.0 * np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        fidelity_qubit_subspace(np.eye(3), 1.1 * np.eye(2))


def test_leakage():
    assert leakage(np.eye(3, dtype=complex)) == 0.0
    # swap |1> <-> |a>
    u = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    assert leakage(u) == pytest.approx(1.0)


def test_unitarity_defect_of_a_stack_is_the_worst_matrix():
    stack = np.array([np.eye(3), np.diag([1.0, 1.0, 1.001]), np.diag([1.0, 0.999, 1.0])],
                     dtype=complex)
    assert unitarity_defect(stack[0]) == 0.0
    assert unitarity_defect(stack) == pytest.approx(1.001 ** 2 - 1.0, rel=1e-12)
    assert unitarity_defect(stack.reshape(3, 1, 3, 3)) == unitarity_defect(stack)
    assert unitarity_defect(stack[::-1]) == unitarity_defect(stack)
