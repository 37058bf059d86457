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


def test_fidelity_of_one_matrix_is_a_float_and_of_a_stack_an_array():
    u = np.eye(3, dtype=complex)
    assert type(fidelity_qubit_subspace(u, np.eye(2))) is float
    stack = np.array([u, np.diag([1.0, 1.0, 1.0j])]).reshape(2, 1, 3, 3)
    fid = fidelity_qubit_subspace(stack, SX)
    assert isinstance(fid, np.ndarray) and fid.shape == (2, 1)
    assert np.all(fid == 0.0)


def test_fidelity_rejects_a_stack_with_one_nonunitary_member():
    stack = np.array([np.eye(3), np.eye(3), np.diag([1.0, 1.001, 1.0])], dtype=complex)
    assert fidelity_qubit_subspace(stack[:2], np.eye(2)).tolist() == [1.0, 1.0]
    with pytest.raises(ValueError, match="not unitary"):
        fidelity_qubit_subspace(stack, np.eye(2))


@pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 2), (4, 3, 2), (2, 4, 4)])
def test_fidelity_rejects_a_trailing_shape_other_than_3x3(shape):
    with pytest.raises(ValueError, match="3x3"):
        fidelity_qubit_subspace(np.ones(shape, dtype=complex), np.eye(2))


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
