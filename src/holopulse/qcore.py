"""Pauli matrices, and unitarity, fidelity and leakage metrics.

Everything here works on plain numpy arrays (complex128) of tiny dimension.
"""
from __future__ import annotations

import numpy as np

# Pauli matrices in the computational basis
SI = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SI, SX, SY, SZ)

UNITARY_TOL = 1e-9          # largest unitarity defect accepted of a propagator
TARGET_UNITARY_TOL = 1e-12  # ... and of an analytic 2x2 target


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I|, a cheap distance from the unitary group; for a stack
    of matrices (..., n, n), the largest over the stack."""
    u = np.asarray(u, dtype=complex)
    d = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])
    return float(np.max(np.abs(d)))


def fidelity_qubit_subspace(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """|Tr(P U^dag P V)|/2: overlap of a 3x3 propagator with a 2x2 target.

    P projects onto the {|0>,|1>} qubit subspace; the metric is insensitive
    to the global phase of either input. `u` may be a stack (..., 3, 3): the
    result is then an array of shape u.shape[:-2], and a float for one
    matrix. Unitarity is checked once over the stack (its worst matrix) and
    once for the target. The modulus is hypot(re, im), which is what abs()
    of one complex scalar computes; np.abs of an array rounds differently
    (by 1 ulp on about half of a sweep's points), so a stacked call returns
    each matrix's scalar fidelity bit for bit.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 propagator or a stack of them, got {u.shape}")
    if v.shape != (2, 2):
        raise ValueError(f"expected a 2x2 target, got {v.shape}")
    if unitarity_defect(u) >= UNITARY_TOL:
        raise ValueError("propagator is not unitary within tolerance")
    if unitarity_defect(v) >= TARGET_UNITARY_TOL:
        raise ValueError("target is not unitary within tolerance")
    block = u[..., :2, :2]
    t = np.trace(np.swapaxes(block.conj(), -1, -2) @ v, axis1=-2, axis2=-1)
    fid = np.hypot(t.real, t.imag) / 2.0
    return float(fid) if fid.ndim == 0 else fid


def leakage(u: np.ndarray) -> float:
    """Worst-case population transferred to |a> from a qubit basis state."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise ValueError(f"expected a 3x3 propagator, got {u.shape}")
    if unitarity_defect(u) >= UNITARY_TOL:
        raise ValueError("propagator is not unitary within tolerance")
    return float(max(abs(u[2, 0]) ** 2, abs(u[2, 1]) ** 2))

