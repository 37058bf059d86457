"""Analytic gate targets, axis-angle decomposition, and the 24 Cliffords."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .pulses import GateSpec
from .qcore import SI, SX, SY, SZ, UNITARY_TOL


def target_unitary(spec: GateSpec) -> np.ndarray:
    """e^{i gamma/2} exp(-i (gamma/2) n.sigma): rotation by gamma about n."""
    n = np.array([np.sin(spec.theta) * np.cos(spec.phi),
                  np.sin(spec.theta) * np.sin(spec.phi),
                  np.cos(spec.theta)])
    half = spec.gamma / 2.0
    n_sigma = n[0] * SX + n[1] * SY + n[2] * SZ
    return np.exp(1j * half) * (np.cos(half) * SI - 1j * np.sin(half) * n_sigma)


def phase_equivalent(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when two 2x2 unitaries differ only by a global phase."""
    return abs(abs(np.trace(np.asarray(a).conj().T @ np.asarray(b))) - 2.0) < tol


def _wrap_phi(phi: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    phi = (phi + np.pi) % (2.0 * np.pi) - np.pi
    return float(phi)


def axis_angle(u: np.ndarray, eta: float = 0.0) -> GateSpec:
    """Decompose a 2x2 unitary into the canonical (theta, phi, gamma) spec.

    gamma is canonicalized to [0, pi] (flipping the axis when needed); at
    gamma = pi the remaining axis-sign ambiguity is broken by
    `_half_turn_axis`. The identity maps to (0, 0, 0). A global phase of u
    changes nothing: the angles are read from the entries of u / sqrt(det u).
    The four entries are read as Python complex numbers and the unitarity
    check, the determinant and the angles are scalar arithmetic; u is
    rejected when an entry of U^dag U - I reaches UNITARY_TOL in modulus,
    as `qcore.unitarity_defect` measures it.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 unitary, got shape {u.shape}")
    (u00, u01), (u10, u11) = u.tolist()
    # the entries 00, 01 and 11 of U^dag U - I; its 10 entry is the conjugate of 01
    defects = (u00.conjugate() * u00 + u10.conjugate() * u10 - 1.0,
               u00.conjugate() * u01 + u10.conjugate() * u11,
               u01.conjugate() * u01 + u11.conjugate() * u11 - 1.0)
    if not all(abs(d) < UNITARY_TOL for d in defects):
        raise ValueError("axis_angle input is not unitary within tolerance")
    root = cmath.sqrt(u00 * u11 - u01 * u10)
    v00, v01 = u00 / root, u01 / root     # SU(2) representative, sign branch arbitrary
    if v00.real < 0:
        v00, v01 = -v00, -v01
    # v = c I - i s (n.sigma): v00 = c - i s n_z, v01 = -s n_y - i s n_x
    c = min(v00.real, 1.0)
    sn = (-v01.imag, -v01.real, -v00.imag)
    s = math.sqrt(sn[0] * sn[0] + sn[1] * sn[1] + sn[2] * sn[2])
    if s < 1e-12:
        return GateSpec(theta=0.0, phi=0.0, gamma=0.0, eta=eta)
    n = tuple(x / s for x in sn)
    if c < 1e-12:
        n = _half_turn_axis(np.array(n))
    return _axis_spec(n, 2.0 * math.atan2(s, c), eta)


@dataclass(frozen=True)
class CliffordElement:
    spec: GateSpec
    matrix: np.ndarray
    recovery: GateSpec      # the spec that undoes it, as `axis_angle` would give


def _clifford_axis_angles():
    axes = []
    x, y, z = np.eye(3)
    # 6 quarter turns about +-x, +-y, +-z
    for ax in (x, -x, y, -y, z, -z):
        axes.append((ax, np.pi / 2.0))
    # 3 half turns about the coordinate axes
    for ax in (x, y, z):
        axes.append((ax, np.pi))
    # 6 half turns about the face diagonals
    for ax in ((1, 1, 0), (1, -1, 0), (0, 1, 1), (0, 1, -1), (1, 0, 1), (-1, 0, 1)):
        axes.append((np.array(ax) / np.sqrt(2.0), np.pi))
    # 8 third turns about the body diagonals
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                axes.append((np.array([sx, sy, sz]) / np.sqrt(3.0), 2.0 * np.pi / 3.0))
    return axes


def _axis_spec(axis, gamma: float, eta: float) -> GateSpec:
    """The spec of the turn by gamma about the unit axis; phi = 0 on the z axis."""
    theta = float(np.arccos(min(max(axis[2], -1.0), 1.0)))
    phi = _wrap_phi(float(np.arctan2(axis[1], axis[0])))
    if abs(np.sin(theta)) < 1e-12:
        phi = 0.0
    return GateSpec(theta=theta, phi=phi, gamma=gamma, eta=eta)


def _half_turn_axis(axis):
    """The sign of a half-turn axis that `axis_angle` reports: both signs give
    the same rotation, and the first component above 1e-12 is made positive."""
    first = next(x for x in axis if abs(x) > 1e-12)
    return -axis if first < 0 else axis


@lru_cache(maxsize=None)
def clifford_table(eta: float = 0.0) -> tuple:
    """The 24 single-qubit Cliffords with canonical holonomic specs and their
    target matrices, which carry no phase canon: every consumer ignores a
    global phase. Each element also carries its recovery: the canonical spec
    of its inverse, the turn by the same gamma in [0, pi] about -axis (a half
    turn's sign set as `axis_angle` sets it), built from the exact axis so
    that equal gates get equal angles.
    """
    identity = GateSpec(theta=0.0, phi=0.0, gamma=0.0, eta=eta)
    elements = [CliffordElement(spec=identity, matrix=np.eye(2, dtype=complex),
                                recovery=identity)]
    for axis, gamma in _clifford_axis_angles():
        spec = _axis_spec(axis, gamma, eta)
        inverse = _half_turn_axis(-axis) if gamma == np.pi else -axis
        elements.append(CliffordElement(spec=spec, matrix=target_unitary(spec),
                                        recovery=_axis_spec(inverse, gamma, eta)))
    return tuple(elements)


@lru_cache(maxsize=None)
def _clifford_matrices() -> np.ndarray:
    return np.stack([el.matrix for el in clifford_table()])


@lru_cache(maxsize=None)
def _clifford_rotations() -> np.ndarray:
    """The (24, 3, 3) Bloch rotations R[k, i, j] = Tr(sigma_i C_k sigma_j C_k^dag)/2."""
    c, s = _clifford_matrices(), np.stack([SX, SY, SZ])
    return np.real(np.einsum("iab,kbc,jcd,kad->kij", s, c, s, c.conj())) / 2.0


def clifford_index(u: np.ndarray) -> Optional[int]:
    """The index of the Clifford equal to the 2x2 unitary u up to a global
    phase (the test of `phase_equivalent`), or None if u is no Clifford."""
    overlap = np.abs(np.einsum("kab,ab->k", _clifford_matrices().conj(), u))
    k = int(np.argmax(overlap))
    return k if abs(overlap[k] - 2.0) < 1e-9 else None


@lru_cache(maxsize=None)
def clifford_products() -> tuple:
    """The Cayley table of the 24 Cliffords: products[i][j] is the index of
    C_i C_j (C_j applied first)."""
    mats = _clifford_matrices()
    return tuple(tuple(clifford_index(a @ b) for b in mats) for a in mats)
