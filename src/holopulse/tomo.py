"""Simulated prepare/measure pipeline and maximum-likelihood process tomography.

Channels and data sets are plain arrays. A qubit channel is its 4x4 Choi matrix
J = sum_ij |i><j| (x) Lambda(|i><j|), input factor first. Propagators of the
three-level engine enter through their qubit block, so J may be
trace-decreasing: leaked population is read out as a dark count. A data set
is one `Counts` value: the (6, 3) table of bright counts over (prep j,
basis b) and the shots behind each entry. One measurement model serves the
simulator and the MLE: the setting (j, b) has the bright operator
rho_j^T (x) E_b, whose bright probability is Tr(J rho_j^T (x) E_b), and the
table of these 18 operators is built once at import. Process matrices chi
live in the (I, X, Y, Z) operator basis with Tr chi = 1 for a
trace-preserving channel.

The MLE is the standard fixed-point ascent on the Choi matrix with a
trace-preservation projection each step, started from linear inversion
projected onto the positive cone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import NoiseModel
from .qcore import PAULIS, SX, SY, ket

PREP_LABELS = tuple(range(6))
BASES = ("x", "y", "z")
# the MLE stops when the log-likelihood gains less than MLE_TOL in a step
MLE_TOL = 1e-10
MLE_MAX_ITER = 10000


def rotation(axis: str, angle: float) -> np.ndarray:
    """R_k(angle) = exp(-i angle sigma_k / 2)."""
    sigma = {"x": SX, "y": SY}[axis]
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * sigma


_PREP_ROTATIONS = (
    np.eye(2, dtype=complex),          # |0>
    rotation("x", np.pi),              # |1>
    rotation("y", np.pi / 2.0),        # |+>
    rotation("y", -np.pi / 2.0),       # |->
    rotation("x", -np.pi / 2.0),       # |+i>
    rotation("x", np.pi / 2.0),        # |-i>
)
# X rho_j X = rho_{_X_FLIP[j]}: the state a preparation error leaves instead
_X_FLIP = [1, 0, 2, 3, 5, 4]

# pre-rotation mapping the measured axis onto z before bright/dark readout
_MEAS_PREROT = {
    "x": rotation("y", -np.pi / 2.0),
    "y": rotation("x", np.pi / 2.0),
    "z": np.eye(2, dtype=complex),
}


def prepare_input(label: int) -> np.ndarray:
    """The six tomography input states, built by rotating |0>."""
    if label not in PREP_LABELS:
        raise ValueError(f"prep label must be 0..5, got {label}")
    return _PREP_ROTATIONS[label] @ ket(2, 0)


def measurement_effect(basis: str) -> np.ndarray:
    """Bright-outcome POVM effect for the given measurement basis."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    r = _MEAS_PREROT[basis]
    return r.conj().T @ np.outer(ket(2, 0), ket(2, 0).conj()) @ r


def _setting_operators() -> np.ndarray:
    """(6, 3, 2, 4, 4): rho_j^T (x) E for the bright and the dark effect of
    every setting (j, b); an outcome has probability Tr(J op)."""
    rho_t = [np.outer(psi, psi.conj()).T for psi in map(prepare_input, PREP_LABELS)]
    bright = np.array([[np.kron(r, measurement_effect(b)) for b in BASES] for r in rho_t])
    dark = np.array([np.kron(r, np.eye(2)) for r in rho_t])[:, None] - bright
    return np.stack([bright, dark], axis=2)


_SETTINGS = _setting_operators()


def unitary_channel(u: np.ndarray) -> np.ndarray:
    """Choi matrix of rho -> u rho u^dag: J = |v><v|, v = u^T flattened row-major."""
    v = np.asarray(u, dtype=complex).T.reshape(4)
    return np.outer(v, v.conj())


def propagator_channel(u3: np.ndarray) -> np.ndarray:
    """Choi matrix of a 3x3 propagator's qubit block; leakage is trace loss."""
    u3 = np.asarray(u3, dtype=complex)
    if u3.shape != (3, 3):
        raise ValueError("expected a 3x3 propagator")
    return unitary_channel(u3[:2, :2])


class Counts(NamedTuple):
    """bright[j, b] of `shots` readouts for every (prep j, basis b): integer
    counts when sampled, bright probabilities with shots = 1 when analytic."""
    bright: np.ndarray
    shots: int


def _bright_probabilities(choi: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """(6, 3) Born-rule bright probabilities of every setting, SPAM included."""
    bright = _SETTINGS[:, :, 0]
    if noise.prep_error > 0.0:      # rho_j -> (1 - e) rho_j + e X rho_j X
        bright = (1.0 - noise.prep_error) * bright + noise.prep_error * bright[_X_FLIP]
    return noise.readout(np.real(np.einsum("jbkl,lk->jb", bright, choi)))


def exact_records(choi: np.ndarray, noise: NoiseModel = NoiseModel()) -> Counts:
    """Analytic mode: exact probabilities, no sampling (shots = 1)."""
    return Counts(_bright_probabilities(choi, noise), 1)


def simulate_counts(choi: np.ndarray, noise: NoiseModel, shots: int,
                    seed: int = 0) -> Counts:
    """Binomially sampled counts for all 18 (prep, basis) settings."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    return Counts(rng.binomial(shots, _bright_probabilities(choi, noise)), shots)


def records_to_csv(counts: Counts) -> str:
    """One row per setting, prep-major."""
    lines = ["prep,basis,shots,bright"]
    lines += ["%d,%s,%d,%.17g" % (j, b, counts.shots, counts.bright[j, k])
              for j in PREP_LABELS for k, b in enumerate(BASES)]
    return "\n".join(lines) + "\n"


# --- Choi / chi machinery -------------------------------------------------

def _pauli_vecs() -> np.ndarray:
    """Columns v_m with v_m[(i,k)] = E_m[k, i] (row-major kron of |i> x E|i>)."""
    v = np.zeros((4, 4), dtype=complex)
    for m, e in enumerate(PAULIS):
        for i in range(2):
            col = np.kron(ket(2, i), e @ ket(2, i))
            v[:, m] += col
    return v


_PAULI_V = _pauli_vecs()


def chi_of_channel(choi: np.ndarray) -> np.ndarray:
    """Process matrix of the channel with Choi matrix `choi`."""
    return _PAULI_V.conj().T @ choi @ _PAULI_V / 4.0


def process_fidelity(chi_a: np.ndarray, chi_b: np.ndarray) -> float:
    """|Tr(chi_a chi_b^dag)| with both arguments trace-normalized."""
    a = np.asarray(chi_a, dtype=complex)
    b = np.asarray(chi_b, dtype=complex)
    a = a / np.real(np.trace(a))
    b = b / np.real(np.trace(b))
    return float(abs(np.trace(a @ b.conj().T)))


# --- maximum-likelihood estimation ----------------------------------------

@dataclass
class MLEResult:
    chi: np.ndarray
    choi: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float


def _project_tp(choi: np.ndarray) -> np.ndarray:
    """Sandwich with (Tr_out J)^(-1/2) on the input factor: restores Tr_out J = I."""
    lam = np.trace(choi.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    w, v = np.linalg.eigh((lam + lam.conj().T) / 2.0)
    w = np.maximum(w, 1e-14)
    inv_sqrt = v @ np.diag(w ** -0.5) @ v.conj().T
    a = np.kron(inv_sqrt, np.eye(2))
    return a @ choi @ a.conj().T


def _project_psd(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    return v @ np.diag(w) @ v.conj().T


def _linear_inversion(ops: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    a = ops.transpose(0, 2, 1).reshape(len(ops), -1)   # Tr(J Pi) = vec(Pi^T).vec(J)
    x, *_ = np.linalg.lstsq(a, freqs.astype(complex), rcond=None)
    j = x.reshape(4, 4)
    j = _project_psd(j)
    tr = np.real(np.trace(j))
    j = j * (2.0 / tr) if tr > 1e-12 else np.kron(np.eye(2), np.eye(2)) / 2.0
    return _project_tp(j)


def mle_process(table: Counts) -> MLEResult:
    """Iterative MLE of the process matrix from the (6, 3) count table."""
    bright, shots = table
    # the bright and the dark operator and count of every setting, prep-major
    ops = _SETTINGS.reshape(-1, 4, 4)
    counts = np.stack([bright, shots - bright], axis=-1).astype(float).reshape(-1)
    total = np.sum(counts)
    choi = _linear_inversion(ops, counts / shots)
    ll = -np.inf
    iterations = 0
    converged = False
    for iterations in range(1, MLE_MAX_ITER + 1):
        p = np.maximum(np.real(np.einsum("kij,ji->k", ops, choi)), 1e-14)
        r_op = np.einsum("k,kij->ij", counts / (p * total), ops)
        choi = _project_tp(r_op @ choi @ r_op)
        ll_new = float(np.sum(counts * np.log(p)))
        if ll_new - ll < MLE_TOL and iterations > 1:
            converged = True
            break
        ll = ll_new
    chi = chi_of_channel(choi)
    chi = (chi + chi.conj().T) / 2.0
    p = np.maximum(np.real(np.einsum("kij,ji->k", ops, choi)), 1e-300)
    return MLEResult(chi=chi, choi=choi, iterations=iterations, converged=converged,
                     log_likelihood=float(np.sum(counts * np.log(p))))
