"""Simulated prepare/measure pipeline and maximum-likelihood process tomography.

Channels and data sets are plain arrays. A qubit channel is its 4x4 Choi matrix
J = sum_ij |i><j| (x) Lambda(|i><j|), input factor first. Propagators of the
three-level engine enter through their qubit block, so J may be
trace-decreasing: leaked population is read out as a dark count. A data set
is one `Counts` value: the (6, 3) table of bright counts over (prep j,
basis b) and the shots behind each entry.

The inputs |0>, |1>, |+>, |->, |+i>, |-i> are rho_j = (I + r_j.sigma)/2 with
Bloch vectors r_j = +z, -z, +x, -x, +y, -y, and basis b = x, y, z reads bright
with the effect E_b = (I + sigma_b)/2. One measurement model serves the
simulator and the MLE: the setting (j, b) has the bright operator
rho_j^T (x) E_b, whose bright probability is Tr(J rho_j^T (x) E_b), and the
table of these 18 operators is built once at import. Their entries are exact
(0, 1, +-1/2, +-i/2, +-1/4 or +-i/4), so the analytic probabilities of a
Pauli channel are too. Process matrices chi live in the (I, X, Y, Z)
operator basis with Tr chi = 1 for a trace-preserving channel.

The MLE is the standard fixed-point ascent on the Choi matrix with a
trace-preservation projection each step, started from linear inversion
projected onto the positive cone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import NoiseModel
from .qcore import PAULIS

BASES = ("x", "y", "z")
# the MLE stops when the log-likelihood gains less than MLE_TOL in a step
MLE_TOL = 1e-10
MLE_MAX_ITER = 10000

# Bloch vectors (x, y, z) of the inputs |0>, |1>, |+>, |->, |+i>, |-i>
_INPUTS = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
# X rho_j X = rho_{_X_FLIP[j]}: the state a preparation error leaves instead
_X_FLIP = [1, 0, 2, 3, 5, 4]


def _bloch_state(r: np.ndarray) -> np.ndarray:
    """(I + r.sigma)/2 for every Bloch vector r along the last axis."""
    return (PAULIS[0] + np.tensordot(r, PAULIS[1:], axes=1)) / 2.0


def _setting_operators() -> np.ndarray:
    """(6, 3, 2, 4, 4): rho_j^T (x) (I +- sigma_b)/2, the bright and the dark
    operator of every setting (j, b); an outcome has probability Tr(J op)."""
    rho_t = _bloch_state(_INPUTS).transpose(0, 2, 1)
    effects = _bloch_state(np.stack([np.eye(3), -np.eye(3)], axis=1))
    return np.einsum("jik,bcml->jbcimkl", rho_t, effects).reshape(6, 3, 2, 4, 4)


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
              for j in range(6) for k, b in enumerate(BASES)]
    return "\n".join(lines) + "\n"


# --- Choi / chi machinery -------------------------------------------------

# column m is vec(P_m^T), so that J = sum_mn chi_mn |P_m>><<P_n|; + 0.0 turns
# the -0.0 real part of SY's -1j into 0.0
_PAULI_V = np.array([p.T.reshape(4) for p in PAULIS]).T + 0.0


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
