import numpy as np
import pytest

from holopulse.engine import NoiseModel
from holopulse.gates import target_unitary
from holopulse.pulses import named_gate
from holopulse.qcore import PAULIS, SX
from holopulse.tomo import (_SETTINGS, BASES, chi_of_channel, exact_records, mle_process,
                            process_fidelity, propagator_channel, records_to_csv,
                            simulate_counts, unitary_channel)


def check_process_matrix(chi, herm_tol=1e-10, trace_tol=1e-8, psd_tol=1e-8, tp_tol=1e-6):
    """Assert Hermiticity, unit trace, positivity and trace preservation."""
    chi = np.asarray(chi, dtype=complex)
    assert chi.shape == (4, 4)
    assert np.max(np.abs(chi - chi.conj().T)) <= herm_tol
    assert abs(np.trace(chi) - 1.0) <= trace_tol
    assert np.min(np.linalg.eigvalsh((chi + chi.conj().T) / 2)) >= -psd_tol
    tp = sum(chi[m, n] * PAULIS[n].conj().T @ PAULIS[m]
             for m in range(4) for n in range(4))
    assert np.max(np.abs(tp - np.eye(2))) <= tp_tol


def depolarized(u, d):
    """rho -> (1 - d) u rho u^dag + d I/2, from its Choi matrix."""
    return (1.0 - d) * unitary_channel(u) + d * np.eye(4) / 2.0


def bright(counts):
    """The table as {(prep, basis): bright}."""
    return {(j, b): counts.bright[j, k] for j in range(6) for k, b in enumerate(BASES)}


# Bloch vectors of the inputs |0>, |1>, |+>, |->, |+i>, |-i>
INPUTS = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])


def test_prepared_states():
    # read back from the settings table: the bright and the dark operator of a
    # setting add up to rho_j^T (x) I
    for label, bloch in enumerate(INPUTS):
        for k in range(len(BASES)):
            both = (_SETTINGS[label, k, 0] + _SETTINGS[label, k, 1]).reshape(2, 2, 2, 2)
            rho = np.trace(both, axis1=1, axis2=3).T / 2.0
            r = [np.real(np.trace(rho @ p)) for p in PAULIS[1:]]
            assert np.allclose(r, bloch, atol=1e-12)


def test_pauli_channels_are_exact():
    # P sigma_k P = s_k sigma_k, so a Pauli channel maps r_j to s * r_j, and the
    # bright probability along axis b is (1 + s_b r_jb)/2, 0, 1/2 or 1, bit for bit
    signs = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
    for p, s in zip(PAULIS, signs):
        expect = (1.0 + np.array(s) * INPUTS) / 2.0
        assert np.array_equal(exact_records(unitary_channel(p)).bright, expect)


def test_bright_probability_identity_channel():
    p = bright(exact_records(unitary_channel(np.eye(2))))
    assert p[0, "z"] == pytest.approx(1.0)
    assert p[1, "z"] == pytest.approx(0.0, abs=1e-12)
    assert p[2, "x"] == pytest.approx(1.0)
    assert p[4, "y"] == pytest.approx(1.0)
    assert p[2, "z"] == pytest.approx(0.5)


def test_bright_probability_spam():
    noise = NoiseModel(prep_error=0.1, detection_error_bright=0.02,
                       detection_error_dark=0.03)
    p = bright(exact_records(unitary_channel(np.eye(2)), noise))
    # p = 0.9 bright -> 0.9*0.98 + 0.1*0.03
    assert p[0, "z"] == pytest.approx(0.9 * 0.98 + 0.1 * 0.03)


def test_chi_of_unitary_channels():
    chi_i = chi_of_channel(unitary_channel(np.eye(2)))
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert np.allclose(chi_i, expect, atol=1e-12)
    chi_x = chi_of_channel(unitary_channel(SX))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.allclose(chi_x, expect, atol=1e-12)


def test_chi_depolarizing():
    chi = chi_of_channel(depolarized(np.eye(2), 0.2))
    assert chi[0, 0] == pytest.approx(1.0 - 0.15)
    for k in (1, 2, 3):
        assert chi[k, k] == pytest.approx(0.05)
    check_process_matrix(chi)


def test_choi_chi_round_trip():
    # J = sum_mn chi_mn |P_m>><<P_n|, with |P>> = sum_i |i> (x) P|i> = vec(P^T)
    a = np.random.default_rng(5).normal(size=(4, 4, 2)) @ (1.0, 1j)
    chi = a @ a.conj().T / np.trace(a @ a.conj().T)
    vecs = np.array([p.T.reshape(4) for p in PAULIS]).T
    assert np.allclose(chi_of_channel(vecs @ chi @ vecs.conj().T), chi, atol=1e-12)


def test_process_fidelity_metric():
    chi_x = chi_of_channel(unitary_channel(SX))
    assert process_fidelity(chi_x, chi_x) == pytest.approx(1.0)
    chi_i = chi_of_channel(unitary_channel(np.eye(2)))
    assert process_fidelity(chi_x, chi_i) == pytest.approx(0.0, abs=1e-12)


def test_records_csv_round_trip():
    counts = exact_records(unitary_channel(SX))
    lines = records_to_csv(counts).splitlines()
    assert lines[0] == "prep,basis,shots,bright"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(j), b) for j, b, _, _ in rows] == [
        (j, b) for j in range(6) for b in BASES]
    assert {int(n) for _, _, n, _ in rows} == {counts.shots}
    back = np.array([float(x) for *_, x in rows]).reshape(6, 3)
    assert np.array_equal(back, counts.bright)


def test_simulate_counts_deterministic():
    ch = unitary_channel(SX)
    a = simulate_counts(ch, NoiseModel(), 500, seed=3)
    b = simulate_counts(ch, NoiseModel(), 500, seed=3)
    assert a.bright.shape == (6, 3) and a.shots == b.shots == 500
    assert np.array_equal(a.bright, b.bright)
    c = simulate_counts(ch, NoiseModel(), 500, seed=4)
    assert not np.array_equal(a.bright, c.bright)


def test_mle_analytic_unitaries():
    for name in ("X", "H", "T"):
        u = target_unitary(named_gate(name))
        res = mle_process(exact_records(unitary_channel(u)))
        assert res.converged
        ideal = chi_of_channel(unitary_channel(u))
        assert process_fidelity(res.chi, ideal) > 1.0 - 1e-6
        check_process_matrix(res.chi)


def test_mle_analytic_depolarized():
    ch = depolarized(SX, 0.08)
    res = mle_process(exact_records(ch))
    ideal = chi_of_channel(ch)
    # self-overlap of a mixed channel is below 1; the estimate must match it
    assert process_fidelity(res.chi, ideal) == pytest.approx(
        process_fidelity(ideal, ideal), abs=1e-4)


def test_mle_sampled():
    u = target_unitary(named_gate("X"))
    res = mle_process(simulate_counts(unitary_channel(u), NoiseModel(), 10000, seed=11))
    ideal = chi_of_channel(unitary_channel(u))
    assert process_fidelity(res.chi, ideal) > 0.99


def test_propagator_channel_trace_loss():
    u3 = np.eye(3, dtype=complex)
    # leak 1% of |1> amplitude out of the qubit block
    u3[1, 1] = np.sqrt(0.99)
    choi = propagator_channel(u3)
    assert choi.shape == (4, 4)
    # Tr Lambda(|1><1|) = sum_k J[(1, k), (1, k)]
    assert np.trace(choi.reshape(2, 2, 2, 2)[1, :, 1, :]).real == pytest.approx(0.99)
    p = bright(exact_records(choi))
    assert p[1, "z"] == pytest.approx(0.0, abs=1e-12)
    assert p[2, "x"] == pytest.approx((1.0 + np.sqrt(0.99)) ** 2 / 4.0)
