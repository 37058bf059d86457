from pathlib import Path

import numpy as np
import pytest

from holopulse import engine
from holopulse.gates import clifford_table
from holopulse.pulses import TONE0_HZ, TONE1_HZ


@pytest.fixture(autouse=True)
def cold_engine_memos():
    """Each test starts with empty engine memos, whatever ran before it; a
    test that needs them empty again later clears them itself."""
    engine.first_half_block.cache_clear()
    engine.drive_steps.cache_clear()
    engine.first_half_channel.cache_clear()
    engine.first_half_series.cache_clear()


def _check_tone_file(path, schedule):
    """Read a tone file back with float() and require its header values and
    every sample row to equal `schedule`'s bit for bit (%.17g and repr both
    round-trip a float64)."""
    header, columns, rows = {}, [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, eq, value = line[2:].partition(" = ")
        if not line.startswith("# "):
            rows.append([float(x) for x in line.split(",")])
        elif eq:
            header[key] = value
        else:
            columns.append(line[2:])
    assert columns == ["t_s,omega0_rad_s,phi0_rad,omega1_rad_s,phi1_rad"]
    spec = schedule.spec
    assert header.pop("scheme") == spec.scheme
    values = {"omega_max_rad_s": schedule.omega_max, "duration_s": schedule.duration,
              "sample_rate_hz": schedule.sample_rate, "eta": spec.eta,
              "theta_rad": spec.theta, "phi_rad": spec.phi, "gamma_rad": spec.gamma,
              "tone0_hz": TONE0_HZ, "tone1_hz": TONE1_HZ}
    assert {key: np.float64(float(v)).tobytes() for key, v in header.items()} == {
        key: np.float64(v).tobytes() for key, v in values.items()}
    rows = np.array(rows)
    assert rows.shape == schedule.samples.shape
    assert rows.tobytes() == schedule.samples.tobytes()


@pytest.fixture(scope="session")
def check_tone_file():
    """`_check_tone_file`; session-scoped, so property tests may take it."""
    return _check_tone_file


def _phase_equivalent(a, b, tol=1e-9):
    """True when two 2x2 unitaries differ only by a global phase."""
    return abs(abs(np.trace(np.asarray(a).conj().T @ np.asarray(b))) - 2.0) < tol


@pytest.fixture(scope="session")
def phase_equivalent():
    """`_phase_equivalent`; session-scoped, so property tests may take it."""
    return _phase_equivalent


def _gate_specs(gates, eta, interleaved=None):
    """The specs of `build_sequence`'s gate indices: the Cliffords at `eta` in
    `clifford_table` order, then the interleaved gate at 24."""
    specs = [el.spec for el in clifford_table(eta)] + [interleaved]
    return [specs[i] for i in gates]


@pytest.fixture(scope="session")
def gate_specs():
    """`_gate_specs`; session-scoped, so property tests may take it."""
    return _gate_specs
