"""holopulse: inverse-engineered two-tone pulses for robust holonomic qutrit gates."""

from .paths import DYNAMICAL, HOLONOMIC, dynamical_gamma
from .pulses import (GateSpec, OMEGA_MAX_DEFAULT, PulseSchedule, compute_duration,
                     export_tones, named_gate, synthesize)
from .engine import (NoiseModel, PropagationResult, dephasing_from_t2,
                     propagate_unitary, survival_probability)
from .gates import axis_angle, clifford_table, target_unitary
from .tomo import (chi_of_channel, exact_records, mle_process, process_fidelity,
                   propagator_channel, simulate_counts, unitary_channel)
from .rbench import RBConfig, RBCurve, average_fidelity, run_rb
from .sideband import SidebandSystem, synthesize_cphase, verify_full_model

__version__ = "0.1.0"
