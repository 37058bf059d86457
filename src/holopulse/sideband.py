"""Blue-sideband controlled-phase gate between the spin and a phonon qubit.

The effective dynamics couples |1,1> <-> |a,0> with coupling strength
Omega_eff(t) and phase phi_eff(t); that is exactly the 2x2 bright-auxiliary
block of the single-qubit drive at theta = 0, so `synthesize_cphase` returns
the theta = 0 `PulseSchedule` and the holonomic loop imprints the
conditional phase gamma on |11> only.

Conventions recorded in the report metadata:
  Omega_eff = 2 * eta_ld * Omega_r           (Raman Rabi rate mapping)
  phi_anti_jc = -(phi_eff + pi/2)            (absorbs the i of the coupling)

In the first-order Lamb-Dicke, rotating-wave anti-Jaynes-Cummings model the
blue sideband couples only |1,n+1> <-> |a,n>, so the Fock ladder is a direct
sum of 2x2 blocks. The spin-|0> states and |1,0> are uncoupled fixed points,
and |1,1> lives in the n = 0 block, which `verify_full_model` reads from the
engine's theta = 0 gate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import DEFAULT_STEPS, propagate_unitary
# controls_arrays is unused here: the engine evaluates the sideband's controls.
# It stays importable as sideband.controls_arrays, which perfbench's spans patch.
from .paths import HOLONOMIC, controls_arrays  # noqa: F401
from .pulses import GateSpec, PulseSchedule, synthesize


@dataclass(frozen=True)
class SidebandSystem:
    """Spin (x) phonon system parameters for the blue-sideband drive.

    In the first-order Lamb-Dicke rotating-wave model neither value changes a
    reported gate figure: |1,1> lives in the n = 0 block at any truncation,
    and eta_ld cancels between Omega_r = Omega_eff/(2 eta_ld) and the
    sideband coupling eta_ld * Omega_r. n_max is echoed in the report.
    """
    n_max: int = 5                      # Fock truncation
    eta_ld: float = 0.1                 # Lamb-Dicke parameter

    def __post_init__(self):
        if self.n_max < 3:
            raise ValueError("n_max must be >= 3")
        if not 0.0 < self.eta_ld <= 0.3:
            raise ValueError("eta_ld must lie in (0, 0.3]")


@dataclass
class SidebandReport:
    """Gate figures of the full model. `conditional_phase` is the phase of
    u = <1,1|U|1,1> taken in (gamma - pi, gamma + pi], the branch centred on
    the target gamma, so it is continuous at the target (a target of pi reads
    pi, not -pi, whatever the rounding of Im u). `leakage` = 1 - |u|^2 reads
    a few 1e-15 on the closed loop, which is rounding: it moves by ulps
    whenever the arithmetic of the propagation changes."""
    conditional_phase: float
    subspace_fidelity: float
    leakage: float
    n_max: int
    fixed_point_deviation: float
    metadata: dict

    def to_text(self) -> str:
        lines = ["conditional_phase_rad,subspace_fidelity,leakage,"
                 "n_max,fixed_point_deviation"]
        lines.append("%.12g,%.12g,%.12g,%d,%.12g" % (
            self.conditional_phase, self.subspace_fidelity, self.leakage,
            self.n_max, self.fixed_point_deviation))
        for key in sorted(self.metadata):
            lines.append(f"# {key} = {self.metadata[key]}")
        return "\n".join(lines) + "\n"


def synthesize_cphase(gamma: float, omega_eff_max: float, eta: float,
                      n_samples: int = 4096) -> PulseSchedule:
    """Controlled-phase pulse: the theta = 0 holonomic loop on {|11>, |a0>}."""
    return synthesize(GateSpec(theta=0.0, phi=0.0, gamma=gamma, eta=eta),
                      omega_eff_max, n_samples)


def verify_full_model(schedule: PulseSchedule, sys: SidebandSystem,
                      steps: int = DEFAULT_STEPS) -> SidebandReport:
    """Propagate the anti-JC ladder block of |1,1> and score it against the target.

    The block {|1,1>, |a,0>} has <1,1|H|a,0> = i * Omega_r * eta_ld *
    e^{i phi_anti_jc} = -c(t) e^{i phi}, c(t) the coupling of the theta = 0
    gate, so neither n_max nor eta_ld enters (see `SidebandSystem`). A
    constant phase of the coupling changes only the phase of b1, so
    u = <1,1|U|1,1> = |a1|^2 + e^{i gamma} |b1|^2 is U[1, 1] of that gate
    (|b> = -|1> at theta = 0), propagated unchecked over `steps`, which
    `engine.check_steps` takes. Every other computational state is an
    exact fixed point, so the computational block is diag(1, 1, 1, u), and
    the fixed-point deviation is zero by construction.
    """
    spec = schedule.spec
    if spec.scheme != HOLONOMIC:
        raise ValueError(f"the controlled-phase loop is holonomic, not {spec.scheme}")
    u11 = propagate_unitary(schedule, 0.0, steps, check=False).unitary[1, 1]
    target = np.exp(1j * spec.gamma)
    return SidebandReport(
        conditional_phase=float(spec.gamma + np.angle(u11 * np.conj(target))),
        subspace_fidelity=float(abs(3.0 + np.conj(u11) * target) / 4.0),
        leakage=float(max(0.0, 1.0 - abs(u11) ** 2)),
        n_max=sys.n_max, fixed_point_deviation=0.0,
        metadata={
            "omega_eff_mapping": "omega_eff = 2*eta_ld*omega_r",
            "phase_mapping": "phi_anti_jc = -(phi_eff + pi/2)",
            "steps": steps,
        })
