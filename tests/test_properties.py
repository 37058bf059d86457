"""Property tests of the closed propagator's epsilon batch axis."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from holopulse.engine import dark_state, propagate_unitary
from holopulse.pulses import GateSpec, synthesize
from holopulse.qcore import unitarity_defect

STEPS = 512

gates = st.builds(
    GateSpec,
    theta=st.floats(0.0, np.pi),
    phi=st.floats(-np.pi, np.pi),
    gamma=st.floats(-np.pi, np.pi),
    eta=st.floats(-1.0, 1.0))
epsilons = arrays(np.float64, st.integers(1, 6), elements=st.floats(-0.5, 0.5))
few = settings(derandomize=True, deadline=None, max_examples=25)


@few
@given(spec=gates, grid=epsilons)
def test_batch_matches_scalar_calls(spec, grid):
    sched = synthesize(spec, n_samples=256)
    batch = propagate_unitary(sched, grid, STEPS)
    for k, eps in enumerate(grid):
        one = propagate_unitary(sched, eps, STEPS)
        assert np.max(np.abs(batch.unitary[k] - one.unitary)) <= 1e-13
        assert abs(batch.truncation_error[k] - one.truncation_error) <= 1e-13
        assert batch.converged[k] == one.converged


@few
@given(spec=gates, grid=epsilons)
def test_dark_state_is_fixed_across_the_batch(spec, grid):
    d = dark_state(spec)
    u = propagate_unitary(synthesize(spec, n_samples=256), grid, STEPS, check=False).unitary
    assert np.max(np.abs(u @ d - d)) <= 1e-13


@few
@given(spec=gates, grid=epsilons)
def test_stacked_unitarity_defect_is_the_worst_matrix(spec, grid):
    u = propagate_unitary(synthesize(spec, n_samples=256), grid, STEPS, check=False).unitary
    assert unitarity_defect(u) == max(unitarity_defect(m) for m in u)
