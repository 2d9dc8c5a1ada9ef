"""The maps a time step records, against the unrecorded formulas.

A ``TimeStepper`` applies its boundary values, loads, recurrence and
probe values as recorded maps.  Each is checked here on random states
against the unrecorded formula (``oracles.unrecorded_*``): bitwise where
the map sums the same terms in the same order, to 1e-13 relative
otherwise.  A solve passed a ``reuse`` reports the conservation residual
of :func:`~mpet.diagnostics.conservation_residual`, as a cold solve does.
"""

import numpy as np
import pytest

import oracles
from mpet.assembly import apply_boundary_conditions, assemble_traction_rhs
from mpet.diagnostics import conservation_residual
from mpet.solver import solve
from mpet.timeloop import TimeStepper, brain_analog_scenario
from test_timeloop import tiny_scenario

RTOL = 1e-13


def _scenario(name, variant):
    if name == "brain":
        sc = brain_analog_scenario(t_end=3 * 0.0125, variant=variant)
    else:
        sc = tiny_scenario(tau=0.1, t_end=0.3)
        sc.variant = variant
        sc.mass_sources = [lambda x, t: 2.0 + x[0] + t, None]
    return sc


def _close(got, want, rtol=RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def _random_state(stepper, rng, t):
    state = stepper.initial_state()
    state.t = t
    state.u = rng.standard_normal(stepper.spaces.size_u)
    state.p = [rng.standard_normal(stepper.spaces.size_p) for _ in state.p]
    return state


@pytest.mark.parametrize("variant", ["schur_reduced", "full_block"])
@pytest.mark.parametrize("name", ["brain", "tiny"])
def test_recorded_step_maps_match_unrecorded_formulas(name, variant):
    stepper = TimeStepper(_scenario(name, variant))
    spaces, bcs, con = stepper.spaces, stepper.bcs_scaled, stepper.constrained
    rng = np.random.default_rng(11)
    stepper.step(stepper.initial_state())   # the cold solve: target and preconditioner
    for t in (0.1, 0.2625, 0.3):
        state = _random_state(stepper, rng, t - stepper.scenario.tau)

        # Dirichlet values: one product per callable, bitwise the per-tag
        # reduction here, where every Dirichlet callable is constant along a facet
        con.update_values(bcs, t)
        idx, values = oracles.unrecorded_constraint_data(stepper.layout, spaces, bcs, t)
        assert np.array_equal(idx, con.constrained)
        assert np.array_equal(values, con.values)

        traction = assemble_traction_rhs(spaces, bcs, t)
        if name == "brain":
            _close(traction, oracles.unrecorded_traction_rhs(spaces, bcs, t))
        else:
            assert not traction.any()
        F = stepper.step_rhs(state, t)
        _close(F, oracles.unrecorded_step_rhs(stepper, state, t))

        # a reused solve reports the residual of a cold solve's formula
        stepper.system.F = F
        x, report, _ = solve(con, variant, tol=1e-8, reuse=stepper._reuse)
        assert report.conservation == conservation_residual(x, con.base)[0]

        probes = stepper.probe_values(state)
        for field, want_values in oracles.unrecorded_probe_values(stepper, state).items():
            _close(probes[field], want_values)


def test_a_cold_solve_records_no_step_maps():
    """Maps are recorded where a reuse is kept: a solve without ``reuse``
    leaves the boundary facets without traction maps.  (The Dirichlet map
    is built with the constrained structure, which any solve needs.)"""
    stepper = TimeStepper(_scenario("brain", "schur_reduced"))
    con = apply_boundary_conditions(stepper.system, stepper.bcs_scaled, t=0.0)
    stepper.system.F = np.random.default_rng(2).standard_normal(stepper.layout.total)
    _, _, reuse = solve(con)
    assert all("traction_map" not in vars(bd) for bd in stepper.spaces.boundary.values())
    x1, _, reuse = solve(con, reuse=reuse)
    x2, _, _ = solve(con, reuse=reuse)
    assert np.array_equal(x1, x2)
