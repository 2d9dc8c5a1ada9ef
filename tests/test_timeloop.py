import numpy as np
import pytest

from mpet.mesh import generate_annulus
from mpet.params import PhysicalParameters
from mpet.assembly import BoundaryConditionSet
from mpet.timeloop import (
    MMHG,
    Scenario,
    TimeSeries,
    TimeStepper,
    brain_analog_scenario,
    load_state,
    save_state,
    windowed_mean,
)


def tiny_scenario(tau=0.05, t_end=0.25, constant_bcs=True):
    """Small two-network annulus run with constant boundary data."""
    mesh = generate_annulus(1.0, 2.0, 1, 8)
    phys = PhysicalParameters(
        mu=0.5, lam=1.0, alpha=[1.0, 0.8], s=[0.1, 0.2], K=[1.0, 0.5],
        xi=np.array([[0.0, 0.3], [0.3, 0.0]]), tau=tau,
    )
    one = lambda x, t: 1.0
    two = lambda x, t: 2.0
    bcs = BoundaryConditionSet(
        {
            "skull": ("dirichlet", lambda x, t: np.zeros(2)),
            "ventricle": ("dirichlet", lambda x, t: np.zeros(2)),
        },
        [
            {"skull": ("dirichlet", one), "ventricle": ("dirichlet", one)},
            {"skull": ("dirichlet", two), "ventricle": ("flux", None)},
        ],
    )
    return Scenario(
        mesh=mesh,
        ell=1,
        phys=phys,
        bcs=bcs,
        initial_pressures=[1.0, 2.0],
        tau=tau,
        t_end=t_end,
        probes=[(1.5, 0.0)],
        tol=1e-10,
    )


def test_zero_data_stays_zero():
    sc = tiny_scenario()
    zero = lambda x, t: 0.0
    sc.bcs = BoundaryConditionSet(
        {
            "skull": ("dirichlet", lambda x, t: np.zeros(2)),
            "ventricle": ("dirichlet", lambda x, t: np.zeros(2)),
        },
        [
            {"skull": ("dirichlet", zero), "ventricle": ("dirichlet", zero)},
            {"skull": ("dirichlet", zero), "ventricle": ("flux", None)},
        ],
    )
    sc.initial_pressures = [0.0, 0.0]
    stepper = TimeStepper(sc)
    state = stepper.initial_state()
    state, report, _ = stepper.step(state)
    assert np.abs(state.u).max() == 0.0
    assert max(np.abs(p).max() for p in state.p) <= 1e-14
    assert report.iterations == 0


def test_scaling_round_trip_identity():
    sc = tiny_scenario()
    stepper = TimeStepper(sc)
    rng = np.random.default_rng(4)
    x = rng.normal(size=stepper.layout.total)
    state, w = stepper.unscale_solution(x, t=1.0)
    phys = sc.phys
    for i in range(2):
        back_p = phys.alpha[i] / (2 * phys.mu) * state.p[i]
        assert np.allclose(back_p, x[stepper.layout.sl(f"p{i}")], rtol=1e-13)
        back_w = phys.tau / phys.alpha[i] * w[i]
        assert np.allclose(back_w, x[stepper.layout.sl(f"w{i}")], rtol=1e-13)


def test_time_independent_data_reaches_stationary_state():
    sc = tiny_scenario(tau=0.2, t_end=30.0)
    stepper = TimeStepper(sc)
    state = stepper.initial_state()
    changes = []
    prev = None
    for _ in range(int(round(sc.t_end / sc.tau))):
        state, report, _ = stepper.step(state)
        if prev is not None:
            num = max(np.abs(state.p[i] - prev.p[i]).max() for i in range(2))
            den = max(np.abs(state.p[i]).max() for i in range(2))
            changes.append(num / den)
        prev = state
    # monotone geometric decay until the floating-point noise floor
    decaying = [c for c in changes if c > 1e-13]
    assert len(decaying) >= 5
    assert all(b <= a * 1.001 for a, b in zip(decaying, decaying[1:]))
    assert changes[-1] < 1e-8
    # one more step changes nothing beyond the stationary tolerance
    state2, _, _ = stepper.step(state)
    num = max(np.abs(state2.p[i] - state.p[i]).max() for i in range(2))
    assert num / max(np.abs(state.p[i]).max() for i in range(2)) < 1e-8


def test_restart_reproduces_trajectory_bitwise(tmp_path):
    sc = tiny_scenario(tau=0.05, t_end=0.5)
    stepper = TimeStepper(sc)
    final_full, series_full = stepper.run()

    sc2 = tiny_scenario(tau=0.05, t_end=0.25)
    stepper2 = TimeStepper(sc2)
    mid, _ = stepper2.run()
    save_state(tmp_path / "mid.npz", mid)
    loaded = load_state(tmp_path / "mid.npz")
    assert loaded.t == mid.t
    sc3 = tiny_scenario(tau=0.05, t_end=0.5)
    stepper3 = TimeStepper(sc3)
    final_restart, _ = stepper3.run(start_state=loaded)
    assert final_restart.t == final_full.t
    assert np.array_equal(final_restart.u, final_full.u)
    for a, b in zip(final_restart.p, final_full.p):
        assert np.array_equal(a, b)


def test_single_step_run():
    sc = tiny_scenario(tau=0.1, t_end=0.1)
    stepper = TimeStepper(sc)
    state, series = stepper.run()
    assert len(series.times) == 2      # initial sample plus one step
    assert np.isclose(state.t, 0.1)


def test_sample_cadence_thins_probes_but_not_log():
    sc = tiny_scenario(tau=0.05, t_end=0.4)
    sc.sample_every = 4
    stepper = TimeStepper(sc)
    state, series = stepper.run()
    # initial sample plus steps 4 and 8
    assert len(series.times) == 3
    assert len(series.log) == 8
    with pytest.raises(ValueError):
        bad = tiny_scenario()
        bad.sample_every = 0
        Scenario(**{**bad.__dict__})


def test_probe_outside_domain_rejected():
    with pytest.raises(Exception):
        sc = tiny_scenario()
        sc.probes = [(10.0, 0.0)]
        Scenario(**{**sc.__dict__})


def test_dirichlet_trace_honored_each_step():
    sc = tiny_scenario(tau=0.1, t_end=0.3)
    stepper = TimeStepper(sc)
    state = stepper.initial_state()
    state, report, x = stepper.step(state)
    # scaled multiplier on a skull facet of network 0 must equal the scaled
    # imposed value (constant profile: mean mode only)
    mesh = sc.mesh
    spaces = stepper.spaces
    layout = stepper.layout
    phys = sc.phys
    for f in mesh.boundary_facets:
        if mesh.boundary_tags[int(f)] != "skull":
            continue
        coeff = x[layout.offsets["phat0"] + f * spaces.n_phat]
        imposed = phys.alpha[0] / (2 * phys.mu) * 1.0
        assert abs(coeff - imposed) <= 1e-8 * abs(imposed)


def test_prescribed_sources_enter_the_recurrence():
    """A mass source adds exactly -(tau / alpha_i) (g_i, q) to the step RHS."""
    sc = tiny_scenario(tau=0.1, t_end=0.2)
    sc_src = tiny_scenario(tau=0.1, t_end=0.2)
    source = lambda x, t: 2.0 + x[0] + t
    sc_src.mass_sources = [source, None]

    stepper = TimeStepper(sc)
    stepper_src = TimeStepper(sc_src)
    state = stepper.initial_state()
    t_k = 0.1
    base = stepper.step_rhs(state, t_k)
    with_src = stepper_src.step_rhs(state, t_k)

    diff = with_src - base
    layout = stepper.layout
    from mpet.assembly import assemble_volume_rhs

    phys = sc.phys
    expected = assemble_volume_rhs(
        stepper.spaces,
        g=[lambda x: -phys.tau / phys.alpha[0] * source(x, t_k), None],
    )
    assert np.allclose(diff, expected, atol=1e-14)
    assert np.abs(diff[layout.sl("p1")]).max() == 0.0


def test_windowed_mean_constant():
    t = np.linspace(0.0, 3.0, 241)
    v = np.full_like(t, 4.25)
    assert np.isclose(windowed_mean(t, v, 1.5), 4.25, atol=1e-12)


def test_windowed_mean_sine_cancels():
    t = np.arange(0.0, 3.0001, 0.0125)
    v = np.sin(2 * np.pi * t)
    assert abs(windowed_mean(t, v, 1.5)) < 1e-3


def test_windowed_mean_truncated():
    t = np.linspace(0.0, 2.0, 2001)
    v = t.copy()
    got = windowed_mean(t, v, 0.25)
    # mean of the identity over [0, 0.75] is 0.375
    assert np.isclose(got, 0.375, atol=1e-6)


def test_windowed_mean_empty_window():
    t = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="window"):
        windowed_mean(t, t, 2.0)


def test_timeseries_strictly_increasing():
    series = TimeSeries(probes=[(0, 0)])
    series.add(0.0, {"p1": [1.0]})
    with pytest.raises(ValueError):
        series.add(0.0, {"p1": [2.0]})


def test_brain_analog_scenario_setup():
    sc = brain_analog_scenario(n_radial=1, n_angular=8, tau=0.0125, t_end=0.05)
    assert sc.n_networks == 4
    # reference transfer pattern: xi_13 = xi_14 = xi_24 = xi_34 = 1 (converted),
    # xi_12 = xi_23 = 0
    xi = sc.phys.xi
    assert xi[0, 2] == xi[0, 3] == xi[1, 3] == xi[2, 3] == 1.0
    assert xi[0, 1] == 0.0 and xi[1, 2] == 0.0
    stepper = TimeStepper(sc)
    state = stepper.initial_state()
    values = stepper.probe_values(state)
    assert np.allclose(values["p1"], 5.0, atol=1e-10)
    assert np.allclose(values["p2"], 70.0, atol=1e-10)
    assert np.allclose(values["p3"], 6.0, atol=1e-10)
    assert np.allclose(values["p4"], 38.0, atol=1e-10)
    assert np.allclose(values["u_mag"], 0.0)


def test_brain_traction_follows_given_alpha():
    """The ventricle load is sum_i alpha_i p_i with the alpha the scenario runs with."""
    import dataclasses

    reference = brain_analog_scenario(n_radial=1, n_angular=8)
    phys = dataclasses.replace(reference.phys, alpha=[0.1] * 4)
    sc = brain_analog_scenario(n_radial=1, n_angular=8, phys=phys)
    assert sc.phys is phys
    x, n = np.array([[30.0], [0.0]]), np.array([[-1.0], [0.0]])

    def load(scenario):
        return scenario.bcs.displacement["ventricle"][1](x, 0.25, n)[0, 0] / MMHG

    # ventricle pressures at t = 0.25: 7.012, 80, 6 and 38 mmHg
    assert np.isclose(load(sc), 0.1 * (7.012 + 80.0 + 6.0 + 38.0), rtol=1e-12)
    assert np.isclose(load(reference), 0.49 * 7.012 + 0.25 * 80.0 + 0.01 * 6.0 + 0.25 * 38.0,
                      rtol=1e-12)


def test_brain_analog_short_run_bounded_iterations():
    sc = brain_analog_scenario(n_radial=1, n_angular=8, tau=0.0125, t_end=0.125)
    stepper = TimeStepper(sc)
    state, series = stepper.run()
    iters = [row[1] for row in series.log]
    assert len(iters) == 10
    assert max(iters) <= 2 * max(iters[0], 1)


def test_precomputed_boundary_data_and_probes_match_per_facet_references():
    """Boundary data and probes from geometry built once, against direct loops."""
    from numpy.polynomial.legendre import legvander

    from oracles import facet_points, p_eval, u_eval
    from mpet.assembly import apply_boundary_conditions, assemble_traction_rhs
    from mpet.mesh import build_affine_map
    from mpet.spaces import segment_quadrature

    sc = tiny_scenario()
    sc.mesh = generate_annulus(1.0, 2.0, 2, 8)
    sc.ell = 2
    sc.probes = [(1.5, 0.0), (-0.2, 1.3), (0.9, -1.6)]
    sc.bcs = BoundaryConditionSet(
        {
            "skull": ("dirichlet", lambda x, t: (1.0 + t) * np.array([x[0] * x[1], x[0] - x[1] ** 2])),
            "ventricle": ("traction", lambda x, t, n: (1.0 + t) * np.array([x[0] ** 2, x[0] * x[1]])
                          + (2.0 - t) * np.asarray(n)),
        },
        [
            {"skull": ("dirichlet", lambda x, t: (1.0 + t) * x[0] * x[1]),
             "ventricle": ("dirichlet", lambda x, t: t - x[1] ** 3)},
            {"skull": ("dirichlet", lambda x, t: 2.0 + t * x[0]), "ventricle": ("flux", None)},
        ],
    )
    stepper = TimeStepper(sc)
    mesh, spaces, layout, bcs = sc.mesh, stepper.spaces, stepper.layout, sc.bcs
    rule = segment_quadrature(16)
    leg = legvander(rule.points, spaces.n_uhat - 1).T
    con = apply_boundary_conditions(stepper.system, bcs, t=0.0)

    for t in (0.3, 0.8):
        con.update_values(bcs, t)
        fresh = apply_boundary_conditions(stepper.system, bcs, t)
        assert np.array_equal(con.constrained, fresh.constrained)
        assert np.array_equal(con.values, fresh.values)

        expected = {}
        for f in mesh.boundary_facets:
            tag = mesh.boundary_tags[int(f)]
            pts = facet_points(mesh, f, rule.points)
            hF = mesh.facet_length[f]
            kind, fn = bcs.displacement[tag]
            if kind == "dirichlet":
                gv = np.array([fn(x, t) for x in pts])
                for m in range(spaces.n_u_edge):
                    expected[layout.offsets["u"] + f * spaces.n_u_edge + m] = (
                        np.sum(rule.weights * leg[m] * (gv @ mesh.facet_normal[f])) * hF / 2.0
                    )
                    expected[layout.offsets["uhat"] + f * spaces.n_uhat + m] = (
                        (2 * m + 1) / 2.0
                        * np.sum(rule.weights * leg[m] * (gv @ mesh.facet_tangent[f]))
                    )
            for i, per_tag in enumerate(bcs.pressure):
                pkind, pfn = per_tag[tag]
                if pkind == "dirichlet":
                    gv = np.array([pfn(x, t) for x in pts])
                    for m in range(spaces.n_phat):
                        expected[layout.offsets[f"phat{i}"] + f * spaces.n_phat + m] = (
                            (2 * m + 1) / 2.0 * np.sum(rule.weights * leg[m] * gv)
                        )
        assert sorted(expected) == list(con.constrained)
        want = np.array([expected[k] for k in con.constrained])
        assert np.abs(con.values - want).max() <= 1e-12 * np.abs(want).max()

        F = assemble_traction_rhs(spaces, bcs, t=t)
        loads = np.zeros(spaces.size_u)
        for f in mesh.boundary_facets:
            if mesh.boundary_tags[int(f)] != "ventricle":
                continue
            elem = mesh.facet_elements[f, 0]
            pts = facet_points(mesh, f, rule.points)
            uv, _, _ = u_eval(mesh, spaces, elem, build_affine_map(mesh, elem).to_reference(pts))
            _, fn = bcs.displacement["ventricle"]
            for q, x in enumerate(pts):
                w = rule.weights[q] * mesh.facet_length[f] / 2.0
                loads += w * (uv[:, q] @ fn(x, t, mesh.facet_normal[f]))
        assert np.abs(F[layout.sl("u")] - loads).max() <= 1e-12 * np.abs(loads).max()
        assert not np.any(np.delete(F, np.arange(spaces.size_u)))

    rng = np.random.default_rng(5)
    state = stepper.initial_state()
    state.u = rng.normal(size=spaces.size_u)
    state.p = [rng.normal(size=spaces.size_p) for _ in range(2)]
    values = stepper.probe_values(state)
    for j, point in enumerate(sc.probes):
        elem, ref = mesh.locate_point(point)
        pvals = p_eval(mesh, spaces, elem, np.atleast_2d(point))[:, 0]
        for i in range(2):
            want = state.p[i] @ pvals
            assert abs(values[f"p{i + 1}"][j] - want) <= 1e-14 * np.abs(state.p[i]).max()
        uv, _, _ = u_eval(mesh, spaces, elem, np.atleast_2d(ref))
        want = np.hypot(*(state.u @ uv[:, 0]))
        assert abs(values["u_mag"][j] - want) <= 1e-14 * np.abs(state.u).max() * np.abs(uv).max()


def test_time_loop_import_leaves_sympy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import mpet

    src = str(Path(mpet.__file__).resolve().parents[1])
    code = (
        "import sys, mpet.timeloop; assert 'sympy' not in sys.modules; "
        "import mpet; assert callable(mpet.default_manufactured); "
        "assert 'sympy' in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
