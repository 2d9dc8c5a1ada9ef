"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  Frozen regression bounds (iteration caps, spectral
intervals) were calibrated once on the reference setup and committed; the
analytic tolerances are stated inline.
"""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from mpet.assembly import (
    BoundaryConditionSet,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_volume_rhs,
    build_block_system,
    homogeneous_bcs,
)
from mpet.cli import _sweep_parameters, manufactured_solve, unit_square_kernels
from mpet.diagnostics import (
    conservation_residual,
    estimate_inf_sup,
    spectrum_ends,
)
from mpet.manufactured import default_manufactured
from mpet.mesh import generate_unit_square
from mpet.params import scaled_from_direct
from mpet.solver import (
    condense_velocity,
    mean_zero_functionals,
    preconditioner_matrices,
    reduced_subspace_vectors,
)
from mpet.spaces import SpaceSet
from mpet.timeloop import TimeStepper, brain_analog_scenario, windowed_mean

from oracles import oracle_blocks

# frozen regression bounds, calibrated once and committed
SWEEP_MAX_ITERATIONS = 60          # measured max 35 on the 128-element grid
XP_EQUIVALENCE_INTERVAL = (0.15, 0.60)   # measured [0.1667, 0.5052] over 3 levels


def announce(number, name, detail):
    print(f"criterion {number} ({name}): PASS - {detail}")


def test_criterion_1_oracle_assembly_equivalence():
    """Every assembled block equals the dense-quadrature oracle to 1e-12."""
    worst = 0.0
    for ell in (1, 2):
        mesh = generate_unit_square(1)
        spaces = SpaceSet(mesh, ell, 1)
        kernels = assemble_kernels(spaces, eta=10.0)
        expected = oracle_blocks(mesh, spaces, eta=10.0)
        for name in ("a_hdg", "divdiv", "D", "Dw", "Ew", "M_w", "M_p"):
            produced = np.asarray(getattr(kernels, name).todense())
            ref = expected[name]
            scale = max(np.abs(ref).max(), 1e-300)
            defect = np.abs(produced - ref).max() / scale
            worst = max(worst, defect)
            assert defect <= 1e-12, (ell, name, defect)
    announce(1, "oracle assembly equivalence", f"worst relative defect {worst:.2e}")


def test_criterion_2_symmetry_and_conservation():
    """Matrix symmetric to 1e-12; element balance residual <= 1e-8 after
    converged solves (both MinRes at tol 1e-8 and the sparse direct solve)."""
    worst_sym = 0.0
    worst_cons = 0.0
    cases = [
        dict(ell=1, R=1.0, ap=1.0, xiv=1.0, lam=1.0),
        dict(ell=2, R=1e-4, ap=1e-4, xiv=1e-4, lam=1e4),
        dict(ell=1, R=1e-8, ap=0.0, xiv=0.0, lam=1.0),
    ]
    for case in cases:
        xi = np.array([[0.0, case["xiv"]], [case["xiv"], 0.0]])
        scaled = scaled_from_direct(case["lam"], [case["R"]] * 2, [case["ap"]] * 2, xi)
        report, _, (x, system, con) = manufactured_solve(
            4, case["ell"], scaled, 1e-8, 500, "schur_reduced"
        )
        assert report.converged
        worst_sym = max(worst_sym, system.symmetry_defect())
        assert system.symmetry_defect() <= 1e-12
        rel, _ = conservation_residual(x, system)
        worst_cons = max(worst_cons, rel)
        assert rel <= 1e-8

        x_direct = np.zeros(system.layout.total)
        x_direct[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
        x_direct[con.constrained] = con.values
        rel_d, _ = conservation_residual(x_direct, system)
        worst_cons = max(worst_cons, rel_d)
        assert rel_d <= 1e-8
    announce(2, "symmetry & conservation",
             f"max symmetry defect {worst_sym:.2e}, max balance residual {worst_cons:.2e}")


def test_criterion_3_parameter_robustness_sweep():
    """Grid i x lambda x order on 128 elements, MinRes tol 1e-8 with the
    Schur-reduced preconditioner: everything converges under the frozen
    iteration cap, and raising lambda never increases the counts by more
    than 50% (robustness in lambda)."""
    max_iters = 0
    for ell in (1, 2):
        for i in (0, 2, 4, 6, 8):
            counts = {}
            for lam in (1.0, 1e4, 1e8):
                scaled = _sweep_parameters(i, lam, False)
                report, _, _ = manufactured_solve(
                    8, ell, scaled, 1e-8, 500, "schur_reduced"
                )
                assert report.converged, (ell, i, lam)
                counts[lam] = report.iterations
                max_iters = max(max_iters, report.iterations)
            assert max(counts.values()) <= 1.5 * counts[1.0], (ell, i, counts)
    assert max_iters <= SWEEP_MAX_ITERATIONS
    announce(3, "parameter-robustness sweep",
             f"all 30 cells converged, max iterations {max_iters} <= {SWEEP_MAX_ITERATIONS}")


def test_criterion_4_preconditioner_comparison():
    """alpha_p = xi = 0 with R sweeping to 1e-8: both preconditioners
    converge and the counts saturate (last two sweep points within 10%)."""
    summary = {}
    for variant in ("schur_reduced", "full_block"):
        counts = []
        for i in (0, 2, 4, 6, 8):
            scaled = scaled_from_direct(1.0, [10.0 ** (-i)] * 2, [0.0, 0.0])
            report, _, _ = manufactured_solve(8, 2, scaled, 1e-8, 500, variant)
            assert report.converged, (variant, i)
            counts.append(report.iterations)
        assert abs(counts[-1] - counts[-2]) <= 0.10 * max(counts[-2], 1), (variant, counts)
        summary[variant] = counts
    # the reduced variant performs better; reported, not asserted cell-wise
    better = sum(
        1 for a, b in zip(summary["schur_reduced"], summary["full_block"]) if a <= b
    )
    announce(4, "B vs B-tilde",
             f"schur_reduced {summary['schur_reduced']}, full_block {summary['full_block']}, "
             f"reduced better in {better}/5 cells")


def test_criterion_5_spectrum_boundedness():
    """Eigenvalues of the preconditioned reduced operator stay in intervals
    bounded away from zero over the R sweep (mean-zero subspace, 8-element
    mesh), and the (X_p, X_p_tilde) eigenvalues sit in a frozen interval
    across 3 mesh levels."""
    interval_rows = []
    for i in (0, 2, 4, 6, 8):
        R = 10.0 ** (-i)
        scaled = scaled_from_direct(1.0, [R, R], [0.0, 0.0])
        mesh = generate_unit_square(2)
        spaces = SpaceSet(mesh, 1, 2)
        system = build_block_system(assemble_kernels(spaces), scaled)
        manu = default_manufactured(2)
        system.F = assemble_volume_rhs(
            spaces, f=manu.body_force(scaled), g=manu.mass_sources(scaled)
        )
        bcs = BoundaryConditionSet(
            {"boundary": ("dirichlet", lambda x, t: np.zeros(2))},
            [{"boundary": ("flux", None)} for _ in range(2)],
        )
        con = apply_boundary_conditions(system, bcs)
        condensed = condense_velocity(con)
        x1, x2 = preconditioner_matrices(condensed, scaled)
        prec = sps.block_diag([x1, x2], format="csr")
        exclude = reduced_subspace_vectors(condensed, mean_zero_functionals(system))
        neg, pos = spectrum_ends(condensed.K_red, prec, exclude=exclude)
        assert neg is not None and pos is not None
        assert neg[1] < -1e-2 and pos[0] > 1e-2
        interval_rows.append([abs(neg[0]), abs(neg[1]), pos[0], pos[1]])
    mags = np.array(interval_rows)
    endpoint_ratio = (mags.max(axis=0) / mags.min(axis=0)).max()
    assert endpoint_ratio < 10.0

    lo, hi = XP_EQUIVALENCE_INTERVAL
    for n in (1, 2, 4):
        scaled = scaled_from_direct(1.0, [1.0], [0.0])
        system = build_block_system(unit_square_kernels(n, 1, 1, 10.0), scaled)
        con = apply_boundary_conditions(system, homogeneous_bcs(1, pressure="dirichlet"))
        condensed = condense_velocity(con)
        _, xp = preconditioner_matrices(con, scaled)
        _, xpt = preconditioner_matrices(condensed, scaled)
        _, (eig_min, eig_max) = spectrum_ends(xp, xpt)
        assert eig_min >= lo and eig_max <= hi, (n, eig_min, eig_max)
    announce(5, "spectrum boundedness",
             f"endpoint variation {endpoint_ratio:.2f}x < 10x, "
             f"(X_p, X_p~) within [{lo}, {hi}] on 3 levels")


def test_criterion_6_convergence_orders():
    """Mesh levels 4/8/16: observed order >= ell - 0.2 in the displacement
    energy norm and the flux L2 norm for ell in {1, 2}."""
    xi = np.array([[0.0, 1.0], [1.0, 0.0]])
    scaled = scaled_from_direct(1.0, [1.0, 1.0], [1.0, 1.0], xi)
    observed = {}
    for ell in (1, 2):
        errs = {}
        for n in (4, 8, 16):
            report, errors, _ = manufactured_solve(
                n, ell, scaled, 1e-10, 800, "schur_reduced", with_errors=True
            )
            assert report.converged
            errs[n] = errors
        for key in ("energy", "w_l2"):
            rate = float(np.log2(errs[8][key] / errs[16][key]))
            observed[(ell, key)] = rate
            assert rate >= ell - 0.2, (ell, key, rate)
    announce(6, "convergence orders",
             ", ".join(f"ell={k[0]} {k[1]}: {v:.2f}" for k, v in observed.items()))


def test_criterion_7_infsup_mesh_independence():
    """Both inf-sup constants positive and varying < 20% over n in {2,4,8}."""
    results = {}
    for which in ("stokes-like", "darcy-like"):
        betas = []
        for n in (2, 4, 8):
            kernels = assemble_kernels(SpaceSet(generate_unit_square(n), 1, 1))
            betas.append(estimate_inf_sup(kernels, which))
        assert all(b > 0 for b in betas)
        spread = (max(betas) - min(betas)) / max(betas)
        assert spread < 0.2, (which, betas)
        results[which] = (betas, spread)
    announce(7, "inf-sup mesh independence",
             "; ".join(f"{k}: beta {v[0][0]:.3f}..{v[0][-1]:.3f} spread {v[1]:.1%}"
                       for k, v in results.items()))


def test_criterion_8_brain_analog_run():
    """Full brain-analog scenario: 240 steps complete, per-step iteration
    counts bounded by twice the first step, and the windowed mean obeys
    the truncation rule for t_k < 1/2."""
    scenario = brain_analog_scenario(n_radial=4, n_angular=32, tau=0.0125, t_end=3.0)
    stepper = TimeStepper(scenario)
    state, series = stepper.run()
    iters = [row[1] for row in series.log]
    assert len(iters) == 240
    assert max(iters) <= 2 * max(iters[0], 1)

    # truncation rule: mean over [0, t_k + 1/2] normalized by the length
    t, v = series.series("p2", 0)
    t_k = 0.25
    got = windowed_mean(t, v, t_k)
    mask = t <= t_k + 0.5 + 1e-12
    expected = float(np.trapezoid(v[mask], t[mask]) / (t[mask][-1] - t[mask][0]))
    assert np.isclose(got, expected, rtol=1e-12)
    # full windows are plain unit-window means
    t_mid = 1.5
    full = windowed_mean(t, v, t_mid)
    maskf = (t >= 1.0 - 1e-12) & (t <= 2.0 + 1e-12)
    expectedf = float(np.trapezoid(v[maskf], t[maskf]))
    assert np.isclose(full, expectedf, rtol=1e-10)

    p1_0 = series.samples["p1"][0]
    assert np.allclose(p1_0, 5.0, atol=1e-9)
    announce(8, "brain-analog run",
             f"240 steps, iterations first {iters[0]} / max {max(iters)}, "
             f"windowed means verified")
