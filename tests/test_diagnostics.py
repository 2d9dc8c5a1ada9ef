import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mpet.assembly import (
    BoundaryConditionSet,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_volume_rhs,
    build_block_system,
)
from mpet.cli import write_csv
from mpet.diagnostics import (
    NormAssembler,
    conservation_residual,
    estimate_inf_sup,
    spectrum_ends,
)
from mpet.manufactured import default_manufactured
from mpet.mesh import Mesh, generate_unit_square
from mpet.params import scaled_from_direct
from mpet.solver import condense_velocity, preconditioner_matrices, solve
from mpet.spaces import SpaceSet
from mpet.timeloop import TimeStepper, brain_analog_scenario

import oracles
from oracles import oracle_blocks


def make_problem(n_side=2, ell=1, n_networks=2, lam=1.0, R=1.0, alpha_p=0.0, xi=0.0,
                 pressure_bc="dirichlet"):
    mesh = generate_unit_square(n_side)
    spaces = SpaceSet(mesh, ell, n_networks)
    xi_mat = np.full((n_networks, n_networks), xi)
    np.fill_diagonal(xi_mat, 0.0)
    scaled = scaled_from_direct(lam, [R] * n_networks, [alpha_p] * n_networks, xi_mat)
    system = build_block_system(assemble_kernels(spaces), scaled)
    manu = default_manufactured(min(n_networks, 2))
    g = manu.mass_sources(scaled)
    while len(g) < n_networks:
        g.append(g[-1])
    system.F = assemble_volume_rhs(spaces, f=manu.body_force(scaled), g=g)
    if pressure_bc == "dirichlet":
        pres = [
            {"boundary": ("dirichlet", manu.pressure_trace_bc(min(i, manu.n - 1)))}
            for i in range(n_networks)
        ]
    else:
        pres = [{"boundary": ("flux", None)} for _ in range(n_networks)]
    bcs = BoundaryConditionSet({"boundary": ("dirichlet", lambda x, t: np.zeros(2))}, pres)
    con = apply_boundary_conditions(system, bcs)
    return mesh, spaces, scaled, system, bcs, con


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------


def test_zero_state_zero_norms():
    mesh, spaces, scaled, system, _, _ = make_problem(1, 1, 1)
    norms = NormAssembler(system.kernels)
    rep = norms.report(np.zeros(system.layout.total), scaled)
    assert rep == {"energy": 0.0, "p_l2": 0.0, "w_l2": 0.0}


def test_rigid_translation_in_hdg_kernel():
    mesh, spaces, scaled, system, _, _ = make_problem(2, 1, 1)
    norms = NormAssembler(system.kernels)
    x = np.zeros(system.layout.total)
    motion = lambda p: np.array([0.4, -1.1])
    x[system.layout.sl("u")] = spaces.interpolate_u(motion)
    x[system.layout.sl("uhat")] = spaces.interpolate_uhat(motion)
    rep = norms.report(x, scaled)
    assert rep["energy"] < 1e-10


def test_norm_homogeneity_and_product_identity():
    """Each of the three errors is homogeneous of degree one."""
    mesh, spaces, scaled, system, _, con = make_problem(2, 2, 2, lam=10.0, alpha_p=0.3, xi=0.2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=system.layout.total)
    norms = NormAssembler(system.kernels)
    rep1 = norms.report(x, scaled)
    rep3 = norms.report(3.0 * x, scaled)
    for key in ("energy", "p_l2", "w_l2"):
        assert rep1[key] > 0.0
        assert np.isclose(rep3[key], 3.0 * rep1[key], rtol=1e-12), key


def test_reported_errors_match_matrix_oracles():
    """At (4,2) with two networks and lambda = 10, the squared energy of a
    random vector is ``x^T (N_u + lambda N_div) x`` with the whole-mesh
    norm matrices, and the L2 errors are the per-network forms of the
    dense oracle masses ``M_p`` and ``M_w``."""
    from oracles import whole_mesh_norm_factors, whole_mesh_norm_matrix

    mesh, spaces, scaled, system, _, _ = make_problem(4, 2, 2, lam=10.0, alpha_p=0.3, xi=0.2)
    layout = system.layout
    x = np.random.default_rng(5).normal(size=layout.total)
    rep = NormAssembler(system.kernels).report(x, scaled)

    N_u = whole_mesh_norm_matrix(*whole_mesh_norm_factors(spaces, "u_hdg", include_h2=True))
    N_div = whole_mesh_norm_matrix(*whole_mesh_norm_factors(spaces, "divdiv"))
    uu, u = x[: layout.offsets["w0"]], x[layout.sl("u")]
    energy2 = float(uu @ (N_u @ uu)) + scaled.lam * float(u @ (N_div @ u))
    assert abs(rep["energy"] ** 2 - energy2) <= 1e-11 * energy2

    blocks = oracle_blocks(mesh, spaces)
    for key, field, mass in (("p_l2", "p", blocks["M_p"]), ("w_l2", "w", blocks["M_w"])):
        parts = [x[layout.sl(f"{field}{i}")] for i in range(scaled.n)]
        want = np.sqrt(sum(float(d @ mass @ d) for d in parts))
        assert abs(rep[key] - want) <= 1e-13 * want, key


def test_norm_memory_does_not_grow_with_the_mesh():
    """The numpy peak of one norm evaluation, under ``tracemalloc``, is the
    same at (8,3), (16,3) and (32,3): no norm factor is held for the
    whole mesh.

    Measured 0.72, 0.72 and 0.72 MiB (two networks); with the pressure
    HDG norms, their pressures read in place, it was 0.73 MiB, and with
    chunks sized by the fields alone and a stacked copy of the pressures
    0.91, 0.97 and 2.15 MiB.
    """
    import tracemalloc

    peaks = []
    for n_side in (8, 16, 32):
        spaces = SpaceSet(generate_unit_square(n_side), 3, 2)
        kernels = assemble_kernels(spaces)
        scaled = scaled_from_direct(10.0, [0.5, 2.0], [0.3, 0.1], [[0.0, 0.2], [0.2, 0.0]])
        x = np.random.default_rng(0).normal(size=NormAssembler(kernels).layout.total)
        tracemalloc.start()
        try:
            NormAssembler(kernels).report(x, scaled)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.1 * peaks[0] and max(peaks) <= 18.0, peaks


def test_single_element_norm_matches_dense_oracle():
    """On one element at order 1, a linear displacement with its
    tangential traces as uhat has no jump and no second derivatives, so
    the dense oracle norm without its h^2 term is its strain energy, as
    ``_strain_only`` assembles it, and the energy of ``NormAssembler.report``
    squared is that plus lambda times its div-div oracle term."""
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    mesh.tag_boundary(lambda x: True, "boundary")
    spaces = SpaceSet(mesh, 1, 1)
    scaled = scaled_from_direct(3.0, [1.0], [0.0])
    norms = NormAssembler(assemble_kernels(spaces))
    field = lambda x: np.array([1.0 + 2.0 * x[0] - x[1], 0.5 * x[0] + 3.0 * x[1]])
    u = spaces.interpolate_u(field)
    uu = np.concatenate([u, spaces.interpolate_uhat(field)])
    strain = float(uu @ (_strain_only(mesh, spaces) @ uu))
    oracle = oracles.oracle_displacement_hdg_norm(mesh, spaces, include_h2=False)
    assert np.isclose(float(uu @ (oracle @ uu)), strain, rtol=1e-12, atol=0.0)

    x = np.zeros(norms.layout.total)
    x[: len(uu)] = uu   # u, then uhat
    divdiv = float(u @ (oracle_blocks(mesh, spaces)["divdiv"] @ u))
    energy = norms.report(x, scaled)["energy"]
    assert np.isclose(energy**2, strain + scaled.lam * divdiv, rtol=1e-12, atol=0.0)


def _strain_only(mesh, spaces):
    import scipy.sparse as sps
    from mpet.mesh import build_affine_map
    from mpet.spaces import piola_grad

    size = spaces.size_u + spaces.size_uhat
    rows, cols, vals = [], [], []
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        wq = spaces.vol_rule.weights * amap.det
        signs = spaces.u_signs[t]
        grads = piola_grad(amap, spaces.bdm_grads) * signs[:, None, None, None]
        eps = 0.5 * (grads + np.swapaxes(grads, 2, 3))
        block = np.einsum("iqab,jqab,q->ij", eps, eps, wq)
        dofs = spaces.u_dofmap[t]
        rows.append(np.repeat(dofs, len(dofs)))
        cols.append(np.tile(dofs, len(dofs)))
        vals.append(block.ravel())
    return sps.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


def test_solve_matches_direct_in_product_norm():
    """MinRes at tol 1e-8 against a direct solve, per reported error.

    Measured relative distances 1.5e-10 (energy), 6.6e-6 (p_l2) and
    9.1e-6 (w_l2) on OpenBLAS's SkylakeX, Haswell and Sandybridge
    kernels: the stopping test weighs the fluxes by 1/R = 1e4, the
    unweighted L2 errors do not.
    """
    mesh, spaces, scaled, system, bcs, con = make_problem(2, 2, 2, lam=1e4, R=1e-4)
    x, report, _ = solve(con, tol=1e-8)
    assert report.converged
    x_direct = np.zeros(system.layout.total)
    x_direct[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
    x_direct[con.constrained] = con.values
    norms = NormAssembler(system.kernels)
    err = norms.report(x - x_direct, scaled)
    ref = norms.report(x_direct, scaled)
    for key, bound in (("energy", 1e-9), ("p_l2", 3e-5), ("w_l2", 3e-5)):
        assert err[key] <= bound * ref[key], key


# ----------------------------------------------------------------------
# conservation
# ----------------------------------------------------------------------


def test_conservation_after_direct_solve():
    mesh, spaces, scaled, system, bcs, con = make_problem(2, 1, 2, alpha_p=0.5, xi=0.3)
    x = np.zeros(system.layout.total)
    x[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
    x[con.constrained] = con.values
    max_rel, residual = conservation_residual(x, system)
    assert max_rel <= 1e-12
    assert residual.shape == (2, mesh.n_elements)


def test_conservation_after_minres_solve_and_negative_control():
    mesh, spaces, scaled, system, bcs, con = make_problem(2, 2, 2, alpha_p=1e-4, xi=1e-4)
    x, report, _ = solve(con, tol=1e-10)
    max_rel, _ = conservation_residual(x, system)
    assert max_rel <= 1e-8

    x_bad, report_bad, _ = solve(con, tol=1e-1)
    bad_rel, _ = conservation_residual(x_bad, system)
    assert bad_rel > 1e-8


@pytest.mark.parametrize("name", ["unit_square", "brain"])
def test_conservation_residual_matches_per_element_reference(name):
    """Batched dual norms against a plain loop over networks and elements,
    on a two-network unit square solved directly and on the brain annulus
    after its first step (four networks, transfer, Dirichlet and flux
    pressure tags, a traction)."""
    if name == "brain":
        stepper = TimeStepper(brain_analog_scenario(t_end=0.0125))
        x = stepper.step(stepper.initial_state())[2]
        spaces, scaled, system = stepper.spaces, stepper.scaled, stepper.system
        mesh = spaces.mesh
        # of the order of the solution: the balance terms of the annulus's
        # elements and networks span five orders of magnitude
        noise = 1.0
    else:
        mesh, spaces, scaled, system, bcs, con = make_problem(2, 2, 2, alpha_p=0.5, xi=0.3)
        x = np.zeros(system.layout.total)
        x[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
        x[con.constrained] = con.values
        noise = 1e-3
    assert np.any(scaled.zeta[~np.eye(scaled.n, dtype=bool)] != 0.0)   # transfer between networks
    # perturbed, so every element's residual sits far above round-off
    x += noise * np.random.default_rng(11).normal(size=x.shape)
    max_rel, residual = conservation_residual(x, system)

    layout, kernels, n = system.layout, system.kernels, scaled.n
    dofs = [spaces.p_dofs(t) for t in range(mesh.n_elements)]
    m_inv = [np.linalg.inv(kernels.M_p[np.ix_(d, d)].toarray()) for d in dofs]

    def dual_norm2(vec):
        return [float(vec[d] @ minv @ vec[d]) for d, minv in zip(dofs, m_inv)]

    scale2 = sum(dual_norm2(kernels.D @ x[layout.sl("u")]))
    for i in range(n):
        scale2 += sum(dual_norm2(kernels.Dw @ x[layout.sl(f"w{i}")]))
        scale2 += sum(dual_norm2(system.F[layout.sl(f"p{i}")]))
        zp = sum(scaled.zeta[i, j] * (kernels.M_p @ x[layout.sl(f"p{j}")]) for j in range(n))
        scale2 += sum(dual_norm2(zp))
    r = system.F - system.K @ x
    # row i, column t: network i on element t
    want = np.sqrt([dual_norm2(r[layout.sl(f"p{i}")]) for i in range(n)]) / np.sqrt(scale2)
    assert residual.shape == want.shape
    assert want.min() > 1e-6
    # element by element: on the annulus the residuals span five decades
    assert np.all(np.abs(residual - want) <= 1e-12 * want)
    if name == "unit_square":
        assert np.abs(residual - want).max() <= 1e-12 * want.min()
    assert abs(max_rel - want.max()) <= 1e-12 * want.max()


def test_conservation_csv(tmp_path):
    rows = [(0, 0, 1.5e-12), (1, 0, 2.5e-13)]
    path = write_csv(tmp_path / "cons.csv", "# demo", "element,network,residual", rows)
    text = path.read_text().splitlines()
    assert text[0] == "# demo"
    assert text[1] == "element,network,residual"
    assert text[2] == "0,0,1.5e-12"


# ----------------------------------------------------------------------
# inf-sup
# ----------------------------------------------------------------------


def test_infsup_positive_and_mesh_independent():
    betas_s, betas_d = [], []
    for n in (2, 4, 8):
        kernels = assemble_kernels(SpaceSet(generate_unit_square(n), 1, 1))
        betas_s.append(estimate_inf_sup(kernels, "stokes-like"))
        betas_d.append(estimate_inf_sup(kernels, "darcy-like"))
    for seq in (betas_s, betas_d):
        assert all(b > 0 for b in seq)
        assert (max(seq) - min(seq)) / max(seq) < 0.2


def test_infsup_invariant_under_translation_rotation():
    base = generate_unit_square(2)
    angle = 0.7
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    verts = base.vertices @ rot.T + np.array([3.0, -1.0])
    moved = Mesh(verts, base.elements)
    moved.tag_boundary(lambda x: True, "boundary")
    for which in ("stokes-like", "darcy-like"):
        b0 = estimate_inf_sup(assemble_kernels(SpaceSet(base, 1, 1)), which)
        b1 = estimate_inf_sup(assemble_kernels(SpaceSet(moved, 1, 1)), which)
        assert abs(b0 - b1) <= 1e-10 * max(b0, 1.0)


def test_darcy_infsup_matches_oracle_assembly():
    """The same eigenvalue computation on independently assembled matrices."""
    from oracles import oracle_blocks, oracle_pressure_hdg_norm
    from scipy.linalg import eigh

    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 1, 1)
    beta = estimate_inf_sup(assemble_kernels(spaces), "darcy-like")

    blocks = oracle_blocks(mesh, spaces)
    N = oracle_pressure_hdg_norm(mesh, spaces, include_h2=True)
    B = np.vstack([blocks["Dw"], -blocks["Ew"]])
    S = B @ np.linalg.solve(blocks["M_w"], B.T)
    d, V = np.linalg.eigh(0.5 * (N + N.T))
    keep = d > 1e-10 * d.max()
    S_red = V[:, keep].T @ (0.5 * (S + S.T)) @ V[:, keep]
    eigs = eigh(S_red, np.diag(d[keep]), eigvals_only=True)
    nonzero = eigs[eigs > 1e-10 * eigs.max()]
    beta_oracle = float(np.sqrt(nonzero.min()))
    assert np.isclose(beta, beta_oracle, rtol=1e-9)


def test_infsup_at_n24_within_band():
    """No size limit: at n = 24 (about 7000 DOFs per estimator) both
    constants stay in the 20% band of the n = 2, 4, 8 values."""
    for which in ("stokes-like", "darcy-like"):
        betas = []
        for n in (2, 4, 8, 24):
            kernels = assemble_kernels(SpaceSet(generate_unit_square(n), 1, 1))
            betas.append(estimate_inf_sup(kernels, which))
        assert min(betas) > 0
        assert (max(betas) - min(betas)) / max(betas) < 0.2, (which, betas)


@pytest.mark.parametrize("which", ["stokes-like", "darcy-like"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_infsup_matches_dense_oracle(which, n):
    kernels = assemble_kernels(SpaceSet(generate_unit_square(n), 1, 1))
    beta = estimate_inf_sup(kernels, which)
    assert np.isclose(beta, oracles.estimate_inf_sup(kernels, which), rtol=1e-10, atol=0)


def test_infsup_csv(tmp_path):
    path = write_csv(tmp_path / "beta.csv", "# demo", "mesh_n,beta_h", [(2, 0.5), (4, 0.49)])
    lines = path.read_text().splitlines()
    assert lines[1] == "mesh_n,beta_h"
    assert lines[2] == "2,0.5"


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------


def test_absolute_value_preconditioner_gives_unit_spectrum():
    _, _, scaled, system, bcs, con = make_problem(1, 1, 1)
    K = con.K_ff.toarray()
    lam, V = np.linalg.eigh(K)
    absK = V @ np.diag(np.abs(lam)) @ V.T
    neg, pos = spectrum_ends(K, absK)
    assert np.allclose(np.abs(neg + pos), 1.0, atol=1e-9)


def test_preconditioned_spectrum_bounded_over_R_sweep():
    """Uniform bounds hold on the mean-zero-compatible subspace.

    The analysis setting is pure flux data with per-network mean-zero
    pressures; the pencil is restricted to that subspace, mirroring where
    the well-posedness theory lives.  The preconditioner blocks enter
    unaugmented (the rank-one augmentation exists only to make the solve
    factorizable and would distort the spectrum).
    """
    import scipy.sparse as sps
    from mpet.solver import mean_zero_functionals

    intervals = []
    for expo in (0, 4, 8):
        _, spaces, scaled, system, bcs, con = make_problem(
            2, 1, 2, R=10.0 ** (-expo), alpha_p=0.0, xi=0.0, pressure_bc="flux"
        )
        condensed = condense_velocity(con)
        x1, x2 = preconditioner_matrices(condensed)
        prec_mat = sps.block_diag([x1, x2], format="csr")
        exclude = mean_zero_functionals(condensed)
        neg, pos = spectrum_ends(condensed.K_red, prec_mat, exclude=exclude)
        assert neg is not None and pos is not None
        assert pos[0] > 1e-2 and neg[1] < -1e-2
        intervals.append((neg, pos))
    mags = np.array([[abs(n[0]), abs(n[1]), p[0], p[1]] for (n, p) in intervals])
    assert (mags.max(axis=0) / mags.min(axis=0)).max() < 10.0


def test_network_decoupling_of_schur_spectrum():
    """With xi = 0, equal parameters and huge lambda the network coupling
    through the all-ones matrix and the displacement Schur term vanishes,
    so the two-network spectrum is the single-network one duplicated."""
    lam = 1e8
    single = make_problem(1, 1, 1, lam=lam, R=0.5, alpha_p=0.2)
    double = make_problem(1, 1, 2, lam=lam, R=0.5, alpha_p=0.2, xi=0.0)

    def schur_vs_xp(bundle):
        mesh, spaces, scaled, system, bcs, con = bundle
        sp_mat = oracles.pressure_schur_complement(con)
        _, xp = preconditioner_matrices(con)
        return np.sort(oracles.preconditioned_spectrum(-sp_mat, xp))

    e1 = schur_vs_xp(single)
    e2 = schur_vs_xp(double)
    expected = np.sort(np.concatenate([e1, e1]))
    assert np.allclose(e2, expected, rtol=1e-4, atol=1e-8)


def _eigs_preset_pencil(i):
    """The eigs preset's reduced-operator pencil at R = 10^-i."""
    import scipy.sparse as sps
    from mpet.solver import mean_zero_functionals

    _, _, scaled, system, _, con = make_problem(
        2, 1, 2, R=10.0 ** (-i), alpha_p=0.0, xi=0.0, pressure_bc="flux"
    )
    condensed = condense_velocity(con)
    x1, x2 = preconditioner_matrices(condensed)
    exclude = mean_zero_functionals(condensed)
    return condensed.K_red, sps.block_diag([x1, x2], format="csr"), exclude


@pytest.mark.parametrize("i", [0, 2, 4, 6, 8])
def test_spectrum_ends_match_dense_oracle(i):
    """The four ends at the eigs preset's sizes against every dense
    eigenvalue.  At i = 6 and 8 B's diagonal spans 2e10; the Jacobi
    scaling of the oracle keeps the dense neg_min within 1.3e-9 of the
    Lanczos one at i = 8 on the SkylakeX, Haswell and Sandybridge
    kernels of OpenBLAS (1.5e-6 unscaled), but that end is still held
    to 1e-6 only."""
    K, B, exclude = _eigs_preset_pencil(i)
    neg, pos = spectrum_ends(K, B, exclude=exclude)
    want_neg, want_pos = oracles.spectrum_intervals(
        oracles.preconditioned_spectrum(K, B, exclude=exclude)
    )
    rtol = [1e-6 if i >= 6 else 1e-10, 1e-10, 1e-10, 1e-10]
    for got, want, tol in zip(neg + pos, want_neg + want_pos, rtol):
        assert abs(got - want) <= tol * abs(want), (got, want)


@pytest.mark.parametrize("n_side", [1, 2, 4])
def test_definite_pencil_ends_match_dense_oracle(n_side):
    """The pressure-block equivalence pair is definite: two Lanczos runs."""
    _, _, scaled, _, _, con = make_problem(n_side, 1, 1, R=1.0)
    _, xp = preconditioner_matrices(con)
    _, xpt = preconditioner_matrices(condense_velocity(con))
    neg, pos = spectrum_ends(xp, xpt)
    eigs = oracles.preconditioned_spectrum(xp, xpt)
    assert neg is None
    assert np.allclose(pos, (eigs.min(), eigs.max()), rtol=1e-10, atol=0)


def test_spectrum_ends_are_bit_reproducible():
    K, B, exclude = _eigs_preset_pencil(4)
    assert spectrum_ends(K, B, exclude=exclude) == spectrum_ends(K, B, exclude=exclude)
