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
    constant_pressure_mode,
    homogeneous_bcs,
    pressure_hdg_matrix,
    pressure_nullspace,
)
from mpet.manufactured import default_manufactured
from mpet.mesh import generate_unit_square
from mpet.params import scaled_from_direct
from mpet.solver import (
    CondensedSystem,
    PreconditionerError,
    build_preconditioner,
    condense_velocity,
    minres,
    preconditioner_matrices,
    solve,
)
from mpet.spaces import SpaceSet
from oracles import dense_kernel_augmentation


def identity_prec(r):
    return r


def make_problem(n_side=2, ell=1, n_networks=2, lam=1.0, R=1.0, alpha_p=0.0,
                 xi=0.0, pressure_bc="dirichlet", rhs=True):
    mesh = generate_unit_square(n_side)
    spaces = SpaceSet(mesh, ell, n_networks)
    xi_mat = np.full((n_networks, n_networks), xi)
    np.fill_diagonal(xi_mat, 0.0)
    scaled = scaled_from_direct(lam, [R] * n_networks, [alpha_p] * n_networks, xi_mat)
    system = build_block_system(assemble_kernels(spaces), scaled)
    manu = default_manufactured(min(n_networks, 2))
    if rhs:
        g = manu.mass_sources(scaled)
        while len(g) < n_networks:
            g.append(g[-1])
        system.F = assemble_volume_rhs(spaces, f=manu.body_force(scaled), g=g)
    if pressure_bc == "dirichlet":
        pres = []
        for i in range(n_networks):
            fn = manu.pressure_trace_bc(min(i, manu.n - 1))
            pres.append({"boundary": ("dirichlet", fn)})
        bcs = BoundaryConditionSet(
            {"boundary": ("dirichlet", lambda x, t: np.zeros(2))}, pres
        )
    else:
        bcs = homogeneous_bcs(n_networks)
    con = apply_boundary_conditions(system, bcs)
    return mesh, spaces, scaled, system, bcs, con


# ----------------------------------------------------------------------
# minres on small fixed systems
# ----------------------------------------------------------------------


def test_minres_diagonal_spd():
    A = np.diag([2.0, 3.0])
    x, report = minres(A, identity_prec, np.array([2.0, 3.0]))
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_minres_symmetric_indefinite():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    x, report = minres(A, identity_prec, np.array([1.0, 0.0]))
    assert report.converged
    assert report.iterations <= 2
    assert np.allclose(x, [0.0, 1.0], atol=1e-12)


def test_minres_zero_rhs():
    A = np.diag([1.0, 2.0])
    x, report = minres(A, identity_prec, np.zeros(2))
    assert report.converged
    assert report.iterations == 0
    assert np.all(x == 0.0)


def test_minres_maxit_returns_unconverged():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(40, 40))
    A = m + m.T
    b = rng.normal(size=40)
    x, report = minres(A, identity_prec, b, tol=1e-14, maxit=3)
    assert not report.converged
    assert report.iterations == 3


def test_minres_history_non_increasing():
    _, _, _, _, _, con = make_problem(n_side=2, ell=1)
    x, report = minres(con.K_ff, identity_prec, con.rhs(), tol=1e-10, maxit=300)
    h = np.array(report.residuals)
    assert np.all(h[1:] <= h[:-1] + 1e-14 * h[0])
    if report.converged:
        assert report.final_residual <= 1e-10 * h[0]


def test_minres_exact_preconditioner_two_iterations():
    """With the SPD absolute value of the operator, the spectrum is {-1, +1}."""
    _, _, _, _, _, con = make_problem(n_side=1, ell=1, n_networks=1)
    K = con.K_ff.toarray()
    lam, V = np.linalg.eigh(K)
    apply_abs_inv = lambda r: V @ ((V.T @ r) / np.abs(lam))
    x, report = minres(con.K_ff, apply_abs_inv, con.rhs(), tol=1e-10)
    assert report.converged
    assert report.iterations <= 2
    x_direct = np.linalg.solve(K, con.rhs())
    assert np.allclose(x, x_direct, atol=1e-8 * np.linalg.norm(x_direct))


# ----------------------------------------------------------------------
# condensation
# ----------------------------------------------------------------------


def test_condense_matches_dense_schur_oracle():
    _, spaces, scaled, system, bcs, con = make_problem(n_side=1, ell=1, n_networks=1)
    condensed = condense_velocity(con)

    # dense algebra oracle, separate index bookkeeping
    K = con.K_ff.toarray()
    layout = con.layout
    pos = con.free_pos
    iu = [pos[d] for d in np.concatenate([layout.indices("u"), layout.indices("uhat")]) if pos[d] >= 0]
    iw = [pos[d] for d in layout.indices("w0") if pos[d] >= 0]
    iq = [
        pos[d]
        for d in np.concatenate([layout.indices("p0"), layout.indices("phat0")])
        if pos[d] >= 0
    ]
    Auu = K[np.ix_(iu, iu)]
    G = K[np.ix_(iq, iu)]
    Mw = K[np.ix_(iw, iw)]
    B = K[np.ix_(iw, iq)]
    Cq = K[np.ix_(iq, iq)]
    expected = np.block([[Auu, G.T], [G, Cq - B.T @ np.linalg.inv(Mw) @ B]])
    assert np.allclose(condensed.K_red.toarray(), expected, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("block_size", [3, 6])
def test_block_diag_inverse_equals_per_block_inverse(block_size):
    from mpet.solver import _block_diag_inverse

    rng = np.random.default_rng(4)
    blocks = rng.normal(size=(40, block_size, block_size))
    blocks = blocks @ np.swapaxes(blocks, 1, 2) + block_size * np.eye(block_size)
    expected = sps.block_diag([np.linalg.inv(b) for b in blocks]).toarray()
    produced = _block_diag_inverse(sps.block_diag(list(blocks), format="csr"), block_size)
    assert np.array_equal(produced.toarray(), expected)


def test_condensed_solve_matches_unreduced():
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=2, n_networks=2,
                                                  alpha_p=0.3, xi=0.1)
    x_direct = np.zeros(system.layout.total)
    x_direct[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
    x_direct[con.constrained] = con.values

    condensed = condense_velocity(con)
    rhs_red = condensed.rhs()
    x_red = spla.spsolve(condensed.K_red.tocsc(), rhs_red)
    x_full = con.expand(condensed.expand(x_red))
    scale = np.abs(x_direct).max()
    assert np.abs(x_full - x_direct).max() <= 1e-10 * scale


def test_condensed_network_blocks_identical_for_equal_R():
    _, spaces, scaled, system, bcs, con = make_problem(n_side=1, ell=1, n_networks=2, R=0.7)
    condensed = condense_velocity(con)
    s = condensed.schur.toarray()
    np_free = spaces.size_p  # all volume pressures are free
    b0 = s[:np_free, :np_free]
    b1 = s[np_free : 2 * np_free, np_free : 2 * np_free]
    assert np.allclose(b0, b1, atol=1e-13 * np.abs(b0).max())


# ----------------------------------------------------------------------
# preconditioners
# ----------------------------------------------------------------------


def test_both_variants_spd_at_hard_corner():
    """Factorization succeeds at the hardest sweep corner R -> 0, alpha_p = xi = 0."""
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=1, n_networks=2, R=1e-8)
    condensed = condense_velocity(con)
    build_preconditioner(condensed, scaled)
    build_preconditioner(con, scaled)


@pytest.mark.parametrize("n_side, ell", [(1, 2), (17, 2)])
def test_small_penalty_rejected(n_side, ell):
    _, spaces, scaled, system, bcs, _ = make_problem(n_side=n_side, ell=ell)
    mesh = spaces.mesh
    kernels = assemble_kernels(spaces, eta=0.05)
    sys2 = build_block_system(kernels, scaled)
    sys2.F = system.F
    con2 = apply_boundary_conditions(sys2, bcs)
    condensed = condense_velocity(con2)
    with pytest.raises(PreconditionerError, match="not SPD"):
        build_preconditioner(condensed, scaled)


@pytest.mark.parametrize(
    "mat",
    [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
    ids=["indefinite", "singular-psd", "zero-diagonal"],
)
def test_spd_factor_rejects_small_non_spd_blocks(mat):
    from mpet.solver import _SPDFactor

    with pytest.raises(PreconditionerError, match="not SPD"):
        _SPDFactor(sps.csc_matrix(np.array(mat)))


def test_spd_factor_certifies_large_blocks():
    """A 6400-DOF Laplacian is accepted and solved; shifted by -0.5 I it is
    indefinite and rejected, whatever its size."""
    from mpet.solver import _SPDFactor

    t = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(80, 80))
    lap = sps.kronsum(t, t, format="csc")
    b = np.ones(lap.shape[0])
    x = _SPDFactor(lap).solve(b)
    assert np.linalg.norm(lap @ x - b) <= 1e-10 * np.linalg.norm(b)
    with pytest.raises(PreconditionerError, match="not SPD"):
        _SPDFactor(lap - 0.5 * sps.eye(lap.shape[0], format="csc"))


def _bordered_laplacian(shift=0.0, n=50):
    """Neumann 1D Laplacian (PSD, kernel: constants) minus ``shift`` I,
    bordered by the unit kernel; also returns the Laplacian, kernel and scale."""
    lap = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="lil")
    lap[0, 0] = lap[-1, -1] = 1.0
    lap = lap.tocsc()
    k = np.ones(n) / np.sqrt(n)
    scale = abs(lap.diagonal()).mean()
    x = lap - shift * sps.eye(n, format="csc")
    bordered = sps.bmat([[x, k[:, None]], [k[None, :], [[-1.0 / scale]]]], format="csc")
    return bordered, lap, k, scale


def test_spd_factor_accepts_bordered_psd_block_with_its_kernel():
    from mpet.solver import _SPDFactor

    bordered, lap, k, scale = _bordered_laplacian()
    b = np.random.default_rng(0).standard_normal(lap.shape[0])
    x = _SPDFactor(bordered, 1).solve(b)
    expected = np.linalg.solve(lap.toarray() + scale * np.outer(k, k), b)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("shift, border", [(0.5, 1), (0.0, 0), (0.0, 2)],
                         ids=["indefinite", "border-0", "border-2"])
def test_spd_factor_rejects_bordered_block(shift, border):
    """An indefinite X under a correct border, or a wrong border count on an
    SPD complement, changes the negative-pivot count and is rejected."""
    from mpet.solver import _SPDFactor

    bordered, *_ = _bordered_laplacian(shift)
    with pytest.raises(PreconditionerError, match="not SPD"):
        _SPDFactor(bordered, border)


def _all_flux_problem(n_side, ell, n_networks):
    _, _, scaled, system, bcs, con = make_problem(
        n_side=n_side, ell=ell, n_networks=n_networks, pressure_bc="flux"
    )
    return scaled, system, bcs, con


@pytest.mark.parametrize("n_side, ell", [(4, 1), (8, 2)])
@pytest.mark.parametrize("variant", ["schur_reduced", "full_block"])
def test_bordered_preconditioner_matches_dense_augmentation(n_side, ell, variant):
    """With two all-flux networks, prec(r) is the inverse of
    blockdiag(X_1, X_p + s K K^T) with the augmentation formed densely."""
    scaled, system, bcs, con = _all_flux_problem(n_side, ell, 2)
    kernel_vectors = pressure_nullspace(con)
    assert len(kernel_vectors) == 2
    target = condense_velocity(con) if variant == "schur_reduced" else con
    prec = build_preconditioner(target, scaled, kernel_vectors)
    x1, xp = preconditioner_matrices(target, scaled)
    q_free = con.free_in(con.layout.q_fields)
    augmented = dense_kernel_augmentation(xp, [k[q_free] for k in kernel_vectors])
    cut = x1.shape[0]
    r = np.random.default_rng(1).standard_normal(cut + xp.shape[0])
    expected = np.concatenate(
        [spla.spsolve(x1.tocsc(), r[:cut]), np.linalg.solve(augmented, r[cut:])]
    )
    assert np.linalg.norm(prec(r) - expected) <= 1e-10 * np.linalg.norm(expected)


def test_bordered_pressure_block_stays_sparse():
    """At (16,2) with two all-flux networks the bordered pressure block adds
    two border rows and columns, not two dense rank-one terms (3.5M nnz)."""
    scaled, system, bcs, con = _all_flux_problem(16, 2, 2)
    kernel_vectors = pressure_nullspace(con)
    for target in (condense_velocity(con), con):
        _, xp = preconditioner_matrices(target, scaled, kernel_vectors)
        assert xp.nnz < 200_000


def test_xp_and_schur_pressure_blocks_spectrally_equivalent():
    """Generalized eigenvalues of (X_p, X_p_tilde) stay in a bounded interval."""
    bounds = []
    for n_side in (1, 2, 4):
        _, spaces, scaled, system, bcs, con = make_problem(
            n_side=n_side, ell=1, n_networks=1, R=1.0
        )
        condensed = condense_velocity(con)
        xp = preconditioner_matrices(con, scaled)[1].toarray()
        xpt = preconditioner_matrices(condensed, scaled)[1].toarray()
        from scipy.linalg import eigh

        eigs = eigh(xp, xpt, eigvals_only=True)
        bounds.append((eigs.min(), eigs.max()))
    lo = min(b[0] for b in bounds)
    hi = max(b[1] for b in bounds)
    assert lo > 0.05
    assert hi / lo < 50.0


def test_preconditioned_solve_matches_direct():
    for variant in ("schur_reduced", "full_block"):
        _, _, scaled, system, bcs, con = make_problem(
            n_side=2, ell=2, n_networks=2, lam=1e4, R=1e-4, alpha_p=1e-4, xi=1e-4
        )
        x, report, _ = solve(con, scaled, variant, tol=1e-10)
        assert report.converged
        x_direct = np.zeros(system.layout.total)
        x_direct[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
        x_direct[con.constrained] = con.values
        assert np.abs(x - x_direct).max() <= 1e-6 * np.abs(x_direct).max()


def test_solve_rejects_unknown_variant():
    _, _, scaled, _, _, con = make_problem(n_side=1, ell=1)
    with pytest.raises(ValueError, match="unknown preconditioner variant 'bogus'"):
        solve(con, scaled, "bogus")


def test_preconditioner_variant_follows_target_type():
    """A condensed target gets the (u, uhat) elasticity block, a constrained
    one the (u, uhat, w) block of the operator."""
    _, _, scaled, _, _, con = make_problem(n_side=2, ell=1)
    condensed = condense_velocity(con)
    x_red, _ = preconditioner_matrices(condensed, scaled)
    x_full, _ = preconditioner_matrices(con, scaled)
    assert x_red.shape[0] == len(condensed.iu)
    assert x_full.shape[0] == len(condensed.iu) + sum(len(iw) for iw in condensed.iw)


def test_solve_reuse_is_identical():
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=1)
    x1, r1, reuse = solve(con, scaled, tol=1e-9)
    x2, r2, _ = solve(con, scaled, tol=1e-9, reuse=reuse)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations


def test_solve_report_carries_conservation_summary():
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=1, alpha_p=0.2)
    _, report, _ = solve(con, scaled, tol=1e-9)
    assert report.converged
    assert report.conservation is not None
    assert report.conservation <= 1e-8


@pytest.mark.parametrize("n_side, ell", [(2, 1), (4, 1), (8, 1)])
def test_two_all_flux_networks_solve_from_the_constrained_system(n_side, ell):
    """The pressure kernel is read off the constrained DOFs: with two
    all-flux networks the solve takes the bordered path, with no boundary
    data handed to it."""
    scaled, system, _, con = _all_flux_problem(n_side, ell, 2)
    x, report, _ = solve(con, scaled)
    assert report.converged
    layout, kernels = system.layout, system.kernels
    ones, _ = constant_pressure_mode(kernels.spaces)
    for i in range(2):
        mean = float(ones @ (kernels.M_p @ x[layout.sl(f"p{i}")])) / kernels.volume
        assert abs(mean) < 1e-10


@pytest.mark.parametrize("n_networks", [1, 2])
def test_all_neumann_mean_zero_network(n_networks):
    """Pure flux data with no transfer: singular modes handled by projection.

    With two networks the pressure block alone is singular along k1 - k2,
    so the preconditioner needs both kernel vectors."""
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 1, n_networks)
    scaled = scaled_from_direct(1.0, [1.0] * n_networks, [0.0] * n_networks)
    system = build_block_system(assemble_kernels(spaces), scaled)
    manu = default_manufactured(n_networks)
    system.F = assemble_volume_rhs(
        spaces, f=manu.body_force(scaled), g=manu.mass_sources(scaled)
    )
    bcs = homogeneous_bcs(n_networks)
    con = apply_boundary_conditions(system, bcs)
    x, report, _ = solve(con, scaled, tol=1e-9)
    assert report.converged
    layout = system.layout
    ones = spaces.interpolate_p(lambda xx: 1.0)
    kernels = system.kernels
    for i in range(n_networks):
        mean = float(ones @ (kernels.M_p @ x[layout.sl(f"p{i}")])) / kernels.volume
        assert abs(mean) < 1e-10

    # oracle: least-squares solution of the singular system, mean-corrected
    K = con.K_ff.toarray()
    x_ls, *_ = np.linalg.lstsq(K, con.rhs(), rcond=None)
    x_ls_full = con.expand(x_ls)
    from mpet.assembly import mean_correct

    x_ls_full = mean_correct(x_ls_full, system, range(n_networks))
    assert np.abs(x - x_ls_full).max() < 1e-6 * (1 + np.abs(x_ls_full).max())
