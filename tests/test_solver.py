import itertools

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import mpet.solver
from mpet.assembly import (
    BoundaryConditionSet,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_volume_rhs,
    build_block_system,
    constant_pressure_mode,
    homogeneous_bcs,
)
from mpet.cli import _sweep_parameters
from mpet.manufactured import default_manufactured
from mpet.mesh import Mesh, generate_unit_square
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
from mpet.timeloop import TimeStepper, brain_analog_scenario
from oracles import dense_kernel_augmentation, free_positions, reference_band_plan


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
    pos = {d: k for k, d in enumerate(con.free)}
    iu = [pos[d] for d in np.concatenate([layout.indices("u"), layout.indices("uhat")]) if d in pos]
    iw = [pos[d] for d in layout.indices("w0") if d in pos]
    iq = [
        pos[d]
        for d in np.concatenate([layout.indices("p0"), layout.indices("phat0")])
        if d in pos
    ]
    Auu = K[np.ix_(iu, iu)]
    G = K[np.ix_(iq, iu)]
    Mw = K[np.ix_(iw, iw)]
    B = K[np.ix_(iw, iq)]
    Cq = K[np.ix_(iq, iq)]
    expected = np.block([[Auu, G.T], [G, Cq - B.T @ np.linalg.inv(Mw) @ B]])
    assert np.allclose(condensed.K_red.toarray(), expected, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_flux_elimination_kernels_match_dense_oracle(ell):
    """``M_w_inv`` inverts ``M_w`` and ``S_w`` is the dense ``B M_w^-1 B^T``."""
    kernels = assemble_kernels(SpaceSet(generate_unit_square(2), ell, 1))
    M_w = kernels.M_w.toarray()
    identity = np.eye(M_w.shape[0])
    assert np.abs(kernels.M_w_inv.toarray() @ M_w - identity).max() <= 1e-12
    B = np.vstack([-kernels.Dw.toarray(), kernels.Ew.toarray()])
    expected = B @ np.linalg.solve(M_w, B.T)
    assert np.abs(kernels.S_w.toarray() - expected).max() <= 1e-12 * np.abs(expected).max()


def test_condensed_solve_matches_unreduced():
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=2, n_networks=2,
                                                  alpha_p=0.3, xi=0.1)
    x_direct = np.zeros(system.layout.total)
    x_direct[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
    x_direct[con.constrained] = con.values

    condensed = condense_velocity(con)
    rhs_red = condensed.rhs(con.rhs())
    x_red = spla.spsolve(condensed.K_red.tocsc(), rhs_red)
    x_full = con.expand(condensed.expand(x_red, con.rhs()))
    scale = np.abs(x_direct).max()
    assert np.abs(x_full - x_direct).max() <= 1e-10 * scale


def test_condensed_network_blocks_identical_for_equal_R():
    _, spaces, scaled, system, bcs, con = make_problem(n_side=1, ell=1, n_networks=2, R=0.7)
    condensed = condense_velocity(con)
    # the q block of K_red; alpha_p = xi = 0, so its p blocks are the flux Schur complements
    n_u = len(free_positions(con, ["u", "uhat"]))
    s = condensed.K_red.toarray()[n_u:, n_u:]
    np_free = spaces.size_p  # all volume pressures are free
    b0 = s[:np_free, :np_free]
    b1 = s[np_free : 2 * np_free, np_free : 2 * np_free]
    assert np.allclose(b0, b1, atol=1e-13 * np.abs(b0).max())
    S_pp = system.kernels.S_w.toarray()[:np_free, :np_free]
    assert np.allclose(b0, -0.7 * S_pp, atol=1e-13 * np.abs(b0).max())


# ----------------------------------------------------------------------
# preconditioners
# ----------------------------------------------------------------------


def test_both_variants_spd_at_hard_corner():
    """Factorization succeeds at the hardest sweep corner R -> 0, alpha_p = xi = 0."""
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=1, n_networks=2, R=1e-8)
    condensed = condense_velocity(con)
    build_preconditioner(condensed)
    build_preconditioner(con)


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
        build_preconditioner(condensed)


@pytest.mark.parametrize(
    "mat",
    [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
    ids=["indefinite", "singular-psd", "zero-diagonal"],
)
def test_spd_factor_rejects_small_non_spd_blocks(mat):
    """The block is rejected by the condensed factor, whose plan fits with
    either row local, and by ``splu``."""
    mat = sps.csr_matrix(np.array(mat))
    for local in (slice(0, 1), slice(1, 2)):
        plan = mpet.solver._BandPlan(mat, local)
        assert plan.fits
        with pytest.raises(PreconditionerError, match="not SPD"):
            mpet.solver._SPDFactor(mat, plan=plan)
    with pytest.raises(PreconditionerError, match="not SPD"):
        mpet.solver._SPDFactor(mat)


def test_spd_factor_certifies_large_blocks():
    """A 110 x 110 2D Laplacian, given without a plan, is certified by
    ``splu``: it is accepted and solved, and shifted by -0.5 I it is
    indefinite and rejected."""
    t = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(110, 110))
    lap = sps.kronsum(t, t, format="csc")
    b = np.ones(lap.shape[0])
    factor = mpet.solver._SPDFactor(lap)
    assert factor.path == "splu"
    x = factor.solve(b)
    assert np.linalg.norm(lap @ x - b) <= 1e-10 * np.linalg.norm(b)
    with pytest.raises(PreconditionerError, match="not SPD"):
        mpet.solver._SPDFactor(lap - 0.5 * sps.eye(lap.shape[0], format="csc"))


def _blocks_and_local_rows(target):
    """The two preconditioner blocks of ``target`` with the slices of
    their rows that the preconditioner condenses."""
    _, structure = mpet.solver._preconditioner_structure(target)
    return list(zip(preconditioner_matrices(target), structure.local))


@pytest.fixture(scope="module")
def brain_blocks():
    """The ``schur_reduced`` blocks of the 4-network brain annulus, with
    their local rows."""
    stepper = TimeStepper(brain_analog_scenario())
    assert not stepper.constrained.structure.kernel
    return _blocks_and_local_rows(condense_velocity(stepper.constrained))


def _manufactured_problem(n_side, ell):
    """The constrained system of the ``manufactured`` benchmark's
    parameters (full Lambda) on the n x n unit square."""
    return make_problem(n_side=n_side, ell=ell, alpha_p=1.0, xi=1.0, rhs=False)[-1]


def test_brain_blocks_take_the_band_and_large_blocks_splu():
    """Both brain blocks are condensed, and so are both blocks at (16,2)
    and (32,1), whose Schur complements' bands (at most 8.9 MiB) fit the
    budget; at (16,3) ``X_p`` is condensed and ``X_u`` (a 24 MiB band)
    takes SuperLU."""
    stepper = TimeStepper(brain_analog_scenario())
    prec = build_preconditioner(condense_velocity(stepper.constrained))
    assert (prec.f1.path, prec.f2.path) == ("condensed", "condensed")
    for (n_side, ell), paths in (((16, 2), ("condensed", "condensed")), ((32, 1), ("condensed", "condensed")),
                                 ((16, 3), ("splu", "condensed"))):
        prec = build_preconditioner(condense_velocity(_manufactured_problem(n_side, ell)))
        assert (prec.f1.path, prec.f2.path) == paths


def test_band_permutations_are_intp(brain_blocks):
    """A banded block gathers the residual through ``perm`` and ``inv`` on
    every apply; as ``intp`` arrays they need no cast first."""
    for x, local in brain_blocks:
        plan = mpet.solver._BandPlan(x, local)
        assert plan.perm.dtype == plan.inv.dtype == np.intp


def _planned_blocks():
    """The brain's ``schur_reduced`` blocks, the 8x8 unit square's at ell
    1-3 in both variants and the (16,2) ``schur_reduced`` blocks, each with
    its local rows."""
    yield from _blocks_and_local_rows(condense_velocity(TimeStepper(brain_analog_scenario()).constrained))
    for ell, variant in itertools.product((1, 2, 3), ("schur_reduced", "full_block")):
        con = _manufactured_problem(8, ell)
        yield from _blocks_and_local_rows(condense_velocity(con) if variant == "schur_reduced" else con)
    yield from _blocks_and_local_rows(condense_velocity(_manufactured_problem(16, 2)))


def test_band_plan_equals_its_reference():
    """A fitting plan equals the reference plan, which makes full passes
    over the block's entries and records its CSR patterns through scipy:
    ``perm``, ``inv``, ``w``, ``size``, ``pos`` and ``groups`` in value and
    dtype, and ``stacked`` and ``take`` as the transpose of the reference's
    ``[X_ll^-1, X_ll^-1 X_lk]``, ``take`` in int32; the transpose of
    ``stacked``'s rows from ``n_l`` on is the reference's ``X_ll^-1 X_lk``."""
    planned = 0
    for mat, local in _planned_blocks():
        plan, ref = mpet.solver._BandPlan(mat, local), reference_band_plan(mat, local)
        assert plan.fits
        for a, b in ((plan.perm, ref.perm), (plan.inv, ref.inv), (plan.pos, ref.pos)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (plan.w, plan.size) == (ref.w, ref.size)
        assert len(plan.groups) == len(ref.groups)
        for group, expected in zip(plan.groups, ref.groups):
            assert group[:3] == expected[:3]
            for a, b in zip(group[3] + group[4], expected[3] + expected[4]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        n_l, n_s = local.stop - local.start, len(plan.perm)
        stacked = sps.csr_matrix((ref.take, *ref.stacked), shape=(n_l, n_l + n_s)).T.tocsr()
        assert plan.take.dtype == np.int32
        for a, b in zip((plan.take, *plan.stacked), (stacked.data, stacked.indices, stacked.indptr)):
            assert np.array_equal(a, b)
        coupling = sps.csr_matrix((plan.take, *plan.stacked), shape=(n_l + n_s, n_l))[n_l:].T.tocsr()
        assert np.array_equal(coupling.indices, ref.coupling[0]) and np.array_equal(coupling.indptr, ref.coupling[1])
        assert np.array_equal(coupling.data, ref.take[ref.take_coupling])
        planned += 1
    assert planned == 16


# Relative 2-norm distance to the dense solve.  The brain's X_u is
# conditioned at about 5e5, which keeps any two exact solves about 1e-11
# apart (at seed 0: 1.6e-11 condensed, 9.2e-12 splu); X_p's are within
# 6e-16.
@pytest.mark.parametrize("block, rtol", [(0, 1e-10), (1, 1e-12)], ids=["X_u", "X_p"])
def test_both_factorizations_match_a_dense_solve(brain_blocks, block, rtol):
    mat, local = brain_blocks[block]
    r = np.random.default_rng(0).standard_normal(mat.shape[0])
    dense = np.linalg.solve(mat.toarray(), r)
    factors = mpet.solver._SPDFactor(mat, plan=mpet.solver._BandPlan(mat, local)), mpet.solver._SPDFactor(mat)
    for factor, path in zip(factors, ("condensed", "splu")):
        assert factor.path == path
        assert np.linalg.norm(factor.solve(r) - dense) <= rtol * np.linalg.norm(dense)


# The same on the unit-square blocks whose Schur complement is banded, at
# ell 1-3 in both variants.  Largest distance at seed 0: 1.3e-13 (X_u) and
# 1.5e-14 (X_p).
@pytest.mark.parametrize("n_side, ell", [(8, 1), (8, 2), (4, 3)])
@pytest.mark.parametrize("variant", ["schur_reduced", "full_block"])
def test_condensed_factors_of_the_unit_square_match_a_dense_solve(n_side, ell, variant, monkeypatch):
    con = _manufactured_problem(n_side, ell)
    target = condense_velocity(con) if variant == "schur_reduced" else con
    for (mat, local), rtol in zip(_blocks_and_local_rows(target), (1e-11, 1e-12)):
        r = np.random.default_rng(0).standard_normal(mat.shape[0])
        dense = np.linalg.solve(mat.toarray(), r)
        factor = mpet.solver._SPDFactor(mat, plan=mpet.solver._BandPlan(mat, local))
        assert factor.path == "condensed"
        assert np.linalg.norm(factor.solve(r) - dense) <= rtol * np.linalg.norm(dense)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_blocks_without_local_or_kept_rows_take_splu(ell):
    """On one triangle, all three facets on the boundary, ``schur_reduced``'s
    ``X_u`` has no local rows (no free ``uhat``), and with Dirichlet
    pressures ``X_p`` has local rows only (no free ``phat``).  At ell 1 no
    displacement DOF is free at all: ``schur_reduced``'s ``X_u`` is empty
    and ``full_block``'s holds the fluxes alone.  Such a block takes
    SuperLU, and every solve converges."""
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    mesh.tag_boundary(lambda x: True, "boundary")
    kernels = assemble_kernels(SpaceSet(mesh, ell, 2))
    scaled = scaled_from_direct(1.0, [1.0, 1.0], [1.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    full = "condensed" if ell > 1 else "splu"
    paths = {("dirichlet", "schur_reduced"): ("splu", "splu"), ("dirichlet", "full_block"): (full, "splu"),
             ("flux", "schur_reduced"): ("splu", "condensed"), ("flux", "full_block"): (full, "condensed")}
    for (pressure, variant), expected in paths.items():
        system = build_block_system(kernels, scaled)
        system.F = np.random.default_rng(0).standard_normal(system.F.shape)
        con = apply_boundary_conditions(system, homogeneous_bcs(2, pressure=pressure))
        _, report, (_, prec) = solve(con, variant)
        assert report.converged
        assert (prec.f1.path, prec.f2.path) == expected


def _condensed_factor(rows):
    """The factor of the dense matrix ``rows`` with its rows 1.. local."""
    mat = sps.csr_matrix(np.array(rows))
    return mpet.solver._SPDFactor(mat, plan=mpet.solver._BandPlan(mat, slice(1, mat.shape[0])))


def test_condensed_factor_certifies_both_halves():
    """The condensed factor accepts an SPD block and solves it; it rejects
    a block whose local block is indefinite, and one whose local blocks
    are SPD but whose Schur complement is not."""
    spd = [[4.0, 1.0, 1.0], [1.0, 2.0, 0.0], [1.0, 0.0, 3.0]]
    factor = _condensed_factor(spd)
    assert factor.path == "condensed"
    b = np.array([1.0, -2.0, 0.5])
    assert np.allclose(np.array(spd) @ factor.solve(b), b, rtol=0, atol=1e-14)
    indefinite_local = [[4.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
    indefinite_schur = [[0.5, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for rows in (indefinite_local, indefinite_schur):
        with pytest.raises(PreconditionerError, match="not SPD"):
            _condensed_factor(rows)


def test_condensation_is_planned_once_per_pattern(monkeypatch):
    """Four sweep cells on one constrained structure factor both blocks
    each, but order each pattern's Schur complement once: one ``X_u`` for
    all four, since it does not depend on Lambda, and one ``X_p`` per
    pattern of Lambda, diagonal at (i 0, lambda 1) and full elsewhere."""
    calls = []
    rcm = mpet.solver.reverse_cuthill_mckee
    monkeypatch.setattr(mpet.solver, "reverse_cuthill_mckee", lambda *a, **k: calls.append(1) or rcm(*a, **k))
    kernels = assemble_kernels(SpaceSet(generate_unit_square(4), 2, 2))
    bcs = homogeneous_bcs(2, pressure="dirichlet")
    for i, lam in ((2, 1.0), (2, 1e4), (0, 1.0), (0, 1e4)):
        system = build_block_system(kernels, _sweep_parameters(i, lam, False))
        prec = build_preconditioner(condense_velocity(apply_boundary_conditions(system, bcs)))
        assert (prec.f1.path, prec.f2.path) == ("condensed", "condensed")
    assert len(calls) == 3


def _neumann_laplacian(shift=0.0, n=50):
    """Neumann 1D Laplacian (PSD, kernel: constants) minus ``shift`` I, and
    its kernel vector."""
    lap = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="lil")
    lap[0, 0] = lap[-1, -1] = 1.0
    return lap.tocsc() - shift * sps.eye(n, format="csc"), np.ones(n)


def test_spd_factor_accepts_bordered_psd_block_with_its_kernel():
    lap, k = _neumann_laplacian()
    b = np.random.default_rng(0).standard_normal(lap.shape[0])
    x = mpet.solver._SPDFactor(lap, [k]).solve(b)
    expected = np.linalg.solve(dense_kernel_augmentation(lap, [k]), b)
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()


def test_spd_factor_with_a_zero_corner_solves_the_constrained_system():
    """With ``corner=0.0`` the factor solves ``[[X, K], [K^T, 0]]``: ``x``
    is orthogonal to the kernel and ``X x - b`` lies in its span."""
    lap, k = _neumann_laplacian()
    n = lap.shape[0]
    b = np.random.default_rng(0).standard_normal(n)
    x = mpet.solver._SPDFactor(lap, [k], corner=0.0).solve(b)
    saddle = np.block([[lap.toarray(), k[:, None]], [k[None, :], np.zeros((1, 1))]])
    expected = np.linalg.solve(saddle, np.concatenate([b, [0.0]]))[:n]
    assert np.abs(x - expected).max() <= 1e-10 * np.abs(expected).max()
    assert abs(k @ x) <= 1e-12 * np.linalg.norm(k) * np.linalg.norm(x)


@pytest.mark.parametrize("corner", [-1.0, 0.0], ids=["indefinite", "indefinite-zero-corner"])
def test_spd_factor_rejects_bordered_block(corner):
    """A block that is indefinite on the complement of its kernel changes
    the negative-pivot count and is rejected, whatever the corner."""
    lap, k = _neumann_laplacian(shift=0.5)
    with pytest.raises(PreconditionerError, match="not SPD"):
        mpet.solver._SPDFactor(lap, [k], corner=corner)


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
    kernel_vectors = con.structure.kernel
    assert len(kernel_vectors) == 2
    target = condense_velocity(con) if variant == "schur_reduced" else con
    prec = build_preconditioner(target)
    x1, xp = preconditioner_matrices(target)
    augmented = dense_kernel_augmentation(xp, kernel_vectors)
    cut = x1.shape[0]
    r = np.random.default_rng(1).standard_normal(cut + xp.shape[0])
    expected = np.concatenate(
        [spla.spsolve(x1.tocsc(), r[:cut]), np.linalg.solve(augmented, r[cut:])]
    )
    assert np.linalg.norm(prec(r) - expected) <= 1e-10 * np.linalg.norm(expected)


def test_bordered_pressure_block_stays_sparse():
    """At (16,2) with two all-flux networks the kernel enters the pressure
    block's sparse factor as a border, not as two dense rank-one terms
    (3.5M entries): its ``L.nnz + U.nnz`` is 303,798 for ``schur_reduced``
    and 201,314 for ``full_block``."""
    scaled, system, bcs, con = _all_flux_problem(16, 2, 2)
    for target, fill in ((condense_velocity(con), 310_000), (con, 205_000)):
        lu = build_preconditioner(target).f2._lu
        assert lu.L.nnz + lu.U.nnz < fill


def test_xp_and_schur_pressure_blocks_spectrally_equivalent():
    """Generalized eigenvalues of (X_p, X_p_tilde) stay in a bounded interval."""
    bounds = []
    for n_side in (1, 2, 4):
        _, spaces, scaled, system, bcs, con = make_problem(
            n_side=n_side, ell=1, n_networks=1, R=1.0
        )
        condensed = condense_velocity(con)
        xp = preconditioner_matrices(con)[1].toarray()
        xpt = preconditioner_matrices(condensed)[1].toarray()
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
        x, report, _ = solve(con, variant, tol=1e-10)
        assert report.converged
        x_direct = np.zeros(system.layout.total)
        x_direct[con.free] = spla.spsolve(con.K_ff.tocsc(), con.rhs())
        x_direct[con.constrained] = con.values
        assert np.abs(x - x_direct).max() <= 1e-6 * np.abs(x_direct).max()


def test_solve_rejects_unknown_variant():
    _, _, scaled, _, _, con = make_problem(n_side=1, ell=1)
    with pytest.raises(ValueError, match="unknown preconditioner variant 'bogus'"):
        solve(con, "bogus")


def test_preconditioner_variant_follows_target_type():
    """A condensed target gets the (u, uhat) elasticity block, a constrained
    one the (u, uhat, w) block of the operator."""
    _, _, scaled, _, _, con = make_problem(n_side=2, ell=1)
    condensed = condense_velocity(con)
    x_red, _ = preconditioner_matrices(condensed)
    x_full, _ = preconditioner_matrices(con)
    assert x_red.shape[0] == len(free_positions(con, ["u", "uhat"]))
    assert x_full.shape[0] == len(free_positions(con, con.layout.v_fields))


def test_solve_reuse_is_identical():
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=1)
    x1, r1, reuse = solve(con, tol=1e-9)
    x2, r2, _ = solve(con, tol=1e-9, reuse=reuse)
    assert np.array_equal(x1, x2)
    assert r1.iterations == r2.iterations


def test_solve_report_carries_conservation_summary():
    _, _, scaled, system, bcs, con = make_problem(n_side=2, ell=1, alpha_p=0.2)
    _, report, _ = solve(con, tol=1e-9)
    assert report.converged
    assert report.conservation is not None
    assert report.conservation <= 1e-8


def _both_variants(*cases):
    """Each case under ``schur_reduced`` with the case's own id, then under
    ``full_block`` with that id suffixed."""
    return [
        pytest.param(*case, variant, id="-".join(map(str, case)) + suffix)
        for variant, suffix in (("schur_reduced", ""), ("full_block", "-full_block"))
        for case in cases
    ]


@pytest.mark.parametrize("n_side, ell, variant", _both_variants((2, 1), (4, 1), (8, 1)))
def test_two_all_flux_networks_solve_from_the_constrained_system(n_side, ell, variant):
    """The pressure kernel is read off the constrained DOFs: with two
    all-flux networks the solve takes the bordered path, with no boundary
    data handed to it."""
    scaled, system, _, con = _all_flux_problem(n_side, ell, 2)
    x, report, _ = solve(con, variant)
    assert report.converged
    layout, kernels = system.layout, system.kernels
    for i in range(2):
        p = layout.sl(f"p{i}")
        ones = constant_pressure_mode(kernels.spaces, i)[p]
        mean = float(ones @ (kernels.M_p @ x[p])) / kernels.volume
        assert abs(mean) < 1e-10


@pytest.mark.parametrize("n_networks, variant", _both_variants((1,), (2,)))
def test_all_neumann_mean_zero_network(n_networks, variant):
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
    x, report, _ = solve(con, variant, tol=1e-9)
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
