import numpy as np
import pytest
import scipy.sparse as sps
import sympy as sp

from mpet.assembly import (
    BoundaryConditionSet,
    DofLayout,
    EssentialMap,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_traction_rhs,
    assemble_volume_rhs,
    build_block_system,
    homogeneous_bcs,
    _scatter,
)
from mpet.manufactured import default_manufactured
from mpet.mesh import Mesh, generate_annulus, generate_unit_square
from mpet.params import scaled_from_direct
from mpet.spaces import SpaceSet, segment_quadrature

from oracles import (
    ManufacturedSolution,
    concatenated_scatter,
    oracle_blocks,
    oracle_full_matrix,
    symmetry_defect,
)


def reference_element_mesh():
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    mesh.tag_boundary(lambda x: True, "boundary")
    return mesh


def rel_err(a, b):
    a = np.asarray(a.todense()) if sps.issparse(a) else np.asarray(a)
    scale = max(np.abs(b).max(), 1e-300)
    return np.abs(a - b).max() / scale


def default_scaled(n=2, lam=1.0, R=1.0, alpha_p=0.0, xi=0.0):
    xi_mat = np.full((n, n), xi)
    np.fill_diagonal(xi_mat, 0.0)
    return scaled_from_direct(lam, [R] * n, [alpha_p] * n, xi_mat)


# ----------------------------------------------------------------------
# oracle equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ell", [1, 2])
def test_reference_element_a_hdg_matches_oracle(ell):
    mesh = reference_element_mesh()
    spaces = SpaceSet(mesh, ell, 1)
    produced = assemble_kernels(spaces, eta=10.0).a_hdg
    expected = oracle_blocks(mesh, spaces, eta=10.0)["a_hdg"]
    assert rel_err(produced, expected) <= 1e-12


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_two_element_kernels_match_oracle(ell):
    mesh = generate_unit_square(1)
    spaces = SpaceSet(mesh, ell, 1)
    kernels = assemble_kernels(spaces, eta=10.0)
    expected = oracle_blocks(mesh, spaces, eta=10.0)
    assert rel_err(kernels.a_hdg, expected["a_hdg"]) <= 1e-12
    assert rel_err(kernels.divdiv, expected["divdiv"]) <= 1e-12
    assert rel_err(kernels.D, expected["D"]) <= 1e-12
    assert rel_err(kernels.Dw, expected["Dw"]) <= 1e-12
    assert rel_err(kernels.Ew, expected["Ew"]) <= 1e-12
    assert rel_err(kernels.M_w, expected["M_w"]) <= 1e-12
    assert rel_err(kernels.M_p, expected["M_p"]) <= 1e-12


def sheared_mesh():
    """Two triangles of a unit square rotated by 0.37 rad and sheared, so
    that no Jacobian entry vanishes, no determinant is 1 and facets run
    against their local edges."""
    c, s = np.cos(0.37), np.sin(0.37)
    square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    vertices = square @ (np.array([[c, -s], [s, c]]) @ np.array([[1.0, 0.6], [0.0, 1.3]])).T
    mesh = Mesh(vertices + (0.2, -0.1), [(0, 1, 2), (0, 2, 3)])
    mesh.tag_boundary(lambda x: True, "boundary")
    return mesh


GENERAL_MESHES = {"sheared": sheared_mesh, "annulus": lambda: generate_annulus(1.0, 2.0, 1, 5)}


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("mesh_kind", ["sheared", "annulus"])
def test_kernels_match_oracle_on_general_meshes(mesh_kind, ell):
    """Every kernel against the dense oracles on affine meshes whose
    Jacobians have no zero entry and whose facet directions follow no
    one pattern; ``divdiv``, ``M_w`` and ``M_p`` are exactly symmetric,
    ``a_hdg`` and ``S_w`` to rounding."""
    mesh = GENERAL_MESHES[mesh_kind]()
    spaces = SpaceSet(mesh, ell, 1)
    kernels = assemble_kernels(spaces, eta=10.0)
    expected = oracle_blocks(mesh, spaces, eta=10.0)
    for name in expected:
        assert rel_err(getattr(kernels, name), expected[name]) <= 1e-12, name
    for name in ("divdiv", "M_w", "M_p"):
        assert symmetry_defect(getattr(kernels, name)) == 0.0, name
    assert max(symmetry_defect(kernels.a_hdg), symmetry_defect(kernels.S_w)) <= 1e-14


@pytest.mark.parametrize("include_h2", [True, False])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_norm_matrices_match_oracle(ell, include_h2):
    """The displacement norm, which always has its h^2 term, and the
    pressure norm with and without it."""
    from mpet.assembly import displacement_hdg_factors, pressure_hdg_factors
    from oracles import oracle_displacement_hdg_norm, oracle_pressure_hdg_norm

    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, ell, 1)
    if include_h2:
        assert rel_err(
            displacement_hdg_factors(spaces).matrix(),
            oracle_displacement_hdg_norm(mesh, spaces, include_h2=True),
        ) <= 1e-12
    assert rel_err(
        pressure_hdg_factors(spaces, include_h2=include_h2).matrix(),
        oracle_pressure_hdg_norm(mesh, spaces, include_h2=include_h2),
    ) <= 1e-12


def _norm_factors(spaces, norm, include_h2):
    from mpet.assembly import displacement_hdg_factors, divdiv_factors, pressure_hdg_factors

    if norm == "divdiv":
        return divdiv_factors(spaces)
    if norm == "u_hdg":
        return displacement_hdg_factors(spaces)
    return pressure_hdg_factors(spaces, include_h2)


@pytest.mark.parametrize(
    "norm, include_h2",
    [("u_hdg", True), ("p_hdg", True), ("p_hdg", False), ("divdiv", False)],
)
@pytest.mark.parametrize("mesh_kind, ell", [("square", 1), ("square", 2), ("square", 3), ("annulus", 1)])
def test_norm_factor_chunks_match_whole_mesh(monkeypatch, mesh_kind, ell, norm, include_h2):
    """Reduced over chunks of 5 elements, which divide neither element count
    (18 and 28), a norm matrix is bitwise the one scattered from the
    whole-mesh factors, and its squared norms agree to rounding."""
    import mpet.assembly
    from oracles import whole_mesh_norm2, whole_mesh_norm_factors, whole_mesh_norm_matrix

    mesh = generate_unit_square(3) if mesh_kind == "square" else generate_annulus(1.0, 2.0, 2, 7)
    spaces = SpaceSet(mesh, ell, 1)
    factors = _norm_factors(spaces, norm, include_h2)
    monkeypatch.setattr(mpet.assembly, "_CHUNK_BYTES", 5 * factors.element_bytes)
    assert [len(c) for c in factors._chunks()][:2] == [5, 5] and mesh.n_elements % 5

    size, terms = whole_mesh_norm_factors(spaces, norm, include_h2)
    got, want = factors.matrix(), whole_mesh_norm_matrix(size, terms)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    X = np.random.default_rng(ell).normal(size=(size, 3))
    expected = [whole_mesh_norm2(terms, x) for x in X.T]
    assert np.allclose(factors.norm2(X), expected, rtol=1e-14, atol=0.0)
    assert isinstance(factors.norm2(X[:, 0]), float)
    assert np.isclose(factors.norm2(X[:, 0]), expected[0], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "norm, include_h2",
    [("u_hdg", True), ("p_hdg", True), ("p_hdg", False), ("divdiv", False)],
)
@pytest.mark.parametrize("mesh_kind", ["square", "annulus"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_field_norm_matches_the_quadratic_form_of_the_matrix(monkeypatch, mesh_kind, ell, norm,
                                                             include_h2):
    """``norm2`` maps each column's field, ``matrix`` every basis function,
    from one description of the terms: per column of a random (size, 3)
    block, reduced over chunks of 5 elements, the field's squared norm is
    ``x^T N x`` with ``N = matrix()``."""
    import mpet.assembly

    mesh = generate_unit_square(3) if mesh_kind == "square" else generate_annulus(1.0, 2.0, 2, 7)
    spaces = SpaceSet(mesh, ell, 1)
    factors = _norm_factors(spaces, norm, include_h2)
    N = factors.matrix()
    monkeypatch.setattr(mpet.assembly, "_FIELD_BYTES", 5 * 3 * factors.field_bytes)
    assert [len(c) for c in factors._chunks(3)][:2] == [5, 5]

    X = np.random.default_rng(ell).normal(size=(factors.size, 3))
    expected = [float(x @ (N @ x)) for x in X.T]
    assert np.allclose(factors.norm2(X), expected, rtol=1e-12, atol=0.0)


def test_full_matrix_matches_oracle_composition():
    mesh = generate_unit_square(1)
    spaces = SpaceSet(mesh, 1, 2)
    scaled = default_scaled(n=2, lam=3.0, R=0.5, alpha_p=0.25, xi=0.1)
    system = build_block_system(assemble_kernels(spaces), scaled)
    expected = oracle_full_matrix(mesh, spaces, scaled)
    assert rel_err(system.K, expected) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scatter_matches_the_concatenated_scatter(seed):
    """Terms of several block shapes, some of them transposed views and
    int32 indices, hit repeated (row, col) pairs within and across
    elements and terms: the sums are bitwise those of the concatenation."""
    rng = np.random.default_rng(seed)
    shape = (23, 31)
    terms = []
    for ni, nj, dtype in ((3, 3, int), (4, 2, np.int32), (1, 5, int), (6, 6, np.intp)):
        e = int(rng.integers(1, 40))
        rows = rng.integers(0, shape[0], size=(e, ni)).astype(dtype)
        cols = rng.integers(0, shape[1], size=(e, nj)).astype(dtype)
        blocks = rng.standard_normal((e, nj, ni)).swapaxes(1, 2)   # a strided view
        terms.append((rows, cols, np.ascontiguousarray(blocks) if ni == nj else blocks))
    got, want = _scatter(shape, *terms), concatenated_scatter(shape, *terms)
    assert want.nnz < sum(b.size for _, _, b in terms)   # repeated pairs were summed
    assert got.shape == want.shape and got.indices.dtype == want.indices.dtype == np.int32
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_scatter_memory_per_entry(monkeypatch):
    """The ``tracemalloc`` peak of scattering the ``a_hdg`` terms at (16,3),
    1,089,536 COO entries, per entry: 32.7 bytes for the int32 triplet and
    the CSR matrix, against 64.8 for concatenated int64 copies that scipy
    then cast."""
    import tracemalloc

    spaces = SpaceSet(generate_unit_square(16), 3, 2)
    size = spaces.size_u + spaces.size_uhat
    calls = []
    recording = lambda shape, *terms: calls.append((shape, terms)) or _scatter(shape, *terms)
    monkeypatch.setattr("mpet.assembly._scatter", recording)
    assemble_kernels(spaces)
    [terms] = [terms for shape, terms in calls if shape == (size, size)]
    entries = sum(b.size for _, _, b in terms)
    tracemalloc.start()
    try:
        _scatter((size, size), *terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / entries <= 40.0, peak / entries


def test_kernel_build_memory():
    """The ``tracemalloc`` peak of ``assemble_kernels`` at (16,3), per byte
    of the kernels it returns (13.1 MiB): 2.1 with element blocks
    contracted from reference tensors, one ``a_hdg`` block per element,
    against 3.8 when the Grams were products of mapped bases, each freed
    once its Grams existed, and 5.9 when every mapped basis lived until
    the scatters."""
    import tracemalloc

    spaces = SpaceSet(generate_unit_square(16), 3, 2)
    assemble_kernels(spaces)   # the space set's own cached reference data
    tracemalloc.start()
    try:
        kernels = assemble_kernels(spaces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrices = [getattr(kernels, name) for name in
                ("a_hdg", "divdiv", "D", "Dw", "Ew", "M_w", "M_w_inv", "S_w", "M_p")]
    size = kernels.p_mass_inv.nbytes + sum(
        a.nbytes for m in matrices for a in (m.data, m.indices, m.indptr))
    assert peak / size <= 2.5, peak / size


# ----------------------------------------------------------------------
# structural properties
# ----------------------------------------------------------------------


def test_rigid_motions_in_a_hdg_kernel():
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 2, 1)
    a = assemble_kernels(spaces).a_hdg
    for motion in (
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([0.3, -0.7]),
        lambda x: np.array([-x[1], x[0]]),
    ):
        coeffs = np.concatenate(
            [spaces.interpolate_u(motion), spaces.interpolate_uhat(motion)]
        )
        energy = float(coeffs @ (a @ coeffs))
        assert abs(energy) < 1e-10 * (1 + abs(a).max())


def test_a_hdg_positive_beyond_rigid_modes():
    mesh = generate_unit_square(1)
    spaces = SpaceSet(mesh, 1, 1)
    a = assemble_kernels(spaces, eta=10.0).a_hdg.toarray()
    eigs = np.sort(np.linalg.eigvalsh(a))
    assert np.all(np.abs(eigs[:3]) < 1e-11)
    assert eigs[3] > 1e-8


def test_penalty_must_be_positive():
    mesh = generate_unit_square(1)
    spaces = SpaceSet(mesh, 1, 1)
    with pytest.raises(ValueError, match="eta"):
        assemble_kernels(spaces, eta=0.0)


def test_divergence_free_rotation_has_zero_divdiv_energy():
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 1, 1)
    divdiv = assemble_kernels(spaces).divdiv
    coeffs = spaces.interpolate_u(lambda x: np.array([-x[1], x[0]]))
    assert abs(coeffs @ (divdiv @ coeffs)) < 1e-12


def test_coupling_row_sum_zero_for_constant_pressure():
    """(1, div v) = 0 for v with zero normal trace on the domain boundary."""
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 1, 1)
    kernels = assemble_kernels(spaces)
    ones = np.zeros(spaces.size_p)
    for t in range(mesh.n_elements):
        ones[spaces.p_dofs(t)[0]] = 1.0
    row = ones @ kernels.D  # integral of div(psi_u) for each u dof
    # zero it on boundary-facet normal DOFs, which carry the flux
    interior_mask = np.ones(spaces.size_u, dtype=bool)
    for f in mesh.boundary_facets:
        interior_mask[f * spaces.n_u_edge : (f + 1) * spaces.n_u_edge] = False
    assert np.abs(row[interior_mask]).max() < 1e-12


def test_flow_facet_terms_cancel_for_continuous_flux():
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 2, 1)
    kernels = assemble_kernels(spaces)
    w = spaces.interpolate_w(lambda x: np.array([x[0] ** 2 + x[1], 1.0 - x[0] * x[1]]))
    paired = kernels.Ew @ w
    for f in mesh.interior_facets:
        rows = spaces.phat_dofs(f)
        assert np.abs(paired[rows]).max() < 1e-11


def test_flow_c_block_diagonal_without_transfer():
    mesh = generate_unit_square(1)
    spaces = SpaceSet(mesh, 1, 2)
    scaled = default_scaled(n=2, alpha_p=0.7, xi=0.0)
    kernels = assemble_kernels(spaces)
    system = build_block_system(kernels, scaled)
    size_v = system.layout.size_v
    A, C = system.K[:size_v, :size_v], -system.K[size_v:, size_v:]
    n_p = 2 * spaces.size_p
    expected = sps.block_diag([0.7 * kernels.M_p, 0.7 * kernels.M_p]).toarray()
    assert rel_err(C[:n_p, :n_p], expected) <= 1e-12
    assert abs(C[n_p:]).sum() == 0.0 and abs(C[:, n_p:]).sum() == 0.0
    for i in range(2):
        w = system.layout.sl(f"w{i}")
        assert rel_err(A[w, w], kernels.M_w.toarray()) <= 1e-12


def test_a_hdg_coercive_against_hdg_norm_across_meshes():
    """Rayleigh quotient of the stabilized form against the HDG norm
    (second-derivative term dropped) stays above a mesh-independent bound."""
    from oracles import oracle_displacement_hdg_norm
    from scipy.linalg import eigh

    mins = []
    for n in (1, 2, 4):
        mesh = generate_unit_square(n)
        spaces = SpaceSet(mesh, 2, 1)
        a = assemble_kernels(spaces, eta=10.0).a_hdg
        norm_mat = oracle_displacement_hdg_norm(mesh, spaces, include_h2=False)
        # constrain the boundary to remove rigid modes
        mask = np.ones(spaces.size_u + spaces.size_uhat, dtype=bool)
        for f in mesh.boundary_facets:
            mask[f * spaces.n_u_edge : (f + 1) * spaces.n_u_edge] = False
            s = spaces.size_u + f * spaces.n_uhat
            mask[s : s + spaces.n_uhat] = False
        free = np.nonzero(mask)[0]
        af = a.toarray()[np.ix_(free, free)]
        nf = norm_mat[np.ix_(free, free)]
        eigs = eigh(af, nf, eigvals_only=True)
        mins.append(eigs.min())
    assert min(mins) > 0.2
    assert max(mins) / min(mins) < 2.0


def test_full_matrix_symmetry():
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 2, 2)
    scaled = default_scaled(n=2, lam=1e4, R=1e-4, alpha_p=1e-4, xi=1e-4)
    system = build_block_system(assemble_kernels(spaces), scaled)
    assert symmetry_defect(system.K) <= 1e-12


def test_assembly_is_bit_deterministic():
    """Repeated assembly produces bit-identical matrices."""
    mesh = generate_unit_square(3)
    spaces = SpaceSet(mesh, 2, 1)
    k1 = assemble_kernels(spaces, eta=10.0)
    k2 = assemble_kernels(spaces, eta=10.0)
    for name in ("a_hdg", "divdiv", "D", "Dw", "Ew", "M_w", "M_p"):
        a, b = getattr(k1, name).tocsr(), getattr(k2, name).tocsr()
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)


def test_quadrature_degree_invariance():
    """Assembled integrands are polynomial: degree 2l+2 and 2l+4 agree."""
    mesh = generate_unit_square(2)
    for ell in (1, 2):
        s1 = SpaceSet(mesh, ell, 1, quad_degree=2 * ell + 2)
        s2 = SpaceSet(mesh, ell, 1, quad_degree=2 * ell + 4)
        k1 = assemble_kernels(s1)
        k2 = assemble_kernels(s2)
        for name in ("a_hdg", "divdiv", "D", "Dw", "Ew", "M_w", "M_p"):
            assert rel_err(getattr(k1, name), np.asarray(getattr(k2, name).todense())) <= 1e-12


# ----------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------


def test_homogeneous_constraint_count():
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 1, 2)
    scaled = default_scaled(n=2)
    system = build_block_system(assemble_kernels(spaces), scaled)
    bcs = homogeneous_bcs(2)
    constrained = apply_boundary_conditions(system, bcs)
    nbf = len(mesh.boundary_facets)
    expected = nbf * spaces.n_u_edge + nbf * spaces.n_uhat
    assert len(constrained.constrained) == expected
    assert np.all(constrained.values == 0.0)

    bcs2 = homogeneous_bcs(2, pressure="dirichlet")
    constrained2 = apply_boundary_conditions(system, bcs2)
    assert len(constrained2.constrained) == expected + 2 * nbf * spaces.n_phat


def test_missing_condition_rejected():
    mesh = generate_annulus(1.0, 2.0, 1, 4)
    spaces = SpaceSet(mesh, 1, 1)
    scaled = default_scaled(n=1)
    system = build_block_system(assemble_kernels(spaces), scaled)
    bcs = BoundaryConditionSet(
        {"skull": ("dirichlet", lambda x, t: np.zeros(2))},
        [{"skull": ("flux", None)}],
    )
    with pytest.raises(ValueError, match="ventricle"):
        apply_boundary_conditions(system, bcs)


def _pressure_dirichlet(value):
    """Zero displacement and the pressure ``value + t`` all round."""
    return BoundaryConditionSet(
        {"boundary": ("dirichlet", lambda x, t: np.zeros(2))},
        [{"boundary": ("dirichlet", lambda x, t: value + t)}],
    )


def test_equal_condition_kinds_share_one_structure_and_one_map(monkeypatch):
    """The constrained structure is kept per pattern of condition kinds and
    builds the one :class:`EssentialMap` that every system on it and every
    ``update_values`` read."""
    import mpet.assembly

    built = []

    class Counted(EssentialMap):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(mpet.assembly, "EssentialMap", Counted)
    spaces = SpaceSet(generate_unit_square(2), 2, 1)
    system = build_block_system(assemble_kernels(spaces), default_scaled(n=1))
    first = apply_boundary_conditions(system, _pressure_dirichlet(1.0))
    second = apply_boundary_conditions(system, _pressure_dirichlet(2.0), t=0.5)
    assert first.structure is second.structure and len(built) == 1
    assert first.constrained is second.constrained is built[0].constrained
    assert not first.constrained.flags.writeable
    first.update_values(_pressure_dirichlet(2.0), 0.5)
    assert len(built) == 1
    assert np.array_equal(first.values, second.values)
    fresh = EssentialMap(system.layout, spaces, _pressure_dirichlet(2.0))
    assert np.array_equal(fresh.values(spaces, _pressure_dirichlet(2.0), 0.5), second.values)


def test_update_values_rejects_conditions_of_other_kinds():
    spaces = SpaceSet(generate_unit_square(2), 1, 1)
    system = build_block_system(assemble_kernels(spaces), default_scaled(n=1))
    con = apply_boundary_conditions(system, homogeneous_bcs(1))
    with pytest.raises(ValueError, match="constrain other DOFs than the system"):
        con.update_values(homogeneous_bcs(1, pressure="dirichlet"), 0.0)


def test_traction_rhs_matches_facet_quadrature_oracle():
    mesh = generate_annulus(1.0, 2.0, 1, 8)
    spaces = SpaceSet(mesh, 1, 1)
    g_const = np.array([0.4, -0.2])
    bcs = BoundaryConditionSet(
        {
            "ventricle": ("traction", lambda x, t, n: g_const),
            "skull": ("dirichlet", lambda x, t: np.zeros(2)),
        },
        [{"ventricle": ("flux", None), "skull": ("flux", None)}],
    )
    F = assemble_traction_rhs(spaces, bcs)
    layout = DofLayout(spaces)

    from numpy.polynomial.legendre import legvander

    from oracles import facet_points, u_eval
    from mpet.mesh import build_affine_map

    # g.n against the normal trace of u, g.t against uhat's P_m t
    expected = np.zeros(spaces.size_u)
    expected_uhat = np.zeros(spaces.size_uhat)
    rule = segment_quadrature(12)
    leg = legvander(rule.points, spaces.n_uhat - 1).T
    for f in mesh.boundary_facets:
        if mesh.boundary_tags[int(f)] != "ventricle":
            continue
        t_elem = mesh.facet_elements[f, 0]
        amap = build_affine_map(mesh, t_elem)
        pts = facet_points(mesh, f, rule.points)
        uv, _, _ = u_eval(mesh, spaces, t_elem, amap.to_reference(pts))
        n, tangent = mesh.facet_normal[f], mesh.facet_tangent[f]
        for q in range(len(rule.points)):
            w = rule.weights[q] * mesh.facet_length[f] / 2.0
            expected += w * (uv[:, q] @ n) * (g_const @ n)
            expected_uhat[spaces.uhat_dofs(f)] += w * leg[:, q] * (g_const @ tangent)
    assert np.allclose(F[layout.sl("u")], expected, atol=1e-12)
    assert np.allclose(F[layout.sl("uhat")], expected_uhat, atol=1e-12)
    assert np.abs(expected_uhat).max() > 0.1


def test_time_profile_essential_value():
    mesh = generate_unit_square(1)
    spaces = SpaceSet(mesh, 1, 1)
    layout = DofLayout(spaces)
    profile = lambda x, t: 5.0 + 2.0 * np.sin(2.0 * np.pi * t)
    bcs = BoundaryConditionSet(
        {"boundary": ("dirichlet", lambda x, t: np.zeros(2))},
        [{"boundary": ("dirichlet", profile)}],
    )
    essential = EssentialMap(layout, spaces, bcs)
    idx, val = essential.constrained, essential.values(spaces, bcs, 0.25)
    phat_vals = val[idx >= layout.offsets["phat0"]]
    mean_modes = phat_vals.reshape(-1, spaces.n_phat)[:, 0]
    assert np.allclose(mean_modes, 7.0, atol=1e-12)


def test_inhomogeneous_lift_solves_exactly():
    """Essential data lifts into the RHS: linear exact solution is reproduced."""
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 1, 1)
    scaled = default_scaled(n=1, lam=2.0, R=1.5, alpha_p=0.3)
    manu = ManufacturedSolution(
        (sp.Rational(0), sp.Rational(0)), [sp.symbols("x y")[0] - sp.Rational(1, 2)]
    )
    system = build_block_system(assemble_kernels(spaces), scaled)
    system.F = assemble_volume_rhs(
        spaces, f=manu.body_force(scaled), g=manu.mass_sources(scaled)
    )
    bcs = BoundaryConditionSet(
        {"boundary": ("dirichlet", lambda x, t: np.zeros(2))},
        [{"boundary": ("dirichlet", manu.pressure_trace_bc(0))}],
    )
    con = apply_boundary_conditions(system, bcs)
    x = np.zeros(system.layout.total)
    import scipy.sparse.linalg as spla

    x[con.free] = spla.spsolve(con.K_ff, con.rhs())
    x[con.constrained] = con.values
    # exact pressure is linear, flux constant: both lie in the spaces
    p = x[system.layout.sl("p0")]
    exact_p = spaces.interpolate_p(lambda xx: xx[0] - 0.5)
    assert np.allclose(p, exact_p, atol=1e-9)
    w = x[system.layout.sl("w0")]
    exact_w = spaces.interpolate_w(lambda xx: np.array([-scaled.R[0], 0.0]))
    assert np.allclose(w, exact_w, atol=1e-9)


# ----------------------------------------------------------------------
# manufactured sources
# ----------------------------------------------------------------------


def test_zero_solution_zero_sources():
    manu = ManufacturedSolution((sp.Rational(0), sp.Rational(0)), [sp.Rational(0)])
    scaled = default_scaled(n=1)
    f = manu.body_force(scaled)
    g = manu.mass_sources(scaled)[0]
    for x in np.random.default_rng(0).uniform(0, 1, (5, 2)):
        assert np.allclose(f(x), 0.0)
        assert g(x) == 0.0


def test_manufactured_pressures_are_mean_zero():
    # symbolic integration oracle for the shifts 1/900 and 1/4
    x, y = sp.symbols("x y")
    p1 = x**2 * (1 - x) ** 2 * y**2 * (1 - y) ** 2
    assert sp.integrate(sp.integrate(p1, (x, 0, 1)), (y, 0, 1)) == sp.Rational(1, 900)
    p2 = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
    assert sp.integrate(sp.integrate(p2, (x, 0, 1)), (y, 0, 1)) == sp.Rational(1, 4)
    manu = default_manufactured(2)
    assert manu.n == 2
    assert abs(manu.p[0]((0.2, 0.8)) - ((0.2 * 0.8) ** 2 * (0.8 * 0.2) ** 2 - 1 / 900)) < 1e-14


def test_exact_fields_nearly_satisfy_discrete_system():
    """The weak residual of the interpolated exact fields shrinks under refinement.

    The residual is paired with a fixed smooth test field; raw coefficient
    norms are not comparable across meshes because the moment DOFs rescale.
    """
    manu = default_manufactured(2)
    scaled = default_scaled(n=2, lam=1.0, R=1.0, alpha_p=0.5, xi=0.2)
    x_, y_ = sp.symbols("x y")
    test_fields = ManufacturedSolution(
        (x_ * (1 - x_) * y_ * (1 - y_), sp.sin(sp.pi * x_) * y_ * (1 - y_)),
        [x_ * y_ * (1 - x_), sp.cos(sp.pi * x_) * y_],
    )
    defects = []
    for n in (2, 4, 8):
        mesh = generate_unit_square(n)
        spaces = SpaceSet(mesh, 1, 2)
        system = build_block_system(assemble_kernels(spaces), scaled)
        system.F = assemble_volume_rhs(spaces, f=manu.body_force(scaled), g=manu.mass_sources(scaled))
        layout = system.layout

        def interp(ms):
            v = np.zeros(layout.total)
            v[layout.sl("u")] = spaces.interpolate_u(ms.u)
            v[layout.sl("uhat")] = spaces.interpolate_uhat(ms.u)
            for i in range(2):
                v[layout.sl(f"w{i}")] = spaces.interpolate_w(ms.flux(scaled, i))
                v[layout.sl(f"p{i}")] = spaces.interpolate_p(ms.p[i])
                v[layout.sl(f"phat{i}")] = spaces.interpolate_phat(ms.p[i])
            return v

        x = interp(manu)
        y = interp(test_fields)
        bcs = BoundaryConditionSet(
            {"boundary": ("dirichlet", lambda xx, t: np.zeros(2))},
            [
                {"boundary": ("dirichlet", manu.pressure_trace_bc(0))},
                {"boundary": ("dirichlet", manu.pressure_trace_bc(1))},
            ],
        )
        con = apply_boundary_conditions(system, bcs)
        r = con.K_ff @ x[con.free] - con.rhs()
        defects.append(abs(float(r @ y[con.free])))
    # second-order decay, with slack
    assert defects[1] < 0.35 * defects[0]
    assert defects[2] < 0.35 * defects[1]


def test_pressure_nullspace_detection():
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 1, 2)
    kernels = assemble_kernels(spaces)
    scaled = default_scaled(n=2, alpha_p=0.0, xi=0.0)
    system = build_block_system(kernels, scaled)
    bcs = homogeneous_bcs(2)
    con = apply_boundary_conditions(system, bcs)
    kernel = con.structure.kernel
    assert con.structure.null_networks == (0, 1) and len(kernel) == 2
    for k in kernel:
        # the kernel lives on the free (p, phat), the last rows of the free vector
        x = np.zeros(len(con.free))
        x[len(x) - len(k):] = k
        assert np.abs(con.K_ff @ x).max() < 1e-12

    # any transfer coupling or pressure Dirichlet data removes the kernel
    scaled2 = default_scaled(n=2, alpha_p=0.5, xi=0.0)
    system2 = build_block_system(kernels, scaled2)
    assert apply_boundary_conditions(system2, bcs).structure.kernel == []
    dirichlet = apply_boundary_conditions(system, homogeneous_bcs(2, pressure="dirichlet"))
    assert dirichlet.structure.kernel == []
