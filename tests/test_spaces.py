import numpy as np
import pytest
import sympy as sp

from mpet.mesh import Mesh, build_affine_map, generate_annulus, generate_unit_square
from mpet.spaces import (
    HdivReferenceBasis,
    ScalarPolyBasis,
    SpaceSet,
    _REF_EDGE_LENGTHS,
    _REF_EDGE_NORMALS,
    _edge_points,
    _reference_basis,
    eval_basis,
    orient_trace,
    piola_div,
    piola_map,
    segment_quadrature,
    triangle_quadrature,
)

from math import factorial


@pytest.mark.parametrize("degree", [1, 2, 4, 6, 8, 10])
def test_triangle_quadrature_monomial_exactness(degree):
    rule = triangle_quadrature(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            got = (rule.points[:, 0] ** a * rule.points[:, 1] ** b * rule.weights).sum()
            assert abs(got - exact) <= 1e-13


@pytest.mark.parametrize("degree", [1, 3, 5, 9])
def test_segment_quadrature_exactness(degree):
    rule = segment_quadrature(degree)
    for a in range(degree + 1):
        exact = (1 - (-1) ** (a + 1)) / (a + 1)
        got = (rule.points**a * rule.weights).sum()
        assert abs(got - exact) <= 1e-13


def test_p0_basis_is_one():
    vals, grads, hess = eval_basis("p", 0, [(0.3, 0.2)])
    assert vals.shape == (1, 1)
    assert vals[0, 0] == 1.0
    assert np.all(grads == 0.0)


def test_bdm1_six_functions_constant_divergence():
    basis = HdivReferenceBasis("bdm", 1)
    assert basis.n_dofs == 6
    # symbolic oracle on the monomial construction
    x, y = sp.symbols("x y")
    monos = []
    for comp in (0, 1):
        for e in [(0, 0), (1, 0), (0, 1)]:
            v = [sp.Integer(0), sp.Integer(0)]
            v[comp] = x ** e[0] * y ** e[1]
            monos.append(v)
    for d in range(6):
        vx = sum(basis.coeffs[n, d] * monos[n][0] for n in range(6))
        vy = sum(basis.coeffs[n, d] * monos[n][1] for n in range(6))
        div = sp.expand(sp.diff(vx, x) + sp.diff(vy, y))
        assert sp.degree(div, x) <= 0 if div != 0 else True
        assert sp.degree(div, y) <= 0 if div != 0 else True


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_bdm_dimensions(ell):
    basis = HdivReferenceBasis("bdm", ell)
    assert basis.n_dofs == (ell + 1) * (ell + 2)
    assert basis.n_interior == (ell + 1) * (ell - 1)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_rt_dimensions(ell):
    basis = HdivReferenceBasis("rt", ell)
    assert basis.n_dofs == ell * (ell + 2)


def test_rt0_edge_normal_traces():
    basis = HdivReferenceBasis("rt", 1)
    # edge-moment oracle: after mean-value normalization the dual basis has
    # v.n = 1 on its own edge and 0 on the others
    for j in range(3):
        pts = _edge_points(j, np.linspace(-0.9, 0.9, 5))
        vals = basis.eval(pts)
        vn = vals @ _REF_EDGE_NORMALS[j]
        for d in range(3):
            expected = 1.0 if d == j else 0.0
            assert np.allclose(vn[d], expected, atol=1e-12)


@pytest.mark.parametrize("family,ell", [("bdm", 1), ("bdm", 2), ("bdm", 3), ("rt", 1), ("rt", 2), ("rt", 3)])
def test_hdiv_basis_duality(family, ell):
    """Applying the defining moments to the fitted basis gives the identity."""
    basis = HdivReferenceBasis(family, ell)
    rule = segment_quadrature(2 * ell + 2)
    from numpy.polynomial.legendre import legvander

    leg = legvander(rule.points, basis.n_edge_modes - 1).T
    ident = np.zeros((basis.n_dofs, basis.n_dofs))
    row = 0
    for j in range(3):
        pts = _edge_points(j, rule.points)
        vn = basis.eval(pts) @ _REF_EDGE_NORMALS[j]
        scale = _REF_EDGE_LENGTHS[j] / 2.0
        if family == "rt":
            scale /= _REF_EDGE_LENGTHS[j]
        for m in range(basis.n_edge_modes):
            ident[row] = (vn * leg[m] * rule.weights).sum(axis=1) * scale
            row += 1
    vol = triangle_quadrature(2 * ell + 2)
    vals = basis.eval(vol.points)
    for wv in basis.interior_weights(vol.points):
        ident[row] = np.einsum("dqc,qc,q->d", vals, wv, vol.weights)
        row += 1
    assert np.allclose(ident, np.eye(basis.n_dofs), atol=1e-11)


def _sympy_monomial_derivatives(mono, points):
    """Values (n, m, k), gradients (n, m, k, 2) and Hessians (n, m, k, 2, 2) of a monomial set.

    The terms are read from the exposed exponents ``a``, ``b`` and, for a
    vector set, ``comp`` (k = 2); a scalar set has k = 1.  Every
    derivative is taken by sympy and lambdified over the point array.
    """
    x, y = sp.symbols("x y")
    comp = [None] * mono.n_dofs if mono.comp is None else mono.comp
    fields = []
    for a, b, r in zip(mono.a, mono.b, comp):
        s = x ** int(a) * y ** int(b)
        fields.append([s] if r is None else [x * s, y * s] if r < 0 else [s * int(r == 0), s * int(r == 1)])
    exprs = [[f, [sp.diff(f, u) for u in (x, y)], [[sp.diff(f, u, w) for w in (x, y)] for u in (x, y)]]
             for field in fields for f in field]
    flat = sp.lambdify((x, y), [e for val, grad, hess in exprs for e in [val, *grad, *hess[0], *hess[1]]])
    m = len(points)
    values = np.array([np.broadcast_to(np.asarray(v, dtype=float), (m,)) for v in flat(*points.T)])
    values = values.reshape(mono.n_dofs, len(fields[0]), 7, m).transpose(0, 3, 1, 2)
    return values[..., 0], values[..., 1:3], values[..., 3:].reshape(values.shape[:3] + (2, 2))


@pytest.mark.parametrize(
    "space,ell", [("p", 0), ("p", 1), ("p", 2)] + [(f, ell) for f in ("bdm", "rt") for ell in (1, 2, 3)]
)
def test_basis_derivatives_match_sympy(space, ell):
    """eval_grad, eval_hess and eval_div differentiate the polynomial that eval represents."""
    basis = _reference_basis(space, ell)
    vector = space != "p"
    mono = basis.mono if vector else basis
    coeffs = basis.coeffs if vector else np.eye(basis.n_dofs)
    points = triangle_quadrature(7).points
    refs = [np.einsum("nd,n...->d...", coeffs, r) for r in _sympy_monomial_derivatives(mono, points)]
    if not vector:
        refs = [r[:, :, 0] for r in refs]
    got = [basis.eval(points), basis.eval_grad(points), basis.eval_hess(points)]
    if vector:
        refs.append(np.trace(refs[1], axis1=2, axis2=3))
        got.append(basis.eval_div(points))
    tol = 1e-12 * np.abs(coeffs).max()
    for g, r in zip(got, refs):
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= tol


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_bdm_divergence_degree(ell):
    """div BDM_ell lies in P_{ell-1} on the reference element."""
    basis = HdivReferenceBasis("bdm", ell)
    rule = triangle_quadrature(2 * ell + 2)
    divs = basis.eval_div(rule.points)
    scal = ScalarPolyBasis(ell - 1)
    vals = scal.eval(rule.points)
    mass = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
    for d in range(basis.n_dofs):
        rhs = np.einsum("iq,q,q->i", vals, divs[d], rule.weights)
        cof = np.linalg.solve(mass, rhs)
        recon = cof @ vals
        assert np.allclose(recon, divs[d], atol=1e-10)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_rt_trace_and_divergence_compatibility(ell):
    """div RT_{ell-1} in P_{ell-1}; normal trace on each edge of degree ell-1."""
    basis = HdivReferenceBasis("rt", ell)
    rule = triangle_quadrature(2 * ell + 2)
    divs = basis.eval_div(rule.points)
    scal = ScalarPolyBasis(ell - 1)
    vals = scal.eval(rule.points)
    mass = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
    for d in range(basis.n_dofs):
        rhs = np.einsum("iq,q,q->i", vals, divs[d], rule.weights)
        cof = np.linalg.solve(mass, rhs)
        assert np.allclose(cof @ vals, divs[d], atol=1e-10)
    # trace degree check by Legendre expansion
    from numpy.polynomial.legendre import legvander

    seg = segment_quadrature(2 * ell + 4)
    leg = legvander(seg.points, ell + 1).T
    for j in range(3):
        vn = basis.eval(_edge_points(j, seg.points)) @ _REF_EDGE_NORMALS[j]
        for d in range(basis.n_dofs):
            for m in range(ell, ell + 2):
                coeff = (2 * m + 1) / 2 * (vn[d] * leg[m] * seg.weights).sum()
                assert abs(coeff) < 1e-11


def test_piola_identity_map():
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    amap = build_affine_map(mesh, 0)
    vals = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert np.allclose(piola_map(amap, vals), vals)


def test_piola_scaling_halves():
    mesh = Mesh([(0, 0), (2, 0), (0, 2)], [(0, 1, 2)])
    amap = build_affine_map(mesh, 0)
    vals = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(piola_map(amap, vals), vals / 2.0)
    assert np.isclose(piola_div(amap, np.array([3.0]))[0], 0.75)


def test_piola_preserves_facet_moments():
    """Facet-moment oracle: integral of v.n over an edge is Piola-invariant."""
    rng = np.random.default_rng(11)
    basis = HdivReferenceBasis("bdm", 2)
    rule = segment_quadrature(8)
    for _ in range(4):
        a = rng.uniform(-1, 1, 2)
        m = rng.uniform(-1, 1, (2, 2))
        if np.linalg.det(m) < 0.2:
            m = m + np.eye(2)
        verts = np.array([a, a + m[:, 0], a + m[:, 1]])
        mesh = Mesh(verts, [(0, 1, 2)])
        amap = build_affine_map(mesh, 0)
        for j in range(3):
            ref_pts = _edge_points(j, rule.points)
            ref_vals = basis.eval(ref_pts)
            ref_vn = ref_vals @ _REF_EDGE_NORMALS[j]
            ref_moment = (ref_vn * rule.weights).sum(axis=1) * _REF_EDGE_LENGTHS[j] / 2

            phys_vals = piola_map(amap, ref_vals)
            pa, pb = amap.to_physical(_edge_points(j, np.array([-1.0, 1.0])))
            length = np.linalg.norm(pb - pa)
            tang = (pb - pa) / length
            normal = np.array([tang[1], -tang[0]])
            phys_vn = phys_vals @ normal
            phys_moment = (phys_vn * rule.weights).sum(axis=1) * length / 2
            assert np.allclose(phys_moment, ref_moment, atol=1e-12)


def test_global_normal_continuity():
    """Jump of v.n vanishes at quadrature points for every displacement basis function."""
    mesh = generate_unit_square(2)
    for ell in (1, 2, 3):
        spaces = SpaceSet(mesh, ell, 1)
        for f in mesh.interior_facets:
            traces = []
            for side in (0, 1):
                t = mesh.facet_elements[f, side]
                j = mesh.facet_local[f, side]
                amap = build_affine_map(mesh, t)
                ref = orient_trace(spaces.bdm_edge_vals[j], mesh.facet_direction[t, j])
                phys = piola_map(amap, ref)
                vn = phys @ mesh.facet_normal[f]
                glob = np.zeros((spaces.size_u, vn.shape[1]))
                glob[spaces.u_dofmap[t]] = spaces.u_signs[t][:, None] * vn
                traces.append(glob)
            assert np.allclose(traces[0], traces[1], atol=1e-11)


def test_interior_bdm_functions_have_zero_normal_trace():
    basis = HdivReferenceBasis("bdm", 3)
    seg = segment_quadrature(10)
    for j in range(3):
        vn = basis.eval(_edge_points(j, seg.points)) @ _REF_EDGE_NORMALS[j]
        for d in range(3 * basis.n_edge_modes, basis.n_dofs):
            assert np.allclose(vn[d], 0.0, atol=1e-11)


def test_unsupported_order_rejected():
    mesh = generate_unit_square(1)
    with pytest.raises(ValueError, match="unsupported"):
        SpaceSet(mesh, 4, 1)
    with pytest.raises(ValueError, match="unsupported"):
        eval_basis("bdm", 0, [(0.1, 0.1)])


def test_interpolation_reproduces_polynomials():
    """Moment interpolation is a projection: exact on fields in the space."""
    mesh = generate_unit_square(2)
    spaces = SpaceSet(mesh, 2, 1)

    def f(x):
        return np.array([x[0] ** 2 - 0.3 * x[1], 0.5 * x[0] * x[1] + x[1] ** 2])

    coeffs = spaces.interpolate_u(f)
    rule = triangle_quadrature(6)
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        vals = piola_map(amap, spaces.bdm.eval(rule.points))
        local = coeffs[spaces.u_dofmap[t]] * spaces.u_signs[t]
        recon = np.einsum("d,dqc->qc", local, vals)
        exact = np.array([f(x) for x in amap.to_physical(rule.points)])
        assert np.allclose(recon, exact, atol=1e-10)

    def g(x):
        return 1.0 + 2.0 * x[0] - x[1]

    pc = spaces.interpolate_p(g)
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        vals = spaces.p.eval(rule.points)
        recon = pc[spaces.p_dofs(t)] @ vals
        exact = np.array([g(x) for x in amap.to_physical(rule.points)])
        assert np.allclose(recon, exact, atol=1e-11)


@pytest.mark.parametrize("mesh_kind", ["square", "square3", "annulus"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_hdiv_interpolants_match_the_einsum_pullback(monkeypatch, mesh_kind, ell):
    """The H(div) interpolants from the batched-matmul Piola pullback equal
    those from the einsum contraction (``oracles.einsum_pullback``).

    On a 2^k x 2^k unit square (the meshes of the convergence study and
    the manufactured benchmark) the inverse Jacobians hold 0 and +-2^k, so
    every product is exact and the two agree bitwise, even where BLAS
    fuses a multiply-add.  On other meshes (the 3 x 3 square, the annulus)
    they agree to 1e-15 relative.
    """
    import mpet.spaces
    from oracles import einsum_pullback

    mesh = {"square": lambda: generate_unit_square(4), "square3": lambda: generate_unit_square(3),
            "annulus": lambda: generate_annulus(1.0, 2.0, 2, 7)}[mesh_kind]()
    spaces = SpaceSet(mesh, ell, 1)

    def f(x):
        return np.array([np.sin(2.0 * x[0]) * x[1] + 1.0, np.cos(x[1] - 0.3 * x[0]) * x[0]])

    got = [spaces.interpolate_u(f), spaces.interpolate_w(f)]
    monkeypatch.setattr(mpet.spaces, "_pullback", einsum_pullback)
    want = [spaces.interpolate_u(f), spaces.interpolate_w(f)]
    for a, b in zip(got, want):
        if mesh_kind == "square":
            assert a.tobytes() == b.tobytes()
        else:
            assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


def test_dirichlet_map_is_the_traction_map_with_the_scales_swapped():
    """On the annulus's tags, whose facet lengths h are not 1, the Dirichlet
    map has the pattern of the traction map's u and uhat rows, and its
    coefficients are theirs times h/2 over (2m + 1)/2 on the u rows and
    times (2m + 1)/2 over h/2 on the uhat rows."""
    spaces = SpaceSet(generate_annulus(1.0, 2.0, 2, 7), 2, 1)
    for bd in spaces.boundary.values():
        assert np.all(np.abs(bd.length - 1.0) > 0.1)
        traction = bd.traction_map[np.r_[bd.u_rows.ravel(), bd.uhat_rows.ravel()]]
        dirichlet = bd.dirichlet_map.copy()
        traction.sort_indices()
        dirichlet.sort_indices()
        assert traction.shape == dirichlet.shape
        assert np.array_equal(traction.indptr, dirichlet.indptr)
        assert np.array_equal(traction.indices, dirichlet.indices)
        m = np.arange(bd.u_rows.shape[1])
        ratio = np.outer(bd.length / 2.0, 2.0 / (2 * m + 1)).ravel()
        row_ratio = np.r_[ratio, 1.0 / ratio][np.repeat(np.arange(traction.shape[0]), np.diff(traction.indptr))]
        assert np.allclose(dirichlet.data, traction.data * row_ratio, rtol=1e-14, atol=0.0)
