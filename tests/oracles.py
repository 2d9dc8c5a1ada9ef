"""Brute-force dense assembly oracles.

Every matrix entry is built by direct quadrature loops over freshly
computed points, evaluating basis functions straight from the reference
definitions.  No trace caches, no batched einsum contractions, no sparse
scatter: this is the slow textbook path the production assembler is
checked against.

The ``pointwise_*`` references compute the right-hand sides, boundary
values and interpolants element by element (or facet by facet) and call
every data callable at one point ``x`` of shape ``(2,)`` at a time.
:func:`einsum_pullback` is the Piola pullback of the interpolation as
the einsum contraction that the batched matmul replaced.

:class:`ManufacturedSolution` derives the load pieces of fields given
as sympy expressions by symbolic differentiation, and
:func:`sympy_benchmark` builds one of the benchmark's fields, against
which their closed forms are checked.

The dense spectral references compute every eigenvalue of the pencils
that the diagnostics reach by sparse Lanczos runs.

:func:`concatenated_scatter` sums element blocks into a sparse matrix
from concatenated copies of every term's indices and values, where
``_scatter`` writes them into one preallocated triplet.

The ``whole_mesh_*`` references evaluate the element factors of the
norm matrices for every element in one array each, where
``NormFactors`` reduces over element chunks.

The ``reference_*`` compositions build the operator, its free-DOF
blocks, the flux condensation and the preconditioner blocks with the
scipy expressions (``bmat``, ``np.ix_`` indexing, sparse sums) that
:mod:`mpet.sparsity` records once and replays as gathers.

:func:`reference_band_plan` lays out a block's condensation plan with
full passes over the block's COO entries and records its two CSR
patterns through scipy's COO conversion, where ``_BandPlan`` reads the
local and the kept rows as runs of the CSR and writes the patterns
directly.

The ``unrecorded_*`` references compute the boundary values, loads,
recurrence and probe values of a time step tag by tag and network by
network, where the time stepper applies recorded sparse products or one
batched reduction.
"""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sps
from numpy.polynomial.legendre import legvander
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from mpet.assembly import DofLayout
from mpet.manufactured import ManufacturedFields
from mpet.mesh import build_affine_map
from mpet.spaces import (
    _REF_EDGE_LENGTHS,
    _REF_EDGE_NORMALS,
    _edge_points,
    eval_basis,
    evaluate,
    piola_div,
    piola_grad,
    piola_hess,
    piola_map,
    segment_quadrature,
    triangle_quadrature,
)


def u_eval(mesh, spaces, t, ref_pts):
    """Values/gradients/divergences of every global displacement DOF on element t."""
    amap = build_affine_map(mesh, t)
    vals, grads, _ = eval_basis("bdm", spaces.ell, ref_pts)
    vals = piola_map(amap, vals)
    grads = piola_grad(amap, grads)
    divs = np.trace(grads, axis1=2, axis2=3)
    npts = len(ref_pts)
    out_v = np.zeros((spaces.size_u, npts, 2))
    out_g = np.zeros((spaces.size_u, npts, 2, 2))
    out_d = np.zeros((spaces.size_u, npts))
    for loc in range(spaces.bdm.n_dofs):
        g = spaces.u_dofmap[t, loc]
        s = spaces.u_signs[t, loc]
        out_v[g] += s * vals[loc]
        out_g[g] += s * grads[loc]
        out_d[g] += s * divs[loc]
    return out_v, out_g, out_d


def w_eval(mesh, spaces, t, ref_pts):
    amap = build_affine_map(mesh, t)
    vals, grads, _ = eval_basis("rt", spaces.ell, ref_pts)
    vals = piola_map(amap, vals)
    divs = piola_div(amap, np.trace(grads, axis1=2, axis2=3))
    npts = len(ref_pts)
    out_v = np.zeros((spaces.size_w, npts, 2))
    out_d = np.zeros((spaces.size_w, npts))
    for loc, g in enumerate(spaces.w_dofs(t)):
        out_v[g] = vals[loc]
        out_d[g] = divs[loc]
    return out_v, out_d


def p_eval(mesh, spaces, t, phys_pts):
    amap = build_affine_map(mesh, t)
    ref = amap.to_reference(phys_pts)
    vals, _, _ = eval_basis("p", spaces.ell - 1, ref)
    out = np.zeros((spaces.size_p, len(phys_pts)))
    for loc, g in enumerate(spaces.p_dofs(t)):
        out[g] = vals[loc]
    return out


def facet_points(mesh, f, t_params):
    va, vb = mesh.facet_vertices[f]
    mid = mesh.facet_midpoint[f]
    half = 0.5 * (mesh.vertices[vb] - mesh.vertices[va])
    return mid + np.outer(t_params, half)


def uhat_eval(mesh, spaces, f, t_params):
    leg = legvander(t_params, spaces.n_uhat - 1).T
    tang = mesh.facet_tangent[f]
    out = np.zeros((spaces.size_uhat, len(t_params), 2))
    for m in range(spaces.n_uhat):
        out[f * spaces.n_uhat + m] = np.outer(leg[m], tang)
    return out


def phat_eval(mesh, spaces, f, t_params):
    leg = legvander(t_params, max(spaces.n_phat, 1) - 1).T
    out = np.zeros((spaces.size_phat, len(t_params)))
    for m in range(spaces.n_phat):
        out[f * spaces.n_phat + m] = leg[m]
    return out


def oracle_blocks(mesh, spaces, eta=10.0):
    """Dense versions of every parameter-free kernel matrix."""
    ell = spaces.ell
    vol = triangle_quadrature(2 * ell + 2)
    seg = segment_quadrature(2 * ell + 2)

    nu, nuh = spaces.size_u, spaces.size_uhat
    a_hdg = np.zeros((nu + nuh, nu + nuh))
    divdiv = np.zeros((nu, nu))
    D = np.zeros((spaces.size_p, nu))
    Dw = np.zeros((spaces.size_p, spaces.size_w))
    Ew = np.zeros((spaces.size_phat, spaces.size_w))
    M_w = np.zeros((spaces.size_w, spaces.size_w))
    M_p = np.zeros((spaces.size_p, spaces.size_p))

    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        phys = amap.to_physical(vol.points)
        uv, ug, ud = u_eval(mesh, spaces, t, vol.points)
        wv, wd = w_eval(mesh, spaces, t, vol.points)
        pv = p_eval(mesh, spaces, t, phys)
        eps = 0.5 * (ug + np.swapaxes(ug, 2, 3))
        for q in range(len(vol.points)):
            w = vol.weights[q] * amap.det
            a_hdg[:nu, :nu] += w * np.einsum("iab,jab->ij", eps[:, q], eps[:, q])
            divdiv += w * np.outer(ud[:, q], ud[:, q])
            D += w * np.outer(pv[:, q], ud[:, q])
            Dw += w * np.outer(pv[:, q], wd[:, q])
            M_w += w * np.einsum("ic,jc->ij", wv[:, q], wv[:, q])
            M_p += w * np.outer(pv[:, q], pv[:, q])

        for j in range(3):
            f = mesh.element_facets[t, j]
            n_out = mesh.facet_sign[t, j] * mesh.facet_normal[f]
            hF = mesh.facet_length[f]
            pts = facet_points(mesh, f, seg.points)
            ref = amap.to_reference(pts)
            uv, ug, _ = u_eval(mesh, spaces, t, ref)
            eps = 0.5 * (ug + np.swapaxes(ug, 2, 3))
            uhv = uhat_eval(mesh, spaces, f, seg.points)
            wv, _ = w_eval(mesh, spaces, t, ref)
            phv = phat_eval(mesh, spaces, f, seg.points)
            for q in range(len(seg.points)):
                w = seg.weights[q] * hF / 2.0
                epsn = eps[:, q] @ n_out
                u_t = uv[:, q] - np.outer(uv[:, q] @ n_out, n_out)
                jump = np.concatenate([-u_t, uhv[:, q]])
                epsn_full = np.concatenate([epsn, np.zeros_like(uhv[:, q])])
                cross = np.einsum("ia,ja->ij", epsn_full, jump)
                a_hdg += w * (cross + cross.T)
                a_hdg += w * eta * ell**2 / hF * np.einsum("ia,ja->ij", jump, jump)
                Ew += w * np.outer(phv[:, q], wv[:, q] @ n_out)
    return {
        "a_hdg": a_hdg,
        "divdiv": divdiv,
        "D": D,
        "Dw": Dw,
        "Ew": Ew,
        "M_w": M_w,
        "M_p": M_p,
    }


def oracle_displacement_hdg_norm(mesh, spaces, include_h2=True):
    """Dense displacement HDG norm matrix on (u, uhat) by brute quadrature."""
    ell = spaces.ell
    vol = triangle_quadrature(2 * ell + 2)
    seg = segment_quadrature(2 * ell + 2)
    nu = spaces.size_u
    size = nu + spaces.size_uhat
    N = np.zeros((size, size))
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        _, ug, _ = u_eval(mesh, spaces, t, vol.points)
        eps = 0.5 * (ug + np.swapaxes(ug, 2, 3))
        _, _, ref_hess = eval_basis("bdm", ell, vol.points)
        hess = piola_hess(amap, ref_hess)
        uh = np.zeros((nu, len(vol.points), 2, 2, 2))
        for loc in range(spaces.bdm.n_dofs):
            uh[spaces.u_dofmap[t, loc]] += spaces.u_signs[t, loc] * hess[loc]
        hT = mesh.element_h[t]
        for q in range(len(vol.points)):
            w = vol.weights[q] * amap.det
            N[:nu, :nu] += w * np.einsum("iab,jab->ij", eps[:, q], eps[:, q])
            if include_h2:
                N[:nu, :nu] += w * hT**2 * np.einsum("iabc,jabc->ij", uh[:, q], uh[:, q])
        for j in range(3):
            f = mesh.element_facets[t, j]
            n_out = mesh.facet_sign[t, j] * mesh.facet_normal[f]
            hF = mesh.facet_length[f]
            pts = facet_points(mesh, f, seg.points)
            uv, _, _ = u_eval(mesh, spaces, t, amap.to_reference(pts))
            uhv = uhat_eval(mesh, spaces, f, seg.points)
            for q in range(len(seg.points)):
                w = seg.weights[q] * hF / 2.0
                u_t = uv[:, q] - np.outer(uv[:, q] @ n_out, n_out)
                jump = np.concatenate([-u_t, uhv[:, q]])
                N += w / hF * np.einsum("ia,ja->ij", jump, jump)
    return N


def oracle_pressure_hdg_norm(mesh, spaces, include_h2=True):
    """Dense pressure HDG norm matrix on (p, phat) by brute quadrature."""
    from mpet.spaces import scalar_grad, scalar_hess

    ell = spaces.ell
    vol = triangle_quadrature(2 * ell + 2)
    seg = segment_quadrature(2 * ell + 2)
    size = spaces.size_p + spaces.size_phat
    N = np.zeros((size, size))
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        phys = amap.to_physical(vol.points)
        _, ref_grads, ref_hess = eval_basis("p", ell - 1, vol.points)
        grads = scalar_grad(amap, ref_grads)
        hess = scalar_hess(amap, ref_hess)
        pv = p_eval(mesh, spaces, t, phys)
        pg = np.zeros((spaces.size_p, len(vol.points), 2))
        ph = np.zeros((spaces.size_p, len(vol.points), 2, 2))
        for loc, g in enumerate(spaces.p_dofs(t)):
            pg[g] = grads[loc]
            ph[g] = hess[loc]
        hT = mesh.element_h[t]
        for q in range(len(vol.points)):
            w = vol.weights[q] * amap.det
            N[: spaces.size_p, : spaces.size_p] += w * np.einsum(
                "ia,ja->ij", pg[:, q], pg[:, q]
            )
            if include_h2:
                N[: spaces.size_p, : spaces.size_p] += (
                    w * hT**2 * np.einsum("iab,jab->ij", ph[:, q], ph[:, q])
                )
        for j in range(3):
            f = mesh.element_facets[t, j]
            hF = mesh.facet_length[f]
            pts = facet_points(mesh, f, seg.points)
            tr = p_eval(mesh, spaces, t, pts)
            hv = phat_eval(mesh, spaces, f, seg.points)
            for q in range(len(seg.points)):
                w = seg.weights[q] * hF / 2.0
                jump = np.concatenate([-tr[:, q], hv[:, q]])
                N += w / hF * np.outer(jump, jump)
    return N


def oracle_full_matrix(mesh, spaces, scaled, eta=10.0):
    """Dense saddle-point matrix composed from the oracle blocks."""
    blocks = oracle_blocks(mesh, spaces, eta)
    n = scaled.n
    nu, nuh = spaces.size_u, spaces.size_uhat
    nw, npr, nph = spaces.size_w, spaces.size_p, spaces.size_phat
    total = nu + nuh + n * (nw + npr + nph)
    K = np.zeros((total, total))
    K[: nu + nuh, : nu + nuh] = blocks["a_hdg"]
    K[:nu, :nu] += scaled.lam * blocks["divdiv"]
    ow = nu + nuh
    op = ow + n * nw
    oph = op + n * npr
    for i in range(n):
        sw = slice(ow + i * nw, ow + (i + 1) * nw)
        sp_ = slice(op + i * npr, op + (i + 1) * npr)
        sph = slice(oph + i * nph, oph + (i + 1) * nph)
        K[sw, sw] = blocks["M_w"] / scaled.R[i]
        K[sp_, :nu] = -blocks["D"]
        K[:nu, sp_] = -blocks["D"].T
        K[sp_, sw] = -blocks["Dw"]
        K[sw, sp_] = -blocks["Dw"].T
        K[sph, sw] = blocks["Ew"]
        K[sw, sph] = blocks["Ew"].T
        for jn in range(n):
            sq = slice(op + jn * npr, op + (jn + 1) * npr)
            K[sp_, sq] += -scaled.zeta[i, jn] * blocks["M_p"]
    return K


def dense_kernel_augmentation(mat, kernel_vectors):
    """``X + s sum_k k k^T / (k . k)`` as a dense array, ``s`` the mean
    absolute diagonal of ``X``: the definite pressure block that the
    factor given the kernel vectors stands for."""
    dense = mat.toarray()
    scale = abs(dense.diagonal()).mean()
    for k in kernel_vectors:
        dense = dense + scale * np.outer(k, k) / float(k @ k)
    return dense


# ----------------------------------------------------------------------
# symbolic manufactured solutions
# ----------------------------------------------------------------------


class ManufacturedSolution(ManufacturedFields):
    """Fields given as sympy expressions, with the load pieces derived symbolically.

    ``u_expr`` is a pair and ``p_exprs`` a list of expressions in the
    symbols ``x`` and ``y``.
    """

    def __init__(self, u_expr, p_exprs):
        import sympy as sp

        x, y = sp.symbols("x y")
        xy = (x, y)

        def vec(exprs):
            fns = [sp.lambdify(xy, e, "numpy") for e in exprs]
            return lambda x: np.stack([np.broadcast_to(f(x[0], x[1]), np.shape(x[0])) for f in fns])

        def scalar(expr):
            f = sp.lambdify(xy, expr, "numpy")
            return lambda x: np.broadcast_to(f(x[0], x[1]), np.shape(x[0]))

        eps = [
            [sp.diff(u_expr[0], x), (sp.diff(u_expr[0], y) + sp.diff(u_expr[1], x)) / 2],
            [(sp.diff(u_expr[0], y) + sp.diff(u_expr[1], x)) / 2, sp.diff(u_expr[1], y)],
        ]
        div_u = sp.diff(u_expr[0], x) + sp.diff(u_expr[1], y)
        f_eps = [
            -(sp.diff(eps[0][0], x) + sp.diff(eps[0][1], y)),
            -(sp.diff(eps[1][0], x) + sp.diff(eps[1][1], y)),
        ]
        f_lam = [-sp.diff(div_u, x), -sp.diff(div_u, y)]
        grad_p = [[sp.diff(p, x), sp.diff(p, y)] for p in p_exprs]
        lap_p = [sp.diff(p, x, 2) + sp.diff(p, y, 2) for p in p_exprs]
        super().__init__(
            u=vec(u_expr),
            p=[scalar(p) for p in p_exprs],
            grad_p=[vec(g) for g in grad_p],
            f_eps=vec(f_eps),
            f_lam=vec(f_lam),
            div_u=scalar(div_u),
            lap_p=[scalar(l) for l in lap_p],
        )


def sympy_benchmark(n_networks):
    """The benchmark fields of :func:`mpet.manufactured.default_manufactured`
    as sympy expressions, with every load piece differentiated symbolically."""
    import sympy as sp

    x, y = sp.symbols("x y")
    phi = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    p1 = x**2 * (1 - x) ** 2 * y**2 * (1 - y) ** 2 - sp.Rational(1, 900)
    p2 = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 - sp.Rational(1, 4)
    return ManufacturedSolution((phi, phi), [p1, p2][:n_networks])


# ----------------------------------------------------------------------
# dense spectral references
# ----------------------------------------------------------------------


def preconditioned_spectrum(system_matrix, preconditioner_matrix, exclude=None):
    """All generalized eigenvalues of (K, B) with B SPD, densely.

    ``exclude`` restricts the pencil to the orthogonal complement of the
    given vectors through a complete QR basis.  The pencil is first
    Jacobi-scaled, ``D K D`` and ``D B D`` with ``D = diag(B)^-1/2`` (and
    the vectors by ``D``), which leaves its eigenvalues unchanged and
    keeps a ``B`` whose diagonal spans many orders of magnitude from
    costing ``eigh`` digits.
    """
    K = system_matrix.toarray() if sps.issparse(system_matrix) else np.asarray(system_matrix)
    B = (
        preconditioner_matrix.toarray()
        if sps.issparse(preconditioner_matrix)
        else np.asarray(preconditioner_matrix)
    )
    d = 1.0 / np.sqrt(np.diag(B))
    K = d[:, None] * K * d
    B = d[:, None] * B * d
    if exclude:
        # x = D z is orthogonal to a vector e exactly when z is to D e
        kmat = d[:, None] * np.column_stack(exclude)
        q, _ = np.linalg.qr(kmat, mode="complete")
        Q = q[:, kmat.shape[1] :]
        K = Q.T @ K @ Q
        B = Q.T @ B @ Q
    return eigh(0.5 * (K + K.T), 0.5 * (B + B.T), eigvals_only=True)


def spectrum_intervals(eigs, tol=1e-12):
    """Split eigenvalues into ``(neg, pos)`` ``(min, max)`` pairs."""
    eigs = np.sort(np.real(np.asarray(eigs)))
    neg = eigs[eigs < -tol]
    pos = eigs[eigs > tol]
    return (
        (float(neg.min()), float(neg.max())) if len(neg) else None,
        (float(pos.min()), float(pos.max())) if len(pos) else None,
    )


def free_positions(con, fields):
    """Positions in ``con.free`` of the free DOFs of ``fields`` (given in
    layout order), found by membership alone."""
    idx = np.concatenate([con.layout.indices(f) for f in fields])
    return np.flatnonzero(np.isin(con.free, idx))


def pressure_schur_complement(constrained):
    """Dense pressure Schur complement S_p = -B A^{-1} B^T - C on free DOFs."""
    con = constrained
    layout = con.layout
    iv = free_positions(con, layout.v_fields)
    iq = free_positions(con, layout.q_fields)
    K = con.K_ff.toarray()
    A = K[np.ix_(iv, iv)]
    B = K[np.ix_(iq, iv)]
    minusC = K[np.ix_(iq, iq)]
    return -B @ np.linalg.solve(A, B.T) + minusC


def estimate_inf_sup(kernels, which):
    """Discrete inf-sup constant by a dense Schur eigenvalue problem on the
    production-assembled matrices: the square root of the smallest nonzero
    generalized eigenvalue."""
    from mpet.assembly import displacement_hdg_factors, pressure_hdg_factors
    from mpet.diagnostics import _analysis_free_uu

    spaces = kernels.spaces
    if which == "stokes-like":
        free = _analysis_free_uu(spaces)
        A = displacement_hdg_factors(spaces).matrix()[np.ix_(free, free)].toarray()
        # columns: all free u DOFs first (uhat columns do not couple)
        Dfull = np.zeros((spaces.size_p, len(free)))
        u_free = free[free < spaces.size_u]
        Dfull[:, : len(u_free)] = kernels.D.toarray()[:, u_free]
        S = Dfull @ np.linalg.solve(A, Dfull.T)
        eigs = eigh(0.5 * (S + S.T), kernels.M_p.toarray(), eigvals_only=True)
    else:
        N = pressure_hdg_factors(spaces, include_h2=True).matrix().toarray()
        B = np.vstack([kernels.Dw.toarray(), -kernels.Ew.toarray()])
        S = B @ np.linalg.solve(kernels.M_w.toarray(), B.T)
        # both S and N share the constant (q, qhat) pair as kernel; reduce
        # to the positive eigenspace of N first
        d, V = np.linalg.eigh(0.5 * (N + N.T))
        Vk = V[:, d > 1e-10 * d.max()]
        eigs = eigh(Vk.T @ (0.5 * (S + S.T)) @ Vk, np.diag(d[d > 1e-10 * d.max()]),
                    eigvals_only=True)
    nonzero = eigs[eigs > 1e-10 * max(eigs.max(), 1e-300)]
    return float(np.sqrt(nonzero.min()))


# ----------------------------------------------------------------------
# per-point references for the data callables
# ----------------------------------------------------------------------


def _at_points(f, points, *args):
    """``f`` called at each point of ``points`` (m, 2) in turn, with per-point ``args``."""
    return np.array([np.asarray(f(x, *(a[k] for a in args)), dtype=float)
                     for k, x in enumerate(points)])


def pointwise_volume_rhs(mesh, spaces, f=None, g=(), degree=None):
    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    rule = triangle_quadrature(degree or 2 * spaces.ell + 4)
    pvals = spaces.p.eval(rule.points)
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        phys = amap.to_physical(rule.points)
        w = rule.weights * amap.det
        if f is not None:
            uvals = piola_map(amap, spaces.bdm.eval(rule.points)) * spaces.u_signs[t][:, None, None]
            F[spaces.u_dofmap[t]] += np.einsum("qc,iqc,q->i", _at_points(f, phys), uvals, w)
        for i, gi in enumerate(g or ()):
            if gi is not None:
                rows = layout.offsets[f"p{i}"] + spaces.p_dofs(t)
                F[rows] += np.einsum("q,iq,q->i", _at_points(gi, phys), pvals, w)
    return F


def pointwise_traction_rhs(mesh, spaces, bcs, t=0.0):
    """The traction load facet by facet, from the adjacent element's
    mapped basis: at each point of ``spaces.bc_rule``, ``(phi.n)(g.n)``
    on the u rows and ``P_m (g.t)`` on the uhat rows."""
    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    rule = spaces.bc_rule
    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        if kind != "traction":
            continue
        for f in bd.facets:
            elem, n = mesh.facet_elements[f, 0], mesh.facet_normal[f]
            pts = facet_points(mesh, f, rule.points)
            uv, _, _ = u_eval(mesh, spaces, elem, build_affine_map(mesh, elem).to_reference(pts))
            uh = uhat_eval(mesh, spaces, f, rule.points)
            for q, x in enumerate(pts):
                gv = np.asarray(fn(x, t, n), dtype=float)
                ds = rule.weights[q] * mesh.facet_length[f] / 2.0
                F[layout.sl("u")] += (uv[:, q] @ n) * (gv @ n) * ds
                F[layout.sl("uhat")] += (uh[:, q] @ gv) * ds
    return F


def pointwise_constraint_data(layout, spaces, bcs, t):
    """Essential values, returned as a dict ``global dof -> value``."""
    w = spaces.bc_rule.weights
    leg = spaces.bc_leg
    out = {}

    def put(field, facet, coeffs):
        for m, c in enumerate(coeffs):
            out[layout.offsets[field] + facet * len(coeffs) + m] = c

    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        for k, f in enumerate(bd.facets):
            if kind == "dirichlet":
                gv = _at_points(lambda x: fn(x, t), bd.points[k])
                gn, gt = gv @ bd.normal[k], gv @ bd.tangent[k]
                put("u", f, [(gn * leg[m] * w).sum() * bd.length[k] / 2
                             for m in range(spaces.n_u_edge)])
                put("uhat", f, [(2 * m + 1) / 2 * (gt * leg[m] * w).sum()
                                for m in range(spaces.n_uhat)])
            for i, pres in enumerate(bcs.pressure):
                pkind, pfn = pres[tag]
                if pkind == "dirichlet":
                    gv = _at_points(lambda x: pfn(x, t), bd.points[k])
                    put(f"phat{i}", f, [(2 * m + 1) / 2 * (gv * leg[m] * w).sum()
                                        for m in range(spaces.n_phat)])
    return out


def _pointwise_hdiv_moments(spaces, basis, f, degree=None):
    degree = degree or 2 * spaces.ell + 8
    edge_rule = segment_quadrature(degree)
    vol_rule = triangle_quadrature(degree)
    leg = legvander(edge_rule.points, basis.n_edge_modes - 1).T
    scale = _REF_EDGE_LENGTHS / 2.0 if basis.family == "bdm" else np.full(3, 0.5)
    out = np.empty((spaces.mesh.n_elements, basis.n_dofs))
    for t in range(spaces.mesh.n_elements):
        amap = build_affine_map(spaces.mesh, t)

        def pullback(ref):
            fv = _at_points(f, amap.to_physical(ref))
            return amap.det * fv @ amap.inv_transpose

        row = 0
        for j in range(3):
            vn = pullback(_edge_points(j, edge_rule.points)) @ _REF_EDGE_NORMALS[j]
            for m in range(basis.n_edge_modes):
                out[t, row] = (vn * leg[m] * edge_rule.weights).sum() * scale[j]
                row += 1
        if basis.n_interior:
            vol = pullback(vol_rule.points)
            for w in basis.interior_weights(vol_rule.points):
                out[t, row] = np.einsum("qc,qc,q->", vol, w, vol_rule.weights)
                row += 1
    return out


def pointwise_interpolate_u(spaces, f):
    coeffs = np.zeros(spaces.size_u)
    for t, moments in enumerate(_pointwise_hdiv_moments(spaces, spaces.bdm, f)):
        coeffs[spaces.u_dofmap[t]] = spaces.u_signs[t] * moments
    return coeffs


def pointwise_interpolate_w(spaces, f):
    return _pointwise_hdiv_moments(spaces, spaces.rt, f).ravel()


def pointwise_interpolate_p(spaces, f):
    rule = triangle_quadrature(2 * spaces.ell + 8)
    vals = spaces.p.eval(rule.points)
    mass = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
    coeffs = np.zeros(spaces.size_p)
    for t in range(spaces.mesh.n_elements):
        fv = _at_points(f, build_affine_map(spaces.mesh, t).to_physical(rule.points))
        rhs = np.einsum("iq,q,q->i", vals, fv, rule.weights)
        coeffs[spaces.p_dofs(t)] = np.linalg.solve(mass, rhs)
    return coeffs


def _pointwise_facet_projection(spaces, values, n_modes):
    rule = segment_quadrature(2 * spaces.ell + 8)
    leg = legvander(rule.points, n_modes - 1).T
    coeffs = np.zeros(spaces.mesh.n_facets * n_modes)
    for fct in range(spaces.mesh.n_facets):
        fv = np.array([values(x, fct) for x in facet_points(spaces.mesh, fct, rule.points)])
        for m in range(n_modes):
            coeffs[fct * n_modes + m] = (2 * m + 1) / 2.0 * (fv * leg[m] * rule.weights).sum()
    return coeffs


def pointwise_interpolate_phat(spaces, f):
    return _pointwise_facet_projection(spaces, lambda x, fct: float(f(x)), spaces.n_phat)


def pointwise_interpolate_uhat(spaces, f):
    tang = spaces.mesh.facet_tangent
    return _pointwise_facet_projection(
        spaces, lambda x, fct: float(np.dot(f(x), tang[fct])), spaces.n_uhat
    )


def einsum_pullback(maps, f, ref_points):
    """The inverse Piola transform ``det J J^-1 f`` of ``mpet.spaces._pullback``
    contracted by ``np.einsum``, the reference for its batched matmul."""
    fv = evaluate(f, maps.to_physical(ref_points), vector=True)
    return maps.det[:, None, None] * np.einsum("eba,eqb->eqa", maps.inv_transpose, fv)


# ----------------------------------------------------------------------
# reference compositions: the scipy expressions that the recorded
# patterns of mpet.sparsity replay as gathers
# ----------------------------------------------------------------------


def reference_operator(kernels, scaled):
    """``K`` composed with one ``sps.bmat`` over the field grid."""
    spaces = kernels.spaces
    n = scaled.n
    divdiv_padded = sps.block_diag(
        [scaled.lam * kernels.divdiv, sps.csr_matrix((spaces.size_uhat, spaces.size_uhat))],
        format="csr",
    )
    div_u = sps.hstack(
        [-kernels.D, sps.csr_matrix((spaces.size_p, spaces.size_uhat))], format="csr"
    )
    grid = [[None] * (1 + 3 * n) for _ in range(1 + 3 * n)]
    grid[0][0] = kernels.a_hdg + divdiv_padded
    for i in range(n):
        w, p, phat = 1 + i, 1 + n + i, 1 + 2 * n + i
        grid[w][w] = kernels.M_w / scaled.R[i]
        grid[p][0], grid[0][p] = div_u, div_u.T
        grid[p][w], grid[w][p] = -kernels.Dw, -kernels.Dw.T
        grid[phat][w], grid[w][phat] = kernels.Ew, kernels.Ew.T
        for j in np.flatnonzero(scaled.zeta[i]):
            grid[p][1 + n + j] = -scaled.zeta[i, j] * kernels.M_p
    return sps.bmat(grid, format="csr")


def reference_constrained(K, constrained):
    """``(K_ff, K_fc)`` by fancy indexing with ``np.ix_``."""
    free = np.setdiff1d(np.arange(K.shape[0]), constrained, assume_unique=True)
    return K[np.ix_(free, free)].tocsr(), K[np.ix_(free, constrained)].tocsr()


def _embed(mat, spaces, weights):
    """Weighted copies of a (p, phat) matrix on each network's diagonal of the q block."""
    n, np_ = len(weights), spaces.size_p
    coo = mat.tocoo()
    i = np.arange(n)[:, None]

    def place(idx):
        return (idx + np.where(idx < np_, i * np_, (n - 1) * np_ + i * spaces.size_phat)).ravel()

    vals = np.multiply.outer(np.asarray(weights, dtype=float), coo.data).ravel()
    size = n * mat.shape[0]
    return sps.csr_matrix((vals, (place(coo.row), place(coo.col))), shape=(size, size))


def _lambda_mass(kernels, Lambda):
    n = Lambda.shape[0]
    size = n * kernels.spaces.size_phat
    lam_mass = sps.kron(sps.csr_matrix(Lambda), kernels.M_p, format="csr")
    return sps.bmat([[lam_mass, None], [None, sps.csr_matrix((size, size))]], format="csr")


def reference_condensed(con):
    """``(K_red, C, Mw_inv)`` of the flux condensation by sparse subtraction."""
    layout = con.layout
    kernels = con.base.kernels
    R = con.base.scaled.R
    iu = free_positions(con, ["u", "uhat"])
    iw = free_positions(con, layout.v_fields[2:])
    iq = free_positions(con, layout.q_fields)
    q_free = con.free[iq]
    keep = np.concatenate([iu, iq])
    within = q_free - layout.size_v
    schur = _embed(kernels.S_w, kernels.spaces, R)[np.ix_(within, within)]
    K_red = con.K_ff[np.ix_(keep, keep)] - sps.block_diag(
        [sps.csr_matrix((len(iu), len(iu))), schur], format="csr"
    )
    return K_red, con.K_ff[np.ix_(iw, iq)], sps.kron(sps.diags(R), kernels.M_w_inv, format="csr")


def reference_preconditioner(con, scaled, reduced):
    """``(x_first, x_p)`` with the pressure block summed and restricted by scipy."""
    from mpet.assembly import pressure_hdg_factors

    layout = con.layout
    kernels = con.base.kernels
    spaces = kernels.spaces
    first = free_positions(con, ["u", "uhat"] if reduced else layout.v_fields)
    N = kernels.S_w if reduced else pressure_hdg_factors(spaces).matrix()
    q_free = con.free[free_positions(con, layout.q_fields)]
    iq = np.ix_(q_free - layout.size_v, q_free - layout.size_v)
    x_p = (_embed(N, spaces, scaled.R) + _lambda_mass(kernels, scaled.Lambda))[iq]
    return con.K_ff[np.ix_(first, first)], x_p


def reference_band_plan(mat, local):
    """The condensation plan of the CSR block ``mat`` with the rows
    ``local`` condensed, laid out whatever its band's size: ``perm``,
    ``inv``, ``w``, ``size``, ``pos``, ``groups``, ``take``, ``stacked``
    and ``coupling`` as :class:`mpet.solver._BandPlan` defines them, with
    ``coupling`` the CSR pattern ``(indices, indptr)`` of ``X_ll^-1 X_lk``
    and ``take_coupling`` the positions of its entries in ``stacked``."""
    n = mat.shape[0]
    lo, hi, _ = local.indices(n)
    local, keep = slice(lo, hi), slice(hi, n) if lo == 0 else slice(0, lo)
    label = connected_components(mat[local, local], directed=False)[1]
    across = mat[keep, local]
    reach = sps.csr_matrix((np.ones(across.nnz), label[across.indices], across.indptr),
                           shape=(across.shape[0], label.max() + 1))
    reach.sum_duplicates()
    kept = mat[keep, keep]
    pattern = sps.csr_matrix((np.ones(kept.nnz), kept.indices, kept.indptr), shape=kept.shape) + reach @ reach.T
    n_s = pattern.shape[0]
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n_s)
    cols, first = inv[pattern.indices], pattern.indptr[:-1]
    w = int(max((np.maximum.reduceat(cols, first) - inv).max(), (inv - np.minimum.reduceat(cols, first)).max()))
    size = n_s * (w + 1)
    plan = SimpleNamespace(perm=perm, inv=inv, w=w, size=size)
    reach = reach.T.tocsr()
    n_l = hi - lo
    inv = np.append(inv, n_s).astype(np.int32)
    rows, cols = np.repeat(np.arange(n), np.diff(mat.indptr)), mat.indices
    on_local = np.zeros(n, dtype=bool)
    on_local[lo:hi] = True
    kept = ~on_local[rows] & ~on_local[cols]
    to_s = np.arange(n) - keep.start

    def place(i, j):   # the band positions of the entries (i, j) of S
        i, j = inv[i], inv[j]
        return np.where((i <= j) & (j < n_s), w + i - j + (w + 1) * j, size)

    pos, plan.groups = [np.full(len(rows), size, dtype=np.int32)], []
    pos[0][kept] = place(to_s[rows[kept]], to_s[cols[kept]])
    s, t, first = np.bincount(label), np.diff(reach.indptr), reach.indptr[:-1]
    within = np.flatnonzero(on_local[rows] & on_local[cols])
    across = np.flatnonzero(on_local[rows] & ~on_local[cols])
    w_row, w_col, a_row = rows[within] - lo, cols[within] - lo, rows[across] - lo
    a_block = label[a_row]
    keys = np.repeat(np.arange(len(s)) * n_s, t) + reach.indices
    a_col = np.searchsorted(keys, a_block * n_s + to_s[cols[across]]) - first[a_block]
    order = np.argsort(s, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    start = np.cumsum(s[order]) - s[order]
    members = np.argsort(slot[label], kind="stable")
    k = np.empty(n_l, dtype=np.intp)
    k[members] = np.arange(n_l) - start[slot[label[members]]]
    bounds = np.flatnonzero(np.diff(s[order], prepend=0, append=0))
    batch = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[slot]
    rank = slot - bounds[batch]
    entries, done = [], 0
    for g, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        blocks = order[a:b]
        m, width = s[blocks[0]], t[blocks].max()
        on_w, on_a = batch[label[w_row]] == g, batch[a_block] == g
        at_w = (rank[label[w_row[on_w]]] * m + k[w_row[on_w]]) * m + k[w_col[on_w]]
        at_a = (rank[a_block[on_a]] * m + k[a_row[on_a]]) * width + a_col[on_a]
        plan.groups.append((b - a, m, width, (at_w, at_a), (within[on_w], across[on_a])))
        j = np.arange(width)
        reached = reach.indices[np.minimum(first[blocks, None] + j, len(reach.indices) - 1)]
        reached[j >= t[blocks, None]] = n_s
        pos.append(place(reached[:, :, None], reached[:, None, :]).ravel())
        block_rows = members[start[a:b, None] + np.arange(m)]
        stack_rows, stack_cols = np.broadcast_arrays(
            block_rows[:, :, None], np.concatenate([block_rows, n_l + reached], axis=1)[:, None, :])
        real = stack_cols < n_l + n_s
        entries.append((stack_rows[real], stack_cols[real], done + np.flatnonzero(real)))
        done += real.size
    stack_rows, stack_cols, real = map(np.concatenate, zip(*entries))
    ids = sps.csr_matrix((real + 1, (stack_rows, stack_cols)), shape=(n_l, n_l + n_s))
    plan.take, plan.stacked = ids.data - 1, (ids.indices, ids.indptr)
    ids.data = np.arange(1, ids.nnz + 1)
    coupling = ids[:, n_l:]
    plan.take_coupling, plan.coupling = coupling.data - 1, (coupling.indices, coupling.indptr)
    plan.pos = np.concatenate(pos)
    return plan


# ----------------------------------------------------------------------
# test-only matrices of assembled systems and norms
# ----------------------------------------------------------------------


def symmetry_defect(K):
    """Largest entry of ``K - K^T`` relative to the largest entry of ``K``."""
    d = K - K.T
    denom = max(abs(K.max()), abs(K.min()), 1e-300)
    if d.nnz == 0:
        return 0.0
    return max(abs(d.max()), abs(d.min())) / denom


# ----------------------------------------------------------------------
# norm factors of the whole mesh in one array
# ----------------------------------------------------------------------


def whole_mesh_norm_factors(spaces, norm, include_h2=False):
    """``(size, terms)`` of ``norm`` ("u_hdg", "p_hdg" or "divdiv").

    The terms ``(dofs (e, i), factor (e, i, k))`` are those of the
    ``NormFactors`` of :mod:`mpet.assembly`, in its term order, each
    evaluated for every element in one array.
    """
    from mpet.assembly import _sym, _weighted

    s, mesh = spaces, spaces.mesh
    wq = s.vol_rule.weights * mesh.element_maps.det[:, None]
    if norm == "divdiv":
        return s.size_u, [(s.u_dofmap, _weighted(s.on_elements("u_div", s.bdm_divs), wq))]
    if norm == "u_hdg":
        dofs, size = s.u_dofmap, s.size_u + s.size_uhat
        terms = [(dofs, _weighted(_sym(s.on_elements("u_grad", s.bdm_grads)), wq))]
        hess = ("u_hess", s.bdm.eval_hess(s.vol_rule.points))
    else:
        dofs, size = s.p_dofs(np.arange(mesh.n_elements)), s.size_p + s.size_phat
        terms = [(dofs, _weighted(s.on_elements("p_grad", s.p_grads), wq))]
        hess = ("p_hess", s.p.eval_hess(s.vol_rule.points))
    if include_h2:
        terms.append((dofs, _weighted(s.on_elements(*hess), wq * (mesh.element_h**2)[:, None])))
    for j in range(3):
        f = mesh.element_facets[:, j]
        h = mesh.facet_length[f]
        ds = s.edge_rule.weights * (h / 2.0)[:, None]
        if norm == "u_hdg":
            n_out = mesh.facet_sign[:, j, None] * mesh.facet_normal[f]
            tr = s.on_edge("u", s.bdm_edge_vals, j)
            u_t = tr - np.einsum("eiq,ea->eiqa", np.einsum("eiqa,ea->eiq", tr, n_out), n_out)
            uhat = np.einsum("mq,ea->emqa", s.leg_edge[: s.n_uhat], mesh.facet_tangent[f])
            rows = np.concatenate([s.u_dofmap, s.size_u + s.uhat_dofs(f)], axis=1)
            basis = np.concatenate([-u_t, uhat], axis=1)
        else:
            tr = s.on_edge("p", s.p_edge_vals, j)
            rows = np.concatenate([dofs, s.size_p + s.phat_dofs(f)], axis=1)
            basis = np.concatenate([-tr, s.on_elements("p", s.leg_edge[: s.n_phat])], axis=1)
        terms.append((rows, _weighted(basis, ds / h[:, None])))
    return size, terms


def concatenated_scatter(shape, *terms):
    """Sparse sum of element blocks ``(rows (e, i), cols (e, j), blocks (e, i, j))``
    from the concatenated per-term copies of their broadcast indices and
    values, which scipy casts to its index dtype."""
    rows = [np.broadcast_to(r[:, :, None], b.shape).ravel() for r, _, b in terms]
    cols = [np.broadcast_to(c[:, None, :], b.shape).ravel() for _, c, b in terms]
    vals = np.concatenate([b.ravel() for _, _, b in terms])
    return sps.csr_matrix((vals, (np.concatenate(rows), np.concatenate(cols))), shape=shape)


def whole_mesh_norm_matrix(size, terms):
    """The norm matrix of whole-mesh ``terms``: one scatter of their ``f f^T`` blocks."""
    from mpet.assembly import _scatter

    return _scatter((size, size), *[(d, d, f @ np.swapaxes(f, 1, 2)) for d, f in terms])


def whole_mesh_norm2(terms, x):
    """Squared norm of ``x``: the sum of squares of its weighted values."""
    return float(sum(np.square(np.einsum("ei,eik->ek", x[d], f)).sum() for d, f in terms))


# ----------------------------------------------------------------------
# unrecorded time-step formulas
# ----------------------------------------------------------------------


def unrecorded_constraint_data(layout, spaces, bcs, t):
    """Constrained DOFs and values, reduced tag by tag and field by field."""
    from mpet.spaces import evaluate, legendre_scale

    idx, val = [], []

    def moments(samples, n_modes):
        return ((samples[:, None, :] * spaces.bc_leg[:n_modes]) * spaces.bc_rule.weights).sum(axis=-1)

    def add(field, facets, values):
        n_modes = values.shape[1]
        idx.append(layout.offsets[field] + facets[:, None] * n_modes + np.arange(n_modes))
        val.append(values)

    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        if kind == "dirichlet":
            gv = evaluate(lambda x: fn(x, t), bd.points, vector=True)
            gn = np.einsum("fqc,fc->fq", gv, bd.normal)
            gt = np.einsum("fqc,fc->fq", gv, bd.tangent)
            add("u", bd.facets, moments(gn, spaces.n_u_edge) * bd.length[:, None] / 2.0)
            add("uhat", bd.facets,
                legendre_scale(spaces.n_uhat) * moments(gt, spaces.n_uhat))
        for i, pres in enumerate(bcs.pressure):
            pkind, pfn = pres[tag]
            if pkind == "dirichlet":
                gv = evaluate(lambda x: pfn(x, t), bd.points)
                add(f"phat{i}", bd.facets,
                    legendre_scale(spaces.n_phat) * moments(gv, spaces.n_phat))
    idx = np.concatenate([a.ravel() for a in idx])
    order = np.argsort(idx)
    return idx[order], np.concatenate([a.ravel() for a in val])[order]


def unrecorded_traction_rhs(spaces, bcs, t):
    """The traction load as the facet moments of g.n and g.t, contracted
    per tag with ``einsum``."""
    from mpet.spaces import legendre_scale

    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    n_modes = spaces.n_uhat
    leg_w = spaces.bc_leg[:n_modes] * spaces.bc_rule.weights
    modes = np.arange(n_modes)
    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        if kind != "traction":
            continue
        normals = np.broadcast_to(bd.normal[:, None, :], bd.points.shape)
        gv = evaluate(lambda x, n: fn(x, t, n), bd.points, normals, vector=True)
        F[layout.offsets["u"] + bd.facets[:, None] * spaces.n_u_edge + modes] += (
            legendre_scale(n_modes) * np.einsum("fqc,fc,mq->fm", gv, bd.normal, leg_w))
        F[layout.offsets["uhat"] + bd.facets[:, None] * n_modes + modes] += (
            bd.length[:, None] / 2.0 * np.einsum("fqc,fc,mq->fm", gv, bd.tangent, leg_w))
    return F


def unrecorded_step_rhs(stepper, state, t_k):
    """The step right-hand side with the recurrence network by network."""
    from mpet.assembly import assemble_volume_rhs

    sc, layout, kernels = stepper.scenario, stepper.layout, stepper.kernels
    phys = sc.phys
    F = np.zeros(layout.total)
    f = g = None
    if sc.body_force is not None:
        f = lambda x: np.asarray(sc.body_force(x, t_k)) / (2.0 * phys.mu)
    if sc.mass_sources is not None:
        g = [None if fn is None else (lambda x, fn=fn, i=i: -phys.tau / phys.alpha[i] * fn(x, t_k))
             for i, fn in enumerate(sc.mass_sources)]
    if f is not None or g is not None:
        F += assemble_volume_rhs(stepper.spaces, f=f, g=g)
    F += unrecorded_traction_rhs(stepper.spaces, stepper.bcs_scaled, t_k)
    div_u = kernels.D @ state.u
    for i in range(phys.n):
        F[layout.sl(f"p{i}")] += -div_u - phys.s[i] / phys.alpha[i] * (kernels.M_p @ state.p[i])
    return F


def unrecorded_probe_values(stepper, state):
    """Probe values from each probe's element basis, network by network."""
    sc, spaces = stepper.scenario, stepper.spaces
    values = {f"p{i + 1}": [] for i in range(sc.n_networks)}
    values["u_mag"] = []
    for point in sc.probes:
        elem, ref = sc.mesh.locate_point(point)
        ref = np.atleast_2d(ref)
        pvals = spaces.p.eval(ref)[:, 0]
        bvals = piola_map(build_affine_map(sc.mesh, elem), spaces.bdm.eval(ref))[:, 0, :]
        bvals = bvals * spaces.u_signs[elem][:, None]
        for i in range(sc.n_networks):
            values[f"p{i + 1}"].append(float(state.p[i][spaces.p_dofs(elem)] @ pvals) / sc.pressure_unit)
        values["u_mag"].append(float(np.hypot(*(state.u[spaces.u_dofmap[elem]] @ bvals))))
    return values
