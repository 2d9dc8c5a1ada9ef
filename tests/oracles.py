"""Brute-force dense assembly oracles.

Every matrix entry is built by direct quadrature loops over freshly
computed points, evaluating basis functions straight from the reference
definitions.  No trace caches, no batched einsum contractions, no sparse
scatter: this is the slow textbook path the production assembler is
checked against.

The ``pointwise_*`` references compute the right-hand sides, boundary
values and interpolants element by element (or facet by facet) and call
every data callable at one point ``x`` of shape ``(2,)`` at a time.

The dense spectral references compute every eigenvalue of the pencils
that the diagnostics reach by sparse Lanczos runs.
"""

import numpy as np
import scipy.sparse as sps
from numpy.polynomial.legendre import legvander
from scipy.linalg import eigh

from mpet.assembly import DofLayout
from mpet.mesh import build_affine_map
from mpet.spaces import (
    _REF_EDGE_LENGTHS,
    _REF_EDGE_NORMALS,
    _edge_points,
    eval_basis,
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
    bordered factor stands for."""
    dense = mat.toarray()
    scale = abs(dense.diagonal()).mean()
    for k in kernel_vectors:
        dense = dense + scale * np.outer(k, k) / float(k @ k)
    return dense


# ----------------------------------------------------------------------
# dense spectral references
# ----------------------------------------------------------------------


def preconditioned_spectrum(system_matrix, preconditioner_matrix, exclude=None):
    """All generalized eigenvalues of (K, B) with B SPD, densely.

    ``exclude`` restricts the pencil to the orthogonal complement of the
    given vectors through a complete QR basis.
    """
    K = system_matrix.toarray() if sps.issparse(system_matrix) else np.asarray(system_matrix)
    B = (
        preconditioner_matrix.toarray()
        if sps.issparse(preconditioner_matrix)
        else np.asarray(preconditioner_matrix)
    )
    if exclude:
        kmat = np.column_stack(exclude)
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


def pressure_schur_complement(constrained):
    """Dense pressure Schur complement S_p = -B A^{-1} B^T - C on free DOFs."""
    con = constrained
    layout = con.layout
    pos = con.free_pos
    iv = pos[np.concatenate([layout.indices(f) for f in layout.v_fields])]
    iv = iv[iv >= 0]
    iq = pos[np.concatenate([layout.indices(f) for f in layout.q_fields])]
    iq = iq[iq >= 0]
    K = con.K_ff.toarray()
    A = K[np.ix_(iv, iv)]
    B = K[np.ix_(iq, iv)]
    minusC = K[np.ix_(iq, iq)]
    return -B @ np.linalg.solve(A, B.T) + minusC


def estimate_inf_sup(kernels, which):
    """Discrete inf-sup constant by a dense Schur eigenvalue problem on the
    production-assembled matrices: the square root of the smallest nonzero
    generalized eigenvalue."""
    from mpet.assembly import displacement_hdg_matrix, pressure_hdg_matrix
    from mpet.diagnostics import _analysis_free_uu

    spaces = kernels.spaces
    if which == "stokes-like":
        free = _analysis_free_uu(spaces)
        A = displacement_hdg_matrix(spaces, include_h2=True)[np.ix_(free, free)].toarray()
        # columns: all free u DOFs first (uhat columns do not couple)
        Dfull = np.zeros((spaces.size_p, len(free)))
        u_free = free[free < spaces.size_u]
        Dfull[:, : len(u_free)] = kernels.D.toarray()[:, u_free]
        S = Dfull @ np.linalg.solve(A, Dfull.T)
        eigs = eigh(0.5 * (S + S.T), kernels.M_p.toarray(), eigvals_only=True)
    else:
        N = pressure_hdg_matrix(spaces, include_h2=True).toarray()
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
    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        if kind != "traction":
            continue
        for k in range(len(bd.facets)):
            for q, x in enumerate(bd.edge_points[k]):
                gv = np.asarray(fn(x, t, bd.normal[k]), dtype=float)
                F[bd.u_dofs[k]] += bd.u_trace[k, :, q, :] @ gv * bd.ds[k, q]
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
            for w in basis._interior_weights():
                out[t, row] = np.einsum("qc,qc,q->", vol, w(vol_rule.points), vol_rule.weights)
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
