"""Assembly of the HDG / hybrid-mixed block system.

The discrete single-step problem is one symmetric indefinite operator
``K`` on x = (u, uhat, w_1..w_n, p_1..p_n, phat_1..phat_n), composed over
the field grid (u+uhat, w_i, p_i, phat_i):

    [ A_hdg + lam divdiv   0              -D^T       0     ]
    [ 0                    M_w / R_i      -Dw^T      Ew^T  ]
    [ -D                   -Dw            -zeta M_p  0     ]
    [ 0                    Ew             0          0     ]

with the stabilized elasticity form on (u, uhat), the weighted flux
masses, the divergence coupling and hybrid-mixed b-form, and the network
transfer masses ``-zeta_ij M_p`` (present only where ``zeta_ij != 0``).

Assembly is split into parameter-independent kernels and cheap
parameter-weighted composition, so parameter sweeps reuse the expensive
part.  Functions take the space set alone and read the geometry from
``spaces.mesh``.  Every element and facet integral (the kernels, the HDG
norm matrices, the volume load) is computed for all elements at once:
bases mapped by ``SpaceSet.on_elements`` carry a leading element axis,
the facet terms take one pass per local edge, ``_gram`` contracts each
quadrature sum as one batched matmul, and ``_scatter`` sums the element
blocks into a sparse matrix.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .spaces import evaluate, legendre_scale, triangle_quadrature

__all__ = [
    "DofLayout",
    "FormKernels",
    "BlockSystem",
    "BoundaryConditionSet",
    "ConstrainedSystem",
    "assemble_kernels",
    "build_block_system",
    "assemble_volume_rhs",
    "assemble_traction_rhs",
    "apply_boundary_conditions",
    "pressure_nullspace",
    "constant_pressure_mode",
    "displacement_hdg_matrix",
    "displacement_hdg_factors",
    "divdiv_factors",
    "NormFactors",
    "pressure_hdg_matrix",
    "pressure_hdg_factors",
]

DEFAULT_ETA = 10.0


# ----------------------------------------------------------------------
# global layout
# ----------------------------------------------------------------------


class DofLayout:
    """Offsets of the fields in the global vector.

    Order: u, uhat, w_0..w_{n-1}, p_0..p_{n-1}, phat_0..phat_{n-1}.
    The first 2 + n fields form the "velocity" side (u, uhat, w), the rest
    the pressure side (q).
    """

    def __init__(self, spaces):
        n = spaces.n_networks
        self.n_networks = n
        names = ["u", "uhat"] + [f"w{i}" for i in range(n)]
        sizes = [spaces.size_u, spaces.size_uhat] + [spaces.size_w] * n
        names += [f"p{i}" for i in range(n)] + [f"phat{i}" for i in range(n)]
        sizes += [spaces.size_p] * n + [spaces.size_phat] * n
        self.names = names
        self.sizes = dict(zip(names, sizes))
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.offsets = dict(zip(names, offsets[:-1].astype(int)))
        self.total = int(offsets[-1])
        self.v_fields = names[: 2 + n]
        self.q_fields = names[2 + n :]
        self.size_v = sum(self.sizes[f] for f in self.v_fields)

    def sl(self, name):
        o = self.offsets[name]
        return slice(o, o + self.sizes[name])

    def indices(self, name):
        o = self.offsets[name]
        return np.arange(o, o + self.sizes[name])


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


@dataclass
class FormKernels:
    """Parameter-independent form matrices on a fixed mesh and space set.

    ``M_p`` is element-block-diagonal; ``p_mass_inv[t]`` is the inverse of
    its ``(n_p, n_p)`` block on element ``t``, the Riesz map of the broken
    pressure space used by the conservation diagnostics.
    """

    spaces: object
    a_hdg: sps.csr_matrix        # (u + uhat) x (u + uhat), includes penalty
    divdiv: sps.csr_matrix       # u x u
    D: sps.csr_matrix            # p x u, entries (div psi_u, phi_p)
    Dw: sps.csr_matrix           # p x w, entries (div psi_w, phi_p)
    Ew: sps.csr_matrix           # phat x w, entries (psi_w . n, phi_phat)_dT
    M_w: sps.csr_matrix          # w x w plain mass
    M_p: sps.csr_matrix          # p x p mass
    volume: float
    p_mass_inv: np.ndarray = field(repr=False)   # (n_elements, n_p, n_p)


def assemble_kernels(spaces, eta=DEFAULT_ETA):
    """Every parameter-free form matrix, from batched element and facet integrals."""
    if eta <= 0.0:
        raise ValueError("penalty parameter eta must be positive")
    s = spaces
    mesh = s.mesh
    elements = np.arange(mesh.n_elements)
    udofs, wdofs, pdofs = s.u_dofmap, s.w_dofs(elements), s.p_dofs(elements)
    wq = s.vol_rule.weights * mesh.element_maps.det[:, None]
    eps = _sym(s.on_elements("u_grad", s.bdm_grads))
    udivs = s.on_elements("u_div", s.bdm_divs)
    wvals = s.on_elements("w", s.rt_vals)
    wdivs = s.on_elements("w_div", s.rt_divs)
    pvals = s.on_elements("p", s.p_vals)
    p_mass = _gram(pvals, pvals, wq)

    a_terms = [(udofs, udofs, _gram(eps, eps, wq))]
    ew_terms = []
    for j in range(3):
        f, h, ds, n_out = _facet_frame(s, j)
        rows, jump = _u_jump(s, j)
        # consistency term (eps(v) n, jump), zero on the uhat rows
        tr_eps = _sym(s.on_edge("u_grad", s.bdm_edge_grads, j))
        eps_n = np.einsum("eiqab,eb->eiqa", tr_eps, n_out)
        eps_n = np.concatenate([eps_n, np.zeros_like(jump[:, eps_n.shape[1] :])], axis=1)
        cross = _gram(eps_n, jump, ds)
        penalty = (eta * s.ell**2 / h)[:, None, None] * _gram(jump, jump, ds)
        a_terms.append((rows, rows, cross + np.swapaxes(cross, 1, 2) + penalty))
        # b-form facet part: (psi_w . n, phi_phat) over dT
        wn = np.einsum("eiqa,ea->eiq", s.on_edge("w", s.rt_edge_vals, j), n_out)
        phat = s.on_elements("p", s.leg_edge[: s.n_phat])
        ew_terms.append((s.phat_dofs(f), wdofs, _gram(phat, wn, ds)))

    size_uu = s.size_u + s.size_uhat
    return FormKernels(
        spaces=spaces,
        a_hdg=_scatter((size_uu, size_uu), *a_terms),
        divdiv=divdiv_factors(s).matrix(),
        D=_scatter((s.size_p, s.size_u), (pdofs, udofs, _gram(pvals, udivs, wq))),
        Dw=_scatter((s.size_p, s.size_w), (pdofs, wdofs, _gram(pvals, wdivs, wq))),
        Ew=_scatter((s.size_phat, s.size_w), *ew_terms),
        M_w=_scatter((s.size_w, s.size_w), (wdofs, wdofs, _gram(wvals, wvals, wq))),
        M_p=_scatter((s.size_p, s.size_p), (pdofs, pdofs, p_mass)),
        volume=float(mesh.element_area.sum()),
        p_mass_inv=np.linalg.inv(p_mass),
    )


# ----------------------------------------------------------------------
# batched element / facet engine
# ----------------------------------------------------------------------


def _facet_frame(spaces, j):
    """Facets, lengths, edge-rule weights and outward normals of local edge ``j``."""
    mesh = spaces.mesh
    f = mesh.element_facets[:, j]
    h = mesh.facet_length[f]
    ds = spaces.edge_rule.weights * (h / 2.0)[:, None]
    return f, h, ds, mesh.facet_sign[:, j, None] * mesh.facet_normal[f]


def _u_jump(spaces, j):
    """Basis of (vhat - v)_t on local edge ``j`` of every element.

    Rows are the element's u dofs, then the uhat dofs of its facet;
    returns ``(rows (e, i), basis (e, i, q, 2))``.
    """
    s = spaces
    f, _, _, n_out = _facet_frame(s, j)
    tr = s.on_edge("u", s.bdm_edge_vals, j)
    u_t = tr - np.einsum("eiq,ea->eiqa", np.einsum("eiqa,ea->eiq", tr, n_out), n_out)
    uhat = np.einsum("mq,ea->emqa", s.leg_edge[: s.n_uhat], s.mesh.facet_tangent[f])
    rows = np.concatenate([s.u_dofmap, s.size_u + s.uhat_dofs(f)], axis=1)
    return rows, np.concatenate([-u_t, uhat], axis=1)


def _p_jump(spaces, j):
    """Basis of phat - p on local edge ``j`` of every element, as :func:`_u_jump`."""
    s = spaces
    f = s.mesh.element_facets[:, j]
    tr = s.on_edge("p", s.p_edge_vals, j)
    rows = np.concatenate([s.p_dofs(np.arange(len(f))), s.size_p + s.phat_dofs(f)], axis=1)
    return rows, np.concatenate([-tr, s.on_elements("p", s.leg_edge[: s.n_phat])], axis=1)


def _sym(grads):
    return 0.5 * (grads + np.swapaxes(grads, -1, -2))


def _gram(a, b, w):
    """Element blocks ``sum_q w[e, q] a[e, i, q, ...] . b[e, j, q, ...]``.

    One batched matmul over the flattened (quadrature point x tensor)
    axis.  Each side carries sqrt(w), so a basis's Gram with itself is the
    single product B B^T and comes out exactly symmetric.
    """
    aw = _weighted(a, w)
    bw = aw if b is a else _weighted(b, w)
    return aw @ np.swapaxes(bw, 1, 2)


def _weighted(a, w):
    """``a[e, i, q, ...] * sqrt(w[e, q])`` with the quadrature and tensor axes flattened."""
    ne, ni, nq = a.shape[:3]
    return (a * np.sqrt(w).reshape((ne, 1, nq) + (1,) * (a.ndim - 3))).reshape(ne, ni, -1)


def _scatter(shape, *terms):
    """Sparse sum of element blocks ``(rows (e, i), cols (e, j), blocks (e, i, j))``."""
    rows = [np.broadcast_to(r[:, :, None], b.shape).ravel() for r, _, b in terms]
    cols = [np.broadcast_to(c[:, None, :], b.shape).ravel() for _, c, b in terms]
    vals = np.concatenate([b.ravel() for _, _, b in terms])
    return sps.csr_matrix((vals, (np.concatenate(rows), np.concatenate(cols))), shape=shape)


class NormFactors:
    """A norm matrix kept as its element factors.

    Each term ``(dofs (e, i), factor (e, i, k))`` adds the blocks
    ``factor factor^T``, where ``factor`` holds a basis's sqrt(w)-weighted
    quadrature values (see :func:`_weighted`).  The squared norm of a
    coefficient vector is then a sum of squares of its own weighted
    values: on the kernel of the matrix it is rounding squared, where the
    quadratic form ``x^T N x`` would be rounding of either sign.
    """

    def __init__(self, size, terms):
        self.size = size
        self.terms = terms

    def matrix(self):
        blocks = [(d, d, f @ np.swapaxes(f, 1, 2)) for d, f in self.terms]
        return _scatter((self.size, self.size), *blocks)

    def norm2(self, x):
        return float(sum(np.square(np.einsum("ei,eik->ek", x[d], f)).sum() for d, f in self.terms))


def _hdg_norm(spaces, dofs, grads, hess, jump, size):
    """Volume Gram of ``grads`` (+ h_T^2 that of ``hess``), plus h_F^-1 Grams of ``jump``."""
    mesh = spaces.mesh
    wq = spaces.vol_rule.weights * mesh.element_maps.det[:, None]
    terms = [(dofs, _weighted(grads, wq))]
    if hess is not None:
        terms.append((dofs, _weighted(hess, wq * (mesh.element_h**2)[:, None])))
    for j in range(3):
        _, h, ds, _ = _facet_frame(spaces, j)
        rows, basis = jump(spaces, j)
        terms.append((rows, _weighted(basis, ds / h[:, None])))
    return NormFactors(size, terms)


def divdiv_factors(spaces):
    """:class:`NormFactors` of the div-div kernel ``FormKernels.divdiv``."""
    s = spaces
    wq = s.vol_rule.weights * s.mesh.element_maps.det[:, None]
    return NormFactors(s.size_u, [(s.u_dofmap, _weighted(s.on_elements("u_div", s.bdm_divs), wq))])


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------


@dataclass
class BlockSystem:
    """The assembled operator ``K`` (see the module docstring) plus right-hand side."""

    layout: DofLayout
    K: sps.csr_matrix
    F: np.ndarray
    kernels: FormKernels
    scaled: object

    def symmetry_defect(self):
        d = self.K - self.K.T
        denom = max(abs(self.K.max()), abs(self.K.min()), 1e-300)
        if d.nnz == 0:
            return 0.0
        return max(abs(d.max()), abs(d.min())) / denom


def build_block_system(kernels, scaled):
    """Compose the parameter-weighted operator from the kernels in one block grid."""
    spaces = kernels.spaces
    n = scaled.n
    if n != spaces.n_networks:
        raise ValueError("network count of parameters and spaces disagree")
    divdiv_padded = sps.block_diag(
        [scaled.lam * kernels.divdiv, sps.csr_matrix((spaces.size_uhat, spaces.size_uhat))],
        format="csr",
    )
    div_u = sps.hstack(
        [-kernels.D, sps.csr_matrix((spaces.size_p, spaces.size_uhat))], format="csr"
    )
    # grid rows and columns: u+uhat, w_0..w_{n-1}, p_0..p_{n-1}, phat_0..phat_{n-1}
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
    layout = DofLayout(spaces)
    return BlockSystem(
        layout=layout,
        K=sps.bmat(grid, format="csr"),
        F=np.zeros(layout.total),
        kernels=kernels,
        scaled=scaled,
    )


def _lambda_mass_q(kernels, scaled):
    """Lambda-weighted pressure mass on the q block (zeros on the multipliers)."""
    spaces = kernels.spaces
    n = scaled.n
    lam_mass = sps.kron(sps.csr_matrix(scaled.Lambda), kernels.M_p, format="csr")
    z = sps.csr_matrix((n * spaces.size_phat, n * spaces.size_phat))
    return sps.bmat([[lam_mass, None], [None, z]], format="csr")


def _embed_per_network(mat, spaces, weights):
    """Place a (p, phat) matrix on each network's diagonal with given weights.

    The q block orders all volume pressures first, then all multipliers,
    so the embedding splits the per-network matrix into its four parts.
    """
    np_ = spaces.size_p
    mat = mat.tocsr()
    parts = [[mat[:np_, :np_], mat[:np_, np_:]], [mat[np_:, :np_], mat[np_:, np_:]]]
    grid = [[sps.block_diag([w * a for w in weights], format="csr") for a in row] for row in parts]
    return sps.bmat(grid, format="csr")


# ----------------------------------------------------------------------
# norm-realization matrices
# ----------------------------------------------------------------------


def displacement_hdg_matrix(spaces, include_h2=True):
    """Matrix of the displacement HDG norm on (u, uhat).

    Strain mass plus h^-1 tangential jump terms; the h^2 second-derivative
    seminorm is diagnostics-only and can be switched off (the block
    preconditioner uses the stabilized bilinear form instead).
    """
    return displacement_hdg_factors(spaces, include_h2).matrix()


def displacement_hdg_factors(spaces, include_h2=True):
    """:class:`NormFactors` of :func:`displacement_hdg_matrix`."""
    s = spaces
    eps = _sym(s.on_elements("u_grad", s.bdm_grads))
    hess = s.on_elements("u_hess", s.bdm.eval_hess(s.vol_rule.points)) if include_h2 else None
    return _hdg_norm(s, s.u_dofmap, eps, hess, _u_jump, s.size_u + s.size_uhat)


def pressure_hdg_matrix(spaces, include_h2=False):
    """Matrix of the pressure HDG norm on (p, phat) for a single network."""
    return pressure_hdg_factors(spaces, include_h2).matrix()


def pressure_hdg_factors(spaces, include_h2=False):
    """:class:`NormFactors` of :func:`pressure_hdg_matrix`."""
    s = spaces
    grads = s.on_elements("p_grad", s.p_grads)
    hess = s.on_elements("p_hess", s.p.eval_hess(s.vol_rule.points)) if include_h2 else None
    pdofs = s.p_dofs(np.arange(s.mesh.n_elements))
    return _hdg_norm(s, pdofs, grads, hess, _p_jump, s.size_p + s.size_phat)


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------


def assemble_volume_rhs(spaces, f=None, g=None, degree=None):
    """Volume load vector for a body force ``f(x)`` and sources ``g[i](x)``.

    Each callable is called once, at the quadrature points of all
    elements (see :func:`~mpet.spaces.evaluate`).  Returns a full-layout
    vector.  Mass sources enter the pressure test rows as assembled,
    matching the sign convention of the third block row (the caller
    provides g already in scaled form).
    """
    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    rule = triangle_quadrature(degree or 2 * spaces.ell + 4)
    maps = spaces.mesh.element_maps
    wq = rule.weights * maps.det[:, None]
    phys = maps.to_physical(rule.points)
    if f is not None:
        uvals = spaces.on_elements("u", spaces.bdm.eval(rule.points))
        loads = np.einsum("eqc,euqc,eq->eu", evaluate(f, phys, vector=True), uvals, wq)
        F_u = np.bincount(spaces.u_dofmap.ravel(), loads.ravel(), minlength=spaces.size_u)
        F[layout.sl("u")] += F_u
    p_vals = spaces.p.eval(rule.points)
    for i, gi in enumerate(g or ()):
        if gi is not None:
            gv = evaluate(gi, phys)
            F[layout.sl(f"p{i}")] += np.einsum("eq,pq,eq->ep", gv, p_vals, wq).ravel()
    return F


def assemble_traction_rhs(spaces, bcs, t=0.0):
    """Natural surface load on the displacement rows from traction tags.

    The facet geometry comes from ``spaces.boundary``; each traction
    callable ``g(x, t, n)`` is called once, at the edge-rule points of its
    tag and their outward normals, and contracted with the stored traces.
    """
    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    F_u = F[layout.sl("u")]
    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        if kind != "traction":
            continue
        normals = np.broadcast_to(bd.normal[:, None, :], bd.edge_points.shape)
        gv = evaluate(lambda x, n: fn(x, t, n), bd.edge_points, normals, vector=True)
        loads = np.einsum("fqc,fuqc,fq->fu", gv, bd.u_trace, bd.ds)
        F_u += np.bincount(bd.u_dofs.ravel(), loads.ravel(), minlength=spaces.size_u)
    return F


# ----------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------


class BoundaryConditionSet:
    """Boundary data in scaled variables.

    ``displacement``: tag -> ("dirichlet", g(x, t) -> (2,)) or
    ("traction", g(x, t, n) -> (2,)).
    ``pressure``: one dict per network, tag -> ("dirichlet", g(x, t))
    or ("flux", None) for the zero-flux condition.

    Each callable is called once per tag with all of its points,
    coordinate-first: ``x`` (and ``n``) of shape ``(2, m)``; see
    :func:`~mpet.spaces.evaluate` for the shapes it may return.
    """

    def __init__(self, displacement, pressure):
        self.displacement = dict(displacement)
        self.pressure = [dict(p) for p in pressure]

    def validate(self, mesh):
        tags = set(mesh.boundary_tags.values())
        for tag in tags:
            if tag not in self.displacement:
                raise ValueError(f"no displacement condition for boundary tag {tag!r}")
            for i, pres in enumerate(self.pressure):
                if tag not in pres:
                    raise ValueError(f"no pressure condition for network {i}, tag {tag!r}")
        return True


def homogeneous_bcs(n_networks, tags=("boundary",), pressure="flux"):
    """Zero displacement Dirichlet everywhere; zero-flux or zero-Dirichlet pressures."""
    zero2 = lambda x, t: np.zeros(2)
    disp = {tag: ("dirichlet", zero2) for tag in tags}
    if pressure == "flux":
        pres = [{tag: ("flux", None) for tag in tags} for _ in range(n_networks)]
    else:
        pres = [{tag: ("dirichlet", lambda x, t: 0.0) for tag in tags} for _ in range(n_networks)]
    return BoundaryConditionSet(disp, pres)


@dataclass
class ConstrainedSystem:
    """Block system restricted to free DOFs, with lift data for resolves."""

    base: BlockSystem
    free: np.ndarray
    constrained: np.ndarray
    values: np.ndarray
    K_ff: sps.csr_matrix
    K_fc: sps.csr_matrix
    free_pos: np.ndarray      # total-length map: global dof -> position in free list (-1)

    @property
    def layout(self):
        return self.base.layout

    def rhs(self, F_full=None):
        F = self.base.F if F_full is None else F_full
        return F[self.free] - self.K_fc @ self.values

    def expand(self, x_free):
        x = np.zeros(self.base.layout.total)
        x[self.free] = x_free
        x[self.constrained] = self.values
        return x

    def free_in(self, fields):
        """Global indices of the free DOFs of ``fields``, in layout order."""
        idx = np.concatenate([self.layout.indices(f) for f in fields])
        return idx[self.free_pos[idx] >= 0]

    def update_values(self, bcs, t):
        """Recompute constrained values for time-dependent profiles."""
        _, self.values = constraint_data(self.layout, self.base.kernels.spaces, bcs, t)


def constraint_data(layout, spaces, bcs, t):
    """Constrained DOF indices and values for essential boundary data.

    Each Dirichlet callable is called once, at the ``spaces.bc_rule``
    points of its tag (``spaces.boundary``), and reduced per facet: raw
    Legendre moments of the normal component give the u values, Legendre
    coefficients of the tangential component and of the pressure give the
    uhat and phat values.
    """
    bcs.validate(spaces.mesh)
    weights = spaces.bc_rule.weights
    leg = spaces.bc_leg
    idx, val = [], []

    def moments(samples, n_modes):
        # sum_q g(x_q) P_m(s_q) w_q for each facet (row) and mode m
        return ((samples[:, None, :] * leg[:n_modes]) * weights).sum(axis=-1)

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
            add("uhat", bd.facets, legendre_scale(spaces.n_uhat) * moments(gt, spaces.n_uhat))
        for i, pres in enumerate(bcs.pressure):
            pkind, pfn = pres[tag]
            if pkind == "dirichlet":
                gv = evaluate(lambda x: pfn(x, t), bd.points)
                add(f"phat{i}", bd.facets,
                    legendre_scale(spaces.n_phat) * moments(gv, spaces.n_phat))
    if not idx:
        return np.array([], dtype=int), np.array([])
    idx = np.concatenate([a.ravel() for a in idx])
    order = np.argsort(idx)
    return idx[order], np.concatenate([a.ravel() for a in val])[order]


def apply_boundary_conditions(system, bcs, t=0.0):
    """Constrain essential DOFs; traction loads go through the RHS.

    Returns a :class:`ConstrainedSystem` wrapping the reduced operator.
    Inhomogeneous essential values are lifted into the right-hand side
    through the stored free-to-constrained coupling columns.
    """
    spaces = system.kernels.spaces
    layout = system.layout
    constrained, values = constraint_data(layout, spaces, bcs, t)
    free = np.setdiff1d(np.arange(layout.total), constrained, assume_unique=True)
    K = system.K
    K_ff = K[np.ix_(free, free)].tocsr()
    K_fc = K[np.ix_(free, constrained)].tocsr()
    free_pos = np.full(layout.total, -1, dtype=int)
    free_pos[free] = np.arange(len(free))
    return ConstrainedSystem(
        base=system,
        free=free,
        constrained=constrained,
        values=values,
        K_ff=K_ff,
        K_fc=K_fc,
        free_pos=free_pos,
    )


# ----------------------------------------------------------------------
# mean-zero machinery for all-Neumann networks
# ----------------------------------------------------------------------


def pressure_nullspace(constrained):
    """Constant-pressure kernel vectors of a constrained system.

    Read off which DOFs are constrained: a network contributes a kernel
    vector (p_i = phat_i = 1) when every boundary-facet u DOF is
    constrained, none of its phat_i DOFs is, and its zeta row vanishes.
    Returns full-layout vectors.
    """
    system = constrained.base
    spaces = system.kernels.spaces
    layout = system.layout
    fixed = np.zeros(layout.total, dtype=bool)
    fixed[constrained.constrained] = True
    n_edge = spaces.n_u_edge
    u_boundary = spaces.mesh.boundary_facets[:, None] * n_edge + np.arange(n_edge)
    if not fixed[layout.offsets["u"] + u_boundary].all():
        return []
    vectors = []
    for i in range(system.scaled.n):
        if fixed[layout.sl(f"phat{i}")].any() or np.any(system.scaled.zeta[i] != 0.0):
            continue
        k = np.zeros(layout.total)
        k[layout.sl(f"p{i}")], k[layout.sl(f"phat{i}")] = constant_pressure_mode(spaces)
        vectors.append(k)
    return vectors


def constant_pressure_mode(spaces):
    """Coefficients of the constant 1 in the pressure and facet-pressure spaces.

    Local basis function 0 is the constant in both (monomials and
    Legendre polynomials start with 1).  Returns ``(p, phat)`` vectors.
    """
    p = np.zeros(spaces.size_p)
    p[:: spaces.n_p] = 1.0
    phat = np.zeros(spaces.size_phat)
    phat[:: spaces.n_phat] = 1.0
    return p, phat


def mean_correct(x, system, networks=None):
    """Shift constant-kernel pressure components to zero mean.

    ``networks`` defaults to all; the facet multiplier is shifted by the
    same constant so the pair stays in the kernel direction.
    """
    spaces = system.kernels.spaces
    layout = system.layout
    kernels = system.kernels
    networks = range(system.scaled.n) if networks is None else networks
    ones, _ = constant_pressure_mode(spaces)
    x = x.copy()
    for i in networks:
        p = x[layout.sl(f"p{i}")]
        mean = float(ones @ (kernels.M_p @ p)) / kernels.volume
        x[layout.sl(f"p{i}")] -= mean * ones
        x[layout.sl(f"phat{i}")][:: spaces.n_phat] -= mean
    return x
