"""Assembly of the HDG / hybrid-mixed block system.

The discrete single-step problem has the symmetric indefinite form

    [ A   B^T ] [ u_bar ]   [ F_u ]
    [ B  -C   ] [ p_bar ] = [ F_p ]

with u_bar = (u, uhat, w_1..w_n) and p_bar = (p_1..p_n, phat_1..phat_n).
A carries the stabilized elasticity form on (u, uhat) plus the weighted
flux masses, B the divergence coupling and the hybrid-mixed b-form, and
C the network transfer masses.

Assembly is split into parameter-independent kernels (one element loop)
and cheap parameter-weighted composition, so parameter sweeps reuse the
expensive part.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .mesh import build_affine_map
from .spaces import (
    piola_div,
    piola_grad,
    piola_hess,
    piola_map,
    scalar_grad,
    scalar_hess,
    triangle_quadrature,
)

__all__ = [
    "DofLayout",
    "FormKernels",
    "BlockSystem",
    "BoundaryConditionSet",
    "ConstrainedSystem",
    "assemble_kernels",
    "assemble_a_hdg",
    "assemble_divdiv_and_coupling",
    "assemble_flow",
    "build_block_system",
    "assemble_volume_rhs",
    "assemble_traction_rhs",
    "apply_boundary_conditions",
    "pressure_nullspace",
    "constant_pressure_mode",
    "displacement_hdg_matrix",
    "pressure_hdg_matrix",
]

DEFAULT_ETA = 10.0


# ----------------------------------------------------------------------
# global layout
# ----------------------------------------------------------------------


class DofLayout:
    """Offsets of the fields in the global vector.

    Order: u, uhat, w_0..w_{n-1}, p_0..p_{n-1}, phat_0..phat_{n-1}.
    The first 2 + n fields form the A-block ("velocity" side), the rest
    the pressure side.
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
        self.size_q = self.total - self.size_v

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
    eta: float
    a_hdg: sps.csr_matrix        # (u + uhat) x (u + uhat), includes penalty
    divdiv: sps.csr_matrix       # u x u
    D: sps.csr_matrix            # p x u, entries (div psi_u, phi_p)
    Dw: sps.csr_matrix           # p x w, entries (div psi_w, phi_p)
    Ew: sps.csr_matrix           # phat x w, entries (psi_w . n, phi_phat)_dT
    M_w: sps.csr_matrix          # w x w plain mass
    M_p: sps.csr_matrix          # p x p mass
    volume: float
    p_mass_inv: np.ndarray = field(repr=False)   # (n_elements, n_p, n_p)

    def b_block(self):
        """b-form matrix (p+phat rows, w cols) with the row-3 signs."""
        return sps.bmat([[-self.Dw], [self.Ew]], format="csr")


class _Coo:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, block):
        r = np.repeat(rows, len(cols))
        c = np.tile(cols, len(rows))
        self.rows.append(r)
        self.cols.append(c)
        self.vals.append(np.asarray(block, dtype=float).ravel())

    def build(self, shape):
        if not self.rows:
            return sps.csr_matrix(shape)
        return sps.csr_matrix(
            (
                np.concatenate(self.vals),
                (np.concatenate(self.rows), np.concatenate(self.cols)),
            ),
            shape=shape,
        )


def assemble_kernels(mesh, spaces, eta=DEFAULT_ETA):
    """One pass over the mesh building every parameter-free form matrix."""
    if eta <= 0.0:
        raise ValueError("penalty parameter eta must be positive")
    ell = spaces.ell
    nu_loc = spaces.bdm.n_dofs
    nuhat = spaces.n_uhat
    vol = spaces.vol_rule
    edge = spaces.edge_rule
    leg = spaces.leg_edge

    size_uu = spaces.size_u + spaces.size_uhat
    ka = _Coo()
    kdiv = _Coo()
    kD = _Coo()
    kDw = _Coo()
    kEw = _Coo()
    kMw = _Coo()
    kMp = _Coo()
    p_mass = np.empty((mesh.n_elements, spaces.n_p, spaces.n_p))

    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        wq = vol.weights * amap.det
        signs = spaces.u_signs[t]
        udofs = spaces.u_dofmap[t]

        uvals = piola_map(amap, spaces.bdm_vals) * signs[:, None, None]
        ugrads = piola_grad(amap, spaces.bdm_grads) * signs[:, None, None, None]
        udivs = piola_div(amap, spaces.bdm_divs) * signs[:, None]
        eps = 0.5 * (ugrads + np.swapaxes(ugrads, 2, 3))

        wvals = piola_map(amap, spaces.rt_vals)
        wdivs = piola_div(amap, spaces.rt_divs)
        pvals = spaces.p_vals

        ka.add(udofs, udofs, np.einsum("iqab,jqab,q->ij", eps, eps, wq))
        kdiv.add(udofs, udofs, np.einsum("iq,jq,q->ij", udivs, udivs, wq))
        pdofs = spaces.p_dofs(t)
        kD.add(pdofs, udofs, np.einsum("pq,uq,q->pu", pvals, udivs, wq))
        wdofs = spaces.w_dofs(t)
        kDw.add(pdofs, wdofs, np.einsum("pq,uq,q->pu", pvals, wdivs, wq))
        kMw.add(wdofs, wdofs, np.einsum("iqc,jqc,q->ij", wvals, wvals, wq))
        p_mass[t] = np.einsum("iq,jq,q->ij", pvals, pvals, wq)
        kMp.add(pdofs, pdofs, p_mass[t])

        for j in range(3):
            f = mesh.element_facets[t, j]
            hF = mesh.facet_length[f]
            ds = edge.weights * (hF / 2.0)
            n_out = mesh.facet_sign[t, j] * mesh.facet_normal[f]
            tang = mesh.facet_tangent[f]

            tr_vals = piola_map(amap, spaces.facet_trace(spaces.bdm_edge_vals, t, j))
            tr_vals = tr_vals * signs[:, None, None]
            tr_grads = piola_grad(amap, spaces.facet_trace(spaces.bdm_edge_grads, t, j))
            tr_grads = tr_grads * signs[:, None, None, None]
            tr_eps = 0.5 * (tr_grads + np.swapaxes(tr_grads, 2, 3))
            eps_n = np.einsum("iqab,b->iqa", tr_eps, n_out)

            # jump basis (vhat - v)_t over local u dofs then this facet's uhat
            u_tang = tr_vals - np.einsum("iq,a->iqa", tr_vals @ n_out, n_out)
            nq = len(edge.points)
            jump = np.zeros((nu_loc + nuhat, nq, 2))
            jump[:nu_loc] = -u_tang
            jump[nu_loc:] = np.einsum("mq,a->mqa", leg[:nuhat], tang)
            en_full = np.zeros_like(jump)
            en_full[:nu_loc] = eps_n

            rows = np.concatenate([udofs, spaces.size_u + spaces.uhat_dofs(f)])
            cross = np.einsum("iqa,jqa,q->ij", en_full, jump, ds)
            penalty = eta * ell**2 / hF * np.einsum("iqa,jqa,q->ij", jump, jump, ds)
            ka.add(rows, rows, cross + cross.T + penalty)

            # b-form facet part: (psi_w . n, phi_phat) over dT
            tr_w = piola_map(amap, spaces.facet_trace(spaces.rt_edge_vals, t, j))
            wn = tr_w @ n_out
            block = np.einsum("mq,wq,q->mw", leg[: spaces.n_phat], wn, ds)
            kEw.add(spaces.phat_dofs(f), wdofs, block)

    return FormKernels(
        spaces=spaces,
        eta=eta,
        a_hdg=ka.build((size_uu, size_uu)),
        divdiv=kdiv.build((spaces.size_u, spaces.size_u)),
        D=kD.build((spaces.size_p, spaces.size_u)),
        Dw=kDw.build((spaces.size_p, spaces.size_w)),
        Ew=kEw.build((spaces.size_phat, spaces.size_w)),
        M_w=kMw.build((spaces.size_w, spaces.size_w)),
        M_p=kMp.build((spaces.size_p, spaces.size_p)),
        volume=float(mesh.element_area.sum()),
        p_mass_inv=np.linalg.inv(p_mass),
    )


def assemble_a_hdg(mesh, spaces, eta=DEFAULT_ETA):
    """Stabilized HDG elasticity form on (u, uhat)."""
    return assemble_kernels(mesh, spaces, eta).a_hdg


def assemble_divdiv_and_coupling(mesh, spaces, scaled, kernels=None):
    """lambda-weighted div-div block and the displacement-pressure coupling.

    Returns ``(lam * divdiv, [-D] * n)``: one coupling block per network,
    identical by construction.
    """
    kernels = kernels or assemble_kernels(mesh, spaces)
    return scaled.lam * kernels.divdiv, [-kernels.D] * scaled.n


def assemble_flow(mesh, spaces, scaled, kernels=None):
    """Weighted flux masses, b-form blocks and the network coupling block C."""
    kernels = kernels or assemble_kernels(mesh, spaces)
    masses = [kernels.M_w / scaled.R[i] for i in range(scaled.n)]
    b_blocks = [kernels.b_block()] * scaled.n
    C = sps.kron(sps.csr_matrix(scaled.zeta), kernels.M_p, format="csr")
    return masses, b_blocks, C


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------


@dataclass
class BlockSystem:
    """Assembled blocks of the saddle-point matrix plus right-hand side."""

    layout: DofLayout
    A: sps.csr_matrix
    B: sps.csr_matrix
    C: sps.csr_matrix
    F: np.ndarray
    kernels: FormKernels
    scaled: object
    symmetric: bool = True
    _full: object = field(default=None, repr=False)

    def full_matrix(self):
        # the blocks are fixed after assembly (only F changes), so cache
        if self._full is None:
            self._full = sps.bmat([[self.A, self.B.T], [self.B, -self.C]], format="csr")
        return self._full

    def symmetry_defect(self):
        m = self.full_matrix()
        d = m - m.T
        denom = max(abs(m.max()), abs(m.min()), 1e-300)
        if d.nnz == 0:
            return 0.0
        return max(abs(d.max()), abs(d.min())) / denom


def build_block_system(kernels, scaled):
    """Compose the parameter-weighted block system from the kernels."""
    spaces = kernels.spaces
    n = scaled.n
    if n != spaces.n_networks:
        raise ValueError("network count of parameters and spaces disagree")
    layout = DofLayout(spaces)

    size_uu = spaces.size_u + spaces.size_uhat
    a_blocks = [[None] * (1 + n) for _ in range(1 + n)]
    divdiv_padded = sps.bmat(
        [
            [scaled.lam * kernels.divdiv, None],
            [None, sps.csr_matrix((spaces.size_uhat, spaces.size_uhat))],
        ],
        format="csr",
    )
    a_blocks[0][0] = (kernels.a_hdg + divdiv_padded).tocsr()
    for i in range(n):
        a_blocks[1 + i][1 + i] = kernels.M_w / scaled.R[i]
    A = sps.bmat(a_blocks, format="csr")

    # B rows: all p_i first, then all phat_i
    b_rows_p = []
    for i in range(n):
        cols = [None] * (1 + n)
        cols[0] = sps.hstack(
            [-kernels.D, sps.csr_matrix((spaces.size_p, spaces.size_uhat))], format="csr"
        )
        cols[1 + i] = -kernels.Dw
        b_rows_p.append(cols)
    b_rows_phat = []
    for i in range(n):
        cols = [None] * (1 + n)
        cols[0] = sps.csr_matrix((spaces.size_phat, size_uu))
        cols[1 + i] = kernels.Ew
        b_rows_phat.append(cols)
    B = sps.bmat(b_rows_p + b_rows_phat, format="csr")

    C_pp = sps.kron(sps.csr_matrix(scaled.zeta), kernels.M_p, format="csr")
    C = sps.bmat(
        [
            [C_pp, None],
            [None, sps.csr_matrix((n * spaces.size_phat, n * spaces.size_phat))],
        ],
        format="csr",
    )

    return BlockSystem(
        layout=layout,
        A=A,
        B=B,
        C=C,
        F=np.zeros(layout.total),
        kernels=kernels,
        scaled=scaled,
    )


# ----------------------------------------------------------------------
# norm-realization matrices
# ----------------------------------------------------------------------


def displacement_hdg_matrix(mesh, spaces, include_h2=True):
    """Matrix of the displacement HDG norm on (u, uhat).

    Strain mass plus h^-1 tangential jump terms; the h^2 second-derivative
    seminorm is diagnostics-only and can be switched off (the block
    preconditioner uses the stabilized bilinear form instead).
    """
    nu_loc = spaces.bdm.n_dofs
    nuhat = spaces.n_uhat
    size = spaces.size_u + spaces.size_uhat
    vol = spaces.vol_rule
    edge = spaces.edge_rule
    leg = spaces.leg_edge
    out = _Coo()
    hess_cache = spaces.bdm.eval_hess(vol.points) if include_h2 else None
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        wq = vol.weights * amap.det
        signs = spaces.u_signs[t]
        udofs = spaces.u_dofmap[t]
        ugrads = piola_grad(amap, spaces.bdm_grads) * signs[:, None, None, None]
        eps = 0.5 * (ugrads + np.swapaxes(ugrads, 2, 3))
        block = np.einsum("iqab,jqab,q->ij", eps, eps, wq)
        if include_h2:
            hT = mesh.element_h[t]
            hess = piola_hess(amap, hess_cache) * signs[:, None, None, None, None]
            block = block + hT**2 * np.einsum("iqabc,jqabc,q->ij", hess, hess, wq)
        out.add(udofs, udofs, block)
        for j in range(3):
            f = mesh.element_facets[t, j]
            hF = mesh.facet_length[f]
            ds = edge.weights * (hF / 2.0)
            n_out = mesh.facet_sign[t, j] * mesh.facet_normal[f]
            tang = mesh.facet_tangent[f]
            tr = piola_map(amap, spaces.facet_trace(spaces.bdm_edge_vals, t, j))
            tr = tr * signs[:, None, None]
            u_t = tr - np.einsum("iq,a->iqa", tr @ n_out, n_out)
            nq = len(edge.points)
            jump = np.zeros((nu_loc + nuhat, nq, 2))
            jump[:nu_loc] = -u_t
            jump[nu_loc:] = np.einsum("mq,a->mqa", leg[:nuhat], tang)
            rows = np.concatenate([udofs, spaces.size_u + spaces.uhat_dofs(f)])
            out.add(rows, rows, np.einsum("iqa,jqa,q->ij", jump, jump, ds) / hF)
    return out.build((size, size))


def pressure_hdg_matrix(mesh, spaces, include_h2=False):
    """Matrix of the pressure HDG norm on (p, phat) for a single network."""
    size = spaces.size_p + spaces.size_phat
    vol = spaces.vol_rule
    edge = spaces.edge_rule
    leg = spaces.leg_edge
    out = _Coo()
    hess_cache = spaces.p.eval_hess(vol.points) if include_h2 else None
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        wq = vol.weights * amap.det
        pdofs = spaces.p_dofs(t)
        grads = scalar_grad(amap, spaces.p_grads)
        block = np.einsum("iqa,jqa,q->ij", grads, grads, wq)
        if include_h2:
            hT = mesh.element_h[t]
            hess = scalar_hess(amap, hess_cache)
            block = block + hT**2 * np.einsum("iqab,jqab,q->ij", hess, hess, wq)
        out.add(pdofs, pdofs, block)
        for j in range(3):
            f = mesh.element_facets[t, j]
            hF = mesh.facet_length[f]
            ds = edge.weights * (hF / 2.0)
            tr = spaces.facet_trace(spaces.p_edge_vals, t, j)
            nq = len(edge.points)
            jump = np.zeros((spaces.n_p + spaces.n_phat, nq))
            jump[: spaces.n_p] = -tr
            jump[spaces.n_p :] = leg[: spaces.n_phat]
            rows = np.concatenate([pdofs, spaces.size_p + spaces.phat_dofs(f)])
            out.add(rows, rows, np.einsum("iq,jq,q->ij", jump, jump, ds) / hF)
    return out.build((size, size))


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------


def assemble_volume_rhs(mesh, spaces, f=None, g=None, degree=None):
    """Volume load vector for a body force ``f(x)`` and sources ``g[i](x)``.

    Returns a full-layout vector.  Mass sources enter the pressure test
    rows as assembled, matching the sign convention of the third block
    row (the caller provides g already in scaled form).
    """
    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    degree = degree or 2 * spaces.ell + 4
    rule = triangle_quadrature(degree)
    bdm_vals = spaces.bdm.eval(rule.points)
    p_vals = spaces.p.eval(rule.points)
    for t in range(mesh.n_elements):
        amap = build_affine_map(mesh, t)
        wq = rule.weights * amap.det
        phys = amap.to_physical(rule.points)
        if f is not None:
            fv = np.array([f(x) for x in phys])
            uvals = piola_map(amap, bdm_vals) * spaces.u_signs[t][:, None, None]
            F[layout.sl("u")][spaces.u_dofmap[t]] += np.einsum(
                "qc,uqc,q->u", fv, uvals, wq
            )
        if g is not None:
            for i, gi in enumerate(g):
                if gi is None:
                    continue
                gv = np.array([gi(x) for x in phys])
                F[layout.sl(f"p{i}")][spaces.p_dofs(t)] += np.einsum(
                    "q,pq,q->p", gv, p_vals, wq
                )
    return F


def assemble_traction_rhs(mesh, spaces, bcs, t=0.0):
    """Natural surface load on the displacement rows from traction tags.

    The facet geometry comes from ``spaces.boundary`` (built on ``mesh``);
    each traction callable ``g(x, t, n)`` is evaluated at the edge-rule
    points of its tag and contracted with the stored traces.
    """
    layout = DofLayout(spaces)
    F = np.zeros(layout.total)
    F_u = F[layout.sl("u")]
    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        if kind != "traction":
            continue
        k, nq = bd.ds.shape
        normals = np.repeat(bd.normal, nq, axis=0)
        gv = np.array([fn(x, t, n) for x, n in zip(bd.edge_points.reshape(-1, 2), normals)])
        loads = np.einsum("fqc,fuqc,fq->fu", gv.reshape(k, nq, 2), bd.u_trace, bd.ds)
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

    def restrict_matrix(self, mat, rows_fields, cols_fields):
        """Restrict a field-block matrix to free DOFs of the given fields."""
        rows = self._free_within(rows_fields)
        cols = self._free_within(cols_fields)
        return mat[np.ix_(rows, cols)]

    def _free_within(self, fields):
        layout = self.base.layout
        keep = []
        offset = 0
        for name in fields:
            idx = layout.indices(name)
            mask = np.isin(idx, self.free, assume_unique=True)
            keep.append(np.nonzero(mask)[0] + offset)
            offset += layout.sizes[name]
        return np.concatenate(keep)

    def update_values(self, spaces, bcs, t):
        """Recompute constrained values for time-dependent profiles."""
        _, values = constraint_data(self.base.layout, spaces, bcs, t)
        self.values = values


def constraint_data(layout, spaces, bcs, t):
    """Constrained DOF indices and values for essential boundary data.

    Each Dirichlet callable is evaluated at the ``spaces.bc_rule`` points
    of its tag (``spaces.boundary``) and reduced per facet: raw Legendre
    moments of the normal component give the u values, Legendre
    coefficients of the tangential component and of the pressure give
    the uhat and phat values.
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
        k, nq = bd.points.shape[:2]
        points = bd.points.reshape(-1, 2)
        kind, fn = bcs.displacement[tag]
        if kind == "dirichlet":
            gv = np.array([fn(x, t) for x in points]).reshape(k, nq, 2)
            gn = np.einsum("fqc,fc->fq", gv, bd.normal)
            gt = np.einsum("fqc,fc->fq", gv, bd.tangent)
            add("u", bd.facets, moments(gn, spaces.n_u_edge) * bd.length[:, None] / 2.0)
            add("uhat", bd.facets, _legendre_scale(spaces.n_uhat) * moments(gt, spaces.n_uhat))
        for i, pres in enumerate(bcs.pressure):
            pkind, pfn = pres[tag]
            if pkind == "dirichlet":
                gv = np.array([float(pfn(x, t)) for x in points]).reshape(k, nq)
                add(f"phat{i}", bd.facets,
                    _legendre_scale(spaces.n_phat) * moments(gv, spaces.n_phat))
    if not idx:
        return np.array([], dtype=int), np.array([])
    idx = np.concatenate([a.ravel() for a in idx])
    order = np.argsort(idx)
    return idx[order], np.concatenate([a.ravel() for a in val])[order]


def _legendre_scale(n_modes):
    """(2m + 1) / 2: Legendre coefficients from moments on [-1, 1]."""
    return (2 * np.arange(n_modes) + 1) / 2.0


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
    K = system.full_matrix()
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


def pressure_nullspace(system, bcs):
    """Constant-pressure kernel vectors of the constrained system.

    A network contributes a kernel vector (p_i = phat_i = 1) when all of
    its boundary data is zero-flux, the displacement boundary is fully
    essential, and its zeta row vanishes.  Returns full-layout vectors.
    """
    spaces = system.kernels.spaces
    scaled = system.scaled
    layout = system.layout
    if any(kind != "dirichlet" for kind, _ in bcs.displacement.values()):
        return []
    vectors = []
    for i in range(scaled.n):
        if any(kind != "flux" for kind, _ in bcs.pressure[i].values()):
            continue
        if np.any(scaled.zeta[i] != 0.0):
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
