"""Reference bases, quadrature and DOF enumeration for the discrete spaces.

Five spaces are provided at order ``ell`` in {1, 2, 3}:

* displacement: H(div)-conforming BDM_ell (full vector polynomials of
  degree ell, normal component glued across facets),
* facet displacement: tangential vector polynomials of degree ell,
* flux: element-broken RT_{ell-1} per network,
* pressure: discontinuous P_{ell-1} per network,
* facet pressure: scalar polynomials of degree ell-1 per facet.

Vector bases are constructed on the reference triangle by inverting a
moment matrix (edge Legendre moments plus interior moments) and mapped
with the contravariant Piola transform.  Edge DOFs of the displacement
space use raw integral moments so that the mapped traces from the two
sides of a facet agree; a per-element sign fixes global normal direction
and edge orientation.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .mesh import LOCAL_EDGE_VERTICES

__all__ = [
    "QuadratureRule",
    "triangle_quadrature",
    "segment_quadrature",
    "eval_basis",
    "evaluate",
    "piola_map",
    "SpaceSet",
    "BoundaryFacets",
    "dof_counts",
]

SUPPORTED_ORDERS = (1, 2, 3)

# reference triangle edge data, edge j opposite vertex j
_REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_REF_EDGE_NORMALS = np.array(
    [[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], [-1.0, 0.0], [0.0, -1.0]]
)
_REF_EDGE_LENGTHS = np.array([np.sqrt(2.0), 1.0, 1.0])


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray
    degree: int


@lru_cache(maxsize=None)
def triangle_quadrature(degree):
    """Rule on the reference triangle, exact for polynomials up to ``degree``.

    Built by collapsing a Gauss-Legendre tensor rule on the unit square
    (Duffy transform); the extra Jacobian factor raises the required
    one-dimensional degree by one.
    """
    n = (degree + 2) // 2 + 1
    x, wx = leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * wx
    pts, wts = [], []
    for i in range(n):
        for j in range(n):
            pts.append((u[i], u[j] * (1.0 - u[i])))
            wts.append(wu[i] * wu[j] * (1.0 - u[i]))
    rule = QuadratureRule(np.array(pts), np.array(wts), degree)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def segment_quadrature(degree):
    """Gauss-Legendre rule on [-1, 1], exact up to ``degree``."""
    n = degree // 2 + 1
    x, w = leggauss(n)
    rule = QuadratureRule(x, w, degree)
    rule.points.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


# ----------------------------------------------------------------------
# scalar polynomial basis (monomials, constant first)
# ----------------------------------------------------------------------


def _monomial_exponents(degree):
    return [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)]


class ScalarPolyBasis:
    """Monomial basis of P_degree on the reference triangle, constant first."""

    def __init__(self, degree):
        self.degree = degree
        self.exponents = _monomial_exponents(degree)
        self.n_dofs = len(self.exponents)

    def eval(self, points):
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        return np.array([x**a * y**b for a, b in self.exponents])

    def eval_grad(self, points):
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        out = np.zeros((self.n_dofs, len(points), 2))
        for i, (a, b) in enumerate(self.exponents):
            if a > 0:
                out[i, :, 0] = a * x ** (a - 1) * y**b
            if b > 0:
                out[i, :, 1] = b * x**a * y ** (b - 1)
        return out

    def eval_hess(self, points):
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        out = np.zeros((self.n_dofs, len(points), 2, 2))
        for i, (a, b) in enumerate(self.exponents):
            if a > 1:
                out[i, :, 0, 0] = a * (a - 1) * x ** (a - 2) * y**b
            if a > 0 and b > 0:
                xy = a * b * x ** (a - 1) * y ** (b - 1)
                out[i, :, 0, 1] = xy
                out[i, :, 1, 0] = xy
            if b > 1:
                out[i, :, 1, 1] = b * (b - 1) * x**a * y ** (b - 2)
        return out


# ----------------------------------------------------------------------
# vector monomials and moment-fitted H(div) bases
# ----------------------------------------------------------------------


class _VectorMonomials:
    """Monomial set for BDM (full (P_ell)^2) or RT ((P_k)^2 plus x * homogeneous P_k)."""

    def __init__(self, family, order):
        self.family = family
        if family == "bdm":
            scalars = _monomial_exponents(order)
            self.terms = [("c", comp, a, b) for comp in (0, 1) for a, b in scalars]
        elif family == "rt":
            scalars = _monomial_exponents(order)
            self.terms = [("c", comp, a, b) for comp in (0, 1) for a, b in scalars]
            self.terms += [("x", None, a, order - a) for a in range(order, -1, -1)]
        else:
            raise ValueError(family)
        self.n = len(self.terms)

    def eval(self, points):
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        out = np.zeros((self.n, len(points), 2))
        for i, (kind, comp, a, b) in enumerate(self.terms):
            s = x**a * y**b
            if kind == "c":
                out[i, :, comp] = s
            else:
                out[i, :, 0] = x * s
                out[i, :, 1] = y * s
        return out

    def eval_div(self, points):
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        out = np.zeros((self.n, len(points)))
        for i, (kind, comp, a, b) in enumerate(self.terms):
            if kind == "c":
                if comp == 0 and a > 0:
                    out[i] = a * x ** (a - 1) * y**b
                elif comp == 1 and b > 0:
                    out[i] = b * x**a * y ** (b - 1)
            else:
                # div(x * x^a y^b) = (2 + a + b) x^a y^b
                out[i] = (2 + a + b) * x**a * y**b
        return out

    def eval_grad(self, points):
        """grad[i, p, r, c] = d(v_r)/d(x_c)."""
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        out = np.zeros((self.n, len(points), 2, 2))
        for i, (kind, comp, a, b) in enumerate(self.terms):
            dx = a * x ** (a - 1) * y**b if a > 0 else 0.0
            dy = b * x**a * y ** (b - 1) if b > 0 else 0.0
            if kind == "c":
                out[i, :, comp, 0] = dx
                out[i, :, comp, 1] = dy
            else:
                s = x**a * y**b
                out[i, :, 0, 0] = s + x * dx
                out[i, :, 0, 1] = x * dy
                out[i, :, 1, 0] = y * dx
                out[i, :, 1, 1] = s + y * dy
        return out

    def eval_hess(self, points):
        """hess[i, p, r, c, d] = d^2(v_r)/(d x_c d x_d)."""
        points = np.atleast_2d(points)
        x, y = points[:, 0], points[:, 1]
        npts = len(points)
        out = np.zeros((self.n, npts, 2, 2, 2))
        for i, (kind, comp, a, b) in enumerate(self.terms):
            dxx = a * (a - 1) * x ** (a - 2) * y**b if a > 1 else np.zeros(npts)
            dyy = b * (b - 1) * x**a * y ** (b - 2) if b > 1 else np.zeros(npts)
            dxy = a * b * x ** (a - 1) * y ** (b - 1) if (a > 0 and b > 0) else np.zeros(npts)
            if kind == "c":
                out[i, :, comp, 0, 0] = dxx
                out[i, :, comp, 0, 1] = dxy
                out[i, :, comp, 1, 0] = dxy
                out[i, :, comp, 1, 1] = dyy
            else:
                dx = a * x ** (a - 1) * y**b if a > 0 else np.zeros(npts)
                dy = b * x**a * y ** (b - 1) if b > 0 else np.zeros(npts)
                # v = (x s, y s)
                out[i, :, 0, 0, 0] = 2 * dx + x * dxx
                out[i, :, 0, 0, 1] = dy + x * dxy
                out[i, :, 0, 1, 0] = dy + x * dxy
                out[i, :, 0, 1, 1] = x * dyy
                out[i, :, 1, 0, 0] = y * dxx
                out[i, :, 1, 0, 1] = dx + y * dxy
                out[i, :, 1, 1, 0] = dx + y * dxy
                out[i, :, 1, 1, 1] = 2 * dy + y * dyy
        return out


def _edge_points(local_edge, t):
    """Reference coordinates of edge parameter values t in [-1, 1]."""
    a, b = LOCAL_EDGE_VERTICES[local_edge]
    pa, pb = _REF_VERTICES[a], _REF_VERTICES[b]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return 0.5 * (pa + pb) + 0.5 * np.outer(t, pb - pa)


class HdivReferenceBasis:
    """Moment-fitted H(div) basis on the reference triangle.

    DOF ordering: edge 0 modes 0..m, edge 1, edge 2, then interior.
    Edge functionals are Legendre moments of the normal trace; BDM uses
    raw integrals (required for cross-element gluing), RT uses mean
    values so the RT_0 basis has unit normal trace on its own edge.
    """

    def __init__(self, family, ell):
        self.family = family
        self.ell = ell
        if family == "bdm":
            self.mono = _VectorMonomials("bdm", ell)
            self.n_edge_modes = ell + 1
            normalized = False
        else:
            k = ell - 1
            self.mono = _VectorMonomials("rt", k)
            self.n_edge_modes = k + 1
            normalized = True
        self.n_dofs = self.mono.n
        self.n_interior = self.n_dofs - 3 * self.n_edge_modes
        self.coeffs = self._fit(normalized)

    def _fit(self, normalized):
        nd = self.n_dofs
        vmat = np.zeros((nd, nd))
        row = 0
        edge_rule = segment_quadrature(2 * self.ell + 2)
        leg = legvander(edge_rule.points, self.n_edge_modes - 1).T  # (modes, nq)
        for j in range(3):
            pts = _edge_points(j, edge_rule.points)
            vals = self.mono.eval(pts)                      # (n, nq, 2)
            vn = vals @ _REF_EDGE_NORMALS[j]                # (n, nq)
            scale = _REF_EDGE_LENGTHS[j] / 2.0
            if normalized:
                scale /= _REF_EDGE_LENGTHS[j]
            for m in range(self.n_edge_modes):
                vmat[row] = (vn * leg[m] * edge_rule.weights).sum(axis=1) * scale
                row += 1
        for w in self._interior_weights():
            vol = triangle_quadrature(2 * self.ell + 2)
            vals = self.mono.eval(vol.points)
            wvals = w(vol.points)                           # (nq, 2)
            vmat[row] = np.einsum("nqc,qc,q->n", vals, wvals, vol.weights)
            row += 1
        assert row == nd
        cond = np.linalg.cond(vmat)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(f"moment matrix for {self.family}_{self.ell} is singular")
        return np.linalg.inv(vmat)

    def _interior_weights(self):
        weights = []
        if self.family == "bdm":
            # gradients of P_{ell-1} beyond constants, plus curls of bubble
            # times P_{ell-2}; classical unisolvent complement for BDM
            grads = ScalarPolyBasis(self.ell - 1)
            for i in range(1, grads.n_dofs):
                weights.append(lambda pts, i=i, g=grads: g.eval_grad(pts)[i])
            if self.ell >= 2:
                bub = ScalarPolyBasis(self.ell - 2)
                for i in range(bub.n_dofs):
                    def curl_bubble(pts, i=i, sb=bub):
                        pts = np.atleast_2d(pts)
                        x, y = pts[:, 0], pts[:, 1]
                        b = x * y * (1.0 - x - y)
                        db = np.stack([y - 2 * x * y - y**2, x - x**2 - 2 * x * y], axis=1)
                        m = sb.eval(pts)[i]
                        dm = sb.eval_grad(pts)[i]
                        dy_total = b * dm[:, 1] + m * db[:, 1]
                        dx_total = b * dm[:, 0] + m * db[:, 0]
                        return np.stack([dy_total, -dx_total], axis=1)
                    weights.append(curl_bubble)
        else:
            k = self.ell - 1
            if k >= 1:
                scal = ScalarPolyBasis(k - 1)
                for comp in (0, 1):
                    for i in range(scal.n_dofs):
                        def vec_mono(pts, comp=comp, i=i, s=scal):
                            v = np.zeros((len(np.atleast_2d(pts)), 2))
                            v[:, comp] = s.eval(pts)[i]
                            return v
                        weights.append(vec_mono)
        assert len(weights) == self.n_interior
        return weights

    def eval(self, points):
        return np.einsum("nd,npc->dpc", self.coeffs, self.mono.eval(points))

    def eval_div(self, points):
        return np.einsum("nd,np->dp", self.coeffs, self.mono.eval_div(points))

    def eval_grad(self, points):
        return np.einsum("nd,nprc->dprc", self.coeffs, self.mono.eval_grad(points))

    def eval_hess(self, points):
        return np.einsum("nk,nprcd->kprcd", self.coeffs, self.mono.eval_hess(points))


@lru_cache(maxsize=None)
def _reference_basis(family, ell):
    if family in ("bdm", "rt"):
        return HdivReferenceBasis(family, ell)
    if family == "p":
        return ScalarPolyBasis(ell)
    raise ValueError(f"unknown space id {family!r}")


def eval_basis(space, ell, points):
    """Evaluate a reference basis.

    Parameters
    ----------
    space : {"bdm", "rt", "p"}
        "p" is the scalar polynomial space of degree ``ell`` here; the
        pressure space of an order-``ell`` discretization is ``("p", ell-1)``.
    ell : int
    points : (m, 2) array of reference coordinates

    Returns
    -------
    values, derivatives, second_derivatives
        Shapes (nd, m, 2)/(nd, m, 2, 2)/(nd, m, 2, 2, 2) for vector
        spaces and (nd, m)/(nd, m, 2)/(nd, m, 2, 2) for "p".
    """
    if space in ("bdm", "rt"):
        if ell not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported order {ell}")
        basis = _reference_basis(space, ell)
        return basis.eval(points), basis.eval_grad(points), basis.eval_hess(points)
    if space == "p":
        if not 0 <= ell <= max(SUPPORTED_ORDERS) - 1:
            raise ValueError(f"unsupported degree {ell}")
        basis = _reference_basis("p", ell)
        return basis.eval(points), basis.eval_grad(points), basis.eval_hess(points)
    raise ValueError(f"unknown space id {space!r}")


# ----------------------------------------------------------------------
# Piola transform
# ----------------------------------------------------------------------


def _apply(op, ref, n):
    """Per-element linear map ``op[..., out, in]`` on the last ``n`` axes of ``ref``.

    ``out`` and ``in`` are ``n`` tensor axes each.  ``ref`` holds
    reference data without an element axis; the element axes of a map of
    many elements (``Mesh.element_maps``) lead, so every transform below
    returns ``element axes + ref.shape``.
    """
    lead = op.ndim - 2 * n
    ins = (list(range(lead + n, op.ndim)), list(range(ref.ndim - n, ref.ndim)))
    out = np.tensordot(op, ref, axes=ins)
    return np.moveaxis(out, list(range(lead, lead + n)), list(range(out.ndim - n, out.ndim)))


def _det(amap, n):
    """det J with ``n`` trailing unit axes."""
    return np.reshape(amap.det, np.shape(amap.det) + (1,) * n)


def piola_map(amap, ref_values):
    """Contravariant Piola transform of vector values: v = J v_ref / det J."""
    return _apply(amap.jacobian / _det(amap, 2), ref_values, 1)


def piola_div(amap, ref_divs):
    """Divergence under the Piola transform: div v = div_ref v / det J."""
    return ref_divs / _det(amap, np.ndim(ref_divs))


def piola_grad(amap, ref_grads):
    """Gradient of Piola-mapped values; grad[..., r, c] = d v_r / d x_c."""
    op = np.einsum("...ar,...bc->...abrc", amap.jacobian, amap.inv_transpose)
    return _apply(op / _det(amap, 4), ref_grads, 2)


def piola_hess(amap, ref_hess):
    jit = amap.inv_transpose
    op = np.einsum("...ar,...bc,...ed->...abercd", amap.jacobian, jit, jit)
    return _apply(op / _det(amap, 6), ref_hess, 3)


def scalar_grad(amap, ref_grads):
    """Physical gradient of reference scalar gradients."""
    return _apply(amap.inv_transpose, ref_grads, 1)


def scalar_hess(amap, ref_hess):
    jit = amap.inv_transpose
    return _apply(np.einsum("...ac,...bd->...abcd", jit, jit), ref_hess, 2)


# transform of each kind of basis data in ``SpaceSet.on_elements``
_ELEMENT_TRANSFORMS = {
    "p": lambda amap, ref: np.broadcast_to(ref, np.shape(amap.det) + np.shape(ref)),
    "u": piola_map,
    "u_div": piola_div,
    "u_grad": piola_grad,
    "u_hess": piola_hess,
    "w": piola_map,
    "w_div": piola_div,
    "p_grad": scalar_grad,
    "p_hess": scalar_hess,
}


def orient_trace(values, direction):
    """Trace values at the edge rule, ordered along the global facet direction.

    ``values`` has the axes of ``direction`` (``Mesh.facet_direction``
    entries) followed by (basis, quadrature point, ...).  Where the local
    edge runs against the facet (-1) the quadrature axis is reversed:
    Gauss points are symmetric, so this evaluates at ``-t``.
    """
    direction = np.asarray(direction)
    forward = (direction == 1).reshape(direction.shape + (1,) * (values.ndim - direction.ndim))
    return np.where(forward, values, np.flip(values, axis=direction.ndim + 1))


# ----------------------------------------------------------------------
# global DOF layout
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryFacets:
    """Quadrature geometry of the boundary facets that carry one tag.

    Boundary data is evaluated at ``points`` (the essential-data
    rule ``SpaceSet.bc_rule``) or ``edge_points`` (``SpaceSet.edge_rule``),
    both facet-major with the facet's parameter running along its global
    direction.  ``u_trace`` holds the signed, Piola-mapped BDM basis of
    the adjacent element at the edge points; its dofs are ``u_dofs``.
    """

    facets: np.ndarray        # (k,) global facet indices, ascending
    normal: np.ndarray        # (k, 2) outward unit normals
    tangent: np.ndarray       # (k, 2)
    length: np.ndarray        # (k,)
    points: np.ndarray        # (k, nq, 2)
    edge_points: np.ndarray   # (k, nqe, 2)
    u_dofs: np.ndarray        # (k, n_loc)
    u_trace: np.ndarray       # (k, n_loc, nqe, 2)
    ds: np.ndarray            # (k, nqe) edge-rule weights times facet length / 2


class SpaceSet:
    """DOF layout and reference caches for all spaces on a mesh.

    Global displacement DOFs are facet-major (``facet * (ell+1) + mode``)
    followed by element interiors.  Flux and pressure DOFs are broken,
    element-major per network; facet pressures are facet-major.
    ``boundary`` maps each boundary tag to its :class:`BoundaryFacets`.

    Immutable after construction.
    """

    def __init__(self, mesh, ell, n_networks, quad_degree=None):
        if ell not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported order {ell}")
        self.mesh = mesh
        self.ell = ell
        self.n_networks = int(n_networks)
        self.quad_degree = quad_degree if quad_degree is not None else 2 * ell + 2

        self.bdm = _reference_basis("bdm", ell)
        self.rt = _reference_basis("rt", ell)
        self.p = _reference_basis("p", ell - 1)

        self.n_u_edge = ell + 1         # per facet
        self.n_u_int = self.bdm.n_interior
        self.n_uhat = ell + 1           # per facet
        self.n_w = self.rt.n_dofs       # per element
        self.n_p = self.p.n_dofs        # per element
        self.n_phat = ell               # per facet

        nf, ne = mesh.n_facets, mesh.n_elements
        self.size_u = nf * self.n_u_edge + ne * self.n_u_int
        self.size_uhat = nf * self.n_uhat
        self.size_w = ne * self.n_w
        self.size_p = ne * self.n_p
        self.size_phat = nf * self.n_phat

        self._build_u_dofmap()
        self._build_caches()

    # -- DOF maps ------------------------------------------------------

    def _build_u_dofmap(self):
        mesh = self.mesh
        ne, nf = mesh.n_elements, mesh.n_facets
        # mode m on local edge j: facet dof f * (ell + 1) + m, sign sigma * o^m
        m = np.arange(self.n_u_edge)
        edge = mesh.element_facets[:, :, None] * self.n_u_edge + m
        sign = mesh.facet_sign[:, :, None] * mesh.facet_direction[:, :, None] ** m
        interior = nf * self.n_u_edge + np.arange(ne * self.n_u_int).reshape(ne, self.n_u_int)
        self.u_dofmap = np.concatenate([edge.reshape(ne, -1), interior], axis=1)
        self.u_signs = np.concatenate([sign.reshape(ne, -1), np.ones((ne, self.n_u_int))], axis=1)
        self.u_dofmap.setflags(write=False)
        self.u_signs.setflags(write=False)

    # an index array of facets or elements gives one row of dofs per entry

    def uhat_dofs(self, facet):
        return np.add.outer(np.multiply(facet, self.n_uhat), np.arange(self.n_uhat))

    def phat_dofs(self, facet):
        return np.add.outer(np.multiply(facet, self.n_phat), np.arange(self.n_phat))

    def w_dofs(self, element):
        return np.add.outer(np.multiply(element, self.n_w), np.arange(self.n_w))

    def p_dofs(self, element):
        return np.add.outer(np.multiply(element, self.n_p), np.arange(self.n_p))

    # -- bases on every element ----------------------------------------

    def on_elements(self, kind, ref):
        """Reference data ``ref`` (no element axis) mapped to every element.

        ``kind`` names the transform, see ``_ELEMENT_TRANSFORMS``; the
        element axis leads the result, and displacement ("u") bases carry
        the global dof signs.
        """
        out = _ELEMENT_TRANSFORMS[kind](self.mesh.element_maps, ref)
        if kind.startswith("u"):
            out = out * self.u_signs.reshape(self.u_signs.shape + (1,) * (out.ndim - 2))
        return out

    def on_edge(self, kind, cache, local_edge):
        """Traces ``cache[local_edge]`` mapped as by :meth:`on_elements`.

        They are ordered along the global facet direction, see
        :func:`orient_trace`.
        """
        values = self.on_elements(kind, cache[local_edge])
        return orient_trace(values, self.mesh.facet_direction[:, local_edge])

    # -- caches --------------------------------------------------------

    def _build_caches(self):
        vol = triangle_quadrature(self.quad_degree)
        self.vol_rule = vol
        self.bdm_grads = self.bdm.eval_grad(vol.points)
        self.bdm_divs = self.bdm.eval_div(vol.points)
        self.rt_vals = self.rt.eval(vol.points)
        self.rt_divs = self.rt.eval_div(vol.points)
        self.p_vals = self.p.eval(vol.points)
        self.p_grads = self.p.eval_grad(vol.points)

        edge = segment_quadrature(self.quad_degree)
        self.edge_rule = edge
        nqe = len(edge.points)
        # traces at edge quadrature points, local edge parametrization
        self.bdm_edge_vals = []
        self.bdm_edge_grads = []
        self.rt_edge_vals = []
        self.p_edge_vals = []
        for j in range(3):
            pts = _edge_points(j, edge.points)
            self.bdm_edge_vals.append(self.bdm.eval(pts))
            self.bdm_edge_grads.append(self.bdm.eval_grad(pts))
            self.rt_edge_vals.append(self.rt.eval(pts))
            self.p_edge_vals.append(self.p.eval(pts))
        # Legendre values at the edge rule, for facet-space bases
        max_modes = max(self.n_uhat, self.n_phat)
        self.leg_edge = legvander(edge.points, max_modes - 1).T
        # rule and Legendre values for the facet moments of essential data
        self.bc_rule = segment_quadrature(2 * self.ell + 6)
        self.bc_leg = legvander(self.bc_rule.points, max_modes - 1).T
        self._build_boundary()

    def _build_boundary(self):
        """Per-tag geometry of the boundary facets, see :class:`BoundaryFacets`.

        Tags are read from the mesh here, once.
        """
        mesh = self.mesh
        bf = mesh.boundary_facets
        elem = mesh.facet_elements[bf, 0]
        local = mesh.facet_local[bf, 0]

        # signed, Piola-mapped BDM traces of each adjacent element
        trace = np.stack([self.on_edge("u", self.bdm_edge_vals, j) for j in range(3)])[local, elem]

        arrays = {
            "facets": bf,
            "normal": mesh.facet_normal[bf],
            "tangent": mesh.facet_tangent[bf],
            "length": mesh.facet_length[bf],
            "points": _facet_points(mesh, bf, self.bc_rule.points),
            "edge_points": _facet_points(mesh, bf, self.edge_rule.points),
            "u_dofs": self.u_dofmap[elem],
            "u_trace": trace,
            "ds": self.edge_rule.weights[None, :] * (mesh.facet_length[bf] / 2.0)[:, None],
        }
        groups = {}
        for k, f in enumerate(bf):
            groups.setdefault(mesh.boundary_tags.get(int(f)), []).append(k)
        self.boundary = {}
        for tag, sel in groups.items():
            parts = {name: a[sel] for name, a in arrays.items()}
            for a in parts.values():
                a.setflags(write=False)
            self.boundary[tag] = BoundaryFacets(**parts)

    def facet_trace(self, cache, element, local_edge):
        """Trace values from ``cache`` reordered to the global facet direction."""
        return orient_trace(cache[local_edge], self.mesh.facet_direction[element, local_edge])

    # -- interpolation -------------------------------------------------

    def interpolate_u(self, f):
        """BDM interpolation of a vector field ``f(x) -> (2,)`` by moments.

        Like every ``interpolate_*`` method it calls ``f`` once, on the
        points of all elements or facets (see :func:`evaluate`).

        A facet dof is seen by both adjacent elements; the value of the
        higher-indexed element is kept.
        """
        values = (self.u_signs * self._hdiv_moments(self.bdm, f)).ravel()
        dofs, last = np.unique(self.u_dofmap.ravel()[::-1], return_index=True)
        coeffs = np.zeros(self.size_u)
        coeffs[dofs] = values[::-1][last]
        return coeffs

    def interpolate_w(self, f):
        """Broken RT interpolation of a vector field, element by element."""
        return self._hdiv_moments(self.rt, f).ravel()

    def _hdiv_moments(self, basis, f):
        """Dof functionals of ``basis`` applied to the Piola pullback of ``f``, per element.

        The edge functionals are scaled as in :meth:`HdivReferenceBasis._fit`:
        raw Legendre integrals for BDM, edge means for RT.  ``f`` is called
        once, at the edge and volume points of every element.
        """
        degree = 2 * self.ell + 8
        edge_rule = segment_quadrature(degree)
        vol_rule = triangle_quadrature(degree)
        nqe = len(edge_rule.points)
        ref = np.concatenate([_edge_points(j, edge_rule.points) for j in range(3)]
                             + [vol_rule.points])
        pullback = _pullback(self.mesh.element_maps, f, ref)
        leg = legvander(edge_rule.points, basis.n_edge_modes - 1).T * edge_rule.weights
        scale = _REF_EDGE_LENGTHS / 2.0 if basis.family == "bdm" else np.full(3, 0.5)
        edges = pullback[:, : 3 * nqe].reshape(-1, 3, nqe, 2)
        vn = np.einsum("ejqc,jc->ejq", edges, _REF_EDGE_NORMALS)
        out = [np.einsum("ejq,mq,j->ejm", vn, leg, scale).reshape(len(vn), -1)]
        if basis.n_interior:
            weights = np.stack([w(vol_rule.points) for w in basis._interior_weights()])
            vol = pullback[:, 3 * nqe :]
            out.append(np.einsum("eqc,iqc,q->ei", vol, weights, vol_rule.weights))
        return np.concatenate(out, axis=1)

    def interpolate_p(self, f):
        """Element-wise L2 projection of a scalar field onto P_{ell-1}."""
        rule = triangle_quadrature(2 * self.ell + 8)
        vals = self.p.eval(rule.points)
        mass = np.einsum("iq,jq,q->ij", vals, vals, rule.weights)
        fv = evaluate(f, self.mesh.element_maps.to_physical(rule.points))
        rhs = np.einsum("iq,eq,q->ie", vals, fv, rule.weights)
        return np.linalg.solve(mass, rhs).T.ravel()

    def interpolate_phat(self, f):
        """Per-facet Legendre projection of a scalar trace."""
        leg, points = self._facet_rule(self.n_phat)
        return np.einsum("fq,mq->fm", evaluate(f, points), leg).ravel()

    def interpolate_uhat(self, f):
        """Per-facet Legendre projection of the tangential trace of ``f``."""
        leg, points = self._facet_rule(self.n_uhat)
        ft = np.einsum("fqc,fc->fq", evaluate(f, points, vector=True), self.mesh.facet_tangent)
        return np.einsum("fq,mq->fm", ft, leg).ravel()

    def _facet_rule(self, n_modes):
        """Legendre projectors ``(2m+1)/2 P_m w`` and every facet's edge-rule points."""
        rule = segment_quadrature(2 * self.ell + 8)
        leg = legendre_scale(n_modes)[:, None] * legvander(rule.points, n_modes - 1).T
        points = _facet_points(self.mesh, np.arange(self.mesh.n_facets), rule.points)
        return leg * rule.weights, points


def _facet_points(mesh, facets, t):
    """Points ``(k, len(t), 2)`` at parameters ``t`` in [-1, 1] along the global facet direction."""
    ends = mesh.vertices[mesh.facet_vertices[facets]]
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    return mesh.facet_midpoint[facets][:, None, :] + t[None, :, None] * half[:, None, :]


def legendre_scale(n_modes):
    """(2m + 1) / 2: Legendre coefficients from moments on [-1, 1]."""
    return (2 * np.arange(n_modes) + 1) / 2.0


def evaluate(f, points, *args, vector=False):
    """Values of the data callable ``f`` at ``points`` (..., 2), from one call.

    ``f`` receives the points coordinate-first, as a ``(2, m)`` stack, and
    each extra argument (for example the normals of a traction callable,
    ``(..., 2)`` like ``points``) the same way.  A scalar result is
    broadcast to ``(m,)`` and a vector result reshaped and broadcast to
    ``(2, m)``, so constants and functions of time alone are valid data.
    Returns an array of shape ``points.shape[:-1]``, plus a trailing
    axis of 2 for vectors.
    """
    points = np.asarray(points, dtype=float)
    lead = points.shape[:-1]
    coords = [np.reshape(a, (-1, 2)).T for a in (points, *args)]
    m = coords[0].shape[1]
    values = np.asarray(f(*coords), dtype=float)
    if vector:
        return np.broadcast_to(values.reshape(2, -1), (2, m)).T.reshape(lead + (2,))
    return np.broadcast_to(values, (m,)).reshape(lead)


def _pullback(maps, f, ref_points):
    """Inverse Piola transform det J J^-1 f of a vector field at mapped reference points.

    ``maps`` is a batch of element maps; returns ``(e, q, 2)``.
    """
    fv = evaluate(f, maps.to_physical(ref_points), vector=True)
    return maps.det[:, None, None] * np.einsum("eba,eqb->eqa", maps.inv_transpose, fv)


def dof_counts(mesh, ell, n_networks):
    """Global DOF counts with the analysis boundary conditions applied.

    Displacement normal and tangential facet DOFs on the boundary are
    constrained (homogeneous Dirichlet for u), flux spaces are broken so
    all their DOFs remain, facet pressures stay free (zero-flux data).
    """
    if ell not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported order {ell}")
    bdm = _reference_basis("bdm", ell)
    rt = _reference_basis("rt", ell)
    p = _reference_basis("p", ell - 1)
    n_int_facets = len(mesh.interior_facets)
    ne, nf = mesh.n_elements, mesh.n_facets
    return {
        "u": n_int_facets * (ell + 1) + ne * bdm.n_interior,
        "uhat": n_int_facets * (ell + 1),
        "w": n_networks * ne * rt.n_dofs,
        "p": n_networks * ne * p.n_dofs,
        "phat": n_networks * nf * ell,
    }
