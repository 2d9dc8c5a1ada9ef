"""Reference bases, quadrature and DOF enumeration for the discrete spaces.

Five spaces are provided at order ``ell`` in {1, 2, 3}:

* displacement: H(div)-conforming BDM_ell (full vector polynomials of
  degree ell, normal component glued across facets),
* facet displacement: tangential vector polynomials of degree ell,
* flux: element-broken RT_{ell-1} per network,
* pressure: discontinuous P_{ell-1} per network,
* facet pressure: scalar polynomials of degree ell-1 per facet.

Reference bases are monomial sets with one derivative rule.  Vector bases
are fitted on the reference triangle by inverting the moment matrix of
their DOF functionals (edge Legendre moments plus interior moments,
:meth:`HdivReferenceBasis.moments`, which also interpolate fields) and
mapped with the contravariant Piola transform.  Edge DOFs of the
displacement space use raw integral moments so that the mapped traces
from the two sides of a facet agree; a per-element sign fixes global
normal direction and edge orientation.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partialmethod

import numpy as np
import scipy.sparse as sps
from numpy.polynomial.legendre import leggauss, legvander

from .mesh import LOCAL_EDGE_VERTICES, build_affine_map

__all__ = [
    "QuadratureRule",
    "triangle_quadrature",
    "segment_quadrature",
    "eval_basis",
    "evaluate",
    "piola_map",
    "SpaceSet",
    "DofLayout",
    "BoundaryFacets",
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
# monomial sets and moment-fitted H(div) bases
# ----------------------------------------------------------------------


def _monomial_exponents(degree):
    return [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)]


def _rule(a, b, i, j, scale=1):
    """(c, a - i, b - j) of scale d^(i+j)/dx^i dy^j x^a y^b = c x^(a-i) y^(b-j), i, j <= 2.

    c is scale times the falling factorials a (a - 1) ... and b (b - 1) ...
    """
    falling = [np.where(k > 0, n, 1) * np.where(k > 1, n - 1, 1) for n, k in ((a, i), (b, j))]
    return scale * falling[0] * falling[1], np.maximum(a - i, 0), np.maximum(b - j, 0)


# the derivative orders (i, j) in the columns of ``_Monomials.rule``
_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


@lru_cache(maxsize=None)
def _derivative_columns(order):
    """Columns of ``_ORDERS`` for the derivatives along every tuple of ``order`` axes.

    Returns ``(axes, slots, r, dropped)``.  ``slots`` repeats ``axes`` for
    the vector components ``r`` = 0, 1; ``dropped[k]`` is the column of the
    derivative without position k where that axis is r (else -1), the
    product-rule terms of d(x_r s) that differentiate x_r.
    """
    tuples = list(itertools.product((0, 1), repeat=order))

    def column(ax):
        return _ORDERS.index((ax.count(0), ax.count(1)))

    dropped = [np.array([column(ax[:k] + ax[k + 1:]) if ax[k] == r else -1
                         for r in (0, 1) for ax in tuples]) for k in range(order)]
    dropped = [(k, (k >= 0)[:, None]) for k in dropped]
    axes = np.array([column(ax) for ax in tuples])
    return axes, np.tile(axes, 2), np.repeat([0, 1], len(axes)), dropped


class _Monomials:
    """Monomials x^a y^b, scalar or times a vector.

    ``comp`` r in {0, 1} makes the term x^a y^b e_r, r = -1 makes it
    x^a y^b (x, y) (the extra Raviart-Thomas terms).  Every derivative
    comes from one rule, d^(i+j)/dx^i dy^j x^a y^b = c x^(a-i) y^(b-j) with
    c the falling factorials; the (x, y) terms add the product rule.
    """

    def __init__(self, exponents, comp=None):
        self.a, self.b = np.array(exponents, dtype=int).reshape(-1, 2).T
        self.comp = None if comp is None else np.array(comp, dtype=int)
        self.n_dofs = len(self.a)
        self.top = int(max(self.a.max(initial=0), self.b.max(initial=0)))
        self.rule = _rule(self.a[:, None], self.b[:, None], *np.array(_ORDERS).T)
        if comp is not None:
            self.euler = (self.comp < 0)[:, None, None]
            # div(x^a y^b e_r) = d_r x^a y^b, div(x^a y^b (x, y)) = (2 + a + b) x^a y^b
            self.div_rule = _rule(self.a, self.b, self.comp == 0, self.comp == 1,
                                  np.where(self.comp < 0, 2 + self.a + self.b, 1))

    def _apply(self, rule, points):
        """c * x^(a-i) * y^(b-j), multiplied in that order, with the point axis last."""
        # x ** e with a Python int e: numpy squares for e = 2, where an
        # integer exponent array would call pow() and can round differently
        xp, yp = np.array([[v**e for e in range(self.top + 1)] for v in points.T])
        c, ea, eb = rule
        return c[..., None] * xp.take(ea, axis=0) * yp.take(eb, axis=0)

    def derivative(self, points, order):
        """Derivatives of order 0-2 at ``points``, along every tuple of axes.

        Shape (n, m) + (2,) * order for a scalar set; a vector set puts
        the component first, (n, m, 2) + (2,) * order.
        """
        points = np.atleast_2d(points)
        table = self._apply(self.rule, points)
        axes, slots, r, dropped = _derivative_columns(order)
        if self.comp is None:
            out = table.take(axes, axis=1)
        else:
            # d(w_r s) for w = e_comp or (x, y): the terms that differentiate w_r, then w_r d(s)
            w = np.where(self.euler, points.T[r], self.comp[:, None, None] == r[:, None])
            out = sum(np.where(self.euler & mask, table.take(k, axis=1), 0.0) for k, mask in dropped)
            out = out + w * table.take(slots, axis=1)
        shape = (len(out), len(points)) + (2,) * (order + (self.comp is not None))
        return np.ascontiguousarray(out.swapaxes(1, 2)).reshape(shape)

    eval = partialmethod(derivative, order=0)
    eval_grad = partialmethod(derivative, order=1)  # [i, p, (r,) c] = d(v_r)/d(x_c)
    eval_hess = partialmethod(derivative, order=2)  # [i, p, (r,) c, d] = d^2(v_r)/(d x_c d x_d)

    def eval_div(self, points):
        return self._apply(self.div_rule, np.atleast_2d(points))


class ScalarPolyBasis(_Monomials):
    """Monomial basis of P_degree on the reference triangle, constant first."""

    def __init__(self, degree):
        super().__init__(_monomial_exponents(degree))


def _vector_monomials(family, order):
    """BDM: (P_order)^2; RT: (P_order)^2 plus x^a y^b (x, y) with a + b = order."""
    scalars = _monomial_exponents(order)
    euler = [(a, order - a) for a in range(order, -1, -1)] if family == "rt" else []
    comp = [0] * len(scalars) + [1] * len(scalars) + [-1] * len(euler)
    return _Monomials(scalars + scalars + euler, comp)


def _edge_points(local_edge, t):
    """Reference coordinates of edge parameter values t in [-1, 1]."""
    a, b = LOCAL_EDGE_VERTICES[local_edge]
    pa, pb = _REF_VERTICES[a], _REF_VERTICES[b]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return 0.5 * (pa + pb) + 0.5 * np.outer(t, pb - pa)


def _moment_points(degree):
    """The points of :meth:`HdivReferenceBasis.moments`: edges 0-2, then the volume."""
    edge = segment_quadrature(degree).points
    return np.concatenate([_edge_points(j, edge) for j in range(3)]
                          + [triangle_quadrature(degree).points])


class HdivReferenceBasis:
    """Moment-fitted H(div) basis on the reference triangle.

    DOF ordering: edge 0 modes 0..m, edge 1, edge 2, then interior.
    Edge functionals are Legendre moments of the normal trace; BDM uses
    raw integrals (required for cross-element gluing), RT uses mean
    values so the RT_0 basis has unit normal trace on its own edge.
    """

    def __init__(self, family, ell):
        if family not in ("bdm", "rt"):
            raise ValueError(f"unknown space id {family!r}")
        self.family = family
        self.ell = ell
        order = ell if family == "bdm" else ell - 1
        self.mono = _vector_monomials(family, order)
        self.n_edge_modes = order + 1
        self.n_dofs = self.mono.n_dofs
        self.n_interior = self.n_dofs - 3 * self.n_edge_modes
        degree = 2 * ell + 2
        vmat = self.moments(self.mono.eval(_moment_points(degree)), degree).T
        cond = np.linalg.cond(vmat)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(f"moment matrix for {family}_{ell} is singular")
        self.coeffs = np.linalg.inv(vmat)

    def moments(self, values, degree):
        """The dof functionals applied to vector ``values`` (..., q, 2).

        ``values`` are given at ``_moment_points(degree)``; returns
        (..., n_dofs).  The fit applies them to the monomials, the
        interpolation to the Piola pullback of a field.
        """
        edge = segment_quadrature(degree)
        nqe = len(edge.points)
        leg = legvander(edge.points, self.n_edge_modes - 1).T  # (modes, nq)
        out = []
        for j in range(3):
            vn = values[..., j * nqe : (j + 1) * nqe, :] @ _REF_EDGE_NORMALS[j]
            scale = 0.5 if self.family == "rt" else _REF_EDGE_LENGTHS[j] / 2.0
            out += [(vn * leg[m] * edge.weights).sum(axis=-1) * scale
                    for m in range(self.n_edge_modes)]
        vol = triangle_quadrature(degree)
        out += [np.einsum("...qc,qc,q->...", values[..., 3 * nqe :, :], w, vol.weights)
                for w in self.interior_weights(vol.points)]
        return np.stack(out, axis=-1)

    def interior_weights(self, points):
        """Weights (n_interior, m, 2) of the interior moments at ``points`` (m, 2)."""
        if self.family == "rt":
            # RT_k: (P_{k-1})^2, component 0 first
            vals = ScalarPolyBasis(self.ell - 2).eval(points)[..., None]
            return np.concatenate([vals * e for e in np.eye(2)])
        # gradients of P_{ell-1} beyond constants, plus curls of bubble
        # times P_{ell-2}; classical unisolvent complement for BDM
        x, y = points[:, 0], points[:, 1]
        b = x * y * (1.0 - x - y)
        db = np.stack([y - 2 * x * y - y**2, x - x**2 - 2 * x * y], axis=1)
        bub = ScalarPolyBasis(self.ell - 2)
        m, dm = bub.eval(points), bub.eval_grad(points)
        curl = np.stack([b * dm[..., 1] + m * db[:, 1], -(b * dm[..., 0] + m * db[:, 0])], axis=-1)
        return np.concatenate([ScalarPolyBasis(self.ell - 1).eval_grad(points)[1:], curl])

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
    return ScalarPolyBasis(ell) if family == "p" else HdivReferenceBasis(family, ell)


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
    if space not in ("bdm", "rt", "p"):
        raise ValueError(f"unknown space id {space!r}")
    if (ell + 1 if space == "p" else ell) not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported {'degree' if space == 'p' else 'order'} {ell}")
    basis = _reference_basis(space, ell)
    return basis.eval(points), basis.eval_grad(points), basis.eval_hess(points)


# ----------------------------------------------------------------------
# Piola transform
# ----------------------------------------------------------------------


def _apply(op, ref, n, coeffs=None):
    """Per-element linear map ``op[..., out, in]`` on the last ``n`` axes of ``ref``.

    ``out`` and ``in`` are ``n`` tensor axes each.  ``ref`` holds
    reference data without an element axis; the element axes of a map of
    many elements (``Mesh.element_maps``) lead, so every transform below
    returns ``element axes + ref.shape``.

    With ``coeffs`` ``(e, i, m)``, the coefficients of ``m`` fields in the
    basis ``ref`` on each of ``e`` elements (one element axis), the fields
    are formed first (:func:`_fields`) and the map is applied to them, once
    per point and field rather than once per basis function; the result
    is ``(e, m) + ref.shape[1:]``.  Every transform below takes ``coeffs``.
    """
    if coeffs is not None:
        values = _fields(coeffs, ref)
        k = 2**n
        flat = values.reshape(len(values), -1, k)
        return (flat @ np.swapaxes(op.reshape(-1, k, k), 1, 2)).reshape(values.shape)
    lead = op.ndim - 2 * n
    ins = (list(range(lead + n, op.ndim)), list(range(ref.ndim - n, ref.ndim)))
    out = np.tensordot(op, ref, axes=ins)
    return np.moveaxis(out, list(range(lead, lead + n)), list(range(out.ndim - n, out.ndim)))


def _fields(coeffs, ref):
    """``sum_i coeffs[e, i, m] ref[i, ...]``, shape ``(e, m) + ref.shape[1:]``, as one matmul."""
    flat = np.swapaxes(coeffs, 1, 2).reshape(-1, len(ref)) @ ref.reshape(len(ref), -1)
    return flat.reshape(coeffs.shape[::2] + ref.shape[1:])


def _det(amap, n):
    """det J with ``n`` trailing unit axes."""
    return np.reshape(amap.det, np.shape(amap.det) + (1,) * n)


def piola_map(amap, ref_values, coeffs=None):
    """Contravariant Piola transform of vector values: v = J v_ref / det J."""
    return _apply(amap.jacobian / _det(amap, 2), ref_values, 1, coeffs)


def piola_div(amap, ref_divs, coeffs=None):
    """Divergence under the Piola transform: div v = div_ref v / det J."""
    values = ref_divs if coeffs is None else _fields(coeffs, ref_divs)
    return values / _det(amap, np.ndim(ref_divs))


def piola_grad(amap, ref_grads, coeffs=None):
    """Gradient of Piola-mapped values; grad[..., r, c] = d v_r / d x_c."""
    op = np.einsum("...ar,...bc->...abrc", amap.jacobian, amap.inv_transpose)
    return _apply(op / _det(amap, 4), ref_grads, 2, coeffs)


def piola_hess(amap, ref_hess, coeffs=None):
    jit = amap.inv_transpose
    op = np.einsum("...ar,...bc,...ed->...abercd", amap.jacobian, jit, jit)
    return _apply(op / _det(amap, 6), ref_hess, 3, coeffs)


def scalar_grad(amap, ref_grads, coeffs=None):
    """Physical gradient of reference scalar gradients."""
    return _apply(amap.inv_transpose, ref_grads, 1, coeffs)


def scalar_hess(amap, ref_hess, coeffs=None):
    jit = amap.inv_transpose
    return _apply(np.einsum("...ac,...bd->...abcd", jit, jit), ref_hess, 2, coeffs)


def _unmapped(amap, ref, coeffs=None):
    """Scalar values, which the element map leaves as they are."""
    if coeffs is not None:
        return _fields(coeffs, ref)
    return np.broadcast_to(ref, np.shape(amap.det) + np.shape(ref))


# transform of each kind of basis data in ``SpaceSet.on_elements``
_ELEMENT_TRANSFORMS = {
    "p": _unmapped,
    "u": piola_map,
    "u_div": piola_div,
    "u_grad": piola_grad,
    "u_hess": piola_hess,
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
    """Quadrature geometry, facet rows and data maps of the boundary facets that carry one tag.

    Boundary data, essential and traction alike, is evaluated at
    ``points`` (the rule ``SpaceSet.bc_rule``), facet-major with the
    facet's parameter s running along its global direction, and reduced
    to the facet Legendre moments ``sum_q g(x_q) P_m(s_q) w_q`` with
    ``moments[m, q] = P_m(s_q) w_q``.  ``u_rows`` and ``uhat_rows`` are
    the rows of the facets' own u and uhat DOFs in the full layout, and
    ``phat_rows`` those of their phat DOFs in one network's phat block,
    mode m in column m: on facet f the normal trace of u DOF m is
    ``(2m + 1) / h P_m``, uhat DOF m is ``P_m t`` and phat DOF m ``P_m``.
    The three maps, sparse matrices on the samples raveled and formed on
    first use, scale a moment by ``h / 2`` or ``(2m + 1) / 2``.
    """

    facets: np.ndarray        # (k,) global facet indices, ascending
    normal: np.ndarray        # (k, 2) outward unit normals
    tangent: np.ndarray       # (k, 2)
    length: np.ndarray        # (k,)
    points: np.ndarray        # (k, nq, 2)
    u_rows: np.ndarray        # (k, n_modes)
    uhat_rows: np.ndarray     # (k, n_modes)
    phat_rows: np.ndarray     # (k, n_modes - 1)
    moments: np.ndarray       # (n_modes, nq), shared by every tag

    @cached_property
    def traction_map(self):
        """The u and uhat rows of the surface load of a traction g, up to the
        largest of ``uhat_rows``: g.n tests the normal trace of u and g.t
        tests uhat, so u DOF m takes ``(2m + 1) / 2`` times the moment of g.n
        and uhat DOF m ``h / 2`` times that of g.t."""
        return self._moment_map((self.u_rows, self.normal, False), (self.uhat_rows, self.tangent, True))

    @cached_property
    def dirichlet_map(self):
        """The u values of a displacement g, then its uhat values, in the
        order of the raveled rows: the moments of ``traction_map`` with the
        two scales swapped."""
        local = np.arange(2 * self.u_rows.size).reshape(2, *self.u_rows.shape)
        return self._moment_map((local[0], self.normal, True), (local[1], self.tangent, False))

    @cached_property
    def pressure_map(self):
        """The phat values of a pressure g, in the order of the raveled
        ``phat_rows``: ``(2m + 1) / 2`` times its moments."""
        local = np.arange(self.phat_rows.size).reshape(self.phat_rows.shape)
        return self._moment_map((local, np.ones((len(self.facets), 1)), False))

    def _moment_map(self, *blocks):
        """The map from samples ``(k, nq, c)`` raveled that puts at
        ``rows[f, m]`` of each block ``(rows, frame, by_length)`` the moment
        m of facet f's samples along ``frame[f]``, times ``h / 2`` if
        ``by_length`` and ``(2m + 1) / 2`` if not."""
        k, nq, _ = self.points.shape
        coef = []
        for rows, frame, by_length in blocks:
            n = rows.shape[1]
            scale = (self.length / 2.0)[:, None, None, None] if by_length else legendre_scale(n)[:, None, None]
            coef.append(scale * self.moments[None, :n, :, None] * frame[:, None, None, :])
        coef = np.concatenate(coef, axis=1)
        rows = np.broadcast_to(np.concatenate([b[0] for b in blocks], axis=1)[:, :, None, None], coef.shape)
        n_cols = coef[:, 0].size
        cols = np.broadcast_to(np.arange(n_cols).reshape(k, 1, nq, -1), coef.shape)
        return sps.csr_matrix((coef.ravel(), (rows.ravel(), cols.ravel())), shape=(rows.max() + 1, n_cols))


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

    @cached_property
    def layout(self):
        """The :class:`DofLayout` of these spaces, formed on first use."""
        return DofLayout(self)

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

    # -- bases on the elements -----------------------------------------

    def on_elements(self, kind, ref, elements=slice(None), coeffs=None):
        """Reference data ``ref`` (no element axis) mapped to ``elements``.

        ``elements`` indexes the mesh's elements, all by default.  ``kind``
        names the transform, see ``_ELEMENT_TRANSFORMS``; the element axis
        leads the result, and displacement ("u") bases carry the global
        dof signs.  With ``coeffs`` ``(e, i, m)``, global coefficients of
        ``m`` fields in the basis ``ref`` on each element, the mapped fields
        ``(e, m, ...)`` are returned instead (see :func:`_apply`); the u
        signs go on the coefficients.
        """
        transform = _ELEMENT_TRANSFORMS[kind]
        amap = build_affine_map(self.mesh, elements)
        signs = self.u_signs[elements] if kind.startswith("u") else None
        if coeffs is not None:
            return transform(amap, ref, coeffs if signs is None else coeffs * signs[..., None])
        out = transform(amap, ref)
        if signs is not None:
            out = out * signs.reshape(signs.shape + (1,) * (out.ndim - 2))
        return out

    def on_edge(self, kind, cache, local_edge, elements=slice(None), coeffs=None):
        """Traces ``cache[local_edge]`` mapped as by :meth:`on_elements`.

        They are ordered along the global facet direction, see
        :func:`orient_trace`.
        """
        values = self.on_elements(kind, cache[local_edge], elements, coeffs)
        return orient_trace(values, self.mesh.facet_direction[elements, local_edge])

    # -- caches --------------------------------------------------------

    def _build_caches(self):
        self.vol_rule = vol = triangle_quadrature(self.quad_degree)
        self.edge_rule = edge = segment_quadrature(self.quad_degree)
        nqe = len(edge.points)

        def split(values):
            """Values at ``_moment_points``: the traces on edges 0-2 (local
            edge parametrization), then the volume values."""
            parts = np.split(values, [nqe, 2 * nqe, 3 * nqe], axis=1)
            return [np.ascontiguousarray(v) for v in parts[:3]], np.ascontiguousarray(parts[3])

        # one evaluation of each basis at the edge and volume points
        pts = _moment_points(self.quad_degree)
        self.bdm_edge_vals = split(self.bdm.eval(pts))[0]
        self.bdm_edge_grads, self.bdm_grads = split(self.bdm.eval_grad(pts))
        self.rt_edge_vals, self.rt_vals = split(self.rt.eval(pts))
        self.p_edge_vals, self.p_vals = split(self.p.eval(pts))
        self.bdm_divs = self.bdm.eval_div(vol.points)
        self.rt_divs = self.rt.eval_div(vol.points)
        self.p_grads = self.p.eval_grad(vol.points)
        # Legendre values at the edge rule, for facet-space bases
        max_modes = max(self.n_uhat, self.n_phat)
        self.leg_edge = legvander(edge.points, max_modes - 1).T
        # rule and Legendre values for the facet moments of boundary data
        self.bc_rule = segment_quadrature(2 * self.ell + 6)
        self.bc_leg = legvander(self.bc_rule.points, max_modes - 1).T
        self._build_boundary()

    def _build_boundary(self):
        """Per-tag geometry and facet rows of the boundary facets, see
        :class:`BoundaryFacets`.

        Tags are read from the mesh here, once.
        """
        mesh = self.mesh
        bf = mesh.boundary_facets
        arrays = {
            "facets": bf,
            "normal": mesh.facet_normal[bf],
            "tangent": mesh.facet_tangent[bf],
            "length": mesh.facet_length[bf],
            "points": _facet_points(mesh, bf, self.bc_rule.points),
            "u_rows": np.add.outer(bf * self.n_u_edge, np.arange(self.n_u_edge)),
            "uhat_rows": self.size_u + self.uhat_dofs(bf),
            "phat_rows": self.phat_dofs(bf),
        }
        moments = self.bc_leg[: self.n_uhat] * self.bc_rule.weights
        moments.setflags(write=False)
        groups = {}
        for k, f in enumerate(bf):
            groups.setdefault(mesh.boundary_tags.get(int(f)), []).append(k)
        self.boundary = {}
        for tag, sel in groups.items():
            parts = {name: a[sel] for name, a in arrays.items()}
            for a in parts.values():
                a.setflags(write=False)
            self.boundary[tag] = BoundaryFacets(**parts, moments=moments)

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

        ``f`` is called once, at the moment points of every element.
        """
        degree = 2 * self.ell + 8
        return basis.moments(_pullback(self.mesh.element_maps, f, _moment_points(degree)), degree)

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
        out = np.empty((m, 2))
        out[...] = values.reshape(2, -1).T
        return out.reshape(lead + (2,))
    if values.size != m:
        out = np.empty(m)
        out[...] = values
        values = out
    return values.reshape(lead)


def _pullback(maps, f, ref_points):
    """Inverse Piola transform det J J^-1 f of a vector field at mapped reference points.

    ``maps`` is a batch of element maps; returns ``(e, q, 2)``.  The
    contraction with J^-T is one batched matmul.
    """
    fv = evaluate(f, maps.to_physical(ref_points), vector=True)
    return maps.det[:, None, None] * (fv @ maps.inv_transpose)
