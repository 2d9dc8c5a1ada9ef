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
part, including the flux elimination ``M_w^{-1}`` and ``S_w`` that the
solver weights by R_i.  A composition used again with the same kernels
and structure writes the weighted kernel data into a sparsity pattern
recorded on its second use (see :mod:`mpet.sparsity`).  Functions take the space set alone and read the
geometry from ``spaces.mesh``.  Every element and facet integral (the
kernels, the volume load) is computed for all elements at once.  The
kernels and the body-force load map no basis: each element block is a
contraction of per-element coefficients of the affine map with
reference-element tensors formed once per order (see
:func:`assemble_kernels`), and ``_scatter`` sums the element blocks into
a sparse matrix.  The HDG norm matrices map their bases with
``SpaceSet.on_elements``, over element chunks of a fixed size in bytes
(:class:`NormFactors`); the squared norm of a vector maps its field
instead of every basis function.

A :class:`ConstrainedSystem` holds all that a solve reads: ``base.F``,
``base.scaled`` and its constrained structure, built once per pattern of
boundary condition kinds, the one record of the constrained DOFs, the
map to their values (:class:`EssentialMap`), each field's range of free
DOFs, the free (p, phat) and the pressure kernel (``structure.kernel``).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sps

from .sparsity import Stack, Structure
from .spaces import DofLayout, evaluate, triangle_quadrature

__all__ = [
    "DofLayout",
    "FormKernels",
    "BlockSystem",
    "BoundaryConditionSet",
    "ConstrainedSystem",
    "EssentialMap",
    "assemble_kernels",
    "build_block_system",
    "assemble_volume_rhs",
    "VolumeQuadrature",
    "assemble_traction_rhs",
    "apply_boundary_conditions",
    "constant_pressure_mode",
    "displacement_hdg_factors",
    "divdiv_factors",
    "NormFactors",
    "pressure_hdg_factors",
]

DEFAULT_ETA = 10.0


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------


@dataclass
class FormKernels:
    """Parameter-independent form matrices on a fixed mesh and space set.

    ``M_p`` is element-block-diagonal; ``p_mass_inv[t]`` is the inverse of
    its ``(n_p, n_p)`` block on element ``t``, the Riesz map of the broken
    pressure space used by the conservation diagnostics.

    The broken flux mass ``M_w`` is element-block-diagonal too, and
    ``M_w_inv`` is its exact inverse, scattered from the inverted element
    Grams.  ``S_w = B M_w^{-1} B^T`` with ``B = [-Dw; Ew]`` is the flux
    elimination of one network on its (p, phat), scattered from the
    element blocks ``B_e M_e^{-1} B_e^T``: network i's flux mass is
    ``M_w / R_i``, so its flux Schur complement is ``R_i S_w``.

    Every matrix here, and :attr:`p_hdg`, stores no zero entries, so a
    weighted sum of them has none either unless two entries cancel
    exactly.  ``structure`` holds the sparsity patterns recorded by the
    compositions on these kernels (:func:`build_block_system` and the
    steps after it), keyed by the constrained DOFs and which weights are
    nonzero, and other parameter-free data kept per kernels, such as the
    manufactured load's :class:`VolumeQuadrature` (points, weights and
    reference values, no mapped basis), load values and Dirichlet data of
    :func:`mpet.cli.manufactured_solve`; new kernels start with none.
    """

    spaces: object
    a_hdg: sps.csr_matrix        # (u + uhat) x (u + uhat), includes penalty
    divdiv: sps.csr_matrix       # u x u
    D: sps.csr_matrix            # p x u, entries (div psi_u, phi_p)
    Dw: sps.csr_matrix           # p x w, entries (div psi_w, phi_p)
    Ew: sps.csr_matrix           # phat x w, entries (psi_w . n, phi_phat)_dT
    M_w: sps.csr_matrix          # w x w plain mass
    M_w_inv: sps.csr_matrix      # w x w, exact inverse of M_w
    S_w: sps.csr_matrix          # (p + phat) x (p + phat), B M_w^-1 B^T
    M_p: sps.csr_matrix          # p x p mass
    volume: float
    p_mass_inv: np.ndarray = field(repr=False)   # (n_elements, n_p, n_p)
    structure: Structure = field(default_factory=Structure, repr=False, compare=False)

    @cached_property
    def p_hdg(self):
        """Pressure HDG norm matrix on one network's (p, phat), formed on first use."""
        return _zero_free(pressure_hdg_factors(self.spaces).matrix())


def assemble_kernels(spaces, eta=DEFAULT_ETA):
    """Every parameter-free form matrix, each kind of element block one GEMM.

    On an affine triangle a Piola-mapped Gram is a fixed reference-element
    tensor contracted with a few coefficients of the element's Jacobian
    (the tensor representation of Kirby and Logg, ACM TOMS 32(3), 2006):
    each element block is ``sum_k c[e, k] T[k]``, one product of the
    per-element coefficients ``c`` against the tensors ``T`` of
    :class:`_ReferenceTensors`, formed once per order, so no basis is
    mapped to the elements.  The volume Grams take their coefficients
    from ``J``, ``J^-1`` and ``det J`` (:func:`_flux_metric`,
    :func:`_strain_metric`), the facet terms also from the outward normal,
    the facet tangent and length of each local edge and its direction
    (:func:`_facet_coefficients`, :func:`_legendre_parity`).  ``a_hdg``
    comes as one block per element on its u and the uhat of its three
    facets, ``Ew`` as one on the phat of its facets and its w.  Each
    symmetric Gram is exactly symmetric: ``(G + G^T) / 2`` where the
    contraction sums the two triangles in different orders.
    """
    if eta <= 0.0:
        raise ValueError("penalty parameter eta must be positive")
    s = spaces
    mesh = s.mesh
    maps = mesh.element_maps
    ref = _reference_tensors(s)
    ne, n_u = mesh.n_elements, s.bdm.n_dofs
    elements, facets = np.arange(ne), mesh.element_facets
    udofs, wdofs, pdofs = s.u_dofmap, s.w_dofs(elements), s.p_dofs(elements)
    det = maps.det[:, None, None]
    penalty = 0.5 * eta * s.ell**2
    hdg_coef, ew_coef = _facet_coefficients(mesh, penalty)
    parity = _legendre_parity(mesh.facet_direction, s.n_uhat)

    # a_hdg on the element's u, then the uhat of its facets 0-2
    coef = np.concatenate([_strain_metric(maps).reshape(ne, -1), hdg_coef.reshape(ne, -1)], axis=1)
    sign = np.concatenate([s.u_signs, parity.reshape(ne, -1)], axis=1)
    a_hdg = _contract(coef, ref.hdg) * sign[:, :, None] * sign[:, None, :]
    for j in range(3):
        uhat = slice(n_u + j * s.n_uhat, n_u + (j + 1) * s.n_uhat)
        a_hdg[:, uhat, uhat] += penalty * ref.uhat_mass
    hdg_rows = np.concatenate([udofs, s.size_u + s.uhat_dofs(facets).reshape(ne, -1)], axis=1)
    # Ew on the phat of the element's facets 0-2
    ew = _contract(ew_coef.reshape(ne, -1), ref.flux_trace) * parity[:, :, : s.n_phat].reshape(ne, -1, 1)
    phat_rows = s.phat_dofs(facets).reshape(ne, -1)

    sign_uu = s.u_signs[:, :, None] * s.u_signs[:, None, :]
    p_mass = det * ref.p_mass
    w_mass = _symmetric(_contract(_flux_metric(maps), ref.w_mass))
    w_mass_inv = np.linalg.inv(w_mass)
    div_w = np.broadcast_to(ref.div_w, (ne,) + ref.div_w.shape)
    size_uu, size_q = s.size_u + s.size_uhat, s.size_p + s.size_phat
    # S_w from the element blocks B_e M_e^-1 B_e^T, B_e = [-Dw; Ew] on the
    # element's pressures and the phat of its facets
    B = np.concatenate([-div_w, ew], axis=1)
    q_rows = np.concatenate([pdofs, s.size_p + phat_rows], axis=1)
    matrices = dict(
        a_hdg=_scatter((size_uu, size_uu), (hdg_rows, hdg_rows, _symmetric(a_hdg))),
        divdiv=_scatter((s.size_u, s.size_u), (udofs, udofs, ref.divdiv / det * sign_uu)),
        D=_scatter((s.size_p, s.size_u), (pdofs, udofs, ref.div_u * s.u_signs[:, None, :])),
        Dw=_scatter((s.size_p, s.size_w), (pdofs, wdofs, div_w)),
        Ew=_scatter((s.size_phat, s.size_w), (phat_rows, wdofs, ew)),
        M_w=_scatter((s.size_w, s.size_w), (wdofs, wdofs, w_mass)),
        M_w_inv=_scatter((s.size_w, s.size_w), (wdofs, wdofs, w_mass_inv)),
        S_w=_scatter((size_q, size_q), (q_rows, q_rows, _symmetric(B @ w_mass_inv @ np.swapaxes(B, 1, 2)))),
        M_p=_scatter((s.size_p, s.size_p), (pdofs, pdofs, p_mass)),
    )
    return FormKernels(
        spaces=spaces,
        **{name: _zero_free(m) for name, m in matrices.items()},
        volume=float(mesh.element_area.sum()),
        p_mass_inv=np.linalg.inv(ref.p_mass) / det,
    )


def _flux_metric(maps):
    """``J^T J / det J`` per element, the coefficients of the RT mass: a
    Piola-mapped flux is ``J b / det J`` for its reference value ``b``."""
    J = maps.jacobian
    return np.swapaxes(J, 1, 2) @ J / maps.det[:, None, None]


def _strain_metric(maps):
    """The coefficients ``C[e, rc, r'c']`` of the symmetric-gradient Gram.

    A Piola-mapped gradient is ``J G K / det J`` for the reference
    gradient ``G`` and ``K = J^-1``, so ``det J eps(v) : eps(v')`` is
    ``(tr(G^T A G' B) + tr(G G')) / (2 det J)`` with ``A = J^T J`` and
    ``B = K K^T``: ``C = (A (x) B + P) / (2 det J)``, ``P`` the swap of
    the two indices of a gradient.
    """
    J, K = maps.jacobian, np.swapaxes(maps.inv_transpose, 1, 2)
    A, B = np.swapaxes(J, 1, 2) @ J, K @ np.swapaxes(K, 1, 2)
    kron = np.einsum("eab,ecd->eacbd", A, B).reshape(-1, 4, 4)
    return 0.5 * (kron + _SWAP) / maps.det[:, None, None]


# the swap (r, c) -> (c, r) of a flattened 2 x 2 gradient index
_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _facet_coefficients(mesh, penalty):
    """Per element and local edge, the 18 coefficients of its (u, uhat)
    terms, in the order of :attr:`_ReferenceTensors.hdg`, and the 2 of
    its ``Ew`` term.

    With ``n`` the outward normal, ``t`` the facet tangent, ``h`` its
    length and ``K = J^-1``: a Piola-mapped displacement has
    ``v . t = a . c_t`` for its reference trace ``a``, with
    ``c_t = J^T t / det J``, and ``t . eps(v) n = G : c_g`` for its
    reference gradient ``G``, with ``c_g = (c_t (K n)^T + c_n (K t)^T) / 2``
    and ``c_n = J^T n / det J``.  The jump ``(vhat - v)_t`` is
    ``(vhat - v) . t`` times ``t``.  The coefficients are those of the
    consistency term, ``-h/2 c_g c_t^T`` and ``h/2 c_g``, and of the
    penalty, ``penalty c_t c_t^T`` and ``-penalty c_t`` (penalty
    ``eta ell^2 / 2``), on the (u, u) and (u, uhat) blocks, and
    ``h/2 c_n`` for ``Ew``.
    """
    maps = mesh.element_maps
    f = mesh.element_facets
    h = 0.5 * mesh.facet_length[f][:, :, None]
    n = mesh.facet_sign[:, :, None] * mesh.facet_normal[f]
    t = mesh.facet_tangent[f]
    J, K = maps.jacobian / maps.det[:, None, None], np.swapaxes(maps.inv_transpose, 1, 2)
    c_t, c_n = (np.einsum("eac,eja->ejc", J, v) for v in (t, n))
    K_t, K_n = (np.einsum("eca,eja->ejc", K, v) for v in (t, n))
    c_g = 0.5 * (_outer(c_t, K_n) + _outer(c_n, K_t))
    hdg = [-h * _outer(c_g, c_t), penalty * _outer(c_t, c_t), h * c_g, -penalty * c_t]
    return np.concatenate(hdg, axis=2), h * c_n


def _outer(a, b):
    """``a[..., k] b[..., l]`` with ``k, l`` flattened."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (-1,))


def _legendre_parity(direction, n_modes):
    """``o^m`` for the facet directions ``o`` and the modes m < ``n_modes``:
    a facet Legendre polynomial runs along the facet, a reference trace
    along the local edge, and ``P_m(-s) = (-1)^m P_m(s)`` on the
    symmetric edge rule."""
    return direction[..., None] ** np.arange(n_modes)


class _ReferenceTensors:
    """The reference-element tensors of the kernel Grams at one order.

    Each is ``T[k, l, i, j] = sum_q w_q a[i, q, k] b[j, q, l]`` of two of
    the reference bases that ``SpaceSet`` caches (:func:`_moments`), the
    coefficient axes ``k, l`` flattened in front.  ``hdg`` stacks those of
    an element's ``a_hdg`` block on its u and the uhat of its facets 0-2:
    16 of the symmetric-gradient Gram, then per local edge the 18 of
    :func:`_facet_coefficients`, the consistency term's (u, u) block with
    its transpose added, the penalty's, and the (u, uhat) blocks of both
    with their transposes.  ``flux_trace`` stacks the 2 per local edge of
    ``Ew`` on the phat of the element's facets.  The arrays are read-only.
    """

    def __init__(self, spaces):
        s = spaces
        vol, edge = s.vol_rule.weights, s.edge_rule.weights
        self.p_mass, self.div_u, self.div_w = (_moments(s.p_vals, vol, b)[0]
                                               for b in (None, s.bdm_divs, s.rt_divs))
        self.divdiv = _moments(s.bdm_divs, vol)[0]
        self.w_mass = _moments(s.rt_vals, vol)
        legendre = s.leg_edge[: s.n_uhat]
        self.uhat_mass = _moments(legendre, edge)[0]
        n_u, n_uhat, n_phat = s.bdm.n_dofs, s.n_uhat, s.n_phat
        self.hdg = np.zeros((16 + 3 * 18, n_u + 3 * n_uhat, n_u + 3 * n_uhat))
        self.hdg[:16, :n_u, :n_u] = _moments(s.bdm_grads, vol)
        self.flux_trace = np.zeros((3 * 2, 3 * n_phat, s.n_w))
        for j, (vals, grads, rt) in enumerate(zip(s.bdm_edge_vals, s.bdm_edge_grads, s.rt_edge_vals)):
            k, u, uhat = 16 + 18 * j, slice(n_u), slice(n_u + j * n_uhat, n_u + (j + 1) * n_uhat)
            cross = _moments(grads, edge, vals)
            self.hdg[k : k + 8, u, u] = cross + np.swapaxes(cross, 1, 2)
            self.hdg[k + 8 : k + 12, u, u] = _moments(vals, edge)
            self.hdg[k + 12 : k + 18, u, uhat] = np.concatenate(
                [_moments(grads, edge, legendre), _moments(vals, edge, legendre)])
            self.hdg[k + 12 : k + 18, uhat, u] = np.swapaxes(self.hdg[k + 12 : k + 18, u, uhat], 1, 2)
            self.flux_trace[2 * j : 2 * j + 2, j * n_phat : (j + 1) * n_phat] = _moments(
                legendre[:n_phat], edge, rt)
        for tensor in vars(self).values():
            tensor.setflags(write=False)   # shared by every kernel build at this order


_REFERENCE = {}   # (ell, quad_degree) -> _ReferenceTensors


def _reference_tensors(spaces):
    """The :class:`_ReferenceTensors` of the order and quadrature of
    ``spaces``, formed from its caches on the first use of the pair."""
    key = (spaces.ell, spaces.quad_degree)
    if key not in _REFERENCE:
        _REFERENCE[key] = _ReferenceTensors(spaces)
    return _REFERENCE[key]


def _moments(a, w, b=None):
    """``sum_q w[q] a[i, q, k] b[j, q, l]`` as ``(k l, i, j)``, each of ``k`` and
    ``l`` the trailing axes of its side flattened (one when there are none).

    One batched matmul, each side weighted by sqrt(w).  ``b`` None takes
    ``a`` with itself, and the result is made exactly symmetric,
    ``T[k, l, i, j] == T[l, k, j, i]``.
    """
    root = np.sqrt(w)[:, None]
    a, b = (None if x is None else x.reshape(x.shape[0], x.shape[1], -1) * root for x in (a, b))
    t = np.moveaxis(a, 2, 0)[:, None] @ np.moveaxis(a if b is None else b, (2, 1), (0, 1))[None]
    if b is None:
        t = 0.5 * (t + t.transpose(1, 0, 3, 2))
    return t.reshape((-1,) + t.shape[2:])


def _contract(coef, tensors):
    """Element blocks ``sum_k coef[e, k] tensors[k]``, one GEMM."""
    coef = coef.reshape(len(coef), -1)
    return (coef @ tensors.reshape(coef.shape[1], -1)).reshape((len(coef),) + tensors.shape[1:])


def _symmetric(blocks):
    """``(G + G^T) / 2`` of element blocks ``(e, i, i)``: exactly symmetric."""
    return 0.5 * (blocks + np.swapaxes(blocks, 1, 2))


def _zero_free(mat):
    """``mat`` without its stored zeros, which a kernel must not carry into a sum."""
    mat.eliminate_zeros()
    return mat


# ----------------------------------------------------------------------
# batched element / facet engine
# ----------------------------------------------------------------------


def _facet_frame(spaces, j, elements):
    """Facets, lengths, edge-rule weights and outward normals of local edge ``j``
    of the index array ``elements``."""
    mesh = spaces.mesh
    f = mesh.element_facets[elements, j]
    h = mesh.facet_length[f]
    ds = spaces.edge_rule.weights * (h / 2.0)[:, None]
    return f, h, ds, mesh.facet_sign[elements, j, None] * mesh.facet_normal[f]


def _u_jump(spaces, j, elements, x=None):
    """Basis of (vhat - v)_t on local edge ``j`` of ``elements``.

    Rows are the element's u dofs, then the uhat dofs of its facet;
    returns ``(rows (e, i), basis (e, i, q, 2))``.  Given a block ``x``
    ``(size, m)`` on (u, uhat), the jumps of its ``m`` columns,
    ``(e, m, q, 2)``, take the place of the basis.
    """
    s = spaces
    f, _, _, n_out = _facet_frame(s, j, elements)
    rows = np.concatenate([s.u_dofmap[elements], s.size_u + s.uhat_dofs(f)], axis=1)
    c_u, c_uhat = _coefficients(x, rows, s.u_dofmap.shape[1])
    tr = s.on_edge("u", s.bdm_edge_vals, j, elements, c_u)
    u_t = tr - np.einsum("eiq,ea->eiqa", np.einsum("eiqa,ea->eiq", tr, n_out), n_out)
    leg = s.on_elements("p", s.leg_edge[: s.n_uhat], elements, c_uhat)
    uhat = leg[..., None] * s.mesh.facet_tangent[f][:, None, None, :]
    return rows, _join(-u_t, uhat, x)


def _p_jump(spaces, j, elements, x=None):
    """Basis of phat - p on local edge ``j`` of ``elements``, as :func:`_u_jump`."""
    s = spaces
    f = s.mesh.element_facets[elements, j]
    rows = np.concatenate([s.p_dofs(elements), s.size_p + s.phat_dofs(f)], axis=1)
    c_p, c_phat = _coefficients(x, rows, s.n_p)
    tr = s.on_edge("p", s.p_edge_vals, j, elements, c_p)
    return rows, _join(-tr, s.on_elements("p", s.leg_edge[: s.n_phat], elements, c_phat), x)


def _coefficients(x, rows, cut):
    """``x[rows]`` split after the first ``cut`` rows of each element, ``(e, i, m)``
    twice; None twice without ``x``."""
    if x is None:
        return None, None
    c = x[rows]
    return c[:, :cut], c[:, cut:]


def _join(a, b, x):
    """The basis parts ``a`` and ``b`` side by side, or with a block ``x`` the sum of its fields."""
    return np.concatenate([a, b], axis=1) if x is None else a + b


def _sym(grads):
    return 0.5 * (grads + np.swapaxes(grads, -1, -2))


def _weighted(a, w):
    """``a[e, i, q, ...] * sqrt(w[e, q])`` with the quadrature and tensor axes flattened."""
    ne, ni, nq = a.shape[:3]
    return (a * np.sqrt(w).reshape((ne, 1, nq) + (1,) * (a.ndim - 3))).reshape(ne, ni, -1)


def _scatter(shape, *terms):
    """Sparse sum of element blocks ``(rows (e, i), cols (e, j), blocks (e, i, j))``.

    Each term's broadcast indices and blocks are written, in term order,
    into its slice of one preallocated COO triplet whose indices have the
    dtype scipy picks for ``shape`` (int32 below 2^31), so scipy
    converts the triplet itself instead of a cast copy: the peak is the
    triplet and the CSR matrix built from it.
    """
    n = sum(b.size for _, _, b in terms)
    index = sps.get_index_dtype(maxval=max(shape))
    rows, cols = np.empty(n, dtype=index), np.empty(n, dtype=index)
    vals = np.empty(n, dtype=np.result_type(*(b for _, _, b in terms)))
    start = 0
    for r, c, b in terms:
        stop = start + b.size
        np.copyto(rows[start:stop].reshape(b.shape), r[:, :, None])
        np.copyto(cols[start:stop].reshape(b.shape), c[:, None, :])
        np.copyto(vals[start:stop].reshape(b.shape), b)
        start = stop
    return sps.csr_matrix((vals, (rows, cols)), shape=shape)


# bytes of the widest weighted basis of one element chunk, and of the
# widest fields of one chunk of a norm's squares (see NormFactors)
_CHUNK_BYTES = 4 << 20
_FIELD_BYTES = 256 << 10


class NormFactors:
    """A norm matrix kept as the description of its terms.

    ``terms(elements, x=None)`` yields, for an index array of elements,
    one ``(dofs (e, i), values, w (e, q))`` per term, always in the same
    order.  Without ``x``, ``values`` is the mapped basis ``(e, i, q, ...)``
    at the term's quadrature points and the term adds the blocks
    ``f f^T``, ``f`` the basis weighted by sqrt(w) (see :func:`_weighted`).
    With a block ``x`` ``(size, m)``, ``values`` is the same term of the
    ``m`` fields of ``x``'s columns, ``(e, m, q, ...)``: the coefficients
    are contracted with the reference data and each element's map is
    applied to the fields once per point (``SpaceSet.on_elements``).  So
    :meth:`matrix` maps the basis and :meth:`norm2` maps the field, from
    one description.  The squared norm is a sum of squares of the field's
    own weighted values: on the kernel of the matrix it is rounding
    squared, where the quadratic form ``x^T N x`` would be rounding of
    either sign.

    Both methods reduce over chunks of consecutive elements, so nothing
    is ever held for the whole mesh: :meth:`norm2` sums the squares chunk
    by chunk, :meth:`matrix` scatters every chunk's blocks at once.
    ``widest`` is the reference data of the widest term.  In a chunk of
    :meth:`matrix` its mapped basis, ``element_bytes`` per element, fills
    at most ``_CHUNK_BYTES``.  In one of :meth:`norm2` what it allocates
    for its ``m`` fields, ``m`` times ``field_bytes`` per element, fills
    at most ``_FIELD_BYTES``: per field, the coefficient gather, its
    signed copy, the weights and the field itself.  The budgets are
    fixed rather than options: they keep the memory of a norm from
    growing with the mesh, and each element's block comes from the same
    operations in any chunk, so the chunking can move an entry only where
    BLAS takes another kernel for a smaller product (by rounding; on the
    unit-square meshes, whose Jacobians have zero entries, not at all).
    """

    def __init__(self, size, n_elements, terms, widest):
        self.size = size
        self.n_elements = n_elements
        self.terms = terms
        self.element_bytes = widest.nbytes
        n_basis, n_points = widest.shape[:2]
        self.field_bytes = widest.itemsize * (2 * n_basis + n_points) + widest[0].nbytes

    def _chunks(self, m=None):
        """Index arrays of consecutive elements, for :meth:`matrix`, or for
        :meth:`norm2` of ``m`` fields."""
        per, budget = (self.element_bytes, _CHUNK_BYTES) if m is None else (
            m * self.field_bytes, _FIELD_BYTES)
        step = max(1, budget // per)
        starts = range(0, self.n_elements, step)
        return (np.arange(a, min(a + step, self.n_elements)) for a in starts)

    def matrix(self):
        """The norm matrix, from one ``_scatter`` of every chunk's blocks in element order."""
        chunks = [[(d, d, f @ np.swapaxes(f, 1, 2))
                   for d, basis, w in self.terms(e) for f in [_weighted(basis, w)]]
                  for e in self._chunks()]
        return _scatter((self.size, self.size), *(b for term in zip(*chunks) for b in term))

    def norm2(self, x):
        """Squared norm of ``x`` (size,), or that of each column of a block (size, m)."""
        block = x if x.ndim == 2 else x[:, None]
        total = 0.0
        for elements in self._chunks(block.shape[1]):
            for _, fields, w in self.terms(elements, block):
                total = total + np.square(_weighted(fields, w)).sum(axis=(0, 2))
                del fields, w   # freed before the next term is mapped
        return float(total[0]) if x.ndim == 1 else total


def _hdg_norm(spaces, dofs, grads, hess, jump, size, widest):
    """Volume Gram of ``grads`` (+ h_T^2 that of ``hess``), plus h_F^-1 Grams of ``jump``.

    ``dofs`` maps an index array of elements to their dofs; ``grads`` and
    ``hess`` (or None) map it, and optional coefficients ``(e, i, m)`` on
    those dofs, to the mapped basis data or fields, as
    ``SpaceSet.on_elements``.  ``jump`` is :func:`_u_jump` or :func:`_p_jump`.
    """
    mesh = spaces.mesh

    def terms(elements, x=None):
        wq = spaces.vol_rule.weights * mesh.element_maps.det[elements, None]
        d = dofs(elements)
        coeffs = None if x is None else x[d]
        yield d, grads(elements, coeffs), wq
        if hess is not None:
            h2 = (mesh.element_h[elements] ** 2)[:, None]
            yield d, hess(elements, coeffs), wq * h2
        for j in range(3):
            _, h, ds, _ = _facet_frame(spaces, j, elements)
            rows, values = jump(spaces, j, elements, x)
            yield rows, values, ds / h[:, None]

    return NormFactors(size, mesh.n_elements, terms, widest)


def divdiv_factors(spaces):
    """:class:`NormFactors` of the div-div kernel ``FormKernels.divdiv``."""
    s = spaces

    def terms(elements, x=None):
        wq = s.vol_rule.weights * s.mesh.element_maps.det[elements, None]
        d = s.u_dofmap[elements]
        yield d, s.on_elements("u_div", s.bdm_divs, elements, None if x is None else x[d]), wq

    return NormFactors(s.size_u, s.mesh.n_elements, terms, s.bdm_divs)


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------


@dataclass
class BlockSystem:
    """The operator ``K`` (see the module docstring) plus right-hand side.

    ``operands`` is the :class:`~mpet.sparsity.Stack` of ``K``'s weighted
    kernel blocks, and every matrix a solve reads from ``K`` is composed
    straight from them by :meth:`restrict`, so no solve forms ``K``
    itself: ``K`` is composed on its first read.  ``structure`` holds
    the pattern recorded for ``K``, and the constrained and condensed
    systems record theirs on it.
    """

    layout: DofLayout
    F: np.ndarray
    kernels: FormKernels
    scaled: object
    operands: Stack = field(repr=False)
    structure: Structure = field(repr=False)

    def grid(self, rows=None, cols=None):
        """The composition of ``K[ix_(rows, cols)]`` from the list of the
        operands' matrices (see :func:`_operator_grid`)."""
        spaces, coupled = self.kernels.spaces, np.nonzero(self.scaled.zeta)
        return lambda blocks: _operator_grid(spaces, coupled, rows, cols, *blocks)

    def restrict(self, structure, key, rows=None, cols=None):
        """``K[ix_(rows, cols)]`` for ascending global indices (None for
        all), composed on ``structure`` under ``key``."""
        return structure.compose(key, self.grid(rows, cols), self.operands)

    @cached_property
    def K(self):
        """The whole operator, composed on its first read."""
        return self.restrict(self.structure, "K")

    @property
    def p_block(self):
        """Slice of every network's volume pressures, contiguous in the layout."""
        start = self.layout.offsets["p0"]
        return slice(start, start + self.layout.n_networks * self.kernels.spaces.size_p)


def build_block_system(kernels, scaled):
    """The parameter-weighted operator's blocks, from the kernels.

    ``K``'s entries are the kernels' data weighted as scipy's
    ``a_hdg + lam divdiv``, ``M_w / R_i``, ``-D``, ``-Dw``, ``Ew`` and
    ``-zeta_ij M_p`` compute them, the operands of the block grid of
    :func:`_operator_grid`.  The system's structure, on which the grid's
    restrictions record their patterns, is kept per nonzero weights: the
    transfer couplings (nonzero ``zeta``) and ``lam != 0``.
    """
    spaces = kernels.spaces
    n = scaled.n
    if n != spaces.n_networks:
        raise ValueError("network count of parameters and spaces disagree")
    k = kernels
    has_lam = scaled.lam != 0
    elastic = k.a_hdg
    if has_lam:

        def padded(a_hdg, divdiv):
            size_uhat = spaces.size_uhat
            return a_hdg, sps.block_diag([divdiv, sps.csr_matrix((size_uhat, size_uhat))], "csr")

        elastic = k.structure.compose(
            "elastic", padded, (k.a_hdg, k.a_hdg.data), (k.divdiv, k.divdiv.data * scaled.lam)
        )
    operands = Stack(
        (elastic, elastic.data),
        *((k.M_w, k.M_w.data * (1 / R)) for R in scaled.R),
        (k.D, -k.D.data),
        (k.Dw, -k.Dw.data),
        (k.Ew, k.Ew.data),
        *((k.M_p, k.M_p.data * -scaled.zeta[i, j]) for i, j in zip(*np.nonzero(scaled.zeta))),
    )
    layout = spaces.layout
    return BlockSystem(
        layout=layout,
        F=np.zeros(layout.total),
        kernels=kernels,
        scaled=scaled,
        operands=operands,
        structure=k.structure.derive(("K", has_lam, np.flatnonzero(scaled.zeta).tobytes()), Structure),
    )


def _operator_grid(spaces, coupled, rows, cols, elastic, *blocks):
    """``K[ix_(rows, cols)]`` from its weighted blocks on the field grid:
    the elasticity block, each network's flux mass, ``-D``, ``-Dw``,
    ``Ew`` and one ``-zeta_ij M_p`` per transfer coupling ``(i, j)`` in
    ``coupled``; the blocks above the diagonal are the transposes of
    ``-D``, ``-Dw`` and ``Ew``.  ``rows`` and ``cols`` are ascending
    global indices, or None for all.  Each block is restricted first, by
    scipy's fancy indexing, and the restricted blocks are stacked along
    each grid row and then down the grid, so the result has the entries,
    order and index dtype of fancy indexing of ``K``."""
    n = spaces.n_networks
    masses, (D, Dw, Ew), transfer = blocks[:n], blocks[n : n + 3], blocks[n + 3 :]
    # -D on the u+uhat columns: its own arrays, the uhat columns empty
    size_uu = spaces.size_u + spaces.size_uhat
    div_u = sps.csr_matrix((D.data, D.indices, D.indptr), shape=(spaces.size_p, size_uu))
    # grid rows and columns: u+uhat, w_0..w_{n-1}, p_0..p_{n-1}, phat_0..phat_{n-1}
    grid = [[None] * (1 + 3 * n) for _ in range(1 + 3 * n)]
    grid[0][0] = elastic
    for i in range(n):
        w, p, phat = 1 + i, 1 + n + i, 1 + 2 * n + i
        grid[w][w] = masses[i]
        grid[p][0], grid[0][p] = div_u, div_u.T
        grid[p][w], grid[w][p] = Dw, Dw.T
        grid[phat][w], grid[w][phat] = Ew, Ew.T
    for M_p, i, j in zip(transfer, *coupled):
        grid[1 + n + i][1 + n + j] = M_p
    layout = spaces.layout
    starts = [0] + [layout.offsets[f] for f in layout.names[2:]] + [layout.total]
    row_groups, col_groups = _grid_groups(rows, starts), _grid_groups(cols, starts)
    col_starts = np.cumsum([0] + [count for count, _ in col_groups])
    n_cols, n_rows = int(col_starts[-1]), sum(count for count, _ in row_groups)
    if not (n_rows and n_cols):   # nothing to stack, as with no free displacement DOF
        return sps.csr_matrix((n_rows, n_cols))
    strips = []
    for line, (n_rows, r) in zip(grid, row_groups):
        if not n_rows:
            continue
        pieces, filled = [], 0   # the restricted blocks, and empty ones in the gaps
        for block, (count, c), start in zip(line, col_groups, col_starts):
            if block is None or not count:
                continue
            if start > filled:
                pieces.append(sps.csr_matrix((n_rows, start - filled)))
            pieces.append(_restricted(block, r, c))
            filled = start + count
        if n_cols > filled:
            pieces.append(sps.csr_matrix((n_rows, n_cols - filled)))
        strips.append(sps.hstack(pieces, format="csr"))
    return sps.vstack(strips, format="csr")


def _grid_groups(index, starts):
    """Ascending global ``index`` split over the grid groups that begin at
    ``starts``: per group, its count and its local indices, None when the
    group is listed whole, as it is for ``index`` None."""
    sizes = np.diff(starts)
    if index is None:
        return [(size, None) for size in sizes]
    cuts = np.searchsorted(index, starts)
    return [(b - a, None if b - a == size else index[a:b] - start)
            for a, b, start, size in zip(cuts[:-1], cuts[1:], starts, sizes)]


def _restricted(block, rows, cols):
    """``block[ix_(rows, cols)]`` as a CSR matrix, None for all rows or
    columns; the columns are taken first, so a few columns of many rows
    (``K_fc``'s) copy only their own entries."""
    if cols is not None:
        block = block[:, cols]
    if rows is not None:
        block = block[rows, :]
    return block.tocsr()


# ----------------------------------------------------------------------
# norm-realization matrices
# ----------------------------------------------------------------------


def displacement_hdg_factors(spaces):
    """:class:`NormFactors` of the displacement HDG norm on (u, uhat):
    strain mass, h^-1 tangential jump terms and the h^2 second-derivative
    seminorm (the block preconditioner uses the stabilized bilinear form
    instead)."""
    s = spaces
    ref_hess = s.bdm.eval_hess(s.vol_rule.points)
    return _hdg_norm(
        s,
        lambda e: s.u_dofmap[e],
        lambda e, c: _sym(s.on_elements("u_grad", s.bdm_grads, e, c)),
        lambda e, c: s.on_elements("u_hess", ref_hess, e, c),
        _u_jump,
        s.size_u + s.size_uhat,
        ref_hess,
    )


def pressure_hdg_factors(spaces, include_h2=False):
    """:class:`NormFactors` of the pressure HDG norm on (p, phat) for a
    single network, with the h^2 second-derivative seminorm if ``include_h2``."""
    s = spaces
    ref_hess = s.p.eval_hess(s.vol_rule.points) if include_h2 else None
    return _hdg_norm(
        s,
        s.p_dofs,
        lambda e, c: s.on_elements("p_grad", s.p_grads, e, c),
        None if ref_hess is None else lambda e, c: s.on_elements("p_hess", ref_hess, e, c),
        _p_jump,
        s.size_p + s.size_phat,
        s.p_grads if ref_hess is None else ref_hess,
    )


# ----------------------------------------------------------------------
# right-hand sides
# ----------------------------------------------------------------------


class VolumeQuadrature:
    """The quadrature of the volume load on a space set, independent of the data.

    ``phys`` holds the physical quadrature points of all elements,
    ``(n_elements, q, 2)``, and ``wq`` their weights times the Jacobian
    determinants.  No test function is mapped: a Piola-mapped
    displacement ``v = J a / det J`` has ``det J f . v = (J^T f) . a``, so
    the body-force load is ``J^T f`` against the rule-weighted reference
    BDM values ``u_ref``, times the dof signs, and a source's is its
    values against the reference pressure values ``p_vals``.
    """

    def __init__(self, spaces):
        self.spaces = spaces
        self.rule = triangle_quadrature(2 * spaces.ell + 4)
        maps = spaces.mesh.element_maps
        self.wq = self.rule.weights * maps.det[:, None]
        self.phys = maps.to_physical(self.rule.points)
        self.p_vals = spaces.p.eval(self.rule.points)
        self.u_ref = spaces.bdm.eval(self.rule.points) * self.rule.weights[:, None]

    def load(self, f=None, g=()):
        """Full-layout load vector from the values of a body force ``f``,
        ``(n_elements, q, 2)``, and of sources ``g[i]``, ``(n_elements, q)``,
        at ``phys``; a ``None`` field contributes nothing."""
        s = self.spaces
        layout = s.layout
        F = np.zeros(layout.total)
        if f is not None:
            jtf = (f @ s.mesh.element_maps.jacobian).reshape(len(f), -1)
            loads = (jtf @ self.u_ref.reshape(len(self.u_ref), -1).T) * s.u_signs
            F[layout.sl("u")] += np.bincount(s.u_dofmap.ravel(), loads.ravel(), minlength=s.size_u)
        for i, gv in enumerate(g):
            if gv is not None:
                F[layout.sl(f"p{i}")] += np.einsum("eq,pq,eq->ep", gv, self.p_vals, self.wq).ravel()
        return F


def assemble_volume_rhs(spaces, f=None, g=None, quadrature=None):
    """Volume load vector for a body force ``f`` and sources ``g[i]``.

    Each is a callable, called once at the quadrature points of all
    elements (see :func:`~mpet.spaces.evaluate`), or already its values
    at ``quadrature.phys``: ``quadrature`` is a :class:`VolumeQuadrature`
    of ``spaces`` that a caller loading one mesh repeatedly keeps, formed
    here when not given.  Returns a full-layout vector.  Mass sources
    enter the pressure test rows as assembled, matching the sign
    convention of the third block row (the caller provides g already in
    scaled form).
    """
    quad = VolumeQuadrature(spaces) if quadrature is None else quadrature

    def values(fn, vector=False):
        return evaluate(fn, quad.phys, vector=vector) if callable(fn) else fn

    return quad.load(values(f, vector=True), [values(gi) for gi in g or ()])


def assemble_traction_rhs(spaces, bcs, t=0.0):
    """Natural surface load on the displacement rows from traction tags.

    The facet geometry comes from ``spaces.boundary``; each traction
    callable ``g(x, t, n)`` is called once, at the points of its tag and
    their outward normals, and its values go to the u rows (g.n) and the
    uhat rows (g.t) by the tag's :attr:`~mpet.spaces.BoundaryFacets.traction_map`,
    formed on the first load of the tag.  Returns a full-layout vector.
    """
    F = np.zeros(spaces.layout.total)
    for tag, bd in spaces.boundary.items():
        kind, fn = bcs.displacement[tag]
        if kind != "traction":
            continue
        normals = np.repeat(bd.normal, bd.points.shape[1], axis=0)   # facet-major, as points
        gv = evaluate(lambda x, n: fn(x, t, n), bd.points, normals, vector=True)
        load = bd.traction_map
        F[: load.shape[0]] += load @ gv.ravel()
    return F


# ----------------------------------------------------------------------
# boundary conditions
# ----------------------------------------------------------------------


class BoundaryConditionSet:
    """Boundary data in scaled variables.

    ``displacement``: tag -> ("dirichlet", g(x, t) -> (2,)) or
    ("traction", g(x, t, n) -> (2,)).  A traction's normal part g.n
    loads the normal trace of u and its tangential part g.t loads uhat.
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
    """Block system restricted to free DOFs, with lift data for resolves.

    ``free`` and ``constrained`` are the constrained structure's, and
    ``values`` come from the :class:`EssentialMap` kept on it.  ``K_ff``,
    the operator on the free DOFs, is composed on its first read:
    ``full_block`` runs MinRes on it, while ``schur_reduced`` composes the
    blocks it needs straight from the operator's weighted blocks
    (:meth:`BlockSystem.restrict`) and never forms it.
    """

    base: BlockSystem
    free: np.ndarray
    constrained: np.ndarray
    values: np.ndarray
    K_fc: sps.csr_matrix
    structure: Structure = field(repr=False)   # the kept map, field starts, K_ff, K_fc and the kernel

    @property
    def layout(self):
        return self.base.layout

    @cached_property
    def K_ff(self):
        """``K[ix_(free, free)]``, composed on the pattern recorded for the free DOFs."""
        return self.base.restrict(self.structure, "K_ff", self.free, self.free)

    def rhs(self):
        """``base.F`` on the free DOFs, with the constrained values lifted out."""
        return self.base.F[self.free] - self.K_fc @ self.values

    def expand(self, x_free):
        x = np.zeros(self.base.layout.total)
        x[self.free] = x_free
        x[self.constrained] = self.values
        return x

    def update_values(self, bcs, t):
        """Constrained values of ``bcs`` at ``t``, for time-dependent profiles,
        from the :class:`EssentialMap` kept on the constrained structure;
        ``bcs`` must have the condition kinds the structure was built for."""
        spaces = self.base.kernels.spaces
        bcs.validate(spaces.mesh)
        if _condition_kinds(spaces, bcs) != self.structure.kinds:
            raise ValueError("the boundary conditions constrain other DOFs than the system")
        self.values = self.structure.essential.values(spaces, bcs, t)


def _condition_kinds(spaces, bcs):
    """The kinds of the conditions of ``bcs`` on each boundary tag, which
    fix its constrained DOFs and its :class:`EssentialMap`."""
    return tuple((bcs.displacement[tag][0], *(p[tag][0] for p in bcs.pressure))
                 for tag in spaces.boundary)


class EssentialMap:
    """The constrained DOFs of boundary data of fixed condition kinds, and
    the map from its Dirichlet callables to their values.

    Each Dirichlet callable is called once, at the ``spaces.bc_rule``
    points of its tag, and its samples go to the tag's values by one
    sparse product with the tag's
    :attr:`~mpet.spaces.BoundaryFacets.dirichlet_map` (a displacement) or
    :attr:`~mpet.spaces.BoundaryFacets.pressure_map` (a pressure), formed
    on first use and kept on ``spaces.boundary``.  One gather puts the
    values in the ascending order of ``constrained``.  A facet's values
    come from the same operations whatever the other facets, so a map
    kept across calls gives bitwise the values of a fresh one.
    """

    def __init__(self, layout, spaces, bcs):
        boundary = spaces.boundary
        self.disp = [tag for tag in boundary if bcs.displacement[tag][0] == "dirichlet"]
        self.pres = [(tag, i) for tag in boundary
                     for i, p in enumerate(bcs.pressure) if p[tag][0] == "dirichlet"]
        rows = [np.zeros(0, dtype=int)]
        rows += [np.r_[boundary[tag].u_rows.ravel(), boundary[tag].uhat_rows.ravel()] for tag in self.disp]
        rows += [layout.offsets[f"phat{i}"] + boundary[tag].phat_rows.ravel() for tag, i in self.pres]
        rows = np.concatenate(rows)
        self.take = np.argsort(rows)
        self.constrained = rows[self.take]
        self.constrained.flags.writeable = False   # shared by every system constrained by the map

    def values(self, spaces, bcs, t):
        """The values of ``bcs`` at ``t`` on :attr:`constrained`."""
        boundary = spaces.boundary
        values = [np.zeros(0)]
        values += [boundary[tag].dirichlet_map @ _sample(boundary[tag], bcs.displacement[tag][1], True, t)
                   for tag in self.disp]
        values += [boundary[tag].pressure_map @ _sample(boundary[tag], bcs.pressure[i][tag][1], False, t)
                   for tag, i in self.pres]
        return np.concatenate(values)[self.take]


def _sample(bd, fn, vector, t):
    """The values of the Dirichlet callable ``fn`` at ``t`` and the points of ``bd``, raveled."""
    return evaluate(lambda x: fn(x, t), bd.points, vector=vector).ravel()


def apply_boundary_conditions(system, bcs, t=0.0):
    """Constrain essential DOFs; traction loads go through the RHS.

    Returns a :class:`ConstrainedSystem` wrapping the reduced operator.
    Its constrained structure is kept per pattern of condition kinds of
    ``bcs`` (:func:`_constrained_structure`), and the values of ``bcs``
    at ``t`` come from the :class:`EssentialMap` kept on it.
    Inhomogeneous essential values are lifted into the right-hand side
    through the stored free-to-constrained coupling columns.  ``K_fc`` is
    ``K[ix_(free, constrained)]``, composed here, and ``K_ff`` is
    ``K[ix_(free, free)]``, composed when first read; both are
    restrictions of the operator's weighted blocks
    (:meth:`BlockSystem.restrict`), so neither forms ``K``, and both use
    patterns recorded per constrained structure.
    """
    spaces = system.kernels.spaces
    bcs.validate(spaces.mesh)
    kinds = _condition_kinds(spaces, bcs)
    structure = system.structure.derive(
        kinds, lambda: _constrained_structure(system, kinds, EssentialMap(system.layout, spaces, bcs))
    )
    essential = structure.essential
    return ConstrainedSystem(
        base=system,
        free=structure.free,
        constrained=essential.constrained,
        values=essential.values(spaces, bcs, t),
        K_fc=system.restrict(structure, "K_fc", structure.free, essential.constrained),
        structure=structure,
    )


def _constrained_structure(system, kinds, essential):
    """The one record of which DOFs boundary conditions of ``kinds``
    constrain and where each field's free DOFs sit.

    It keeps ``kinds`` and the :class:`EssentialMap` ``essential`` that
    gives their constrained DOFs and values; the read-only ascending
    ``free`` DOFs; ``starts``, the position in ``free`` of each field's
    first free DOF, so that field ``f``'s free DOFs are one range of the
    free vector (the layout is field-ordered); the free (p, phat)
    (``q_free``, and ``q_within`` as positions within the (p, phat)
    block), which close the layout; and the all-flux networks with their
    constant modes on those.
    """
    layout = system.layout
    constrained = essential.constrained
    free = np.setdiff1d(np.arange(layout.total), constrained, assume_unique=True)
    free.flags.writeable = False
    starts = np.searchsorted(free, [layout.offsets[name] for name in layout.names])
    starts = dict(zip(layout.names, starts.tolist()))
    q_free = free[starts["p0"] :]   # a read-only view
    q_within = q_free - layout.size_v
    q_within.flags.writeable = False
    null_networks = _null_networks(system, constrained)
    return Structure(
        kinds=kinds,
        essential=essential,
        free=free,
        starts=starts,
        q_free=q_free,
        q_within=q_within,
        null_networks=null_networks,
        kernel=[constant_pressure_mode(system.kernels.spaces, i)[q_free] for i in null_networks],
    )


# ----------------------------------------------------------------------
# mean-zero machinery for all-Neumann networks
# ----------------------------------------------------------------------


def _null_networks(system, constrained):
    """The networks whose constant pressure is in the kernel of the operator
    constrained at ``constrained``: every boundary-facet u DOF is
    constrained, none of the network's phat DOFs is, and its zeta row
    vanishes."""
    spaces = system.kernels.spaces
    layout = system.layout
    fixed = np.zeros(layout.total, dtype=bool)
    fixed[constrained] = True
    if not all(fixed[bd.u_rows].all() for bd in spaces.boundary.values()):
        return ()
    return tuple(
        i for i in range(layout.n_networks)
        if not fixed[layout.sl(f"phat{i}")].any() and not np.any(system.scaled.zeta[i] != 0.0)
    )


def constant_pressure_mode(spaces, i):
    """Full-layout coefficients of the constant 1 in network ``i``'s
    pressure and facet pressure, zero elsewhere.

    Local basis function 0 is the constant in both (monomials and
    Legendre polynomials start with 1).
    """
    layout = spaces.layout
    k = np.zeros(layout.total)
    k[layout.sl(f"p{i}")][:: spaces.n_p] = 1.0
    k[layout.sl(f"phat{i}")][:: spaces.n_phat] = 1.0
    return k


def mean_correct(x, system, networks):
    """Shift the pressure pairs of ``networks`` along their constant modes
    to zero pressure mean."""
    kernels = system.kernels
    for i in networks:
        k = constant_pressure_mode(kernels.spaces, i)
        p = system.layout.sl(f"p{i}")
        x = x - float(k[p] @ (kernels.M_p @ x[p])) / kernels.volume * k
    return x
