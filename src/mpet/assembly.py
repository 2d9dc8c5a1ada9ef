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
kernels, the volume load) is computed for all elements at once: bases
mapped by ``SpaceSet.on_elements`` carry a leading element axis, the
facet terms take one pass per local edge, ``_gram`` contracts each
quadrature sum as one batched matmul, and ``_scatter`` sums the element
blocks into a sparse matrix.  The HDG norm matrices do the same over
element chunks of a fixed size in bytes (:class:`NormFactors`); the
squared norm of a vector maps its field instead of every basis function.

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
    elimination of one network on its (p, phat): network i's flux mass is
    ``M_w / R_i``, so its flux Schur complement is ``R_i S_w``.

    Every matrix here, and :attr:`p_hdg`, stores no zero entries, so a
    weighted sum of them has none either unless two entries cancel
    exactly.  ``structure`` holds the sparsity patterns recorded by the
    compositions on these kernels (:func:`build_block_system` and the
    steps after it), keyed by the constrained DOFs and which weights are
    nonzero, and other parameter-free data kept per kernels, such as the
    manufactured load values and Dirichlet data of
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
    """Every parameter-free form matrix, from batched element and facet integrals.

    Each mapped basis (the pressure values, the BDM and RT divergences,
    the RT values, the symmetric BDM gradients and each facet pass's
    traces) is freed once its Grams exist, so no two of them are alive
    together, nor any of them during a scatter.
    """
    if eta <= 0.0:
        raise ValueError("penalty parameter eta must be positive")
    s = spaces
    mesh = s.mesh
    elements = np.arange(mesh.n_elements)
    udofs, wdofs, pdofs = s.u_dofmap, s.w_dofs(elements), s.p_dofs(elements)
    wq = s.vol_rule.weights * mesh.element_maps.det[:, None]
    pvals = s.on_elements("p", s.p_vals)
    p_mass = _gram(pvals, None, wq)
    div_u = _gram(pvals, s.on_elements("u_div", s.bdm_divs), wq)
    div_w = _gram(pvals, s.on_elements("w_div", s.rt_divs), wq)
    del pvals
    w_mass = _gram(s.on_elements("w", s.rt_vals), None, wq)
    a_terms = [(udofs, udofs, _gram(_sym(s.on_elements("u_grad", s.bdm_grads)), None, wq))]
    ew_terms = []
    for j in range(3):
        a_term, ew_term = _facet_terms(s, j, elements, wdofs, eta)
        a_terms.append(a_term)
        ew_terms.append(ew_term)

    size_uu = s.size_u + s.size_uhat
    M_w_inv = _scatter((s.size_w, s.size_w), (wdofs, wdofs, np.linalg.inv(w_mass)))
    Dw = _scatter((s.size_p, s.size_w), (pdofs, wdofs, div_w))
    Ew = _scatter((s.size_phat, s.size_w), *ew_terms)
    B = sps.vstack([-Dw, Ew], format="csr")
    matrices = dict(
        a_hdg=_scatter((size_uu, size_uu), *a_terms),
        divdiv=divdiv_factors(s).matrix(),
        D=_scatter((s.size_p, s.size_u), (pdofs, udofs, div_u)),
        Dw=Dw,
        Ew=Ew,
        M_w=_scatter((s.size_w, s.size_w), (wdofs, wdofs, w_mass)),
        M_w_inv=M_w_inv,
        S_w=(B @ (M_w_inv @ B.T)).tocsr(),
        M_p=_scatter((s.size_p, s.size_p), (pdofs, pdofs, p_mass)),
    )
    return FormKernels(
        spaces=spaces,
        **{name: _zero_free(m) for name, m in matrices.items()},
        volume=float(mesh.element_area.sum()),
        p_mass_inv=np.linalg.inv(p_mass),
    )


def _facet_terms(spaces, j, elements, wdofs, eta):
    """The ``a_hdg`` and ``Ew`` terms of local edge ``j``: the element
    blocks of the consistency and penalty terms on the (u, uhat) rows,
    and those of ``(psi_w . n, phi_phat)``."""
    s = spaces
    f, h, ds, n_out = _facet_frame(s, j, elements)
    rows, jump = _u_jump(s, j, elements)
    # consistency term (eps(v) n, jump), zero on the uhat rows
    eps_n = np.einsum("eiqab,eb->eiqa", _sym(s.on_edge("u_grad", s.bdm_edge_grads, j)), n_out)
    eps_n = np.concatenate([eps_n, np.zeros_like(jump[:, eps_n.shape[1] :])], axis=1)
    cross = _gram(eps_n, jump, ds)
    del eps_n
    penalty = (eta * s.ell**2 / h)[:, None, None] * _gram(jump, None, ds)
    del jump
    wn = np.einsum("eiqa,ea->eiq", s.on_edge("w", s.rt_edge_vals, j), n_out)
    phat = s.on_elements("p", s.leg_edge[: s.n_phat])
    a_term = (rows, rows, cross + np.swapaxes(cross, 1, 2) + penalty)
    return a_term, (s.phat_dofs(f), wdofs, _gram(phat, wn, ds))


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


def _gram(a, b, w):
    """Element blocks ``sum_q w[e, q] a[e, i, q, ...] . b[e, j, q, ...]``,
    ``b`` None for ``a``'s Gram with itself.

    One batched matmul over the flattened (quadrature point x tensor)
    axis.  Each side carries sqrt(w), so a basis's Gram with itself is the
    single product B B^T and comes out exactly symmetric.
    """
    aw = _weighted(a, w)
    bw = aw if b is None else _weighted(b, w)
    return aw @ np.swapaxes(bw, 1, 2)


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
    determinants.  The mapped displacement test functions ``u_vals`` are
    formed on first use, so a load of sources alone never maps them.
    """

    def __init__(self, spaces):
        self.spaces = spaces
        self.rule = triangle_quadrature(2 * spaces.ell + 4)
        maps = spaces.mesh.element_maps
        self.wq = self.rule.weights * maps.det[:, None]
        self.phys = maps.to_physical(self.rule.points)
        self.p_vals = spaces.p.eval(self.rule.points)

    @cached_property
    def u_vals(self):
        return self.spaces.on_elements("u", self.spaces.bdm.eval(self.rule.points))

    def load(self, f=None, g=()):
        """Full-layout load vector from the values of a body force ``f``,
        ``(n_elements, q, 2)``, and of sources ``g[i]``, ``(n_elements, q)``,
        at ``phys``; a ``None`` field contributes nothing."""
        s = self.spaces
        layout = s.layout
        F = np.zeros(layout.total)
        if f is not None:
            loads = np.einsum("eqc,euqc,eq->eu", f, self.u_vals, self.wq)
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
