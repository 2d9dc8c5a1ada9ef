"""Preconditioned MinRes with the two norm-equivalent block preconditioners.

Two symmetric positive definite preconditioners are provided:

* ``full_block``: block diagonal over the full system, pairing the
  stabilized elasticity-plus-flux-mass block with a pressure block that
  realizes the weighted pressure HDG norm plus the Lambda mass.
* ``schur_reduced``: the fluxes are eliminated element-wise first (their
  mass block is element-block-diagonal, so the inverse is exact), and the
  reduced system on displacement and pressures is preconditioned with the
  elasticity block and the resulting pressure Schur complement plus the
  Lambda mass.

:func:`solve` takes the variant by name.  :func:`build_preconditioner`
reads it off its target: a :class:`~mpet.assembly.ConstrainedSystem`
gets ``full_block`` and a :class:`CondensedSystem` ``schur_reduced``.

Both inner blocks are inverted by a symmetric-mode sparse factorization
whose pivots also certify the block SPD, at every size; a pressure block
left singular by all-flux networks is bordered by its kernel vectors.  The
iteration itself is a standard three-term preconditioned MinRes recurrence
whose convergence is measured in the preconditioned residual norm.
"""

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (
    _embed_per_network,
    _lambda_mass_q,
    constant_pressure_mode,
    mean_correct,
    pressure_hdg_matrix,
    pressure_nullspace,
)

__all__ = [
    "PreconditionerError",
    "SolveReport",
    "minres",
    "preconditioner_matrices",
    "build_preconditioner",
    "condense_velocity",
    "mean_zero_functionals",
    "solve",
]


class PreconditionerError(RuntimeError):
    pass


@dataclass
class SolveReport:
    iterations: int
    residuals: list
    converged: bool
    wall_time: float = 0.0
    conservation: float = None
    variant: str = ""

    @property
    def final_residual(self):
        return self.residuals[-1] if self.residuals else 0.0


# ----------------------------------------------------------------------
# MinRes
# ----------------------------------------------------------------------


def minres(operator, apply_prec, rhs, tol=1e-8, maxit=500):
    """Preconditioned MinRes for a symmetric operator and SPD preconditioner.

    Stops when the preconditioned residual norm falls below ``tol`` times
    its initial value.  Returns ``(x, SolveReport)``; hitting ``maxit``
    yields a non-converged report, not an exception.
    """
    n = rhs.shape[0]
    matvec = operator.dot if hasattr(operator, "dot") else operator
    x = np.zeros(n)
    t0 = time.perf_counter()

    v_prev = np.zeros(n)
    v = rhs - matvec(x)
    z = apply_prec(v)
    gamma2 = float(v @ z)
    if gamma2 < 0:
        raise PreconditionerError("preconditioner not SPD")
    gamma = float(np.sqrt(gamma2))
    history = [gamma]
    if gamma == 0.0:
        return x, SolveReport(0, history, True, time.perf_counter() - t0)

    gamma_prev = 1.0
    eta = gamma
    s_prev = s = 0.0
    c_prev = c = 1.0
    w = np.zeros(n)
    w_prev = np.zeros(n)
    z = z / gamma
    converged = False
    it = 0
    while it < maxit:
        it += 1
        az = matvec(z)
        delta = float(z @ az)
        v_next = az - (delta / gamma) * v - (gamma / gamma_prev) * v_prev
        z_next = apply_prec(v_next)
        gamma_next2 = float(v_next @ z_next)
        if gamma_next2 < 0:
            raise PreconditionerError("preconditioner not SPD")
        gamma_next = float(np.sqrt(gamma_next2))

        a0 = c * delta - c_prev * s * gamma
        a1 = float(np.hypot(a0, gamma_next))
        a2 = s * delta + c_prev * c * gamma
        a3 = s_prev * gamma
        c_prev, s_prev = c, s
        c, s = a0 / a1, gamma_next / a1

        w_next = (z - a3 * w_prev - a2 * w) / a1
        x = x + (c * eta) * w_next
        eta = -s * eta
        history.append(abs(eta))

        if abs(eta) <= tol * history[0]:
            converged = True
            break
        if gamma_next == 0.0:
            converged = True
            break

        w_prev, w = w, w_next
        v_prev, v = v, v_next
        gamma_prev, gamma = gamma, gamma_next
        z = z_next / gamma_next

    return x, SolveReport(it, history, converged, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# sparse factorization that is its own SPD certificate
# ----------------------------------------------------------------------


class _SPDFactor:
    """Sparse factorization of an SPD block; raises if the block is not SPD.

    The symmetric-mode ``splu`` is also the certificate: with rows and
    columns permuted alike, the pivots ``U.diagonal()`` have the inertia
    of the matrix (Sylvester's law), so an unbordered block is SPD exactly
    when every pivot is positive.

    A block bordered by ``border`` kernel columns, ``[[X, K], [K^T, -I/s]]``,
    stands for its Schur complement ``X + s K K^T``, which :meth:`solve`
    inverts.  ``X`` may be singular along the kernel, so the sparse factor
    must not end on it: one anchor row of each kernel column joins the
    border in a dense ``2m x 2m`` tail that is eliminated last.  By
    Haynsworth's inertia additivity the complement is SPD exactly when no
    pivot of the head or eigenvalue of the tail is zero and exactly
    ``border`` of them are negative.  A zero corner gives the inverse on the
    complement of the border: :meth:`solve` returns the ``x`` with
    ``K^T x = 0`` and ``X x - r`` in the span of ``K``, and the same count
    certifies ``X`` SPD on that complement.
    """

    def __init__(self, mat, border=0):
        mat = sps.csc_matrix(mat)
        self._border = border
        head = mat
        if border:
            n = mat.shape[0] - border
            anchors = [mat[:n, j].indices.min() for j in range(n, n + border)]
            self._tail = np.array(anchors + list(range(n, n + border)))
            self._head = np.setdiff1d(np.arange(n + border), self._tail)
            head = mat[np.ix_(self._head, self._head)]
        try:
            lu = spla.splu(
                head,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise PreconditionerError("preconditioner not SPD (singular factor)") from exc
        pivots = lu.U.diagonal()
        if border:
            coupling = mat[np.ix_(self._head, self._tail)].toarray()
            self._w = lu.solve(coupling)
            self._schur = mat[np.ix_(self._tail, self._tail)].toarray() - coupling.T @ self._w
            pivots = np.concatenate([pivots, np.linalg.eigvalsh(self._schur)])
        if not (
            np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(pivots != 0)
            and np.count_nonzero(pivots < 0) == border
        ):
            raise PreconditionerError(
                "preconditioner not SPD (penalty too small, or R, alpha_p and "
                "xi all vanish)"
            )
        self._lu = lu

    def solve(self, r):
        if not self._border:
            return self._lu.solve(r)
        r = np.concatenate([r, np.zeros(self._border)])
        z = np.linalg.solve(self._schur, r[self._tail] - self._w.T @ r[self._head])
        r[self._head] = self._lu.solve(r[self._head]) - self._w @ z
        r[self._tail] = z
        return r[: -self._border]


class BlockDiagPreconditioner:
    """Applies the inverse of blockdiag(X_1, X_2); ``x2`` may be bordered
    by ``border`` kernel columns (see :class:`_SPDFactor`)."""

    def __init__(self, x1, x2, border=0):
        self.cut = x1.shape[0]
        self.f1 = _SPDFactor(x1)
        self.f2 = _SPDFactor(x2, border)

    def __call__(self, r):
        out = np.empty_like(r)
        out[: self.cut] = self.f1.solve(r[: self.cut])
        out[self.cut :] = self.f2.solve(r[self.cut :])
        return out


# ----------------------------------------------------------------------
# reduced system (velocity condensation)
# ----------------------------------------------------------------------


def _block_diag_inverse(mat, block_size):
    """Exact inverse of an element-block-diagonal sparse matrix."""
    idx = np.arange(mat.shape[0]).reshape(-1, block_size, 1)
    rows, cols = np.broadcast_arrays(idx, np.swapaxes(idx, 1, 2))
    blocks = np.asarray(mat.tocsr()[rows.ravel(), cols.ravel()]).reshape(rows.shape)
    inv = np.linalg.inv(blocks)
    return sps.csr_matrix((inv.ravel(), (rows.ravel(), cols.ravel())), shape=mat.shape)


@dataclass
class CondensedSystem:
    """System on (u, uhat, p, phat) after element-wise flux elimination."""

    constrained: object            # the originating ConstrainedSystem
    K_red: sps.csr_matrix
    iu: np.ndarray                 # positions of (u, uhat) inside the free vector
    iw: list                       # per network
    iq: np.ndarray
    Mw_inv: list                   # per network, exact block-diagonal inverses
    B_wq: list                     # per network, rows w_i, cols q
    schur: sps.csr_matrix          # sum_i B^T Mw^-1 B on the q block
    A_uu: sps.csr_matrix
    G: sps.csr_matrix              # rows q, cols (u, uhat)

    def rhs(self, full_rhs=None):
        r = self.constrained.rhs(full_rhs)
        rq = r[self.iq].copy()
        for i, (minv, b) in enumerate(zip(self.Mw_inv, self.B_wq)):
            rw = r[self.iw[i]]
            if np.any(rw):
                rq -= b.T @ (minv @ rw)
        return np.concatenate([r[self.iu], rq])

    def expand(self, x_red, full_rhs=None):
        """Recover fluxes element-wise and return the full free vector."""
        nu = len(self.iu)
        r = self.constrained.rhs(full_rhs)
        x_free = np.zeros(len(self.constrained.free))
        x_free[self.iu] = x_red[:nu]
        q = x_red[nu:]
        x_free[self.iq] = q
        for i, (minv, b) in enumerate(zip(self.Mw_inv, self.B_wq)):
            x_free[self.iw[i]] = minv @ (r[self.iw[i]] - b @ q)
        return x_free


def condense_velocity(constrained):
    """Eliminate the broken fluxes; their mass block inverts element-wise.

    Returns a :class:`CondensedSystem` whose matrix is the symmetric
    reduced operator on (u, uhat, p, phat) with the flux Schur complement
    folded into the pressure block.
    """
    con = constrained
    layout = con.layout
    spaces = con.base.kernels.spaces
    n = layout.n_networks
    pos = con.free_pos
    iu = pos[con.free_in(["u", "uhat"])]
    iw = [pos[con.free_in([f"w{i}"])] for i in range(n)]
    iq = pos[con.free_in(layout.q_fields)]

    K = con.K_ff
    A_uu = K[np.ix_(iu, iu)].tocsr()
    G = K[np.ix_(iq, iu)].tocsr()
    Cq = K[np.ix_(iq, iq)].tocsr()

    Mw_inv, B_wq = [], []
    schur = None
    for i in range(n):
        Mw = K[np.ix_(iw[i], iw[i])].tocsr()
        minv = _block_diag_inverse(Mw, spaces.n_w)
        b = K[np.ix_(iw[i], iq)].tocsr()
        term = (b.T @ (minv @ b)).tocsr()
        schur = term if schur is None else schur + term
        Mw_inv.append(minv)
        B_wq.append(b)

    K_red = sps.bmat([[A_uu, G.T], [G, Cq - schur]], format="csr")
    return CondensedSystem(
        constrained=con,
        K_red=K_red,
        iu=iu,
        iw=iw,
        iq=iq,
        Mw_inv=Mw_inv,
        B_wq=B_wq,
        schur=schur,
        A_uu=A_uu,
        G=G,
    )


# ----------------------------------------------------------------------
# preconditioners
# ----------------------------------------------------------------------


def _border_with_kernel(mat, kernel_vectors, corner=-1.0):
    """``[[X, K], [K^T, corner I/s]]`` with the unit kernel vectors as the
    sparse columns of ``K`` and ``s`` the mean absolute diagonal of ``X``.
    With the default corner the Schur complement on ``X`` is
    ``X + s K K^T``, definite along the kernel; a zero corner constrains
    ``K^T x = 0`` instead.
    """
    if not kernel_vectors:
        return mat
    scale = abs(mat.diagonal()).mean()
    K = sps.csc_matrix(np.column_stack([k / np.linalg.norm(k) for k in kernel_vectors]))
    C = sps.identity(len(kernel_vectors)) * (corner / scale)
    return sps.bmat([[mat, K], [K.T, C]], format="csr")


def preconditioner_matrices(target, scaled, kernel_vectors=()):
    """The two diagonal blocks of the target's preconditioner, unfactorized.

    A :class:`CondensedSystem` gets the ``schur_reduced`` blocks, a
    :class:`~mpet.assembly.ConstrainedSystem` the ``full_block`` ones.
    Returns ``(x_first, x_pressure)``.  With ``kernel_vectors`` (needed
    only when all-flux networks without transfer are present) the
    pressure block comes bordered by the ``m`` unit kernel vectors, one
    extra row and column each, and stands for ``X_p + s K K^T`` (see
    :class:`_SPDFactor`); spectrum diagnostics should pass none and
    restrict the pencil to the mean-zero subspace instead.
    """
    reduced = isinstance(target, CondensedSystem)
    con = target.constrained if reduced else target
    layout = con.layout
    kernels = con.base.kernels
    q_free = con.free_in(layout.q_fields)
    iq = np.ix_(q_free - layout.size_v, q_free - layout.size_v)   # within the q block
    if reduced:
        x_uw = target.A_uu
        x_p = target.schur + _lambda_mass_q(kernels, scaled)[iq]
    else:
        iv = con.free_pos[con.free_in(layout.v_fields)]
        x_uw = con.K_ff[np.ix_(iv, iv)].tocsr()
        spaces = kernels.spaces
        p_hdg = pressure_hdg_matrix(spaces, include_h2=False)
        x_p_full = _embed_per_network(p_hdg, spaces, scaled.R)
        x_p = (x_p_full + _lambda_mass_q(kernels, scaled))[iq]
    return x_uw, _border_with_kernel(x_p, [k[q_free] for k in kernel_vectors])


def build_preconditioner(target, scaled, kernel_vectors=()):
    """SPD block-diagonal preconditioner for a constrained or condensed system.

    A :class:`~mpet.assembly.ConstrainedSystem` gets ``full_block``, which
    pairs the (u, uhat, w) block of the operator with the weighted pressure
    HDG norm plus Lambda mass.  A :class:`CondensedSystem` gets
    ``schur_reduced``, which pairs the elasticity block with the flux
    Schur complement plus Lambda mass.  Singular constant-pressure modes
    (all-flux networks without transfer) are handled by factoring the
    pressure block bordered by the supplied kernel vectors, which applies
    the inverse of ``X_p + s K K^T``.
    """
    x1, x2 = preconditioner_matrices(target, scaled, kernel_vectors)
    return BlockDiagPreconditioner(x1, x2, len(kernel_vectors))


def mean_zero_functionals(system):
    """Full-layout constraint vectors whose joint null space is the
    per-network mean-zero pressure subspace, where the uniform spectral
    bounds live."""
    layout = system.layout
    ones, _ = constant_pressure_mode(system.kernels.spaces)
    out = []
    for i in range(layout.n_networks):
        m = np.zeros(layout.total)
        m[layout.sl(f"p{i}")] = system.kernels.M_p @ ones
        out.append(m)
    return out


def reduced_subspace_vectors(condensed, vectors):
    """Map full-layout q-side vectors into condensed-system coordinates."""
    con = condensed.constrained
    q_free = con.free_in(con.layout.q_fields)
    return [np.concatenate([np.zeros(len(condensed.iu)), k[q_free]]) for k in vectors]


# ----------------------------------------------------------------------
# high-level solve
# ----------------------------------------------------------------------


def solve(constrained, scaled, variant="schur_reduced", tol=1e-8, maxit=500, full_rhs=None,
          reuse=None):
    """Solve a constrained block system with preconditioned MinRes.

    ``variant`` is ``"schur_reduced"`` (condense the fluxes, then
    precondition the reduced operator) or ``"full_block"`` (precondition
    the constrained operator itself); any other value raises
    ``ValueError``.  Returns ``(x_full, report, reuse)`` where ``x_full``
    is the solution in the full layout (constrained values inserted) and
    ``reuse`` bundles the factorizations, the condensed operator and the
    pressure kernel for repeated solves with new right-hand sides.
    All-flux networks without transfer are detected from the constrained
    DOFs once per factorization (:func:`~mpet.assembly.pressure_nullspace`);
    on them the right-hand side is compatibility-corrected and the
    pressure means of the solution are zeroed.
    """
    if variant not in ("schur_reduced", "full_block"):
        raise ValueError(f"unknown preconditioner variant {variant!r}")
    reduced = variant == "schur_reduced"
    if reuse is None:
        target = condense_velocity(constrained) if reduced else constrained
        kernel_vectors = pressure_nullspace(constrained)
        prec = build_preconditioner(target, scaled, kernel_vectors)
        reuse = (target, prec, kernel_vectors)
    target, prec, kernel_vectors = reuse

    if reduced:
        rhs = target.rhs(full_rhs)
        operator = target.K_red
        kernel = reduced_subspace_vectors(target, kernel_vectors)
    else:
        rhs = constrained.rhs(full_rhs)
        operator = constrained.K_ff
        kernel = [k[constrained.free] for k in kernel_vectors]
    for k in kernel:
        rhs = rhs - (k @ rhs) / (k @ k) * k

    x_red, report = minres(operator, prec, rhs, tol=tol, maxit=maxit)
    report.variant = variant

    if reduced:
        x_free = target.expand(x_red, full_rhs)
    else:
        x_free = x_red
    x_full = constrained.expand(x_free)
    if kernel_vectors:
        layout = constrained.layout
        support = np.any(kernel_vectors, axis=0)
        null_networks = [i for i in range(layout.n_networks) if support[layout.sl(f"p{i}")].any()]
        x_full = mean_correct(x_full, constrained.base, null_networks)
    if report.converged:
        from .diagnostics import conservation_residual

        used = constrained.base.F if full_rhs is None else full_rhs
        report.conservation, _ = conservation_residual(x_full, constrained.base, used)
    return x_full, report, reuse
