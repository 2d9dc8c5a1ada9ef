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

The flux elimination is formed once per mesh with the form kernels:
network i's flux mass is ``M_w / R_i``, so its inverse is ``R_i M_w^{-1}``
and its Schur complement ``R_i S_w``.  The condensation and both pressure
blocks, ``blockdiag(R_i N) + Lambda (x) M_p`` with ``N`` the pressure HDG
norm (``FormKernels.p_hdg``) or ``S_w``, only weight per-mesh matrices by
the parameters: each is one scipy composition of weighted kernel data,
run directly on its first use per structure and recorded on its second,
and from then on a gather into the recorded pattern with the same
per-entry arithmetic (see :mod:`mpet.sparsity`).  The weighted copies
(``R_i S_w``, ``R_i N``, ``R_i M_w^{-1}`` and ``Lambda (x) M_p``) are
placed by index, and the pressure block is the sum of its two operands,
each restricted to the free DOFs first.  The condensed operator, its flux
coupling and the first block are each one composition of the operator's
weighted blocks restricted to the global indices of their DOFs
(:meth:`~mpet.assembly.BlockSystem.restrict`), so no solve forms ``K``,
and only ``full_block`` forms ``K_ff``.  The factor of the first block
is kept per structure for the last ``FIRST_FACTORS`` parameter values it
depends on (lambda for ``schur_reduced``), so cells that differ only in
R, alpha_p or xi share it, and the block is composed only when its
factor is not kept.

:func:`solve` takes the variant by name.  :func:`build_preconditioner`
reads it off its target: a :class:`~mpet.assembly.ConstrainedSystem`
gets ``full_block`` and a :class:`CondensedSystem` ``schur_reduced``.
Every entry point takes the system alone and reads the rest from it:
the parameters from ``base.scaled``, the right-hand side from
``rhs()`` and the pressure kernel from the constrained structure.

Both inner blocks are inverted exactly by a factorization that also
certifies the block SPD, at every size (:class:`_SPDFactor`).  A block
whose reverse Cuthill-McKee band fits in ``_BAND_BYTES`` (4 MiB) is
factored by LAPACK's banded Cholesky, which succeeds exactly when every
leading minor is positive; any other block by a symmetric-mode sparse
LU whose pivot signs give its inertia.  A pressure block left singular
by all-flux networks is factored with their kernel vectors, which the
factor takes and borders the block by itself, so the blocks that
:func:`preconditioner_matrices` returns are always the plain ones.  The
band takes the brain annulus and 8x8 sweep blocks, whose band solves cost
about half of SuperLU's; the larger unit-square blocks stay on SuperLU.
A block's RCM ordering and band layout depend on its pattern alone, so
each preconditioner structure keeps them (:class:`_BandPlan`) and a
block on a recorded pattern is written into its band by one indexed
assignment; ``pbtrf`` still runs on every block, as its certificate.
The iteration itself is a standard three-term preconditioned MinRes
recurrence whose convergence is measured in the preconditioned residual
norm.
"""

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .assembly import constant_pressure_mode, mean_correct
from .sparsity import Copies, Structure

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


# first-block factors a structure keeps: more than the lambda_list of any
# preset (3 values), so a sweep factors each lambda's elasticity block once
FIRST_FACTORS = 4


class PreconditionerError(RuntimeError):
    pass


_NOT_SPD = "preconditioner not SPD (penalty too small, or R, alpha_p and xi all vanish)"

# largest RCM band, ``n (w + 1)`` float64 entries, that :class:`_SPDFactor`
# factors by banded Cholesky; wider blocks take ``splu``
_BAND_BYTES = 4 * 2**20

_pbtrf, _pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


@dataclass
class SolveReport:
    iterations: int
    residuals: list
    converged: bool
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

    v_prev = np.zeros(n)
    v = rhs.copy()   # the residual of the zero start, bitwise rhs - matvec(0)
    z = apply_prec(v)
    gamma2 = float(v @ z)
    if gamma2 < 0:
        raise PreconditionerError("preconditioner not SPD")
    gamma = float(np.sqrt(gamma2))
    history = [gamma]
    if gamma == 0.0:
        return x, SolveReport(0, history, True)

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

    return x, SolveReport(it, history, converged)


# ----------------------------------------------------------------------
# sparse factorization that is its own SPD certificate
# ----------------------------------------------------------------------


class _SPDFactor:
    """Factorization of an SPD block; raises if the block is not SPD.

    One of two exact factorizations is chosen from the block's structure:

    * **Banded Cholesky.**  A block without a kernel is reordered by
      reverse Cuthill-McKee.  If its upper band, ``n (w + 1)`` entries for
      bandwidth ``w``, fits in ``_BAND_BYTES``, it is factored by LAPACK
      ``pbtrf`` and solved by ``pbtrs``.  The band is written straight
      from the block's upper entries through the inverse permutation and
      factored in place.  ``plan``, the :class:`_BandPlan` of the block's
      CSR pattern, gives the ordering and the band positions; a block
      without one is planned here.  Cholesky succeeds exactly when every
      leading minor is positive (Sylvester's criterion), so ``pbtrf`` is
      the certificate.
    * **Symmetric-mode ``splu``** for every other block.  With rows and
      columns permuted alike, the pivots ``U.diagonal()`` have the inertia
      of the matrix (Sylvester's law), so a block without a kernel is SPD
      exactly when every pivot is positive.

    Reading the pivots through ``lu.U`` makes scipy build CSC copies of
    both ``L`` and ``U``, which the ``SuperLU`` object caches for the life
    of the factor: as much again as the factor itself, 12.88 MiB for the
    (16,3) ``X_u`` and 4.53 MiB for its ``X_p``.  No scipy API reads the
    pivots without them.

    Both are exact inverses of the same matrix.  The band's triangular
    solves cost about 0.7 ns per stored entry against SuperLU's 3.5 ns, so
    the band wins while it stays within a few times SuperLU's fill; the
    budget also bounds its memory and its ``n w^2`` factorization.  Median
    solve times, one BLAS thread, with ``(n, ell)`` the ``n x n`` unit
    square at order ``ell``:

    ================  ======  =========  ===============  ==========  ==========
    block             rows    splu fill  band entries     splu solve  band solve
    ================  ======  =========  ===============  ==========  ==========
    brain X_u         1,536   72,144     119,808 (w 77)   254-275 us  82-118 us
    brain X_p         2,528   105,348    262,912 (w 103)  351-359 us  194 us
    sweep (8,2) X_u   1,440   87,534     168,480          207 us      101 us
    sweep (8,2) X_p   1,472   28,146     79,488           214 us      104 us
    (16,2) X_p        6,016   154,210    662k, over       0.91 ms     0.65 ms
    (32,1) X_u        12,032  1,176,118  6.0M, over       2.1 ms      5.8 ms
    (16,3) X_u        9,984   1,117,984  3.8M, over       1.6 ms      10.5 ms
    ================  ======  =========  ===============  ==========  ==========

    With ``kernel`` vectors ``k_1 .. k_m`` the factor borders the block
    itself: ``X`` stands for ``[[X, K], [K^T, corner I/s]]``, with the unit
    kernel vectors as the columns of ``K`` and ``s`` the mean absolute
    diagonal of ``X``, and always takes ``splu``.  The default corner
    gives the Schur complement ``X + s K K^T``, which :meth:`solve`
    inverts; ``X`` may be singular along the kernel, so the sparse factor
    must not end on it: one anchor row of each kernel vector, its first
    nonzero, joins the border in a dense ``2m x 2m`` tail that is
    eliminated last.  By Haynsworth's inertia additivity the complement is
    SPD exactly when no pivot of the head or eigenvalue of the tail is zero
    and exactly ``m`` of them are negative.  A zero corner gives the
    inverse on the complement of the kernel: :meth:`solve` returns the
    ``x`` with ``K^T x = 0`` and ``X x - r`` in the span of ``K``, and the
    same count certifies ``X`` SPD on that complement.
    """

    def __init__(self, mat, kernel=(), corner=-1.0, plan=None):
        self._m = m = len(kernel)
        self._cholesky = None
        found = None if m else _rcm_band(mat, plan)
        if found is not None:
            band, self._perm, self._inv = found
            self._cholesky, info = _pbtrf(band, overwrite_ab=1)
            if info > 0:
                raise PreconditionerError(_NOT_SPD)
            return
        mat = sps.csc_matrix(mat)
        head = mat
        if m:
            K = np.column_stack([k / np.linalg.norm(k) for k in kernel])
            self._anchors = a = np.array([np.flatnonzero(k)[0] for k in K.T])
            self._head = h = np.setdiff1d(np.arange(mat.shape[0]), a)
            head = mat[np.ix_(h, h)]
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
        if m:
            # column-major, as a CSC block's ``toarray()``: the BLAS kernel of
            # ``coupling.T @ w``, and so its rounding, follows the layout
            coupling = np.asfortranarray(np.hstack([mat[np.ix_(h, a)].toarray(), K[h]]))
            corner = np.diag(np.full(m, corner / abs(mat.diagonal()).mean()))
            tail = np.block([[mat[np.ix_(a, a)].toarray(), K[a]], [K[a].T, corner]])
            self._w = lu.solve(coupling)
            self._schur = tail - coupling.T @ self._w
            pivots = np.concatenate([pivots, np.linalg.eigvalsh(self._schur)])
        if not (
            np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(pivots != 0)
            and np.count_nonzero(pivots < 0) == m
        ):
            raise PreconditionerError(_NOT_SPD)
        self._lu = lu

    @property
    def banded(self):
        """Whether the block was factored as an RCM band."""
        return self._cholesky is not None

    def solve(self, r):
        if self._cholesky is not None:
            x, _ = _pbtrs(self._cholesky, r[self._perm], overwrite_b=1)
            return x[self._inv]
        if not self._m:
            return self._lu.solve(r)
        h, a = self._head, self._anchors
        rhs = np.concatenate([r[a], np.zeros(self._m)]) - self._w.T @ r[h]
        z = np.linalg.solve(self._schur, rhs)
        x = np.empty_like(r)
        x[h] = self._lu.solve(r[h]) - self._w @ z
        x[a] = z[: self._m]
        return x


def _rcm_band(mat, plan=None):
    """``(band, perm, inv)`` of the RCM-ordered block, or None if its band
    exceeds ``_BAND_BYTES`` or a row is empty.

    ``perm`` lists the block's rows in RCM order and ``inv`` is its
    inverse; ``band`` holds the upper triangle of the reordered block in
    LAPACK's upper band storage, ``band[w + i - j, j] = X[i, j]`` for
    ``i <= j``.  The lower triangle is not read.  ``plan`` is the
    :class:`_BandPlan` of ``mat``'s CSR pattern, formed here when not given.
    """
    if plan is None:
        mat = sps.csr_matrix(mat)
        mat.sum_duplicates()
        plan = _BandPlan(mat)
    if plan.pos is None or plan.n * (plan.w + 1) > _BAND_BYTES // 8:
        return None
    return plan.fill(mat.data), plan.perm, plan.inv


class _BandPlan:
    """The RCM band layout of a canonical CSR pattern, shared by the blocks on it.

    ``perm`` lists the rows in RCM order, ``inv`` is its inverse and ``w``
    the bandwidth.  When the band fits ``_BAND_BYTES``, ``upper`` marks
    the entries on or above the diagonal after reordering and ``pos``
    gives their flat positions in the band, stored column-major; ``pos``
    is None otherwise, and for a pattern with an empty row (such a block
    is singular, and splu rejects it).
    """

    def __init__(self, mat):
        self.n = n = mat.shape[0]
        self.pos = None
        counts = np.diff(mat.indptr)
        if counts.min() == 0:
            return
        # intp: numpy casts an int32 index array on every gather
        self.perm = reverse_cuthill_mckee(mat, symmetric_mode=True).astype(np.intp)
        self.inv = inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(n)
        cols = inv[mat.indices]
        first = mat.indptr[:-1]
        self.w = w = int(max((np.maximum.reduceat(cols, first) - inv).max(),
                             (inv - np.minimum.reduceat(cols, first)).max()))
        if n * (w + 1) <= _BAND_BYTES // 8:
            rows = np.repeat(inv, counts)
            self.upper = rows <= cols
            cols = cols[self.upper]
            self.pos = (w + rows[self.upper] - cols + (w + 1) * cols).astype(np.intp)

    def fill(self, data):
        """The band of the block with entries ``data`` on this pattern."""
        band = np.zeros((self.w + 1) * self.n)
        band[self.pos] = data[self.upper]
        return band.reshape((self.w + 1, self.n), order="F")


class BlockDiagPreconditioner:
    """Applies the inverse of blockdiag(X_1, X_2) with the factors ``f1``
    and ``f2`` of its blocks; ``X_1`` has ``cut`` rows."""

    def __init__(self, f1, f2, cut):
        self.cut = cut
        self.f1 = f1
        self.f2 = f2

    def __call__(self, r):
        out = np.empty_like(r)
        out[: self.cut] = self.f1.solve(r[: self.cut])
        out[self.cut :] = self.f2.solve(r[self.cut :])
        return out


# ----------------------------------------------------------------------
# reduced system (velocity condensation)
# ----------------------------------------------------------------------


@dataclass
class CondensedSystem:
    """System on (u, uhat, p, phat) after element-wise flux elimination."""

    constrained: object            # the originating ConstrainedSystem
    K_red: sps.csr_matrix
    iu: np.ndarray                 # positions of (u, uhat) inside the free vector
    iw: np.ndarray                 # positions of every network's fluxes
    iq: np.ndarray                 # positions of (p, phat)
    C: sps.csr_matrix              # rows w, cols q of the free operator
    Mw_inv: sps.csr_matrix         # exact inverse of the flux block, kron(diag(R), M_w^-1)

    @cached_property
    def C_T(self):
        """``C``'s transpose (CSC), kept for :meth:`rhs`."""
        return self.C.T

    def rhs(self, r):
        """Reduce the free right-hand side ``r``, ``constrained.rhs()``."""
        return np.concatenate([r[self.iu], r[self.iq] - self.C_T @ (self.Mw_inv @ r[self.iw])])

    def expand(self, x_red, r):
        """Recover fluxes element-wise, with ``r`` as in :meth:`rhs`, and
        return the full free vector."""
        nu = len(self.iu)
        x_free = np.zeros(len(self.constrained.free))
        x_free[self.iu] = x_red[:nu]
        q = x_red[nu:]
        x_free[self.iq] = q
        x_free[self.iw] = self.Mw_inv @ (r[self.iw] - self.C @ q)
        return x_free


def condense_velocity(constrained):
    """Eliminate the broken fluxes with the mesh's flux elimination.

    The flux DOFs carry no essential data, so every flux is free and
    network i's flux block is ``M_w / R_i``: its exact inverse is
    ``R_i M_w^{-1}`` and its Schur complement ``R_i S_w`` (both from
    :class:`~mpet.assembly.FormKernels`).  Returns a
    :class:`CondensedSystem` whose matrix is the symmetric reduced
    operator on (u, uhat, p, phat): ``K_ff`` on them minus
    ``blockdiag(0, R_i S_w)``, composed as the sum with ``-R_i S_w``, the
    same per-entry arithmetic as scipy's difference (every R_i is
    nonzero, so the pattern depends on the structure alone).  It and
    ``C`` are composed from the operator's weighted blocks, each restricted
    to the global indices of their free DOFs, which moves the same entries
    as restricting ``K_ff``, so neither ``K`` nor ``K_ff`` is formed.
    """
    con = constrained
    kernels = con.base.kernels
    R = con.base.scaled.R
    structure = con.structure.derive("condense", lambda: _condensed_structure(con))
    iu, iw, iq, free = structure.iu, structure.iw, structure.iq, con.free
    within = np.ix_(con.structure.q_within, con.structure.q_within)

    keep = free[structure.keep]
    kept = con.base.grid(keep, keep)

    def reduced(blocks, S):
        eliminated = sps.block_diag([sps.csr_matrix((len(iu), len(iu))), S[within]], format="csr")
        return kept(blocks), eliminated

    S_w = (_per_network(kernels.S_w, kernels.spaces), np.multiply.outer(-R, kernels.S_w.data).ravel())
    size = kernels.M_w_inv.shape[0]
    on_diagonal = lambda k, row, col: (k * size + row, k * size + col)
    Mw_inv = (Copies(kernels.M_w_inv, len(R), on_diagonal, (len(R) * size, len(R) * size)),
              np.multiply.outer(R, kernels.M_w_inv.data).ravel())
    return CondensedSystem(
        constrained=con,
        K_red=structure.compose("K_red", reduced, con.base.operands, S_w),
        iu=iu,
        iw=iw,
        iq=iq,
        C=con.base.restrict(structure, "C", free[iw], free[iq]),
        Mw_inv=structure.compose("Mw_inv", lambda M: M, Mw_inv),
    )


def _condensed_structure(con):
    """Positions of (u, uhat), the fluxes and (p, phat) in the free vector,
    and ``keep`` = (u, uhat, p, phat)."""
    layout = con.layout
    pos = con.free_pos
    iu = pos[con.free_in(["u", "uhat"])]
    iw = pos[con.free_in(layout.v_fields[2:])]
    iq = pos[con.structure.q_free]
    keep = np.concatenate([iu, iq])
    for index in (iu, iw, iq, keep):
        index.flags.writeable = False
    return Structure(iu=iu, iw=iw, iq=iq, keep=keep)


# ----------------------------------------------------------------------
# preconditioners
# ----------------------------------------------------------------------


def preconditioner_matrices(target):
    """The two diagonal blocks of the target's preconditioner, unfactorized,
    weighted by the parameters its system was built with.

    A :class:`CondensedSystem` gets the ``schur_reduced`` blocks, a
    :class:`~mpet.assembly.ConstrainedSystem` the ``full_block`` ones.
    Returns ``(x_first, x_pressure)``: the operator's (u, uhat) or
    (u, uhat, w) block, and ``blockdiag(R_i N) + Lambda (x) M_p`` on the
    free (p, phat) with ``N = S_w`` or the pressure HDG norm.  The
    pressure block is singular along the constant modes of all-flux
    networks without transfer; its factor takes the system's kernel and
    borders it (:class:`_SPDFactor`, :func:`build_preconditioner`).

    Both blocks are composed on patterns recorded per structure, variant
    and pattern of ``Lambda``, which says which weights are nonzero.
    """
    con, structure = _preconditioner_structure(target)
    return _first_block(con, structure), _pressure_block(con, structure)


def _preconditioner_structure(target):
    """The constrained system of ``target`` and the structure of its
    preconditioner: the variant, the positions of the first block in the
    free vector and the nonzero pattern of ``Lambda``."""
    reduced = isinstance(target, CondensedSystem)
    con = target.constrained if reduced else target
    coupled = con.base.scaled.Lambda != 0

    def build():
        first = con.free_pos[con.free_in(["u", "uhat"] if reduced else con.layout.v_fields)]
        first.flags.writeable = False
        return Structure(reduced=reduced, first=first, coupled=coupled)

    return con, con.structure.derive((reduced, np.flatnonzero(coupled).tobytes()), build)


def _first_block(con, structure):
    """The (u, uhat) or (u, uhat, w) block of ``K_ff``, composed from ``K``'s operands."""
    first = con.free[structure.first]
    return con.base.restrict(structure, "first", first, first)


def _pressure_block(con, structure):
    """``blockdiag(R_i N) + Lambda (x) M_p`` on the free (p, phat), the sum
    of its two operands restricted to the free DOFs first."""
    kernels = con.base.kernels
    scaled = con.base.scaled
    spaces = kernels.spaces
    N = kernels.S_w if structure.reduced else kernels.p_hdg
    # copy k of M_p is Lambda's k-th nonzero (i, j) times M_p, on the (p_i, p_j) block
    i, j = np.nonzero(structure.coupled)
    size_p, size_q = spaces.size_p, con.layout.total - con.layout.size_v
    on_block = lambda k, row, col: (i[k] * size_p + row, j[k] * size_p + col)
    within = np.ix_(con.structure.q_within, con.structure.q_within)
    return structure.compose(
        "x_p",
        lambda N, L: (N[within], L[within]),
        (_per_network(N, spaces), np.multiply.outer(scaled.R, N.data).ravel()),
        (Copies(kernels.M_p, len(i), on_block, (size_q, size_q)),
         np.multiply.outer(scaled.Lambda[structure.coupled], kernels.M_p.data).ravel()),
    )


def _per_network(mat, spaces):
    """:class:`~mpet.sparsity.Copies` of a (p, phat) matrix on each
    network's diagonal of the q block.

    The q block orders all volume pressures first, then all multipliers,
    so network k's copy of a volume-pressure index moves by ``k size_p``
    and that of a multiplier index by ``(n - 1) size_p + k size_phat``.
    """
    n, size_p, size_phat = spaces.n_networks, spaces.size_p, spaces.size_phat

    def place(k, row, col):
        shift = lambda idx: np.where(idx < size_p, k * size_p, (n - 1) * size_p + k * size_phat)
        return row + shift(row), col + shift(col)

    size = n * mat.shape[0]
    return Copies(mat, n, place, (size, size))


def build_preconditioner(target):
    """SPD block-diagonal preconditioner for a constrained or condensed system.

    A :class:`~mpet.assembly.ConstrainedSystem` gets ``full_block``, which
    pairs the (u, uhat, w) block of the operator with the weighted pressure
    HDG norm plus Lambda mass.  A :class:`CondensedSystem` gets
    ``schur_reduced``, which pairs the elasticity block with the flux
    Schur complement plus Lambda mass.  Singular constant-pressure modes
    (all-flux networks without transfer) are handled by the pressure
    block's factor, which takes the system's kernel on the free (p, phat)
    (:func:`~mpet.assembly.pressure_nullspace`), borders the block by it
    and applies the inverse of ``X_p + s K K^T``.

    The first block is fixed by the structure and by lambda (and R for
    ``full_block``); its factor is kept per structure for the last
    ``FIRST_FACTORS`` such values and shared by the preconditioners built
    with them, and the block is composed only when its factor is not
    kept.  The band plan of each block (:class:`_BandPlan`) is kept on
    the preconditioner's structure, so a block composed on a recorded
    pattern is written into its band by one indexed assignment.
    """
    con, structure = _preconditioner_structure(target)
    scaled = con.base.scaled
    key = (True, scaled.lam) if structure.reduced else (False, scaled.lam, *scaled.R)
    factors = con.structure.derive("first factors", OrderedDict)
    f1 = factors.pop(key, None)
    if f1 is None:
        x1 = _first_block(con, structure)
        f1 = _SPDFactor(x1, plan=structure.derive("first band", lambda: _BandPlan(x1)))
        del x1   # freed before the pressure block is composed and factored
    factors[key] = f1
    if len(factors) > FIRST_FACTORS:
        factors.popitem(last=False)
    x_p, kernel = _pressure_block(con, structure), con.structure.kernel
    plan = None if kernel else structure.derive("pressure band", lambda: _BandPlan(x_p))
    return BlockDiagPreconditioner(f1, _SPDFactor(x_p, kernel, plan=plan), len(structure.first))


def mean_zero_functionals(condensed):
    """Constraint vectors in the coordinates of ``condensed`` whose joint
    null space is the per-network mean-zero pressure subspace, where the
    uniform spectral bounds live."""
    con = condensed.constrained
    layout, kernels = con.layout, con.base.kernels
    out = []
    for i in range(layout.n_networks):
        m = np.zeros(layout.total)
        p = layout.sl(f"p{i}")
        m[p] = kernels.M_p @ constant_pressure_mode(kernels.spaces, i)[p]
        out.append(np.concatenate([np.zeros(len(condensed.iu)), m[con.structure.q_free]]))
    return out


# ----------------------------------------------------------------------
# high-level solve
# ----------------------------------------------------------------------


def solve(constrained, variant="schur_reduced", tol=1e-8, maxit=500, reuse=None):
    """Solve ``K_ff x = constrained.rhs()`` with preconditioned MinRes.

    ``variant`` is ``"schur_reduced"`` (condense the fluxes, then
    precondition the reduced operator) or ``"full_block"`` (precondition
    the constrained operator itself); any other value raises
    ``ValueError``.  Returns ``(x_full, report, reuse)`` where ``x_full``
    is the solution in the full layout (constrained values inserted) and
    ``reuse`` holds the target and its preconditioner for solves with a
    new ``base.F`` or new constrained values.  On the pressure kernel
    (:func:`~mpet.assembly.pressure_nullspace`), in the last rows of the
    solve vector from ``prec.cut`` on in both variants, the right-hand
    side is compatibility-corrected and the pressure means are zeroed.
    """
    if variant not in ("schur_reduced", "full_block"):
        raise ValueError(f"unknown preconditioner variant {variant!r}")
    reduced = variant == "schur_reduced"
    if reuse is None:
        target = condense_velocity(constrained) if reduced else constrained
        reuse = (target, build_preconditioner(target))
    target, prec = reuse
    r = constrained.rhs()
    rhs = target.rhs(r) if reduced else r
    tail = rhs[prec.cut :]   # a view: the projection edits rhs, never r in the reduced variant
    for k in constrained.structure.kernel:
        tail -= (k @ tail) / (k @ k) * k

    x_red, report = minres(target.K_red if reduced else target.K_ff, prec, rhs, tol=tol, maxit=maxit)
    report.variant = variant

    x_full = constrained.expand(target.expand(x_red, r) if reduced else x_red)
    x_full = mean_correct(x_full, constrained.base, constrained.structure.null_networks)
    if report.converged:
        from .diagnostics import conservation_residual

        report.conservation, _ = conservation_residual(x_full, constrained.base)
    return x_full, report, reuse
