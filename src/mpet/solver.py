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
certifies the block SPD, at every size (:class:`_SPDFactor`).  The HDG
unknowns leave each block with local rows that couple only in small
blocks: in ``X_u`` the ``uhat`` of each facet (and for ``full_block``
the fluxes of each element and network), which trail ``u``, and in
``X_p`` the volume pressures of each element over all networks, which
lead the multipliers.  The factor condenses them statically: it inverts
the local blocks in one batched step, and if the reverse Cuthill-McKee
band of the Schur complement ``S`` on the other rows fits in
``_BAND_BYTES`` (10 MiB, set from measured blocks) it factors ``S`` by
LAPACK's banded Cholesky.
The local blocks' Cholesky and ``pbtrf`` succeed exactly when the block
is SPD.  Any other block is factored by a symmetric-mode sparse LU whose
pivot signs give its inertia.  A pressure block left singular by
all-flux networks is factored with their kernel vectors, which the
factor takes and borders the block by itself, so the blocks that
:func:`preconditioner_matrices` returns are always the plain ones.  The
condensed band takes the brain annulus blocks, the 8x8 sweep blocks,
both (16,2) and (32,1) blocks and the (16,3) pressure block; the (16,3)
elasticity block stays on SuperLU.  The local blocks, the pattern of
``S`` and its band layout depend on the block's pattern alone
(:class:`_BandPlan`): the constrained structure keeps the first block's
per variant and each preconditioner structure the pressure block's, and
a block on a recorded pattern runs only the batched inverse, the Schur
update and ``pbtrf``, which is the certificate's second half.
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
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

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
# factors by banded Cholesky; wider blocks take ``splu``.  Measured over the
# blocks of the benchmark workloads and presets (CHANGES.md): every band up to
# 8.9 MiB, the (32,1) elasticity block's, factors faster than SuperLU; the
# next, 12.3 MiB at (16,3), costs a cold solve as much as SuperLU (its solves
# are 40% slower), and the 24 MiB (16,3) elasticity band loses outright
_BAND_BYTES = 10 * 2**20

_pbtrf, _pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


@dataclass
class SolveReport:
    iterations: int
    residuals: list
    converged: bool
    conservation: float = None

    @property
    def final_residual(self):
        return self.residuals[-1] if self.residuals else 0.0


# ----------------------------------------------------------------------
# MinRes
# ----------------------------------------------------------------------


def minres(operator, apply_prec, rhs, tol=1e-8, maxit=500):
    """Preconditioned MinRes for a symmetric operator and SPD preconditioner.

    ``operator`` is applied through its ``dot`` (a sparse matrix or a
    numpy array).  Stops when the preconditioned residual norm falls below
    ``tol`` times its initial value.  Returns ``(x, SolveReport)``; hitting
    ``maxit`` yields a non-converged report, not an exception.
    """
    n = rhs.shape[0]
    matvec = operator.dot
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

    One of two exact factorizations is chosen from the block's pattern,
    and :attr:`path` names it:

    * ``"condensed"``, **static condensation, then banded Cholesky.**
      ``plan``, the :class:`_BandPlan` of the block's CSR pattern, names
      its local rows: those that couple among themselves only in small
      blocks.  In the preconditioner these are the ``uhat`` (and for
      ``full_block`` the ``w``) that trail ``u`` in ``X_u``, one block per
      facet (per element and network), and the volume pressures that
      lead ``X_p``, one block per element over the networks.  The local
      blocks are inverted in one batched step, the Schur complement
      ``S = X_kk - X_kl X_ll^-1 X_lk`` on the other rows is written
      straight into its reverse Cuthill-McKee band, and if that band,
      ``n (w + 1)`` entries for bandwidth ``w``, fits in ``_BAND_BYTES``,
      ``S`` is factored by LAPACK ``pbtrf`` and solved by ``pbtrs``.  By
      Haynsworth's inertia additivity the block is SPD exactly when the
      local blocks and ``S`` are, and Cholesky succeeds exactly when every
      leading minor is positive (Sylvester's criterion), so the batched
      Cholesky of the local blocks and ``pbtrf`` together are the
      certificate.  An apply is two slices, one sparse product with the
      transpose of ``[X_ll^-1, X_ll^-1 X_lk]``, the band solve and one
      product with ``X_ll^-1 X_lk``, a view of that transpose's rows.
    * ``"splu"``, **symmetric-mode** ``splu``, for every other block: one
      given without a plan, as in the spectrum diagnostics, one whose plan
      does not fit, and a bordered one.  With rows and columns permuted
      alike, the pivots ``U.diagonal()`` have the inertia of the matrix
      (Sylvester's law), so a block without a kernel is SPD exactly when
      every pivot is positive.

    Reading the pivots through ``lu.U`` makes scipy build CSC copies of
    both ``L`` and ``U``, which the ``SuperLU`` object caches for the life
    of the factor: as much again as the factor itself, 12.88 MiB for the
    (16,3) ``X_u`` and 4.53 MiB for its ``X_p``.  No scipy API reads the
    pivots without them.

    Both are exact inverses of the same matrix.  The band's triangular
    solves cost about 0.7 ns per stored entry against SuperLU's 3.5 ns, so
    the band wins while it stays within a few times SuperLU's fill; the
    budget also bounds its memory and its ``n w^2`` factorization.
    Condensation shrinks the band twice over: ``S`` has fewer rows than
    the block, and the local rows no longer widen its RCM levels (the
    band entries below go from the block's own RCM band to ``S``'s).
    Best-of-7 solve times on the path taken, one BLAS thread, of the
    ``schur_reduced`` blocks, with ``(n, ell)`` the ``n x n`` unit square
    at order ``ell`` under the ``manufactured`` benchmark's parameters
    (CHANGES.md has both paths' factor and solve times for every block):

    ==========  ======  ======  =====================  ===========  ======
    block       rows    S rows  band entries, S's      path         solve
                                                                    (us)
    ==========  ======  ======  =====================  ===========  ======
    brain X_u   1,536   768     119,808 to 55,296      condensed    49
    brain X_p   2,528   1,504   262,912 to 114,304     condensed    93
    (8,1) X_u   704     352     81,664 to 17,600       condensed    45
    (8,1) X_p   608     352     13,984 to 10,208       condensed    41
    (8,2) X_u   1,440   912     168,480 to 109,440     condensed    71
    (8,2) X_p   1,472   704     79,488 to 40,832       condensed    47
    (16,2) X_p  6,016   2,944   662k to 359,168        condensed    274
    (16,2) X_u  5,952   3,744   1.41M to 899k          condensed    653
    (32,1) X_p  10,112  6,016   961k to 752k           condensed    549
    (32,1) X_u  12,032  6,016   6.0M to 1.17M          condensed    1,009
    (16,3) X_p  10,560  4,416   2.0M to 808k           condensed    639
    (16,3) X_u  9,984   7,040   3.8M to 3.2M, over     splu         1,061
    ==========  ======  ======  =====================  ===========  ======

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
        self._plan = None
        if not m and plan is not None and plan.fits:
            band, self._condensing, self._coupling = plan.condense(mat.data)
            self._cholesky, info = _pbtrf(band, overwrite_ab=1)
            if info > 0:
                raise PreconditionerError(_NOT_SPD)
            self._plan = plan
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
    def path(self):
        """How the block was factored: ``"condensed"`` or ``"splu"``."""
        return "splu" if self._plan is None else "condensed"

    def solve(self, r):
        plan = self._plan
        if plan is not None:
            r_s = r[plan.keep]
            # X_ll^-1 r_l over X_kl X_ll^-1 r_l: [X_ll^-1, X_ll^-1 X_lk]^T r_l
            z = self._condensing @ r[plan.local]
            n_l = len(z) - len(r_s)
            x_s, _ = _pbtrs(self._cholesky, (r_s - z[n_l:])[plan.perm], overwrite_b=1)
            x = np.empty_like(r)
            x[plan.keep] = x_s = x_s[plan.inv]
            x[plan.local] = z[:n_l] - self._coupling @ x_s
            return x
        if not self._m:
            return self._lu.solve(r)
        h, a = self._head, self._anchors
        rhs = np.concatenate([r[a], np.zeros(self._m)]) - self._w.T @ r[h]
        z = np.linalg.solve(self._schur, rhs)
        x = np.empty_like(r)
        x[h] = self._lu.solve(r[h]) - self._w @ z
        x[a] = z[: self._m]
        return x


class _BandPlan:
    """The condensation and band layout of a canonical CSR pattern, shared
    by the blocks on it.

    ``local``, a leading or trailing slice of the rows, is condensed, and
    the other rows, ``keep``, carry the Schur complement ``S``.  The local
    rows split into the connected components of their own graph, the local
    blocks, and ``S``'s pattern is that of the kept rows plus, for each
    local block, every pair of the kept rows it couples to.  ``perm``
    lists ``S``'s rows in RCM order, ``inv`` is its inverse and ``w`` its
    bandwidth.  ``fits`` says whether the band, ``size`` entries, fits
    ``_BAND_BYTES``.  A pattern whose local or kept rows are empty never
    fits, and neither does one with an empty row (such a block is singular,
    and splu rejects it).  Only a fitting pattern is laid out further
    (:meth:`_lay_out`).

    The local rows and the kept rows are each one run of the CSR, and the
    local columns one range at the start or the end of every row, so the
    plan finds the positions of the entries it needs from the rows' bounds
    alone.  The pattern is taken to be structurally symmetric, as every
    preconditioner block's is: the local blocks' couplings are read off
    the local rows.
    """

    def __init__(self, mat, local):
        n = mat.shape[0]
        lo, hi, _ = local.indices(n)
        self.local, self.keep = slice(lo, hi), slice(hi, n) if lo == 0 else slice(0, lo)
        self.fits = False
        if hi == lo or hi - lo == n or np.diff(mat.indptr).min() == 0:
            return
        n_l, n_s = hi - lo, n - (hi - lo)
        within, across, kept = mat[self.local, self.local], mat[self.local, self.keep], mat[self.keep, self.keep]
        label = connected_components(within, directed=False)[1]
        # the rows of S each local block reaches: the blocks' indicator times
        # X_lk's pattern (all ones, so no sum cancels)
        blocks = sps.csr_matrix((np.ones(n_l), label, np.arange(n_l + 1)), shape=(n_l, label.max() + 1))
        reach = blocks.T.tocsr() @ sps.csr_matrix((np.ones(across.nnz), across.indices, across.indptr), shape=across.shape)
        reach.sort_indices()
        pattern = sps.csr_matrix((np.ones(kept.nnz), kept.indices, kept.indptr), shape=kept.shape)
        pattern = pattern + reach.T.tocsr() @ reach
        # intp: numpy casts an int32 index array on every gather
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
        self.inv = inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(n_s)
        del pattern
        # the bandwidth: the widest entry of X_kk or the widest spread of the
        # rows of S one local block reaches (``take``: fancy indexing casts an
        # int32 index array first)
        k_i, k_j = inv[np.repeat(np.arange(n_s), np.diff(kept.indptr))], inv.take(kept.indices)
        spread, first = inv.take(reach.indices), reach.indptr[:-1][np.diff(reach.indptr) > 0]
        self.w = max(int(np.abs(k_i - k_j).max(initial=0)),
                     int((np.maximum.reduceat(spread, first) - np.minimum.reduceat(spread, first)).max(initial=0)))
        self.size = n_s * (self.w + 1)
        if self.size <= _BAND_BYTES // 8:
            self.fits = True
            # a canonical row holds its local columns first (lo == 0) or last
            w_at, a_at = _positions(mat, self.local, within, lo == 0), _positions(mat, self.local, across, lo > 0)
            within = (w_at, np.repeat(np.arange(n_l), np.diff(within.indptr)), within.indices)
            # a coupling's place among the rows of S its block reaches (scipy
            # answers empty index arrays with a sparse matrix)
            a_row = np.repeat(np.arange(n_l), np.diff(across.indptr))
            place = sps.csr_matrix((np.arange(reach.nnz) - np.repeat(reach.indptr[:-1], np.diff(reach.indptr)),
                                    reach.indices, reach.indptr), shape=reach.shape)
            a_col = np.asarray(place[label[a_row], across.indices]).ravel() if across.nnz else a_row
            across = (a_at, a_row, a_col)
            self._lay_out(mat.nnz, label, reach, within, across, (_positions(mat, self.keep, kept, lo > 0), k_i, k_j))

    def _lay_out(self, nnz, label, reach, within, across, kept):
        """Lay out a fitting pattern of ``nnz`` entries from ``label``, the
        local block of each local row, ``reach``, the rows of ``S`` that
        each block couples to as a CSR matrix, and the block's entries as
        ``(positions, row, column)``: ``within`` the local blocks (rows and
        columns counted from the first local row), ``across`` their
        couplings ``X_lk`` (the column is the place among the rows of
        ``S`` the block reaches) and ``kept`` the entries of ``X_kk`` (rows
        and columns of ``S`` in RCM order).

        The local blocks are batched by their size ``s``, and a batch's
        couplings are padded to ``t`` columns, the most rows of ``S`` one
        of its blocks reaches.  Each of ``groups`` is one batch of ``n``
        blocks, ``(n, s, t, at, src)``: the block's entries
        ``data[src[0]]`` fill the flat positions ``at[0]`` of the batch's
        ``(n, s, s)`` blocks and ``data[src[1]]`` the positions ``at[1]``
        of its ``(n, s, t)`` couplings ``X_lk``.  ``pos`` gives the flat
        column-major band position of each of the block's entries and then
        of each entry of the batches' ``(n, t, t)`` Schur updates, or
        ``size`` for those below the diagonal, off ``S`` or on the padding.
        ``stacked`` is the CSR pattern ``(indices, indptr)`` of
        ``[X_ll^-1, X_ll^-1 X_lk]^T``, whose rows from ``n_l`` on hold
        ``X_ll^-1 X_lk`` as a CSC view of them; a product with either sums
        the same terms in the same order as one with the untransposed CSR
        layout.  ``take`` gathers its data from the batches'
        ``(n, s, s + t)`` stacks of the two, laid end to end.
        """
        n_l, n_s, w, size = len(label), len(self.perm), self.w, self.size
        # int32 halves the largest array a plan keeps, and bincount casts it in
        # one pass; the padding's row n_s stays off the band
        inv = np.append(self.inv, n_s).astype(np.int32)

        def place(i, j):   # the band positions of (i, j) in RCM order, j = -1 on padding
            at = w + i + w * j
            off = size - at   # size below the diagonal, by a select without branches
            np.multiply(off, i > j, out=off)
            at += off
            return at

        s, t, first = np.bincount(label), np.diff(reach.indptr), reach.indptr[:-1]
        # the blocks by size, the local rows block after block, and k, a
        # local row's row within its block
        order = np.argsort(s, kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        start = np.cumsum(s[order]) - s[order]
        members = np.argsort(slot[label], kind="stable")
        k = np.empty(n_l, dtype=np.intp)
        k[members] = np.arange(n_l) - start[slot[label[members]]]
        bounds = np.flatnonzero(np.diff(s[order], prepend=0, append=0))
        batch = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))[slot]
        sizes = [(b - a, s[order[a]], t[order[a:b]].max()) for a, b in zip(bounds[:-1], bounds[1:])]
        self.pos = pos = np.empty(nnz + sum(n * width * width for n, _, width in sizes), dtype=np.int32)
        pos[:nnz] = size
        pos[kept[0]] = place(*kept[1:])
        # a local row's row in its batch's stacks, and where that row starts
        row = (slot - bounds[batch])[label] * s[label] + k
        rows_at = np.empty(n_l, dtype=np.intp)
        self.groups, done, done_pos = [], 0, nnz
        for g, (a, (n, m, width)) in enumerate(zip(bounds, sizes)):
            blocks = order[a : a + n]
            (w_at, w_row, w_col), (a_at, a_row, a_col) = within, across
            if len(sizes) > 1:   # the batch's entries only
                on_w, on_a = batch[label[w_row]] == g, batch[label[a_row]] == g
                w_at, w_row, w_col = w_at[on_w], w_row[on_w], w_col[on_w]
                a_at, a_row, a_col = a_at[on_a], a_row[on_a], a_col[on_a]
            self.groups.append((n, m, width, (row[w_row] * m + k[w_col], row[a_row] * width + a_col), (w_at, a_at)))
            rows = members[start[a : a + n, None] + np.arange(m)].ravel()
            rows_at[rows] = done + (m + width) * np.arange(len(rows))
            done += n * m * (m + width)
            # the batch's updates with the blocks on the last axis, which keeps
            # numpy's inner loops long, then moved to (n, t, t)
            j = np.arange(width)[:, None]
            reached = inv.take(reach.indices[np.minimum(first[blocks] + j, len(reach.indices) - 1)])
            reached[j >= t[blocks]] = n_s
            update = place(reached[:, None, :], np.where(reached < n_s, reached, -1)[None, :, :])
            pos[done_pos : done_pos + n * width * width].reshape(n, width, width)[...] = update.transpose(2, 0, 1)
            done_pos += n * width * width
        # row by row, [X_ll^-1, X_ll^-1 X_lk] holds the first s + t entries of
        # the row's row of the stacks: its block's rows, then n_l plus the
        # rows of S the block reaches
        count = s[label] + t[label]
        indptr = np.zeros(n_l + 1, dtype=np.int32)
        np.cumsum(count, out=indptr[1:])
        step = np.arange(indptr[-1]) - np.repeat(indptr[:-1], count)
        lists = np.cumsum(s + t) - (s + t)   # each block's row, blocks end to end
        columns = np.empty(n_l + len(reach.indices), dtype=np.int32)
        columns[lists[label] + k] = np.arange(n_l)
        columns[np.repeat(lists + s - first, t) + np.arange(len(reach.indices))] = n_l + reach.indices
        ids = sps.csr_matrix(((np.repeat(rows_at, count) + step).astype(np.int32),
                              columns[np.repeat(lists[label], count) + step], indptr), shape=(n_l, n_l + n_s))
        ids = ids.T.tocsr()
        self.take, self.stacked = ids.data, (ids.indices, ids.indptr)

    def condense(self, data):
        """The band of ``S`` for the block with entries ``data`` on this
        pattern, ``[X_ll^-1, X_ll^-1 X_lk]^T`` as a CSR matrix and
        ``X_ll^-1 X_lk``, the transpose of its rows from ``n_l`` on, as a
        CSC view of them; raises :class:`PreconditionerError` if a local
        block is not SPD."""
        weights = np.empty(len(self.pos))   # the entries, then the batches' Schur updates
        weights[: len(data)] = data
        stacks = np.empty(sum(n * s * (s + t) for n, s, t, _, _ in self.groups))
        done_w, done_s = len(data), 0
        for n, s, t, at, src in self.groups:
            _condense_batch(data, n, s, t, at, src, weights[done_w : done_w + n * t * t],
                            stacks[done_s : done_s + n * s * (s + t)])
            done_w, done_s = done_w + n * t * t, done_s + n * s * (s + t)
        band = np.bincount(self.pos, weights, minlength=self.size + 1)
        del weights
        band = band[: self.size].reshape((self.w + 1, len(self.perm)), order="F")
        n_l, n_s = self.local.stop - self.local.start, len(self.perm)
        stacked = stacks.take(self.take)
        del stacks
        stacked = sps.csr_matrix((stacked, *self.stacked), shape=(n_l + n_s, n_l))
        cut = stacked.indptr[n_l]
        coupling = sps.csc_matrix((stacked.data[cut:], stacked.indices[cut:], stacked.indptr[n_l:] - cut),
                                  shape=(n_l, n_s))
        return band, stacked, coupling


def _positions(mat, rows, part, lead):
    """The positions in the canonical CSR ``mat`` of the entries of
    ``part``, the submatrix of the run of rows ``rows`` on a range of
    columns that leads (``lead``) or trails each row."""
    counts = np.diff(part.indptr)
    start = mat.indptr[rows.start : rows.stop] if lead else mat.indptr[rows.start + 1 : rows.stop + 1] - counts
    return np.repeat(start - part.indptr[:-1], counts) + np.arange(part.nnz)


def _condense_batch(data, n, s, t, at, src, update, stack):
    """Write the negated Schur updates ``-X_kl X_ll^-1 X_lk`` of one batch
    of local blocks of the block with entries ``data`` into ``update`` and
    its stacks ``[X_ll^-1, X_ll^-1 X_lk]`` into ``stack``, both flat;
    raises if a local block is not SPD."""
    blocks, coupling = np.zeros(n * s * s), np.zeros(n * s * t)
    blocks[at[0]] = data[src[0]]
    coupling[at[1]] = data[src[1]]
    blocks, coupling = blocks.reshape(n, s, s), coupling.reshape(n, s, t)
    try:
        np.linalg.cholesky(blocks)   # the local half of the certificate
    except np.linalg.LinAlgError:
        raise PreconditionerError(_NOT_SPD) from None
    inverse = np.linalg.inv(blocks)
    solved = inverse @ coupling
    update = update.reshape(n, t, t)
    np.matmul(coupling.transpose(0, 2, 1), solved, out=update)
    np.negative(update, out=update)
    np.concatenate([inverse, solved], axis=2, out=stack.reshape(n, s, s + t))


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
    iu: slice                      # the range of (u, uhat) in the free vector
    iw: slice                      # the range of every network's fluxes
    iq: slice                      # the range of (p, phat), the free vector's tail
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
        x_free = np.zeros(len(self.constrained.free))
        x_free[self.iu] = x_red[: self.iu.stop]
        q = x_red[self.iu.stop :]
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
    starts, free = con.structure.starts, con.free
    iu, iw, iq = slice(0, starts["w0"]), slice(starts["w0"], starts["p0"]), slice(starts["p0"], len(free))
    within = np.ix_(con.structure.q_within, con.structure.q_within)
    kept = con.base.grid(structure.keep, structure.keep)

    def reduced(blocks, S):
        eliminated = sps.block_diag([sps.csr_matrix((iu.stop, iu.stop)), S[within]], format="csr")
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
    """``keep``, the free (u, uhat, p, phat) DOFs, read-only."""
    w0 = con.structure.starts["w0"]
    keep = np.concatenate([con.free[:w0], con.structure.q_free])
    keep.flags.writeable = False
    return Structure(keep=keep)


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
    preconditioner: the variant, the range of the first block in the free
    vector, the nonzero pattern of ``Lambda`` and the local rows of both
    blocks, which their factors condense (:class:`_SPDFactor`)."""
    reduced = isinstance(target, CondensedSystem)
    con = target.constrained if reduced else target
    coupled = con.base.scaled.Lambda != 0

    def build():
        starts = con.structure.starts
        first = slice(0, starts["w0"] if reduced else starts["p0"])
        # the local rows: all that trails u in the first block, the volume pressures in X_p
        local = (slice(starts["uhat"], first.stop), slice(0, starts["phat0"] - starts["p0"]))
        return Structure(reduced=reduced, first=first, coupled=coupled, local=local)

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
    (``structure.kernel``), borders the block by it and applies the
    inverse of ``X_p + s K K^T``.

    The first block is fixed by the structure and by lambda (and R for
    ``full_block``); its factor is kept per structure for the last
    ``FIRST_FACTORS`` such values and shared by the preconditioners built
    with them, and the block is composed only when its factor is not
    kept.  The condensation plan of each block (:class:`_BandPlan`) is
    kept on the preconditioner's structure, so a block composed on a
    recorded pattern runs only the batched inverse of its local blocks,
    the Schur update and ``pbtrf``.
    """
    con, structure = _preconditioner_structure(target)
    scaled = con.base.scaled
    key = (True, scaled.lam) if structure.reduced else (False, scaled.lam, *scaled.R)
    factors = con.structure.derive("first factors", OrderedDict)
    f1 = factors.pop(key, None)
    if f1 is None:
        x1 = _first_block(con, structure)
        # the first block does not depend on Lambda: its plan is kept per variant
        plan = con.structure.derive(("first band", structure.reduced), lambda: _BandPlan(x1, structure.local[0]))
        f1 = _SPDFactor(x1, plan=plan)
        del x1   # freed before the pressure block is composed and factored
    factors[key] = f1
    if len(factors) > FIRST_FACTORS:
        factors.popitem(last=False)
    x_p, kernel = _pressure_block(con, structure), con.structure.kernel
    plan = None if kernel else structure.derive("pressure band", lambda: _BandPlan(x_p, structure.local[1]))
    return BlockDiagPreconditioner(f1, _SPDFactor(x_p, kernel, plan=plan), structure.first.stop)


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
        out.append(np.concatenate([np.zeros(condensed.iu.stop), m[con.structure.q_free]]))
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
    (``structure.kernel``), in the last rows of the solve vector from
    ``prec.cut`` on in both variants, the right-hand side is
    compatibility-corrected and the pressure means are zeroed.
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

    x_full = constrained.expand(target.expand(x_red, r) if reduced else x_red)
    x_full = mean_correct(x_full, constrained.base, constrained.structure.null_networks)
    if report.converged:
        from .diagnostics import conservation_residual

        report.conservation, _ = conservation_residual(x_full, constrained.base)
    return x_full, report, reuse
