"""Parameter-dependent norms, conservation checks, inf-sup and spectra.

Everything here is a pure function of assembled matrices and coefficient
vectors.  The eigenvalue-based estimators use dense solves and guard
against meshes too large for that; they are diagnostics, not production
paths.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.linalg import eigh

from .assembly import (
    DofLayout,
    _embed_per_network,
    _lambda_mass_q,
    assemble_kernels,
    displacement_hdg_factors,
    displacement_hdg_matrix,
    divdiv_factors,
    pressure_hdg_factors,
    pressure_hdg_matrix,
)

__all__ = [
    "NormReport",
    "NormAssembler",
    "evaluate_norms",
    "conservation_residual",
    "estimate_inf_sup",
    "preconditioned_spectrum",
    "pressure_schur_complement",
    "write_conservation_csv",
    "write_infsup_csv",
]

DENSE_LIMIT = 6000


@dataclass
class NormReport:
    """Values of the parameter-dependent norms for one coefficient vector."""

    u_hdg: float
    u_bar: float
    w: float
    p_hdg: list
    p_bar: float
    product: float


class NormAssembler:
    """Precomputed norm matrices on a fixed mesh and space set.

    The second-derivative terms of the displacement and pressure HDG
    norms are included here (they are omitted from the preconditioner
    blocks, which use the stabilized bilinear forms instead).  Norms are
    sums of squares of the field's weighted quadrature values
    (:class:`~mpet.assembly.NormFactors`), so a rigid motion has a
    displacement norm of rounding size, not the square root of it.
    """

    def __init__(self, mesh, spaces, kernels=None):
        self.mesh = mesh
        self.spaces = spaces
        self.kernels = kernels or assemble_kernels(mesh, spaces)
        self.layout = DofLayout(spaces)
        self.u_hdg = displacement_hdg_factors(mesh, spaces, include_h2=True)
        self.divdiv = divdiv_factors(spaces)
        self.p_hdg = pressure_hdg_factors(mesh, spaces, include_h2=True)

    def report(self, x, scaled):
        layout = self.layout
        n = scaled.n
        uu = np.concatenate([x[layout.sl("u")], x[layout.sl("uhat")]])
        u_hdg2 = self.u_hdg.norm2(uu)
        u_bar2 = u_hdg2 + scaled.lam * self.divdiv.norm2(x[layout.sl("u")])

        w2 = 0.0
        for i in range(n):
            wi = x[layout.sl(f"w{i}")]
            w2 += float(wi @ (self.kernels.M_w @ wi)) / scaled.R[i]

        p_hdg = []
        for i in range(n):
            pair = np.concatenate([x[layout.sl(f"p{i}")], x[layout.sl(f"phat{i}")]])
            p_hdg.append(float(np.sqrt(self.p_hdg.norm2(pair))))
        p_all = np.concatenate([x[layout.sl(f"p{i}")] for i in range(n)])
        lam_mass = sps.kron(sps.csr_matrix(scaled.Lambda), self.kernels.M_p)
        p_bar2 = sum(scaled.R[i] * p_hdg[i] ** 2 for i in range(n)) + float(
            p_all @ (lam_mass @ p_all)
        )

        prod2 = u_bar2 + w2 + p_bar2
        sqrt = lambda v: float(np.sqrt(max(v, 0.0)))
        return NormReport(
            u_hdg=sqrt(u_hdg2),
            u_bar=sqrt(u_bar2),
            w=sqrt(w2),
            p_hdg=p_hdg,
            p_bar=sqrt(p_bar2),
            product=sqrt(prod2),
        )

    def product_norm_matrix(self, scaled):
        """Full-layout sparse matrix of the squared product norm."""
        spaces = self.spaces
        kernels = self.kernels
        divdiv = sps.block_diag(
            [scaled.lam * kernels.divdiv, sps.csr_matrix((spaces.size_uhat, spaces.size_uhat))]
        )
        masses = [kernels.M_w / R for R in scaled.R]
        p_bar = _embed_per_network(self.p_hdg.matrix(), spaces, scaled.n, scaled.R)
        p_bar = p_bar + _lambda_mass_q(kernels, scaled)
        return sps.block_diag([self.u_hdg.matrix() + divdiv, *masses, p_bar], format="csr")


def evaluate_norms(x, mesh, spaces, scaled, kernels=None):
    """One-shot norm report; precompute a :class:`NormAssembler` for loops."""
    return NormAssembler(mesh, spaces, kernels).report(x, scaled)


# ----------------------------------------------------------------------
# conservation
# ----------------------------------------------------------------------


def conservation_residual(x_full, system, full_rhs=None):
    """Element-wise mass-balance residual of the solved state.

    For every element and network, the volume-pressure test rows are
    local, so the discrete balance must hold element by element.  The
    residual function is measured in L2 on each element, that is in the
    dual norm ``r_t . M_t^{-1} r_t`` with the element's pressure mass block
    (``kernels.p_mass_inv``), and normalized by the global magnitude of
    the balance terms.  Returns ``(max_relative, rows)`` with one
    ``(element, network, residual)`` row per pair, network-major.
    """
    layout = system.layout
    kernels = system.kernels
    spaces = kernels.spaces
    n = layout.n_networks
    ne = spaces.mesh.n_elements
    F = system.F if full_rhs is None else full_rhs
    r = F - system.full_matrix() @ x_full

    def dual_norm2(vecs):
        # squared L2 norms of the Riesz representatives, per vector and element
        local = np.reshape(vecs, (-1, ne, spaces.n_p))
        return np.einsum("kti,tij,ktj->kt", local, kernels.p_mass_inv, local)

    # the p_i and w_i fields are contiguous in the layout
    p_block = slice(layout.offsets["p0"], layout.offsets["p0"] + n * spaces.size_p)
    w_block = slice(layout.offsets["w0"], layout.offsets["w0"] + n * spaces.size_w)
    P = x_full[p_block].reshape(n, spaces.size_p)
    W = x_full[w_block].reshape(n, spaces.size_w)

    # global scale from the constituent terms of the balance rows
    terms = np.concatenate(
        [
            (kernels.D @ x_full[layout.sl("u")])[None, :],
            (kernels.Dw @ W.T).T,
            np.reshape(F[p_block], (n, spaces.size_p)),
            system.scaled.zeta @ (kernels.M_p @ P.T).T,
        ]
    )
    scale = float(max(np.sqrt(dual_norm2(terms).sum()), 1e-300))

    residual = np.sqrt(np.maximum(dual_norm2(r[p_block]), 0.0)) / scale
    rows = list(
        zip(
            np.tile(np.arange(ne), n).tolist(),
            np.repeat(np.arange(n), ne).tolist(),
            residual.ravel().tolist(),
        )
    )
    return float(residual.max()), rows


# ----------------------------------------------------------------------
# inf-sup estimators
# ----------------------------------------------------------------------


def _analysis_free_uu(mesh, spaces):
    """Free (u, uhat) indices for homogeneous displacement Dirichlet data."""
    mask = np.ones(spaces.size_u + spaces.size_uhat, dtype=bool)
    for f in mesh.boundary_facets:
        mask[f * spaces.n_u_edge : (f + 1) * spaces.n_u_edge] = False
        start = spaces.size_u + f * spaces.n_uhat
        mask[start : start + spaces.n_uhat] = False
    return np.nonzero(mask)[0]


def estimate_inf_sup(mesh, spaces, which, dense_limit=DENSE_LIMIT):
    """Discrete inf-sup constant by a dense Schur eigenvalue problem.

    ``which`` is "stokes-like" (divergence coupling against the
    displacement HDG norm and the L2 norm of the summed pressure) or
    "darcy-like" (the hybrid-mixed b-form against the flux L2 norm and
    the pressure HDG norm).  Returns the square root of the smallest
    nonzero generalized eigenvalue.
    """
    kernels = assemble_kernels(mesh, spaces)
    if which == "stokes-like":
        A = displacement_hdg_matrix(mesh, spaces, include_h2=True)
        free = _analysis_free_uu(mesh, spaces)
        if len(free) > dense_limit:
            raise ValueError("mesh too large for a dense inf-sup solve; use a smaller mesh")
        A = A[np.ix_(free, free)].toarray()
        # columns: all free u DOFs first (uhat columns do not couple)
        Dfull = np.zeros((spaces.size_p, len(free)))
        u_free = free[free < spaces.size_u]
        Dfull[:, : len(u_free)] = kernels.D.toarray()[:, u_free]
        S = Dfull @ np.linalg.solve(A, Dfull.T)
        M = kernels.M_p.toarray()
        eigs = eigh(0.5 * (S + S.T), M, eigvals_only=True)
    elif which == "darcy-like":
        size_q = spaces.size_p + spaces.size_phat
        if size_q > dense_limit:
            raise ValueError("mesh too large for a dense inf-sup solve; use a smaller mesh")
        N = pressure_hdg_matrix(mesh, spaces, include_h2=True).toarray()
        B = np.vstack([kernels.Dw.toarray(), -kernels.Ew.toarray()])
        Mw = kernels.M_w.toarray()
        S = B @ np.linalg.solve(Mw, B.T)
        # both S and N share the constant (q, qhat) pair as kernel; reduce
        # to the positive eigenspace of N first
        d, V = np.linalg.eigh(0.5 * (N + N.T))
        keep = d > 1e-10 * d.max()
        Vk = V[:, keep]
        S_red = Vk.T @ (0.5 * (S + S.T)) @ Vk
        N_red = np.diag(d[keep])
        eigs = eigh(S_red, N_red, eigvals_only=True)
    else:
        raise ValueError(f"unknown inf-sup kind {which!r}")
    eigs = np.real(eigs)
    tol = 1e-10 * max(eigs.max(), 1e-300)
    nonzero = eigs[eigs > tol]
    return float(np.sqrt(nonzero.min()))


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------


def preconditioned_spectrum(system_matrix, preconditioner_matrix, dense_limit=DENSE_LIMIT,
                            exclude=None):
    """Generalized eigenvalues of (K, B) with B SPD, densely.

    ``exclude`` restricts the pencil to the orthogonal complement of the
    given vectors; this realizes the mean-zero-compatible subspace on
    which the uniform well-posedness bounds hold when constant-pressure
    modes are present.
    """
    K = system_matrix.toarray() if sps.issparse(system_matrix) else np.asarray(system_matrix)
    B = (
        preconditioner_matrix.toarray()
        if sps.issparse(preconditioner_matrix)
        else np.asarray(preconditioner_matrix)
    )
    if K.shape[0] > dense_limit:
        raise ValueError("system too large for a dense spectrum")
    if exclude:
        kmat = np.column_stack(exclude)
        q, _ = np.linalg.qr(kmat, mode="complete")
        Q = q[:, kmat.shape[1] :]
        K = Q.T @ K @ Q
        B = Q.T @ B @ Q
    return eigh(0.5 * (K + K.T), 0.5 * (B + B.T), eigvals_only=True)


def pressure_schur_complement(constrained):
    """Dense pressure Schur complement S_p = -B A^{-1} B^T - C on free DOFs."""
    con = constrained
    layout = con.layout
    pos = con.free_pos
    iv = np.concatenate([layout.indices(f) for f in layout.v_fields])
    iv = pos[iv]
    iv = iv[iv >= 0]
    iq = np.concatenate([layout.indices(f) for f in layout.q_fields])
    iq = pos[iq]
    iq = iq[iq >= 0]
    if len(iv) + len(iq) > DENSE_LIMIT:
        raise ValueError("system too large for a dense Schur complement")
    K = con.K_ff.toarray()
    A = K[np.ix_(iv, iv)]
    B = K[np.ix_(iq, iv)]
    minusC = K[np.ix_(iq, iq)]
    return -B @ np.linalg.solve(A, B.T) + minusC


def spectrum_intervals(eigs, tol=1e-12):
    """Split eigenvalues into the negative and positive branches."""
    eigs = np.sort(np.real(np.asarray(eigs)))
    neg = eigs[eigs < -tol]
    pos = eigs[eigs > tol]
    return (
        (float(neg.min()), float(neg.max())) if len(neg) else None,
        (float(pos.min()), float(pos.max())) if len(pos) else None,
    )


# ----------------------------------------------------------------------
# CSV reports
# ----------------------------------------------------------------------


def write_conservation_csv(path, rows, header_comment=None):
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("element,network,residual\n")
        for element, network, residual in rows:
            fh.write(f"{element},{network},{residual!r}\n")


def write_infsup_csv(path, rows, header_comment=None):
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("mesh_n,beta_h\n")
        for mesh_n, beta in rows:
            fh.write(f"{mesh_n},{beta!r}\n")
