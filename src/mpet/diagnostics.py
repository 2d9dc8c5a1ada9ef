"""Parameter-dependent norms, conservation checks, inf-sup and spectra.

Everything here is a pure function of assembled matrices and coefficient
vectors.  The eigenvalue-based estimators run implicitly restarted
Lanczos (ARPACK) through the solver's sparse factors, so they hold at
every mesh size and their memory grows with the factors' fill, not with
the square of the problem size.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (
    DofLayout,
    _embed_per_network,
    _lambda_mass_q,
    constant_pressure_mode,
    displacement_hdg_factors,
    displacement_hdg_matrix,
    divdiv_factors,
    pressure_hdg_factors,
    pressure_hdg_matrix,
)
from .solver import PreconditionerError, _block_diag_inverse, _border_with_kernel, _SPDFactor

__all__ = [
    "NormReport",
    "NormAssembler",
    "conservation_residual",
    "estimate_inf_sup",
    "spectrum_ends",
]

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
    """Precomputed norm matrices on the mesh and space set of ``kernels``.

    The second-derivative terms of the displacement and pressure HDG
    norms are included here (they are omitted from the preconditioner
    blocks, which use the stabilized bilinear forms instead).  Norms are
    sums of squares of the field's quadrature values scaled by sqrt(w)
    (:class:`~mpet.assembly.NormFactors`), so a rigid motion has a
    displacement norm of rounding size, not the square root of it.
    """

    def __init__(self, kernels):
        self.kernels = kernels
        self.spaces = spaces = kernels.spaces
        self.layout = DofLayout(spaces)
        self.u_hdg = displacement_hdg_factors(spaces, include_h2=True)
        self.divdiv = divdiv_factors(spaces)
        self.p_hdg = pressure_hdg_factors(spaces, include_h2=True)

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
        p_bar = _embed_per_network(self.p_hdg.matrix(), spaces, scaled.R)
        p_bar = p_bar + _lambda_mass_q(kernels, scaled)
        return sps.block_diag([self.u_hdg.matrix() + divdiv, *masses, p_bar], format="csr")


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
    r = F - system.K @ x_full

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


def _analysis_free_uu(spaces):
    """Free (u, uhat) indices for homogeneous displacement Dirichlet data."""
    bf = spaces.mesh.boundary_facets
    mask = np.ones(spaces.size_u + spaces.size_uhat, dtype=bool)
    mask[bf[:, None] * spaces.n_u_edge + np.arange(spaces.n_u_edge)] = False
    mask[spaces.size_u + spaces.uhat_dofs(bf)] = False
    return np.nonzero(mask)[0]


def estimate_inf_sup(kernels, which):
    """Discrete inf-sup constant from the smallest nonzero Schur eigenvalue.

    ``which`` is "stokes-like" (divergence coupling against the
    displacement HDG norm and the L2 norm of the summed pressure) or
    "darcy-like" (the hybrid-mixed b-form against the flux L2 norm and
    the pressure HDG norm); the couplings and masses are read from
    ``kernels``.  Returns the square root of the smallest nonzero
    generalized eigenvalue.
    """
    spaces = kernels.spaces
    if which == "stokes-like":
        free = _analysis_free_uu(spaces)
        A = _SPDFactor(displacement_hdg_matrix(spaces, include_h2=True)[np.ix_(free, free)])
        # columns: the free (u, uhat) DOFs (uhat columns do not couple)
        G = sps.hstack([kernels.D, sps.csr_matrix((spaces.size_p, spaces.size_uhat))])
        G = G.tocsc()[:, free]
        S = spla.LinearOperator((spaces.size_p,) * 2, lambda x: G @ A.solve(G.T @ x), dtype=float)
        # the constant pressure spans the kernel of S; its zero comes first
        Minv = _block_diag_inverse(kernels.M_p, spaces.n_p)
        return float(np.sqrt(_lanczos(S, kernels.M_p, "SA", k=2, Minv=Minv)[1]))
    if which == "darcy-like":
        N = pressure_hdg_matrix(spaces, include_h2=True)
        B = sps.vstack([kernels.Dw, -kernels.Ew])
        S = B @ _block_diag_inverse(kernels.M_w, spaces.n_w) @ B.T
        # S and N share the constant (q, qhat) pair as their kernel
        k = np.concatenate(constant_pressure_mode(spaces))
        _, inner, _ = _restricted_pencil(S, N, [k])
        return float(np.sqrt(inner("LA")))
    raise ValueError(f"unknown inf-sup kind {which!r}")


# ----------------------------------------------------------------------
# spectra
# ----------------------------------------------------------------------


def _lanczos(A, M, which, k=1, v0=None, **kwargs):
    """The ``k`` eigenvalues of the pencil ``(A, M)`` at one end, ascending,
    by implicitly restarted Lanczos from a fixed start vector."""
    n = A.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n) if v0 is None else v0
    vals = spla.eigsh(A, k, M, which=which, v0=v0, ncv=min(40, n), tol=1e-10,
                      return_eigenvectors=False, **kwargs)
    return np.sort(vals)


def _restricted_pencil(K, B, exclude):
    """Lanczos runs on the pencil ``(K, B)`` restricted to the orthogonal
    complement of the ``exclude`` vectors.

    After a Jacobi scaling by ``B``'s diagonal, and with ``P`` the
    projector onto that complement, Lanczos sees the symmetric pair
    ``(P K P, P B P + I - P)``, whose spectrum is the restricted one plus
    zeros along ``exclude``, and reaches it through the sparse factors of
    ``B`` and ``K`` bordered by ``exclude`` with a zero corner; the factor
    of ``B`` certifies it SPD on the complement.
    Returns ``(outer, inner, definite)``: ``outer(which)`` is the end of
    the plain mode, ``inner(which)`` the end of shift-invert at 0, and
    ``definite`` whether the bordered ``K`` passed the SPD certificate.
    """
    # the Jacobi-scaled pencil has the same eigenvalues; unscaled, B's
    # diagonal spans 2e10 at R = 1e-8 and rounding in the B-inner products
    # moves the ends by 1e-10
    diag = B.diagonal()
    if not np.all(diag > 0.0):
        raise PreconditionerError("preconditioner not SPD (diagonal entry not positive)")
    d = 1.0 / np.sqrt(diag)
    D = sps.diags(d)
    K, B = D @ K @ D, D @ B @ D
    E = [d * e for e in exclude or []]
    m = len(E)
    n = K.shape[0]
    Q = np.linalg.qr(np.column_stack(E))[0] if m else np.zeros((n, 0))

    def project(x):
        for q in Q.T:
            x = x - q * (q @ x)
        return x

    def operator(fn):
        return spla.LinearOperator((n, n), fn, dtype=float)

    A = operator(lambda x: project(K @ project(x)))
    M = operator(lambda x: project(B @ project(x)) + x - project(x))
    Binv = _SPDFactor(_border_with_kernel(B, E, corner=0.0), m).solve
    Minv = operator(lambda r: Binv(r) + r - project(r))
    try:
        Kinv = _SPDFactor(_border_with_kernel(K, E, corner=0.0), m).solve
        definite = True
    except PreconditionerError:
        lu = spla.splu(sps.csc_matrix(_border_with_kernel(K, E, corner=0.0)))
        Kinv = lambda r: lu.solve(np.concatenate([r, np.zeros(m)]))[:n]
        definite = False
    v0 = project(np.random.default_rng(0).standard_normal(n))

    def outer(which):
        return float(_lanczos(A, M, which, v0=v0, Minv=Minv)[0])

    def inner(which):
        return float(_lanczos(A, M, which, v0=v0, sigma=0.0, OPinv=operator(Kinv))[0])

    return outer, inner, definite


def spectrum_ends(K, B, exclude=None):
    """Ends of the negative and positive spectrum of the pencil ``(K, B)``.

    ``B`` must be SPD on the orthogonal complement of the ``exclude``
    vectors, to which the pencil is restricted; this realizes the
    mean-zero-compatible subspace on which the uniform well-posedness
    bounds hold when constant-pressure modes are present.  Returns
    ``(neg, pos)``, each a ``(min, max)`` pair or None for an empty branch.
    Each end is one Lanczos run (see :func:`_restricted_pencil`); a
    definite pencil needs two.
    """
    outer, inner, definite = _restricted_pencil(K, B, exclude)
    if definite:
        return None, (inner("LA"), outer("LA"))
    lo, hi = outer("SA"), outer("LA")
    return (lo, inner("SA")) if lo < 0 else None, (inner("LA"), hi) if hi > 0 else None

