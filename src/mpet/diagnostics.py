"""Reported errors, conservation checks, inf-sup and spectra.

Everything here is a pure function of assembled matrices and coefficient
vectors.  The eigenvalue-based estimators run implicitly restarted
Lanczos (ARPACK) through the solver's sparse factors, so they hold at
every mesh size and their memory grows with the factors' fill, not with
the square of the problem size.
"""

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .assembly import (
    _scatter,
    constant_pressure_mode,
    displacement_hdg_factors,
    divdiv_factors,
    pressure_hdg_factors,
)
from .solver import PreconditionerError, _SPDFactor

__all__ = [
    "NormAssembler",
    "conservation_residual",
    "estimate_inf_sup",
    "spectrum_ends",
]


class NormAssembler:
    """The three errors of the convergence table on the mesh and space set of ``kernels``.

    :meth:`report` returns the displacement energy norm, the HDG norm
    with its second-derivative term plus ``lambda`` times the div-div
    term, and the L2 norms of the pressures and of the fluxes summed over
    the networks.  The energy is a sum of squares of the field's
    quadrature values scaled by sqrt(w) (:class:`~mpet.assembly.NormFactors`),
    so a rigid motion has an energy of rounding size, not the square root
    of it, and it is reduced over element chunks of a fixed byte budget,
    so its memory does not grow with the mesh.  The L2 norms are the
    quadratic forms of the kernels' mass matrices ``M_p`` and ``M_w``.
    """

    def __init__(self, kernels):
        self.kernels = kernels
        self.layout = kernels.spaces.layout
        self.u_hdg = displacement_hdg_factors(kernels.spaces)
        self.divdiv = divdiv_factors(kernels.spaces)

    def report(self, x, scaled):
        """``{"energy", "p_l2", "w_l2"}`` of the coefficient vector ``x``."""
        layout = self.layout
        u_hdg2 = self.u_hdg.norm2(x[: layout.offsets["w0"]])  # u, then uhat
        u_bar2 = u_hdg2 + scaled.lam * self.divdiv.norm2(x[layout.sl("u")])

        def l2(field, mass):
            blocks = (x[layout.sl(f"{field}{i}")] for i in range(scaled.n))
            return float(np.sqrt(sum(float(d @ (mass @ d)) for d in blocks)))

        return {"energy": float(np.sqrt(max(u_bar2, 0.0))),
                "p_l2": l2("p", self.kernels.M_p), "w_l2": l2("w", self.kernels.M_w)}


# ----------------------------------------------------------------------
# conservation
# ----------------------------------------------------------------------


def conservation_residual(x_full, system):
    """Element-wise mass-balance residual of the solved state.

    For every element and network, the volume-pressure test rows are
    local, so the discrete balance must hold element by element.  The
    residual function is measured in L2 on each element, that is in the
    dual norm ``r_t . M_t^{-1} r_t`` with the element's pressure mass block
    (``kernels.p_mass_inv``), and normalized by the global magnitude of
    the balance terms.  The residual ``F - K x`` on the volume-pressure
    rows is the sum of the same terms, ``F_i + D u + Dw w_i +
    sum_j zeta_ij M_p p_j``, formed from the kernels rather than from
    ``K``, so a wrong weight in the solved operator shows in it.
    Returns ``(max_relative, residual)`` with ``residual[i, t]`` that of
    network ``i`` on element ``t``.
    """
    layout = system.layout
    kernels = system.kernels
    spaces = kernels.spaces
    n = layout.n_networks
    ne = spaces.mesh.n_elements
    F = system.F
    p_block = system.p_block

    def dual_norm2(vecs):
        # squared L2 norms of the Riesz representatives, per vector and element
        local = np.reshape(vecs, (-1, ne, spaces.n_p))
        return np.einsum("kti,tij,ktj->kt", local, kernels.p_mass_inv, local)

    # the w_i fields are contiguous in the layout
    w_block = slice(layout.offsets["w0"], layout.offsets["w0"] + n * spaces.size_w)
    P = x_full[p_block].reshape(n, spaces.size_p)
    W = x_full[w_block].reshape(n, spaces.size_w)

    div_u = kernels.D @ x_full[layout.sl("u")]
    div_w = (kernels.Dw @ W.T).T
    loads = np.reshape(F[p_block], (n, spaces.size_p))
    transfer = system.scaled.zeta @ (kernels.M_p @ P.T).T
    # global scale from the constituent terms of the balance
    terms = np.concatenate([div_u[None, :], div_w, loads, transfer])
    scale = float(max(np.sqrt(dual_norm2(terms).sum()), 1e-300))

    # network i's rows of K are -D, -Dw (on w_i) and -zeta_ij M_p: r = F - K x
    r = loads + div_u + div_w + transfer
    residual = np.sqrt(np.maximum(dual_norm2(r), 0.0)) / scale
    return float(residual.max()), residual


# ----------------------------------------------------------------------
# inf-sup estimators
# ----------------------------------------------------------------------


def _analysis_free_uu(spaces):
    """Free (u, uhat) indices for homogeneous displacement Dirichlet data."""
    mask = np.ones(spaces.size_u + spaces.size_uhat, dtype=bool)
    for bd in spaces.boundary.values():
        mask[bd.u_rows] = mask[bd.uhat_rows] = False
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
        A = _SPDFactor(displacement_hdg_factors(spaces).matrix()[np.ix_(free, free)])
        # columns: the free (u, uhat) DOFs (uhat columns do not couple)
        G = sps.hstack([kernels.D, sps.csr_matrix((spaces.size_p, spaces.size_uhat))])
        G = G.tocsc()[:, free]
        S = spla.LinearOperator((spaces.size_p,) * 2, lambda x: G @ A.solve(G.T @ x), dtype=float)
        # the constant pressure spans the kernel of S; its zero comes first
        pdofs = spaces.p_dofs(np.arange(spaces.mesh.n_elements))
        Minv = _scatter(kernels.M_p.shape, (pdofs, pdofs, kernels.p_mass_inv))
        return float(np.sqrt(_lanczos(S, kernels.M_p, "SA", k=2, Minv=Minv)[1]))
    if which == "darcy-like":
        N = pressure_hdg_factors(spaces, include_h2=True).matrix()
        # S_w and N share the constant (q, qhat) pair as their kernel
        layout = spaces.layout
        k = constant_pressure_mode(spaces, 0)[np.r_[layout.sl("p0"), layout.sl("phat0")]]
        _, inner, _ = _restricted_pencil(kernels.S_w, N, [k])
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
    ``B`` and ``K`` that take ``exclude`` as their kernel with a zero
    corner; the factor of ``B`` certifies it SPD on the complement.  An
    indefinite ``K`` is factored by a pivoting ``splu`` of
    ``[[K, E], [E^T, 0]]`` instead, ``E`` the scaled ``exclude`` vectors,
    and each of its solves takes one step of iterative refinement.
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
    Binv = _SPDFactor(B, E, corner=0.0).solve
    Minv = operator(lambda r: Binv(r) + r - project(r))
    try:
        Kinv = _SPDFactor(K, E, corner=0.0).solve
        definite = True
    except PreconditionerError:
        # the constraint ``E^T x = 0`` does not depend on how E is scaled
        bordered = K
        if m:
            border = sps.csc_matrix(np.column_stack(E))
            bordered = sps.bmat([[K, border], [border.T, None]])
        bordered = sps.csc_matrix(bordered)
        lu = spla.splu(bordered)

        def Kinv(r):
            # one step of iterative refinement: the pivoting LU alone leaves the
            # shift-invert end to about 1e-10, and its last digits to rounding
            # that varies from run to run
            b = np.concatenate([r, np.zeros(m)])
            y = lu.solve(b)
            y += lu.solve(b - bordered @ y)
            return y[:n]

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

