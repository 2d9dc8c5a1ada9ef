"""Physical-to-scaled parameter transformation and network coupling matrices.

The single-step solver works on a rescaled symmetric saddle-point form of
the time-discrete equations.  Scaling divides the momentum balance by
2*mu, weights each Darcy law by alpha_i/(2*mu) and each mass balance by
1/alpha_i; the resulting dimensionless coefficient groups are

    lambda   = lam / (2 mu)
    R_i      = 2 mu tau K_i / alpha_i^2
    alpha_pi = 2 mu s_i / alpha_i^2
    zeta_ii  = alpha_pi + 2 mu tau (sum_j xi_ij) / alpha_i^2
    zeta_ij  = -2 mu tau xi_ij / (alpha_i alpha_j)          (i != j)

with the network coupling matrices Lambda_zeta = (zeta_ij) and
Lambda = Lambda_zeta + (1/lambda0) * ones, lambda0 = max(1, lambda).
Every range check is a comparison that NaN fails, and no range holds
an infinity.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalParameters",
    "ScaledParameters",
    "lame_from_young_poisson",
    "scale_parameters",
    "scaled_from_direct",
]


def lame_from_young_poisson(E, nu):
    """Lame parameters (mu, lambda) from Young's modulus and Poisson ratio."""
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in [0, 1/2), got {nu}")
    if not 0.0 < E < np.inf:
        raise ValueError(f"Young's modulus must be positive and finite, got {E}")
    mu = E / (2.0 * (1.0 + nu))
    lam = nu * E / ((1.0 + nu) * (1.0 - 2.0 * nu))
    return mu, lam


@dataclass(frozen=True)
class PhysicalParameters:
    """Unscaled model coefficients for ``n`` fluid networks.

    ``xi`` is the symmetric network-transfer matrix with unset (zero)
    diagonal; ``tau`` is the implicit-Euler step size.
    """

    mu: float
    lam: float
    alpha: np.ndarray
    s: np.ndarray
    K: np.ndarray
    xi: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "s", np.atleast_1d(np.asarray(self.s, dtype=float)))
        object.__setattr__(self, "K", np.atleast_1d(np.asarray(self.K, dtype=float)))
        object.__setattr__(self, "xi", np.atleast_2d(np.asarray(self.xi, dtype=float)))
        n = self.n
        if not (len(self.s) == len(self.K) == n and self.xi.shape == (n, n)):
            raise ValueError("parameter arrays have inconsistent network counts")
        if not 0.0 < self.mu < np.inf:
            raise ValueError("mu must be positive and finite")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if not 0.0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")
        if not np.all((self.alpha > 0.0) & (self.alpha <= 1.0)):
            raise ValueError("invalid Biot-Willis constant; alpha_i must lie in (0, 1]")
        if not np.all((self.s >= 0.0) & (self.s < np.inf)):
            raise ValueError("storage coefficients must be nonnegative and finite")
        if not np.all((self.K > 0.0) & (self.K < np.inf)):
            raise ValueError("R must be positive; conductivities K_i must be positive and finite")
        if not np.allclose(self.xi, self.xi.T):
            raise ValueError("xi must be symmetric")
        if not np.all((self.xi >= 0.0) & (self.xi < np.inf)):
            raise ValueError("xi entries must be nonnegative and finite")
        if np.any(np.diag(self.xi) != 0.0):
            raise ValueError("xi diagonal must be unset (zero)")

    @property
    def n(self):
        return len(self.alpha)


@dataclass(frozen=True)
class ScaledParameters:
    """Scaled coefficient set used by assembly and the preconditioners."""

    lam: float
    R: np.ndarray
    alpha_p: np.ndarray
    zeta: np.ndarray          # Lambda_zeta, symmetric n x n

    def __post_init__(self):
        object.__setattr__(self, "R", np.atleast_1d(np.asarray(self.R, dtype=float)))
        object.__setattr__(self, "alpha_p", np.atleast_1d(np.asarray(self.alpha_p, dtype=float)))
        object.__setattr__(self, "zeta", np.atleast_2d(np.asarray(self.zeta, dtype=float)))
        n = self.n
        if not (len(self.alpha_p) == n and self.zeta.shape == (n, n)):
            raise ValueError("scaled parameter arrays have inconsistent network counts")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if not np.all((self.R > 0.0) & (self.R < np.inf)):
            raise ValueError("R must be positive and finite")
        if not np.all((self.alpha_p >= 0.0) & (self.alpha_p < np.inf)):
            raise ValueError("alpha_p must be nonnegative and finite")
        if not np.all(np.isfinite(self.zeta)):
            raise ValueError("zeta entries must be finite")
        if not np.allclose(self.zeta, self.zeta.T, atol=1e-14 * (1 + abs(self.zeta).max())):
            raise ValueError("zeta matrix must be symmetric")

    @property
    def n(self):
        return len(self.R)

    @property
    def lam0(self):
        return max(1.0, self.lam)

    @property
    def Lambda(self):
        return self.zeta + np.ones((self.n, self.n)) / self.lam0


def scale_parameters(phys):
    """Similarity-transform a :class:`PhysicalParameters` set.

    Raises ValueError with "invalid Biot-Willis" / "R must be positive"
    for out-of-range alpha or vanishing conductivity (validated on
    construction of the physical set as well).
    """
    mu, tau = phys.mu, phys.tau
    a = phys.alpha
    lam = phys.lam / (2.0 * mu)
    R = 2.0 * mu * tau * phys.K / a**2
    alpha_p = 2.0 * mu * phys.s / a**2
    n = phys.n
    zeta = np.zeros((n, n))
    xi_diag = phys.xi.sum(axis=1)             # xi_ii := sum_{j != i} xi_ij
    for i in range(n):
        zeta[i, i] = alpha_p[i] + 2.0 * mu * tau * xi_diag[i] / a[i] ** 2
        for j in range(n):
            if j != i:
                zeta[i, j] = -2.0 * mu * tau * phys.xi[i, j] / (a[i] * a[j])
    return ScaledParameters(lam=lam, R=R, alpha_p=alpha_p, zeta=zeta)


def scaled_from_direct(lam, R, alpha_p, xi=None):
    """Build scaled parameters directly, bypassing physical inputs.

    ``xi`` populates the off-diagonals of the zeta matrix with magnitude
    xi_ij (so zeta_ij = -xi_ij for i != j) and the diagonal carries
    alpha_p_i + sum_j xi_ij, mirroring the physical formulas with the
    2*mu*tau/alpha^2 factors equal to one.
    """
    R = np.atleast_1d(np.asarray(R, dtype=float))
    alpha_p = np.atleast_1d(np.asarray(alpha_p, dtype=float))
    n = len(R)
    xi = np.zeros((n, n)) if xi is None else np.atleast_2d(np.asarray(xi, dtype=float))
    if not np.allclose(xi, xi.T):
        raise ValueError("xi must be symmetric")
    zeta = -xi.copy()
    np.fill_diagonal(zeta, alpha_p + xi.sum(axis=1))
    return ScaledParameters(lam=float(lam), R=R, alpha_p=alpha_p, zeta=zeta)
