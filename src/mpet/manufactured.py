"""Manufactured solutions with sources derived from the scaled strong form.

The stationary scaled system reads

    -div eps(u) - lambda grad(div u) + grad(sum_i p_i) = f
    w_i = -R_i grad p_i
    -div u - div w_i - zeta_i . p = g_i

so for chosen smooth fields (u, p_i) the loads follow by differentiation.
The loads are linear in the parameters,

    f   = f_eps + lambda f_lam + sum_i grad p_i
    g_i = -div u + R_i lap p_i - sum_j zeta_ij p_j,

and :class:`ManufacturedFields` keeps each parameter-free piece as its own
callable.  ``body_force`` and ``mass_sources`` combine the pieces per
parameter set; :meth:`ManufacturedFields.load_at` evaluates the pieces
once at fixed points, so a parameter sweep on one mesh combines stored
values by the same rule, point for point, with bitwise the same result
(``mpet.cli.manufactured_solve`` keeps them, at the volume quadrature
points, with the kernels of its mesh).

The benchmark fields of :func:`default_manufactured` are closed forms in
numpy.  Their oracle is ``ManufacturedSolution`` in ``tests/oracles.py``,
which derives the pieces of fields given as symbolic expressions.
"""

from functools import lru_cache

import numpy as np

from .spaces import evaluate

__all__ = ["ManufacturedFields", "ManufacturedLoad", "default_manufactured"]


# the evaluators take coordinate-first points: x[0], x[1] are the
# coordinate arrays of a batch (or the two coordinates of one point)


def _body_force(f_eps, f_lam, sum_grad_p, lam):
    """f from the values of its parameter-free pieces."""
    return f_eps + lam * f_lam + sum_grad_p


def _source(div_u, lap_p, p, R, zeta):
    """g_i from the values of its pieces; ``zeta`` is row i of the
    transfer matrix and ``p(j)`` the values of p_j, read where zeta_ij != 0."""
    val = -div_u + R * lap_p
    for j, z in enumerate(zeta):
        if z != 0.0:
            val = val - z * p(j)
    return val


class ManufacturedFields:
    """Exact fields of a manufactured problem and the pieces of its load.

    ``u``, ``p[i]`` and ``grad_p[i]`` are the exact fields; ``f_eps``,
    ``f_lam``, ``div_u`` and ``lap_p[i]`` the parameter-free load pieces,
    with :meth:`sum_grad_p`.  Each is a callable of coordinate-first
    points.
    """

    def __init__(self, u, p, grad_p, f_eps, f_lam, div_u, lap_p):
        self.n = len(p)
        self.u, self.p, self.grad_p = u, list(p), list(grad_p)
        self.f_eps, self.f_lam = f_eps, f_lam
        self.div_u, self.lap_p = div_u, list(lap_p)

    def sum_grad_p(self, x):
        """grad p_1 + grad p_2 + ..., summed left to right."""
        total = self.grad_p[0](x)
        for grad in self.grad_p[1:]:
            total = total + grad(x)
        return total

    def flux(self, scaled, i):
        """Exact scaled flux of network i: w_i = -R_i grad p_i."""
        R = scaled.R[i]
        grad = self.grad_p[i]
        return lambda x: -R * grad(x)

    def body_force(self, scaled):
        lam = scaled.lam
        return lambda x: _body_force(self.f_eps(x), self.f_lam(x), self.sum_grad_p(x), lam)

    def mass_sources(self, scaled):
        """Source callables g_i for the given scaled parameter set."""

        def make(i):
            R, zeta = scaled.R[i], scaled.zeta[i, : self.n]
            return lambda x: _source(
                self.div_u(x), self.lap_p[i](x), lambda j: self.p[j](x), R, zeta
            )

        return [make(i) for i in range(self.n)]

    def pressure_trace_bc(self, i):
        """Scaled Dirichlet profile for the facet pressure of network i."""
        p = self.p[i]
        return lambda x, t: p(x)

    def load_at(self, points):
        """The load pieces evaluated once at ``points`` (..., 2), see :class:`ManufacturedLoad`."""
        return ManufacturedLoad(self, points)


class ManufacturedLoad:
    """The parameter-free load pieces of :class:`ManufacturedFields` at fixed points.

    Each piece is evaluated once, as by :func:`~mpet.spaces.evaluate`
    (vectors with a trailing axis of 2).  ``body_force`` and
    ``mass_sources`` return the values of the loads for a parameter set,
    combined by the rule of the callables, so they equal the values of
    ``fields.body_force(scaled)`` and ``fields.mass_sources(scaled)`` at
    ``points`` bit for bit.
    """

    def __init__(self, fields, points):
        def vec(fn):
            return evaluate(fn, points, vector=True)

        def scalar(fn):
            return evaluate(fn, points)

        self.n = fields.n
        self.f_eps = vec(fields.f_eps)
        self.f_lam = vec(fields.f_lam)
        self.sum_grad_p = vec(fields.sum_grad_p)
        self.div_u = scalar(fields.div_u)
        self.lap_p = [scalar(fn) for fn in fields.lap_p]
        self.p = [scalar(fn) for fn in fields.p]

    def body_force(self, scaled):
        return _body_force(self.f_eps, self.f_lam, self.sum_grad_p, scaled.lam)

    def mass_sources(self, scaled):
        zeta = scaled.zeta[:, : self.n]
        return [
            _source(self.div_u, self.lap_p[i], self.p.__getitem__, scaled.R[i], zeta[i])
            for i in range(self.n)
        ]


@lru_cache(maxsize=None)
def default_manufactured(n_networks=2):
    """The unit-square benchmark fields, in closed form, built once per network count.

    u = (phi, phi) with phi = sin(pi x) sin(pi y), and mean-zero pressures
    p_1 = x^2 (1-x)^2 y^2 (1-y)^2 - 1/900, p_2 = sin^2(pi x) sin^2(pi y) - 1/4.
    The derivatives are written out term for term as the oracle
    ``ManufacturedSolution`` (``tests/oracles.py``) derives them from
    these expressions, so they take the same floating-point steps as its
    lambdified pieces.
    """
    if n_networks not in (1, 2):
        raise ValueError("benchmark defines one or two networks")
    pi, sin, cos = np.pi, np.sin, np.cos

    def u(X):
        x, y = X[0], X[1]
        phi = sin(pi*x)*sin(pi*y)
        return np.stack([phi, phi])

    def f_eps(X):
        x, y = X[0], X[1]
        v = (3/2)*pi**2*sin(pi*x)*sin(pi*y) - 1/2*pi**2*cos(pi*x)*cos(pi*y)
        return np.stack([v, v])

    def f_lam(X):
        x, y = X[0], X[1]
        v = pi**2*sin(pi*x)*sin(pi*y) - pi**2*cos(pi*x)*cos(pi*y)
        return np.stack([v, v])

    def div_u(X):
        x, y = X[0], X[1]
        return pi*sin(pi*x)*cos(pi*y) + pi*sin(pi*y)*cos(pi*x)

    def p1(X):
        x, y = X[0], X[1]
        return x**2*y**2*(1 - x)**2*(1 - y)**2 - 1/900

    def grad_p1(X):
        x, y = X[0], X[1]
        return np.stack([x**2*y**2*(1 - y)**2*(2*x - 2) + 2*x*y**2*(1 - x)**2*(1 - y)**2,
                         x**2*y**2*(1 - x)**2*(2*y - 2) + 2*x**2*y*(1 - x)**2*(1 - y)**2])

    def lap_p1(X):
        x, y = X[0], X[1]
        return (2*x**2*(x - 1)**2*(y**2 + 4*y*(y - 1) + (y - 1)**2)
                + 2*y**2*(y - 1)**2*(x**2 + 4*x*(x - 1) + (x - 1)**2))

    def p2(X):
        x, y = X[0], X[1]
        return sin(pi*x)**2*sin(pi*y)**2 - 1/4

    def grad_p2(X):
        x, y = X[0], X[1]
        return np.stack([2*pi*sin(pi*x)*sin(pi*y)**2*cos(pi*x),
                         2*pi*sin(pi*x)**2*sin(pi*y)*cos(pi*y)])

    def lap_p2(X):
        x, y = X[0], X[1]
        return (2*pi**2*(-sin(pi*x)**2 + cos(pi*x)**2)*sin(pi*y)**2
                + 2*pi**2*(-sin(pi*y)**2 + cos(pi*y)**2)*sin(pi*x)**2)

    return ManufacturedFields(
        u=u,
        p=[p1, p2][:n_networks],
        grad_p=[grad_p1, grad_p2][:n_networks],
        f_eps=f_eps,
        f_lam=f_lam,
        div_u=div_u,
        lap_p=[lap_p1, lap_p2][:n_networks],
    )
