"""Manufactured solutions with sources derived from the scaled strong form.

The stationary scaled system reads

    -div eps(u) - lambda grad(div u) + grad(sum_i p_i) = f
    w_i = -R_i grad p_i
    -div u - div w_i - zeta_i . p = g_i

so for chosen smooth fields (u, p_i) the loads follow by symbolic
differentiation.  Pieces that depend on the parameters only through a
scalar factor are differentiated once and combined per parameter set,
which keeps sweeps over lambda, R and zeta cheap.
"""

from functools import lru_cache

import numpy as np
import sympy as sp

__all__ = ["ManufacturedSolution", "default_manufactured"]


# the evaluators take coordinate-first points: x[0], x[1] are the
# coordinate arrays of a batch (or the two coordinates of one point);
# a constant expression is broadcast to the shape of the batch


def _lambdify_vec(xy, exprs):
    fns = [sp.lambdify(xy, e, "numpy") for e in exprs]
    return lambda x: np.stack([np.broadcast_to(f(x[0], x[1]), np.shape(x[0])) for f in fns])


def _lambdify_scalar(xy, expr):
    f = sp.lambdify(xy, expr, "numpy")
    return lambda x: np.broadcast_to(f(x[0], x[1]), np.shape(x[0]))


class ManufacturedSolution:
    """Symbolic exact fields plus parameter-weighted source evaluators."""

    def __init__(self, u_expr, p_exprs):
        x, y = sp.symbols("x y")
        xy = (x, y)
        self.n = len(p_exprs)
        self._xy = xy
        self._u_expr = u_expr
        self._p_exprs = p_exprs

        eps = [
            [sp.diff(u_expr[0], x), (sp.diff(u_expr[0], y) + sp.diff(u_expr[1], x)) / 2],
            [(sp.diff(u_expr[0], y) + sp.diff(u_expr[1], x)) / 2, sp.diff(u_expr[1], y)],
        ]
        div_u = sp.diff(u_expr[0], x) + sp.diff(u_expr[1], y)
        f_eps = [
            -(sp.diff(eps[0][0], x) + sp.diff(eps[0][1], y)),
            -(sp.diff(eps[1][0], x) + sp.diff(eps[1][1], y)),
        ]
        f_lam = [-sp.diff(div_u, x), -sp.diff(div_u, y)]
        grad_p = [[sp.diff(p, x), sp.diff(p, y)] for p in p_exprs]
        lap_p = [sp.diff(p, x, 2) + sp.diff(p, y, 2) for p in p_exprs]

        self.u = _lambdify_vec(xy, u_expr)
        self.p = [_lambdify_scalar(xy, p) for p in p_exprs]
        self.grad_p = [_lambdify_vec(xy, g) for g in grad_p]
        self._f_eps = _lambdify_vec(xy, f_eps)
        self._f_lam = _lambdify_vec(xy, f_lam)
        self._sum_grad_p = _lambdify_vec(
            xy, [sum(g[0] for g in grad_p), sum(g[1] for g in grad_p)]
        )
        self._div_u = _lambdify_scalar(xy, div_u)
        self._lap_p = [_lambdify_scalar(xy, l) for l in lap_p]

    def flux(self, scaled, i):
        """Exact scaled flux of network i: w_i = -R_i grad p_i."""
        R = scaled.R[i]
        grad = self.grad_p[i]
        return lambda x: -R * grad(x)

    def body_force(self, scaled):
        lam = scaled.lam
        return lambda x: self._f_eps(x) + lam * self._f_lam(x) + self._sum_grad_p(x)

    def mass_sources(self, scaled):
        """Source callables g_i for the given scaled parameter set."""
        zeta = scaled.zeta

        def make(i):
            R = scaled.R[i]

            def g(x):
                val = -self._div_u(x) + R * self._lap_p[i](x)
                for j in range(self.n):
                    if zeta[i, j] != 0.0:
                        val = val - zeta[i, j] * self.p[j](x)
                return val

            return g

        return [make(i) for i in range(self.n)]

    def pressure_trace_bc(self, i):
        """Scaled Dirichlet profile for the facet pressure of network i."""
        p = self.p[i]
        return lambda x, t: p(x)


@lru_cache(maxsize=None)
def default_manufactured(n_networks=2):
    """The unit-square benchmark fields, built once per network count.

    u = (phi, phi) with phi = sin(pi x) sin(pi y), and mean-zero pressures
    p_1 = x^2 (1-x)^2 y^2 (1-y)^2 - 1/900, p_2 = sin^2(pi x) sin^2(pi y) - 1/4.
    """
    if n_networks not in (1, 2):
        raise ValueError("benchmark defines one or two networks")
    x, y = sp.symbols("x y")
    phi = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
    p1 = x**2 * (1 - x) ** 2 * y**2 * (1 - y) ** 2 - sp.Rational(1, 900)
    p2 = sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 - sp.Rational(1, 4)
    pressures = [p1, p2][:n_networks]
    return ManufacturedSolution((phi, phi), pressures)
