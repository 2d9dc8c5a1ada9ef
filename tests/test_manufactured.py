"""The benchmark's closed-form fields and the load a manufactured solve forms from them."""

import numpy as np
import pytest

import oracles
from mpet.assembly import assemble_volume_rhs
from mpet.cli import _sweep_parameters, manufactured_solve
from mpet.manufactured import default_manufactured
from mpet.mesh import generate_unit_square
from mpet.params import scaled_from_direct
from mpet.spaces import SpaceSet

PIECES = ("u", "f_eps", "f_lam", "sum_grad_p", "div_u")
NETWORK_PIECES = ("p", "grad_p", "lap_p")


def assert_rel(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2])
def test_closed_forms_match_sympy(n):
    """Every field and load piece, and the loads combined from them, against
    the symbolic derivation at random points and on the boundary."""
    fields, ref = default_manufactured(n), oracles.sympy_benchmark(n)
    rng = np.random.default_rng(n)
    pts = np.concatenate([rng.random((2, 200)), [[0.0, 1.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.5]]], axis=1)
    for name in PIECES:
        assert_rel(getattr(fields, name)(pts), getattr(ref, name)(pts))
    for name in NETWORK_PIECES:
        for j in range(n):
            assert_rel(getattr(fields, name)[j](pts), getattr(ref, name)[j](pts))
    assert fields.u(pts[:, 0]).shape == (2,)
    xi = np.array([[0.0, 1e-2], [1e-2, 0.0]])[:n, :n]
    scaled = scaled_from_direct(1e4, [1e-2, 1.0][:n], [1e-2, 1.0][:n], xi)
    assert_rel(fields.body_force(scaled)(pts), ref.body_force(scaled)(pts))
    for got, want in zip(fields.mass_sources(scaled), ref.mass_sources(scaled)):
        assert_rel(got(pts), want(pts))


def three_networks(i):
    val = 10.0 ** (-i)
    xi = np.array([[0.0, val, 0.0], [val, 0.0, val], [0.0, val, 0.0]])
    return scaled_from_direct(1e4, [val, 1.0, val], [val, 0.0, 1.0], xi)


# (n_side, ell, parameters), run in this order: orders 1 to 3, one to
# three networks (a third network takes the second one's exact fields),
# the mixed and zero-coupling sweep parameters, consecutive cells on one
# mesh, and meshes switched and switched back, where a load kept from
# another mesh or network count would show
CELLS = [
    (2, 1, _sweep_parameters(2, 1.0, mixed=True)),
    (2, 1, _sweep_parameters(8, 1e8, mixed=False, zero_coupling=True)),
    (2, 2, _sweep_parameters(4, 1e4, mixed=False)),
    (1, 3, scaled_from_direct(1.0, [1e-2], [1e-2])),
    (2, 1, three_networks(2)),
    (2, 1, _sweep_parameters(0, 1.0, mixed=False)),
    (3, 2, _sweep_parameters(6, 1.0, mixed=True)),
    (2, 2, _sweep_parameters(4, 1e4, mixed=False, zero_coupling=True)),
]


def test_manufactured_solve_load_equals_callable_load():
    """The load a solve combines from values kept per mesh is bitwise the
    load assembled from the benchmark's callables on a fresh space set."""
    for n_side, ell, scaled in CELLS:
        _, _, (_, system, _) = manufactured_solve(n_side, ell, scaled, 1e-8, 500, "schur_reduced")
        manu = default_manufactured(min(scaled.n, 2))
        g = manu.mass_sources(scaled)
        spaces = SpaceSet(generate_unit_square(n_side), ell, scaled.n)
        want = assemble_volume_rhs(
            spaces, f=manu.body_force(scaled), g=[g[min(i, manu.n - 1)] for i in range(scaled.n)]
        )
        assert np.array_equal(system.F, want), (n_side, ell, scaled.n)
