"""Data callables are called once per batch of points (coordinate-first).

Every batched evaluation is checked against the per-point references in
``oracles.py``, and counting callables check the number of calls.
"""

import numpy as np
import pytest

import oracles
from mpet.assembly import (
    BoundaryConditionSet,
    DofLayout,
    assemble_traction_rhs,
    assemble_volume_rhs,
    constraint_data,
)
from mpet.mesh import generate_annulus, generate_unit_square
from mpet.spaces import SpaceSet, evaluate
from mpet.timeloop import MMHG

T = 0.3


class Counting:
    """Wraps a callable; records the shape of the points of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.shapes = []

    def __call__(self, x, *args):
        self.shapes.append(np.shape(x))
        return self.fn(x, *args)


# data that vary in space (and, for boundary data, in time); each works on
# one point x (2,) and on a batch x (2, m)
def body(x):
    return np.stack([np.sin(x[0]) * np.cos(2.0 * x[1]), x[0] * x[1] ** 2 - 0.3])


def source(x):
    return np.exp(0.5 * x[0]) * (1.0 + x[1] ** 2)


def disp_bc(x, t):
    return np.stack([x[0] * (1.0 + t), np.cos(x[1]) - t * x[0] ** 2])


def pres_bc(x, t):
    return np.sin(x[0] + t) * x[1] + 0.1 * t


def traction(x, t, n):
    return (x[0] + t) * np.asarray(n) + np.stack([x[1] ** 2, t * x[0]])


def square(ell):
    return SpaceSet(generate_unit_square(3), ell, 2)


def annulus(ell):
    return SpaceSet(generate_annulus(1.0, 2.0, 2, 7), ell, 2)


def bcs_for(spaces):
    tags = sorted(spaces.boundary)
    if len(tags) == 1:
        disp = {tags[0]: ("dirichlet", disp_bc)}
        pres = [{tags[0]: ("dirichlet", pres_bc)}, {tags[0]: ("flux", None)}]
    else:
        # annulus: "skull" essential, "ventricle" traction
        disp = {"skull": ("dirichlet", disp_bc), "ventricle": ("traction", traction)}
        pres = [{"skull": ("dirichlet", pres_bc), "ventricle": ("flux", None)},
                {"skull": ("flux", None), "ventricle": ("dirichlet", pres_bc)}]
    return BoundaryConditionSet(disp, pres)


def traction_bcs(spaces):
    return BoundaryConditionSet(
        {tag: ("traction", traction) for tag in spaces.boundary},
        [{tag: ("flux", None) for tag in spaces.boundary}] * 2,
    )


def assert_close(got, ref, rtol=1e-13):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


MESHES = [square, annulus]


@pytest.mark.parametrize("make", MESHES, ids=["square", "annulus"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_volume_rhs_matches_pointwise(make, ell):
    spaces = make(ell)
    g = [source, lambda x: x[0] - x[1] ** 3]
    got = assemble_volume_rhs(spaces, f=body, g=g)
    assert_close(got, oracles.pointwise_volume_rhs(spaces.mesh, spaces, f=body, g=g))


@pytest.mark.parametrize("make", MESHES, ids=["square", "annulus"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_boundary_data_match_pointwise(make, ell):
    spaces = make(ell)
    layout = DofLayout(spaces)
    bcs = bcs_for(spaces)
    idx, val = constraint_data(layout, spaces, bcs, T)
    ref = oracles.pointwise_constraint_data(layout, spaces, bcs, T)
    assert list(idx) == sorted(ref)
    assert_close(val, np.array([ref[k] for k in idx]))
    tbcs = traction_bcs(spaces)
    got = assemble_traction_rhs(spaces, tbcs, t=T)
    assert_close(got, oracles.pointwise_traction_rhs(spaces.mesh, spaces, tbcs, t=T))


@pytest.mark.parametrize("make", MESHES, ids=["square", "annulus"])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_interpolation_matches_pointwise(make, ell):
    spaces = make(ell)
    assert_close(spaces.interpolate_u(body), oracles.pointwise_interpolate_u(spaces, body))
    assert_close(spaces.interpolate_w(body), oracles.pointwise_interpolate_w(spaces, body))
    assert_close(spaces.interpolate_uhat(body), oracles.pointwise_interpolate_uhat(spaces, body))
    assert_close(spaces.interpolate_p(source), oracles.pointwise_interpolate_p(spaces, source))
    assert_close(spaces.interpolate_phat(source),
                 oracles.pointwise_interpolate_phat(spaces, source))


def test_each_callable_called_once_per_field_and_tag():
    spaces = annulus(2)
    f, g0, g1 = Counting(body), Counting(source), Counting(source)
    assemble_volume_rhs(spaces, f=f, g=[g0, g1])
    assert len(f.shapes) == len(g0.shapes) == len(g1.shapes) == 1
    assert f.shapes[0][0] == 2 and f.shapes[0][1] > 1

    d, p0, p1, tr = Counting(disp_bc), Counting(pres_bc), Counting(pres_bc), Counting(traction)
    bcs = BoundaryConditionSet(
        {"skull": ("dirichlet", d), "ventricle": ("traction", tr)},
        [{"skull": ("dirichlet", p0), "ventricle": ("dirichlet", p0)},
         {"skull": ("dirichlet", p1), "ventricle": ("flux", None)}],
    )
    constraint_data(DofLayout(spaces), spaces, bcs, T)
    assert len(d.shapes) == 1           # one displacement tag
    assert len(p0.shapes) == 2          # two tags of network 0
    assert len(p1.shapes) == 1
    assert not tr.shapes
    assemble_traction_rhs(spaces, bcs, t=T)
    assert len(tr.shapes) == 1

    for name, fn in [("interpolate_u", body), ("interpolate_w", body),
                     ("interpolate_uhat", body), ("interpolate_p", source),
                     ("interpolate_phat", source)]:
        counted = Counting(fn)
        getattr(spaces, name)(counted)
        assert len(counted.shapes) == 1, name
        assert counted.shapes[0][0] == 2


def test_constant_data_are_broadcast():
    spaces = annulus(2)
    zero2 = lambda x, t: np.zeros(2)
    one = lambda x, t: 1.0
    pulse = lambda x, t: MMHG * (5.0 + 2.0 * np.sin(2.0 * np.pi * t))
    load = lambda x, t, n: -pulse(x, t) * np.asarray(n)
    bcs = BoundaryConditionSet(
        {"skull": ("dirichlet", zero2), "ventricle": ("traction", load)},
        [{"skull": ("dirichlet", one), "ventricle": ("dirichlet", pulse)},
         {"skull": ("dirichlet", pulse), "ventricle": ("flux", None)}],
    )
    layout = DofLayout(spaces)
    idx, val = constraint_data(layout, spaces, bcs, T)
    ref = oracles.pointwise_constraint_data(layout, spaces, bcs, T)
    assert np.array_equal(val, [ref[k] for k in idx])
    assert_close(assemble_traction_rhs(spaces, bcs, t=T),
                 oracles.pointwise_traction_rhs(spaces.mesh, spaces, bcs, t=T))
    F = assemble_volume_rhs(spaces, f=lambda x: np.zeros(2), g=[lambda x: 1.0])
    assert not F[layout.sl("u")].any()
    assert_close(F, oracles.pointwise_volume_rhs(spaces.mesh, spaces, g=[lambda x: 1.0]))
    assert np.allclose(spaces.interpolate_p(lambda x: 2.5)[:: spaces.n_p], 2.5, rtol=1e-14)
    assert not spaces.interpolate_u(lambda x: np.zeros(2)).any()


def test_evaluate_shapes():
    pts = np.random.default_rng(0).random((4, 3, 2))
    assert evaluate(lambda x: 1.0, pts).shape == (4, 3)
    assert evaluate(lambda x: np.zeros(2), pts, vector=True).shape == (4, 3, 2)
    vals = evaluate(lambda x, n: x[0] * n, pts, pts[..., ::-1], vector=True)
    assert np.array_equal(vals, pts[..., :1] * pts[..., ::-1])


def test_manufactured_zero_displacement_broadcasts():
    import sympy as sp

    from mpet.manufactured import ManufacturedSolution
    from mpet.params import scaled_from_direct

    x, y = sp.symbols("x y")
    manu = ManufacturedSolution((sp.Integer(0), sp.Integer(0)), [x * y**2, sp.Integer(3)])
    spaces = square(2)
    pts = np.random.default_rng(1).random((2, 7))
    assert manu.u(pts).shape == (2, 7) and not manu.u(pts).any()
    assert np.array_equal(manu.p[1](pts), np.full(7, 3.0))
    assert manu.u(pts[:, 0]).shape == (2,)
    scaled = scaled_from_direct(2.0, [1.0, 0.5], [1.0, 1.0], np.array([[0.0, 1.0], [1.0, 0.0]]))
    f, g = manu.body_force(scaled), manu.mass_sources(scaled)
    got = assemble_volume_rhs(spaces, f=f, g=g)
    assert_close(got, oracles.pointwise_volume_rhs(spaces.mesh, spaces, f=f, g=g))
    assert not spaces.interpolate_u(manu.u).any()
    assert_close(spaces.interpolate_phat(manu.p[0]),
                 oracles.pointwise_interpolate_phat(spaces, manu.p[0]))


def test_default_manufactured_is_cached():
    from mpet.manufactured import default_manufactured

    assert default_manufactured(2) is default_manufactured(2)
    assert default_manufactured(1) is not default_manufactured(2)
