"""The functions and attributes that ``perfbench/tracing.py`` wraps or reads exist.

The benchmark raises on a missing traced function only when it runs; these
checks make a rename fail the test suite as well.
"""

import inspect
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

from mpet.assembly import (  # noqa: E402
    apply_boundary_conditions,
    assemble_kernels,
    build_block_system,
    homogeneous_bcs,
)
from mpet.mesh import generate_unit_square  # noqa: E402
from mpet.params import scaled_from_direct  # noqa: E402
from mpet.spaces import SpaceSet  # noqa: E402

TARGETS = [(owner, attr) for targets in tracing.LAYERS.values() for owner, attr in targets]


@pytest.mark.parametrize("owner, attr", TARGETS, ids=[f"{o}.{a}" for o, a in TARGETS])
def test_traced_function_exists(owner, attr):
    assert attr in vars(tracing.resolve(owner))


def test_constrained_system_has_counted_attributes():
    """``Tracer._count`` reads ``.free`` and ``.K_ff`` off the constrain result."""
    mesh = generate_unit_square(1)
    spaces = SpaceSet(mesh, 1, 1)
    scaled = scaled_from_direct(1.0, [1.0], [1.0])
    con = apply_boundary_conditions(
        build_block_system(assemble_kernels(spaces), scaled), homogeneous_bcs(1)
    )
    assert len(con.free) == con.K_ff.shape[0] and con.K_ff.nnz > 0


def test_sweep_solves_each_cell_through_the_module_name(tmp_path, monkeypatch):
    """The sweep workload replaces ``mpet.cli.manufactured_solve`` with a timer
    that returns ``(report, None, None)``; every cell must go through it."""
    import mpet.cli

    signature = inspect.signature(mpet.cli.manufactured_solve)
    calls = []

    def counting(*args, **kwargs):
        arg = signature.bind(*args, **kwargs).arguments
        calls.append((arg["variant"], arg["ell"], arg["scaled"].R[0], arg["scaled"].lam))
        return SimpleNamespace(iterations=10 + len(calls), converged=True), None, None

    monkeypatch.setattr(mpet.cli, "manufactured_solve", counting)
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "[run]\ni_list = 4, 0\nlambda_list = 1.0, 1e4\norders = 1\nn_per_side = 2\n"
        "variants = full_block, schur_reduced\n"
    )
    assert mpet.cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert calls == [
        (variant, 1, R, lam)
        for variant in ("full_block", "schur_reduced")
        for R in (1e-4, 1.0)
        for lam in (1.0, 1e4)
    ]
    rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[2:]]
    assert [int(row[4]) for row in rows] == [10 + k for k in range(1, len(calls) + 1)]


def test_sweep_builds_through_the_traced_module_names(tmp_path, monkeypatch):
    """Cells on one ``(n_side, ell)`` share their kernels, and each build still
    calls ``mpet.cli.generate_unit_square`` and ``mpet.cli.assemble_kernels``,
    the names the traced sweep wraps for its mesh and kernel layers."""
    import mpet.cli

    calls = {}

    def counted(name):
        fn = getattr(mpet.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("generate_unit_square", "assemble_kernels"):
        monkeypatch.setattr(mpet.cli, name, counted(name))
    mpet.cli.unit_square_kernels.cache_clear()
    config = tmp_path / "sweep.cfg"
    config.write_text("[run]\ni_list = 0, 2\nlambda_list = 1.0\norders = 1, 2\nn_per_side = 2\n")
    assert mpet.cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert calls == {"generate_unit_square": 2, "assemble_kernels": 2}


def test_sweep_cell_calls_the_traced_composition_layers(tmp_path, monkeypatch):
    """A cell composes its matrices from recorded patterns, and still goes
    through every function the compose, constrain, condense and precond
    layers wrap, once each."""
    import mpet.cli

    layers = ("assembly.compose", "assembly.constrain", "solver.condense", "solver.precond")
    calls = dict.fromkeys(layers, 0)
    for layer in layers:
        for owner, attr in tracing.LAYERS[layer]:
            if owner.startswith("mpet.timeloop"):
                continue
            obj = tracing.resolve(owner)

            def counted(*args, _fn=vars(obj)[attr], _layer=layer, **kwargs):
                calls[_layer] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(obj, attr, counted)
    config = tmp_path / "sweep.cfg"
    config.write_text("[run]\ni_list = 2\nlambda_list = 1.0\norders = 1\nn_per_side = 2\n")
    assert mpet.cli.main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert calls == dict.fromkeys(layers, 1)
