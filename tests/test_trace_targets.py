"""The functions and attributes that ``perfbench/tracing.py`` wraps or reads exist.

The benchmark raises on a missing traced function only when it runs; these
checks make a rename fail the test suite as well.
"""

import sys
from pathlib import Path

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
        build_block_system(assemble_kernels(mesh, spaces), scaled), homogeneous_bcs(1)
    )
    assert len(con.free) == con.K_ff.shape[0] and con.K_ff.nnz > 0
