"""Faults that the headline checks must catch.

Each fault is one ``monkeypatch`` of one internal, at the size of the
check it must fail.  The test runs that check under the fault and
asserts that it fails at the named assertion, so a check that stops
seeing its fault fails here.

| fault | check that fails |
| --- | --- |
| the Dirichlet map built with the traction map's scales (u moments times (2m+1)/2, uhat moments times h/2) | ``test_boundary_data_match_pointwise`` |
| the pressure map with 1/2 in place of (2m+1)/2 for modes m >= 1 | ``test_boundary_data_match_pointwise`` (the pointwise constraint oracle) |
| the operand ``-zeta_11 M_p`` scaled by 1 + 1e-3 in the composed operator only | criterion 2's conservation gate, 1e-8 (reads 9.78e-6) |
"""

import numpy as np
import pytest
import scipy.sparse as sps

import mpet.cli
import test_acceptance
import test_data_callables
from mpet.sparsity import Stack
from mpet.spaces import BoundaryFacets

# the checks, reached through their modules so that they are not collected here again
boundary_data_check = test_data_callables.test_boundary_data_match_pointwise
square = test_data_callables.square


def fails_at(check, statement, *args):
    """Run ``check(*args)`` and assert that it fails at its assertion ``statement``."""
    with pytest.raises(AssertionError) as failure:
        check(*args)
    entry = [e for e in failure.traceback if e.name == check.__name__][-1]
    assert str(entry.statement).strip() == statement


def test_dirichlet_map_with_the_traction_scales(monkeypatch):
    def unswapped(bd):
        return bd.traction_map[np.r_[bd.u_rows.ravel(), bd.uhat_rows.ravel()]]

    monkeypatch.setattr(BoundaryFacets, "dirichlet_map", property(unswapped))
    fails_at(boundary_data_check, "assert_close(val, np.array([ref[k] for k in idx]))",
             square, 1)


def test_pressure_map_with_half_scales(monkeypatch):
    pressure_map = BoundaryFacets.pressure_map.func

    def halved(bd):
        m = np.arange(bd.phat_rows.shape[1])
        return sps.diags(np.tile(1.0 / (2 * m + 1), len(bd.facets))) @ pressure_map(bd)

    monkeypatch.setattr(BoundaryFacets, "pressure_map", property(halved))
    # order 2: phat has the mode m = 1
    fails_at(boundary_data_check, "assert_close(val, np.array([ref[k] for k in idx]))",
             square, 2)


def test_one_transfer_operand_scaled_in_the_operator(monkeypatch):
    build_block_system = mpet.cli.build_block_system

    def scaled_transfer(kernels, scaled):
        system = build_block_system(kernels, scaled)
        operands = list(system.operands.operands)
        coupled = list(zip(*np.nonzero(scaled.zeta)))
        # the operands: elasticity, one flux mass per network, -D, -Dw, Ew, then -zeta_ij M_p
        k = 4 + scaled.n + coupled.index((1, 1))
        M_p, data = operands[k]
        operands[k] = (M_p, data * (1 + 1e-3))
        system.operands = Stack(*operands)
        return system

    monkeypatch.setattr(mpet.cli, "build_block_system", scaled_transfer)
    fails_at(test_acceptance.test_criterion_2_symmetry_and_conservation, "assert rel <= 1e-8")
