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
| the flux-mass coefficients ``J J^T / det J`` in place of ``J^T J / det J`` | ``test_kernels_match_oracle_on_general_meshes`` (``M_w``, sheared mesh) |
| the Legendre parity ``(-1)^m`` of reversed facets dropped | ``test_kernels_match_oracle_on_general_meshes`` (``a_hdg``, sheared mesh) |
| ``1 / det J`` dropped from the symmetric-gradient coefficients | ``test_kernels_match_oracle_on_general_meshes`` (``a_hdg``, sheared mesh) |
"""

import numpy as np
import pytest
import scipy.sparse as sps

import mpet.assembly
import mpet.cli
import test_acceptance
import test_assembly
import test_data_callables
from mpet.sparsity import Stack
from mpet.spaces import BoundaryFacets

# the checks, reached through their modules so that they are not collected here again
boundary_data_check = test_data_callables.test_boundary_data_match_pointwise
square = test_data_callables.square
kernel_oracle_check = test_assembly.test_kernels_match_oracle_on_general_meshes
KERNEL_ORACLE = "assert rel_err(getattr(kernels, name), expected[name]) <= 1e-12, name"


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


def test_flux_mass_with_j_jt(monkeypatch):
    def j_jt(maps):
        J = maps.jacobian
        return J @ np.swapaxes(J, 1, 2) / maps.det[:, None, None]

    monkeypatch.setattr(mpet.assembly, "_flux_metric", j_jt)
    fails_at(kernel_oracle_check, KERNEL_ORACLE, "sheared", 1)


def test_reversed_facets_without_parity(monkeypatch):
    monkeypatch.setattr(mpet.assembly, "_legendre_parity",
                        lambda direction, n_modes: np.ones(direction.shape + (n_modes,)))
    fails_at(kernel_oracle_check, KERNEL_ORACLE, "sheared", 1)


def test_strain_coefficients_without_the_determinant(monkeypatch):
    strain_metric = mpet.assembly._strain_metric
    monkeypatch.setattr(mpet.assembly, "_strain_metric",
                        lambda maps: strain_metric(maps) * maps.det[:, None, None])
    fails_at(kernel_oracle_check, KERNEL_ORACLE, "sheared", 1)
