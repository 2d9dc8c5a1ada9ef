import numpy as np
import pytest

from mpet.params import (
    PhysicalParameters,
    ScaledParameters,
    lame_from_young_poisson,
    scale_parameters,
    scaled_from_direct,
)


def test_unit_scale_factors():
    phys = PhysicalParameters(
        mu=0.5, lam=1.0, alpha=[1.0, 1.0], s=[0.0, 0.0], K=[1.0, 1.0],
        xi=np.zeros((2, 2)), tau=1.0,
    )
    scaled = scale_parameters(phys)
    assert np.isclose(scaled.lam, 1.0)
    assert np.allclose(scaled.R, [1.0, 1.0])
    assert np.allclose(scaled.zeta, 0.0)


def test_transfer_coupling_zeta():
    q = 0.37
    xi = np.array([[0.0, q], [q, 0.0]])
    phys = PhysicalParameters(
        mu=0.5, lam=1.0, alpha=[1.0, 1.0], s=[0.0, 0.0], K=[1.0, 1.0], xi=xi, tau=1.0,
    )
    scaled = scale_parameters(phys)
    assert np.allclose(scaled.zeta, [[q, -q], [-q, q]])
    eigs = np.linalg.eigvalsh(scaled.zeta)
    assert np.allclose(sorted(eigs), [0.0, 2 * q], atol=1e-14)


def test_table_reference_elasticity_values():
    # arithmetic oracle evaluated independently: mu = E / (2 (1 + nu)),
    # lam = nu E / ((1 + nu)(1 - 2 nu)) at E = 1500, nu = 0.4999
    mu, lam = lame_from_young_poisson(1500.0, 0.4999)
    assert abs(mu - 500.0333355557) < 1e-6
    assert abs(lam - 2499666.6444432) < 1e-3
    phys = PhysicalParameters(
        mu=mu, lam=lam, alpha=[0.49], s=[3.9e-4], K=[1.57e-5],
        xi=np.zeros((1, 1)), tau=0.0125,
    )
    scaled = scale_parameters(phys)
    # lam_scaled = nu / (1 - 2 nu) = 2499.5 exactly
    assert abs(scaled.lam - 2499.5) < 1e-9


def test_lambda_matrices_single_network():
    scaled = ScaledParameters(lam=1.0, R=[1.0], alpha_p=[0.0], zeta=[[0.0]])
    lam_mat = scaled.Lambda
    assert lam_mat.shape == (1, 1)
    assert np.isclose(lam_mat[0, 0], 1.0)


def test_lambda_matrices_rank_one():
    scaled = ScaledParameters(lam=1e4, R=[1.0, 1.0], alpha_p=[0.0, 0.0], zeta=np.zeros((2, 2)))
    lam_mat = scaled.Lambda
    assert np.allclose(lam_mat, 1e-4 * np.ones((2, 2)))
    # singular alone, but Lambda + R I is SPD for any positive R
    assert abs(np.linalg.det(lam_mat)) < 1e-20
    for r in (1e-8, 1.0):
        np.linalg.cholesky(lam_mat + r * np.eye(2))


def test_four_network_table_lambda_spd():
    mu, lam = lame_from_young_poisson(1500.0, 0.4999)
    xi = np.zeros((4, 4))
    for i, j in ((0, 2), (0, 3), (1, 3), (2, 3)):
        xi[i, j] = xi[j, i] = 1e-6
    phys = PhysicalParameters(
        mu=mu, lam=lam,
        alpha=[0.49, 0.25, 0.01, 0.25],
        s=[3.9e-4, 2.9e-4, 1.5e-5, 2.9e-4],
        K=[1.57e-5, 3.75e-2, 3.75e-2, 3.75e-2],
        xi=xi, tau=0.0125,
    )
    scaled = scale_parameters(phys)
    # Cholesky oracle on the assembled 4x4 matrix
    np.linalg.cholesky(scaled.Lambda + scaled.R.min() * np.eye(4))
    assert np.allclose(scaled.zeta, scaled.zeta.T)
    assert np.all(np.diag(scaled.zeta) >= 0.0)
    off = scaled.zeta - np.diag(np.diag(scaled.zeta))
    assert np.all(off <= 0.0)
    # the transfer coupling matrix is PSD for this reference set, so the
    # assembled network coupling block is as well
    assert np.linalg.eigvalsh(scaled.zeta).min() >= -1e-14


def test_invalid_biot_willis():
    with pytest.raises(ValueError, match="invalid Biot-Willis"):
        PhysicalParameters(
            mu=1.0, lam=1.0, alpha=[0.0], s=[0.0], K=[1.0], xi=np.zeros((1, 1)), tau=1.0,
        )


def test_zero_conductivity_rejected():
    with pytest.raises(ValueError, match="R must be positive"):
        PhysicalParameters(
            mu=1.0, lam=1.0, alpha=[1.0], s=[0.0], K=[0.0], xi=np.zeros((1, 1)), tau=1.0,
        )
    with pytest.raises(ValueError, match="R must be positive"):
        ScaledParameters(lam=1.0, R=[0.0], alpha_p=[0.0], zeta=[[0.0]])


def test_scaling_homogeneity():
    """Scaling K and s by c scales R and alpha_p by c."""
    rng = np.random.default_rng(3)
    c = 7.5
    base = dict(mu=2.0, lam=3.0, alpha=[0.7, 0.9], xi=np.zeros((2, 2)), tau=0.25)
    s = rng.uniform(0.1, 1.0, 2)
    K = rng.uniform(0.1, 1.0, 2)
    s1 = scale_parameters(PhysicalParameters(s=s, K=K, **base))
    s2 = scale_parameters(PhysicalParameters(s=c * s, K=c * K, **base))
    assert np.allclose(s2.R, c * s1.R)
    assert np.allclose(s2.alpha_p, c * s1.alpha_p)


def test_zeta_row_sums_when_alpha_equal():
    """With equal alpha the xi contribution has zero row sums and zeta is PSD."""
    xi = np.array([[0.0, 0.3, 0.1], [0.3, 0.0, 0.2], [0.1, 0.2, 0.0]])
    phys = PhysicalParameters(
        mu=0.5, lam=1.0, alpha=[0.8, 0.8, 0.8], s=[0.0, 0.0, 0.0],
        K=[1.0, 1.0, 1.0], xi=xi, tau=1.0,
    )
    scaled = scale_parameters(phys)
    assert np.allclose(scaled.zeta.sum(axis=1), 0.0, atol=1e-14)
    assert np.linalg.eigvalsh(scaled.zeta).min() >= -1e-14


def test_single_network_biot_reduction():
    phys = PhysicalParameters(
        mu=1.0, lam=4.0, alpha=[0.5], s=[0.1], K=[2.0], xi=np.zeros((1, 1)), tau=0.5,
    )
    scaled = scale_parameters(phys)
    assert scaled.n == 1
    assert np.isclose(scaled.zeta[0, 0], scaled.alpha_p[0])
    assert np.isclose(scaled.Lambda[0, 0], scaled.alpha_p[0] + 1.0 / scaled.lam0)


def test_scaled_from_direct_mode():
    scaled = scaled_from_direct(lam=1e4, R=[1e-4, 1e-2], alpha_p=[1e-4, 1e-2], xi=[[0, 1e-4], [1e-4, 0]])
    assert np.isclose(scaled.zeta[0, 1], -1e-4)
    assert np.isclose(scaled.zeta[0, 0], 1e-4 + 1e-4)
    assert scaled.lam0 == 1e4


PHYSICAL = dict(mu=1.0, lam=1.0, alpha=[0.5, 0.5], s=[0.1, 0.1], K=[1.0, 1.0],
                xi=[[0.0, 0.2], [0.2, 0.0]], tau=0.5)
SCALED = dict(lam=1.0, R=[1.0, 1.0], alpha_p=[0.1, 0.1], zeta=[[0.3, -0.2], [-0.2, 0.3]])


def _with(base, key, value):
    """``base`` with ``value`` in ``key``: the scalar, the first entry or the
    off-diagonal pair, so a matrix stays symmetric."""
    arr = np.array(base[key], dtype=float)
    if arr.ndim == 2:
        arr[0, 1] = arr[1, 0] = value
    else:
        arr.flat[0] = value
    return dict(base, **{key: arr if arr.ndim else float(arr)})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["mu", "lam", "tau", "alpha", "s", "K", "xi"])
def test_non_finite_physical_parameter_rejected(key, value):
    with pytest.raises(ValueError):
        PhysicalParameters(**_with(PHYSICAL, key, value))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["lam", "R", "alpha_p", "zeta"])
def test_non_finite_scaled_parameter_rejected(key, value):
    with pytest.raises(ValueError):
        ScaledParameters(**_with(SCALED, key, value))


@pytest.mark.parametrize("E, nu", [(np.nan, 0.3), (np.inf, 0.3), (1.0, np.nan), (1.0, np.inf)])
def test_non_finite_young_poisson_rejected(E, nu):
    with pytest.raises(ValueError):
        lame_from_young_poisson(E, nu)


def test_finite_parameter_sets_still_accepted():
    PhysicalParameters(**PHYSICAL)
    ScaledParameters(**SCALED)
