import math

import numpy as np
import pytest
from scipy.integrate import quad

from nlispec.kk import index_change_from_absorption, index_change_weights

NU0, GAMMA, AMP = 2349.0, 0.5, 0.45
PEAK_DN = AMP / (8 * math.pi * NU0)  # |extremum| of the analytic result


def lorentzian_alpha(nu):
    return AMP * GAMMA**2 / ((nu - NU0) ** 2 + GAMMA**2)


def lorentzian_dn(nu):
    # dispersive companion of a narrow Lorentzian absorption line
    d = nu - NU0
    return -(AMP * GAMMA / (4 * math.pi * NU0)) * d / (d**2 + GAMMA**2)


@pytest.fixture(scope="module")
def lorentz_case():
    nu = np.linspace(NU0 - 100 * GAMMA, NU0 + 100 * GAMMA, 10001)
    return nu, index_change_from_absorption(lorentzian_alpha(nu), nu)


def test_lorentzian_matches_analytic_dispersion(lorentz_case):
    nu, dn = lorentz_case
    sel = np.abs(nu - NU0) <= 10 * GAMMA
    err = np.abs(dn[sel] - lorentzian_dn(nu[sel]))
    assert err.max() <= 5e-4 * PEAK_DN


def test_lorentzian_extrema_sit_at_hwhm_offsets(lorentz_case):
    nu, dn = lorentz_case
    assert nu[np.argmax(dn)] == pytest.approx(NU0 - GAMMA, abs=2 * (nu[1] - nu[0]))
    assert nu[np.argmin(dn)] == pytest.approx(NU0 + GAMMA, abs=2 * (nu[1] - nu[0]))
    assert dn.max() == pytest.approx(PEAK_DN, rel=2e-3)


def test_matches_independent_pv_quadrature(lorentz_case):
    # same windowed integral evaluated with adaptive Cauchy-weight
    # quadrature; only the discretization should differ
    nu, dn = lorentz_case
    a, b = nu[0], nu[-1]
    pref = 1 / (2 * math.pi**2)
    for target in (NU0 - 5 * GAMMA, NU0 - 1.05 * GAMMA, NU0 + 0.55 * GAMMA,
                   NU0 + 30.2 * GAMMA):
        i = int(np.argmin(np.abs(nu - target)))
        x = nu[i]
        lo, hi = max(a, x - 40 * GAMMA), min(b, x + 40 * GAMMA)
        val = quad(lambda v: lorentzian_alpha(v) / (v + x), lo, hi,
                   weight="cauchy", wvar=x, limit=400)[0]
        if lo > a:
            val += quad(lambda v: lorentzian_alpha(v) / (v * v - x * x),
                        a, lo, limit=400)[0]
        if hi < b:
            val += quad(lambda v: lorentzian_alpha(v) / (v * v - x * x),
                        hi, b, limit=400)[0]
        assert dn[i] == pytest.approx(pref * val, abs=1e-5 * PEAK_DN)


def test_symmetric_absorption_gives_antisymmetric_dispersion(lorentz_case):
    # exact for the Hilbert transform in detuning; narrow-band here, so
    # antisymmetry holds to O(width / center)
    nu, dn = lorentz_case
    assert np.abs(dn + dn[::-1]).max() <= 2e-3 * PEAK_DN


def test_zero_absorption_gives_baseline_exactly():
    nu = np.linspace(2300.0, 2400.0, 501)
    dn = index_change_from_absorption(np.zeros_like(nu), nu, baseline=3.5e-6)
    assert np.all(dn == 3.5e-6)


def test_linearity():
    nu = np.linspace(2300.0, 2400.0, 501)
    a1 = lorentzian_alpha(nu)
    a2 = np.exp(-((nu - 2360.0) ** 2) / 8.0)
    lhs = index_change_from_absorption(a1 + 2.0 * a2, nu)
    rhs = (index_change_from_absorption(a1, nu)
           + 2.0 * index_change_from_absorption(a2, nu))
    np.testing.assert_allclose(lhs, rhs, atol=1e-18)


def test_weights_matrix_agrees_with_direct_path():
    nu = np.linspace(2340.0, 2358.0, 901)
    alpha = lorentzian_alpha(nu)
    np.testing.assert_allclose(
        index_change_weights(nu) @ alpha,
        index_change_from_absorption(alpha, nu),
        atol=1e-18,
    )


@pytest.mark.parametrize("n", [900, 901])
def test_weights_matrix_agrees_with_fft_path_at_both_parities(n):
    nu = np.linspace(2340.0, 2358.0, n)
    alpha = lorentzian_alpha(nu)
    dn = index_change_from_absorption(alpha, nu)
    err = np.abs(index_change_weights(nu) @ alpha - dn).max()
    assert err <= 1e-14 * np.abs(dn).max()


def test_matches_extended_precision_direct_sum():
    # grid nodes 2340 + j/64 and their squares are exact in binary, so
    # the long-double sum of alpha_j / (nu_j^2 - nu_i^2) over opposite
    # parity is the quadrature rule itself, free of rounding
    ld = np.longdouble
    j = np.arange(901)
    nu = 2340.0 + j / 64.0
    alpha = lorentzian_alpha(nu)
    nu_ld = nu.astype(ld)
    opposite = (j[None, :] - j[:, None]) % 2 == 1
    denom = nu_ld[None, :] ** 2 - nu_ld[:, None] ** 2
    denom[~opposite] = 1
    terms = np.where(opposite, alpha.astype(ld)[None, :], 0) / denom
    ref = terms.sum(axis=1) * (2 * ld(1 / 64) / (2 * ld(np.pi) ** 2))
    dn = index_change_from_absorption(alpha, nu)
    err = np.abs(dn.astype(ld) - ref).max()
    assert float(err) <= 1e-14 * float(np.abs(ref).max())


def test_lorentzian_on_grid_at_point_cap():
    # 200001 points is the largest idler grid a run may ask for
    nu = np.linspace(NU0 - 500 * GAMMA, NU0 + 500 * GAMMA, 200001)
    dn = index_change_from_absorption(lorentzian_alpha(nu), nu)
    sel = np.abs(nu - NU0) <= 10 * GAMMA
    err = np.abs(dn[sel] - lorentzian_dn(nu[sel]))
    assert err.max() <= 5e-4 * PEAK_DN


def test_weights_structure():
    nu = np.linspace(2340.0, 2350.0, 101)
    w = index_change_weights(nu)
    assert np.all(np.diag(w) == 0.0)
    idx = np.arange(nu.size)
    same_parity = (idx[None, :] - idx[:, None]) % 2 == 0
    assert np.all(w[same_parity] == 0.0)
    np.testing.assert_allclose(w, -w.T, rtol=1e-12)


def test_weights_propagate_noise_variance():
    # var(dn) = W^2 @ var(alpha) for independent noise
    rng = np.random.default_rng(7)
    nu = np.linspace(2340.0, 2358.0, 301)
    sigma = 1e-3 * (1.0 + lorentzian_alpha(nu))
    w = index_change_weights(nu)
    predicted = np.sqrt((w**2) @ sigma**2)
    draws = rng.normal(0.0, sigma, size=(4000, nu.size))
    dn = draws @ w.T
    empirical = dn.std(axis=0)
    np.testing.assert_allclose(empirical, predicted, rtol=0.1)


def test_baseline_shifts_uniformly():
    nu = np.linspace(2340.0, 2358.0, 301)
    alpha = lorentzian_alpha(nu)
    d0 = index_change_from_absorption(alpha, nu)
    d1 = index_change_from_absorption(alpha, nu, baseline=2e-6)
    np.testing.assert_allclose(d1 - d0, 2e-6, rtol=1e-9)


def test_grid_validation():
    good = np.linspace(2300.0, 2400.0, 11)
    with pytest.raises(ValueError):
        index_change_from_absorption(np.zeros(11), good[::-1])
    with pytest.raises(ValueError):
        index_change_from_absorption(np.zeros(3), np.array([1.0, 2.0, 4.0]))
    with pytest.raises(ValueError):
        index_change_from_absorption(np.zeros(2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        index_change_from_absorption(np.zeros(10), good)
    bad = np.zeros(11)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        index_change_from_absorption(bad, good)
