import math
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlispec.config import gas_grid, load_lines, load_run_config
from nlispec.errors import LineParseError
from nlispec.lineshape import (
    C2_CM_K,
    LineArrays,
    SpectralLine,
    _line_windows,
    absorption_coefficient,
    doppler_hwhm,
    line_grid_step,
    line_strength,
    load_line_csv,
    load_par_file,
    lorentz_hwhm,
    number_density,
    parse_par_record,
    save_line_csv,
    voigt_profile,
)
from nlispec.resources import data_path

LINE = SpectralLine(nu0_cm=2349.0, strength=1e-19, gamma_air=0.095,
                    gamma_self=0.145, elow_cm=500.0, n_air=0.75)

# absorption_coefficient's contract against the exact line-by-line sum
ALPHA_BUDGET = 1e-10


# ------------------------------------------------------------ densities

def test_number_density_is_loschmidt_at_stp():
    assert number_density(760.0, 273.15) == pytest.approx(2.686780111e19, rel=1e-9)


def test_number_density_frozen_value():
    assert number_density(10.5, 300.0) == pytest.approx(3.3797749426e17, rel=1e-10)


def test_number_density_rejects_bad_inputs():
    with pytest.raises(ValueError):
        number_density(-1.0, 300.0)
    with pytest.raises(ValueError):
        number_density(10.0, 0.0)


# ------------------------------------------------------------ widths

def test_doppler_hwhm_frozen_value():
    assert doppler_hwhm(2349.0, 300.0, 44.01) == pytest.approx(
        2.1963021050024267e-3, rel=1e-12
    )


def test_doppler_hwhm_scalings():
    g = doppler_hwhm(2349.0, 300.0, 44.01)
    assert doppler_hwhm(2349.0, 1200.0, 44.01) == pytest.approx(2 * g, rel=1e-12)
    assert doppler_hwhm(2349.0, 300.0, 4 * 44.01) == pytest.approx(g / 2, rel=1e-12)
    assert doppler_hwhm(2 * 2349.0, 300.0, 44.01) == pytest.approx(2 * g, rel=1e-12)


def test_lorentz_hwhm_reference_point():
    # 1 atm, 296 K, pure gas: exactly gamma_self
    assert lorentz_hwhm(LINE, 760.0, 296.0, x_self=1.0) == pytest.approx(
        0.145, rel=1e-14
    )
    assert lorentz_hwhm(LINE, 760.0, 296.0, x_self=0.0) == pytest.approx(
        0.095, rel=1e-14
    )


def test_lorentz_hwhm_pressure_and_temperature_scaling():
    g1 = lorentz_hwhm(LINE, 10.0, 296.0)
    g2 = lorentz_hwhm(LINE, 20.0, 296.0)
    assert g2 == pytest.approx(2 * g1, rel=1e-14)
    gt = lorentz_hwhm(LINE, 760.0, 350.0, x_self=1.0)
    assert gt == pytest.approx(0.145 * (296.0 / 350.0) ** 0.75, rel=1e-14)


def test_lorentz_hwhm_mixing_fraction():
    g = lorentz_hwhm(LINE, 760.0, 296.0, x_self=0.25)
    assert g == pytest.approx(0.25 * 0.145 + 0.75 * 0.095, rel=1e-14)
    with pytest.raises(ValueError):
        lorentz_hwhm(LINE, 760.0, 296.0, x_self=1.5)


# ------------------------------------------------------------ Voigt

def test_voigt_gaussian_limit():
    gd = 2.0e-3
    delta = np.linspace(-0.01, 0.01, 41)
    expected = math.sqrt(math.log(2) / math.pi) / gd * np.exp(
        -math.log(2) * (delta / gd) ** 2
    )
    np.testing.assert_allclose(voigt_profile(delta, gd, 0.0), expected, rtol=1e-10)


def test_voigt_lorentzian_limit():
    gl = 0.05
    delta = np.array([0.0, 0.02, 0.05, 0.2, 1.0])
    expected = gl / math.pi / (delta**2 + gl**2)
    got = voigt_profile(delta, 1e-7 * gl, gl)
    np.testing.assert_allclose(got, expected, rtol=1e-5)


def test_voigt_peak_frozen_value():
    # wofz cross-check, gd=2.2e-3 gl=2.0e-3 at line center
    assert voigt_profile(0.0, 2.2e-3, 2.0e-3) == pytest.approx(
        107.69822735817608, rel=1e-10
    )


@settings(max_examples=50, deadline=None)
@given(
    st.floats(1e-4, 1e-1),
    st.floats(0.0, 0.05),  # Lorentz fraction of the Doppler width
)
def test_voigt_unit_area_when_wings_fit_the_window(gd, ratio):
    # +-50 widths holds >= 99.9% of the mass only when the Lorentzian
    # tail is weak; for gl <= 0.05 gd the analytic tail mass is ~6e-4
    gl = ratio * gd
    half = 50.0 * max(gd, gl)
    delta = np.linspace(-half, half, 20001)
    area = np.trapezoid(voigt_profile(delta, gd, gl), delta)
    assert area == pytest.approx(1.0, abs=1e-3)


def test_voigt_window_mass_lorentz_dominated():
    # Lorentzian tails put ~1.27% of the mass beyond +-50 HWHM:
    # in-window mass is (2/pi) atan(50), not 1
    gl = 0.05
    half = 50.0 * gl
    delta = np.linspace(-half, half, 200001)
    area = np.trapezoid(voigt_profile(delta, 1e-6 * gl, gl), delta)
    assert area == pytest.approx(0.9872693017980544, abs=1e-3)


def test_voigt_symmetric_and_positive():
    phi = voigt_profile(np.linspace(-1, 1, 101), 3e-3, 1e-3)
    np.testing.assert_allclose(phi, phi[::-1], rtol=1e-12)
    assert np.all(phi > 0)


def _re_faddeeva(x, y):
    # with gamma_doppler = sqrt(ln 2), x is the reduced detuning and
    # sqrt(pi) * voigt_profile(x, sqrt(ln 2), y) is Re w(x + iy)
    return math.sqrt(math.pi) * voigt_profile(x, math.sqrt(math.log(2.0)), y)


@pytest.mark.parametrize("y", [0.0, 1e-8, 1e-3, 0.1, 1.0, 10.0, 49.99, 60.0,
                               1e2, 1e4, 1e8])
def test_faddeeva_matches_scipy_wofz(y):
    from scipy.special import wofz
    rng = np.random.default_rng(6)
    x = np.concatenate([np.linspace(-60.0, 60.0, 24001),
                        rng.uniform(-1e6, 1e6, 2000)])
    peak = wofz(1j * y).real
    got, want = _re_faddeeva(x, y), wofz(x + 1j * y).real
    assert np.abs(got - want).max() <= 1e-13 * peak


_X_MIXED = np.linspace(-80.0, 80.0, 640)


@pytest.mark.parametrize("x", [
    np.array([]),
    0.3,
    np.linspace(-30.0, 30.0, 601),
    np.linspace(60.0, 1e4, 601),
    _X_MIXED[::-1],
    np.random.default_rng(7).permutation(_X_MIXED),
    _X_MIXED.reshape(32, 20),
], ids=["empty", "scalar", "all_near", "all_far", "reversed", "shuffled",
        "mixed_2d"])
def test_faddeeva_shape_and_branches(x):
    from scipy.special import wofz
    y = 0.5
    before = np.copy(x)
    got = _re_faddeeva(x, y)
    assert np.shape(got) == np.shape(x)
    assert isinstance(got, float) == np.isscalar(x)
    peak = wofz(1j * y).real
    assert np.all(np.abs(got - wofz(x + 1j * y).real) <= 1e-13 * peak)
    np.testing.assert_array_equal(x, before)  # the input is left alone


@pytest.mark.parametrize("gl", [0.0, 1e-3, 0.5, 40.0])
def test_voigt_profile_commutes_with_permutation(gl):
    x = np.concatenate([np.linspace(-70.0, 70.0, 1401), [0.0, 0.0, -3.5]])
    p = np.random.default_rng(8).permutation(x.size)
    assert np.array_equal(voigt_profile(x[p], 0.7, gl),
                          voigt_profile(x, 0.7, gl)[p])


@pytest.mark.parametrize("gl", [0.0, 1e-4, 2e-3, 0.05, 1.0])
def test_voigt_profile_is_zero_at_infinite_detuning(gl):
    # 1.0 puts y past 50: each finite point takes Weideman's approximation
    # or, far out, the three-term polynomial
    finite = np.array([-80.0, -0.02, 0.0, 1e-3, 0.5, 3e3])
    x = np.concatenate([finite, [np.inf, -np.inf, np.nan, np.inf]])
    p = np.random.default_rng(3).permutation(x.size)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = voigt_profile(x[p], 0.01, gl)[np.argsort(p)]
        want = voigt_profile(finite, 0.01, gl)
    assert np.array_equal(got[:finite.size], want)
    assert np.array_equal(got[finite.size:], [0.0, 0.0, np.nan, 0.0],
                          equal_nan=True)


def test_voigt_rejects_bad_widths():
    with pytest.raises(ValueError):
        voigt_profile(0.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        voigt_profile(0.0, 1e-3, -1e-3)


# ------------------------------------------------------------ strength

def test_line_strength_identity_at_reference():
    assert line_strength(LINE, 296.0) == pytest.approx(1e-19, rel=1e-14)


def test_line_strength_frozen_value():
    assert line_strength(LINE, 350.0) == pytest.approx(
        1.4548717885059362e-19, rel=1e-12
    )


def test_line_strength_partition_ratio_multiplies():
    assert line_strength(LINE, 350.0, partition_ratio=0.8) == pytest.approx(
        0.8 * line_strength(LINE, 350.0), rel=1e-14
    )


@pytest.mark.parametrize("t", [296.0, 300.0])
@pytest.mark.parametrize("elow", [2e4, 3e5])
def test_line_strength_at_high_lower_state_energy(elow, t):
    # each Boltzmann factor alone underflows at E'' = 3e5 cm^-1; the
    # ratio is finite (about 2.8e8 at 300 K)
    line = SpectralLine(2349.0, 1e-19, 0.095, 0.145, elow, 0.75)
    boltz = math.exp(-C2_CM_K * elow * (1.0 / t - 1.0 / 296.0))
    stim = (math.expm1(-C2_CM_K * 2349.0 / t)
            / math.expm1(-C2_CM_K * 2349.0 / 296.0))
    assert line_strength(line, t) == pytest.approx(1e-19 * boltz * stim,
                                                   rel=1e-12)


def test_line_arrays_match_per_line_calls():
    lines = load_line_csv(data_path("co2_synthetic_lines.csv"))
    fields = LineArrays.of(lines)
    assert np.array_equal(fields.elow_cm, [ln.elow_cm for ln in lines])
    for got, want in (
            (line_strength(fields, 350.0, 0.9),
             [line_strength(ln, 350.0, 0.9) for ln in lines]),
            (doppler_hwhm(fields.nu0_cm, 350.0, 44.01),
             [doppler_hwhm(ln.nu0_cm, 350.0, 44.01) for ln in lines]),
            (lorentz_hwhm(fields, 10.5, 350.0, 0.25),
             [lorentz_hwhm(ln, 10.5, 350.0, 0.25) for ln in lines])):
        assert got.shape == (len(lines),)
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=2)


# ------------------------------------------------------------ alpha(nu)

def test_alpha_single_line_peak_matches_factors():
    nu = np.linspace(2348.0, 2350.0, 2001)  # grid point exactly at center
    alpha = absorption_coefficient([LINE], nu, 10.5, 300.0, 44.01)
    i0 = np.argmin(np.abs(nu - 2349.0))
    gd = doppler_hwhm(2349.0, 300.0, 44.01)
    gl = lorentz_hwhm(LINE, 10.5, 300.0)
    expected = (number_density(10.5, 300.0) * line_strength(LINE, 300.0)
                * voigt_profile(0.0, gd, gl))
    assert alpha[i0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("centre", [2349.0, 2349.0 + 1e-12, 2349.1, 2360.3])
def test_line_windows_select_what_the_mask_selects(centre):
    # step 0.25 and cutoff 5 are exact in binary: for centre 2349 both
    # window edges fall exactly on grid points
    nu = 2340.0 + 0.25 * np.arange(81)
    for cutoff in (5.0, 0.25, 100.0, 0.1):
        lo, hi = _line_windows(nu, np.array([centre]), cutoff)
        want = np.flatnonzero(np.abs(nu - centre) <= cutoff)
        assert np.array_equal(np.arange(lo[0], hi[0]), want)
    if centre == 2349.0:
        lo, hi = _line_windows(nu, np.array([centre]), 5.0)
        assert (nu[lo[0]], nu[hi[0] - 1]) == (2344.0, 2354.0)


def test_line_windows_where_rounding_moves_an_edge():
    # a centre at grid point +- cutoff is a rounded sum, so a rounded edge
    # centre -/+ cutoff can land on either side of that grid point; a
    # cutoff comparable to the centre also rounds |nu - centre| itself
    rng = np.random.default_rng(3)
    nu = np.linspace(2211.7, 2487.3, 4001)
    cases = []
    for cutoff in (1.0 / 3.0, 2.9, 25.0, 5000.0):
        k = rng.integers(0, nu.size, 200)
        cases += [(c, cutoff) for c in np.concatenate([nu[k] + cutoff,
                                                        nu[k] - cutoff])
                  if c > 0]
    centres = rng.uniform(0.01, 1000.0, 400)
    cases += zip(centres, nu[rng.integers(0, nu.size, 400)] - centres)
    for centre, cutoff in cases:
        lo, hi = _line_windows(nu, np.array([centre]), cutoff)
        want = np.flatnonzero(np.abs(nu - centre) <= cutoff)
        assert np.array_equal(np.arange(lo[0], hi[0]), want)


def test_alpha_additive_over_lines():
    l2 = SpectralLine(2351.0, 2e-19, 0.09, 0.14, 300.0, 0.7)
    nu = np.linspace(2340.0, 2360.0, 4001)
    a1 = absorption_coefficient([LINE], nu, 20.0, 300.0, 44.01)
    a2 = absorption_coefficient([l2], nu, 20.0, 300.0, 44.01)
    both = absorption_coefficient([LINE, l2], nu, 20.0, 300.0, 44.01)
    np.testing.assert_allclose(both, a1 + a2, rtol=1e-12)


def test_alpha_equals_masked_line_loop():
    # reference: the same per-line sum over an elementwise window mask
    rng = np.random.default_rng(4)
    nu = np.linspace(2300.0, 2400.0, 2001)
    centres = np.concatenate([rng.uniform(2270.0, 2430.0, 40),
                              nu[rng.integers(0, nu.size, 10)] + 25.0])
    lines = [SpectralLine(float(c), 1e-19, 0.07, 0.1, 100.0, 0.75)
             for c in centres]
    want = np.zeros_like(nu)
    for ln in lines:
        sel = np.abs(nu - ln.nu0_cm) <= 25.0
        want[sel] += (number_density(10.5, 300.0) * line_strength(ln, 300.0)
                      * voigt_profile(nu[sel] - ln.nu0_cm,
                                      doppler_hwhm(ln.nu0_cm, 300.0, 44.01),
                                      lorentz_hwhm(ln, 10.5, 300.0)))
    got = absorption_coefficient(lines, nu, 10.5, 300.0, 44.01,
                                 wing_cutoff_cm=25.0)
    assert np.abs(got - want).max() <= ALPHA_BUDGET * want.max()


def _alpha_line_by_line(lines, nu, p, t, molar_mass, cutoff):
    # oracle: one voigt_profile call per line over an elementwise mask
    want = np.zeros_like(nu)
    for ln in lines:
        sel = np.abs(nu - ln.nu0_cm) <= cutoff
        want[sel] += (number_density(p, t) * line_strength(ln, t)
                      * voigt_profile(nu[sel] - ln.nu0_cm,
                                      doppler_hwhm(ln.nu0_cm, t, molar_mass),
                                      lorentz_hwhm(ln, p, t)))
    return want


def test_alpha_kernel_edge_cases_match_voigt_profile():
    nu = np.linspace(2301.0, 2401.0, 3001)
    nu[1500] = 2351.0
    cutoff = 20.0

    def line(nu0, gamma=0.1):
        return SpectralLine(nu0, 1e-19, gamma, gamma, 100.0, 0.75)

    lines = [line(float(nu[1]) + 0.05),    # window cut off by the low edge
             line(2351.0),                 # centred on a grid point
             line(2335.0, 0.0),            # zero Lorentz width
             line(2360.0, 60.0),           # Im z >= 50: no near point
             line(2396.0)]                 # window cut off by the high edge
    p, t = 10.5, 300.0
    gd = doppler_hwhm(2351.0, t, 44.01)
    assert lorentz_hwhm(lines[2], p, t) == 0.0
    assert lorentz_hwhm(lines[3], p, t) / (gd / math.sqrt(math.log(2))) > 50
    assert lines[0].nu0_cm - cutoff < nu[0] and lines[4].nu0_cm + cutoff > nu[-1]
    lo, hi = _line_windows(nu, np.array([ln.nu0_cm for ln in lines]), cutoff)
    assert lo[0] == 0 and hi[4] == nu.size
    got = absorption_coefficient(lines, nu, p, t, 44.01,
                                 wing_cutoff_cm=cutoff)
    want = _alpha_line_by_line(lines, nu, p, t, 44.01, cutoff)
    assert np.abs(got - want).max() <= ALPHA_BUDGET * want.max()
    assert got[1500] > 0.0


def _dense_lines(seed, n_lines=2000, gamma_min=12.0):
    # drawn the way nlibench's dense_line_list draws them, unscaled
    rng = np.random.default_rng(seed)
    nu0 = rng.uniform(2180.0, 2520.0, n_lines)
    gamma_self = gamma_min * (1.0 + 2.0 * rng.random(n_lines))
    gamma_self[0] = gamma_min
    strength = 1e-19 * 10.0 ** rng.uniform(-1.0, 0.0, n_lines)
    elow = rng.uniform(0.0, 600.0, n_lines)
    return [SpectralLine(float(c), float(s), float(0.7 * g), float(g),
                         float(e), 0.75, 2, 1)
            for c, s, g, e in zip(nu0, strength, gamma_self, elow)]


def _line_window_grid(lines, p_torr, molar_mass_g, cutoff):
    """The line centres +- the wing cutoff at `line_grid_step`."""
    centres = [ln.nu0_cm for ln in lines]
    lo, hi = min(centres) - cutoff, max(centres) + cutoff
    step = line_grid_step(lines, p_torr, 300.0, molar_mass_g)
    return np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)


def _oracle_case(case):
    """(lines, grid, P [Torr], wing cutoff) of one two-grid input."""
    cfg = load_run_config(data_path("co2_demo.cfg"))
    demo = load_lines(cfg)
    mm = cfg.molar_mass_g_mol
    if case == "dense_band":
        lines = _dense_lines(17)
        return lines, _line_window_grid(lines, 10.5, mm, 60.0), 10.5, 60.0
    if case == "demo":
        return demo, gas_grid(cfg, demo), cfg.pressure_torr, 60.0
    if case == "0.3_torr":
        return demo, _line_window_grid(demo, 0.3, mm, 60.0), 0.3, 60.0
    if case == "760_torr":
        return demo, gas_grid(cfg, demo), 760.0, 60.0
    if case == "zero_lorentz":
        lines = [SpectralLine(2340.0 + 3.3 * k, 1e-19, 0.0, 0.0, 100.0, 0.75)
                 for k in range(5)]
        return lines, np.linspace(2330.0, 2360.0, 30001), 10.5, 25.0
    nu = np.linspace(2300.0, 2340.0, 4001)
    if case == "centre_on_grid_point":
        line = SpectralLine(float(nu[2000]), 1e-19, 0.07, 0.1, 100.0, 0.75)
        return [line], nu, 10.5, 10.0
    lines = [SpectralLine(c, 1e-19, 0.07, 0.1, 100.0, 0.75)
             for c in (2295.0, 2303.3, 2321.7, 2338.1, 2346.0)]
    if case == "windows_cut_by_grid_ends":
        return lines, nu, 10.5, 10.0
    if case == "cutoff_shorter_than_core":
        return lines, nu, 10.5, 0.5
    assert case == "n_minus_1_not_a_multiple_of_16"
    return lines, np.linspace(2300.0, 2340.0, 4003), 10.5, 10.0


@pytest.mark.parametrize("case", [
    "dense_band", "demo", "0.3_torr", "760_torr", "zero_lorentz",
    "centre_on_grid_point", "windows_cut_by_grid_ends",
    "cutoff_shorter_than_core", "n_minus_1_not_a_multiple_of_16"])
def test_alpha_within_budget_of_line_by_line(case):
    lines, nu, p, cutoff = _oracle_case(case)
    got = absorption_coefficient(lines, nu, p, 300.0, 44.0095,
                                 wing_cutoff_cm=cutoff)
    want = _alpha_line_by_line(lines, nu, p, 300.0, 44.0095, cutoff)
    assert np.abs(got - want).max() <= ALPHA_BUDGET * want.max()
    assert np.all(got >= 0.0)


def test_alpha_peak_memory_is_a_chunk_of_lines():
    # absorption_coefficient's docstring: 2000 lines on a 22k-point grid
    # peak under 2 MiB, because scratch is sized by a chunk of lines
    lines, nu, p, cutoff = _oracle_case("dense_band")
    assert (len(lines), nu.size) == (2000, 22419)

    def call():
        return absorption_coefficient(lines, nu, p, 300.0, 44.0095,
                                      wing_cutoff_cm=cutoff)

    call()                               # first-call caches stay out
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_alpha_wing_cutoff_truncates():
    nu = np.linspace(2323.0, 2373.9, 510)    # 0.1 cm^-1 steps
    alpha = absorption_coefficient([LINE], nu, 20.0, 300.0, 44.01,
                                   wing_cutoff_cm=25.0)
    assert nu[260] == 2349.0
    assert alpha[0] == 0.0      # 26 cm^-1 below the center
    assert alpha[260] > 0.0
    assert alpha[-1] > 0.0      # 24.9 cm^-1 above it


def test_alpha_far_line_skipped():
    nu = np.linspace(2400.0, 2410.0, 11)
    alpha = absorption_coefficient([LINE], nu, 20.0, 300.0, 44.01)
    assert np.all(alpha == 0.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.5, 400.0), st.floats(200.0, 400.0))
def test_alpha_nonnegative(p, t):
    nu = np.linspace(2330.0, 2370.0, 401)
    alpha = absorption_coefficient([LINE], nu, p, t, 44.01)
    assert np.all(alpha >= 0.0)


def test_alpha_rejects_bad_grid():
    with pytest.raises(ValueError):
        absorption_coefficient([LINE], np.array([2.0, 1.0]), 10.0, 300.0, 44.01)
    with pytest.raises(ValueError):
        absorption_coefficient([LINE], np.array([-1.0, 1.0]), 10.0, 300.0, 44.01)


# ------------------------------------------------------------ parsers

def make_par_record(mol=2, iso="1", nu=2349.917138, s=3.553e-19, a=1.234,
                    gair=0.0758, gself=0.0942, elow=1234.5678, nexp=0.75):
    # build strictly by span so each field lands on its columns
    f_gair = f"{gair:.4f}".lstrip("0")[:5].rjust(5)
    f_gself = f"{gself:.4f}".lstrip("0")[:5].rjust(5)
    rec = (f"{mol:>2d}{iso:>1s}{nu:>12.6f}{s:>10.3E}{a:>10.3E}"
           f"{f_gair}{f_gself}{elow:>10.4f}{nexp:>4.2f}")
    assert len(rec) == 59
    return rec + " " * 101  # pad to the full 160-column record


def test_par_record_round_trip():
    line = parse_par_record(make_par_record())
    assert line.mol_id == 2
    assert line.iso_id == 1
    assert line.nu0_cm == pytest.approx(2349.917138, abs=1e-6)
    assert line.strength == pytest.approx(3.553e-19, rel=1e-3)
    assert line.gamma_air == pytest.approx(0.0758, abs=1e-4)
    assert line.gamma_self == pytest.approx(0.0942, abs=1e-4)
    assert line.elow_cm == pytest.approx(1234.5678, abs=1e-4)
    assert line.n_air == pytest.approx(0.75, abs=1e-2)


def test_par_record_fortran_exponent():
    rec = make_par_record()
    rec = rec.replace("3.553E-19", "3.553D-19")
    assert parse_par_record(rec).strength == pytest.approx(3.553e-19, rel=1e-3)


def test_par_record_letter_isotopologue():
    line = parse_par_record(make_par_record(iso="A"))
    assert line.iso_id == 10


def test_par_record_errors_carry_location():
    with pytest.raises(LineParseError, match="record 7"):
        parse_par_record("too short", record=7)
    bad = make_par_record()
    bad = bad[:15] + "xxxxxxxxxx" + bad[25:]
    with pytest.raises(LineParseError, match="columns 16-25"):
        parse_par_record(bad, record=3)


def test_par_file_filtering(tmp_path):
    p = tmp_path / "lines.par"
    p.write_text(
        make_par_record(mol=2, iso="1") + "\n"
        + make_par_record(mol=2, iso="2", nu=2350.5) + "\n"
        + make_par_record(mol=7, iso="1", nu=1556.2) + "\n",
        encoding="utf-8",
    )
    assert len(load_par_file(p)) == 3
    assert len(load_par_file(p, molecule=2)) == 2
    assert len(load_par_file(p, molecule=2, isotopologue=1)) == 1


def test_csv_round_trip(tmp_path):
    p = tmp_path / "lines.csv"
    lines = [LINE, SpectralLine(2351.5, 2e-19, 0.09, 0.14, 300.0, 0.7, 2, 1)]
    save_line_csv(p, lines)
    back = load_line_csv(p)
    assert len(back) == 2
    for a, b in zip(lines, back):
        assert b.nu0_cm == pytest.approx(a.nu0_cm, rel=1e-9)
        assert b.strength == pytest.approx(a.strength, rel=1e-9)
        assert b.mol_id == a.mol_id


def test_csv_missing_column_rejected(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("nu0_cm,strength\n2349,1e-19\n", encoding="utf-8")
    with pytest.raises(LineParseError, match="missing columns"):
        load_line_csv(p)


def test_csv_bad_value_reports_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(
        "nu0_cm,strength,gamma_air,gamma_self,elow_cm,n_air\n"
        "2349,1e-19,0.09,0.14,500,0.75\n"
        "oops,1e-19,0.09,0.14,500,0.75\n",
        encoding="utf-8",
    )
    with pytest.raises(LineParseError, match="record 3"):
        load_line_csv(p)


def test_csv_reader_error_is_a_line_parse_error(tmp_path):
    # an unclosed quote runs one 200,000-character field to the end of
    # the file: a record error that names the file
    p = tmp_path / "bad.csv"
    p.write_text("nu0_cm,strength,gamma_air,gamma_self,elow_cm,n_air\n"
                 '"' + "1" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(LineParseError, match=f"^{re.escape(str(p))}: "
                                             "record 2: "):
        load_line_csv(p)


CSV_HEADER = "nu0_cm,strength,gamma_air,gamma_self,elow_cm,n_air,mol_id,iso_id"
CSV_RECORD = "2349.5,3.5e-19,0.0758,0.0942,1234.5678,0.75,2,1"


def _rows_by_float(path):
    """SpectralLines of a CSV list parsed row by row with float()."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [SpectralLine(*map(float, row[:6]), *map(int, row[6:]))
                for row in (text.strip().split(",") for text in fh)]


def _assert_behaves_as(loaded, want):
    assert isinstance(loaded, LineArrays)
    assert len(loaded) == len(want)
    assert list(loaded) == want
    assert [loaded[i] for i in range(len(want))] == want
    assert loaded[-1] == want[-1]
    first, *rest = loaded
    assert first == want[0] and len(rest) == len(want) - 1
    assert all(type(ln.mol_id) is int and type(ln.nu0_cm) is float
               for ln in loaded)


def test_loaded_csv_behaves_as_its_lines():
    path = data_path("co2_synthetic_lines.csv")
    _assert_behaves_as(load_line_csv(path), _rows_by_float(path))


def test_loaded_dense_list_behaves_as_its_lines(tmp_path):
    lines = _dense_lines(1)
    path = tmp_path / "dense.csv"
    save_line_csv(path, lines)
    loaded = load_line_csv(path)
    _assert_behaves_as(loaded, _rows_by_float(path))
    # the arrays of the generated lines give back the lines themselves
    _assert_behaves_as(LineArrays.of(lines), lines)
    assert LineArrays.of(loaded) is loaded


def test_loaded_par_file_behaves_as_its_records(tmp_path):
    records = [make_par_record(nu=2349.917138 + k, elow=100.0 * k,
                               iso="12"[k % 2]) for k in range(5)]
    path = tmp_path / "lines.par"
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    _assert_behaves_as(load_par_file(path),
                       [parse_par_record(r) for r in records])
    _assert_behaves_as(load_par_file(path, molecule=2, isotopologue=2),
                       [parse_par_record(r) for r in records[1::2]])


def test_save_line_csv_rewrites_the_shipped_list_byte_for_byte(tmp_path):
    shipped = data_path("co2_synthetic_lines.csv")
    lines = load_line_csv(shipped)
    with open(shipped, "rb") as fh:
        want = fh.read()
    for i, given in enumerate((lines, list(lines))):
        save_line_csv(tmp_path / f"{i}.csv", given)
        assert (tmp_path / f"{i}.csv").read_bytes() == want


def test_generator_reproduces_the_shipped_list(tmp_path):
    # tools/gen_demo_lines.py writes the list that every demo run reads
    tool = pathlib.Path(__file__).parents[1] / "tools" / "gen_demo_lines.py"
    out = tmp_path / "lines.csv"
    run = subprocess.run([sys.executable, str(tool), str(out)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "peak alpha at 10.5 Torr / 300.0 K: 0.4500 cm^-1" in run.stdout
    assert out.read_bytes() == \
        pathlib.Path(data_path("co2_synthetic_lines.csv")).read_bytes()


def test_csv_load_peak_memory_is_a_table_of_the_lines(tmp_path):
    # 20,000 lines as one float table are 1.3 MB; one SpectralLine per
    # line peaked at 5.7 MiB
    with open(data_path("co2_synthetic_lines.csv"), encoding="utf-8") as fh:
        rows = [text.strip().split(",") for text in fh][1:]
    path = tmp_path / "lines.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for k in range(20_000):
            row = rows[k % len(rows)]
            fh.write(",".join([repr(float(row[0]) + 1e-3 * k), *row[1:]])
                     + "\n")
    load_line_csv(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lines = load_line_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(lines) == 20_000
    assert peak < 3 * 2**20


@pytest.mark.parametrize("text, ids", [
    (f"{CSV_HEADER}\n2349.5,3.5e-19,0.0758,0.0942,1234.5678,0.75,,\n",
     (0, 0)),
    (f'{CSV_HEADER}\n"2349.5","3.5e-19",0.0758,0.0942,1234.5678,0.75,"2",1\n',
     (2, 1)),
    (f"{CSV_HEADER}\r\n{CSV_RECORD}\r\n", (2, 1)),
    (f"{CSV_HEADER}\n\n{CSV_RECORD}\n\n", (2, 1)),
    (f"{CSV_HEADER}\n2349.5,3.5e-19,0.0758,0.0942,1234.5678,0.75\n", (0, 0)),
    (f"{CSV_HEADER}\n{CSV_RECORD},extra\n", (2, 1)),
], ids=["blank_ids", "quoted", "crlf", "blank_lines", "row_without_ids",
        "extra_cell"])
def test_csv_layouts_that_load(tmp_path, text, ids):
    path = tmp_path / "lines.csv"
    path.write_bytes(text.encode())
    (line,) = load_line_csv(path)
    assert line == SpectralLine(2349.5, 3.5e-19, 0.0758, 0.0942, 1234.5678,
                                0.75, *ids)


@pytest.mark.parametrize("record, reason", [
    ("2349.5,-3.5e-19,0.0758,0.0942,1234.5678,0.75,2,1",
     "negative line strength"),
    ("2349.5,nan,0.0758,0.0942,1234.5678,0.75,2,1", "negative line strength"),
    ("2349.5,3.5e-19,0.0758,0.0942,1234.5678,inf,2,1",
     "non-finite width exponent"),
    ("2349.5,3.5e-19,abc,0.0942,1234.5678,0.75,2,1", "could not convert"),
    ("2349.5,3.5e-19,0.0758", "short row"),
    ("2349.5,3.5e-19#,0.0758,0.0942,1234.5678,0.75,2,1", "could not convert"),
    ("2349.5,3.5e-19,0.0758,0.0942,1234.5678,0.75,2.5,1",
     "mol_id '2.5' is not an integer id"),
    ("2349.5,3.5e-19,0.0758,0.0942,1234.5678,0.75,2,1e300",
     "iso_id '1e300' is not an integer id"),
    ("   ", "short row"),
], ids=["negative_strength", "nan", "infinite_exponent", "letters", "short_row",
        "hash", "fractional_id", "huge_id", "blanks_only"])
def test_csv_bad_record_names_file_and_record(tmp_path, record, reason):
    # records 2 and 4 are good, 3 is empty; numpy counts neither the
    # header nor the empty line, the error counts file lines
    path = tmp_path / "lines.csv"
    path.write_text(f"{CSV_HEADER}\n{CSV_RECORD}\n\n{CSV_RECORD}\n{record}\n"
                    f"{CSV_RECORD}\n", encoding="utf-8")
    with pytest.raises(LineParseError,
                       match=f"^{re.escape(str(path))}: record 5: {reason}"):
        load_line_csv(path)


@pytest.mark.parametrize("text, reason", [
    ("nu0_cm,strength,gamma_air,gamma_self,elow_cm\n1,1,1,1,1\n",
     r"missing columns \['n_air'\]"),
    (f"{CSV_HEADER},width\n{CSV_RECORD},1\n", r"unknown columns \['width'\]"),
    (f"{CSV_HEADER}\n", "no lines"),
    (f"{CSV_HEADER}\n\n\n", "no lines"),
], ids=["missing", "unknown", "no_body", "empty_lines_only"])
def test_csv_list_errors_lead_with_the_file(tmp_path, text, reason):
    path = tmp_path / "lines.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LineParseError,
                       match=f"^{re.escape(str(path))}: {reason}$"):
        load_line_csv(path)


def test_par_selection_error_leads_with_the_file(tmp_path):
    path = tmp_path / "lines.par"
    path.write_text(make_par_record() + "\n", encoding="utf-8")
    with pytest.raises(LineParseError,
                       match=f"^{re.escape(str(path))}: no lines with "
                             "molecule_id 7, isotopologue_id None$"):
        load_par_file(path, molecule=7)


def test_par_bad_record_of_another_molecule_still_raises(tmp_path):
    # every record is checked, kept or not
    path = tmp_path / "lines.par"
    bad = make_par_record(mol=7).replace(" 3.553E-19", "-3.553E-19")
    path.write_text(make_par_record() + "\n\n" + bad + "\n",
                    encoding="utf-8")
    with pytest.raises(LineParseError,
                       match=f"^{re.escape(str(path))}: record 3: negative "
                             "line strength"):
        load_par_file(path, molecule=2)


def test_spectral_line_validation():
    with pytest.raises(ValueError):
        SpectralLine(-1.0, 1e-19, 0.09, 0.14, 500.0, 0.75)
    with pytest.raises(ValueError):
        SpectralLine(2349.0, -1e-19, 0.09, 0.14, 500.0, 0.75)
    # the ids `load_line_csv` and `load_par_file` accept: whole, below 2**31
    for ids in ((2**31, 1), (2, -2**31), (2.5, 1), (2, math.nan)):
        with pytest.raises(ValueError, match="is not an integer id"):
            SpectralLine(2349.0, 1e-19, 0.09, 0.14, 500.0, 0.75, *ids)
    assert SpectralLine(2349.0, 1e-19, 0.09, 0.14, 500.0, 0.75,
                        2**31 - 1, 2.0).iso_id == 2


@pytest.mark.parametrize("field", range(6))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectral_line_rejects_non_finite(field, bad):
    # a NaN center would drop the line silently, a NaN strength or
    # width would turn alpha NaN over the whole window
    values = [2349.0, 1e-19, 0.09, 0.14, 500.0, 0.75]
    values[field] = bad
    with pytest.raises(ValueError):
        SpectralLine(*values)
