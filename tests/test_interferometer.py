import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlispec.dispersion import (
    SellmeierModel,
    UniaxialCrystalIndex,
    uniaxial_index,
)
from nlispec.errors import ValidityRangeError
from nlispec.gas import GasState
from nlispec.interferometer import (
    InterferometerGeometry,
    MapAxes,
    check_beam_overlap,
    collinear_phase_matching_angle,
    crystal_phase_mismatch,
    detector_angle_axis,
    gap_mismatch,
    gap_response,
    idler_wavelength_nm,
    interference_intensity,
    simulate_map,
    with_gaussian_noise,
)
from nlispec.resources import data_path

from conftest import flat_gas

VACUUM = GasState.vacuum()


# ------------------------------------------------------ energy conservation

def test_idler_wavelength_frozen_values():
    assert idler_wavelength_nm(532.0, 607.11) == pytest.approx(
        4300.126747437095, rel=1e-12
    )
    assert idler_wavelength_nm(532.0, 607.1125265392782) == pytest.approx(
        4300.0, rel=1e-12
    )


@given(st.floats(300.0, 900.0), st.floats(1.0001, 50.0))
def test_idler_wavelength_conserves_energy(pump, ratio):
    signal = pump * ratio
    idler = idler_wavelength_nm(pump, signal)
    assert 1.0 / pump == pytest.approx(1.0 / signal + 1.0 / idler, rel=1e-12)


def test_idler_wavelength_validation():
    with pytest.raises(ValueError):
        idler_wavelength_nm(532.0, 500.0)  # signal bluer than pump
    with pytest.raises(ValueError):
        idler_wavelength_nm(-5.0, 600.0)


# ------------------------------------------------------ phases

def test_equal_index_crystal_is_collinearly_matched(const_geom):
    # with n identical for pump/signal/idler, energy conservation makes
    # the collinear mismatch vanish at every wavelength
    delta = crystal_phase_mismatch(const_geom, [580.0, 607.11, 650.0], [0.0])
    np.testing.assert_allclose(delta, 0.0, atol=1e-9)


def test_crystal_phase_grows_quadratically_with_angle(const_geom):
    # analytic curvature 2 pi L (lambda_s + lambda_i) / (n lambda_s^2)
    theta = np.array([0.0, 1e-3, 2e-3])
    delta = crystal_phase_mismatch(const_geom, 607.11, theta)[0]
    curv = 19012.071105347273
    assert delta[1] == pytest.approx(0.5 * curv * 1e-6, rel=1e-4)
    assert delta[2] == pytest.approx(0.5 * curv * 4e-6, rel=1e-4)
    assert np.all(np.diff(delta) > 0)  # mismatch increases off axis


def test_vacuum_gap_phase_zero_on_axis(const_geom):
    delta_m = gap_response(const_geom, VACUUM, [600.0, 607.11], [0.0])[0]
    np.testing.assert_allclose(delta_m, 0.0, atol=1e-9)


def test_vacuum_gap_phase_curvature(const_geom):
    delta_m = gap_response(const_geom, VACUUM, 607.11, [1e-3])[0][0, 0]
    assert delta_m == pytest.approx(0.5 * 2091327.8215882003 * 1e-6, rel=1e-4)


def test_gap_phase_flat_index_offset(const_geom):
    # an idler-band index change dn shifts the on-axis gap phase by
    # -2 pi dn L_m / lambda_i; frozen for dn=1e-5, L_m=25 mm, 4300 nm
    signal = 607.1125265392782  # idler lands exactly on 4300 nm
    gas = flat_gas(dn=1e-5)
    shift = (gap_response(const_geom, gas, signal, [0.0])[0]
             - gap_response(const_geom, VACUUM, signal, [0.0])[0])[0, 0]
    assert shift == pytest.approx(-0.36530147134765045, rel=1e-9)


def test_gap_amplitude_is_exponential_in_absorption(const_geom):
    gas = flat_gas(alpha=0.3)
    tau = gap_response(const_geom, gas, [607.11], [0.0])[1][0, 0]
    assert tau == pytest.approx(math.exp(-0.3 * 2.5), rel=1e-12)
    assert gap_response(const_geom, VACUUM, [607.11], [0.0])[1][0, 0] == 1.0


# ------------------------------------------------------ intensity law

def test_intensity_fringe_contrast_equals_tau():
    phase = np.linspace(0.0, 2 * math.pi, 10001)
    for tau in (1.0, 0.7, 0.2):
        intensity = interference_intensity(0.0, phase, tau)
        vis = (intensity.max() - intensity.min()) / (intensity.max()
                                                     + intensity.min())
        assert vis == pytest.approx(tau, rel=1e-6)


def test_intensity_bounds():
    delta = np.linspace(-20.0, 20.0, 101)[:, None]
    delta_m = np.linspace(0.0, 40.0, 101)[None, :]
    intensity = interference_intensity(delta, delta_m, 0.9)
    assert intensity.min() >= 0.0
    assert intensity.max() <= 1.0


def test_intensity_envelope_is_sinc_squared():
    delta = np.array([0.0, 1.0, math.pi, 2.0 * math.pi])
    intensity = interference_intensity(delta, -delta, 1.0)  # cos term = 1
    expected = (np.sin(delta / 2) / np.where(delta == 0, 1.0, delta / 2)) ** 2
    expected[0] = 1.0
    np.testing.assert_allclose(intensity, expected, rtol=1e-12)


# ------------------------------------------------------ maps

def test_simulated_map_shape_and_symmetry(const_geom, small_axes):
    intensity = simulate_map(const_geom, VACUUM, small_axes)
    assert intensity.shape == small_axes.shape
    # q enters squared, so a symmetric angle axis gives a symmetric map
    np.testing.assert_allclose(intensity, intensity[:, ::-1], rtol=1e-9)
    assert intensity.min() >= 0.0 and intensity.max() <= 1.0


def test_simulated_map_has_fringes(const_geom, small_axes):
    intensity = simulate_map(const_geom, VACUUM, small_axes)
    row = intensity[2]
    # curvature predicts ~7.4 full fringes between axis and edge
    interior = row[1:-1]
    n_max = int(np.sum((interior > row[:-2]) & (interior > row[2:])))
    assert 10 <= n_max <= 18  # both wings together


def test_absorbing_gas_lowers_contrast_not_mean(const_geom, small_axes):
    clear = simulate_map(const_geom, VACUUM, small_axes)
    foggy = simulate_map(const_geom, flat_gas(alpha=0.5), small_axes)
    assert foggy.std() < clear.std()
    assert np.ptp(foggy) < np.ptp(clear)


def test_map_axes_validation():
    with pytest.raises(ValueError):
        MapAxes(np.array([600.0, 599.0]), np.array([0.0, 1e-3]))
    with pytest.raises(ValueError):
        MapAxes(np.array([600.0, 601.0]), np.array([1e-3, 1e-3]))
    with pytest.raises(ValueError):
        MapAxes(np.array([[600.0]]), np.array([0.0]))
    a = MapAxes(np.array([600.0, 601.0]), np.array([-1e-3, 1e-3]))
    b = MapAxes(np.array([600.0, 601.0]), np.array([-1e-3, 1e-3]))
    c = MapAxes(np.array([600.0, 602.0]), np.array([-1e-3, 1e-3]))
    assert a.close_to(b)
    assert not a.close_to(c)


@pytest.mark.parametrize("lam, ang", [
    ([600.0, np.nan, 610.0], [0.0, 1e-3]),
    ([np.nan], [0.0, 1e-3]),
    ([600.0, 610.0], [0.0, np.nan]),
    ([600.0, 610.0], [np.nan]),
    ([600.0, 610.0], [0.0, np.inf]),
], ids=["wavelength_middle", "wavelength_only", "angle_last", "angle_only",
        "angle_inf"])
def test_map_axes_reject_non_finite(lam, ang):
    with pytest.raises(ValueError):
        MapAxes(np.array(lam), np.array(ang))


def test_detector_angle_axis():
    ax = detector_angle_axis(1024, 13.0, 500.0)
    assert ax.size == 1024
    assert ax[1] - ax[0] == pytest.approx(2.6e-5, rel=1e-12)
    assert ax.sum() == pytest.approx(0.0, abs=1e-12)
    odd = detector_angle_axis(5, 13.0, 500.0)
    assert odd[2] == 0.0
    with pytest.raises(ValueError):
        detector_angle_axis(0, 13.0, 500.0)


def test_beam_overlap_check(const_geom, small_axes):
    walk = check_beam_overlap(const_geom, small_axes)
    lam_i = idler_wavelength_nm(532.0, small_axes.wavelength_nm)
    expect = 2.5 * math.tan((lam_i / small_axes.wavelength_nm).max() * 6.656e-3)
    assert walk == pytest.approx(expect, rel=1e-9)
    tight = InterferometerGeometry(
        crystal=const_geom.crystal, crystal_length_cm=0.05,
        gap_length_cm=2.5, pump_wavelength_nm=532.0, aperture_cm=0.05,
    )
    with pytest.raises(ValueError, match="aperture"):
        simulate_map(tight, VACUUM, small_axes)


def test_steep_angle_rejected(const_geom):
    # sin(theta) > lambda_s / lambda_i makes the gap idler evanescent
    with pytest.raises(ValueError, match="steep"):
        gap_response(const_geom, VACUUM, 607.11, [0.2])


def test_gap_mismatch_out_of_float_range_rejected(const_geom):
    # a visible index of 1e300 overflows k^2 in the gap: an input error
    # (exit 2), not a NaN fit template
    with np.errstate(over="ignore"), \
            pytest.raises(ValidityRangeError, match="floating-point range"):
        gap_mismatch(const_geom, 1e300, 1e300, [607.11], [0.0, 1e-3])


def test_gap_phase_is_the_gap_mismatch_of_the_gas(const_geom):
    lam, theta = np.array([604.0, 607.11, 611.0]), np.linspace(-5e-3, 5e-3, 9)
    gas = flat_gas(dn=2e-5, alpha=0.3)
    lam_i = idler_wavelength_nm(const_geom.pump_wavelength_nm, lam)
    assert np.array_equal(
        gap_response(const_geom, gas, lam, theta)[0],
        gap_mismatch(const_geom, gas.visible_index(),
                     gas.idler_index_at(lam_i), lam, theta))


def test_noise_helper():
    rng = np.random.default_rng(11)
    base = np.zeros((4, 4))
    noisy = with_gaussian_noise(base, 0.01, rng)
    assert noisy.std() > 0
    same = with_gaussian_noise(base, 0.0, rng)
    assert np.all(same == 0.0)
    assert same is not base
    with pytest.raises(ValueError):
        with_gaussian_noise(base, -0.1, rng)
    # the draw is added into its own array: the same bits, input untouched
    base = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    kept = base.copy()
    noisy = with_gaussian_noise(base, 0.01, np.random.default_rng(4))
    draw = np.random.default_rng(4).normal(0.0, 0.01, size=base.shape)
    assert np.array_equal(noisy, base + draw)
    assert np.array_equal(base, kept)


# ------------------------------------------------------ phase matching

@pytest.fixture(scope="module")
def zelmon_crystal():
    from nlispec.dispersion import load_uniaxial_crystal
    return load_uniaxial_crystal(data_path("mgo_linbo3_zelmon.nlc"),
                                 math.radians(50.0))


def test_phase_matching_angle_frozen(zelmon_crystal):
    angle = collinear_phase_matching_angle(zelmon_crystal, 532.0, 607.11)
    assert math.degrees(angle) == pytest.approx(47.349501087286484, abs=1e-6)


def test_phase_matching_angle_nulls_mismatch(zelmon_crystal):
    angle = collinear_phase_matching_angle(zelmon_crystal, 532.0, 607.11)
    geom = InterferometerGeometry(
        crystal=zelmon_crystal, crystal_length_cm=0.05, gap_length_cm=2.5,
        pump_wavelength_nm=532.0, pump_axis_angle_rad=angle,
    )
    delta = crystal_phase_mismatch(geom, 607.11, [0.0])[0, 0]
    assert abs(delta) < 1e-6


def test_phase_matching_angle_unreachable():
    m_o = SellmeierModel.constant(2.0, valid_um=(0.3, 30.0))
    m_e = SellmeierModel.constant(1.9, valid_um=(0.3, 30.0))
    crystal = UniaxialCrystalIndex(m_o, m_e, cut_angle_rad=math.pi / 4)
    with pytest.raises(ValueError, match="no pump angle"):
        collinear_phase_matching_angle(crystal, 532.0, 607.11)


def test_phase_matching_angle_matches_brentq(zelmon_crystal):
    from scipy.optimize import brentq
    # below ~595.4 nm the idler leaves the 0.45-5 um Sellmeier range
    for signal_nm in np.linspace(596.0, 660.0, 33):
        idler_nm = idler_wavelength_nm(532.0, signal_nm)
        target = 532.0 * (
            zelmon_crystal.n_ordinary(signal_nm * 1e-3) / signal_nm
            + zelmon_crystal.n_ordinary(idler_nm * 1e-3) / idler_nm)
        root = brentq(
            lambda a: uniaxial_index(zelmon_crystal, 0.532, a) - target,
            1e-6, math.pi / 2, xtol=1e-14)
        angle = collinear_phase_matching_angle(zelmon_crystal, 532.0,
                                               signal_nm)
        assert abs(angle - root) < 1e-12


def test_phase_matching_angle_isotropic_crystal():
    m = SellmeierModel.constant(2.0, valid_um=(0.3, 30.0))
    crystal = UniaxialCrystalIndex(m, m, cut_angle_rad=math.pi / 4)
    with pytest.raises(ValidityRangeError, match="no pump angle"):
        collinear_phase_matching_angle(crystal, 532.0, 607.11)


def test_geometry_validation(const_crystal):
    with pytest.raises(ValueError):
        InterferometerGeometry(const_crystal, -0.05, 2.5, 532.0)
    with pytest.raises(ValueError):
        InterferometerGeometry(const_crystal, 0.05, 2.5, 532.0,
                               pump_axis_angle_rad=2.0)
    geom = InterferometerGeometry(const_crystal, 0.05, 2.5, 532.0)
    assert geom.pump_angle == const_crystal.cut_angle_rad
    assert geom.pump_index() == pytest.approx(2.2, rel=1e-12)


# ------------------------------------------- independent forward renderer

def _oracle_intensity(geom, gas, axes, nodes=64):
    """The two-crystal map from first principles, sharing no code with
    `simulate_map`'s phase and amplitude terms.

    Each crystal's pair amplitude S = int_0^L exp(i dk z) dz is a
    Gauss-Legendre sum, and I = (|S1|^2 + |S2|^2 + 2 Re(conj(S1) S2 t))
    / 4L^2.  Crystal 2's pairs lag crystal 1's by the crystal and the
    gap: the idler crosses the gap with k_iz = sqrt(k_i^2 - q^2),
    k_i = 2 pi nu (n + i kappa), kappa = alpha / (4 pi nu), so
    |t| = exp(-Im k_iz L_m).
    """
    two_pi = 2.0 * math.pi
    lam_p = geom.pump_wavelength_nm * 1e-7                 # cm
    lam_s = axes.wavelength_nm[:, None] * 1e-7
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    q = two_pi / lam_s * np.sin(axes.angle_rad)

    def k_z(k):
        return np.sqrt(k * k - q * q)

    n_o = geom.crystal.n_ordinary
    dk = (two_pi * geom.pump_index() / lam_p
          - k_z(two_pi * n_o(lam_s * 1e4) / lam_s)
          - k_z(two_pi * n_o(lam_i * 1e4) / lam_i))
    length = geom.crystal_length_cm
    u, w = np.polynomial.legendre.leggauss(nodes)
    z = 0.5 * length * (u + 1.0)
    s1 = 0.5 * length * sum(wj * np.exp(1j * dk * zj) for wj, zj in zip(w, z))
    s2 = s1                                          # identical crystals

    n_vis = gas.visible_index()
    nu_i = 1.0 / lam_i
    kappa = gas.idler_absorption_at(lam_i * 1e7) / (2.0 * two_pi * nu_i)
    k_iz = k_z(two_pi * nu_i * (gas.idler_index_at(lam_i * 1e7) + 1j * kappa))
    gap = (two_pi * n_vis / lam_p - k_z(two_pi * n_vis / lam_s)
           - k_iz.real) * geom.gap_length_cm
    t = (np.exp(1j * (dk * length + gap))
         * np.exp(-k_iz.imag * geom.gap_length_cm))
    return ((abs(s1) ** 2 + abs(s2) ** 2 + 2.0 * (s1.conj() * s2 * t).real)
            / (4.0 * length ** 2))


@pytest.mark.parametrize("pressure", [
    "vacuum",
    pytest.param("10.5 Torr", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 12")),
])
def test_simulate_map_matches_an_independent_renderer(pressure):
    from nlispec.config import (build_axes, build_gas, build_geometry,
                                build_vacuum, load_run_config)

    cfg = load_run_config(data_path("co2_demo.cfg"))
    geom = build_geometry(cfg)
    demo = build_axes(cfg)
    axes = MapAxes(demo.wavelength_nm[::4], demo.angle_rad[::8])
    gas = build_vacuum(cfg) if pressure == "vacuum" else build_gas(cfg)
    got = simulate_map(geom, gas, axes)
    want = _oracle_intensity(geom, gas, axes)
    assert got.shape == (128, 80)
    assert np.abs(got - want).max() <= 1e-10 * want.max()
