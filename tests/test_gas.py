import dataclasses
import math

import numpy as np
import pytest

from nlispec.dispersion import GasIndexModel, gas_index
from nlispec.errors import ValidityRangeError
from nlispec.gas import GasState
from nlispec.interferometer import nu_cm_from_lambda_nm
from nlispec.kk import index_change_from_absorption
from nlispec.lineshape import SpectralLine, absorption_coefficient

VIS = GasIndexModel(n0=1.000449, p0_torr=760.0, t0_k=273.15)
# broad synthetic line (exaggerated pressure broadening) so coarse grids
# resolve it
BROAD = SpectralLine(nu0_cm=2349.0, strength=2e-19, gamma_air=95.0,
                     gamma_self=145.0, elow_cm=200.0, n_air=0.75)
# BROAD's centre +- 100 cm^-1 at 0.05 cm^-1, finer than its line_grid_step
GRID = np.linspace(2249.0, 2449.0, 4001)


def test_wavelength_wavenumber_round_trip():
    assert nu_cm_from_lambda_nm(4300.0) == pytest.approx(2325.5813953488, rel=1e-12)
    lam = np.array([532.0, 607.11, 4300.0])
    np.testing.assert_allclose(nu_cm_from_lambda_nm(nu_cm_from_lambda_nm(lam)), lam,
                               rtol=1e-14)
    with pytest.raises(ValueError):
        nu_cm_from_lambda_nm(0.0)


def test_vacuum_state():
    vac = GasState.vacuum()
    assert vac.visible_index() == 1.0
    assert vac.idler_absorption_at(4300.0) == 0.0
    assert vac.idler_index_at(np.array([4000.0, 4600.0])).tolist() == [1.0, 1.0]


def test_flat_gas_without_lines():
    gs = GasState(p_torr=100.0, t_k=300.0, visible=VIS)
    expected = gas_index(VIS, 100.0, 300.0)
    assert gs.visible_index() == pytest.approx(expected, rel=1e-15)
    assert gs.idler_index_at(4300.0) == pytest.approx(expected, rel=1e-15)
    assert gs.idler_absorption_at(4300.0) == 0.0


def test_from_lines_alpha_matches_lineshape_module():
    gs = GasState.from_lines([BROAD], 10.5, 300.0, 44.01, visible=VIS,
                             nu_grid_cm=GRID)
    direct = absorption_coefficient([BROAD], gs.idler_nu_cm, 10.5, 300.0, 44.01)
    np.testing.assert_allclose(gs.idler_alpha_cm, direct, rtol=1e-14)
    assert gs.idler_alpha_cm.max() > 0


def test_from_lines_index_is_kk_of_alpha():
    gs = GasState.from_lines([BROAD], 10.5, 300.0, 44.01, visible=VIS,
                             nu_grid_cm=GRID)
    base = gas_index(VIS, 10.5, 300.0) - 1.0
    expected = 1.0 + index_change_from_absorption(gs.idler_alpha_cm,
                                                  gs.idler_nu_cm, baseline=base)
    np.testing.assert_allclose(gs.idler_index, expected, rtol=1e-14)


def test_from_lines_dispersion_shape():
    # collision-dominated line: alpha is near-Lorentzian, so the index
    # change should follow the analytic dispersive companion
    gs = GasState.from_lines([BROAD], 10.5, 300.0, 44.01, nu_grid_cm=GRID,
                             wing_cutoff_cm=100.0)
    gl = (10.5 / 760.0) * (296.0 / 300.0) ** 0.75 * 145.0
    a0 = gs.idler_alpha_cm.max()
    dn = gs.idler_index - 1.0
    d = gs.idler_nu_cm - 2349.0
    analytic = -(a0 * gl / (4 * math.pi * 2349.0)) * d / (d**2 + gl**2)
    scale = a0 / (8 * math.pi * 2349.0)
    sel = np.abs(d) <= 5 * gl
    assert np.abs(dn[sel] - analytic[sel]).max() <= 2e-2 * scale


def test_idler_queries_interpolate_between_nodes():
    nu = np.linspace(2300.0, 2400.0, 101)
    alpha = 0.001 * (nu - 2300.0)  # linear, so interp is exact
    gs = GasState(p_torr=10.0, t_k=300.0, idler_nu_cm=nu, idler_alpha_cm=alpha,
                  idler_index=np.ones_like(nu))
    lam = nu_cm_from_lambda_nm(2350.5)
    assert gs.idler_absorption_at(lam) == pytest.approx(0.001 * 50.5, rel=1e-12)


def test_idler_queries_refuse_extrapolation():
    gs = GasState.from_lines([BROAD], 10.5, 300.0, 44.01, nu_grid_cm=GRID)
    lo = gs.idler_nu_cm[0]
    lam_out = nu_cm_from_lambda_nm(lo - 1.0)
    with pytest.raises(ValidityRangeError):
        gs.idler_absorption_at(lam_out)
    with pytest.raises(ValidityRangeError):
        gs.idler_index_at(lam_out)


def test_baseline_defaults_to_visible_offset():
    gs = GasState.from_lines([BROAD], 10.5, 300.0, 44.01, visible=VIS,
                             nu_grid_cm=GRID, wing_cutoff_cm=50.0)
    base = gas_index(VIS, 10.5, 300.0) - 1.0
    # at the window edge the resonant contribution is small
    edge = gs.idler_index[0] - 1.0
    assert edge == pytest.approx(base, abs=0.3 * abs(base))


def test_state_validation():
    with pytest.raises(ValueError):
        GasState(p_torr=-1.0, t_k=300.0)
    with pytest.raises(ValueError):
        GasState(p_torr=1.0, t_k=0.0)
    nu = np.linspace(2300.0, 2400.0, 11)
    with pytest.raises(ValueError):
        GasState(p_torr=1.0, t_k=300.0, idler_nu_cm=nu)
    with pytest.raises(ValueError):
        GasState(p_torr=1.0, t_k=300.0, idler_nu_cm=nu,
                 idler_alpha_cm=np.zeros(11), idler_index=np.ones(5))
    with pytest.raises(ValueError):
        GasState.from_lines([], 10.0, 300.0, 44.01, nu_grid_cm=GRID)


@pytest.mark.parametrize("edit, t_k, cause", [
    ({"n_air": 2000.0}, 200.0, "a Lorentz width"),
    ({"elow_cm": 2e7}, 300.0, "a line strength times the density"),
    # every factor is finite, the narrow line's S N phi is not
    ({"strength": 1e290, "gamma_air": 0.07, "gamma_self": 0.1}, 296.0,
     "the sum of the lines"),
], ids=["width", "strength", "sum"])
def test_from_lines_names_the_quantity_that_overflows(edit, t_k, cause):
    line = dataclasses.replace(BROAD, **edit)
    nu = np.linspace(1500.0, 3200.0, 1701)
    message = f"^absorption overflows: {cause} is out of range$"
    with np.errstate(all="ignore"):
        with pytest.raises(ValidityRangeError, match=message):
            GasState.from_lines([line], 10.5, t_k, 44.0, nu_grid_cm=nu)
        with pytest.raises(ValidityRangeError, match=message):
            absorption_coefficient([line], nu, 10.5, t_k, 44.0)


def test_strength_overflow_outside_the_grid_builds():
    # the line's window misses the grid, so its overflow adds nothing
    far = dataclasses.replace(BROAD, nu0_cm=3000.0, elow_cm=2e7)
    nu = np.linspace(2300.0, 2400.0, 1001)
    with np.errstate(all="ignore"):
        gs = GasState.from_lines([BROAD, far], 10.5, 300.0, 44.0,
                                 nu_grid_cm=nu, wing_cutoff_cm=25.0)
        alone = GasState.from_lines([BROAD], 10.5, 300.0, 44.0,
                                    nu_grid_cm=nu, wing_cutoff_cm=25.0)
    assert np.array_equal(gs.idler_alpha_cm, alone.idler_alpha_cm)
