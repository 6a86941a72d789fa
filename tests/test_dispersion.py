import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlispec.dispersion import (
    GasIndexModel,
    SellmeierModel,
    UniaxialCrystalIndex,
    gas_index,
    load_crystal_file,
    load_uniaxial_crystal,
    uniaxial_index,
    wavevector,
)
from nlispec.errors import ConfigError, ValidityRangeError
from nlispec.resources import data_path


# ---------------------------------------------------------------- Sellmeier

def test_constant_model_is_flat():
    m = SellmeierModel.constant(2.2, valid_um=(0.4, 5.0))
    assert m.index(0.5) == pytest.approx(2.2, rel=1e-15)
    assert m.index(4.9) == pytest.approx(2.2, rel=1e-15)


def test_ratio_form_matches_direct_arithmetic():
    m = SellmeierModel("sellmeier-ratio", 1.0, ((2.5, 0.01),), valid_um=(0.3, 2.0))
    lam = 0.8
    expected = math.sqrt(1.0 + 2.5 * lam**2 / (lam**2 - 0.01))
    assert m.index(lam) == pytest.approx(expected, rel=1e-15)


def test_poles_form_matches_direct_arithmetic():
    m = SellmeierModel(
        "sellmeier-poles", 4.0, ((0.1, 0.04),), lambda2_coeff=-0.01,
        valid_um=(0.5, 4.0),
    )
    lam = 1.5
    expected = math.sqrt(4.0 + 0.1 / (lam**2 - 0.04) - 0.01 * lam**2)
    assert m.index(lam) == pytest.approx(expected, rel=1e-15)


def test_index_accepts_arrays():
    m = SellmeierModel.constant(1.5, valid_um=(0.1, 10.0))
    lam = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(m.index(lam), 1.5)


def test_out_of_range_raises():
    m = SellmeierModel.constant(2.0, valid_um=(0.45, 5.0))
    with pytest.raises(ValidityRangeError):
        m.index(0.40)
    with pytest.raises(ValidityRangeError):
        m.index(5.2)
    with pytest.raises(ValidityRangeError):
        m.index(np.array([1.0, 6.0]))


def test_nan_wavelength_is_outside_the_range():
    m = SellmeierModel.constant(2.0, valid_um=(0.45, 5.0))
    with pytest.raises(ValidityRangeError, match="nan-nan um outside"):
        m.check_range(math.nan)
    with pytest.raises(ValidityRangeError):
        m.check_range(np.array([1.0, math.nan]))


def test_unphysical_index_raises():
    m = SellmeierModel("sellmeier-ratio", 0.5, (), valid_um=(0.4, 2.0))
    with pytest.raises(ValidityRangeError):
        m.index(1.0)


def test_bad_form_rejected():
    with pytest.raises(ValueError):
        SellmeierModel("cauchy", 1.0, ())
    with pytest.raises(ValueError):
        SellmeierModel("sellmeier-ratio", 1.0, (), lambda2_coeff=0.1)


# ---------------------------------------------------------------- uniaxial

def _crystal(n_o, n_e, cut=math.pi / 4):
    return UniaxialCrystalIndex(
        SellmeierModel.constant(n_o), SellmeierModel.constant(n_e), cut
    )


def test_uniaxial_limits():
    c = _crystal(2.2, 2.1)
    assert uniaxial_index(c, 1.0, 0.0) == pytest.approx(2.2, rel=1e-14)
    assert uniaxial_index(c, 1.0, math.pi / 2) == pytest.approx(2.1, rel=1e-14)


def test_uniaxial_midpoint_value():
    # 1/n^2 = cos^2/2.2^2 + sin^2/2.1^2 at 45 degrees
    c = _crystal(2.2, 2.1)
    assert uniaxial_index(c, 1.0, math.pi / 4) == pytest.approx(
        2.1482563639857806, rel=1e-12
    )


@given(
    st.floats(1.5, 3.0),
    st.floats(1.5, 3.0),
    st.floats(0.0, math.pi / 2),
)
def test_uniaxial_bounded_by_principal_indices(n_o, n_e, theta):
    c = _crystal(n_o, n_e)
    n = uniaxial_index(c, 1.0, theta)
    lo, hi = min(n_o, n_e), max(n_o, n_e)
    assert lo - 1e-12 <= n <= hi + 1e-12


def test_cut_angle_validated():
    with pytest.raises(ValueError):
        _crystal(2.2, 2.1, cut=0.0)
    with pytest.raises(ValueError):
        _crystal(2.2, 2.1, cut=math.pi / 2 + 0.01)


# ---------------------------------------------------------------- gas index

def test_gas_index_reference_point():
    m = GasIndexModel(n0=1.000410, p0_torr=760.0, t0_k=273.15)
    assert gas_index(m, 760.0, 273.15) == pytest.approx(1.000410, abs=1e-15)


def test_gas_index_frozen_value():
    # hand-computed: 10.5 * 410e-6 / (760 * (1 + 26.85/273.15))
    m = GasIndexModel(n0=1.000410, p0_torr=760.0, t0_k=273.15)
    n = gas_index(m, 10.5, 300.0)
    assert n - 1.0 == pytest.approx(5.157503289473954e-06, rel=1e-12)


def test_gas_index_zero_pressure_is_exactly_vacuum():
    m = GasIndexModel(n0=1.000449)
    assert gas_index(m, 0.0, 300.0) == 1.0
    assert gas_index(None, 123.0, 300.0) == 1.0


@given(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0), st.floats(150.0, 500.0))
def test_gas_index_affine_in_pressure(p1, p2, t):
    m = GasIndexModel(n0=1.0003)
    lhs = gas_index(m, p1 + p2, t) - 1.0
    rhs = (gas_index(m, p1, t) - 1.0) + (gas_index(m, p2, t) - 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-15)


def test_gas_index_decreases_with_temperature():
    m = GasIndexModel(n0=1.000449)
    assert gas_index(m, 100.0, 350.0) < gas_index(m, 100.0, 250.0)


def test_gas_index_rejects_bad_inputs():
    m = GasIndexModel(n0=1.000449)
    with pytest.raises(ValueError):
        gas_index(m, -1.0, 300.0)
    with pytest.raises(ValueError):
        gas_index(m, 10.0, 0.0)
    with pytest.raises(ValueError):
        GasIndexModel(n0=0.9996)


# ---------------------------------------------------------------- wavevector

def test_wavevector_vacuum_532nm():
    assert wavevector(1.0, 532e-9) == pytest.approx(11810498.697705988, rel=1e-12)


def test_wavevector_scaling():
    assert wavevector(1.5, 1.0) == pytest.approx(3.0 * wavevector(1.0, 2.0), rel=1e-14)


def test_wavevector_rejects_bad_inputs():
    with pytest.raises(ValueError):
        wavevector(-0.2, 1.0)
    with pytest.raises(ValueError):
        wavevector(1.0, 0.0)


# ---------------------------------------------------------------- data files

def test_shipped_files_load_and_agree():
    # two independent fits of the same crystal: transcription cross-check
    zel = load_crystal_file(data_path("mgo_linbo3_zelmon.nlc"))
    gay = load_crystal_file(data_path("mgo_linbo3_gayer.nlc"))
    for lam in (0.532, 0.60711, 1.064, 2.0, 4.0):
        for axis in ("ordinary", "extraordinary"):
            assert zel[axis].index(lam) == pytest.approx(
                gay[axis].index(lam), abs=2e-3
            ), (lam, axis)


def test_shipped_file_frozen_values():
    zel = load_crystal_file(data_path("mgo_linbo3_zelmon.nlc"))
    assert zel["ordinary"].index(1.064) == pytest.approx(2.228837, abs=1e-6)
    assert zel["extraordinary"].index(1.064) == pytest.approx(2.147370, abs=1e-6)
    gay = load_crystal_file(data_path("mgo_linbo3_gayer.nlc"))
    assert gay["ordinary"].index(1.064) == pytest.approx(2.229571, abs=1e-6)


def test_shipped_files_enforce_validity():
    zel = load_crystal_file(data_path("mgo_linbo3_zelmon.nlc"))
    with pytest.raises(ValidityRangeError):
        zel["ordinary"].index(0.40)
    gay = load_crystal_file(data_path("mgo_linbo3_gayer.nlc"))
    with pytest.raises(ValidityRangeError):
        gay["ordinary"].index(4.5)


def test_load_uniaxial_crystal():
    c = load_uniaxial_crystal(data_path("mgo_linbo3_zelmon.nlc"), math.radians(50))
    assert c.cut_angle_rad == pytest.approx(math.radians(50))
    assert c.n_ordinary(0.607) > c.n_extraordinary(0.607)  # negative uniaxial


@pytest.mark.parametrize(
    "body",
    [
        "[ordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\nvalid_um = 0.4, 2\n",
        "[ordinary]\nform = nope\nvalid_um = 0.4, 2\n[extraordinary]\nform = sellmeier-ratio\na0=1\npole1=2.5,0.01\nvalid_um = 0.4, 2\n",
        "[ordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\nbogus = 3\nvalid_um = 0.4, 2\n"
        "[extraordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\nvalid_um = 0.4, 2\n",
        "[ordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\n"
        "[extraordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\nvalid_um = 0.4, 2\n",
        "[ordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5\nvalid_um = 0.4, 2\n"
        "[extraordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\nvalid_um = 0.4, 2\n",
        "[ordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\nvalid_um = 0.4, 2\n"
        "[extraordinary]\nform = sellmeier-ratio\na0 = 1\npole1 = 2.5, 0.01\nvalid_um = 0.4, 2\n"
        "[thermal]\ndn_dt = 1e-5\n",
    ],
    ids=["missing-section", "bad-form", "unknown-key", "missing-valid", "bad-pair",
         "unknown-section"],
)
def test_malformed_coefficient_files_rejected(tmp_path, body):
    # ConfigError is the CLI's exit 2; each message names the file
    p = tmp_path / "bad.nlc"
    p.write_text(body, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(p))}"):
        load_crystal_file(p)
