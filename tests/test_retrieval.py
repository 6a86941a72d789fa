import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from nlispec.errors import AxisMismatchError
from nlispec.interferometer import MapAxes, simulate_map, with_gaussian_noise
from nlispec.mapio import IntensityMap, save_map
from nlispec.retrieval import (
    _project,
    absorption_from_visibility,
    fit_rows_extrema,
    fit_rows_model,
    index_offset_from_phase,
    refine_extrema,
    retrieve,
)

from conftest import flat_gas


# ------------------------------------------------------------ inversions

def test_absorption_visibility_round_trip():
    alpha = absorption_from_visibility(math.exp(-0.45 * 2.5), 2.5)
    assert alpha == pytest.approx(0.45, rel=1e-12)


def test_absorption_negative_policies():
    # V > 1 keeps its negative absorption; only V <= 0 is rejected
    kept = absorption_from_visibility(1.02, 2.5)
    assert kept == pytest.approx(-math.log(1.02) / 2.5, rel=1e-12)
    with pytest.raises(ValueError):
        absorption_from_visibility(-0.1, 2.5)


def test_index_offset_from_phase_frozen():
    # inverse of the -2 pi dn L / lambda fringe-shift law
    dn = index_offset_from_phase(-0.36530147134765045, 4300.0, 2.5)
    assert dn == pytest.approx(1e-5, rel=1e-12)
    assert index_offset_from_phase(0.0, 4300.0, 2.5) == 0.0


def test_inverses_propagate_standard_errors_to_first_order():
    # sigma_out = |d out / d in| sigma_in, per row
    v = np.array([math.exp(-0.45 * 2.5), 0.7, 1.02])
    dphi, lam = np.array([-0.36, 0.0, 0.2]), np.array([4300.0, 4310.0, 4320.0])
    s_in, eps = np.array([1e-3, 2e-4, 0.0]), 1e-7
    for invert, x, args in ((absorption_from_visibility, v, (2.5,)),
                            (index_offset_from_phase, dphi, (lam, 2.5))):
        out, sigma = invert(x, *args, s_in)
        np.testing.assert_array_equal(out, invert(x, *args))
        slope = (invert(x + eps, *args) - invert(x - eps, *args)) / (2 * eps)
        np.testing.assert_allclose(sigma, np.abs(slope) * s_in, rtol=1e-6)
    alpha, sigma = absorption_from_visibility(0.7, 2.5, 1e-3)
    assert isinstance(alpha, float) and sigma == 1e-3 / (0.7 * 2.5)


# ------------------------------------------------------------ row fits

def _synthetic_row(amp, tau, dphi, n=257):
    theta = np.linspace(-1.0, 1.0, n)
    phase = 12.0 * theta**2 + 0.3  # plausible quadratic fringe phase
    envelope = np.sinc(0.3 * theta) ** 2
    row = amp * envelope * (1.0 + tau * np.cos(phase + dphi))
    return row, envelope, phase


def test_fit_row_model_exact_on_model_rows():
    row, envelope, phase = _synthetic_row(3.7, 0.62, 0.21)
    est = fit_rows_model(row, envelope, phase)
    assert est.amplitude[0] == pytest.approx(3.7, rel=1e-9)
    assert est.contrast[0] == pytest.approx(0.62, rel=1e-9)
    assert est.phase_rad[0] == pytest.approx(0.21, abs=1e-9)


def test_fit_row_model_linear_stage_alone():
    row, envelope, phase = _synthetic_row(1.0, 0.4, -0.5)
    est = fit_rows_model(row, envelope, phase, polish=False)
    assert est.contrast[0] == pytest.approx(0.4, rel=1e-9)
    assert est.phase_rad[0] == pytest.approx(-0.5, abs=1e-9)
    assert math.isnan(est.sigma_contrast[0])


def test_fit_row_model_rejects_dark_row():
    # a dark row is NaN in every field; its neighbour is fitted as usual
    row, envelope, phase = _synthetic_row(1.0, 0.5, 0.3)
    est = fit_rows_model(np.vstack((-np.ones_like(row), row)), envelope,
                         phase)
    dark = [getattr(est, f)[0] for f in ("amplitude", "contrast",
                                         "phase_rad", "sigma_contrast",
                                         "sigma_phase")]
    assert all(math.isnan(v) for v in dark)
    assert est.contrast[1] == pytest.approx(0.5, rel=1e-9)
    assert est.phase_rad[1] == pytest.approx(0.3, abs=1e-9)


def test_fit_rows_model_skips_a_row_without_envelope():
    # an envelope that is zero at every angle leaves nothing to project
    # (a singular Gram matrix); the row is NaN, its neighbour is fitted
    row, envelope, phase = _synthetic_row(1.0, 0.5, 0.3)
    for polish in (True, False):
        est = fit_rows_model(np.vstack((row, row)),
                             np.vstack((np.zeros_like(envelope), envelope)),
                             phase, polish=polish)
        assert all(math.isnan(field[0]) for field in est)
        assert est.contrast[1] == pytest.approx(0.5, rel=1e-9)
        assert est.phase_rad[1] == pytest.approx(0.3, abs=1e-9)


def test_fit_rows_model_nan_on_a_row_with_a_singular_gram():
    # an envelope lit at two angles gives three columns of rank two: the
    # row is NaN in every field, without a warning, and its neighbour is
    # fitted as usual
    row, envelope, phase = _synthetic_row(1.0, 0.5, 0.3)
    two = np.where(np.isin(np.arange(row.size), (40, 200)), envelope, 0.0)
    for polish in (True, False):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fit_rows_model(np.vstack((row, row)),
                                 np.vstack((two, envelope)), phase,
                                 polish=polish)
        assert all(math.isnan(field[0]) for field in est)
        assert est.contrast[1] == pytest.approx(0.5, rel=1e-9)


def _narrow_envelope_design():
    """A (3 x 640) design on a Gaussian envelope 3% of the angle span
    wide, over which the fringe phase barely moves: cond(Gram) ~ 1e8,
    and a fringe row on it."""
    theta = np.linspace(-1.0, 1.0, 640)
    env = np.exp(-(theta / 0.03) ** 2)
    phi = 40.0 * theta**2 + 0.3
    return np.stack((env, env * np.cos(phi), env * np.sin(phi))), \
        env * (1.0 + 0.5 * np.cos(phi + 0.2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_matches_lstsq_and_inv(seed):
    # the closed-form kernel against LAPACK, row by row: 29 random rows
    # to 1e-12 of the row's largest coefficient and inverse-Gram
    # diagonal entry (measured <= 9e-15), one narrow-envelope row with
    # cond(Gram) >= 1e8 to 1e-7 and 1e-9 (measured <= 2.1e-8 and
    # 1.1e-10, as LU on the same Gram matrix), and two rows whose Gram
    # matrix is exactly singular, which are NaN
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((32, 3, 640))
    rows = rng.standard_normal((32, 640))
    narrow, singular = 5, (9, 20)
    design[narrow], rows[narrow] = _narrow_envelope_design()
    rows[narrow] += rng.normal(0.0, 1e-3, 640)
    design[9, 2] = design[9, 0]                   # rank two
    design[20] = design[20, :1] * [[1.0], [-0.5], [2.0]]   # rank one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef, inverse, rss = _project(rows, design)
    assert coef.shape == (3, 32) and inverse.shape == (3, 3, 32)
    for r in range(32):
        if r in singular:
            assert np.isnan(coef[:, r]).all() and np.isnan(rss[r])
            assert np.isnan(inverse[..., r]).all()
            continue
        gram = np.einsum("im,jm->ij", design[r], design[r])
        ref, ref_rss = np.linalg.lstsq(design[r].T, rows[r], rcond=None)[:2]
        ref_var = np.diag(np.linalg.inv(gram))
        tol_coef, tol_var = (1e-7, 1e-9) if r == narrow else (1e-12, 1e-12)
        if r == narrow:
            assert np.linalg.cond(gram) >= 1e8
        assert np.abs(coef[:, r] - ref).max() <= tol_coef * np.abs(ref).max()
        assert np.abs(np.diag(inverse[..., r]) - ref_var).max() \
            <= tol_var * ref_var.max()
        np.testing.assert_array_equal(inverse[..., r], inverse[..., r].T)
        assert rss[r] == pytest.approx(ref_rss[0], rel=1e-11)


def test_fit_rows_model_agrees_with_scipy_lm():
    # noisy rows with off-axis steepening: same optimum as MINPACK, and
    # sigmas from J^T J at that optimum scaled by cost / dof
    rng = np.random.default_rng(42)
    theta = np.linspace(-1.0, 1.0, 257)
    phase = 12.0 * theta**2 + 0.3
    envelope = np.sinc(0.3 * theta) ** 2
    steepening = 1.0 / np.sqrt(1.0 - (0.4 * theta) ** 2)
    truth = np.array([[3.7, 0.62, 0.21], [1.0, 0.35, -0.8],
                      [0.2, 0.9, 1.4], [2.5, 0.05, 0.6]])

    def model(p):
        return p[0] * envelope * (1.0 + p[1] * np.cos(phase
                                                      + p[2] * steepening))

    rows = np.array([model(p) + rng.normal(0.0, 0.01, theta.size)
                     for p in truth])
    est = fit_rows_model(rows, envelope, phase, steepening)
    for i, row in enumerate(rows):
        ref = least_squares(lambda p: model(p) - row, truth[i], method="lm",
                            xtol=1e-12, ftol=1e-12)
        ours = [est.amplitude[i], est.contrast[i], est.phase_rad[i]]
        np.testing.assert_allclose(ours, ref.x, rtol=1e-6)
        dof = theta.size - 3
        cov = np.linalg.inv(ref.jac.T @ ref.jac) * (2.0 * ref.cost / dof)
        np.testing.assert_allclose(
            [est.sigma_contrast[i], est.sigma_phase[i]],
            np.sqrt(np.diag(cov))[1:], rtol=1e-3)


def test_fit_rows_model_never_fits_worse_than_the_linear_stage():
    # rows of noise about the envelope (no fringes) and rows of faint
    # fringes under noise; a few noise rows do not settle within the cap
    rng = np.random.default_rng(0)
    theta = np.linspace(-1.0, 1.0, 640)
    envelope = np.sinc(0.3 * theta) ** 2
    phase = 40.0 * theta**2
    steepening = 1.0 / np.sqrt(1.0 - (0.4 * theta) ** 2)
    faint = envelope * (1.0 + 0.01 * np.cos(phase + 2.0 * steepening))
    rows = np.vstack((rng.normal(1.0, 0.3, (256, 640)) * envelope,
                      faint + rng.normal(0.0, 0.02, (64, 640))))
    est = fit_rows_model(rows, envelope, phase, steepening)
    linear = fit_rows_model(rows, envelope, phase, steepening, polish=False)

    def cost(e):
        model = e.amplitude[:, None] * envelope * (1.0 + e.contrast[:, None]
                * np.cos(phase + e.phase_rad[:, None] * steepening))
        return np.sum((rows - model) ** 2, axis=1)

    assert np.all(cost(est) <= cost(linear))
    settled = np.isfinite(est.sigma_phase)
    assert np.all(settled[256:])
    assert 0 < np.count_nonzero(~settled) < 10
    # an unsettled row is the linear stage, and claims no uncertainty
    for name in ("amplitude", "contrast", "phase_rad"):
        np.testing.assert_array_equal(getattr(est, name)[~settled],
                                      getattr(linear, name)[~settled])
    assert np.all(np.isnan(est.sigma_contrast[~settled]))


def test_fit_rows_model_retires_each_row_as_it_settles(monkeypatch):
    # 31 fringe rows share one block with a row of noise that never
    # settles; each fringe row leaves the passes at its own pass
    import nlispec.retrieval as retrieval

    rng = np.random.default_rng(0)
    theta = np.linspace(-1.0, 1.0, 640)
    envelope = np.sinc(0.3 * theta) ** 2
    phase = 40.0 * theta**2
    steepening = 1.0 / np.sqrt(1.0 - (0.4 * theta) ** 2)
    noise = rng.normal(1.0, 0.3, (32, 640)) * envelope
    restless = noise[np.isnan(fit_rows_model(noise, envelope, phase,
                                             steepening).sigma_phase)][0]
    fringes = np.array([
        envelope * (1.0 + tau * np.cos(phase + d * steepening)
                    + rng.normal(0.0, s, theta.size))
        for tau, d, s in zip(rng.uniform(0.02, 0.9, 31),
                             rng.uniform(-3.0, 3.0, 31),
                             rng.uniform(0.0, 0.3, 31))])
    rows = np.vstack((fringes[:15], restless, fringes[15:]))

    projected = []   # the rows each projection was given
    project = retrieval._project

    def spy(y, design):
        projected.append(y.copy())
        return project(y, design)

    monkeypatch.setattr(retrieval, "_project", spy)
    est = fit_rows_model(rows, envelope, phase, steepening)
    in_block = projected.copy()
    assert len(in_block) == 1 + retrieval._MAX_PASSES
    assert np.isnan(est.sigma_phase[15]) and np.isfinite(est.amplitude[15])
    passes = []
    for i, row in enumerate(fringes):
        projected.clear()
        alone = fit_rows_model(row, envelope, phase, steepening)
        j = i if i < 15 else i + 1
        for f in ("amplitude", "contrast", "phase_rad", "sigma_contrast",
                  "sigma_phase"):
            assert getattr(est, f)[j] == getattr(alone, f)[0], (i, f)
        passes.append(len(projected))
        assert passes[-1] == sum(np.any(np.all(y == row, axis=1))
                                 for y in in_block), i
    assert max(passes) < 1 + retrieval._MAX_PASSES
    assert len(set(passes)) > 1   # the working rows shrink more than once


@pytest.mark.parametrize("dphi", [math.pi + 5e-3, -math.pi - 5e-3])
def test_fit_rows_model_steps_through_the_branch_cut(dphi):
    # the passes add atan2 steps without wrapping the phase, so a fit
    # whose linear stage lands inside (-pi, pi] can end beyond it; a
    # steepening below 1 puts the linear stage on the near side of the cut
    theta = np.linspace(-1.0, 1.0, 257)
    phase = 12.0 * theta**2 + 0.3
    envelope = np.sinc(0.3 * theta) ** 2
    steepening = np.sqrt(1.0 - (0.2 * theta) ** 2)
    row = 2.0 * envelope * (1.0 + 0.5 * np.cos(phase + dphi * steepening))
    start = fit_rows_model(row, envelope, phase, steepening, polish=False)
    assert abs(start.phase_rad[0]) < math.pi < abs(dphi)
    est = fit_rows_model(row, envelope, phase, steepening)
    assert est.phase_rad[0] == pytest.approx(dphi, abs=1e-9)
    assert est.contrast[0] == pytest.approx(0.5, rel=1e-9)
    assert est.amplitude[0] == pytest.approx(2.0, rel=1e-9)


def test_refine_extrema_quadratic_interpolation():
    # samples of a parabola peaking between grid points
    x = np.arange(7, dtype=float)
    y = -((x - 3.3) ** 2)
    pos, height, is_max = refine_extrema(y)
    assert pos.size == 1 and bool(is_max[0])
    assert pos[0] == pytest.approx(3.3, abs=1e-12)
    assert height[0] == pytest.approx(0.0, abs=1e-12)


def test_fit_row_extrema_reads_contrast():
    theta = np.linspace(-1.0, 1.0, 2001)
    row = 2.0 * (1.0 + 0.55 * np.cos(60.0 * theta))  # flat envelope
    est = fit_rows_extrema(row)
    # the polynomial envelope leaks ~1e-3 of the fringe term; that is
    # the honest accuracy floor of the model-free route
    assert est.contrast[0] == pytest.approx(0.55, rel=2e-3)


def test_fit_row_extrema_needs_enough_fringes():
    theta = np.linspace(-1.0, 1.0, 401)
    rows = np.stack((1.0 + 0.5 * np.cos(6.0 * theta),    # ~2 fringes
                     1.0 + 0.5 * np.cos(60.0 * theta)))  # ~19 fringes
    est = fit_rows_extrema(rows)
    for name in ("amplitude", "contrast", "phase_rad", "sigma_contrast",
                 "sigma_phase"):
        assert np.isnan(getattr(est, name)[0]), name
    assert est.contrast[1] == pytest.approx(0.5, rel=2e-2)
    assert np.isfinite(est.sigma_contrast[1])


def _extrema_oracle(row):
    """Contrast and its MAD sigma of one row, step by step; None when
    the row is unreadable."""
    x = np.linspace(-1.0, 1.0, row.size)
    env = np.polynomial.polynomial.polyval(
        x, np.polynomial.polynomial.polyfit(x, row, 4))
    if np.any(env <= 0):
        return None
    flat = row / env
    ext = []  # (height, is_max) per refined interior extremum
    for i in range(1, row.size - 1):
        a, b, c = flat[i - 1], flat[i], flat[i + 1]
        if (b > a and b >= c) or (b < a and b <= c):
            d = a - 2.0 * b + c
            shift = 0.0 if d == 0 else 0.5 * (a - c) / d
            ext.append((b - 0.25 * (a - c) * shift, b > a))
    n_max = sum(kind for _, kind in ext)
    if min(n_max, len(ext) - n_max) < 8:
        return None
    contrasts = []
    for (h0, max0), (h1, max1) in zip(ext, ext[1:]):
        hi, lo = (h0, h1) if max0 else (h1, h0)
        if max0 != max1 and hi + lo > 0:
            contrasts.append((hi - lo) / (hi + lo))
    centre = np.median(contrasts)
    mad = np.median(np.abs(np.array(contrasts) - centre))
    return centre, 1.4826 * mad / math.sqrt(len(contrasts))


def test_fit_rows_extrema_matches_per_row_oracle():
    rng = np.random.default_rng(11)
    theta = np.linspace(-1.0, 1.0, 640)
    envelope = np.sinc(0.8 * theta) ** 2
    rows = [envelope * (1.0 + tau * np.cos(k * theta + p))
            for tau, k, p in ((0.6, 70.0, 0.3), (0.2, 95.0, 1.1),
                              (0.9, 55.0, -0.7))]
    rows.append(rows[0] + 0.02 * rng.standard_normal(theta.size))
    # runs of exact zeros on the slopes: plateaus that repeat a kind
    swing = 0.5 + np.cos(70.0 * theta)
    rows.append(np.where(np.abs(swing) < 0.3, 0.0, swing))
    # fringes swing below zero, so some pairs fail the hi + lo > 0 test
    rows.append(0.05 + 0.1 * np.cos(70.0 * theta)
                + 0.02 * rng.standard_normal(theta.size))
    rows.append(1e-3 * rng.standard_normal(theta.size))       # dark
    rows.append(envelope * (1.0 + 0.5 * np.cos(6.0 * theta)))  # 2 fringes
    rows = np.array(rows)
    est = fit_rows_extrema(rows)
    expect = [_extrema_oracle(row) for row in rows]
    np.testing.assert_array_equal(np.isnan(est.contrast),
                                  [e is None for e in expect])
    assert [e is None for e in expect] == [False] * 6 + [True, True]
    for i, e in enumerate(expect):
        if e is not None:
            assert est.contrast[i] == pytest.approx(e[0], rel=1e-12)
            assert est.sigma_contrast[i] == pytest.approx(e[1], rel=1e-12)
    assert np.all(np.isnan(est.phase_rad))
    assert np.all(np.isnan(est.sigma_phase))


# ------------------------------------------------------------ full retrieval

GAS = flat_gas(dn=1e-5, alpha=0.3)
VAC = flat_gas(dn=0.0, alpha=0.0, p_torr=0.0)


@pytest.fixture(scope="module")
def map_pair():
    import conftest
    import math as _math
    from nlispec.dispersion import SellmeierModel, UniaxialCrystalIndex
    from nlispec.interferometer import InterferometerGeometry

    m = SellmeierModel.constant(2.2, valid_um=(0.3, 30.0))
    crystal = UniaxialCrystalIndex(m, m, cut_angle_rad=_math.pi / 4)
    geom = InterferometerGeometry(crystal, 0.05, 2.5, 532.0)
    axes = MapAxes(np.linspace(604.0, 610.0, 5),
                   np.linspace(-6.656e-3, 6.656e-3, 257))
    sample = IntensityMap(axes, simulate_map(geom, GAS, axes),
                          meta={"which": "sample"})
    reference = IntensityMap(axes, simulate_map(geom, VAC, axes),
                             meta={"which": "reference"})
    return geom, sample, reference


def test_retrieve_round_trip_model_engine(map_pair):
    geom, sample, reference = map_pair
    res = retrieve(sample, reference, geom)
    np.testing.assert_allclose(res.alpha_cm, 0.3, rtol=1e-8)
    np.testing.assert_allclose(res.index_offset, 1e-5, rtol=1e-6)
    np.testing.assert_allclose(res.visibility, math.exp(-0.3 * 2.5), rtol=1e-8)
    assert res.meta["sample_meta"] == {"which": "sample"}


def test_retrieve_polish_removes_off_axis_phase_bias(map_pair):
    geom, sample, reference = map_pair
    polished = retrieve(sample, reference, geom, polish=True)
    raw = retrieve(sample, reference, geom, polish=False)
    err_polished = np.abs(polished.index_offset - 1e-5).max()
    err_raw = np.abs(raw.index_offset - 1e-5).max()
    assert err_polished < err_raw / 50
    assert err_raw < 1e-8  # the bias itself is small, but real


def test_retrieve_extrema_engine_cross_checks_model(map_pair):
    geom, sample, reference = map_pair
    model = retrieve(sample, reference, geom, engine="model")
    extrema = retrieve(sample, reference, geom, engine="extrema")
    np.testing.assert_allclose(extrema.alpha_cm, model.alpha_cm, rtol=2e-2)
    assert np.all(np.isnan(extrema.index_offset))


def test_retrieve_row_subset(map_pair):
    geom, sample, reference = map_pair
    res = retrieve(sample, reference, geom, rows=[0, 3])
    assert res.rows.tolist() == [0, 3]
    assert res.alpha_cm.shape == (2,)
    np.testing.assert_allclose(res.wavelength_nm,
                               sample.axes.wavelength_nm[[0, 3]])
    with pytest.raises(ValueError):
        retrieve(sample, reference, geom, rows=[99])


def test_retrieve_requires_matching_axes(map_pair):
    geom, sample, reference = map_pair
    # same shape, wavelengths shifted
    for shift_nm in (1.0, 0.5):
        other_axes = MapAxes(sample.axes.wavelength_nm + shift_nm,
                             sample.axes.angle_rad)
        other = IntensityMap(other_axes, reference.intensity)
        with pytest.raises(AxisMismatchError):
            retrieve(sample, other, geom)
    with pytest.raises(ValueError):
        retrieve(sample, reference, geom, engine="fourier")


def test_retrieve_reference_path_with_other_axes(map_pair, tmp_path,
                                                 monkeypatch):
    import nlispec.retrieval as retrieval

    geom, sample, reference = map_pair
    save_map(tmp_path / "s.nlm", sample)
    save_map(tmp_path / "r.nlm", IntensityMap(MapAxes(
        sample.axes.wavelength_nm, sample.axes.angle_rad[::2]),
        reference.intensity[:, ::2]))
    fitted = []
    fit = retrieval.fit_rows_model
    monkeypatch.setattr(retrieval, "fit_rows_model",
                        lambda rows, *a, **k: fitted.append(rows.shape)
                        or fit(rows, *a, **k))
    with pytest.raises(AxisMismatchError):
        retrieve(str(tmp_path / "s.nlm"), str(tmp_path / "r.nlm"), geom)
    assert fitted == []   # the axes are compared before any row is fitted


def test_retrieve_negative_absorption_policies(map_pair):
    geom, sample, reference = map_pair
    # swap roles: "sample" now has higher contrast than the "reference",
    # and every row keeps its negative absorption
    kept = retrieve(reference, sample, geom)
    assert np.all(kept.alpha_cm < 0)


def test_retrieve_noisy_maps_stay_calibrated(map_pair):
    # retrieved sigma should describe the seed-to-seed scatter
    geom, sample, reference = map_pair
    rng = np.random.default_rng(5)
    alphas, sigmas = [], []
    for _ in range(12):
        noisy_s = IntensityMap(sample.axes,
                               with_gaussian_noise(sample.intensity, 1e-3, rng))
        noisy_r = IntensityMap(reference.axes,
                               with_gaussian_noise(reference.intensity, 1e-3,
                                                   rng))
        res = retrieve(noisy_s, noisy_r, geom, rows=[2])
        alphas.append(res.alpha_cm[0])
        sigmas.append(res.alpha_sigma_cm[0])
    alphas = np.array(alphas)
    assert abs(alphas.mean() - 0.3) < 5 * alphas.std(ddof=1) / math.sqrt(12)
    assert np.median(sigmas) == pytest.approx(alphas.std(ddof=1), rel=0.6)


def test_retrieve_with_known_visible_index(map_pair):
    # a gas-filled gap also nudges pump and signal phases; telling the
    # template the visible index keeps the idler offset exact
    from nlispec.dispersion import GasIndexModel, gas_index
    from nlispec.gas import GasState

    geom, _, reference = map_pair
    visible = GasIndexModel(n0=1.000449)
    n_vis = gas_index(visible, 760.0, 300.0)
    gas = GasState(p_torr=760.0, t_k=300.0, visible=visible,
                   idler_nu_cm=np.linspace(1500.0, 3500.0, 5),
                   idler_alpha_cm=np.full(5, 0.3),
                   idler_index=np.full(5, n_vis + 1e-5))
    sample = IntensityMap(reference.axes,
                          simulate_map(geom, gas, reference.axes))
    res = retrieve(sample, reference, geom, sample_visible_index=n_vis)
    np.testing.assert_allclose(res.index_offset, 1e-5, rtol=1e-6)
    np.testing.assert_allclose(res.alpha_cm, 0.3, rtol=1e-8)
    assert res.meta["sample_visible_index"] == n_vis
    assert res.meta["reference_visible_index"] == 1.0
