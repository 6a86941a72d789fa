"""Inversion of measured maps back to gas properties.

A sample map and a reference map (same interferometer, evacuated gap)
are processed row by row, i.e. one signal wavelength at a time:

  1. estimate the fringe amplitude tau and fringe phase of each row,
  2. reference the sample against the vacuum row: V = tau_s / tau_r,
     dphi = phase_s - phase_r, cancelling shared systematics,
  3. invert V to alpha and dphi to n_idler - n_visible, with their
     standard errors, through the inverses that `interferometer`
     keeps beside the gap terms.

Two per-row estimators are available.  The model engine fits each row
to its map's fringe template A E (1 + tau cos(phi + d m)), whose phase
phi, sinc^2 envelope E and off-axis steepening m of the phase shift
come from `interferometer.fringe_template`.  Once d is fixed the model is
linear in A and A tau, so the fit is repeated linear projections of a
block of rows (separable least squares, Golub & Pereyra 1973).  Pass 0
projects onto {E, E cos phi, E sin phi}: with coefficients (a0, ac, as)
A = a0, tau = hypot(ac, as) / a0 and d = atan2(-as, ac).  Each later
pass projects onto {E, E cos theta, m E sin theta}, theta = phi + d m,
and adds atan2(-as, ac) to d.  These columns span the model's Jacobian,
so a pass is an undamped Gauss-Newton step whose fixed point is the
least-squares optimum; it is exact on noiseless model data.  Each
projection solves one symmetric 3 x 3 system per row, the normal
equations G c = D y with Gram matrix G = D D^T, in closed form: einsum
forms the six distinct sums of G and D y, G is factored as L diag(p)
L^T without pivoting (G is positive definite), and the inverse that
the factors give yields both the coefficients and, at the last pass,
the covariance.  No LAPACK, BLAS or sort call is made.  A row whose
G is singular, one of its columns within rounding of a combination of
the other two, is NaN in every field, as an unlit row is.  The
extrema engine is model-free: it flattens every row with a low-order
polynomial envelope (one least-squares solve for all rows of a block)
and reads the contrast from quadratically refined local extrema, found
for the block's rows at once.  It retrieves absorption only (no phase)
and serves as an independent cross-check on the model route.  Both
engines fit one block of rows at a time and return NaN in every field
of a row they cannot read (a dim row, or too few resolved fringes)
while reading the rest; neither raises for a bad row.

`retrieve` streams the two maps together: it opens both, compares
their axes before it fits anything, and then runs one loop over blocks
of rows that reads the block's rows of both maps and fits both, each
against its own template phase from one `fringe_template` call per
block.  No whole map is held.

Because both rows of a pair are fitted identically, estimator bias is
common mode: it divides out of V and subtracts out of dphi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AxisMismatchError, MapFormatError
from .interferometer import (
    REFERENCE_VISIBLE_INDEX,
    InterferometerGeometry,
    absorption_from_visibility,
    fringe_template,
    idler_wavelength_nm,
    index_offset_from_phase,
    nu_cm_from_lambda_nm,
    row_blocks,
)
from .mapio import open_map, read_text_table, write_text_table


# ------------------------------------------------------------ row estimators

class RowEstimate(NamedTuple):
    """Per-row fringe parameters from `fit_rows_model` or
    `fit_rows_extrema`; an unreadable row is NaN in every field."""

    amplitude: np.ndarray
    contrast: np.ndarray      # fringe amplitude tau of the row
    phase_rad: np.ndarray     # fringe phase against the model pattern
    sigma_contrast: np.ndarray
    sigma_phase: np.ndarray


# A row's Gauss-Newton passes after the linear stage stop once its phase
# moves by no more than _PHASE_TOL rad, or after _MAX_PASSES of them.
_PHASE_TOL = 1e-8
_MAX_PASSES = 20
# Extrema engine: degree of the polynomial envelope, and the fewest full
# fringes a row must resolve for the envelope fit to leave them intact.
_ENVELOPE_DEGREE = 4
_MIN_FRINGES = 8
# the fewest pixels that hold _MIN_FRINGES fringes, a maximum and a
# minimum each, with an edge pixel on either side; a narrower strip is
# NaN before its envelope fit, which it could not determine
_MIN_PIXELS = 2 * _MIN_FRINGES + 2
# The 3 x 3 Gram matrix G of the model fit: its six distinct entries
# (row, column), and where each entry of the full matrix sits among
# them.  1 / (G_ii (G^-1)_ii) = 1 - R_i^2 is the share of design column
# i that the other two columns leave unexplained; G is singular when it
# is 0 for some i.  A share at most _SINGULAR_RTOL is taken for 0: the
# rounding of a singular G leaves the share of a few eps.
_GRAM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_GRAM_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_SINGULAR_RTOL = 16.0 * np.finfo(float).eps


def _project(rows, design):
    """Least squares of each row on its (3 x angles) design matrix D: the
    coefficients (3 x rows), the inverse Gram matrices (3 x 3 x rows) and
    the residual sums of squares.  A row whose Gram matrix is singular is
    NaN in all three."""
    # the six distinct sums of the Gram matrix G = D D^T, and D y, by
    # einsum's own loops (no BLAS call)
    a, b, c, d, e, f = (np.einsum("rm,rm->r", design[:, i], design[:, j])
                        for i, j in _GRAM_PAIRS)
    dty = np.einsum("rim,rm->ir", design, rows)
    # G = L diag(a, p1, p2) L^T, L = [[1, 0, 0], [l1, 1, 0], [l2, m, 1]],
    # in closed form; a pivot that is not positive turns NaN, and the NaN
    # fills every later number of its row
    a = np.where((a > 0) & np.isfinite(a + d + f), a, math.nan)
    l1, l2 = b / a, c / a
    p1 = d - b * l1
    p1 = np.where(p1 > 0, p1, math.nan)
    t = e - c * l1
    m = t / p1
    p2 = f - c * l2 - t * m
    p2 = np.where(p2 > 0, p2, math.nan)
    # G^-1 = U^T diag(1 / a, 1 / p1, 1 / p2) U, U = L^-1 = [[1, 0, 0],
    # [-l1, 1, 0], [q, -m, 1]]: its six distinct entries
    q = l1 * m - l2
    w1, w2 = 1.0 / p1, 1.0 / p2
    packed = np.stack((1.0 / a + l1 * l1 * w1 + q * q * w2,
                       -l1 * w1 - q * m * w2, q * w2,
                       w1 + m * m * w2, -m * w2, w2))
    # one over the smallest unexplained share of a column of the row
    inflation = np.maximum(np.maximum(a * packed[0], d * packed[3]),
                           f * packed[5])
    inverse = np.where(inflation < 1.0 / _SINGULAR_RTOL, packed,
                       math.nan)[_GRAM_SYMMETRIC]
    coef = inverse[:, 0] * dty[0] + inverse[:, 1] * dty[1] \
        + inverse[:, 2] * dty[2]
    resid = rows - np.einsum("ir,rim->rm", coef, design)
    return coef, inverse, np.einsum("rm,rm->r", resid, resid)


def fit_rows_model(rows, envelope, phase, steepening=None, *,
                   polish: bool = True) -> RowEstimate:
    """Fringe parameters of many rows against a known vacuum pattern.

    Every argument is an (n_rows, n_angle) array or a single row, and
    all the rows given are fitted together: the (rows x 3 x angles)
    design matrix, filled in place at each pass, and the working copies
    are as large as the input, so a caller with many rows passes them a
    block at a time.
    `phase` and `envelope` come from the forward model of the empty
    interferometer; `steepening` is the off-axis phase-shift multiplier
    m (1 on axis).  Without `polish` the result is pass 0, the linear
    stage, with NaN sigmas; with it, Gauss-Newton passes by re-projection
    (see the module docstring) run to the optimum, and the sigmas come
    from the last pass's design matrix, scaled by residual / dof.  A row
    leaves the passes once its phase moves by at most _PHASE_TOL, so its
    fit does not depend on the other rows.  A row whose phase still
    moves after _MAX_PASSES passes (a row of noise, say) keeps the
    linear stage and NaN sigmas.
    Each pass solves every row's 3 x 3 normal equations in closed form
    (see the module docstring); the covariance is the last pass's
    inverse Gram matrix, mapped to (tau, phase).
    A row whose envelope is zero at every angle, whose Gram matrix is
    singular at any pass (too few angles, or columns that the angles
    leave linearly dependent), or whose projected amplitude is not
    positive, is no fringe row: every field of it is NaN, and the other
    rows are fitted as usual.
    """
    y = np.atleast_2d(np.asarray(rows, dtype=float))
    env = np.broadcast_to(envelope, y.shape)
    phi = np.broadcast_to(phase, y.shape)
    m = np.broadcast_to(1.0 if steepening is None else steepening, y.shape)
    n, dof = y.shape[0], y.shape[1] - 3
    lit = env.any(axis=1)   # a row without envelope is not projected
    at = np.flatnonzero(lit)   # the rows still projected
    if not lit.all():
        y, env, phi, m = (a[lit] for a in (y, env, phi, m))
    delta = np.zeros(at.size)
    settled = np.zeros(n, dtype=bool)
    # each row's fit, inverse Gram matrix and rss, from its last pass
    last = np.empty((3, n))
    cov, rss = np.full((3, 3, n), math.nan), np.full(n, math.nan)
    sine_env = env   # pass 0 leaves the steepening out
    design = np.empty((n, 3, y.shape[1]))
    for k in range(_MAX_PASSES + 1 if polish else 1):
        # columns E, E cos theta and E' sin theta, theta = phi + delta m,
        # with E' = E in pass 0 and E m after it
        d = design[:at.size]
        d[:, 0] = env
        np.multiply(delta[:, None], m, out=d[:, 1])
        d[:, 1] += phi
        np.sin(d[:, 1], out=d[:, 2])
        np.cos(d[:, 1], out=d[:, 1])
        d[:, 1] *= env
        d[:, 2] *= sine_env
        (a0, ac, as_), cov[..., at], rss[at] = _project(y, d)
        step = np.arctan2(-as_, ac)
        delta = delta + step
        lit[at] &= a0 > 0
        last[:, at] = a0, np.hypot(ac, as_), delta
        if k == 0:
            linear = last.copy()
            sine_env = env * m
        else:
            settled[at] = np.abs(step) <= _PHASE_TOL
        # a settled or unlit row leaves the passes; the working rows are
        # copied only when that shrinks them
        moving = lit[at] & ~settled[at]
        if not moving.any():
            break
        if not moving.all():
            at, delta = at[moving], delta[moving]
            y, env, phi, m, sine_env = (
                a[moving] for a in (y, env, phi, m, sine_env))
    # a row the passes did not settle keeps the linear stage
    fit = np.where(settled, last, linear)
    fit[:, ~lit] = math.nan
    amp, tau = fit[0], fit[1] / fit[0]
    sigma = np.full((2, n), math.nan)
    if polish and dof > 0:
        # J = D T, T = [[1, 0, 0], [tau, A, 0], [0, 0, -A tau]], so the
        # last pass's inverse Gram matrix gives the covariance; a barely
        # determined direction gets a huge variance
        var = np.stack(((tau * tau * cov[0, 0] - 2.0 * tau * cov[0, 1]
                         + cov[1, 1]) / amp**2,
                        cov[2, 2] / (amp * tau) ** 2))
        sigma = np.where(settled, np.sqrt(np.maximum(var * rss / dof, 0.0)),
                         math.nan)
    return RowEstimate(amp, tau, fit[2], *sigma)


def _extrema(y):
    """(row, position, height, is_maximum) of the quadratically refined
    interior extrema of every row of `y`, in row and then position
    order.  A plateau counts once, at its first sample."""
    rising = np.diff(y, axis=1)
    left, right = rising[:, :-1], rising[:, 1:]
    is_max = (left > 0) & (right <= 0)
    row, i = np.nonzero(is_max | ((left < 0) & (right >= 0)))
    prev, mid, nxt = y[row, i], y[row, i + 1], y[row, i + 2]
    denom = prev - 2.0 * mid + nxt
    shift = np.divide(0.5 * (prev - nxt), denom, out=np.zeros_like(denom),
                      where=denom != 0)
    return (row, i + 1 + shift, mid - 0.25 * (prev - nxt) * shift,
            is_max[row, i])


def refine_extrema(values):
    """(positions, heights, is_maximum) of the quadratically refined
    interior extrema of a sampled curve, in fractional sample indices."""
    _, pos, height, is_max = _extrema(np.asarray(values, dtype=float)[None])
    return pos, height, is_max


def _group_median(values, groups, n_groups):
    """Per-label medians of `values` (NaN if empty), and label counts."""
    ordered = values[np.lexsort((values, groups))]
    count = np.bincount(groups, minlength=n_groups)
    has = count > 0
    lower = (np.cumsum(count) - count + (count - 1) // 2)[has]
    median = np.full(n_groups, math.nan)
    median[has] = 0.5 * (ordered[lower] + ordered[lower + 1 - count[has] % 2])
    return median, count


def fit_rows_extrema(rows) -> RowEstimate:
    """Model-free contrast of many rows (no phase information).

    `rows` is an (n_rows, n_angle) array or a single row.  Each row is
    divided by a fitted polynomial envelope; its contrast is the median
    local contrast of adjacent refined extrema.  A row with fewer than
    _MIN_PIXELS pixels, a non-positive envelope, fewer than _MIN_FRINGES
    full fringes or no usable pair is NaN in every field; the other rows
    are read as usual.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n_rows, poly = rows.shape[0], np.polynomial.polynomial
    if rows.shape[1] < _MIN_PIXELS:
        return RowEstimate(*np.full((5, n_rows), math.nan))
    x = np.linspace(-1.0, 1.0, rows.shape[1])
    env = poly.polyval(x, poly.polyfit(x, rows.T, _ENVELOPE_DEGREE))
    lit = np.all(env > 0, axis=1)
    row, _, height, is_max = _extrema(rows / np.where(lit[:, None], env, 1.0))
    fringes = np.minimum(np.bincount(row[is_max], minlength=n_rows),
                         np.bincount(row[~is_max], minlength=n_rows))
    # adjacent max/min pairs of a row; a repeated kind (a plateau) is skipped
    pair = np.flatnonzero((row[1:] == row[:-1]) & (is_max[1:] != is_max[:-1]))
    hi = np.where(is_max[pair], height[pair], height[pair + 1])
    lo = np.where(is_max[pair], height[pair + 1], height[pair])
    keep = hi + lo > 0
    hi, lo, pair_row = hi[keep], lo[keep], row[pair[keep]]
    contrasts = (hi - lo) / (hi + lo)
    # median, not mean: pairs straddling the stationary-phase centre of
    # the pattern produce wild outliers
    centre, count = _group_median(contrasts, pair_row, n_rows)
    mad, _ = _group_median(np.abs(contrasts - centre[pair_row]), pair_row,
                           n_rows)
    sigma = np.where(count > 1, 1.4826 * mad / np.sqrt(count), math.nan)
    nan = np.full(n_rows, math.nan)
    fields = np.stack((env.mean(axis=1), centre, nan, sigma, nan))
    fields[:, ~lit | (fringes < _MIN_FRINGES) | (count == 0)] = math.nan
    return RowEstimate(*fields)


# ------------------------------------------------------------ map retrieval

@dataclass(frozen=True)
class RetrievalResult:
    """Per-wavelength gas properties pulled out of a map pair."""

    wavelength_nm: np.ndarray
    idler_wavelength_nm: np.ndarray
    idler_nu_cm: np.ndarray
    visibility: np.ndarray
    alpha_cm: np.ndarray
    alpha_sigma_cm: np.ndarray
    phase_shift_rad: np.ndarray
    index_offset: np.ndarray
    index_offset_sigma: np.ndarray
    rows: np.ndarray
    meta: dict = field(default_factory=dict)


def _row_indices(rows, n_rows: int) -> np.ndarray:
    """Indices of the wavelength rows `rows` (None for all, a slice, or
    indices) selects from a map of `n_rows` rows."""
    if rows is None or isinstance(rows, slice):
        return np.arange(n_rows)[slice(None) if rows is None else rows]
    row_idx = np.atleast_1d(np.asarray(rows, dtype=int))
    if np.any(row_idx < 0) or np.any(row_idx >= n_rows):
        raise ValueError("row index out of range")
    return row_idx


def retrieve(sample, reference, geom: InterferometerGeometry, *,
             engine: str = "model", rows=None, polish: bool = True,
             sample_visible_index: float = 1.0) -> RetrievalResult:
    """Recover alpha and the idler index offset per signal wavelength.

    `sample` and `reference` are each an IntensityMap or the path of a
    map file, streamed together (see the module docstring); every row
    of a map file is read and checked, also the rows not fitted.
    `reference` must be recorded with an evacuated gap on identical
    axes.  `rows` selects a subset of wavelength rows (indices in any
    order, or a slice of the sample's rows); the default processes all
    of them.  The rows are fitted in increasing order and returned in
    the order asked for.  The extrema engine yields only visibility and
    absorption (phase columns are NaN).  A row that either engine
    cannot fit comes back NaN in every fitted column.

    The visible-band index of whatever fills the gap is assumed known
    (it only nudges the fringe template); pass it per map so the
    fitted phase difference is carried by the idler alone.  The
    returned index offset is idler index minus sample visible index.
    """
    if engine not in ("model", "extrema"):
        raise ValueError(f"unknown engine {engine!r}")
    with open_map(sample) as s_map, open_map(reference) as r_map:
        axes = s_map.axes
        if not axes.close_to(r_map.axes):
            raise AxisMismatchError(
                "sample and reference do not share wavelength/angle axes")
        row_idx = _row_indices(rows, axes.shape[0])
        # the rows to fit, in increasing order, and where each row asked
        # for sits among them
        wanted = np.zeros(axes.shape[0], dtype=bool)
        wanted[row_idx] = True
        fit_idx = np.flatnonzero(wanted)
        asked = np.cumsum(wanted)[row_idx] - 1
        lam_fit = axes.wavelength_nm[fit_idx]
        theta = axes.angle_rad
        # est[0] is the sample's fit, est[1] the reference's
        est = np.empty((2, len(RowEstimate._fields), fit_idx.size))
        for blk in row_blocks(fit_idx.size):
            pair = s_map.rows(fit_idx[blk]), r_map.rows(fit_idx[blk])
            if engine == "extrema":
                for k, y in enumerate(pair):
                    est[k, :, blk] = fit_rows_extrema(y)
                continue
            *phases, envelope, steepening = fringe_template(
                geom, lam_fit[blk], theta, sample_visible_index)
            for k, (y, phase) in enumerate(zip(pair, phases)):
                est[k, :, blk] = fit_rows_model(y, envelope, phase,
                                                steepening, polish=polish)
        s_map.read_to_end()
        r_map.read_to_end()
    est_s, est_r = (RowEstimate(*e[:, asked]) for e in est)
    lam_s = axes.wavelength_nm[row_idx]
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, lam_s)
    dphi = est_s.phase_rad - est_r.phase_rad
    dphi_sigma = np.hypot(est_s.sigma_phase, est_r.sigma_phase)
    vis = est_s.contrast / est_r.contrast
    vis_sigma = vis * np.hypot(est_s.sigma_contrast / est_s.contrast,
                               est_r.sigma_contrast / est_r.contrast)
    alpha, alpha_sigma = absorption_from_visibility(
        vis, geom.gap_length_cm, vis_sigma)
    offset, offset_sigma = index_offset_from_phase(
        dphi, lam_i, geom.gap_length_cm, dphi_sigma)
    meta = {"engine": engine, "polish": bool(polish),
            "gap_length_cm": geom.gap_length_cm,
            "sample_visible_index": sample_visible_index,
            "reference_visible_index": REFERENCE_VISIBLE_INDEX,
            "sample_meta": s_map.meta, "reference_meta": r_map.meta}
    return RetrievalResult(
        wavelength_nm=lam_s, idler_wavelength_nm=lam_i,
        idler_nu_cm=nu_cm_from_lambda_nm(lam_i), visibility=vis,
        alpha_cm=alpha, alpha_sigma_cm=alpha_sigma,
        phase_shift_rad=dphi, index_offset=offset,
        index_offset_sigma=offset_sigma, rows=row_idx, meta=meta,
    )


_RESULT_MAGIC = "# nlispec retrieval 1"
_RESULT_COLUMNS = ("row", "wavelength_nm", "idler_wavelength_nm",
                   "idler_nu_cm", "visibility", "alpha_cm", "alpha_sigma_cm",
                   "phase_shift_rad", "index_offset", "index_offset_sigma")


def save_result_csv(path, result: RetrievalResult) -> None:
    """Write a retrieval result as a self-describing text table."""
    write_text_table(path, _RESULT_MAGIC, result.meta, _RESULT_COLUMNS,
                     result.rows, *(getattr(result, name)
                                    for name in _RESULT_COLUMNS[1:]))


def load_result_csv(path) -> RetrievalResult:
    """Read back a table written by save_result_csv."""
    magic, meta, header, table = read_text_table(path)
    if magic != _RESULT_MAGIC:
        raise MapFormatError(f"{path}: not a retrieval result table")
    if tuple(header) != _RESULT_COLUMNS:
        raise MapFormatError(f"{path}: unexpected column header")
    columns = dict(zip(_RESULT_COLUMNS[1:], table[:, 1:].T))
    return RetrievalResult(rows=table[:, 0].astype(int), meta=meta, **columns)
