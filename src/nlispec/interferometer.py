"""Forward model of the two-crystal nonlinear interferometer.

Geometry: pump (extraordinary wave) traverses crystal 1, a gas-filled
gap of length L_m, then crystal 2 (both crystals identical, length L,
type-I down-conversion to ordinary signal + idler).  Detection is in
the far field of the signal at wavelength lambda_s and external angle
theta; the idler is discarded.  Pair emission from the two crystals
interferes, and the gap imprints the gas response at the IR idler
wavelength onto the visible signal:

    I(lambda_s, theta) = 1/2 * sinc^2(delta / 2)
                         * (1 + tau * cos(delta + delta_m))

with sinc x = sin x / x,

    delta   = (k_pz - k_sz - k_iz) L      inside each crystal,
    delta_m = (k_pz - k_sz - k_iz) L_m    inside the gap,
    tau     = exp(-alpha_i L_m)           idler fringe-amplitude loss.

All three waves share the transverse wavevector budget of the pump
(q_i = -q_s, pump collinear); longitudinal components are
k_z = sqrt(k^2 - q^2) with q = (2 pi / lambda_s) sin(theta) set by the
external detection angle, so refraction at every interface is implied.
Wavelengths are vacuum values tied by 1/lambda_p = 1/lambda_s +
1/lambda_i.

The fit template of `retrieval` is this pattern with the idler at the
visible-band index n_vis of the gap: `fringe_template` gives the parts
a sample map and its evacuated reference share, `gap_mismatch` the gap
term that differs.  Against it a row's phase moves by d m, m the
off-axis steepening 1/sqrt(1 - (q / k_i)^2).  One convention ties the
gap terms, which `gap_response` forms from one lookup of the gas, to
their inverses, with V = tau_sample / tau_reference and
dphi = d_sample - d_reference:

    tau = exp(-alpha_i L_m),                so alpha_i = -ln(V) / L_m;
    d = -2 pi (n_i - n_vis) L_m / lambda_i, so
        n_i - n_vis = -dphi lambda_i / (2 pi L_m).

The inverses also carry a standard error through to first order
(sigma_alpha = sigma_V / (V L_m), sigma_n = sigma_phi lambda_i /
(2 pi L_m)), so the convention and its error propagation live here.

The map is rendered one block of `BLOCK_ROWS` rows at a time
(`render_blocks`), so a caller that writes each block as it comes
holds no whole map; `simulate_map` stacks the blocks.

Angles are radians; wavelengths nm; lengths cm; alpha cm^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dispersion import UniaxialCrystalIndex, uniaxial_index, wavevector
from .errors import ValidityRangeError

if TYPE_CHECKING:   # the map retrieval path never compiles the gas model
    from .gas import GasState

NM_PER_CM = 1.0e7
# Wavelength rows that every map-sized stage (rendering, noise, map
# and text output, fitting) handles at once: each stage's temporaries
# are one block of rows, not a whole map.
BLOCK_ROWS = 32


def row_blocks(n_rows: int) -> list[slice]:
    """Consecutive BLOCK_ROWS-row slices covering `n_rows` rows."""
    return [slice(start, start + BLOCK_ROWS)
            for start in range(0, n_rows, BLOCK_ROWS)]


def idler_wavelength_nm(pump_nm, signal_nm):
    """Idler vacuum wavelength from energy conservation."""
    pump = np.asarray(pump_nm, dtype=float)
    signal = np.asarray(signal_nm, dtype=float)
    if np.any(pump <= 0):
        raise ValueError("non-positive pump wavelength")
    if np.any(signal <= pump):
        raise ValidityRangeError(
            "signal wavelength must exceed the pump wavelength")
    out = 1.0 / (1.0 / pump - 1.0 / signal)
    return float(out) if out.ndim == 0 else out


def nu_cm_from_lambda_nm(lambda_nm):
    """Vacuum wavenumber [cm^-1] from vacuum wavelength [nm], and the
    wavelength from the wavenumber: the map is its own inverse."""
    lam = np.asarray(lambda_nm, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("non-positive wavelength")
    nu = NM_PER_CM / lam
    return float(nu) if np.isscalar(lambda_nm) else nu


@dataclass(frozen=True)
class InterferometerGeometry:
    """Fixed optical layout: crystals, gap, pump."""

    crystal: UniaxialCrystalIndex
    crystal_length_cm: float
    gap_length_cm: float
    pump_wavelength_nm: float
    pump_axis_angle_rad: float | None = None  # None: propagate along the cut
    aperture_cm: float | None = None          # transverse overlap budget

    def __post_init__(self):
        if self.crystal_length_cm <= 0 or self.gap_length_cm <= 0:
            raise ValueError("crystal and gap lengths must be positive")
        if self.pump_wavelength_nm <= 0:
            raise ValueError("non-positive pump wavelength")
        if self.aperture_cm is not None and self.aperture_cm <= 0:
            raise ValueError("non-positive aperture")
        angle = self.pump_axis_angle_rad
        if angle is not None and not 0.0 < angle <= math.pi / 2:
            raise ValueError(f"pump axis angle {angle:.4g} rad outside (0, pi/2]")

    @property
    def pump_angle(self) -> float:
        if self.pump_axis_angle_rad is not None:
            return self.pump_axis_angle_rad
        return self.crystal.cut_angle_rad

    def pump_index(self) -> float:
        """Extraordinary-wave index seen by the collinear pump."""
        return float(uniaxial_index(self.crystal,
                                    self.pump_wavelength_nm * 1e-3,
                                    self.pump_angle))


@dataclass(frozen=True)
class MapAxes:
    """Axes of an angular-wavelength intensity map.

    Rows are signal wavelengths [nm], columns external angles [rad];
    both non-empty and strictly increasing.
    """

    wavelength_nm: np.ndarray
    angle_rad: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.wavelength_nm, dtype=float)
        ang = np.asarray(self.angle_rad, dtype=float)
        if lam.ndim != 1 or ang.ndim != 1:
            raise ValueError("axes must be 1-d")
        for name, ax in (("wavelength", lam), ("angle", ang)):
            if ax.size == 0:
                raise ValueError(f"empty {name} axis")
            if np.any(~np.isfinite(ax)):
                raise ValueError(f"non-finite value on the {name} axis")
            if np.any(~(np.diff(ax) > 0)):
                raise ValueError(f"{name} axis must be strictly increasing")
        if np.any(~(lam > 0)):
            raise ValueError("non-positive wavelength on axis")
        object.__setattr__(self, "wavelength_nm", lam)
        object.__setattr__(self, "angle_rad", ang)

    @property
    def shape(self) -> tuple[int, int]:
        return self.wavelength_nm.size, self.angle_rad.size

    def close_to(self, other: "MapAxes", rtol: float = 1e-9) -> bool:
        return (self.shape == other.shape
                and np.allclose(self.wavelength_nm, other.wavelength_nm,
                                rtol=rtol, atol=0.0)
                and np.allclose(self.angle_rad, other.angle_rad,
                                rtol=rtol, atol=1e-15))


def detector_angle_axis(n_pixels: int, pixel_um: float,
                        focal_mm: float) -> np.ndarray:
    """External angles [rad] of detector columns behind a Fourier lens."""
    if n_pixels < 1 or pixel_um <= 0 or focal_mm <= 0:
        raise ValueError("pixels, pixel pitch and focal length must be positive")
    j = np.arange(n_pixels) - (n_pixels - 1) / 2.0
    return j * (pixel_um * 1e-3 / focal_mm)


def _kz(k, q):
    """Longitudinal wavevector; rejects evanescent geometry."""
    k2 = k * k - q * q
    if np.any(k2 <= 0):
        raise ValidityRangeError("detection angle too steep: transverse "
                                 "momentum exceeds a wave's total wavevector")
    return np.sqrt(k2)


def _mismatch(geom: InterferometerGeometry, length_cm, n_pump, n_signal,
              n_idler, lambda_s_nm, theta_rad) -> np.ndarray:
    """(k_pz - k_sz - k_iz) * length [rad], shape (n_wavelength, n_angle),
    for a collinear pump at index `n_pump`, and signal and idler at
    `n_signal` and `n_idler` sharing q = (2 pi / lambda_s) sin(theta)."""
    lam_s = np.atleast_1d(np.asarray(lambda_s_nm, dtype=float))
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, lam_s)
    k_p = wavevector(n_pump, geom.pump_wavelength_nm / NM_PER_CM)
    k_s = np.atleast_1d(wavevector(n_signal, lam_s / NM_PER_CM))[:, None]
    k_i = np.atleast_1d(wavevector(n_idler, lam_i / NM_PER_CM))[:, None]
    th = np.atleast_1d(np.asarray(theta_rad, dtype=float))[None, :]
    q = 2.0 * math.pi / (lam_s[:, None] / NM_PER_CM) * np.sin(th)
    out = (k_p - _kz(k_s, q) - _kz(k_i, q)) * length_cm
    if not np.all(np.isfinite(out)):
        raise ValidityRangeError("phase mismatch out of floating-point range")
    return out


def crystal_phase_mismatch(geom: InterferometerGeometry, lambda_s_nm,
                           theta_rad) -> np.ndarray:
    """delta [rad] inside one crystal, shape (n_wavelength, n_angle)."""
    lam_s = np.atleast_1d(np.asarray(lambda_s_nm, dtype=float))
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, lam_s)
    return _mismatch(geom, geom.crystal_length_cm, geom.pump_index(),
                     geom.crystal.n_ordinary(lam_s * 1e-3),
                     geom.crystal.n_ordinary(lam_i * 1e-3), lam_s, theta_rad)


def gap_mismatch(geom: InterferometerGeometry, visible_index, idler_index,
                 lambda_s_nm, theta_rad) -> np.ndarray:
    """delta_m [rad] across the gap, (n_wavelength, n_angle), with pump
    and signal at `visible_index`, the idler at `idler_index` (or per row)."""
    return _mismatch(geom, geom.gap_length_cm, visible_index, visible_index,
                     idler_index, lambda_s_nm, theta_rad)


def gap_response(geom: InterferometerGeometry, gas: GasState, lambda_s_nm,
                 theta_rad) -> tuple[np.ndarray, np.ndarray]:
    """(delta_m, tau) of the gas-filled gap from one idler lookup per row:
    delta_m [rad] per pixel, shape (n_wavelength, n_angle), and the
    fringe-amplitude transmission tau = exp(-alpha_i L_m) per row,
    shape (n_wavelength, 1)."""
    lam_s = np.atleast_1d(np.asarray(lambda_s_nm, dtype=float))
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, lam_s)
    delta_m = gap_mismatch(geom, gas.visible_index(),
                           gas.idler_index_at(lam_i), lam_s, theta_rad)
    alpha = gas.idler_absorption_at(lam_i)
    return delta_m, np.exp(-alpha * geom.gap_length_cm)[:, None]


def index_offset_from_phase(phase_shift_rad, idler_wavelength_nm_,
                            gap_length_cm: float, sigma=None):
    """(n_idler - n_visible) from the referenced fringe phase shift; with
    the phase shift's standard error `sigma`, (offset, its error)."""
    if gap_length_cm <= 0:
        raise ValueError("non-positive gap length")
    lam_cm = np.asarray(idler_wavelength_nm_, dtype=float) * 1e-7
    out = (-np.asarray(phase_shift_rad, dtype=float) * lam_cm
           / (2.0 * math.pi * gap_length_cm))
    out = float(out) if np.isscalar(phase_shift_rad) else out
    if sigma is None:
        return out
    return out, lam_cm / (2.0 * math.pi * gap_length_cm) * sigma


def absorption_from_visibility(visibility, gap_length_cm: float,
                               sigma=None):
    """alpha [cm^-1] from referenced visibility V = exp(-alpha L_m); with
    the visibility's standard error `sigma`, (alpha, its error).

    V > 1 gives a negative alpha, which is kept: near zero absorption
    noise pushes V either way, and the two signs average out.
    """
    if gap_length_cm <= 0:
        raise ValueError("non-positive gap length")
    v = np.asarray(visibility, dtype=float)
    if np.any(v <= 0):
        raise ValueError("visibility must be positive")
    alpha = -np.log(v) / gap_length_cm
    alpha = float(alpha) if np.isscalar(visibility) else alpha
    if sigma is None:
        return alpha
    return alpha, sigma / (v * gap_length_cm)


def _envelope(delta):
    """The single-crystal emission envelope sinc^2(delta / 2)."""
    return np.sinc(np.asarray(delta) / (2.0 * math.pi)) ** 2


def fringe_template(geom: InterferometerGeometry, lambda_s_nm, theta_rad):
    """(delta, sinc^2(delta / 2), m) per row: the template parts that a
    sample map and its reference share (m for an idler at index 1)."""
    delta = crystal_phase_mismatch(geom, lambda_s_nm, theta_rad)
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, lambda_s_nm)
    q_over_ki = np.sin(theta_rad)[None, :] * (lam_i / lambda_s_nm)[:, None]
    return delta, _envelope(delta), 1.0 / np.sqrt(1.0 - q_over_ki**2)


def interference_intensity(delta, delta_m, tau) -> np.ndarray:
    """Normalized signal intensity, bounded by [0, 1] for tau <= 1."""
    return 0.5 * _envelope(delta) * (1.0 + tau * np.cos(delta + delta_m))


def check_beam_overlap(geom: InterferometerGeometry, axes: MapAxes) -> float:
    """Worst transverse idler walk across the gap [cm]; raises if it
    exceeds the aperture, the pumped region that the quasi-collinear
    picture needs the idler emitted at the largest angle to stay in."""
    lam_i = idler_wavelength_nm(geom.pump_wavelength_nm, axes.wavelength_nm)
    ratio = (lam_i / axes.wavelength_nm).max()
    theta_i = ratio * np.abs(axes.angle_rad).max()
    walk = geom.gap_length_cm * math.tan(theta_i)
    if geom.aperture_cm is not None and walk > geom.aperture_cm:
        raise ValidityRangeError(
            f"idler walk {walk * 10:.2f} mm exceeds the "
            f"{geom.aperture_cm * 10:.2f} mm aperture; shrink the angle axis"
        )
    return walk


def render_blocks(geom: InterferometerGeometry, gas: GasState,
                  axes: MapAxes):
    """The rows of the intensity map, one `row_blocks` block at a time:
    a generator of (block rows, n_angle) arrays in row order.

    The beam-overlap check runs when the first block is asked for.  A
    block that the inputs, each in range, still drive out of
    floating-point range raises ValidityRangeError when it is reached.
    """
    check_beam_overlap(geom, axes)
    lam, theta = axes.wavelength_nm, axes.angle_rad
    for blk in row_blocks(lam.size):
        delta = crystal_phase_mismatch(geom, lam[blk], theta)
        delta_m, tau = gap_response(geom, gas, lam[blk], theta)
        block = interference_intensity(delta, delta_m, tau)
        if not np.all(np.isfinite(block)):
            raise ValidityRangeError(
                "simulated intensity is not finite: an input is outside "
                "the model's numerical range")
        yield block


def simulate_map(geom: InterferometerGeometry, gas: GasState,
                 axes: MapAxes) -> np.ndarray:
    """Angular-wavelength intensity map, shape (n_wavelength, n_angle):
    the blocks of `render_blocks` stacked."""
    intensity = np.empty(axes.shape)
    for blk, block in zip(row_blocks(axes.shape[0]),
                          render_blocks(geom, gas, axes)):
        intensity[blk] = block
    return intensity


def with_gaussian_noise(intensity, sigma: float, rng) -> np.ndarray:
    """Additive white readout noise of absolute level sigma.

    The draws fill the map in row-major order, so noising a map's row
    blocks in order from one generator gives the bits of noising the
    whole map at once.
    """
    if sigma < 0:
        raise ValueError(f"negative noise level {sigma}")
    if sigma == 0:
        return np.array(intensity, dtype=float, copy=True)
    noisy = rng.normal(0.0, sigma, size=np.shape(intensity))
    noisy += np.asarray(intensity, dtype=float)
    if not np.all(np.isfinite(noisy)):
        raise ValidityRangeError(
            f"noise level {sigma:g} drives the map out of floating-point "
            "range")
    return noisy


def collinear_phase_matching_angle(crystal: UniaxialCrystalIndex,
                                   pump_nm: float, signal_nm: float) -> float:
    """Pump-to-axis angle [rad] nulling delta at theta = 0.

    The pump index must reach n_t = lambda_p * (n_o(lambda_s) / lambda_s
    + n_o(lambda_i) / lambda_i).  The index ellipsoid at the pump
    wavelength, 1/n^2 = cos^2/n_o^2 + sin^2/n_e^2, gives it in closed form:

        sin^2(angle) = (n_o^-2 - n_t^-2) / (n_o^-2 - n_e^-2).

    Raises ValidityRangeError unless 0 < sin^2(angle) <= 1, the (0, pi/2]
    range of InterferometerGeometry (an isotropic crystal never matches).
    """
    idler_nm = idler_wavelength_nm(pump_nm, signal_nm)
    target = pump_nm * 1e-7 * (
        crystal.n_ordinary(signal_nm * 1e-3) / (signal_nm * 1e-7)
        + crystal.n_ordinary(idler_nm * 1e-3) / (idler_nm * 1e-7)
    )
    inv_o = crystal.n_ordinary(pump_nm * 1e-3) ** -2
    inv_e = crystal.n_extraordinary(pump_nm * 1e-3) ** -2
    den = inv_o - inv_e
    sin2 = (inv_o - target ** -2) / den if den else math.nan
    if not 0.0 < sin2 <= 1.0:
        raise ValidityRangeError(
            f"no pump angle reaches index {target:.6f} at {pump_nm:g} nm"
        )
    return math.asin(math.sqrt(sin2))
