"""Line-by-line IR absorption: Voigt profiles and line-list handling.

Units, fixed throughout this module:
  - spectral positions and widths in cm^-1 (all widths are HWHM)
  - line strength in cm^-1 / (molecule cm^-2), referenced to 296 K
  - pressure in Torr, temperature in K, molar mass in g/mol
  - absorption coefficient in cm^-1, number density in cm^-3

The Voigt profile is the real part of the Faddeeva function
w(z) = exp(-z^2) erfc(-iz) at z = x + iy, y >= 0, evaluated in numpy by
one routine, `_voigt_into`, for both `voigt_profile` and
`absorption_coefficient`, with two rules.  Far from the line center,
where |z| >= 50 and the first three terms of the asymptotic series
i/(sqrt(pi) z) sum_k (2k-1)!!/(2z^2)^k reach 1e-14 of the peak, it is
their real part, a polynomial in 1/|z|^2 evaluated in place.  Every
other point takes Weideman's 32-term rational approximation
(J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497, 1994), or exactly
exp(-x^2) in the pure-Gaussian limit (zero Lorentz width).  The error
is about 4e-14 of the profile peak, absolute; relative error is
therefore large only far out in a nearly Gaussian tail, where exp(-x^2)
is below ~1e-14 of the peak.  Each point takes its rule by its own
value, so its profile does not depend on which other points share the
call.

`absorption_coefficient` sums the lines on two grids, the multi-grid
line sum of line-by-line codes (S. A. Clough et al., JQSRT 91, 233,
2005), so the grid must be uniform.  Coarse nodes sit at every 16th
fine point and run past both grid ends.  Each line adds S phi at the
nodes of its window into one coarse array, and one 8-point Lagrange
interpolation puts the sum on the fine grid.  A line's special cells
are the coarse cells whose stencil reaches its core or straddles its
+-cutoff edge; there the line adds exact S phi at the fine points
inside its window minus the interpolation of its own samples.  So each
line is exact near its center and at its window edges, and its
truncation |nu - nu0| <= cutoff holds point by point.  The core
half-width comes from the interpolation error bound of the Lorentz
wing, about C H^8 S g / x^10 at distance x and coarse step H, and from
about 10 Doppler sigmas.  A line whose special cells cover its window
is summed on the fine grid alone.  The result is within 1e-10 of
max(alpha) of the exact line-by-line sum at every grid point (measured:
at most 2.6e-11 on dense and sparse line lists, see
notes/decisions.md).  Lines go through in chunks with one kernel call
per chunk, in one point buffer sized by a chunk, not by the line list:
2000 lines on a 22,419-point grid peak at 1.81 MiB (`tracemalloc`).

Line lists are read into `LineArrays`, one array per `SpectralLine`
field, never one object per line; its `len`, indexing and iteration
still give the line count and `SpectralLine`s.  They come either from a
self-describing CSV or from fixed-width 160-column transition records
(the common .par layout).  A CSV body is one `np.loadtxt` call over the
header's columns; a .par file is parsed record by record into one flat
array.  Both are then checked against `SpectralLine`'s rules at once,
and the first record that breaks them is read again on its own, by the
one-record parser (`parse_par_record`, or the CSV's), whose error names
the file and the record: `path: record N: reason`.  A CSV body numpy
cannot read is read again record by record, so the first bad record
raises the same way.  100,000 CSV lines load in 60-100 ms at an 8.4 MiB
`tracemalloc` peak, the float table itself and its integer ids.

Column spans used from each .par record, 1-based inclusive:

    1-2    molecule id        (int)
    3      isotopologue id    (0-9, then A=10, B=11, ...)
    4-15   center             [cm^-1]
    16-25  strength at 296 K  [cm^-1/(molecule cm^-2)], E10.3
    26-35  Einstein A         (not read)
    36-40  air-broadening     [cm^-1/atm], HWHM at 296 K
    41-45  self-broadening    [cm^-1/atm], HWHM at 296 K
    46-55  lower-state energy [cm^-1]
    56-59  temperature exponent of the air width

Fortran-style 'D' exponents are accepted anywhere a float is expected.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import LineParseError, ValidityRangeError, text_input
from .kk import checked_uniform_grid

C_CM_S = 2.99792458e10          # speed of light [cm/s]
KB_ERG_K = 1.380649e-16         # Boltzmann constant [erg/K]
AVOGADRO = 6.02214076e23        # [1/mol]
C2_CM_K = 1.4387768775039337    # h c / k_B [cm K]
TORR_TO_BARYE = 1333.2236842105263   # 1 Torr in dyn/cm^2
ATM_TORR = 760.0
T_REF_K = 296.0                 # line-list reference temperature
DEFAULT_WING_CUTOFF_CM = 25.0

_SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))


def _weideman_coefficients(n: int) -> tuple[float, np.ndarray]:
    """Scale L and Horner-ordered coefficients of Weideman's w(z) series.

    The coefficients are the Fourier coefficients of
    exp(-t^2) (L^2 + t^2) under t = L tan(theta / 2), sampled at 4n
    points, with the optimal L = sqrt(n / sqrt(2)).
    """
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, a[n:0:-1]


_W_SCALE, _W_COEFFS = _weideman_coefficients(32)
# |z| below which no point takes the asymptotic series, whatever its y:
# the series lacks the exp(-x'^2) of a nearly Gaussian core and diverges
# at small |z|
_W_FAR = 50.0
_SQRT_PI = math.sqrt(math.pi)


def _weideman(z):
    """Weideman's w(z): with d = L - iz and Z = (L + iz)/d,
    w = 2 p(Z)/d^2 + 1/(sqrt(pi) d), p the 32-term polynomial by
    Horner's rule."""
    iz = 1j * z
    d = _W_SCALE - iz
    big_z = (_W_SCALE + iz) / d
    p = np.full_like(big_z, _W_COEFFS[0])
    for c in _W_COEFFS[1:]:
        p = p * big_z + c
    return 2.0 * p / (d * d) + 1.0 / (_SQRT_PI * d)


# From rho = |z|^2 >= (1.3125e15 y (y + 1))^(1/4) on, the asymptotic
# series' first three terms are within 1e-14 of the peak: the fourth is
# at most 13.125 y / (sqrt(pi) |z|^8), and the peak Re w(iy) >= 1 /
# (sqrt(pi) (y + 1)).
_THREE_TERMS = 1.3125e15


def _voigt_into(x, scale, y) -> None:
    """Overwrite the detunings `x` [cm^-1] with the unit-area Voigt
    profile [cm], point by point.

    `scale` is sigma sqrt(2) [cm^-1] and `y` the Lorentz HWHM over
    `scale`; both broadcast against `x`, so one call can hold many
    lines.  With x' = x / scale, z = x' + iy and v = 1 / |z|^2, the
    first three terms of the asymptotic series
    i/(sqrt(pi) z) sum_k (2k-1)!!/(2z^2)^k have the real part

        Re w = y v (1 + 3/2 v + (15/4 - 2 y^2) v^2 - 15 y^2 v^3
                    + 12 y^4 v^4) / sqrt(pi),

    evaluated in place over the whole array: this also gives an infinite
    x' the profile's limit 0, and leaves NaN NaN.  Two rules: that
    polynomial wherever it is within 1e-14 of the peak and |z| >= 50;
    every other point is gathered and overwritten by `_near`, each by
    its own value alone.
    """
    np.divide(x, scale, out=x)
    y = np.asarray(y, dtype=float)
    y2 = y * y
    rho = x * x
    rho += y2
    close = rho < np.maximum(_W_FAR * _W_FAR,
                             np.sqrt(np.sqrt(_THREE_TERMS * y * (y + 1.0))))
    exact = _near(x[close], np.broadcast_to(y, x.shape)[close])
    # the close points, which are overwritten, may overflow here
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = np.divide(1.0, rho, out=rho)
        np.multiply(v, 12.0 * y2 * y2, out=x)
        x -= 15.0 * y2
        for c in (3.75 - 2.0 * y2, 1.5, 1.0):
            x *= v
            x += c
        x *= v
        x *= y / _SQRT_PI
    x[close] = exact
    np.divide(x, scale * _SQRT_PI, out=x)


def _near(u, y):
    """Re w(u + iy): exp(-u^2) where y = 0, else Weideman's."""
    out = np.exp(-u * u)
    lorentz = y > 0
    out[lorentz] = _weideman(u[lorentz] + 1j * y[lorentz]).real
    return out


# molecule and isotopologue ids are whole numbers of magnitude below this
_ID_LIMIT = 2**31


@dataclass(frozen=True)
class SpectralLine:
    """One molecular transition, parameters referenced to 296 K."""

    nu0_cm: float          # line center [cm^-1]
    strength: float        # [cm^-1 / (molecule cm^-2)]
    gamma_air: float       # air-broadened HWHM [cm^-1/atm]
    gamma_self: float      # self-broadened HWHM [cm^-1/atm]
    elow_cm: float         # lower-state energy [cm^-1]
    n_air: float           # T exponent of the pressure width
    mol_id: int = 0
    iso_id: int = 0

    def __post_init__(self):
        if not 0 < self.nu0_cm < math.inf:
            raise ValueError(f"non-positive line center {self.nu0_cm}")
        if not 0 <= self.strength < math.inf:
            raise ValueError(f"negative line strength {self.strength}")
        if not (0 <= self.gamma_air < math.inf
                and 0 <= self.gamma_self < math.inf):
            raise ValueError("negative pressure-broadening width")
        if not 0 <= self.elow_cm < math.inf:
            raise ValueError(f"negative lower-state energy {self.elow_cm}")
        if not math.isfinite(self.n_air):
            raise ValueError(f"non-finite width exponent {self.n_air}")
        for name in ("mol_id", "iso_id"):
            value = getattr(self, name)
            if not (abs(value) < _ID_LIMIT and value == int(value)):
                raise ValueError(f"{name} {value!r} is not an integer id")


# the fields of a line, in `SpectralLine`'s order
_FIELDS = ("nu0_cm", "strength", "gamma_air", "gamma_self", "elow_cm",
           "n_air", "mol_id", "iso_id")


@dataclass(frozen=True, eq=False)
class LineArrays:
    """A line list: one array per `SpectralLine` field, one entry per line.

    `len`, indexing and iteration give the line count and `SpectralLine`s.
    `line_strength` and `lorentz_hwhm` take it in place of one
    `SpectralLine` and return one value per line.
    """

    nu0_cm: np.ndarray
    strength: np.ndarray
    gamma_air: np.ndarray
    gamma_self: np.ndarray
    elow_cm: np.ndarray
    n_air: np.ndarray
    mol_id: np.ndarray
    iso_id: np.ndarray

    @classmethod
    def of(cls, lines) -> "LineArrays":
        """`lines` itself if it is a LineArrays, else the arrays of an
        iterable of `SpectralLine`s, possibly empty."""
        if isinstance(lines, cls):
            return lines
        table = np.array(list(map(attrgetter(*_FIELDS), lines)),
                         dtype=float).reshape(-1, len(_FIELDS))
        return cls._of_columns(np.ascontiguousarray(table.T))

    @classmethod
    def _of_columns(cls, columns) -> "LineArrays":
        """Eight float columns in `_FIELDS` order, the ids made integers."""
        return cls(*columns[:6], *(c.astype(np.int64) for c in columns[6:]))

    def _columns(self):
        return [getattr(self, name) for name in _FIELDS]

    def __len__(self) -> int:
        return len(self.nu0_cm)

    def __getitem__(self, i) -> SpectralLine:
        return SpectralLine(*(column[i].item() for column in self._columns()))

    def __iter__(self):
        return itertools.starmap(
            SpectralLine, zip(*(column.tolist() for column in self._columns())))


def _valid(nu0_cm, strength, gamma_air, gamma_self, elow_cm, n_air, *ids):
    """Mask of the lines that keep `SpectralLine`'s rules, with whole ids."""
    ok = (nu0_cm > 0) & (nu0_cm < math.inf) & np.isfinite(n_air)
    for column in (strength, gamma_air, gamma_self, elow_cm):
        ok &= (column >= 0) & (column < math.inf)
    for column in ids:
        ok &= (column == np.trunc(column)) & (np.abs(column) < _ID_LIMIT)
    return ok


def number_density(p_torr: float, t_k: float) -> float:
    """Ideal-gas molecule density [cm^-3] at P [Torr], T [K]."""
    if p_torr < 0:
        raise ValueError(f"negative pressure {p_torr} Torr")
    if t_k <= 0:
        raise ValueError(f"non-positive temperature {t_k} K")
    return p_torr * TORR_TO_BARYE / (KB_ERG_K * t_k)


def doppler_hwhm(nu0_cm, t_k: float, molar_mass_g: float):
    """Doppler HWHM [cm^-1]: (nu0/c) * sqrt(2 ln2 kT / m), at one line
    center or an array of them."""
    if t_k <= 0 or molar_mass_g <= 0 or np.any(nu0_cm <= 0):
        raise ValueError("center, temperature and molar mass must be positive")
    m_g = molar_mass_g / AVOGADRO
    return (nu0_cm / C_CM_S) * math.sqrt(2.0 * math.log(2.0) * KB_ERG_K * t_k / m_g)


def lorentz_hwhm(line: SpectralLine | LineArrays, p_torr: float, t_k: float,
                 x_self: float = 1.0):
    """Pressure-broadened HWHM [cm^-1] at total pressure P with self
    fraction x, of one line or of each of `LineArrays`."""
    if not 0.0 <= x_self <= 1.0:
        raise ValueError(f"self fraction {x_self} outside [0, 1]")
    if p_torr < 0 or t_k <= 0:
        raise ValueError("pressure must be >= 0 and temperature > 0")
    gamma_ref = x_self * line.gamma_self + (1.0 - x_self) * line.gamma_air
    return (p_torr / ATM_TORR) * (T_REF_K / t_k) ** line.n_air * gamma_ref


def line_grid_step(lines, p_torr, t_k, molar_mass_g, x_self=1.0) -> float:
    """Grid step resolving every line: an eighth of the narrowest HWHM."""
    fields = LineArrays.of(lines)
    widths = np.maximum(doppler_hwhm(fields.nu0_cm, t_k, molar_mass_g),
                        lorentz_hwhm(fields, p_torr, t_k, x_self))
    return float(widths.min()) / 8.0


def voigt_profile(delta_nu_cm, gamma_doppler_cm: float, gamma_lorentz_cm: float):
    """Unit-area Voigt profile [cm] at detuning(s) from line center.

    Both widths are HWHM; gamma_doppler must be positive (it always is for
    T > 0), gamma_lorentz may be zero (pure Gaussian limit).
    """
    if gamma_doppler_cm <= 0:
        raise ValueError(f"non-positive Doppler width {gamma_doppler_cm}")
    if gamma_lorentz_cm < 0:
        raise ValueError(f"negative Lorentz width {gamma_lorentz_cm}")
    phi = np.array(delta_nu_cm, dtype=float)
    scale = _profile_scale(gamma_doppler_cm)
    _voigt_into(phi.reshape(-1), scale, gamma_lorentz_cm / scale)
    return float(phi) if np.isscalar(delta_nu_cm) else phi


def _profile_scale(gamma_doppler_cm):
    """sigma sqrt(2) [cm^-1] of a Doppler HWHM, the unit of x' and y."""
    return gamma_doppler_cm / _SQRT_2LN2 * math.sqrt(2.0)


def line_strength(line: SpectralLine | LineArrays, t_k: float,
                  partition_ratio: float = 1.0):
    """Strength rescaled from 296 K to T, of one line or of each of
    `LineArrays`.

    Applies the Boltzmann population factor of the lower state and the
    stimulated-emission factor; `partition_ratio` is Q(296 K)/Q(T) and
    defaults to 1 (exact at 296 K, a few-percent effect for modest
    temperature offsets).
    """
    if t_k <= 0:
        raise ValueError(f"non-positive temperature {t_k} K")
    if partition_ratio <= 0:
        raise ValueError(f"non-positive partition ratio {partition_ratio}")
    boltz = np.exp(-C2_CM_K * line.elow_cm * (1.0 / t_k - 1.0 / T_REF_K))
    stim = -np.expm1(-C2_CM_K * line.nu0_cm / t_k)
    stim_ref = -np.expm1(-C2_CM_K * line.nu0_cm / T_REF_K)
    return line.strength * partition_ratio * boltz * stim / stim_ref


def absorption_coefficient(lines, nu_grid_cm, p_torr: float, t_k: float,
                           molar_mass_g: float, x_self: float = 1.0,
                           wing_cutoff_cm: float = DEFAULT_WING_CUTOFF_CM,
                           partition_ratio: float = 1.0) -> np.ndarray:
    """Absorption coefficient alpha(nu) [cm^-1] on a wavenumber grid.

    Sums N(P,T) * S_j(T) * phi_j(nu) over all lines, each truncated at
    `wing_cutoff_cm` from its center: a grid point with |nu - nu_j| >
    cutoff gets nothing from line j.  The grid must be uniform,
    increasing and positive, with at least 3 points, the rule of the KK
    transform.  phi_j is `voigt_profile`'s kernel, with each line's
    smooth wings interpolated from a coarse grid (see the module
    docstring): |alpha - exact sum| <= 1e-10 * max(exact sum) at every
    grid point, and alpha >= 0.  Scratch is sized by a chunk of lines:
    with 2000 lines on a 22,419-point grid the call peaks at 1.81 MiB,
    under 2 MiB (`tracemalloc`).

    The alpha returned is finite; else `ValidityRangeError` names what
    overflowed: a Lorentz width, a line strength times the density, or
    (both finite) the sum of the lines.
    """
    nu, h = checked_uniform_grid(nu_grid_cm)
    if not wing_cutoff_cm > 0:
        raise ValueError(f"non-positive wing cutoff {wing_cutoff_cm}")
    dens = number_density(p_torr, t_k)
    fields = LineArrays.of(lines)
    nu0 = fields.nu0_cm
    strength = dens * line_strength(fields, t_k, partition_ratio)
    scale = _profile_scale(doppler_hwhm(nu0, t_k, molar_mass_g))
    width = lorentz_hwhm(fields, p_torr, t_k, x_self)
    y = width / scale
    lo, hi = _line_windows(nu, nu0, wing_cutoff_cm)
    alpha = np.zeros_like(nu)
    two_grid = _two_grid_sum(alpha, nu, h, nu0, strength, scale, y, lo, hi,
                             wing_cutoff_cm)
    for j in np.flatnonzero((lo < hi) & ~two_grid):
        phi = nu[lo[j]:hi[j]] - nu0[j]
        _voigt_into(phi, scale[j], y[j])
        phi *= strength[j]
        alpha[lo[j]:hi[j]] += phi
    # every exact term is >= 0, so this only removes rounding residue
    # where a line's own interpolation cancels against the coarse sum
    np.maximum(alpha, 0.0, out=alpha)
    if not np.all(np.isfinite(alpha)):
        if not np.all(np.isfinite(width)):
            cause = "a Lorentz width is out of range"
        elif not np.all(np.isfinite(strength)):
            cause = "a line strength times the density is out of range"
        else:
            cause = "the sum of the lines is out of range"
        raise ValidityRangeError("absorption overflows: " + cause)
    return alpha


# The two-grid line sum.  Coarse node m sits at fine index m * _COARSE;
# cell k holds fine indices k * _COARSE + r, r < _COARSE, and takes its
# values from the _ORDER nodes k - _HALF + 1 .. k + _HALF.
_COARSE = 16
_ORDER = 8
_HALF = _ORDER // 2
_CHUNK = 32                 # lines per kernel call
# Node m is coarse[m + _NODE_PAD] and fine index i is acc[i + _FINE_PAD]:
# windows are clipped to reach at most _ORDER cells past a grid end, and
# a chunk row spans at most _ORDER - 1 nodes and _HALF cells beyond them.
_NODE_PAD = 2 * _ORDER
_FINE_PAD = (_ORDER + _HALF) * _COARSE
# The error budget relative to max(alpha), and each line's target for
# its interpolation error bound relative to its own largest value on
# the grid.  The bound is pessimistic: the measured error of the whole
# sum stays well inside the budget.
_ALPHA_BUDGET = 1e-10


def _lagrange_weights():
    """(M, P) weights at offsets r / M of a cell, and max |node polynomial|."""
    nodes = np.arange(_ORDER) - (_HALF - 1)
    s = np.arange(_COARSE) / _COARSE
    w = np.ones((_COARSE, _ORDER))
    for j, pj in enumerate(nodes):
        for pi in nodes[nodes != pj]:
            w[:, j] *= (s - pi) / (pj - pi)
    t = np.linspace(0.0, 1.0, 1001)
    omega = float(np.abs(np.prod(t[:, None] - nodes, axis=1)).max())
    return w, omega


_WEIGHTS, _OMEGA = _lagrange_weights()


def _interpolate(samples):
    """Values [K, M] of K cells from their stencil samples [K, P].

    Always the same products summed in the same order, so a line's own
    samples interpolate to the same bits here as in the coarse sum.
    """
    out = samples[:, :1] * _WEIGHTS[:, 0]
    for j in range(1, _ORDER):
        out += samples[:, j:j + 1] * _WEIGHTS[:, j]
    return out


def _core_halfwidth(scale, y, step, top):
    """Distance [cm^-1] from line center beyond which P-point
    interpolation at coarse `step` keeps a line's error within
    _ALPHA_BUDGET of `top`, the largest value its unit-area profile
    takes on the grid (inf where that budget underflows to 0).

    Lorentz wing: the P-th derivative of g / (pi (x^2 + g^2)) is at most
    P! min(1, (P + 1) g / rho) / (pi rho^(P+1)), rho^2 = x^2 + g^2; the
    core ends where either form meets the budget.  Doppler core: for
    t = x / sigma >= 10, the P-th derivative of the unit-area Gaussian
    is at most t^P exp(-t^2 / 2) / (sigma^(P+1) sqrt(2 pi)); t solves
    that bound by fixed point.
    """
    g = y * scale
    sigma = scale / math.sqrt(2.0)
    allowed = _ALPHA_BUDGET * top
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wing = _OMEGA * step ** _ORDER / (math.pi * allowed)
        rho = np.fmin(wing ** (1.0 / (_ORDER + 1)),      # 0 * inf is NaN
                      ((_ORDER + 1) * g * wing) ** (1.0 / (_ORDER + 2)))
        const = np.log(_OMEGA / (math.factorial(_ORDER) * allowed * sigma
                                 * math.sqrt(2.0 * math.pi)))
        x_lorentz = np.sqrt(np.maximum(rho * rho - g * g, 0.0))
        t = np.full_like(sigma, 10.0)
        for _ in range(3):
            t = np.sqrt(np.maximum(
                100.0, 2.0 * (const + _ORDER * np.log(step * t / sigma))))
    return np.where(allowed > 0, np.maximum(x_lorentz, t * sigma), np.inf)


def _two_grid_sum(alpha, nu, h, nu0, strength, scale, y, lo, hi, cutoff):
    """Add to `alpha` the lines whose special cells leave room for
    interpolated wings (see the module docstring); return their mask.

    Outside its special cells a line's stencils lie either all inside
    or all outside its window.  Nodes and cells run past both grid ends,
    so every grid cell has a full stencil.
    """
    n = nu.size
    step = _COARSE * h
    ncell = -(-n // _COARSE)
    reach = _ORDER * _COARSE
    # windows [lo_u, hi_u) in fine indices, past the grid ends as far as
    # any stencil reaches
    lo_u = np.where(lo > 0, lo, np.clip(np.ceil((nu0 - cutoff - nu[0]) / h),
                                        -reach, 0)).astype(np.int64)
    hi_u = np.where(hi < n, hi,
                    np.clip(np.floor((nu0 + cutoff - nu[0]) / h) + 1,
                            n, n + reach)).astype(np.int64)
    ma = -(-lo_u // _COARSE)             # first and past-last window node
    mb = -(-hi_u // _COARSE)
    bound = 2 * (ncell + reach)         # any larger core leaves no wing
    kc = np.floor(np.clip((nu0 - nu[0]) / step, -bound, bound))
    kc = kc.astype(np.int64)             # the cell of the line center
    # each line's largest value on the grid, at its window's point
    # nearest its center
    top = nu[np.clip(np.rint((nu0 - nu[0]) / h), lo, hi - 1).clip(0, n - 1)
             .astype(np.int64)] - nu0
    _voigt_into(top, scale, y)
    kcore = np.ceil(np.minimum(_core_halfwidth(scale, y, step, top) / step,
                               bound))
    kcore = np.maximum(kcore.astype(np.int64) + _HALF - 1, _ORDER - 1)
    use = ((lo < hi) & (ma + _HALF - 2 < kc - kcore)
           & (kc + kcore < mb - _HALF))
    # a chunk's rows are padded to its widest core
    chosen = np.flatnonzero(use)
    chosen = chosen[np.argsort(kcore[chosen], kind="stable"), None]
    if not chosen.size:
        return use
    rows = min(_CHUNK, chosen.size)
    fine = rows * (2 * kcore[chosen].max() + 2 * _ORDER - 1) * _COARSE
    size = fine + rows * (int((mb - ma)[chosen].max()) + 2 * _ORDER - 2)
    buf = np.empty(size)
    f = np.arange(-_NODE_PAD, ncell + _NODE_PAD) * _COARSE
    node_nu = np.where(f < 0, nu[0] + f * h,
                       np.where(f < n, nu[np.clip(f, 0, n - 1)],
                                nu[-1] + (f - n + 1) * h))
    coarse = np.zeros(f.size)
    acc = np.zeros(ncell * _COARSE + 2 * _FINE_PAD)
    for c in range(0, chosen.size, _CHUNK):
        j = chosen[c:c + _CHUNK]
        _chunk_into(coarse, acc, nu, node_nu, buf,
                    *(a[j] for a in (nu0, strength, scale, y, lo, hi, ma, mb,
                                     kc, kcore)))
    del buf                              # before the full-grid temporaries
    alpha += acc[_FINE_PAD:_FINE_PAD + n]
    windows = np.lib.stride_tricks.sliding_window_view(
        coarse[_NODE_PAD + 1 - _HALF:_NODE_PAD + ncell + _HALF], _ORDER)
    alpha += _interpolate(windows).reshape(-1)[:n]
    return use


def _chunk_into(coarse, acc, nu, node_nu, buf, nu0, strength, scale, y,
                lo, hi, ma, mb, kc, kcore):
    """One kernel call for a chunk of lines (columns of shape (L, 1)):
    their node samples into `coarse`, their special cells into `acc`.

    The special cells of a line are four groups of P - 1 cells whose
    stencils hold both sampled and unsampled nodes -- at each window
    edge and at each edge of the core -- and the core cells between,
    whose stencils hold no sampled node.  A row of `buf` holds the fine
    points of the groups, then of the inner core (its last cell repeated
    to the chunk's widest), then the nodes ma - P + 1 .. mb + P - 2 (the
    last repeated likewise).
    """
    rows = nu0.shape[0]
    band = _ORDER - 1
    inner = 2 * kcore + 1 - 2 * band
    padded = np.arange(int(inner.max()))
    groups = np.concatenate([ma - _HALF, kc - kcore, kc + kcore - band + 1,
                             mb - _HALF], axis=1)
    cells = np.concatenate(
        [(groups[..., None] + np.arange(band)).reshape(rows, -1),
         kc - kcore + band + np.minimum(padded, inner - 1)], axis=1)
    m = np.minimum(ma - band + np.arange(int((mb - ma).max()) + 2 * band),
                   mb + band - 1) + _NODE_PAD
    fine = cells.size * _COARSE
    x = buf[:fine + m.size].reshape(rows, -1)
    xf = x[:, :fine // rows].reshape(cells.shape + (_COARSE,))
    xn = x[:, fine // rows:]
    r = np.arange(_COARSE)
    nu.take((cells * _COARSE)[..., None] + r, mode="clip", out=xf)
    xf -= nu0[..., None]
    # a fine point r of cell k is inside the window when lo <= kM + r < hi
    below = lo - cells * _COARSE
    above = hi - cells * _COARSE
    above[:, 4 * band:][padded >= inner] = 0
    np.copyto(xf, np.inf,
              where=(r < below[..., None]) | (r >= above[..., None]))
    np.subtract(node_nu[m], nu0, out=xn)
    sampled = ((m >= ma + _NODE_PAD) & (m < mb + _NODE_PAD)
               & ((m < kc - kcore + _HALF + _NODE_PAD)
                  | (m > kc + kcore - _HALF + 1 + _NODE_PAD)))
    np.copyto(xn, np.inf, where=~sampled)
    _voigt_into(x, scale, y)
    x *= strength
    coarse += np.bincount(m.reshape(-1), xn.reshape(-1),
                          minlength=coarse.size)
    # each group's P - 1 cells take windows of P nodes from the stencil
    # of its first cell on
    first = groups - (_HALF - 1) - (ma - band)
    own = xn[np.arange(rows)[:, None, None, None],
             first[..., None, None] + np.arange(band)[:, None]
             + np.arange(_ORDER)]
    xf[:, :4 * band] -= _interpolate(own.reshape(-1, _ORDER)).reshape(
        rows, 4 * band, _COARSE)
    np.add.at(acc, (cells * _COARSE + _FINE_PAD)[..., None] + r, xf)


def _line_windows(nu, centres, cutoff: float):
    """Index bounds [lo, hi) of the grid points with |nu - centre| <= cutoff.

    `nu` is increasing.  Each window is found by `searchsorted` on the
    rounded edges centre -/+ cutoff, then moved by one point wherever
    that rounding put an edge on the wrong side of the test itself, so
    `nu[lo:hi]` holds exactly the points the elementwise test selects.
    """
    lo = np.searchsorted(nu, centres - cutoff, side="left")
    hi = np.searchsorted(nu, centres + cutoff, side="right")

    def inside(i):
        return np.abs(nu[np.clip(i, 0, nu.size - 1)] - centres) <= cutoff

    lo += (lo < nu.size) & ~inside(lo)
    lo -= (lo > 0) & inside(lo - 1)
    hi -= (hi > 0) & ~inside(hi - 1)
    hi += (hi < nu.size) & inside(hi)
    return lo, hi


# ------------------------------------------------------------ line lists

def _fortran_float(text: str) -> float:
    return float(text.strip().replace("D", "E").replace("d", "e"))


def _iso_code(ch: str) -> int:
    if ch.isdigit():
        return int(ch)
    if "A" <= ch <= "Z":
        return ord(ch) - ord("A") + 10
    raise ValueError(f"bad isotopologue code {ch!r}")


# field -> (0-based slice of the fixed-width record, converter)
_PAR_FIELDS = {
    "mol_id": (slice(0, 2), int),
    "iso_id": (slice(2, 3), _iso_code),
    "nu0_cm": (slice(3, 15), _fortran_float),
    "strength": (slice(15, 25), _fortran_float),
    "gamma_air": (slice(35, 40), _fortran_float),
    "gamma_self": (slice(40, 45), _fortran_float),
    "elow_cm": (slice(45, 55), _fortran_float),
    "n_air": (slice(55, 59), _fortran_float),
}
_PAR_MIN_LENGTH = max(span.stop for span, _ in _PAR_FIELDS.values())


def _par_values(text: str, record: int | None, path) -> tuple:
    """The `_FIELDS` of one fixed-width record, unchecked."""
    text = text.rstrip("\r\n")
    if len(text) < _PAR_MIN_LENGTH:
        raise LineParseError(
            f"record shorter than {_PAR_MIN_LENGTH} characters ({len(text)})",
            record=record, path=path,
        )
    raw = {}
    for name, (span, convert) in _PAR_FIELDS.items():
        try:
            raw[name] = convert(text[span])
        except ValueError:
            raise LineParseError(
                f"cannot parse {name} from {text[span]!r}", record=record,
                columns=(span.start + 1, span.stop), path=path) from None
    return tuple(raw[name] for name in _FIELDS)


def parse_par_record(text: str, record: int | None = None,
                     path=None) -> SpectralLine:
    """Parse one fixed-width transition record into a SpectralLine;
    `record` and `path` locate it in error messages."""
    values = _par_values(text, record, path)
    try:
        return SpectralLine(*values)
    except ValueError as exc:
        raise LineParseError(str(exc), record=record, path=path) from None


def load_par_file(path, molecule: int | None = None,
                  isotopologue: int | None = None) -> LineArrays:
    """Read a fixed-width line list, optionally keeping one molecule/isotopologue.

    Every record is checked, kept or not; the first bad one raises
    `parse_par_record`'s error.
    """
    with open(path, encoding="utf-8") as fh, \
            text_input(path, LineParseError):
        # one row per record: its _FIELDS, then its file line
        rows = np.fromiter(_par_rows(fh, path), dtype=(float, 9))
        bad = np.flatnonzero(~_valid(*rows.T[:8]))
        if bad.size:
            fh.seek(0)
            number = int(rows[bad[0], 8])
            raise _reparse(itertools.islice(enumerate(fh, 1), number - 1,
                                            number), parse_par_record, path)
    keep = np.ones(len(rows), dtype=bool)
    for column, wanted in ((rows[:, 6], molecule), (rows[:, 7], isotopologue)):
        if wanted is not None:
            keep &= column == wanted
    if not keep.any():
        raise LineParseError(f"no lines with molecule_id {molecule}, "
                             f"isotopologue_id {isotopologue}", path=path)
    return LineArrays._of_columns(rows[keep, :8].T)


def _par_rows(fh, path):
    """The `_FIELDS` and the file line of each non-blank record."""
    for i, text in enumerate(fh, start=1):
        if text.strip():
            yield *_par_values(text, i, path), i


def _reparse(records, parse, path) -> LineParseError:
    """Run `parse(text, record=, path=)` on the (file line, text)
    `records` the arrays found bad, so the first raises its own error;
    the error for records `parse` accepts after all."""
    for number, text in records:
        parse(text, record=number, path=path)
    return LineParseError("a line breaks SpectralLine's rules", path=path)


_CSV_REQUIRED = _FIELDS[:6]
_CSV_OPTIONAL = _FIELDS[6:]
# a row of `save_line_csv`
_CSV_ROW = ",".join(["%.10g"] * 6 + ["%d"] * 2) + "\r\n"


def _csv_cells(text: str) -> list[str]:
    """The comma-separated cells of one CSV line, each without the
    double quotes around it."""
    return [c[1:-1] if len(c) > 1 and c[0] == c[-1] == '"' else c
            for c in text.rstrip("\r\n").split(",")]


def _csv_records(fh):
    """(file line, text) of the records after the header, read again
    from the start; empty lines, which `np.loadtxt` skips, are left out."""
    fh.seek(0)
    return ((i, text) for i, text in enumerate(fh, 1)
            if i > 1 and text != "\n")


def _csv_line(header, text: str, record=None, path=None) -> SpectralLine:
    """One CSV record under `header`, by the rules `load_line_csv`
    checks the whole list with; blank or absent id cells read as 0."""
    cells = _csv_cells(text)
    row = dict(zip(header, cells))
    try:
        if not all(c in row for c in _CSV_REQUIRED):
            raise ValueError(f"short row: {len(cells)} of {len(header)} "
                             "cells")
        ids = [float(row[c]) if row.get(c, "").strip() else 0.0
               for c in _CSV_OPTIONAL]
        for name, value in zip(_CSV_OPTIONAL, ids):
            if not (value.is_integer() and abs(value) < _ID_LIMIT):
                raise ValueError(f"{name} {row[name]!r} is not an integer id")
        return SpectralLine(*(float(row[c]) for c in _CSV_REQUIRED),
                            *map(int, ids))
    except ValueError as exc:
        raise LineParseError(str(exc), record=record, path=path) from None


def _read_body(fh, columns):
    """The rest of `fh` as a float table of its `columns`, None where
    numpy cannot read it."""
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            # an empty body is the caller's "no lines" error
            warnings.filterwarnings("ignore", "loadtxt: input contained "
                                    "no data", UserWarning)
            return np.loadtxt(fh, delimiter=",", comments=None,
                              quotechar='"', ndmin=2, usecols=columns)
    except ValueError:
        fh.seek(start)
        return None


def load_line_csv(path) -> LineArrays:
    """Read a line list from CSV with a header row naming each column.

    The body is read into arrays by one `np.loadtxt` call and checked
    with `SpectralLine`'s rules; the first record that breaks them is
    read again on its own, by `_csv_line`, for its `path: record N:
    reason` error.  A body numpy cannot read (letters in a cell, a blank
    id cell, a row without its id cells) is read again record by record
    by `_csv_line`, which raises for its first bad record or reads blank
    and absent ids as 0.  Empty lines are skipped and counted.
    """
    with open(path, encoding="utf-8") as fh, \
            text_input(path, LineParseError):
        header = _csv_cells(fh.readline())
        missing = [c for c in _CSV_REQUIRED if c not in header]
        if missing:
            raise LineParseError(f"missing columns {missing}", path=path)
        unknown = [c for c in header if c not in _FIELDS]
        if unknown:
            raise LineParseError(f"unknown columns {unknown}", path=path)
        present = [c for c in _FIELDS if c in header]
        parse = functools.partial(_csv_line, header)
        table = _read_body(fh, [header.index(c) for c in present])
        if table is None:
            lines = LineArrays.of(parse(text, record=number, path=path)
                                  for number, text in _csv_records(fh))
        else:
            columns = dict(zip(present, table.T))
            bad = np.flatnonzero(~_valid(*columns.values()))
            if bad.size:
                raise _reparse(itertools.islice(_csv_records(fh), bad[0],
                                                bad[0] + 1), parse, path)
            zeros = np.zeros(len(table))
            lines = LineArrays._of_columns([columns.get(c, zeros)
                                            for c in _FIELDS])
    if not len(lines):
        raise LineParseError("no lines", path=path)
    return lines


def save_line_csv(path, lines) -> None:
    """Write a `LineArrays` or an iterable of `SpectralLine`s as CSV (the
    inverse of load_line_csv): floats to 10 significant digits, integer
    ids, CRLF line ends."""
    lines = LineArrays.of(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_FIELDS) + "\r\n")
        fh.writelines(_CSV_ROW % row for row in zip(
            *(column.tolist() for column in lines._columns())))
