"""Line-by-line IR absorption: Voigt profiles and line-list handling.

Units, fixed throughout this module:
  - spectral positions and widths in cm^-1 (all widths are HWHM)
  - line strength in cm^-1 / (molecule cm^-2), referenced to 296 K
  - pressure in Torr, temperature in K, molar mass in g/mol
  - absorption coefficient in cm^-1, number density in cm^-3

The Voigt profile is the real part of the Faddeeva function
w(z) = exp(-z^2) erfc(-iz) at z = x + iy, y >= 0, evaluated in numpy:
Weideman's 32-term rational approximation for the near points (J. A. C.
Weideman, SIAM J. Numer. Anal. 31, 1497, 1994), |x| < sqrt(50^2 - y^2),
and the asymptotic series i/(sqrt(pi) z) sum_k (2k-1)!!/(2z^2)^k,
k <= 4, beyond.  The error is about 4e-14 of the profile peak,
absolute; the pure-Gaussian limit (zero Lorentz width) is evaluated
exactly as exp(-x^2).  Relative error is therefore large only far out
in a nearly Gaussian tail, where exp(-x^2) is below ~1e-14 of the peak.

One routine, `_voigt_into`, evaluates the profile for both
`voigt_profile` and the line loop of `absorption_coefficient`, in place
on sorted detunings, one `out=` ufunc per operation and no product
written over one of its factors, so both give the same bits however the
points are split into calls.  On sorted x at fixed y the near points
are one run, found by two `searchsorted` calls: `voigt_profile` sorts
its input, and a line window is sorted already.
`absorption_coefficient` sizes its work arrays once per call, to the
widest line window, and reuses them for every line, so the loop
allocates nothing per line.

Line lists come either from a self-describing CSV or from fixed-width
160-column transition records (the common .par layout).  Column spans
used from each record, 1-based inclusive:

    1-2    molecule id        (int)
    3      isotopologue id    (0-9, then A=10, B=11, ...)
    4-15   center             [cm^-1]
    16-25  strength at 296 K  [cm^-1/(molecule cm^-2)], E10.3
    26-35  Einstein A         (ignored)
    36-40  air-broadening     [cm^-1/atm], HWHM at 296 K
    41-45  self-broadening    [cm^-1/atm], HWHM at 296 K
    46-55  lower-state energy [cm^-1]
    56-59  temperature exponent of the air width

Fortran-style 'D' exponents are accepted anywhere a float is expected.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import LineParseError

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
_W_FAR = 50.0   # |z| from which the asymptotic series takes over
_SQRT_PI = math.sqrt(math.pi)


def _far_series(z, w, r, t, u):
    """Asymptotic w(z) for |z| >= 50 into `w`; overwrites `z`, `r`, `t`, `u`.

    i/(sqrt(pi) z) (1 + r (1 + 3r (1 + 5r (1 + 7r)))) with r = 1/(2 z^2),
    one `out=` ufunc per operation, all arrays the same shape.  No
    product is written over one of its factors: numpy rounds such an
    in-place complex product of a single element differently.
    """
    np.multiply(z, z, out=r)
    np.divide(0.5, r, out=r)
    np.multiply(_SQRT_PI, z, out=t)
    np.divide(1j, t, out=z)
    np.multiply(7.0, r, out=w)
    np.add(1.0, w, out=w)
    np.multiply(5.0, r, out=t)
    np.multiply(t, w, out=u)
    np.add(1.0, u, out=u)
    np.multiply(3.0, r, out=t)
    np.multiply(t, u, out=w)
    np.add(1.0, w, out=w)
    np.multiply(r, w, out=u)
    np.add(1.0, u, out=u)
    np.multiply(z, u, out=w)


def _weideman(z, w, r, t, u):
    """Weideman's w(z) for |z| < 50 into `w`; overwrites `z`, `r`, `t`, `u`.

    With d = L - iz and Z = (L + iz)/d: w = 2 p(Z)/d^2 + 1/(sqrt(pi) d),
    p the 32-term polynomial by Horner's rule, each product written to
    the other of two arrays (see `_far_series`).
    """
    np.multiply(1j, z, out=t)
    np.subtract(_W_SCALE, t, out=r)
    np.add(_W_SCALE, t, out=t)
    np.divide(t, r, out=t)
    p, q = w, u
    p.fill(_W_COEFFS[0])
    for c in _W_COEFFS[1:]:
        np.multiply(p, t, out=q)
        np.add(q, c, out=q)
        p, q = q, p
    np.multiply(2.0, p, out=q)
    np.multiply(r, r, out=t)
    np.divide(q, t, out=q)
    np.multiply(_SQRT_PI, r, out=t)
    np.divide(1.0, t, out=t)
    np.add(q, t, out=w)


def _voigt_into(x, gamma_doppler_cm: float, gamma_lorentz_cm: float,
               work) -> None:
    """Overwrite the non-decreasing 1-d detunings `x` [cm^-1] with the
    unit-area Voigt profile [cm].

    With x' the detuning and y the Lorentz width, both in units of
    sigma sqrt(2), z = x' + iy goes into the first of the five complex
    arrays of `work`, each at least as long as `x`; all five are
    overwritten.  The sorted x' is a run of -inf, the finite run [a, b),
    then +inf and NaN (sorted last).  The near points -r < x' < r,
    r = sqrt(50^2 - y^2), are one run [i, j) of it and the rest of [a, b)
    is far.  Each branch runs only on a non-empty part, and with no near
    point one far-series call covers [a, b).  An infinite x' gets the
    profile's limit 0 without a series, which would form inf / inf.
    """
    sigma = gamma_doppler_cm / _SQRT_2LN2
    np.divide(x, sigma * math.sqrt(2.0), out=x)
    if gamma_lorentz_cm == 0.0:
        re_w = x
        np.multiply(x, x, out=x)
        np.negative(x, out=x)
        np.exp(x, out=x)
    else:
        n = x.size
        y = gamma_lorentz_cm / (sigma * math.sqrt(2.0))
        z, w, r, t, u = work[:, :n]
        z.real = x
        z.imag = y
        reach = math.sqrt(max(_W_FAR * _W_FAR - y * y, 0.0))
        a, i, c = np.searchsorted(x, (-math.inf, -reach, math.inf),
                                  side="right")
        j, b = np.searchsorted(x, (reach, math.inf), side="left")
        if i >= j:
            i = j = a
        if a < i:
            _far_series(z[a:i], w[a:i], r[a:i], t[a:i], u[a:i])
        if j < b:
            _far_series(z[j:b], w[j:b], r[j:b], t[j:b], u[j:b])
        if i < j:
            _weideman(z[i:j], w[i:j], r[i:j], t[i:j], u[i:j])
        w[:a] = 0.0
        w[b:c] = 0.0
        w[c:] = math.nan
        re_w = w.real
    np.divide(re_w, sigma * math.sqrt(2.0 * math.pi), out=x)


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


def number_density(p_torr: float, t_k: float) -> float:
    """Ideal-gas molecule density [cm^-3] at P [Torr], T [K]."""
    if p_torr < 0:
        raise ValueError(f"negative pressure {p_torr} Torr")
    if t_k <= 0:
        raise ValueError(f"non-positive temperature {t_k} K")
    return p_torr * TORR_TO_BARYE / (KB_ERG_K * t_k)


def doppler_hwhm(nu0_cm: float, t_k: float, molar_mass_g: float) -> float:
    """Doppler HWHM [cm^-1]: (nu0/c) * sqrt(2 ln2 kT / m)."""
    if t_k <= 0 or molar_mass_g <= 0 or nu0_cm <= 0:
        raise ValueError("center, temperature and molar mass must be positive")
    m_g = molar_mass_g / AVOGADRO
    return (nu0_cm / C_CM_S) * math.sqrt(2.0 * math.log(2.0) * KB_ERG_K * t_k / m_g)


def lorentz_hwhm(line: SpectralLine, p_torr: float, t_k: float,
                 x_self: float = 1.0) -> float:
    """Pressure-broadened HWHM [cm^-1] at total pressure P with self fraction x."""
    if not 0.0 <= x_self <= 1.0:
        raise ValueError(f"self fraction {x_self} outside [0, 1]")
    if p_torr < 0 or t_k <= 0:
        raise ValueError("pressure must be >= 0 and temperature > 0")
    gamma_ref = x_self * line.gamma_self + (1.0 - x_self) * line.gamma_air
    return (p_torr / ATM_TORR) * (T_REF_K / t_k) ** line.n_air * gamma_ref


def voigt_profile(delta_nu_cm, gamma_doppler_cm: float, gamma_lorentz_cm: float):
    """Unit-area Voigt profile [cm] at detuning(s) from line center.

    Both widths are HWHM; gamma_doppler must be positive (it always is for
    T > 0), gamma_lorentz may be zero (pure Gaussian limit).
    """
    if gamma_doppler_cm <= 0:
        raise ValueError(f"non-positive Doppler width {gamma_doppler_cm}")
    if gamma_lorentz_cm < 0:
        raise ValueError(f"negative Lorentz width {gamma_lorentz_cm}")
    delta = np.asarray(delta_nu_cm, dtype=float)
    order = np.argsort(delta, axis=None, kind="stable")
    x = delta.ravel()[order]
    _voigt_into(x, gamma_doppler_cm, gamma_lorentz_cm,
                np.empty((5, x.size), dtype=complex))
    phi = np.empty(x.size)
    phi[order] = x
    phi = phi.reshape(delta.shape)
    return float(phi) if np.isscalar(delta_nu_cm) else phi


def line_strength(line: SpectralLine, t_k: float,
                  partition_ratio: float = 1.0) -> float:
    """Strength rescaled from 296 K to T.

    Applies the Boltzmann population factor of the lower state and the
    stimulated-emission factor; `partition_ratio` is Q(296 K)/Q(T) and
    defaults to 1 (exact at 296 K, a few-percent effect for modest
    temperature offsets).
    """
    if t_k <= 0:
        raise ValueError(f"non-positive temperature {t_k} K")
    if partition_ratio <= 0:
        raise ValueError(f"non-positive partition ratio {partition_ratio}")
    boltz = math.exp(-C2_CM_K * line.elow_cm / t_k) / math.exp(
        -C2_CM_K * line.elow_cm / T_REF_K
    )
    stim = -math.expm1(-C2_CM_K * line.nu0_cm / t_k)
    stim_ref = -math.expm1(-C2_CM_K * line.nu0_cm / T_REF_K)
    return line.strength * partition_ratio * boltz * stim / stim_ref


def absorption_coefficient(lines, nu_grid_cm, p_torr: float, t_k: float,
                           molar_mass_g: float, x_self: float = 1.0,
                           wing_cutoff_cm: float = DEFAULT_WING_CUTOFF_CM,
                           partition_ratio: float = 1.0) -> np.ndarray:
    """Absorption coefficient alpha(nu) [cm^-1] on a wavenumber grid.

    Sums N(P,T) * S_j(T) * phi_j(nu) over all lines, each truncated at
    `wing_cutoff_cm` from its center.  The grid must be strictly
    increasing and positive.  phi_j is `voigt_profile`, bit for bit,
    evaluated in work arrays sized once to the widest line window.
    """
    nu = np.asarray(nu_grid_cm, dtype=float)
    if nu.ndim != 1 or nu.size < 1:
        raise ValueError("wavenumber grid must be a 1-d array")
    if np.any(~(nu > 0)):
        raise ValueError("wavenumber grid must be positive")
    if np.any(~(np.diff(nu) > 0)):
        raise ValueError("wavenumber grid must be strictly increasing")
    if not wing_cutoff_cm > 0:
        raise ValueError(f"non-positive wing cutoff {wing_cutoff_cm}")
    dens = number_density(p_torr, t_k)
    alpha = np.zeros_like(nu)
    lines = list(lines)
    lo, hi = _line_windows(nu, np.array([ln.nu0_cm for ln in lines]),
                          wing_cutoff_cm)
    width = int(np.max(hi - lo, initial=0))
    buf = np.empty(width)
    work = np.empty((5, width), dtype=complex)
    for line, a, b in zip(lines, lo, hi):
        if a >= b:
            continue
        g_d = doppler_hwhm(line.nu0_cm, t_k, molar_mass_g)
        g_l = lorentz_hwhm(line, p_torr, t_k, x_self)
        s = line_strength(line, t_k, partition_ratio)
        phi = buf[:b - a]
        np.subtract(nu[a:b], line.nu0_cm, out=phi)
        _voigt_into(phi, g_d, g_l, work)
        np.multiply(dens * s, phi, out=phi)
        alpha[a:b] += phi
    return alpha


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

# 0-based slices of the fixed-width record, with 1-based spans for errors
_PAR_FIELDS = {
    "mol_id": (slice(0, 2), (1, 2)),
    "iso_id": (slice(2, 3), (3, 3)),
    "nu0_cm": (slice(3, 15), (4, 15)),
    "strength": (slice(15, 25), (16, 25)),
    "einstein_a": (slice(25, 35), (26, 35)),
    "gamma_air": (slice(35, 40), (36, 40)),
    "gamma_self": (slice(40, 45), (41, 45)),
    "elow_cm": (slice(45, 55), (46, 55)),
    "n_air": (slice(55, 59), (56, 59)),
}
_PAR_MIN_LENGTH = 59


def _fortran_float(text: str) -> float:
    return float(text.strip().replace("D", "E").replace("d", "e"))


def _iso_code(ch: str) -> int:
    if ch.isdigit():
        return int(ch)
    if "A" <= ch <= "Z":
        return ord(ch) - ord("A") + 10
    raise ValueError(f"bad isotopologue code {ch!r}")


def parse_par_record(text: str, record: int | None = None) -> SpectralLine:
    """Parse one fixed-width transition record into a SpectralLine."""
    text = text.rstrip("\r\n")
    if len(text) < _PAR_MIN_LENGTH:
        raise LineParseError(
            f"record shorter than {_PAR_MIN_LENGTH} characters ({len(text)})",
            record=record,
        )
    raw = {}
    for name, (span, cols) in _PAR_FIELDS.items():
        field = text[span]
        try:
            if name == "mol_id":
                raw[name] = int(field)
            elif name == "iso_id":
                raw[name] = _iso_code(field)
            else:
                raw[name] = _fortran_float(field)
        except ValueError:
            raise LineParseError(
                f"cannot parse {name} from {field!r}", record=record, columns=cols
            ) from None
    del raw["einstein_a"]
    try:
        return SpectralLine(**raw)
    except ValueError as exc:
        raise LineParseError(str(exc), record=record) from None


def load_par_file(path, molecule: int | None = None,
                  isotopologue: int | None = None) -> list[SpectralLine]:
    """Read a fixed-width line list, optionally keeping one molecule/isotopologue."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for i, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            line = parse_par_record(text, record=i)
            if molecule is not None and line.mol_id != molecule:
                continue
            if isotopologue is not None and line.iso_id != isotopologue:
                continue
            out.append(line)
    if not out:
        raise LineParseError(f"no lines in {path} with molecule_id "
                             f"{molecule}, isotopologue_id {isotopologue}")
    return out


_CSV_REQUIRED = ("nu0_cm", "strength", "gamma_air", "gamma_self", "elow_cm", "n_air")
_CSV_OPTIONAL = ("mol_id", "iso_id")


def load_line_csv(path) -> list[SpectralLine]:
    """Read a line list from CSV with a header row naming each column."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in _CSV_REQUIRED if c not in header]
        if missing:
            raise LineParseError(f"missing columns {missing} in {path}")
        unknown = [c for c in header if c not in _CSV_REQUIRED + _CSV_OPTIONAL]
        if unknown:
            raise LineParseError(f"unknown columns {unknown} in {path}")
        for row in reader:
            try:
                kwargs = {c: float(row[c]) for c in _CSV_REQUIRED}
                for c in _CSV_OPTIONAL:
                    if row.get(c) not in (None, ""):
                        kwargs[c] = int(row[c])
                out.append(SpectralLine(**kwargs))
            except (TypeError, ValueError) as exc:
                raise LineParseError(str(exc), record=reader.line_num) from None
    if not out:
        raise LineParseError(f"no lines in {path}")
    return out


def save_line_csv(path, lines) -> None:
    """Write a line list as CSV (inverse of load_line_csv)."""
    cols = _CSV_REQUIRED + _CSV_OPTIONAL
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for ln in lines:
            writer.writerow([f"{getattr(ln, c):.10g}" for c in _CSV_REQUIRED]
                            + [ln.mol_id, ln.iso_id])
