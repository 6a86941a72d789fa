"""Refractive-index models for the crystal, the gas, and vacuum.

Conventions:
  - Sellmeier evaluation takes wavelength in micrometres (as in the
    coefficient files); callers working in nm convert at the boundary.
  - Two functional forms are supported, declared per axis in the
    coefficient file:
        sellmeier-poles:  n^2 = a0 + sum_k B_k / (lm^2 - C_k) + E * lm^2
        sellmeier-ratio:  n^2 = a0 + sum_k B_k * lm^2 / (lm^2 - C_k)
    with lm the wavelength in um and C_k in um^2.
  - Evaluation outside a model's validity range raises; nothing is ever
    extrapolated silently.
  - The gas index follows the ideal-gas pressure law
        n(P, T) = 1 + P * (n0 - 1) / (P0 * (1 + (T - T0) / T0))
    which is affine in P with n(0, T) = 1 exactly.
  - `read_ini` reads both INI inputs, crystal files and run configs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidityRangeError, text_input

SELLMEIER_FORMS = ("sellmeier-poles", "sellmeier-ratio")


@dataclass(frozen=True)
class SellmeierModel:
    """One refractive-index branch n(lm) with an explicit validity window."""

    form: str
    a0: float
    poles: tuple[tuple[float, float], ...]
    lambda2_coeff: float = 0.0
    valid_um: tuple[float, float] = (0.0, math.inf)
    name: str = ""

    def __post_init__(self):
        if self.form not in SELLMEIER_FORMS:
            raise ValueError(f"unknown Sellmeier form {self.form!r}")
        lo, hi = self.valid_um
        if not (0 <= lo < hi):
            raise ValueError(f"bad validity range {self.valid_um}")
        if self.form == "sellmeier-ratio" and self.lambda2_coeff != 0.0:
            raise ValueError("sellmeier-ratio form takes no lambda^2 term")

    @classmethod
    def constant(cls, n: float, valid_um=(0.0, math.inf), name="constant"):
        """Dispersionless model, mainly for synthetic test fixtures."""
        return cls("sellmeier-ratio", n * n, (), 0.0, tuple(valid_um), name)

    def check_range(self, lambda_um):
        lam = np.asarray(lambda_um, dtype=float)
        lo, hi = self.valid_um
        if not np.all((lam >= lo) & (lam <= hi)):  # NaN is outside
            raise ValidityRangeError(
                f"wavelength {np.min(lam):.4g}-{np.max(lam):.4g} um outside "
                f"validity range [{lo:g}, {hi:g}] um of {self.name or self.form}"
            )

    def index(self, lambda_um):
        """n at wavelength(s) in um; raises outside the validity range."""
        self.check_range(lambda_um)
        lam2 = np.square(np.asarray(lambda_um, dtype=float))
        n2 = np.full_like(lam2, self.a0)
        for b, c in self.poles:
            if self.form == "sellmeier-poles":
                n2 += b / (lam2 - c)
            else:
                n2 += b * lam2 / (lam2 - c)
        n2 += self.lambda2_coeff * lam2
        if np.any(n2 <= 1.0):
            raise ValidityRangeError(
                f"model {self.name or self.form} yields n <= 1 inside its "
                "declared validity range; coefficient file is inconsistent"
            )
        n = np.sqrt(n2)
        return float(n) if np.isscalar(lambda_um) else n


@dataclass(frozen=True)
class UniaxialCrystalIndex:
    """Ordinary/extraordinary dispersion of a uniaxial crystal plus its cut.

    `cut_angle_rad` is the optic-axis angle to the surface normal, in
    (0, pi/2]; the pump's propagation angle to the axis defaults to it.
    """

    ordinary: SellmeierModel
    extraordinary: SellmeierModel
    cut_angle_rad: float
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.cut_angle_rad <= math.pi / 2:
            raise ValueError(
                f"cut angle {self.cut_angle_rad:.4g} rad outside (0, pi/2]"
            )

    def n_ordinary(self, lambda_um):
        return self.ordinary.index(lambda_um)

    def n_extraordinary(self, lambda_um):
        return self.extraordinary.index(lambda_um)


def uniaxial_index(crystal: UniaxialCrystalIndex, lambda_um, theta_axis: float):
    """Extraordinary-wave index at propagation angle `theta_axis` to the axis.

    Standard uniaxial ellipsoid: 1/n^2 = cos^2(t)/n_o^2 + sin^2(t)/n_e^2.
    theta_axis = 0 recovers n_o, pi/2 recovers n_e.
    """
    n_o = crystal.n_ordinary(lambda_um)
    n_e = crystal.n_extraordinary(lambda_um)
    ct, st = math.cos(theta_axis), math.sin(theta_axis)
    inv_n2 = (ct * ct) / (n_o * n_o) + (st * st) / (n_e * n_e)
    return 1.0 / np.sqrt(inv_n2)


@dataclass(frozen=True)
class GasIndexModel:
    """Reference visible-range index n0 at pressure P0 [Torr], temperature T0 [K]."""

    n0: float
    p0_torr: float = 760.0
    t0_k: float = 273.15

    def __post_init__(self):
        if self.n0 <= 1.0:
            raise ValueError(f"reference index n0={self.n0} must exceed 1")
        if self.p0_torr <= 0 or self.t0_k <= 0:
            raise ValueError("reference pressure and temperature must be positive")


def gas_index(model: GasIndexModel | None, p_torr: float, t_k: float) -> float:
    """Gas refractive index at pressure P [Torr] and temperature T [K]."""
    if p_torr < 0:
        raise ValueError(f"negative pressure {p_torr} Torr")
    if t_k <= 0:
        raise ValueError(f"non-positive temperature {t_k} K")
    if model is None:
        return 1.0
    return 1.0 + p_torr * (model.n0 - 1.0) / (
        model.p0_torr * (1.0 + (t_k - model.t0_k) / model.t0_k)
    )


def wavevector(n, lambda_):
    """Wavevector magnitude k = 2 pi n / lambda, in rad per unit of lambda.

    Accepts any positive index: the phase index of a gas dips below 1
    on the blue side of an absorption line, which is legitimate.
    """
    n = np.asarray(n, dtype=float)
    lam = np.asarray(lambda_, dtype=float)
    if np.any(n <= 0.0):
        raise ValueError("non-positive refractive index")
    if np.any(lam <= 0.0):
        raise ValueError("non-positive wavelength")
    k = 2.0 * np.pi * n / lam
    return float(k) if k.ndim == 0 else k


def _parse_pair(raw: str, key: str, path: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected two comma-separated numbers, got {raw!r}",
                          key=f"{path}:{key}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(str(exc), key=f"{path}:{key}") from None


def _axis_model(section, path: str, axis: str) -> SellmeierModel:
    known = {"form", "a0", "lambda2", "valid_um"}
    form = section.get("form", "").strip()
    if form not in SELLMEIER_FORMS:
        raise ConfigError(f"form must be one of {SELLMEIER_FORMS}, got {form!r}",
                          key=f"{path}:[{axis}] form")
    poles = []
    for key in section:
        if key.startswith("pole"):
            poles.append(_parse_pair(section[key], key, path))
        elif key not in known:
            raise ConfigError(f"unknown key {key!r}", key=f"{path}:[{axis}]")
    if "valid_um" not in section:
        raise ConfigError("missing valid_um", key=f"{path}:[{axis}]")
    valid = _parse_pair(section["valid_um"], "valid_um", path)
    try:   # a number that does not parse, or a model that does not hold
        return SellmeierModel(form, float(section.get("a0", "0")),
                              tuple(poles), float(section.get("lambda2", "0")),
                              valid, name=f"{path}:{axis}")
    except ValueError as exc:
        raise ConfigError(str(exc), key=f"{path}:[{axis}]") from None


def read_ini(path) -> configparser.ConfigParser:
    """The INI file `path`: UTF-8, `#` or `;` comments also after a value,
    no `%` interpolation.  A file that does not decode or parse raises
    ConfigError naming it; OSError passes through."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    with open(path, encoding="utf-8") as fh, text_input(path, ConfigError):
        try:
            cp.read_file(fh, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse: {exc}", key=str(path))
    return cp


def load_crystal_file(path) -> dict[str, SellmeierModel]:
    """Read a crystal coefficient file; returns {'ordinary': m, 'extraordinary': m}.

    The file is INI (`read_ini`) with one section per axis; each section
    declares its own `form`, `a0`, `pole<N> = B, C` entries, an optional
    `lambda2` term (poles form only) and a mandatory `valid_um = lo, hi`
    window.  Wavelengths are micrometres throughout.
    """
    cp = read_ini(path)
    models = {}
    for axis in ("ordinary", "extraordinary"):
        if not cp.has_section(axis):
            raise ConfigError(f"missing [{axis}] section", key=str(path))
        models[axis] = _axis_model(cp[axis], str(path), axis)
    extra = set(cp.sections()) - {"ordinary", "extraordinary", "material"}
    if extra:
        raise ConfigError(f"unknown sections {sorted(extra)}", key=str(path))
    return models


def load_uniaxial_crystal(path, cut_angle_rad: float) -> UniaxialCrystalIndex:
    models = load_crystal_file(path)
    return UniaxialCrystalIndex(
        models["ordinary"], models["extraordinary"], cut_angle_rad, name=str(path)
    )
