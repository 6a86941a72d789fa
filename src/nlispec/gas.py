"""State of the gas filling the gap between the two crystals.

A GasState bundles everything the interferometer model needs about the
sample at one pressure and temperature:

  - a visible-range index (pump and signal see a flat, pressure-scaled
    n - 1; molecular resonances live far away in the IR),
  - the idler-band absorption alpha(nu) on a wavenumber grid,
  - the idler-band refractive index on the same grid.

When built from a line list the idler index is derived from the
absorption through the dispersion relation, so synthetic samples are
causal by construction: retrieving alpha and n independently from a
simulated measurement and checking them against each other is then a
meaningful test, not a tautology.

Wavelength lookups interpolate linearly on the stored grid and refuse
to extrapolate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispersion import GasIndexModel, gas_index
from .errors import ValidityRangeError
from .kk import index_change_from_absorption
from .lineshape import (DEFAULT_WING_CUTOFF_CM, absorption_coefficient,
                        doppler_hwhm, lorentz_hwhm)


def nu_cm_from_lambda_nm(lambda_nm):
    """Vacuum wavenumber [cm^-1] from vacuum wavelength [nm]."""
    lam = np.asarray(lambda_nm, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("non-positive wavelength")
    nu = 1.0e7 / lam
    return float(nu) if np.isscalar(lambda_nm) else nu


def lambda_nm_from_nu_cm(nu_cm):
    """Vacuum wavelength [nm] from vacuum wavenumber [cm^-1]."""
    return nu_cm_from_lambda_nm(nu_cm)  # the map is its own inverse


@dataclass(frozen=True)
class GasState:
    """Gas sample at one (P, T), with optional idler-band line response."""

    p_torr: float
    t_k: float
    visible: GasIndexModel | None = None
    idler_nu_cm: np.ndarray | None = field(default=None, repr=False)
    idler_alpha_cm: np.ndarray | None = field(default=None, repr=False)
    idler_index: np.ndarray | None = field(default=None, repr=False)
    label: str = ""

    def __post_init__(self):
        if self.p_torr < 0:
            raise ValueError(f"negative pressure {self.p_torr} Torr")
        if self.t_k <= 0:
            raise ValueError(f"non-positive temperature {self.t_k} K")
        arrays = (self.idler_nu_cm, self.idler_alpha_cm, self.idler_index)
        if any(a is not None for a in arrays):
            if any(a is None for a in arrays):
                raise ValueError("idler grid, alpha and index must come together")
            if not (len(self.idler_nu_cm) == len(self.idler_alpha_cm)
                    == len(self.idler_index)):
                raise ValueError("idler arrays must share one grid")

    @classmethod
    def vacuum(cls, t_k: float = 300.0) -> "GasState":
        return cls(p_torr=0.0, t_k=t_k, label="vacuum")

    @classmethod
    def from_lines(cls, lines, p_torr, t_k, molar_mass_g, *, visible=None,
                   nu_grid_cm=None, x_self=1.0,
                   wing_cutoff_cm=DEFAULT_WING_CUTOFF_CM,
                   partition_ratio=1.0, baseline=None, label="") -> "GasState":
        """Build a causal sample from a line list.

        alpha comes from the line-by-line sum; the idler index is
        1 + baseline + KK[alpha].  `baseline` defaults to the visible
        n - 1 at this (P, T) (zero without a visible model), standing in
        for all broadband dispersion from outside the window.  Without
        an explicit `nu_grid_cm` the grid spans the lines plus their
        wing cutoff at roughly an eighth of the narrowest linewidth.
        """
        lines = list(lines)
        if not lines:
            raise ValueError("need at least one line")
        if nu_grid_cm is None:
            nu_grid_cm = default_line_grid(lines, p_torr, t_k, molar_mass_g,
                                           x_self=x_self,
                                           wing_cutoff_cm=wing_cutoff_cm)
        nu = np.asarray(nu_grid_cm, dtype=float)
        alpha = absorption_coefficient(lines, nu, p_torr, t_k, molar_mass_g,
                                       x_self=x_self,
                                       wing_cutoff_cm=wing_cutoff_cm,
                                       partition_ratio=partition_ratio)
        if baseline is None:
            baseline = gas_index(visible, p_torr, t_k) - 1.0
        index = 1.0 + index_change_from_absorption(alpha, nu, baseline=baseline)
        return cls(p_torr=p_torr, t_k=t_k, visible=visible, idler_nu_cm=nu,
                   idler_alpha_cm=alpha, idler_index=index, label=label)

    # ---------------------------------------------------------- queries

    def visible_index(self) -> float:
        """Index seen by pump and signal (flat across the visible)."""
        return gas_index(self.visible, self.p_torr, self.t_k)

    def _interp_idler(self, lambda_nm, values, flat):
        if values is None:
            out = np.full_like(np.asarray(lambda_nm, dtype=float), flat)
            return float(out) if np.isscalar(lambda_nm) else out
        nu = nu_cm_from_lambda_nm(lambda_nm)
        lo, hi = self.idler_nu_cm[0], self.idler_nu_cm[-1]
        if np.any(nu < lo) or np.any(nu > hi):
            raise ValidityRangeError(
                f"idler wavenumber outside stored grid [{lo:.6g}, {hi:.6g}] cm^-1"
            )
        out = np.interp(nu, self.idler_nu_cm, values)
        return float(out) if np.isscalar(lambda_nm) else out

    def idler_absorption_at(self, lambda_nm):
        """alpha [cm^-1] at idler wavelength(s) [nm]."""
        return self._interp_idler(lambda_nm, self.idler_alpha_cm, 0.0)

    def idler_index_at(self, lambda_nm):
        """Refractive index at idler wavelength(s) [nm]."""
        return self._interp_idler(lambda_nm, self.idler_index,
                                  self.visible_index())


# one cap for every idler grid; the FFT KK transform takes tens of ms here
MAX_GRID_POINTS = 200001


def line_grid_step(lines, p_torr, t_k, molar_mass_g, x_self=1.0) -> float:
    """Grid step resolving every line: an eighth of the narrowest HWHM."""
    return min(max(doppler_hwhm(ln.nu0_cm, t_k, molar_mass_g),
                   lorentz_hwhm(ln, p_torr, t_k, x_self))
               for ln in lines) / 8.0


def uniform_grid(lo, hi, step, hint: str) -> np.ndarray:
    """Grid from lo to hi at no more than `step`; `hint` ends the cap error."""
    npts = int(np.ceil((hi - lo) / step)) + 1
    if npts > MAX_GRID_POINTS:
        raise ValueError(
            f"grid needs {npts} points (> {MAX_GRID_POINTS}); {hint}")
    return np.linspace(lo, hi, npts)


def default_line_grid(lines, p_torr, t_k, molar_mass_g, *, x_self=1.0,
                      wing_cutoff_cm=DEFAULT_WING_CUTOFF_CM) -> np.ndarray:
    """Uniform wavenumber grid resolving every line in the list."""
    centers = [ln.nu0_cm for ln in lines]
    return uniform_grid(
        min(centers) - wing_cutoff_cm, max(centers) + wing_cutoff_cm,
        line_grid_step(lines, p_torr, t_k, molar_mass_g, x_self),
        "pass nu_grid_cm explicitly")
