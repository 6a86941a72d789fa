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

The caller gives the idler wavenumber grid; for a run that is
`config.gas_grid`, which covers the map's idler band.  This module
composes no line physics: alpha is `lineshape.absorption_coefficient`'s,
which raises `ValidityRangeError` naming the quantity that overflows,
and the index is `kk.index_change_from_absorption`'s.  Wavelength
lookups interpolate linearly on the stored grid and refuse to
extrapolate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispersion import GasIndexModel, gas_index
from .errors import ValidityRangeError
from .interferometer import nu_cm_from_lambda_nm
from .kk import index_change_from_absorption
from .lineshape import (DEFAULT_WING_CUTOFF_CM, LineArrays,
                        absorption_coefficient)


@dataclass(frozen=True)
class GasState:
    """Gas sample at one (P, T), with optional idler-band line response."""

    p_torr: float
    t_k: float
    visible: GasIndexModel | None = None
    idler_nu_cm: np.ndarray | None = field(default=None, repr=False)
    idler_alpha_cm: np.ndarray | None = field(default=None, repr=False)
    idler_index: np.ndarray | None = field(default=None, repr=False)

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
        return cls(p_torr=0.0, t_k=t_k)

    @classmethod
    def from_lines(cls, lines, p_torr, t_k, molar_mass_g, *, nu_grid_cm,
                   visible=None, x_self=1.0,
                   wing_cutoff_cm=DEFAULT_WING_CUTOFF_CM,
                   partition_ratio=1.0) -> "GasState":
        """Build a causal sample from a line list (a `LineArrays` or an
        iterable of `SpectralLine`s) on the grid `nu_grid_cm`.

        The caller sizes the grid (`config.gas_grid` for a run).  alpha
        comes from the line-by-line sum, whose overflow raises
        `ValidityRangeError` there; the idler index is
        1 + baseline + KK[alpha], where the baseline is the visible
        n - 1 at this (P, T) (zero without a visible model), standing in
        for all broadband dispersion from outside the window.  An index
        outside (0, inf) raises `ValidityRangeError` too.
        """
        lines = LineArrays.of(lines)
        if not len(lines):
            raise ValueError("need at least one line")
        nu = np.asarray(nu_grid_cm, dtype=float)
        alpha = absorption_coefficient(lines, nu, p_torr, t_k, molar_mass_g,
                                       x_self=x_self,
                                       wing_cutoff_cm=wing_cutoff_cm,
                                       partition_ratio=partition_ratio)
        baseline = gas_index(visible, p_torr, t_k) - 1.0
        index = 1.0 + index_change_from_absorption(alpha, nu, baseline=baseline)
        if not np.all(index > 0) or not np.all(np.isfinite(index)):
            raise ValidityRangeError(
                "idler index leaves (0, inf): absorption too strong for "
                "this grid")
        return cls(p_torr=p_torr, t_k=t_k, visible=visible, idler_nu_cm=nu,
                   idler_alpha_cm=alpha, idler_index=index)

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

