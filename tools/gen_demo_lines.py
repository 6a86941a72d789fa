"""Build the synthetic demo band shipped as co2_synthetic_lines.csv.

A P/R-branch-like comb around 2349 cm^-1: 37 lines, 2.5 cm^-1 apart,
lower-state energies on a rigid-rotor ramp and intensities following a
Boltzmann-weighted double horn.  Broadening coefficients are scaled up
about 1000-1500x over realistic values (gamma_self 145 and gamma_air
95 cm^-1/atm, against ~0.1 and ~0.07 for CO2), so the lines stay
pressure broadened and span several map rows at the ~10 Torr
conditions of the demo config; the list is for exercising the
pipeline, not for spectroscopy.

Strengths are normalised so the peak absorption coefficient at
10.5 Torr / 300 K comes out near 0.45 cm^-1.

Usage: python3 tools/gen_demo_lines.py
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from nlispec.lineshape import (
    C2_CM_K,
    SpectralLine,
    absorption_coefficient,
    save_line_csv,
)

BAND_CENTER_CM = 2349.0
SPACING_CM = 2.5
N_EACH_SIDE = 18
B_ROT_CM = 0.39
GAMMA_AIR = 95.0    # cm^-1/atm, deliberately exaggerated
GAMMA_SELF = 145.0
N_AIR = 0.75
MOLAR_MASS = 44.0095
P_TORR = 10.5
T_K = 300.0
TARGET_PEAK_ALPHA = 0.45  # cm^-1


def make_lines(scale):
    lines = []
    for m in range(-N_EACH_SIDE, N_EACH_SIDE + 1):
        j = abs(m)
        elow = B_ROT_CM * j * (j + 1)
        # double horn: degeneracy-like ramp times Boltzmann factor
        weight = (j + 1) * math.exp(-C2_CM_K * elow / 296.0)
        lines.append(SpectralLine(
            nu0_cm=BAND_CENTER_CM + m * SPACING_CM,
            strength=scale * weight,
            gamma_air=GAMMA_AIR,
            gamma_self=GAMMA_SELF,
            elow_cm=elow,
            n_air=N_AIR,
            mol_id=2,
            iso_id=1,
        ))
    return lines


def peak_alpha(lines):
    nu = np.linspace(BAND_CENTER_CM - 80.0, BAND_CENTER_CM + 80.0, 4001)
    alpha = absorption_coefficient(lines, nu, P_TORR, T_K, MOLAR_MASS,
                                   wing_cutoff_cm=60.0)
    return float(alpha.max())


def main():
    probe = peak_alpha(make_lines(1.0e-18))
    scale = 1.0e-18 * TARGET_PEAK_ALPHA / probe
    lines = make_lines(scale)
    out = os.path.join(os.path.dirname(__file__), "..", "src", "nlispec",
                       "data", "co2_synthetic_lines.csv")
    save_line_csv(out, lines)
    print(f"wrote {len(lines)} lines to {out}")
    print(f"peak alpha at {P_TORR} Torr / {T_K} K: {peak_alpha(lines):.4f} cm^-1")


if __name__ == "__main__":
    main()
