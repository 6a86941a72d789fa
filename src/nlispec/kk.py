"""Causal link between absorption and refractive index.

For absorption alpha(nu) [cm^-1] on a wavenumber grid [cm^-1] the
dispersion relation gives the index change inside the window:

    n(nu) - 1 = baseline + (1 / 2 pi^2) PV int alpha(nu') / (nu'^2 - nu^2) dnu'

(the prefactor is 1/2pi^2 when everything is expressed in cm^-1; the
same relation with angular frequency carries c/pi).  The integral here
runs over the supplied window only: broadband contributions from outside
it vary slowly across a narrow band and belong to the caller's
`baseline` term.

The principal value is evaluated with the alternating-parity midpoint
rule on a uniform grid (Ohta & Ishida, Appl. Spectrosc. 42, 952, 1988):
target points take contributions only from grid points of opposite
index parity, each with weight 2h.  The singular point is thereby
skipped symmetrically and the rule converges at second order in h.

On the grid nu_j = nu_0 + j h every odd-offset weight splits exactly:

    1 / (nu_j^2 - nu_i^2)
        = [1 / ((j - i) h) - 1 / (2 nu_0 + (i + j) h)] / (2 nu_i)

The first term depends only on j - i (a Toeplitz sum), the second only
on i + j (a Hankel sum).  Each sum is one zero-padded real-FFT
convolution of alpha with a parity-masked kernel, so the transform
costs O(N log N) time and O(N) memory.  The factored form also avoids
the cancellation in forming nu_j^2 - nu_i^2 directly.
"""

from __future__ import annotations

import numpy as np

_PREFACTOR = 1.0 / (2.0 * np.pi**2)


def _checked_grid(nu_grid_cm) -> tuple[np.ndarray, float]:
    nu = np.asarray(nu_grid_cm, dtype=float)
    if nu.ndim != 1 or nu.size < 3:
        raise ValueError("wavenumber grid must be 1-d with at least 3 points")
    if nu[0] <= 0:
        raise ValueError("wavenumber grid must be positive")
    steps = np.diff(nu)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-8, atol=0.0):
        raise ValueError("wavenumber grid must be uniform and increasing")
    return nu, h


def _kernels(nu: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Toeplitz kernel 1 / (d h) at odd d = j - i, stored at d + N - 1, and
    Hankel kernel 1 / (2 nu_0 + s h) at odd s = i + j; zero at even ones."""
    s = np.arange(2 * nu.size - 1)
    d = s - (nu.size - 1)
    toeplitz, hankel = np.zeros(s.size), np.zeros(s.size)
    odd = d % 2 == 1
    toeplitz[odd] = 1.0 / (d[odd] * h)
    odd = s % 2 == 1
    hankel[odd] = 1.0 / (2.0 * nu[0] + s[odd] * h)
    return toeplitz, hankel


def index_change_weights(nu_grid_cm) -> np.ndarray:
    """Matrix W with (n - 1 - baseline) = W @ alpha on the shared grid.

    Dense O(N^2) form of the same factored rule, for linear uncertainty
    propagation: var(dn_i) = sum_j W_ij^2 var(alpha_j) for independent
    alpha errors.
    """
    nu, h = _checked_grid(nu_grid_cm)
    toeplitz, hankel = _kernels(nu, h)
    idx = np.arange(nu.size)
    w = (toeplitz[idx[None, :] - idx[:, None] + nu.size - 1]
         - hankel[idx[:, None] + idx[None, :]])
    return w * (_PREFACTOR * h / nu)[:, None]


def index_change_from_absorption(alpha_cm, nu_grid_cm, baseline: float = 0.0):
    """Index change n(nu) - 1 implied by alpha(nu) within the window."""
    nu, h = _checked_grid(nu_grid_cm)
    alpha = np.asarray(alpha_cm, dtype=float)
    if alpha.shape != nu.shape:
        raise ValueError(f"alpha shape {alpha.shape} != grid shape {nu.shape}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("absorption must be finite")
    n = nu.size
    toeplitz, hankel = _kernels(nu, h)
    # A circular length >= 2N - 1 keeps outputs N-1 .. 2N-2 free of
    # wrap-around.  There alpha * toeplitz holds minus the Toeplitz sum
    # (the kernel is odd) and reversed alpha * hankel the Hankel sum.
    size = 1 << (2 * n - 2).bit_length()
    spec = np.fft.rfft
    conv = np.fft.irfft(spec(alpha, size) * spec(toeplitz, size)
                        + spec(alpha[::-1], size) * spec(hankel, size), size)
    return baseline - (_PREFACTOR * h / nu) * conv[n - 1:2 * n - 1]
