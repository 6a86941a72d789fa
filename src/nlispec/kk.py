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

The FFT length is the smallest 2^a 3^b 5^c >= 2N - 1 (`fft_length`),
not the next power of two, which can be almost twice as long.  Each
kernel is built by strided slices straight into an array of that
length, transformed and dropped before the next is built, and the
spectra are multiplied and summed in place: at N = 20,069 (dense_band)
the transform peaks at 1.24 MiB of `tracemalloc`, about four arrays
of the FFT length.
"""

from __future__ import annotations

import numpy as np

_PREFACTOR = 1.0 / (2.0 * np.pi**2)


def checked_uniform_grid(nu_grid_cm) -> tuple[np.ndarray, float]:
    """The grid as a float array and its step; ValueError unless it is
    1-d, positive, increasing and uniform, with at least 3 points."""
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


def fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT runs fast at."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            length = p35
            while length < n:
                length *= 2
            best = min(best, length)
            p35 *= 3
        p5 *= 5
    return best


def _toeplitz_kernel(n: int, h: float, size: int) -> np.ndarray:
    """1 / (d h) at odd d = j - i, stored at d + n - 1 of `size` zeros."""
    kernel = np.zeros(size)
    inv = np.arange(1, n, 2, dtype=float)   # odd d > 0
    inv *= h
    np.divide(1.0, inv, out=inv)
    kernel[n:2 * n - 1:2] = inv
    np.negative(inv, out=kernel[n - 2::-2])   # the kernel is odd in d
    return kernel


def _hankel_kernel(nu0: float, n: int, h: float, size: int) -> np.ndarray:
    """1 / (2 nu_0 + s h) at odd s = i + j, stored at s of `size` zeros."""
    kernel = np.zeros(size)
    inv = np.arange(1, 2 * n - 1, 2, dtype=float)   # odd s
    inv *= h
    inv += 2.0 * nu0
    np.divide(1.0, inv, out=kernel[1:2 * n - 1:2])
    return kernel


def index_change_weights(nu_grid_cm) -> np.ndarray:
    """Matrix W with (n - 1 - baseline) = W @ alpha on the shared grid.

    Dense O(N^2) form of the same factored rule, for linear uncertainty
    propagation: var(dn_i) = sum_j W_ij^2 var(alpha_j) for independent
    alpha errors.
    """
    nu, h = checked_uniform_grid(nu_grid_cm)
    n = nu.size
    toeplitz = _toeplitz_kernel(n, h, 2 * n - 1)
    hankel = _hankel_kernel(nu[0], n, h, 2 * n - 1)
    idx = np.arange(n)
    w = (toeplitz[idx[None, :] - idx[:, None] + n - 1]
         - hankel[idx[:, None] + idx[None, :]])
    return w * (_PREFACTOR * h / nu)[:, None]


def index_change_from_absorption(alpha_cm, nu_grid_cm, baseline: float = 0.0):
    """Index change n(nu) - 1 implied by alpha(nu) within the window."""
    nu, h = checked_uniform_grid(nu_grid_cm)
    alpha = np.asarray(alpha_cm, dtype=float)
    if alpha.shape != nu.shape:
        raise ValueError(f"alpha shape {alpha.shape} != grid shape {nu.shape}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("absorption must be finite")
    n = nu.size
    # A circular length >= 2N - 1 keeps outputs N-1 .. 2N-2 free of
    # wrap-around.  There alpha * toeplitz holds minus the Toeplitz sum
    # (the kernel is odd) and reversed alpha * hankel the Hankel sum.
    # Each kernel lives only while it is transformed, and the spectra
    # are multiplied and summed in place.
    size = fft_length(2 * n - 1)
    rfft = np.fft.rfft
    conv = rfft(alpha, size)
    conv *= rfft(_toeplitz_kernel(n, h, size))
    hankel = rfft(alpha[::-1], size)
    hankel *= rfft(_hankel_kernel(nu[0], n, h, size))
    conv += hankel
    del hankel
    conv = np.fft.irfft(conv, size)[n - 1:2 * n - 1]
    conv *= _PREFACTOR * h / nu
    return baseline - conv
