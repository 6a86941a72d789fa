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
on i + j (a Hankel sum).  The factored form also avoids the cancellation
in forming nu_j^2 - nu_i^2 directly.

Even targets take only odd sources and odd targets only even ones, so
each parity class is its own pair of sums over about N/2 sources: one
zero-padded real-FFT convolution of the sources with the Toeplitz
kernel, one of the reversed sources with the Hankel kernel, whose
spectrum both classes share.  Each convolution spans N - 1 outputs, so
the FFT length is the smallest 2^a 3^b 5^c >= N - 1 (`fft_length`),
half the length one convolution over the whole grid would need, and the
transform costs O(N log N) time and O(N) memory.  At most four arrays of
that length are alive at once: at N = 20,069 (dense_band) the transform
peaks at 0.62 MiB of `tracemalloc`, and at the 200,001-point grid cap
at 6.1 MiB.  `index_change_weights` writes the same rule out densely
from the factored form, not from the FFT kernels.  Both FFT kernels are
1 / (a + b t) at the integers t < count, zero-padded to the FFT length,
so one routine, `_kernel`, builds them.
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


def _kernel(first: int, step: int, offset: float, count: int, h: float,
            size: int) -> np.ndarray:
    """1 / ((first + step t) h + offset) at t < `count` of `size` zeros."""
    kernel = np.zeros(size)
    inv = np.arange(first, first + step * count, step, dtype=float)
    inv *= h
    inv += offset
    np.divide(1.0, inv, out=kernel[:count])
    return kernel


def index_change_weights(nu_grid_cm) -> np.ndarray:
    """Matrix W with (n - 1 - baseline) = W @ alpha on the shared grid.

    The rule written out densely in its factored form, O(N^2), for
    linear uncertainty propagation: var(dn_i) = sum_j W_ij^2 var(alpha_j)
    for independent alpha errors.  It is also the test oracle of the
    FFT path.
    """
    nu, h = checked_uniform_grid(nu_grid_cm)
    idx = np.arange(nu.size)
    offset = idx[None, :] - idx[:, None]          # j - i
    opposite = offset % 2 == 1
    w = np.divide(1.0, offset * h, out=np.zeros(offset.shape),
                  where=opposite)
    w -= np.where(opposite,
                  1.0 / (2.0 * nu[0] + (idx[None, :] + idx[:, None]) * h),
                  0.0)
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
    # Targets of parity a take the sources of parity 1 - a, whose
    # convolutions span N - 1 entries (see `_opposite_parity_sum`).
    size = fft_length(n - 1)
    hankel = np.fft.rfft(_kernel(1, 2, 2.0 * nu[0], n - 1, h, size))
    out = np.empty(n)
    for a in (0, 1):
        out[a::2] = _opposite_parity_sum(alpha[1 - a::2], a, (n - a + 1) // 2,
                                         h, hankel, size)
    out *= _PREFACTOR * h / nu
    out += baseline
    return out


def _opposite_parity_sum(source, a: int, count: int, h: float, hankel,
                         size: int) -> np.ndarray:
    """Sum over j of alpha_j [1/((j - i) h) - 1/(2 nu_0 + (i + j) h)] at
    the `count` targets i = 2p + a, from the sources j = 2q + 1 - a.

    There j - i = 1 - 2a - 2(p - q) and i + j = 2(p + q) + 1.  With m
    sources beta the Toeplitz sum is beta * K at p + m - 1,
    K[t] = 1 / ((2m - 1 - 2a - 2t) h), and the Hankel sum reversed
    beta * G at the same index, G[t] = 1 / (2 nu_0 + (2t + 1) h), whose
    spectrum `hankel` both classes share.  Both kernels span N - 1
    entries, so a circular length `size` >= N - 1 keeps those outputs
    free of wrap-around.  The Toeplitz kernel is transformed before the
    sources are, so with the caller's output and `hankel` at most four
    arrays of `size` are alive at once.
    """
    m = source.size
    rfft = np.fft.rfft
    conv = rfft(_kernel(2 * m - 1 - 2 * a, -2, 0.0, m + count - 1, h, size))
    conv *= rfft(source, size)
    reflected = rfft(source[::-1], size)
    reflected *= hankel
    conv -= reflected
    del reflected
    return np.fft.irfft(conv, size)[m - 1:m - 1 + count]
