"""One-sided four-step FFT of real signals, used for the per-ramp spectral analysis.

The transform is the plain unnormalized DFT, X[k] = sum_n x[n] e^(-2*pi*i*k*n/N),
for k = 0..N/2 only, in the four-step form of Gentleman and Sande (1966) and
Bailey (1990): with N = n1*n2, an n2-point DFT as one real matrix product, one
twiddle multiply and an n1-point DFT pruned to the bins kept (Markel 1971), so
whole stacks of ramp windows transform in one call.
"""

from __future__ import annotations

import numpy as np

_PLANS: dict[int, tuple] = {}


def _roots(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """e^(-2*pi*i*a*b/m) over the outer product of a and b, exponents reduced mod m."""
    return np.exp(-2j * np.pi * ((np.outer(a, b) % m) / m))


def _plan(n: int) -> tuple:
    """(n1, n2, n2-point DFT as a real [j2, k2 * (re, im)] matrix, [j1, k2] twiddle,
    rows k1 <= n1/2 of the n1-point DFT) for n."""
    plan = _PLANS.get(n)
    if plan is None:
        n1 = 1 << (n.bit_length() - 1) // 2
        n2 = n // n1
        r1, r2 = np.arange(n1), np.arange(n2)
        f2 = _roots(r2, r2, n2).view(float)     # each complex column as (re, im) columns
        plan = _PLANS[n] = (n1, n2, f2, _roots(r1, r2, n), _roots(r1[: n1 // 2 + 1], r1, n1))
    return plan


def fft(x: np.ndarray) -> np.ndarray:
    """One-sided DFT along the last axis of real input, [..., n] to [..., n/2 + 1];
    n must be a power of two.

    Input j = j1 + n1*j2 and output k = k2 + n2*k1, so the n2-point DFT runs over
    j2 and the n1-point DFT over j1, whose [k1, k2] product is in bin order.
    """
    if np.iscomplexobj(x):
        raise ValueError("FFT input must be real; this transform returns the one-sided spectrum")
    x = np.asarray(x, dtype=float)      # float64, so the stage-1 product views as complex128
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"FFT length must be a power of two, got {n}")
    n1, n2, f2, twiddle, f1 = _plan(n)
    y = (x.reshape(-1, n2, n1).transpose(0, 2, 1) @ f2).view(complex)    # [rows, j1, k2]
    y *= twiddle
    return (f1 @ y).reshape(*x.shape[:-1], f1.shape[0] * n2)[..., : n // 2 + 1]
