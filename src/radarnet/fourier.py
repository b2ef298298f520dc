"""Four-step FFT used for the per-ramp spectral analysis.

The transform is the plain unnormalized DFT, X[k] = sum_n x[n] e^(-2*pi*i*k*n/N),
computed in the four-step form of Gentleman and Sande (1966) and Bailey (1990):
with N = n1*n2, an n2-point DFT, one twiddle multiply and an n1-point DFT, each
DFT a matrix product, so whole stacks of ramp windows transform in one call.
"""

from __future__ import annotations

import numpy as np

_PLANS: dict[int, tuple] = {}


def _roots(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """e^(-2*pi*i*a*b/m) over the outer product of a and b, exponents reduced mod m."""
    return np.exp(-2j * np.pi * ((np.outer(a, b) % m) / m))


def _plan(n: int) -> tuple:
    """(n1, n2, n2-point DFT matrix, [k2, j1] twiddle, n1-point DFT matrix) for n."""
    plan = _PLANS.get(n)
    if plan is None:
        n1 = 1 << (n.bit_length() - 1) // 2
        n2 = n // n1
        r1, r2 = np.arange(n1), np.arange(n2)
        plan = _PLANS[n] = (n1, n2, _roots(r2, r2, n2), _roots(r2, r1, n), _roots(r1, r1, n1))
    return plan


def fft(x: np.ndarray) -> np.ndarray:
    """Complex DFT along the last axis; the length must be a power of two.

    Input j = j1 + n1*j2 and output k = k2 + n2*k1, so the n2-point DFT runs over
    j2 and the n1-point DFT over j1.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"FFT length must be a power of two, got {n}")
    n1, n2, f2, twiddle, f1 = _plan(n)
    y = f2 @ x.reshape(-1, n2, n1)           # [rows, k2, j1]
    y *= twiddle
    return (y @ f1).transpose(0, 2, 1).reshape(x.shape)
