"""Independent reference implementations used to verify the pipeline.

These stay deliberately naive (quadratic DFT, explicit loops) so they share
no code path with the routines under test.
"""

import numpy as np

from radarnet.radar import SPEED_OF_LIGHT


def naive_dft(x):
    """O(N^2) complex DFT of a 1-D signal via the explicit outer-product sum."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return w @ x


def four_step_fft(x):
    """Complex DFT along the last axis (length a power of two) in the four-step form
    with complex matrices throughout: with n = n1*n2, input j = j1 + n1*j2 and output
    k = k2 + n2*k1, the n2-point DFT matrix times the [j2, j1] view, a twiddle multiply,
    the n1-point DFT matrix and a transpose back to bin order.  The one-sided
    transform must give the first n/2 + 1 of these bins byte for byte."""
    x = np.asarray(x)
    n = x.shape[-1]
    n1 = 1 << (n.bit_length() - 1) // 2
    n2 = n // n1
    r1, r2 = np.arange(n1), np.arange(n2)

    def roots(a, b, m):
        return np.exp(-2j * np.pi * ((np.outer(a, b) % m) / m))

    y = roots(r2, r2, n2) @ x.reshape(-1, n2, n1)       # [rows, k2, j1]
    y *= roots(r2, r1, n)
    return (y @ roots(r1, r1, n1)).transpose(0, 2, 1).reshape(x.shape)


def parseval_one_sided(spectrum, x):
    """Relative gap between the one-sided energy |X_0|^2 + |X_{n/2}|^2 +
    2 * sum_{0<k<n/2} |X_k|^2 of a real signal x and n * sum x^2."""
    power = np.abs(spectrum) ** 2
    lhs = power[0] + power[-1] + 2 * np.sum(power[1:-1])
    rhs = x.size * np.sum(x * x)
    return abs(lhs - rhs) / rhs


def naive_dft_modulus_onesided(x, fft_size):
    padded = np.zeros(fft_size, dtype=float)
    padded[: len(x)] = x
    return np.abs(naive_dft(padded))[: fft_size // 2 + 1]


def peak_bin(column):
    """Index of the largest spectral magnitude."""
    return int(np.argmax(column))


def spectrogram_peak_frequencies(sig, params):
    """Peak frequency per up/down window via the naive DFT, in Hz.

    Returns (up_freqs, down_freqs) with one entry per window of that
    polarity; frequencies are nonnegative (folded), bin-quantized.
    """
    from radarnet.radar import RampPolarity

    spr = sig.radar.samples_per_ramp
    n_full = sig.samples.size // spr
    windows = sig.samples[: n_full * spr].reshape(n_full, spr)
    bin_hz = sig.radar.sample_rate / params.fft_size
    freqs = []
    for w in windows:
        mod = naive_dft_modulus_onesided(w, params.fft_size)
        freqs.append(peak_bin(mod) * bin_hz)
    freqs = np.array(freqs)
    if sig.first_ramp is RampPolarity.UP:
        return freqs[0::2], freqs[1::2]
    return freqs[1::2], freqs[0::2]


def naive_beat_signal(scenario, params, first_ramp_up=True):
    """Samples of a vehicle pass from the one-shot formula: every ramp's
    cosines at once in one [ramps, scatterers, samples] array, summed by one
    einsum.  The Doppler term is its own signed 2 v_radial / wavelength, added on
    up ramps and subtracted on down ramps; for a scatterer behind the radar it
    equals radar.beat_frequencies' magnitude form."""
    fs = params.sample_rate
    h = params.mount_height
    spr = params.samples_per_ramp
    n_ramps = int(np.ceil(scenario.footprint_length / scenario.speed / params.t_ramp))
    n_ramps = max(n_ramps + n_ramps % 2, 2)
    offsets = np.array(scenario.offsets)
    amps = np.array(scenario.amplitudes)
    rng = np.random.default_rng(scenario.seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, offsets.size)

    t_mid = (np.arange(n_ramps) + 0.5) * params.t_ramp
    d = scenario.entry_distance + offsets[None, :] + scenario.speed * t_mid[:, None]
    slant = np.hypot(h, d)
    v_radial = scenario.speed * d / slant
    f_range = params.ramp_slope * (2.0 * slant / SPEED_OF_LIGHT)
    f_doppler = 2.0 * v_radial / params.wavelength
    up = np.arange(n_ramps) % 2 == (0 if first_ramp_up else 1)
    signs = np.where(up, 1.0, -1.0)
    f_beat = f_range + signs[:, None] * f_doppler

    u = (d - scenario.entry_distance) / scenario.footprint_length
    envelope = np.where((u > 0.0) & (u < 1.0), 0.5 - 0.5 * np.cos(2.0 * np.pi * u), 0.0)
    weights = amps[None, :] * envelope
    weights = np.where(np.abs(f_beat) < fs / 2.0, weights, 0.0)

    t_local = np.arange(spr) / fs
    args = 2.0 * np.pi * f_beat[:, :, None] * t_local[None, None, :] + phases[None, :, None]
    samples = np.einsum("rk,rks->rs", weights, np.cos(args)).reshape(-1)
    if scenario.noise_sigma > 0:
        samples = samples + rng.normal(0.0, scenario.noise_sigma, samples.shape)
    return samples


def naive_conv2d(x, w, b, stride, padding):
    """Cross-correlation of an [N, C, H, W] batch with [F, C, k, k] kernels plus a
    per-filter bias, by explicit loops in float64.  Positions outside the input
    count as zero: they are skipped by their index, no padded copy is made."""
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    y = np.zeros((n, f, oh, ow))
    for i in range(n):
        for o in range(f):
            for r in range(oh):
                for q in range(ow):
                    acc = b[o]
                    for kh in range(k):
                        row = r * stride + kh - padding
                        if not 0 <= row < h:
                            continue
                        for kw in range(k):
                            col = q * stride + kw - padding
                            if 0 <= col < wd:
                                for ch in range(c):
                                    acc += x[i, ch, row, col] * w[o, ch, kh, kw]
                    y[i, o, r, q] = acc
    return y


def naive_conv2d_weight_grad(x, dy, kernel, stride, padding):
    """Gradient of the summed conv output with respect to the [F, C, k, k] kernels,
    given the [N, F, OH, OW] output gradient, by explicit loops in float64:
    dW[f, c, kh, kw] = sum over n, r, q of dy[n, f, r, q] * x[n, c, r*s + kh - p, q*s + kw - p],
    skipping positions outside the input."""
    x, dy = (np.asarray(a, dtype=np.float64) for a in (x, dy))
    _, c, h, wd = x.shape
    _, f, oh, ow = dy.shape
    dw = np.zeros((f, c, kernel, kernel))
    for kh in range(kernel):
        for kw in range(kernel):
            for r in range(oh):
                row = r * stride + kh - padding
                if not 0 <= row < h:
                    continue
                for q in range(ow):
                    col = q * stride + kw - padding
                    if 0 <= col < wd:
                        # one tap at one output position: the batch's outer products
                        dw[:, :, kh, kw] += np.einsum("nf,nc->fc", dy[:, :, r, q], x[:, :, row, col])
    return dw


def naive_maxpool_backward(x, dy, kernel, stride):
    """Input gradient of max pooling in float32, window by window in window order.

    Each output cell's gradient belongs to the first maximum of its window, scanning
    kh then kw.  The k*k window offsets are then visited in that order, and every
    output cell whose maximum sits at the current offset adds its gradient into dx,
    so an input cell that is the maximum of several windows sums their gradients in
    window order."""
    x = np.asarray(x)
    dy = np.asarray(dy, dtype=np.float32)
    k, s = kernel, stride
    first = np.zeros(dy.shape, dtype=int)
    for idx in np.ndindex(dy.shape):
        n, c, i, j = idx
        first[idx] = int(np.argmax(x[n, c, i * s : i * s + k, j * s : j * s + k]))
    dx = np.zeros(x.shape, dtype=np.float32)
    for offset in range(k * k):
        kh, kw = divmod(offset, k)
        for n, c, i, j in np.argwhere(first == offset):
            dx[n, c, i * s + kh, j * s + kw] += dy[n, c, i, j]
    return dx


def naive_response_norm(x, dy, k, size, alpha, beta):
    """Forward output and input gradient of across-channel response normalization
    by explicit loops over channels and their clamped windows, in float64:
    y_c = x_c * S_c^-beta with S_c = k + alpha * sum_{|j-c| <= size//2} x_j^2, and
    dx_j = dy_j * S_j^-beta - 2 alpha beta x_j * sum_{|c-j| <= size//2} dy_c x_c S_c^(-beta-1)."""
    x, dy = (np.asarray(a, dtype=np.float64) for a in (x, dy))
    channels, radius = x.shape[1], size // 2

    def window(c):
        return range(max(c - radius, 0), min(c + radius, channels - 1) + 1)

    scale = np.empty_like(x)
    for c in range(channels):
        acc = np.zeros_like(x[:, 0])
        for j in window(c):
            acc += x[:, j] ** 2
        scale[:, c] = k + alpha * acc
    y = x * scale ** -beta
    dx = np.empty_like(x)
    for j in range(channels):
        acc = np.zeros_like(x[:, 0])
        for c in window(j):
            acc += dy[:, c] * x[:, c] * scale[:, c] ** (-beta - 1.0)
        dx[:, j] = dy[:, j] * scale[:, j] ** -beta - 2.0 * alpha * beta * x[:, j] * acc
    return y, dx


def cumsum_box_sum_channels(x, radius):
    """The clamped channel-window sum as differences of one np.cumsum, gathered
    with fancy indices."""
    cs = np.cumsum(x, axis=1)
    c = x.shape[1]
    hi = np.minimum(np.arange(c) + radius, c - 1)
    lo = np.arange(c) - radius - 1
    out = cs[:, hi]
    valid = lo >= 0
    out[:, valid] -= cs[:, lo[valid]]
    return out
