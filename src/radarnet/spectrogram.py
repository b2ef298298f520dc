"""Range-Doppler spectrograms and the fixed-shape 3-channel input tensor.

The beat signal is cut into back-to-back, non-overlapping windows of one ramp
each; the FFT modulus of every window becomes one spectrogram column, with up
and down ramps collected into separate matrices.  Stacking up, down and their
average, zero-padding the time axis to a fixed width and subtracting the
train-set mean yields the classifier input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier
from .radar import BeatSignal, RadarParams, RampPolarity, VehicleClass


class PadOverflowError(ValueError):
    """Spectrogram wider than the tensor target; cropping must be explicit."""


@dataclass
class RdTensor:
    """Fixed-shape network input: channels (up, down, average) x bins x width."""

    values: np.ndarray          # [3, height, width] float32
    label: VehicleClass | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 3 or self.values.shape[0] != 3:
            raise ValueError("tensor must have shape [3, height, width]")


def _ramps(sig: BeatSignal):
    """The framing rule: the full ramps as one sweep-order [ramps, samples_per_ramp]
    view, and the row slices of its up and down ramps.

    Windows are consecutive, disjoint stretches of sig.radar.samples_per_ramp samples,
    assigned alternately starting from sig.first_ramp; a trailing partial
    window is discarded.
    """
    spr = sig.radar.samples_per_ramp
    n_full = sig.num_full_ramps
    if n_full < 2:
        raise ValueError(
            f"signal holds {n_full} full ramp(s); need at least one up/down pair"
        )
    windows = sig.samples[: n_full * spr].reshape(n_full, spr)
    up = 0 if sig.first_ramp is RampPolarity.UP else 1
    return windows, slice(up, None, 2), slice(1 - up, None, 2)


def segment_ramps(sig: BeatSignal):
    """Split a beat signal into its up- and down-ramp windows (see _ramps)."""
    windows, up, down = _ramps(sig)
    return windows[up], windows[down]


def fft_modulus(window, fft_size: int) -> np.ndarray:
    """One-sided FFT modulus |X[k]|, k = 0..fft_size/2, of rectangular (untapered)
    windows along the last axis, each zero-padded up to fft_size; an input of
    shape [..., n] gives [..., fft_size // 2 + 1]."""
    window = np.asarray(window, dtype=float)
    n = window.shape[-1]
    if n > fft_size:
        raise ValueError(f"window of {n} samples exceeds fft_size {fft_size}")
    if n < fft_size:
        window = np.pad(window, [(0, 0)] * (window.ndim - 1) + [(0, fft_size - n)])
    return np.abs(fourier.fft(window))


def build_spectrograms(sig: BeatSignal, p: RadarParams):
    """Up- and down-ramp spectrograms of a beat signal as [bins, windows] arrays;
    column j is the FFT modulus of the j-th window of that polarity.  A signal
    swept by another radar is refused."""
    if sig.radar != p:
        raise ValueError(f"signal of another radar: swept by {sig.radar}, expected {p}")
    windows, up, down = _ramps(sig)
    # one transform over the ramps in sweep order: each row is transformed on its own
    moduli = fft_modulus(windows, p.fft_size).T
    return moduli[:, up], moduli[:, down]


def build_tensor(
    up: np.ndarray,
    down: np.ndarray,
    target_width: int,
    *,
    allow_crop: bool = False,
    freq_range: tuple | None = None,
) -> np.ndarray:
    """Stack up/down/average channels into a zeroed float32 [3, bins, target_width]
    array; the zeros pad the time axis, the shorter side's last column too when
    the widths differ by one.  Larger mismatches are an error, and inputs wider
    than the target raise PadOverflowError unless cropping is explicitly allowed.
    freq_range, a (lo, hi) bin window, crops rows; this is how square network
    inputs (e.g. 227x227) are produced from the 257-bin spectra.
    """
    if target_width < 1:
        raise ValueError(f"target width must be at least 1, got {target_width}")
    bins = up.shape[0]
    if down.shape[0] != bins:
        raise ValueError("up/down spectrograms disagree on frequency bins")
    lo, hi = (0, bins) if freq_range is None else freq_range
    if not (0 <= lo < hi <= bins):
        raise ValueError(f"frequency window {freq_range} outside 0..{bins}")
    if abs(up.shape[1] - down.shape[1]) > 1:
        raise ValueError("up/down spectrograms differ by more than one column")
    width = max(up.shape[1], down.shape[1])
    if width > target_width and not allow_crop:
        raise PadOverflowError(f"spectrogram width {width} exceeds target {target_width}")

    values = np.zeros((3, hi - lo, target_width), dtype=np.float32)
    for channel, spect in enumerate((up, down)):
        window = spect[lo:hi, :target_width]
        values[channel, :, : window.shape[1]] = window
    values[2] = 0.5 * (values[0] + values[1])
    return values


def signal_to_tensor(
    sig: BeatSignal,
    p: RadarParams,
    target_width: int,
    *,
    allow_crop: bool = False,
    freq_range: tuple | None = None,
) -> RdTensor:
    """Full signal-to-input pipeline: segment, transform, stack, pad, label."""
    up, down = build_spectrograms(sig, p)
    values = build_tensor(up, down, target_width, allow_crop=allow_crop, freq_range=freq_range)
    return RdTensor(values, label=sig.label)


def compute_mean_tensor(x, rows) -> np.ndarray:
    """Elementwise mean of the given rows of an [N, 3, H, W] array as a float32
    [3, H, W] array.  Rows are added one at a time, in the order given, into one
    float64 accumulator, so the selected rows are never copied out together."""
    if len(rows) == 0:
        raise ValueError("cannot average an empty set of rows")
    acc = np.zeros(x.shape[1:], dtype=np.float64)
    for row in rows:
        acc += x[row]
    return (acc / len(rows)).astype(np.float32)


def mean_normalize(t: RdTensor, mean: np.ndarray) -> RdTensor:
    """Subtract the train-set mean array; applied to train and test alike."""
    if t.values.shape != mean.shape:
        raise ValueError(f"tensor shape {t.values.shape} != mean shape {mean.shape}")
    return RdTensor(values=t.values - mean, label=t.label)


def export_pgm(matrix, log_scale: bool = False) -> bytes:
    """Render a spectrogram or tensor channel as a binary (P5) PGM.

    Values are min-max scaled to 0..255 (after an optional 20*log10(x+eps)
    mapping); a constant matrix renders all-black.  Frequency bin 0 sits on
    the bottom pixel row.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("PGM export needs a 2-D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("PGM export needs finite entries")
    if log_scale:
        m = 20.0 * np.log10(m + 1e-12)
    lo, hi = float(m.min()), float(m.max())
    if hi > lo:
        pixels = np.round((m - lo) * (255.0 / (hi - lo))).astype(np.uint8)
    else:
        pixels = np.zeros(m.shape, dtype=np.uint8)
    pixels = pixels[::-1, :]    # bin 0 at the bottom
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()
