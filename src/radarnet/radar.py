"""FM-CW waveform model and baseband beat-signal synthesis.

A triangular frequency modulation sweeps the carrier by delta_f over each ramp
of duration t_ramp.  Dechirping a point echo at range R and radial velocity v
produces per-ramp sinusoids at

    f_up   = (delta_f / t_ramp) * (2R/c) + |f_D|
    f_down = (delta_f / t_ramp) * (2R/c) - |f_D|,     f_D = 2 v / wavelength

which is the model this module synthesizes directly at baseband: the RF chain
is never sampled.  Vehicle passes are simulated as point scatterers moving at
constant speed under a roadside radar, weighted by a raised-cosine antenna
footprint along the lane.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, fixed

CLASS_ORDER = "ABCDEG"


class VehicleClass(enum.Enum):
    """Vehicle categories, keyed by their single-letter labels."""

    CAR = "A"
    CAR_TRAILER = "B"
    TRUCK = "C"
    CARGO_TRUCK = "D"
    BUS = "E"
    MOTORCYCLE = "G"

    @property
    def index(self) -> int:
        return CLASS_ORDER.index(self.value)

    @classmethod
    def from_label(cls, label: "str | VehicleClass") -> "VehicleClass":
        if isinstance(label, VehicleClass):
            return label
        try:
            return cls(label.upper())
        except ValueError:
            raise ValueError(f"unknown vehicle class {label!r}, expected one of {CLASS_ORDER}") from None


class RampPolarity(enum.Enum):
    UP = "up"
    DOWN = "down"


class NyquistError(ValueError):
    """The requested scene produces beat frequencies the sampler cannot hold."""


@dataclass(frozen=True)
class RadarParams:
    """The roadside radar as the six values that fix its beat model: its identity."""

    f0: float = 24e9            # carrier frequency [Hz]
    delta_f: float = 120e6      # sweep bandwidth [Hz]
    t_ramp: float = 0.040       # single ramp (sweep interval) duration [s]
    samples_per_ramp: int = 512
    fft_size: int = 512
    mount_height: float = 5.3   # above the lane [m]

    def __post_init__(self):
        # each value is stored as a float or an int, so equal radars hash alike
        for name in ("f0", "delta_f", "t_ramp", "mount_height"):   # NaN fails both comparisons
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"radar {name} must be positive and finite, got {getattr(self, name)}")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name, low in (("samples_per_ramp", 2), ("fft_size", self.samples_per_ramp)):
            value = getattr(self, name)
            if not (value >= low and isinstance(value, numbers.Integral)):   # a str raises TypeError
                raise ValueError(f"radar {name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.fft_size & (self.fft_size - 1):
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")

    @property
    def sample_rate(self) -> float:
        """Baseband sampling rate [Hz]."""
        return self.samples_per_ramp / self.t_ramp

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f0

    @property
    def ramp_slope(self) -> float:
        """Sweep rate delta_f / t_ramp [Hz/s]."""
        return self.delta_f / self.t_ramp

    @property
    def bin_hz(self) -> float:
        """Spectral bin width of the per-ramp FFT [Hz]."""
        return self.sample_rate / self.fft_size


def radar_params_hash(p: RadarParams) -> str:
    """Short digest of the radar's six values, as manifests record it."""
    blob = json.dumps(asdict(p), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def beat_frequencies(target_range, v_radial, p: RadarParams):
    """Per-ramp beat frequencies (up, down) of a point target.

    v_radial is signed with receding targets positive; only its magnitude
    enters, as the Doppler shift adds on the up-ramp and subtracts on the
    down-ramp regardless of direction.  The down-ramp value may be negative;
    a real-valued beat signal folds it to its magnitude.
    """
    target_range = np.asarray(target_range, dtype=float)
    if np.any(target_range < 0):
        raise ValueError("target range must be nonnegative")
    f_range = p.ramp_slope * (2.0 * target_range / SPEED_OF_LIGHT)
    f_doppler = np.abs(2.0 * np.asarray(v_radial, dtype=float) / p.wavelength)
    up = f_range + f_doppler
    down = f_range - f_doppler
    if up.ndim == 0:
        return float(up), float(down)
    return up, down


def invert_beat(f_b_up, f_b_down, p: RadarParams):
    """Recover (range, radial speed) from the up/down beat pair.

    Exact algebraic inverse of beat_frequencies: the half-sum is the delay
    term, the half-difference the Doppler magnitude.
    """
    f_range = 0.5 * (np.asarray(f_b_up, float) + np.asarray(f_b_down, float))
    if np.any(f_range < 0):
        raise ValueError("beat pair implies a negative range")
    tau = f_range / p.ramp_slope
    target_range = 0.5 * SPEED_OF_LIGHT * tau
    f_doppler = 0.5 * np.abs(np.asarray(f_b_up, float) - np.asarray(f_b_down, float))
    v_radial = 0.5 * p.wavelength * f_doppler
    if np.ndim(target_range) == 0:
        return float(target_range), float(v_radial)
    return target_range, v_radial


@dataclass(frozen=True)
class Scenario:
    """One vehicle pass: constant speed, point scatterers, additive noise."""

    class_label: VehicleClass
    speed: float                # [m/s], > 0
    entry_distance: float       # horizontal distance behind the radar at t=0 [m]
    footprint_length: float     # illuminated stretch of lane [m]
    offsets: tuple              # each scatterer's distance behind the vehicle's front [m]
    amplitudes: tuple           # each scatterer's reflectivity, dimensionless
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("offsets", "amplitudes"):   # tuples of floats, so == compares values
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if self.speed <= 0:
            raise ValueError("scenario speed must be positive")
        if self.footprint_length <= 0:
            raise ValueError("footprint length must be positive")
        if not self.offsets or len(self.offsets) != len(self.amplitudes):
            raise ValueError("scenario needs at least one scatterer and one amplitude per offset")
        if min(self.amplitudes) < 0:
            raise ValueError("scatterer amplitude must be >= 0")
        if self.entry_distance < 0 or min(self.offsets) < 0:
            raise ValueError(f"scatterers must sit at or behind the radar, got entry distance "
                             f"{self.entry_distance} and offsets from {min(self.offsets)}")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be >= 0")


@dataclass
class BeatSignal:
    """Sampled baseband beat waveform and the radar that swept it and frames its ramps."""

    samples: np.ndarray
    radar: RadarParams
    first_ramp: RampPolarity = RampPolarity.UP
    label: VehicleClass | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("beat signal samples must be one-dimensional")

    @property
    def num_full_ramps(self) -> int:
        return self.samples.size // self.radar.samples_per_ramp


def footprint_envelope(d, entry_distance: float, footprint_length: float):
    """Raised-cosine illumination weight over [entry, entry + footprint]."""
    u = (np.asarray(d, float) - entry_distance) / footprint_length
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * u)
    return np.where((u > 0.0) & (u < 1.0), w, 0.0)


def _tone_sum(f_beat, weights, phases, spr: int, fs: float) -> np.ndarray:
    """Ramps of sum_k w[r, k] cos(2 pi f_beat[r, k] n / fs + phases[k]) for
    n < spr, laid end to end.

    n = a*B + b with B the least power of two >= sqrt(spr), so each ramp is one
    product [w cos O | -w sin O] @ [cos I ; sin I] with O_a = omega aB/fs + phase
    and I_b = omega b/fs: 2(A + B) cosines and sines per tone instead of spr,
    and the samples past spr are dropped.  A sample moves from the direct sum
    by a few ulps of its phase times sum_k |w|.
    """
    block = 1 << ((spr - 1).bit_length() + 1) // 2
    n_outer = -(-spr // block)
    omega = 2.0 * np.pi * f_beat[:, :, None]
    outer = omega * (np.arange(n_outer) * block / fs) + phases[:, None]   # O [r, k, A]
    inner = omega * (np.arange(block) / fs)                               # I [r, k, B]
    w = weights[..., None]
    lhs = np.concatenate((w * np.cos(outer), -w * np.sin(outer)), axis=1)
    rhs = np.concatenate((np.cos(inner), np.sin(inner)), axis=1)
    samples = np.matmul(lhs.transpose(0, 2, 1), rhs)                      # [r, A, B]
    return samples.reshape(len(f_beat), -1)[:, :spr].reshape(-1)


def _beat_signal(f_up, f_down, weights, seed, noise_sigma, p: RadarParams, first_ramp, label=None):
    """Ramps alternating between the up and the down tones from first_ramp on,
    plus white noise; f_up and f_down are [ramps, tones], the weights the same
    or [tones].  default_rng(seed) draws the tone phases, then the noise.  A tone
    at or above Nyquist gets weight 0, standing in for the anti-alias lowpass."""
    fs = p.sample_rate
    up_ramp = np.arange(len(f_up)) % 2 == (0 if first_ramp is RampPolarity.UP else 1)
    f_beat = np.where(up_ramp[:, None], f_up, f_down)                 # [r, k]
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, f_beat.shape[1])
    weights = np.where(np.abs(f_beat) < fs / 2.0, weights, 0.0)
    samples = _tone_sum(f_beat, weights, phases, p.samples_per_ramp, fs)
    if noise_sigma > 0:
        samples = samples + rng.normal(0.0, noise_sigma, samples.shape)
    return BeatSignal(samples, p, first_ramp, label)


def synthesize_beat_signal(
    scenario: Scenario,
    p: RadarParams,
    first_ramp: RampPolarity = RampPolarity.UP,
) -> BeatSignal:
    """Simulate the baseband beat signal of one vehicle pass.

    Geometry is frozen at each ramp midpoint (quasi-static: target motion
    within one ramp is far below the range resolution).  For scatterer k at
    horizontal distance d_k(t) = entry + offset_k + speed*t the slant range is
    R = sqrt(h^2 + d^2) and the radial speed speed*d/R, receding positive.
    Each ramp gets the polarity-matched beat_frequencies tone per scatterer,
    weighted by reflectivity and the footprint envelope; contributions whose
    beat frequency would alias are suppressed.  Duration is the smallest even
    ramp count covering footprint_length / speed.
    """
    h = p.mount_height

    # Guard on the dominant response: at the envelope peak the up-beat must be
    # representable, otherwise the whole signature would be filtered away.
    d_peak = scenario.entry_distance + scenario.footprint_length / 2.0
    r_peak = math.hypot(h, d_peak)
    f_up_peak, _ = beat_frequencies(r_peak, scenario.speed * d_peak / r_peak, p)
    nyquist = p.sample_rate / 2.0
    if f_up_peak >= nyquist:
        raise NyquistError(
            f"up-ramp beat {f_up_peak:.0f} Hz at the footprint center exceeds "
            f"the Nyquist limit {nyquist:.0f} Hz; reduce speed or footprint"
        )

    pass_duration = scenario.footprint_length / scenario.speed
    n_ramps = int(math.ceil(pass_duration / p.t_ramp))
    n_ramps = max(n_ramps + n_ramps % 2, 2)

    t_mid = (np.arange(n_ramps) + 0.5) * p.t_ramp                      # [r]
    d = scenario.entry_distance + np.array(scenario.offsets) + scenario.speed * t_mid[:, None]  # [r, k]
    slant = np.hypot(h, d)
    f_up, f_down = beat_frequencies(slant, scenario.speed * d / slant, p)
    weights = np.array(scenario.amplitudes) * footprint_envelope(d, scenario.entry_distance, scenario.footprint_length)
    return _beat_signal(f_up, f_down, weights, scenario.seed, scenario.noise_sigma, p, first_ramp,
                        scenario.class_label)


@dataclass(frozen=True)
class PointTarget:
    """Fixed-range, fixed-velocity reflector for calibration signals."""

    target_range: float
    v_radial: float = 0.0
    amplitude: float = 1.0


def synthesize_point_targets(
    targets: Sequence[PointTarget],
    n_ramps: int,
    p: RadarParams,
    *,
    noise_sigma: float = 0.0,
    seed: int = 0,
    first_ramp: RampPolarity = RampPolarity.UP,
) -> BeatSignal:
    """Beat signal of motionless beat tones: each target contributes its exact
    up/down-ramp frequencies on every ramp, with no footprint weighting.

    This is the calibration companion of synthesize_beat_signal: with the
    geometry frozen, FFT peaks must land on the predicted bins.
    """
    if n_ramps < 2:
        raise ValueError("need at least one up/down ramp pair")
    if not targets:
        raise ValueError("need at least one point target")
    up, down = beat_frequencies([t.target_range for t in targets], [t.v_radial for t in targets], p)
    if np.any(np.maximum(np.abs(up), np.abs(down)) >= p.sample_rate / 2.0):
        raise NyquistError("point-target beat frequency exceeds the Nyquist limit")
    f_up, f_down = (np.broadcast_to(f, (n_ramps, len(targets))) for f in (up, down))
    amps = np.array([t.amplitude for t in targets])
    return _beat_signal(f_up, f_down, amps, seed, noise_sigma, p, first_ramp)


# each scatterer costs cosines on every ramp; the default profiles hold at most 22
MAX_SCATTERERS = 1024


def _finite(*values) -> bool:
    return all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
               for v in values)


def _check_finite_pair(name: str, pair) -> None:
    if not (isinstance(pair, Sequence) and len(pair) == 2 and _finite(*pair)):
        raise ValueError(f"{name} must be two finite numbers, got {pair!r}")


@dataclass(frozen=True)
class ClassProfile:
    """Per-class simulation ranges the scenario sampler draws from."""

    length_range: tuple     # vehicle length [m]
    speed_range: tuple      # [m/s]
    reflectivity_range: tuple
    scatterer_spacing: float = 1.2   # ~1 scatterer per this many metres
    cluster_gap: float = 0.0         # fraction of length left empty mid-vehicle (cab/trailer gap)
    trailer_gain: float = 1.0        # reflectivity multiplier behind the gap

    def __post_init__(self):
        for name in ("length_range", "speed_range", "reflectivity_range"):
            _check_finite_pair(name, getattr(self, name))
        if min(self.length_range) <= 0:
            raise ValueError(f"length_range must be positive, got {self.length_range!r}")
        if min(self.reflectivity_range) < 0:
            raise ValueError(f"reflectivity_range must be >= 0, got {self.reflectivity_range!r}")
        # the longest vehicle holds up to round(length / spacing) + 1 scatterers
        longest = max(self.length_range)
        if not self.scatterer_spacing > longest / (MAX_SCATTERERS - 0.5):
            raise ValueError(f"scatterer_spacing must be positive and put at most {MAX_SCATTERERS} scatterers "
                             f"on a {longest} m vehicle, got {self.scatterer_spacing}")


# Invented simulation knobs, not measured truth: lengths and speeds are
# plausible highway figures, while reflectivity, scatterer density and the
# cab/trailer layout separate body types that share kinematics (a towed
# trailer reflects faintly, a bus is one long bright slab, a cargo truck
# carries a dense strong container).
DEFAULT_PROFILES: Mapping[VehicleClass, ClassProfile] = {
    VehicleClass.CAR: ClassProfile((3.5, 5.0), (25.0, 36.0), (0.10, 0.18), 1.0),
    VehicleClass.CAR_TRAILER: ClassProfile((8.0, 12.0), (22.0, 33.0), (0.15, 0.28), 0.8, 0.28, 0.5),
    VehicleClass.TRUCK: ClassProfile((10.0, 14.0), (20.0, 25.0), (0.18, 0.34), 1.05),
    VehicleClass.CARGO_TRUCK: ClassProfile((14.0, 18.0), (20.0, 25.0), (0.24, 0.42), 0.85, 0.10),
    VehicleClass.BUS: ClassProfile((11.0, 14.0), (22.0, 28.0), (0.45, 0.70), 0.7),
    VehicleClass.MOTORCYCLE: ClassProfile((1.8, 2.5), (25.0, 38.0), (0.02, 0.05), 0.8),
}


@dataclass(frozen=True)
class ProfileTable:
    """Scenario sampling configuration shared across classes."""

    profiles: Mapping[VehicleClass, ClassProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )
    entry_range: tuple = (3.0, 8.0)   # horizontal distance of the front at t=0 [m]
    footprint_length: float = 30.0
    v_min: float = 10.0               # global clamps applied after the class draw
    v_max: float = 38.0
    snr_db: float = 20.0              # peak signal amplitude over noise sigma

    def __post_init__(self):
        _check_finite_pair("entry_range", self.entry_range)
        lo, hi = self.entry_range
        if min(lo, hi) < 0:
            raise ValueError(f"scatterers must sit at or behind the radar, got entry_range {lo}, {hi}")
        if lo > hi:
            raise ValueError(f"entry_range must satisfy lo <= hi, got {lo}, {hi}")
        if not (_finite(self.footprint_length) and self.footprint_length > 0):
            raise ValueError(f"footprint_length must be positive and finite, got {self.footprint_length}")
        if not (_finite(self.v_min, self.v_max) and 0 < self.v_min <= self.v_max):
            raise ValueError(f"speed clamps must satisfy 0 < v_min <= v_max, both finite, "
                             f"got {self.v_min}, {self.v_max}")
        if not _finite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


def sample_vehicle_scenario(
    class_label: "str | VehicleClass",
    seed: int,
    profiles: ProfileTable | None = None,
) -> Scenario:
    """Draw one labeled vehicle pass, deterministic under (class, seed).

    Speed is drawn inside the class range then clamped to the global
    [v_min, v_max] band that keeps beat frequencies representable.  Scatterer
    count scales with drawn length; front and rear corners always reflect.
    """
    vclass = VehicleClass.from_label(class_label)
    table = profiles if profiles is not None else ProfileTable()
    try:
        prof = table.profiles[vclass]
    except KeyError:
        raise ValueError(f"profile table has no entry for class {vclass.value}") from None

    rng = np.random.default_rng([int(seed), vclass.index])
    speed = float(rng.uniform(*prof.speed_range))
    speed = min(max(speed, table.v_min), table.v_max)
    length = float(rng.uniform(*prof.length_range))
    entry = float(rng.uniform(*table.entry_range))

    n_scat = max(2, int(round(length / prof.scatterer_spacing)) + int(rng.integers(-1, 2)))
    interior = np.sort(rng.uniform(0.0, length, max(n_scat - 2, 0)))
    offsets = np.concatenate(([0.0], interior, [length]))
    if prof.cluster_gap > 0:
        # Push interior points out of the mid-vehicle gap, toward cab or trailer.
        gap_lo = length * (0.5 - prof.cluster_gap / 2.0)
        gap_hi = length * (0.5 + prof.cluster_gap / 2.0)
        in_gap = (offsets > gap_lo) & (offsets < gap_hi)
        offsets = np.where(in_gap & (offsets < length / 2.0), gap_lo, offsets)
        offsets = np.where(in_gap & (offsets >= length / 2.0), gap_hi, offsets)
    amplitudes = rng.uniform(*prof.reflectivity_range, offsets.size)
    if prof.trailer_gain != 1.0:
        amplitudes = np.where(offsets > length * 0.5, amplitudes * prof.trailer_gain, amplitudes)

    noise_sigma = float(np.sum(amplitudes)) * 10.0 ** (-table.snr_db / 20.0)
    return Scenario(
        class_label=vclass,
        speed=speed,
        entry_distance=entry,
        footprint_length=table.footprint_length,
        offsets=offsets,
        amplitudes=amplitudes,
        noise_sigma=noise_sigma,
        seed=int(seed),
    )
