"""The one reader of the .rdt, .rbs and .rdw formats: each refusal is a FormatError of its own
class that begins with the file's path, and a mutated file either loads or is refused so."""

import math
import struct

import numpy as np
import pytest

from radarnet.dataset import (
    MAX_DIM,
    SIGNAL_HEADER,
    SIGNAL_MAGIC,
    BadMagicError,
    DimensionOverflowError,
    FormatError,
    HeaderFieldError,
    NonFiniteValueError,
    TrailingBytesError,
    TruncatedFileError,
    WeightShapeError,
    load_signal,
    load_tensor,
    load_weights,
    read_weight_records,
    save_weights,
    tensor_to_bytes,
)
from radarnet.layers import Conv2d, Linear
from radarnet.network import Network, build_network


def _tiny_net(units=3):
    rng = np.random.default_rng(0)
    return Network([Conv2d("c", 1, 2, 1, 1, 0, rng=rng), Linear("f", 8, units, rng=rng)], (1, 2, 2))


def _rdt(dims=(3, 4, 5)):
    """magic, dims at 4..16, float32 values from byte 16"""
    return b"RDT1" + struct.pack("<III", *dims) + np.arange(math.prod(dims), dtype="<f4").tobytes()


def _rbs(samples=np.arange(8.0), spr=4, first=0, label=2, fft=4):
    """magic; samples per ramp at 4, first ramp at 8, class index at 9, fft size at 10, four f64 radar
    values at 14..46 and the sample count at 46; float64 samples from byte 54"""
    header = struct.pack("<" + SIGNAL_HEADER, spr, first, label, fft, 24e9, 120e6, 0.04, 5.3, len(samples))
    return SIGNAL_MAGIC + header + samples.astype("<f8").tobytes()


@pytest.fixture(scope="module")
def rdw(tmp_path_factory):
    """The tiny net's weights: records c.W (rank 4, 2 values), c.b, f.W and f.b in that order.  The
    record count is at 4, c.W's name length at 8, its name at 12, rank at 15, shape at 19..35 and
    values at 35..43; c.b's name is at 47..50 and f.b's three values end the file."""
    path = tmp_path_factory.mktemp("rdw") / "w.rdw"
    save_weights(_tiny_net(), path)
    blob = path.read_bytes()
    assert blob[12:15] == b"c.W" and blob[47:50] == b"c.b"
    return blob


def _with(blob, at, new):
    return blob[:at] + new + blob[at + len(new):]


def _nan_at(blob, at, dtype):
    return _with(blob, at, np.array([np.nan], dtype=dtype).tobytes())


# (id, reader, file contents from the .rdw fixture's blob, class, words the message holds after the path)
REFUSALS = [
    ("rdt-short-magic", load_tensor, lambda w: b"RD", TruncatedFileError, "file truncated in magic at byte 0"),
    ("rdt-bad-magic", load_tensor, lambda w: b"XXXX" + _rdt()[4:], BadMagicError,
     "bad magic b'XXXX', expected b'RDT1'"),
    ("rdt-short-header", load_tensor, lambda w: _rdt()[:10], TruncatedFileError, "file truncated in header at byte 4"),
    ("rdt-zero-dim", load_tensor, lambda w: _rdt((3, 0, 5)), DimensionOverflowError,
     "unreasonable dimensions (3, 0, 5)"),
    ("rdt-oversized-dim", load_tensor, lambda w: b"RDT1" + struct.pack("<III", 3, MAX_DIM + 1, 5),
     DimensionOverflowError, f"unreasonable dimensions (3, {MAX_DIM + 1}, 5)"),
    ("rdt-four-channels", load_tensor, lambda w: _rdt((4, 4, 5)), HeaderFieldError, "4 channels, expected 3"),
    ("rdt-cut", load_tensor, lambda w: _rdt()[:-4], TruncatedFileError,
     "file truncated in payload at byte 16: 256 bytes promised, file has 252"),
    ("rdt-trailing", load_tensor, lambda w: _rdt() + b"junk", TrailingBytesError, "4 trailing bytes"),
    ("rdt-nan", load_tensor, lambda w: _nan_at(_rdt(), 20, "<f4"), NonFiniteValueError,
     "payload holds a NaN or infinite value"),
    ("rbs-first-ramp", load_signal, lambda w: _rbs(first=2), HeaderFieldError, "first-ramp byte 2"),
    ("rbs-class-6", load_signal, lambda w: _rbs(label=6), HeaderFieldError, "class index 6, expected -1..5"),
    ("rbs-header-radar", load_signal, lambda w: _rbs(fft=6), HeaderFieldError,
     "header radar: fft_size must be a power of two, got 6"),
    ("rbs-cut", load_signal, lambda w: _rbs()[:-1], TruncatedFileError, "file truncated in payload at byte 54"),
    ("rbs-trailing", load_signal, lambda w: _rbs() + b"\0", TrailingBytesError, "1 trailing bytes"),
    ("rbs-nan", load_signal, lambda w: _nan_at(_rbs(), 54 + 8 * 5, "<f8"), NonFiniteValueError,
     "payload holds a NaN or infinite value"),
    ("rdw-bad-magic", read_weight_records, lambda w: b"ZZZZ" + w[4:], BadMagicError,
     "bad magic b'ZZZZ', expected b'RDW1'"),
    *[(f"rdw-cut-in-{part}", read_weight_records, lambda w, at=at: w[:at], TruncatedFileError,
       f"file truncated in {field} at byte")
      for part, at, field in [("count", 6, "record count"), ("name-length", 10, "name length"),
                              ("name", 13, "record name"), ("rank", 17, "rank of 'c.W'"),
                              ("shape", 21, "shape of 'c.W'"), ("values", 39, "record 'c.W'")]],
    ("rdw-non-utf8-name", read_weight_records, lambda w: _with(w, 12, b"\xff\xff\xff"), HeaderFieldError,
     "record name ending at byte 15 is not UTF-8"),
    ("rdw-duplicate", read_weight_records, lambda w: _with(w, 47, b"c.W"), HeaderFieldError, "duplicate record 'c.W'"),
    ("rdw-rank-33", read_weight_records, lambda w: _with(w, 15, struct.pack("<I", 33)), DimensionOverflowError,
     "record 'c.W' has unreasonable dimensions"),
    ("rdw-zero-dim", read_weight_records, lambda w: _with(w, 19, struct.pack("<I", 0)), DimensionOverflowError,
     "record 'c.W' has unreasonable dimensions (0, 1, 1, 1)"),
    ("rdw-nan", read_weight_records, lambda w: _nan_at(w, len(w) - 4, "<f4"), NonFiniteValueError,
     "record 'f.b' holds a NaN or infinite value"),
    ("rdw-trailing", read_weight_records, lambda w: w + bytes(7), TrailingBytesError, "7 trailing bytes"),
    ("rdw-shape", lambda path: load_weights(_tiny_net(units=4), path), lambda w: w, WeightShapeError,
     "missing or mismatched weight records for layer(s): f"),
]


@pytest.mark.parametrize("reader, contents, refusal, words", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_every_refusal_names_its_file(tmp_path, rdw, reader, contents, refusal, words):
    path = tmp_path / "malformed.bin"
    path.write_bytes(contents(rdw))
    with pytest.raises(FormatError) as refused:
        reader(path)
    assert type(refused.value) is refusal
    assert str(refused.value).startswith(f"{path}: ") and words in str(refused.value)


EXTREME_WORDS = (0, 1, 1 << 31, (1 << 32) - 1)


def _rdw_layout(blob):
    """The offsets of an .rdw file's u32 words and of each of its bytes that is not a value."""
    words, header, pos = [4], list(range(8)), 8
    for _ in range(struct.unpack_from("<I", blob, 4)[0]):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        (rank,) = struct.unpack_from("<I", blob, pos + 4 + name_len)
        shape_at = pos + 8 + name_len
        words += [pos, pos + 4 + name_len, *range(shape_at, shape_at + 4 * rank, 4)]
        header += range(pos, shape_at + 4 * rank)
        pos = shape_at + 4 * rank + 4 * math.prod(struct.unpack_from(f"<{rank}I", blob, shape_at))
    return words, header


def _mutants(blob, words, header, seed, count):
    """count mutants of blob from generator seed, in turn: a header byte flipped, a u32 header word
    set to an extreme, any byte flipped, 1..8 random bytes inserted, 1..8 bytes deleted, a cut."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        b = bytearray(blob)
        kind = i % 6
        if kind == 0:
            b[header[rng.integers(len(header))]] ^= int(rng.integers(1, 256))
        elif kind == 1:
            struct.pack_into("<I", b, words[rng.integers(len(words))], EXTREME_WORDS[rng.integers(4)])
        elif kind == 2:
            b[rng.integers(len(b))] ^= int(rng.integers(1, 256))
        elif kind == 3:
            at = int(rng.integers(len(b) + 1))
            b[at:at] = rng.bytes(int(rng.integers(1, 9)))
        elif kind == 4:
            at = int(rng.integers(len(b)))
            del b[at : at + int(rng.integers(1, 9))]
        else:
            del b[rng.integers(len(b)):]
        yield bytes(b)


def _desk_rdt():
    return tensor_to_bytes(np.random.default_rng(1).normal(size=(3, 257, 32)).astype(np.float32))


def _signal_rbs():
    return _rbs(np.random.default_rng(2).normal(size=4096), spr=512, fft=512, label=-1)


def _mini_rdw(tmp_path):
    save_weights(build_network("mini", (3, 257, 32), seed=3), tmp_path / "mini.rdw")
    return (tmp_path / "mini.rdw").read_bytes()


@pytest.mark.parametrize("reader, layout, seed", [
    (load_tensor, lambda tmp: (_desk_rdt(), [4, 8, 12], range(16)), 11),
    (load_signal, lambda tmp: (_signal_rbs(), [4, 10, 46, 50], range(54)), 12),
    (read_weight_records, lambda tmp: (blob := _mini_rdw(tmp), *_rdw_layout(blob)), 13),
], ids=["rdt", "rbs", "rdw"])
def test_every_mutant_loads_or_raises_a_format_error(tmp_path, reader, layout, seed):
    blob, words, header = layout(tmp_path)
    path = tmp_path / "mutant"
    path.write_bytes(blob)
    reader(path)    # the file before mutation loads
    loaded = refused = 0
    for mutant in _mutants(blob, words, list(header), seed, 300):
        path.write_bytes(mutant)
        try:
            reader(path)
            loaded += 1
        except FormatError:     # any other exception fails the test
            refused += 1
    assert loaded and refused, (loaded, refused)
