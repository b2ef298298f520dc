"""Unit tests of the benchmark's own arithmetic, on synthetic inputs.

    python3 -m pytest perfbench
"""

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

import hostspeed
import metrics
import run
import tracer


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))           # 1..1000
    assert metrics.percentile(values, 99) == 990
    assert metrics.percentile(values[:999], 99) is None
    assert metrics.percentile([], 50) is None


def test_median_needs_ten_samples_beyond_it_too():
    assert metrics.percentile(range(1, 21), 50) == 10
    assert metrics.percentile(range(1, 20), 50) is None
    assert metrics.median([3, 1, 2, 10]) == 2.5


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],                  # overlaps a, as from another thread
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.5, 12.0, 0],              # runs past its parent: only 0.5 counts
    ]
    assert metrics.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])


def test_covered_clips_to_the_window():
    assert metrics.covered([(0, 2), (1, 3), (5, 9)], 1, 6) == 3
    assert metrics.covered([], 0, 1) == 0


def test_failed_frac():
    assert metrics.failed_frac(0, 5) == 0.0
    assert metrics.failed_frac(1, 4) == 0.25
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)
    with pytest.raises(ValueError):
        metrics.failed_frac(3, 2)


def test_slowness_is_the_median_kernel_time_over_the_reference():
    assert hostspeed.slowness([2.0, 1.0, 9.0], reference_s=1.0) == 2.0
    assert hostspeed.slowness([0.5e-3, 0.5e-3], reference_s=1.0e-3) == 0.5
    with pytest.raises(ValueError):
        hostspeed.slowness([])


def test_elapsed_leaves_out_the_samplers_time():
    speed = types.SimpleNamespace(spent_s=1.0)

    def op():
        time.sleep(0.05)
        speed.spent_s += 0.04           # as if the sampler ran 40 ms of the 50
        return "done"

    result, seconds = run.Measurement(speed).elapsed(op)
    assert result == "done"
    assert 0.01 <= seconds < 0.05
    assert run.Measurement().elapsed(op)[1] >= 0.05


def test_sampler_times_the_kernel_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    speed.start()
    t_end = time.perf_counter() + 3 * hostspeed.PERIOD_S
    while time.perf_counter() < t_end:
        sum(range(1000))
    speed.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.kernel_times) >= 1
    assert all(k > 0 for k in speed.kernel_times)
    assert speed.spent_s > 0


@pytest.fixture
def fake_package():
    """A two-module stand-in for radarnet: spectrogram calls fourier.fft."""
    pkg = types.ModuleType("fakepkg")
    fourier = types.ModuleType("fakepkg.fourier")
    spectrogram = types.ModuleType("fakepkg.spectrogram")
    fourier.fft = lambda x: [v * 2 for v in x]
    spectrogram.fourier = fourier
    spectrogram.signal_to_tensor = lambda x: spectrogram.fourier.fft(x)
    pkg.signal_to_tensor = spectrogram.signal_to_tensor      # a re-export
    mods = {"fakepkg": pkg, "fakepkg.fourier": fourier, "fakepkg.spectrogram": spectrogram}
    sys.modules.update(mods)
    yield pkg
    for name in mods:
        del sys.modules[name]


def test_tracer_records_nested_spans_and_restores(fake_package):
    original = fake_package.signal_to_tensor
    t = tracer.Tracer()
    t.install(fake_package)
    fake_package.signal_to_tensor([1.0, 2.0])     # disabled: no span
    t.enabled = True
    assert sys.modules["fakepkg.spectrogram"].signal_to_tensor([1.0, 2.0]) == [2.0, 4.0]
    t.enabled = False
    t.uninstall()
    assert fake_package.signal_to_tensor is original
    assert [(s[0], s[3], s[4]) for s in t.spans] == [
        ("spectrogram.signal_to_tensor", -1, 0),
        ("fourier.fft", 0, 1),                    # one window of two samples
    ]
    out = tracer.per_layer_metrics(t.spans, n_ops=1, section_s=1.0, overhead_frac=0.0)
    assert out["fourier.fft_calls"]["value"] == 1
    assert out["fourier.windows"]["value"] == 1
    assert out["layers.conv1.fwd_ms"]["value"] == 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.parse_args([]).seconds == spec["run_seconds"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
