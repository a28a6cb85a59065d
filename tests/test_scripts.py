import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_file(name, path, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:  # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_script(name):
    return load_file(name, SCRIPTS / f"{name}.py")


def test_perfbench_trace_targets_all_resolve(monkeypatch):
    # A renamed target would silently move its time into the caller's span.
    tracing = load_file("perfbench_tracing", ROOT / "perfbench" / "tracing.py", monkeypatch)
    workloads = load_file("perfbench_workloads", ROOT / "perfbench" / "workloads.py", monkeypatch)
    tracer = tracing.Tracer()
    try:
        assert tracer.install(workloads.TRACE_TARGETS) == []
    finally:
        tracer.uninstall()
    from semimo import sweeps, transceiver

    assert not hasattr(transceiver.FrameResult.image, "__wrapped__")
    assert not hasattr(sweeps.split_bit_planes, "__wrapped__")


def test_perfbench_workloads_run_and_pass_their_checks(tmp_path, monkeypatch):
    # The library API perfbench drives, traced as in a --trace run: QamParams,
    # transmit_frame's equalize_with_known_gain=, FrameResult's ber,
    # bit_errors and bits_per_stream, EmpiricalBudget.n_trials, the oracle
    # rows and the config keys it writes.
    tracing = load_file("perfbench_tracing", ROOT / "perfbench" / "tracing.py", monkeypatch)
    workloads = load_file("perfbench_workloads", ROOT / "perfbench" / "workloads.py", monkeypatch)
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_library prepends src
    lib = workloads.import_library(ROOT)
    tracer = tracing.Tracer()
    try:
        assert tracer.install(workloads.TRACE_TARGETS) == []
        ready = workloads.build_inputs(lib, "image_transport", 1, tmp_path)
        image = workloads.ImageWorkload(ready)
        for index, scheme in enumerate(("zf", "mf")):
            result, bers, _ = image.pipeline(128, scheme, index, tracer.span)
            assert image.check(128, scheme, result, bers) == []

        ready = workloads.build_inputs(lib, "csi_sweep", 1, tmp_path)
        cfg = replace(ready.cfg, err_var_grid_db=(float("-inf"), -10.0), n_error_draws=200)
        out = tmp_path / "csi.csv"
        rows = lib["sweeps"].run_csi_error_sweep(cfg, out)
    finally:
        tracer.uninstall()
    assert workloads.check_sweep(cfg, "csi", out.read_text(encoding="utf-8"), rows) == []
    assert tracer.counts["link.oracle_draws"] == 2 * cfg.n_channel_trials * 200 * cfg.n_users
    assert tracer.counts["transceiver.frames"] == 2 + 4 * cfg.n_channel_trials


def test_demo_reconstruction_writes_every_stage(tmp_path, monkeypatch, capsys):
    demo = load_script("demo_reconstruction")
    monkeypatch.setattr(sys, "argv", ["demo", "--size", "32", "--outdir", str(tmp_path)])
    assert demo.main() == 0

    tags = [f"{scheme}_snr{snr}" for snr in ("0", "7.5", "15") for scheme in ("mf", "zf")]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == tags
    assert all("raw 1-ssim" in line and "pull 1-ssim" in line for line in lines[:-1])
    expected = {"clean.pgm"} | {
        f"{tag}_{stage}.pgm" for tag in tags for stage in ("received", "smooth", "pull")
    }
    assert {p.name for p in tmp_path.iterdir()} == expected


def test_bench_layers_records_each_label(tmp_path, monkeypatch):
    bench = load_script("bench_layers")
    monkeypatch.setattr(bench, "SAMPLES", 3)
    out = tmp_path / "bench.json"
    for label in ("before", "after"):
        assert bench.main(["--out", str(out), "--label", label]) == 0
    runs = json.loads(out.read_text())["runs"]
    assert set(runs) == {"before", "after"}
    for run in runs.values():
        assert run["host"]["cores"] >= 1 and "blas_name" in run["host"]
        assert set(run["layers"]) == {
            "link.empirical_link_budget",
            "link.empirical_link_budget[zf]",
            "link.link_budget[16x8]",
            "sweeps._simulate_cell[snr,mf,15dB]",
            "sweeps._simulate_cell[csi,mf,15dB,-10dB]",
            "channel.draw_channel_set[16x8,perfect]",
            "channel.draw_channel_set[16x8,-10dB]",
            "channel.complex_gaussian[10000x16]",
            "channel.complex_gaussian[8x65536]",
            "transceiver.qam_modulate[qam4,8x65536]",
            "transceiver.qam_modulate[qam4,8x8192]",
            "transceiver.qam_demodulate[qam4,8x65536]",
            "transceiver.qam_demodulate[qam4,8x8192]",
            "transceiver.qam_demodulate[qam16,8x65536]",
            "transceiver.qam_demodulate[qam16,8x8192]",
            "transceiver.qam_demodulate[qam64,8x65536]",
            "transceiver.qam_demodulate[qam64,8x8192]",
            "transceiver.split_bit_planes[128x128]",
            "transceiver.split_bit_planes[1024x1024]",
            "transceiver.BitPlaneSource.to_image[128x128]",
            "transceiver.BitPlaneSource.to_image[1024x1024]",
            "transceiver.transmit_frame[128x128]",
            "transceiver.transmit_frame[1024x1024]",
            "metrics._window_means[128x128]",
            "images.box_mean[128x128,nearest3]",
            "metrics.ssim[128x128,array]",
            "metrics.ssim[128x128,reference]",
            "inference.SmoothingDenoiser[128x128]",
            "transceiver.transmit_frame[512x512]",
            "metrics._window_means[512x512]",
            "images.box_mean[512x512,nearest3]",
            "metrics.ssim[512x512,array]",
            "metrics.ssim[512x512,reference]",
            "inference.SmoothingDenoiser[512x512]",
            "metrics._window_means[1024x1024]",
            "images.box_mean[1024x1024,nearest3]",
            "metrics.ssim[1024x1024,array]",
            "metrics.ssim[1024x1024,reference]",
            "metrics.metric_report[1024x1024,array]",
            "inference.SmoothingDenoiser[1024x1024]",
        }
        for layer in run["layers"].values():
            assert layer["n"] == 3 and layer["median"] > 0 and layer["iqr"] >= 0
            # samples are sized to last about a millisecond or more
            assert layer["median"] * layer["calls_per_sample"] >= 0.5
            assert layer["minflt_per_call"]["median"] >= 0
            assert layer["minflt_per_call"]["iqr"] >= 0
            assert layer["peak_bytes_per_call"] >= 0
        # Frames send eight bit planes of one pixel each: 8 * size**2 bits per
        # call. Of three samples, the median rate is the rate of the median time.
        for size in (128, 1024):
            frame = run["layers"][f"transceiver.transmit_frame[{size}x{size}]"]
            assert frame["args"]["bits"] == 8 * size**2
            assert frame["mbit_s"]["median"] == pytest.approx(
                8 * size**2 / frame["median"] / 1e3, rel=1e-9)
        # A 1024² SSIM against an 8-bit image holds at least that image as float.
        assert run["layers"]["metrics.ssim[1024x1024,reference]"]["peak_bytes_per_call"] >= 8 << 20


def test_bench_layers_sample_counts_minor_faults_per_call():
    bench = load_script("bench_layers")
    # 64 MB is above glibc's largest mmap threshold, so each call maps and
    # touches fresh pages.
    seconds, faults = bench._sample(lambda: np.ones(1 << 23), 2)
    assert seconds > 0 and faults > 0
    assert bench._sample(lambda: None, 1000)[1] < 1


def test_bench_layers_peak_bytes_count_numpy_buffers_of_one_call():
    bench = load_script("bench_layers")
    calls = []
    peak = bench._peak_bytes(lambda: calls.append(np.ones(1 << 20).sum()))
    assert len(calls) == 2  # one untraced call, then the traced one
    assert 8 << 20 <= peak < 9 << 20
    kept = np.ones(1 << 20)  # traced before the call: not counted
    assert bench._peak_bytes(lambda: kept.sum()) < 1 << 16


def test_bench_layers_against_another_checkout(tmp_path, monkeypatch):
    # This checkout against itself, loaded a second time under another name.
    bench = load_script("bench_layers")
    monkeypatch.setattr(bench, "SAMPLES", 2)
    monkeypatch.delitem(sys.modules, "semimo_against", raising=False)
    out = tmp_path / "bench.json"
    assert bench.main(["--out", str(out), "--label", "ab", "--against", str(ROOT)]) == 0
    run = json.loads(out.read_text())["runs"]["ab"]
    assert run["against_git_sha"] == run["git_sha"]
    assert sys.modules["semimo_against"].metrics is not sys.modules["semimo.metrics"]
    for layer in run["layers"].values():
        assert layer["n"] == 2 and layer["against"]["median"] > 0
        assert layer["against"]["minflt_per_call"]["median"] >= 0
        assert layer["against"]["peak_bytes_per_call"] >= 0
        assert ("mbit_s" in layer["against"]) == ("bits" in layer["args"])
        assert layer["ratio"]["median"] > 0 and layer["ratio"]["iqr"] >= 0


def test_count_settables_on_a_known_module(tmp_path, capsys):
    counter = load_script("count_settables")
    (tmp_path / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class ExperimentConfig:\n"
        "    seed: int = 1\n"
        "\n"
        "class Plain:\n"
        "    z: int\n"
        "    def method(self, p, q=1, *args, r, s=2, **kw):\n"
        "        return lambda k: k\n"
        "    @classmethod\n"
        "    def make(cls, t):\n"
        "        pass\n"
    )
    (tmp_path / "b.py").write_text(
        "LIMIT = 3\n"
        "_BUDGET: int = 1 << 17\n"
        "A, _B2 = C = 1, 2\n"
        "lower = __all__ = []\n"
        "def f(u, /, v, *, w=3):\n"
        "    LOCAL = 1\n"
        "class K:\n"
        "    MEMBER = 2\n"
    )
    (tmp_path / "notes.txt").write_text("def g(x):\n")
    expected = {
        "modules": 2,  # a.py, b.py; not notes.txt
        "lines": 27,
        "parameters": 8,  # p q r s, t, u v w
        "defaults": 3,  # q s w
        "dataclass_fields": 3,  # x y, seed
        "config_keys": 1,
        "constants": 5,  # LIMIT, _BUDGET, A _B2 C; not lower, __all__, LOCAL or MEMBER
    }
    assert counter.count(tmp_path) == expected
    assert counter.main([str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [f"{name} {value}" for name, value in expected.items()]
