import numpy as np
import pytest

from semimo import bench, precoding, sweeps
from semimo.bench import _probe_grid, fit_loglog_slope, run_complexity_bench, write_bench_csv
from semimo.channel import SeedSpec, draw_channel_set
from semimo.config import ExperimentConfig
from semimo.precoding import Scheme


def test_slope_fit_recovers_cubic():
    sizes = np.array([8, 16, 32, 64])
    times = 1e-9 * sizes.astype(float) ** 3
    assert fit_loglog_slope(sizes, times) == pytest.approx(3.0, abs=1e-9)


def test_slope_fit_needs_two_points():
    with pytest.raises(ValueError):
        fit_loglog_slope([8], [1.0])


def test_tiny_bench_runs_and_writes(tmp_path):
    cfg = ExperimentConfig(bench_users=(8, 16), bench_repetitions=5)
    result = run_complexity_bench(cfg)
    assert set(result.medians) == {"mf", "zf"}
    assert all(m > 0 for medians in result.medians.values() for m in medians)
    assert result.times("zf") == dict(zip((8, 16), result.medians["zf"]))
    assert set(result.slopes) == {"mf", "zf"}

    out = tmp_path / "bench.csv"
    write_bench_csv(result, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# generated_at=")
    assert any(line.startswith("# loglog_slope_mf=") for line in lines)
    assert "scheme,n_users,n_tx,repetitions,median_time_s" in lines
    data = [line for line in lines if not line.startswith(("#", "scheme"))]
    assert len(data) == 4  # 2 schemes x 2 sizes
    rows = [line.split(",") for line in data]
    assert [(scheme, int(n)) for scheme, n, *_ in rows] == [
        (scheme, n) for scheme in ("mf", "zf") for n in (8, 16)
    ]
    assert all(int(n_tx) == 2 * int(n) and reps == "5" for _, n, n_tx, reps, _ in rows)
    assert all(float(median) > 0 for *_, median in rows)


def test_sweeps_and_bench_share_the_builder_table():
    # perfbench patches sweeps._BUILDERS entries; the bench must time the same ones.
    assert sweeps._BUILDERS is precoding.BUILDERS is bench.BUILDERS
    assert list(precoding.BUILDERS) == [Scheme.MF, Scheme.ZF]


def test_probes_use_the_sweep_builders_and_channel_draw(monkeypatch):
    built = []
    for scheme in list(sweeps._BUILDERS):
        monkeypatch.setitem(
            sweeps._BUILDERS, scheme, lambda h, name=scheme.value: built.append((name, h))
        )
    medians = _probe_grid([4, 8], 3, 5)
    assert {name: len(times) for name, times in medians.items()} == {"mf": 2, "zf": 2}
    # Three rounds visit each size; a visit makes one untimed and one timed build.
    assert [(name, h.shape) for name, h in built] == [
        (name, (2 * n, n)) for name in ("mf", "zf") for _ in range(3) for n in (4, 8)
        for _ in range(2)
    ]
    for _, h in built:
        n = h.shape[1]
        assert np.array_equal(h, draw_channel_set(2 * n, n, 0.0, SeedSpec(5)).h_known)


def test_bench_probes_on_one_blas_thread_and_restores_the_count(monkeypatch, blas_counts):
    seen = []

    def probe(users, repetitions, seed):
        seen.append(blas_counts())
        return {"mf": [1.0, 2.0], "zf": [1.0, 8.0]}

    monkeypatch.setattr(bench, "_probe_grid", probe)
    cfg = ExperimentConfig(bench_users=(8, 16), bench_repetitions=1)
    assert run_complexity_bench(cfg).slopes == pytest.approx({"mf": 1.0, "zf": 3.0})
    assert seen == [[1] * len(blas_counts())]
    assert set(blas_counts()) == {2}


def test_bench_restores_the_blas_count_after_a_failing_probe(monkeypatch, blas_counts):
    def probe(users, repetitions, seed):
        assert set(blas_counts()) == {1}
        raise RuntimeError("probe failed")

    monkeypatch.setattr(bench, "_probe_grid", probe)
    cfg = ExperimentConfig(bench_users=(8, 16), bench_repetitions=1)
    with pytest.raises(RuntimeError, match="probe failed"):
        run_complexity_bench(cfg)
    assert set(blas_counts()) == {2}
