import csv
import dataclasses
import hashlib
import io
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from semimo.channel import SeedSpec, draw_channel_set
from semimo import sweeps, transceiver
from semimo.config import ExperimentConfig, from_db, to_db
from semimo.inference import SmoothingDenoiser
from semimo.metrics import METRIC_NAMES, ExternalMetricError, MetricReport, Reference
from semimo.precoding import Scheme, zf_precoder
from semimo.sweeps import (
    CSV_COLUMNS,
    cell_entropy,
    load_operator,
    load_source,
    run_csi_error_sweep,
    run_snr_sweep,
    run_trial,
    score_frame,
    write_csv,
)
from semimo.transceiver import QamConstellation, transmit_frame


def small_config(**kw):
    defaults = dict(
        image_width=32,
        image_height=32,
        n_channel_trials=1,
        snr_grid_db=(0.0, 10.0),
        err_var_grid_db=(float("-inf"), -10.0),
        fixed_snr_db=10.0,
        n_error_draws=2000,
        master_seed=424242,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def rows_by_key(rows):
    return {(r["case"], r["scheme"], r["recon"], r["snr_db"], r["err_var_db"]): r for r in rows}


def test_one_list_of_metric_names():
    # The CSV's metric columns sit between exp_distortion and external_metric.
    first, last = CSV_COLUMNS.index("exp_distortion"), CSV_COLUMNS.index("external_metric")
    assert tuple(CSV_COLUMNS[first + 1 : last]) == METRIC_NAMES
    fields = tuple(f.name for f in dataclasses.fields(MetricReport))
    assert fields == (*METRIC_NAMES, "external")
    assert ExperimentConfig().metric_set == METRIC_NAMES


def test_snr_sweep_shape_and_schema(tmp_path):
    cfg = small_config()
    out = tmp_path / "snr.csv"
    rows = run_snr_sweep(cfg, out)
    assert len(rows) == len(cfg.snr_grid_db) * 2 * 2  # snr x scheme x recon
    text = out.read_text().splitlines()
    assert text[0].startswith("# generated_at=")
    header_line = next(line for line in text if not line.startswith("#"))
    assert header_line == ",".join(CSV_COLUMNS)
    data_lines = [line for line in text if line and not line.startswith("#")][1:]
    assert len(data_lines) == len(rows)
    for row in rows:
        assert row["err_var_db"] == float("-inf")
        assert row["i_error"] == 0.0
        assert 0 <= row["ber_empirical"] <= 0.5


def test_rerun_is_byte_identical_after_timestamp(tmp_path):
    cfg = small_config()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_snr_sweep(cfg, a)
    run_snr_sweep(cfg, b)
    body_a = a.read_bytes().split(b"\n", 1)[1]
    body_b = b.read_bytes().split(b"\n", 1)[1]
    assert body_a == body_b


def test_cell_results_independent_of_grid(tmp_path):
    wide = run_snr_sweep(small_config(snr_grid_db=(0.0, 10.0)))
    narrow = run_snr_sweep(small_config(snr_grid_db=(10.0,)))
    wide_map = rows_by_key(wide)
    for row in narrow:
        key = (row["case"], row["scheme"], row["recon"], row["snr_db"], row["err_var_db"])
        assert wide_map[key] == row


def test_csi_perfect_point_reproduces_snr_cell():
    # The default SNR grid holds np.float64 values; fixed_snr_db is a float.
    for snr_grid in ((10.0,), (np.float64(10.0),)):
        cfg = small_config(snr_grid_db=snr_grid, err_var_grid_db=(float("-inf"),))
        snr_rows = rows_by_key(run_snr_sweep(cfg))
        for row in run_csi_error_sweep(cfg):
            key = ("snr", row["scheme"], row["recon"], row["snr_db"], row["err_var_db"])
            twin = snr_rows[key]
            for name in CSV_COLUMNS:
                if name == "case":
                    continue
                assert row[name] == twin[name], (snr_grid, name)


def test_csi_sweep_error_interference_column():
    cfg = small_config(err_var_grid_db=(float("-inf"), -10.0, 0.0))
    rows = run_csi_error_sweep(cfg)
    p = cfg.tx_power(cfg.fixed_snr_db)
    for row in rows:
        err_var = 0.0 if row["err_var_db"] == float("-inf") else 10 ** (row["err_var_db"] / 10)
        assert row["i_error"] == pytest.approx(p * (cfg.n_users - 1) * err_var, rel=1e-12)


def test_csi_sweep_oracle_agrees_with_analytic():
    cfg = small_config(err_var_grid_db=(float("-inf"), -10.0, 0.0), n_error_draws=10_000)
    for row in run_csi_error_sweep(cfg):
        analytic = row["i_precode_mean"] + row["i_error"]
        estimate = row["i_interference_empirical"]
        se = row["i_interference_empirical_se"]
        assert (se == 0) == (row["err_var_db"] == float("-inf"))
        if se == 0:  # perfect CSI: the oracle returns link_budget's powers
            assert estimate == analytic
        rel = abs(estimate - analytic) / analytic if analytic else 0.0
        assert rel <= 0.01 or abs(estimate - analytic) <= 3 * se


def test_csi_cell_at_huge_snr_keeps_finite_standard_errors():
    # At 1600 dB the powers are ~1e160: their squares overflow, but the
    # oracle's moments are taken before the power scale is applied.
    cfg = small_config(
        image_width=16, image_height=16, fixed_snr_db=1600.0,
        err_var_grid_db=(0.0,), n_error_draws=50,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_csi_error_sweep(cfg)
    for row in rows:
        assert math.isfinite(row["i_interference_empirical"])
        assert 0 < row["i_interference_empirical_se"] < math.inf


def test_score_frame_same_from_reference_or_array():
    rng = np.random.default_rng(8)
    clean = rng.integers(0, 256, (24, 20), dtype=np.uint8)
    noisy = rng.integers(0, 256, (24, 20), dtype=np.uint8)
    operators = {"smooth": SmoothingDenoiser(strength=1.0)}
    from_array = score_frame(noisy, clean, operators)
    from_reference = score_frame(noisy, Reference(clean), operators)
    assert list(from_array) == list(from_reference) == ["identity", "smooth"]
    for name, (image, report) in from_array.items():
        np.testing.assert_array_equal(from_reference[name][0], image)
        assert from_reference[name][1] == report


def test_mf_beats_zf_sinr_at_low_snr():
    cfg = small_config(snr_grid_db=(-5.0,), n_channel_trials=4)
    rows = rows_by_key(run_snr_sweep(cfg))
    mf = rows[("snr", "mf", "identity", -5.0, float("-inf"))]
    zf = rows[("snr", "zf", "identity", -5.0, float("-inf"))]
    assert mf["gamma_analytic_mean"] >= zf["gamma_analytic_mean"]


def test_workers_do_not_change_rows(tmp_path):
    serial = run_snr_sweep(small_config(workers=1))
    threaded = run_snr_sweep(small_config(workers=4))
    assert serial == threaded


def test_one_worker_runs_the_cells_on_the_calling_thread(monkeypatch):
    # At one worker no pool thread is started: the only other thread is the
    # frame noise helper, which runs nothing but the draws.
    threads = []

    def spy(operator, image):
        threads.append(threading.current_thread())
        return apply_operator(operator, image)

    apply_operator = sweeps.apply_operator
    monkeypatch.setattr(sweeps, "apply_operator", spy)
    cfg = small_config(snr_grid_db=(10.0,))
    run_snr_sweep(cfg)
    assert len(threads) == 2 and all(t is threading.main_thread() for t in threads)
    threads.clear()
    run_snr_sweep(dataclasses.replace(cfg, workers=2))
    assert len(threads) == 2 and threading.main_thread() not in threads


@pytest.mark.parametrize("workers", [1, 2])
def test_cells_run_under_the_callers_errstate(monkeypatch, workers):
    # numpy keeps np.errstate in a context variable, which a pool thread does
    # not inherit: each pooled cell runs in a copy of the caller's context.
    def cell(cfg, case, scheme, snr_db, err_var, *inputs):
        return [{"over": np.geterr()["over"]}]

    monkeypatch.setattr(sweeps, "_simulate_cell", cell)
    with np.errstate(over="raise"):
        rows = run_snr_sweep(small_config(workers=workers))
    assert [row["over"] for row in rows] == ["raise"] * 4
    assert np.geterr()["over"] != "raise"


@pytest.mark.parametrize("case", ["snr", "csi"])
def test_cell_rows_are_running_sums_in_trial_order(case):
    # Nine trials: from eight terms on numpy's pairwise sum differs from a
    # running sum, so a cell that averaged with np.mean would fail here.
    trials, n_frames, snr_db = 9, 2, 10.0
    cfg = small_config(
        n_channel_trials=trials, n_frames=n_frames, snr_grid_db=(snr_db,),
        fixed_snr_db=snr_db, err_var_grid_db=(-10.0,), n_error_draws=50,
    )
    err_var = 0.0 if case == "snr" else from_db(-10.0)
    sweep = run_snr_sweep if case == "snr" else run_csi_error_sweep
    rows = [row for row in sweep(cfg) if row["scheme"] == "mf"]

    source = load_source(cfg)
    reference = Reference(source.to_image())
    operators = {"operator": load_operator(cfg, source)}
    entropy = cell_entropy(cfg.master_seed, Scheme.MF, snr_db, err_var)
    gamma = ber = i_precode = distortion = interference = 0.0
    bit_errors = bits = 0
    se = []
    reports = {"identity": [], "operator": []}
    for t in range(trials):
        trial = run_trial(
            cfg, Scheme.MF, snr_db, err_var, source, SeedSpec(entropy, t),
            [SeedSpec(entropy, t * n_frames + f) for f in range(n_frames)],
            SeedSpec(entropy ^ 0x5EED, t) if case == "csi" else None,
        )
        gamma += float(trial.budget.sinr.mean())
        ber += float(trial.bers.mean())
        i_precode += float(trial.budget.i_precode.mean())
        distortion += sweeps.expected_distortion(trial.bers, cfg.n_users)
        if case == "csi":
            interference += float(trial.oracle.interference.mean())
            se.extend(trial.oracle.interference_se.tolist())
        for frame in trial.frames:
            bit_errors += int(frame.bit_errors.sum())
            bits += frame.bits_per_stream * cfg.n_users
            for recon, (_, report) in score_frame(frame.image(), reference, operators).items():
                reports[recon].append(report)

    expected = []
    for recon, batch in reports.items():
        row = {
            "case": case, "scheme": "mf", "recon": recon, "snr_db": snr_db,
            "err_var_db": to_db(err_var), "trial_count": trials,
            "gamma_analytic_mean": gamma / trials, "ber_analytic_mean": ber / trials,
            "ber_empirical": bit_errors / bits, "i_precode_mean": i_precode / trials,
            "i_error": trial.budget.i_error, "exp_distortion": distortion / trials,
            **{name: float(np.mean([getattr(r, name) for r in batch])) for name in METRIC_NAMES},
            "external_metric": "",
        }
        if case == "csi":
            row["i_interference_empirical"] = interference / trials
            row["i_interference_empirical_se"] = math.hypot(*se) / cfg.n_users / trials
        expected.append(row)
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]


def test_csi_rows_independent_of_workers_and_grid():
    # Every returned column, the oracle's included, is a function of the cell.
    grid = (float("-inf"), -10.0, -5.0)
    serial = run_csi_error_sweep(small_config(err_var_grid_db=grid, n_error_draws=1000))
    threaded = run_csi_error_sweep(
        small_config(err_var_grid_db=grid, n_error_draws=1000, workers=2)
    )
    assert serial == threaded
    assert all("i_interference_empirical_se" in row for row in serial)
    narrow = run_csi_error_sweep(small_config(err_var_grid_db=grid[:2], n_error_draws=1000))
    wide_map = rows_by_key(serial)
    assert len(narrow) == len(serial) * 2 // 3
    for key, row in rows_by_key(narrow).items():
        assert wide_map[key] == row


def test_error_marker_row_flushed(tmp_path):
    class Boom(ExperimentConfig):
        def tx_power(self, snr_db):
            raise RuntimeError("kaboom")

    cfg = Boom(**{**small_config().__dict__})
    out = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError, match="kaboom"):
        run_snr_sweep(cfg, out)
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert any(",error," in line and "kaboom" in line for line in lines[1:])


def test_error_marker_row_quotes_the_message(tmp_path):
    # A failure message holding a comma and a newline stays one CSV field.
    scorer = tmp_path / "scorer.py"
    scorer.write_text(
        "import sys\nsys.stderr.write('model load failed: shape (3, 4),\\nsecond line')\n"
        "sys.exit(1)\n"
    )
    cfg = small_config(
        snr_grid_db=(10.0,), external_metric=f"{sys.executable} {scorer} {{test}} {{ref}}"
    )
    out = tmp_path / "partial.csv"
    with pytest.raises(ExternalMetricError) as failure:
        run_snr_sweep(cfg, out)
    message = str(failure.value)[:200]
    assert "model load failed: shape (3, 4),\nsecond line" in message
    body = out.read_text(encoding="utf-8").split("\n", 2)[2]  # past the two comments
    rows = list(csv.reader(io.StringIO(body)))
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 2
    assert rows[0] == CSV_COLUMNS
    assert rows[1][CSV_COLUMNS.index("recon")] == "error"
    assert rows[1][CSV_COLUMNS.index("external_metric")] == message


def test_equalize_with_known_gain_reaches_the_frame():
    err_var, snr_db, seed = 0.05, 10.0, SeedSpec(11)
    cfg = small_config()
    source = load_source(cfg)
    planes = {
        known: run_trial(
            small_config(equalize_with_known_gain=known), Scheme.ZF, snr_db, err_var,
            source, seed, [seed],
        ).frames[0].received.planes.tobytes()
        for known in (False, True)
    }
    channel = draw_channel_set(cfg.n_tx, cfg.n_users, err_var, seed)
    direct = transmit_frame(
        source, channel, zf_precoder(channel.h_known), cfg.tx_power(snr_db), cfg.noise_var,
        QamConstellation.square(cfg.qam_order), seed, equalize_with_known_gain=True,
    )
    assert planes[True] == direct.received.planes.tobytes()
    assert planes[False] != planes[True]


def test_metric_set_blanks_deselected_columns(tmp_path):
    cfg = small_config(snr_grid_db=(10.0,), metric_set=("mae",))
    rows = run_snr_sweep(cfg)
    for row in rows:
        assert isinstance(row["mae"], float)
        assert row["neg_psnr"] == ""
        assert row["one_minus_ssim"] == ""


def test_cell_entropy_stability():
    a = cell_entropy(1, Scheme.MF, 10.0, 0.0)
    assert a == cell_entropy(1, Scheme.MF, 10.0, 0.0)
    assert a != cell_entropy(2, Scheme.MF, 10.0, 0.0)
    assert a != cell_entropy(1, Scheme.ZF, 10.0, 0.0)
    assert a != cell_entropy(1, Scheme.MF, 10.5, 0.0)
    # numpy scalars (the default grids) seed like the equal Python floats.
    assert a == cell_entropy(1, Scheme.MF, np.float64(10.0), 0.0)
    assert a == cell_entropy(1, Scheme.MF, 10.0, np.float64(0.0))
    # Both zeros are one coordinate (a config may spell 0 as -0).
    assert cell_entropy(1, Scheme.MF, -0.0, -0.0) == cell_entropy(1, Scheme.MF, 0.0, 0.0)
    assert 0 <= a < 2**64


def test_write_csv_formats_floats_stably(tmp_path):
    row = {name: "" for name in CSV_COLUMNS}
    row.update(case="snr", scheme="mf", recon="identity", snr_db=1.25, trial_count=3)
    path = tmp_path / "fmt.csv"
    write_csv([row], path)
    data = path.read_text().splitlines()[-1].split(",")
    assert data[CSV_COLUMNS.index("snr_db")] == "1.25"
    assert data[CSV_COLUMNS.index("trial_count")] == "3"


# CSV body digests of two small SNR sweeps, recorded with the code before the
# sweep's frames shared one noise stream (each frame then drew its own): 16
# one-block 32 x 32 frames, and 4 frames of 400 x 331, two blocks each.
SWEEP_DIGESTS = {
    "32x32": (dict(n_channel_trials=2, n_frames=2),
              "79ad3e0265f06c51b398c554116cbc4c3b7e6fe151865ac6ae0e5ce3951c7e19"),
    "400x331": (dict(image_width=400, image_height=331, snr_grid_db=(10.0,), n_frames=2),
                "f3112fe12df6ef1de95690767a527462c44fc97315b2edd5dcd3a88dc215f5b7"),
}


def sweep_digest(path, **kw) -> str:
    run_snr_sweep(small_config(**kw), path)
    return hashlib.sha256(path.read_bytes().split(b"\n", 1)[1]).hexdigest()


def count_noise_helpers(monkeypatch) -> list:
    made = []
    executor = transceiver.ThreadPoolExecutor
    monkeypatch.setattr(transceiver, "ThreadPoolExecutor",
                        lambda *args, **kwargs: made.append(kwargs) or executor(*args, **kwargs))
    return made


class TestSweepNoiseHelper:
    """At one worker, one helper thread draws each frame's noise one block ahead, across frames."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # The helper runs only where the process may use two CPUs.
        monkeypatch.setattr(sweeps, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize(("workers", "cpus", "helpers"), [(1, 2, 1), (2, 2, 0), (1, 1, 0)])
    def test_one_helper_per_sweep_at_one_worker_on_two_cpus(
            self, monkeypatch, workers, cpus, helpers):
        monkeypatch.setattr(sweeps, "_usable_cpus", lambda: cpus)
        made = count_noise_helpers(monkeypatch)
        run_snr_sweep(small_config(n_frames=2, workers=workers))  # 8 one-block frames
        assert made == [{"max_workers": 1}] * helpers

    def test_sweep_leaves_no_thread_running(self, monkeypatch):
        before = threading.active_count()
        run_snr_sweep(small_config(n_frames=2))
        assert threading.active_count() == before
        report, calls = sweeps.metric_report, []

        def failing(*args):
            calls.append(1)
            if len(calls) == 5:  # the second cell's first score
                raise RuntimeError("score failed")
            return report(*args)

        monkeypatch.setattr(sweeps, "metric_report", failing)
        with pytest.raises(RuntimeError, match="score failed"):
            run_snr_sweep(small_config(n_frames=2))
        assert threading.active_count() == before

    def test_helper_error_reaches_the_cell_that_needs_the_frame(self, monkeypatch, tmp_path):
        # The second cell's (ZF at 0 dB) first frame is drawn on the helper
        # while the first cell's last frame is sent and scored.
        cfg = small_config(n_frames=2)
        target = SeedSpec(cell_entropy(cfg.master_seed, Scheme.ZF, 0.0, 0.0), 0)
        raised, callers = [], []
        rng = SeedSpec.rng

        def failing(self, *subkey):
            if self == target and subkey == (0,):
                callers.append(threading.current_thread())
                raised.append(RuntimeError("frame noise"))
                raise raised[-1]
            return rng(self, *subkey)

        monkeypatch.setattr(SeedSpec, "rng", failing)
        before = threading.active_count()
        out = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match="frame noise") as info:
            run_snr_sweep(cfg, out)
        assert info.value is raised[0]
        assert callers == [callers[0]] and callers[0] is not threading.current_thread()
        assert threading.active_count() == before
        body = out.read_text().split("\n", 2)[2]  # past the two comments
        rows = list(csv.DictReader(io.StringIO(body)))
        assert [(row["scheme"], row["recon"]) for row in rows] == [
            ("mf", "identity"), ("mf", "operator"), ("", "error")]
        assert rows[-1]["external_metric"] == "frame noise"

    @pytest.mark.parametrize("late", [False, True], ids=["switch-1us", "helper-late"])
    @pytest.mark.parametrize("size", list(SWEEP_DIGESTS))
    def test_helper_timing_changes_no_byte(self, late, size, monkeypatch, tmp_path):
        # As TestFrameHelperThread's test of the same name, over a sweep: the
        # helper also draws the next frame's first block.
        caller, rng = threading.current_thread(), SeedSpec.rng

        def slow(self, *subkey):
            if threading.current_thread() is not caller:
                time.sleep(0.02)
            return rng(self, *subkey)

        interval = sys.getswitchinterval()
        if late:
            monkeypatch.setattr(SeedSpec, "rng", slow)
        else:
            sys.setswitchinterval(1e-6)
        config, digest = SWEEP_DIGESTS[size]
        try:
            assert sweep_digest(tmp_path / "sweep.csv", **config) == digest
        finally:
            sys.setswitchinterval(interval)
