import numpy as np
import pytest

from semimo.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from semimo.images import read_pgm, write_pgm


def write_small_config(tmp_path, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "image_width = 32\n"
        "image_height = 32\n"
        "n_channel_trials = 1\n"
        "snr_grid_db = 0, 10\n"
        "err_var_grid_db = -inf, -10\n"
        "n_error_draws = 500\n"
        "bench_users = 8, 16\n"
        "bench_repetitions = 5\n" + extra
    )
    return path


def test_snr_sweep_verb(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "snr.csv"
    code = main(["snr-sweep", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_csi_sweep_verb(tmp_path):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "csi.csv"
    assert main(["csi-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert out.read_text().count("csi,") > 0


def test_bench_verb(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "log-log slope" in printed


def test_reconstruct_verb(tmp_path, capsys):
    cfg = write_small_config(tmp_path)
    out = tmp_path / "restored.pgm"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    received = tmp_path / "restored_received.pgm"
    assert out.exists() and received.exists()
    assert read_pgm(out).shape == (32, 32)
    printed = capsys.readouterr().out
    assert "empirical ber per stream" in printed


def test_seed_flag_changes_output(tmp_path):
    cfg = write_small_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert main(["snr-sweep", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == EXIT_OK
    assert main(["snr-sweep", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == EXIT_OK
    assert main(["snr-sweep", "--config", str(cfg), "--out", str(out_c), "--seed", "1"]) == EXIT_OK
    body = lambda p: p.read_bytes().split(b"\n", 1)[1]
    assert body(out_a) != body(out_b)
    assert body(out_a) == body(out_c)


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    code = main(["snr-sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_image_is_config_error(tmp_path):
    cfg = write_small_config(tmp_path, extra="image = /nonexistent/input.pgm\n")
    code = main(["snr-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "extra",
    [
        "qam_order = 8\n",
        "image_width = 4\n",
        "image = {tmp}/tiny.pgm\n",
        "n_users = 4\n",
        "external_metric = echo 1\n",
    ],
    ids=["non-square-qam", "tiny-synthetic", "tiny-pgm", "n-users-not-8", "metric-template"],
)
def test_bad_input_rejected_before_first_cell(tmp_path, extra):
    write_pgm(tmp_path / "tiny.pgm", np.zeros((4, 4), dtype=np.uint8))
    cfg = write_small_config(tmp_path, extra=extra.format(tmp=tmp_path))
    out = tmp_path / "x.csv"
    for verb in ("snr-sweep", "csi-sweep", "reconstruct"):
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()  # no partial output: nothing ran


def test_runtime_error_exit_code(tmp_path, capsys):
    # An external operator whose command always fails surfaces as a runtime
    # failure once the sweep starts.
    cfg = write_small_config(tmp_path, extra="operator = external:/bin/false {in} {out}\n")
    code = main(["snr-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err
