import csv
import sys
import tempfile

import numpy as np
import pytest

from semimo import cli
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


def test_reconstruct_prints_the_metric_names(tmp_path, capsys, monkeypatch):
    # The scores follow METRIC_NAMES, so a name added there is printed too.
    names = ("one_minus_ssim", "mae")
    monkeypatch.setattr(cli, "METRIC_NAMES", names)
    cfg = write_small_config(tmp_path)
    assert main(["reconstruct", "--config", str(cfg), "--out", str(tmp_path / "r.pgm")]) == EXIT_OK
    scores = {}
    for line in capsys.readouterr().out.splitlines():
        label, _, rest = line.partition(": ")
        if label in ("identity", "operator"):
            scores[label] = [pair.split("=") for pair in rest.split()]
    assert set(scores) == {"identity", "operator"}
    for pairs in scores.values():
        assert [name for name, _ in pairs] == list(names)
        assert all(len(value.split(".")[1]) == 5 for _, value in pairs)


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


def test_undecodable_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("image = caf\xe9.pgm\n".encode("latin-1"))
    code = main(["snr-sweep", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


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
        "noise_var = 0\n",
        "n_error_draws = 0\n",
        "fixed_snr_db = nan\n",
        "snr_grid_db = 0, inf\n",
        "err_var_grid_db = -inf, nan\n",
        "fixed_snr_db = 4000\nsnr_grid_db = 0, 4000\n",
        "err_var_grid_db = -inf, 4000\nrecon_err_var_db = 4000\n",
        "operator = affine:factor=0.5,anchor={tmp}/tiny.pgm\n",
        "operator = smooth:strength=nan\n",
        "operator = smooth:strength=inf\n",
        "operator = affine:factor=0.5,anchor=flat:nan\n",
        "operator = affine:factor=0.5,anchor=flat:inf\n",
        "n_error_draws = 1\n",
        "image = {tmp}/over-maxval.pgm\n",
    ],
    ids=[
        "non-square-qam", "tiny-synthetic", "tiny-pgm", "n-users-not-8", "metric-template",
        "zero-noise", "zero-error-draws", "nan-fixed-snr", "inf-snr", "nan-err-var",
        "huge-snr", "huge-err-var", "affine-anchor-shape", "nan-strength", "inf-strength",
        "nan-anchor", "inf-anchor", "one-error-draw", "over-maxval-pgm",
    ],
)
def test_bad_input_rejected_before_first_cell(tmp_path, extra):
    write_pgm(tmp_path / "tiny.pgm", np.zeros((4, 4), dtype=np.uint8))
    # A 16x16 image whose maxval is 15 but whose samples are 200.
    (tmp_path / "over-maxval.pgm").write_bytes(b"P5\n16 16\n15\n" + bytes([200]) * 256)
    cfg = write_small_config(tmp_path, extra=extra.format(tmp=tmp_path))
    out = tmp_path / "x.csv"
    for verb in ("snr-sweep", "csi-sweep", "reconstruct"):
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()  # no partial output: nothing ran


@pytest.mark.parametrize("out", ["missing/x.out", "a-file/x.out", "a-dir"])
@pytest.mark.parametrize("verb", ["snr-sweep", "csi-sweep", "bench", "reconstruct"])
def test_unwritable_out_rejected_before_any_work(tmp_path, monkeypatch, verb, out):
    cfg = write_small_config(tmp_path)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    ran = []
    for name in ("run_snr_sweep", "run_csi_error_sweep", "run_complexity_bench", "run_trial"):
        monkeypatch.setattr(f"semimo.cli.{name}", lambda *a, name=name: ran.append(name))
    before = sorted(tmp_path.rglob("*"))
    assert main([verb, "--config", str(cfg), "--out", str(tmp_path / out)]) == EXIT_CONFIG
    assert ran == [] and sorted(tmp_path.rglob("*")) == before


OPENBLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# The function each verb runs its work in, as the CLI looks it up.
VERB_WORK = {"snr-sweep": "run_snr_sweep", "csi-sweep": "run_csi_error_sweep",
             "reconstruct": "_reconstruct"}


@pytest.mark.parametrize("verb", sorted(VERB_WORK))
def test_verbs_hold_blas_to_one_thread(tmp_path, monkeypatch, blas_counts, verb):
    for var in OPENBLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    seen = []
    monkeypatch.setattr(cli, VERB_WORK[verb], lambda cfg, out: seen.append(blas_counts()))
    cfg = write_small_config(tmp_path)
    assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "x.out")]) == EXIT_OK
    assert seen == [[1] * len(blas_counts())]
    assert set(blas_counts()) == {2}


@pytest.mark.parametrize("var", OPENBLAS_VARS)
def test_a_users_blas_variable_wins(tmp_path, monkeypatch, blas_counts, var):
    for other in OPENBLAS_VARS:
        monkeypatch.delenv(other, raising=False)
    monkeypatch.setenv(var, "2")
    seen = []
    monkeypatch.setattr(cli, "run_snr_sweep", lambda cfg, out: seen.append(blas_counts()))
    cfg = write_small_config(tmp_path)
    assert main(["snr-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_OK
    assert seen == [[2] * len(blas_counts())]


def test_sweep_bodies_do_not_depend_on_the_blas_pin(tmp_path, monkeypatch, blas_counts):
    # With the user's variable set the sweep runs on the fixture's two threads.
    for var in OPENBLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    cfg = write_small_config(tmp_path)
    for verb in ("snr-sweep", "csi-sweep"):
        pinned, unpinned = tmp_path / f"{verb}-pinned.csv", tmp_path / f"{verb}-user.csv"
        assert main([verb, "--config", str(cfg), "--out", str(pinned)]) == EXIT_OK
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main([verb, "--config", str(cfg), "--out", str(unpinned)]) == EXIT_OK
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        body = [path.read_text().split("\n", 1)[1] for path in (pinned, unpinned)]
        assert body[0] == body[1]


@pytest.mark.parametrize("verb", ["bench", "reconstruct"])
def test_only_the_sweeps_take_workers(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--workers", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_non_finite_external_metric_ends_the_sweep(tmp_path, score):
    # A scorer that prints a non-finite number fails its cell like any other
    # unusable output: exit 3 with the marker row, not a CSV full of nan.
    scorer = tmp_path / "scorer.py"
    scorer.write_text(f"print('{score}')\n")
    extra = f"external_metric = {sys.executable} {scorer} {{test}} {{ref}}\n"
    cfg = write_small_config(tmp_path, extra=extra)
    out = tmp_path / "x.csv"
    assert main(["snr-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert [row["recon"] for row in rows] == ["error"]
    assert "non-finite" in rows[0]["external_metric"]


def test_hooks_run_from_a_temp_dir_with_a_space(tmp_path, monkeypatch):
    # Each placeholder path reaches the command as one argument.
    spaced = tmp_path / "tmp dir"
    spaced.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))  # tempfile caches TMPDIR
    scorer = tmp_path / "scorer.py"
    scorer.write_text(
        "import os, sys\n"
        "assert len(sys.argv) == 3 and all(map(os.path.isfile, sys.argv[1:])), sys.argv\n"
        "print(0.5)\n"
    )
    extra = (
        "snr_grid_db = 10\n"
        "operator = external:/bin/cp {in} {out}\n"
        f"external_metric = {sys.executable} {scorer} {{test}} {{ref}}\n"
    )
    cfg = write_small_config(tmp_path, extra=extra)
    out = tmp_path / "x.csv"
    assert main(["snr-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 4 and all(row["external_metric"] == "0.5" for row in rows)


def test_runtime_error_exit_code(tmp_path, capsys):
    # An external operator whose command always fails surfaces as a runtime
    # failure once the sweep starts.
    cfg = write_small_config(tmp_path, extra="operator = external:/bin/false {in} {out}\n")
    code = main(["snr-sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_RUNTIME
    assert "error" in capsys.readouterr().err
