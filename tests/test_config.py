import re

import numpy as np
import pytest

from semimo.cli import EXIT_CONFIG, main
from semimo.config import ConfigError, ExperimentConfig, build_operator, load_config
from semimo.inference import IdentityOperator, SmoothingDenoiser
from semimo.precoding import Scheme


def test_defaults_match_headline_setup():
    cfg = ExperimentConfig()
    assert (cfg.n_tx, cfg.n_users, cfg.qam_order) == (16, 8, 4)
    assert cfg.noise_var == 1.0
    assert cfg.fixed_snr_db == 15.0
    assert cfg.snr_grid_db[0] == -5.0 and cfg.snr_grid_db[-1] == 20.0
    assert cfg.snr_grid_db[1] - cfg.snr_grid_db[0] == 2.5
    assert cfg.err_var_grid_db[0] == float("-inf")


def test_tx_power_conversion():
    cfg = ExperimentConfig()
    assert cfg.tx_power(0.0) == pytest.approx(1.0)
    assert cfg.tx_power(10.0) == pytest.approx(10.0)
    assert cfg.tx_power(15.0) == pytest.approx(10**1.5)


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
# comment line
n_tx = 8
n_users = 4
snr_grid_db = 0, 5, 10
err_var_grid_db = -inf, -10
equalize_with_known_gain = true
master_seed = 7
operator = identity
"""
    )
    cfg = load_config(path)
    assert cfg.n_tx == 8 and cfg.n_users == 4
    assert cfg.snr_grid_db == (0.0, 5.0, 10.0)
    assert cfg.err_var_grid_db == (float("-inf"), -10.0)
    assert cfg.equalize_with_known_gain is True
    assert cfg.master_seed == 7


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("master_seed = 7\n")
    cfg = load_config(path, master_seed=99, workers=2)
    assert cfg.master_seed == 99
    assert cfg.workers == 2


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mystery_knob = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)


def test_bad_value_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("n_tx = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        load_config(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_recon_scheme_is_one_of_the_schemes():
    for scheme in Scheme:
        assert ExperimentConfig(recon_scheme=scheme.value).recon_scheme == scheme.value
    for bad in ("", "MF", "mmse", "zf "):
        message = f"recon_scheme must be mf or zf, got {bad!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(recon_scheme=bad)


def test_invalid_combination_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(n_tx=4, n_users=8)
    with pytest.raises(ConfigError):
        ExperimentConfig(snr_grid_db=())
    with pytest.raises(ConfigError):
        ExperimentConfig(n_channel_trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(bench_users=(0, 8))
    with pytest.raises(ConfigError):
        ExperimentConfig(bench_repetitions=0)


@pytest.mark.parametrize("sizes", ["8", "8, 8"], ids=["one-size", "repeated-size"])
def test_bench_users_need_two_distinct_sizes(tmp_path, sizes):
    # One size once ran every probe before failing the fit; a repeated size
    # fitted a meaningless slope and exited 0.
    path = tmp_path / "exp.cfg"
    path.write_text(f"bench_users = {sizes}\nbench_repetitions = 1\n")
    with pytest.raises(ConfigError, match="two distinct sizes"):
        load_config(path)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "values",
    [
        dict(snr_grid_db=(np.float64(0.0), np.float64(4000.0))),
        dict(fixed_snr_db=4000.0),
        dict(fixed_snr_db=-4000.0),  # the transmit power underflows to 0
        dict(noise_var=1e300, fixed_snr_db=100.0),
        dict(err_var_grid_db=(float("-inf"), np.float64(4000.0))),
        dict(recon_err_var_db=4000.0),
    ],
    ids=["float64-snr-grid", "huge-fixed-snr", "tiny-fixed-snr", "power-overflow",
         "float64-err-grid", "huge-recon-err"],
)
def test_db_values_must_convert_to_finite_linear_values(values):
    with pytest.raises(ConfigError):
        ExperimentConfig(**values)


def test_extreme_but_representable_db_values_load():
    # An error variance that underflows to 0 is perfect CSI, like -inf dB.
    cfg = ExperimentConfig(
        snr_grid_db=(-300.0, 300.0), err_var_grid_db=(-4000.0, 300.0),
        recon_err_var_db=-4000.0,
    )
    assert cfg.tx_power(300.0) == 1e30


def test_source_image_synthetic_and_file(tmp_path):
    cfg = ExperimentConfig(image_width=32, image_height=24)
    img = cfg.source_image()
    assert img.shape == (24, 32)

    from semimo.images import write_pgm

    path = tmp_path / "src.pgm"
    write_pgm(path, img)
    cfg2 = ExperimentConfig(image=str(path))
    assert np.array_equal(cfg2.source_image(), img)

    cfg3 = ExperimentConfig(image=str(tmp_path / "absent.pgm"))
    with pytest.raises(ConfigError):
        cfg3.source_image()


class TestBuildOperator:
    def test_identity(self):
        assert isinstance(build_operator("identity"), IdentityOperator)

    def test_smooth_with_options(self):
        op = build_operator("smooth:strength=2.5,size=5")
        assert isinstance(op, SmoothingDenoiser)
        assert op.strength == 2.5 and op.size == 5

    def test_affine_flat_anchor(self):
        op = build_operator("affine:factor=0.25,anchor=flat:64")
        out = op(np.zeros((4, 4)))
        np.testing.assert_allclose(out, 48.0)  # 64 * (1 - 0.25)

    def test_external_requires_command(self):
        with pytest.raises(ConfigError):
            build_operator("external:")
        op = build_operator("external:restore {in} {out}")
        assert op.command_template == "restore {in} {out}"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_operator("diffusion:steps=50")

    def test_unknown_option(self):
        with pytest.raises(ConfigError):
            build_operator("smooth:sigma=2")
