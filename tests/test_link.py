import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimo import images
from semimo.channel import ChannelSet, SeedSpec, draw_channel_set
from semimo.link import (
    QamParams,
    ber_from_sinr,
    empirical_link_budget,
    expected_distortion,
    link_budget,
    q_function,
)
from semimo.precoding import mf_precoder, zf_precoder


def channel_and_precoders(n_tx, n_users, err_var, seed):
    ch = draw_channel_set(n_tx, n_users, err_var, SeedSpec(seed))
    return ch, mf_precoder(ch.h_known), zf_precoder(ch.h_known)


class TestQamParams:
    def test_qpsk_constants(self):
        qam = QamParams(4)
        assert qam.alpha == pytest.approx(1.0)
        assert qam.beta == pytest.approx(1.0)

    def test_qam16_constants(self):
        # alpha = (4/4)(1 - 1/4) = 0.75, beta = sqrt(3/15) = sqrt(0.2)
        qam = QamParams(16)
        assert qam.alpha == pytest.approx(0.75, abs=1e-15)
        assert qam.beta == pytest.approx(np.sqrt(0.2), abs=1e-15)

    def test_rejects_non_square_orders(self):
        for bad in (2, 8, 12, 32):
            with pytest.raises(ValueError):
                QamParams(bad)


class TestBerFromSinr:
    def test_zero_sinr_gives_half(self):
        assert ber_from_sinr(0.0, QamParams(4)) == pytest.approx(0.5)

    def test_against_high_precision_tail(self):
        # Q(3) from 50-digit erfc, frozen through mpmath.
        expected = float(0.5 * mpmath.erfc(mpmath.mpf(3) / mpmath.sqrt(2)))
        assert expected == pytest.approx(1.349898e-3, rel=1e-6)
        assert ber_from_sinr(9.0, QamParams(4)) == pytest.approx(expected, rel=1e-12)

    def test_q_function_accuracy_across_range(self):
        with mpmath.workdps(50):
            for x in np.linspace(0.0, 8.0, 33):
                exact = float(0.5 * mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)))
                assert q_function(x) == pytest.approx(exact, rel=1e-12)

    def test_q_function_within_3_ulp_of_mpmath(self):
        # Against erfc of the same float argument x / sqrt(2): rounding that
        # argument alone moves Q(26) by hundreds of ulp, whatever erfc does.
        xs = np.linspace(0.0, 26.0, 1301)
        got = q_function(xs)
        with mpmath.workdps(40):
            exact = np.array([float(0.5 * mpmath.erfc(mpmath.mpf(float(z))))
                              for z in xs / np.sqrt(2.0)])
        assert np.all(np.abs(got - exact) <= 3 * np.spacing(exact))

    def test_q_function_keeps_shape(self):
        assert isinstance(q_function(1.0), np.float64)
        assert q_function(np.zeros((2, 3))).shape == (2, 3)
        assert q_function([]).shape == (0,)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ber_from_sinr(-0.1, QamParams(4))

    @pytest.mark.parametrize("bad", [np.nan, [1.0, np.nan], np.array([[np.nan]])])
    def test_rejects_nan(self, bad):
        # NaN used to pass the sign check and come back as a NaN BER.
        with pytest.raises(ValueError, match="sinr"):
            ber_from_sinr(bad, QamParams(4))

    def test_infinite_sinr_gives_zero_ber(self):
        assert ber_from_sinr(np.inf, QamParams(16)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        gamma=st.floats(1e-6, 50.0),
        step=st.floats(1e-3, 10.0),
        order=st.sampled_from([4, 16, 64]),
    )
    def test_strictly_decreasing(self, gamma, step, order):
        qam = QamParams(order)
        assert ber_from_sinr(gamma + step, qam) < ber_from_sinr(gamma, qam)


class TestLinkBudget:
    def test_zf_perfect_csi_is_interference_free(self):
        ch, _, zf = channel_and_precoders(16, 8, 0.0, 11)
        budget = link_budget(ch, zf, 2.0, 0.5)
        np.testing.assert_allclose(budget.i_precode, 0.0, atol=1e-18)
        np.testing.assert_array_equal(budget.i_error, 0.0)
        np.testing.assert_allclose(
            budget.sinr, budget.p_precode / 0.5, rtol=1e-12
        )

    def test_mf_orthogonal_channel_arithmetic(self):
        # Two orthogonal users with ||h_k||^2 = 2, p = 1, noise 1: sinr = 2.
        h = np.zeros((4, 2), dtype=complex)
        h[0, 0] = np.sqrt(2.0)
        h[2, 1] = np.sqrt(2.0) * 1j
        budget = link_budget(ChannelSet(h, h, 0.0), mf_precoder(h), 1.0, 1.0)
        np.testing.assert_allclose(budget.sinr, [2.0, 2.0], rtol=1e-12)

    def test_error_interference_constant_across_users(self):
        ch, mf, _ = channel_and_precoders(16, 8, 0.1, 12)
        budget = link_budget(ch, mf, 1.0, 1.0)
        np.testing.assert_allclose(budget.i_error, 0.7, rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        ch, mf, _ = channel_and_precoders(16, 8, 0.0, 13)
        other = draw_channel_set(8, 4, 0.0, SeedSpec(14))
        with pytest.raises(ValueError):
            link_budget(other, mf, 1.0, 1.0)

    def test_rejects_nonpositive_power_or_noise(self):
        ch, mf, _ = channel_and_precoders(8, 4, 0.0, 15)
        with pytest.raises(ValueError):
            link_budget(ch, mf, 0.0, 1.0)
        with pytest.raises(ValueError):
            link_budget(ch, mf, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_or_negative_power_or_noise(self, bad):
        ch, mf, _ = channel_and_precoders(8, 4, 0.0, 15)
        with pytest.raises(ValueError, match="tx_power"):
            link_budget(ch, mf, bad, 1.0)
        with pytest.raises(ValueError, match="noise_var"):
            link_budget(ch, mf, 1.0, bad)

    def test_zf_dominates_mf_sinr_when_noise_vanishes(self):
        ch, mf, zf = channel_and_precoders(16, 8, 0.0, 16)
        tiny_noise = 1e-9
        sinr_mf = link_budget(ch, mf, 1.0, tiny_noise).sinr
        sinr_zf = link_budget(ch, zf, 1.0, tiny_noise).sinr
        assert np.all(sinr_zf / sinr_mf > 1e6)


class TestEmpiricalBudget:
    def test_mf_desired_power_matches_analytic(self):
        ch, mf, _ = channel_and_precoders(16, 8, 0.1, 21)
        budget = link_budget(ch, mf, 1.0, 1.0)
        est = empirical_link_budget(ch, mf, 1.0, 100_000, SeedSpec(500))
        expected = budget.p_precode + 1.0 * ch.err_var
        np.testing.assert_allclose(est.desired_power, expected, rtol=0.01)

    def test_zf_interference_matches_error_term(self):
        ch, _, zf = channel_and_precoders(16, 8, 0.25, 22)
        est = empirical_link_budget(ch, zf, 1.0, 100_000, SeedSpec(501))
        np.testing.assert_allclose(est.interference, 1.0 * 7 * 0.25, rtol=0.01)

    def test_degenerate_expectation_is_exact(self):
        ch, mf, _ = channel_and_precoders(16, 8, 0.0, 23)
        budget = link_budget(ch, mf, 1.0, 1.0)
        est = empirical_link_budget(ch, mf, 1.0, 100, SeedSpec(502))
        np.testing.assert_array_equal(est.interference, budget.i_precode)
        np.testing.assert_array_equal(est.interference_se, 0.0)

    @pytest.mark.parametrize("n_trials", [1, 50, 10_000])
    @pytest.mark.parametrize("which", ["mf", "zf"])
    def test_perfect_csi_oracle_is_exact(self, n_trials, which):
        ch, mf, zf = channel_and_precoders(16, 8, 0.0, 26)
        pre = mf if which == "mf" else zf
        budget = link_budget(ch, pre, 3.0, 1.0)
        est = empirical_link_budget(ch, pre, 3.0, n_trials, SeedSpec(505))
        assert np.all(est.desired_se == 0.0)
        assert np.all(est.interference_se == 0.0)
        np.testing.assert_array_equal(est.desired_power, budget.p_precode)
        np.testing.assert_array_equal(est.interference, budget.i_precode)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 0.0])
    def test_rejects_non_finite_or_nonpositive_power(self, bad):
        # tx_power = -1 used to give negative interference without an error.
        ch, mf, _ = channel_and_precoders(16, 8, 0.1, 28)
        with pytest.raises(ValueError, match="tx_power"):
            empirical_link_budget(ch, mf, bad, 10, SeedSpec(507))

    def test_one_error_draw_is_rejected(self):
        # One draw has no spread to estimate, so it cannot give a standard error.
        ch, mf, _ = channel_and_precoders(16, 8, 0.1, 27)
        with pytest.raises(ValueError, match="n_trials"):
            empirical_link_budget(ch, mf, 1.0, 1, SeedSpec(506))
        assert np.all(empirical_link_budget(ch, mf, 1.0, 2, SeedSpec(506)).interference_se > 0)

    @pytest.mark.parametrize("err_var", [0.01, 0.1])
    @pytest.mark.parametrize("which", ["mf", "zf"])
    def test_decomposition_additivity(self, err_var, which):
        ch, mf, zf = channel_and_precoders(16, 8, err_var, 24)
        pre = mf if which == "mf" else zf
        budget = link_budget(ch, pre, 1.0, 1.0)
        est = empirical_link_budget(ch, pre, 1.0, 40_000, SeedSpec(503))
        analytic_desired = budget.p_precode + 1.0 * err_var
        analytic_interference = budget.i_precode + budget.i_error
        assert np.all(
            np.abs(est.desired_power - analytic_desired) <= 3 * est.desired_se
        )
        assert np.all(
            np.abs(est.interference - analytic_interference)
            <= 3 * est.interference_se
        )

    @pytest.mark.parametrize("err_var", [0.0, 0.1])
    @pytest.mark.parametrize("which", ["mf", "zf", "mf_repeated_user"])
    def test_matches_textbook_formula_on_its_own_draws(self, err_var, which):
        ch, mf, zf = channel_and_precoders(16, 8, err_var, 25)
        pre = mf if which == "mf" else zf
        if which == "mf_repeated_user":
            # Users 0 and 1 share one channel, so F has rank K - 1.
            h = ch.h_known.copy()
            h[:, 1] = h[:, 0]
            ch, pre = ChannelSet(h, h, err_var), mf_precoder(h)
            assert np.linalg.matrix_rank(pre) == ch.n_users - 1
        p, n_trials, seed = 3.0, 500, SeedSpec(504, 2)
        est = empirical_link_budget(ch, pre, p, n_trials, seed)
        rng = seed.rng()
        q, _ = np.linalg.qr(pre.conj())  # conj(F) = Q R, Q with orthonormal columns
        for k in range(ch.n_users):
            h_k = ch.h_known[:, k]
            if err_var > 0:
                # Interleaved real/imag normals give w_t ~ CN(0, err_var I_K);
                # e_t^T = w_t^T Q^H is an error whose image e_t^T conj(F) is w_t^T R.
                z = rng.standard_normal((n_trials, 2 * ch.n_users)).view(np.complex128)
                w = np.sqrt(err_var / 2.0) * z
                h_k = h_k + w @ q.conj().T
            # p |(h_k + e_t)^H f_j|^2 for every draw t and stream j
            powers = p * np.abs(np.atleast_2d(h_k).conj() @ pre) ** 2
            powers = np.broadcast_to(powers, (n_trials, ch.n_users))
            des = powers[:, k]
            intf = powers.sum(axis=1) - des
            scale = 1.0 / np.sqrt(n_trials)
            np.testing.assert_allclose(est.desired_power[k], des.mean(), rtol=1e-12)
            np.testing.assert_allclose(est.interference[k], intf.mean(), rtol=1e-12)
            np.testing.assert_allclose(
                est.desired_se[k], des.std(ddof=1) * scale, rtol=1e-12, atol=1e-15
            )
            np.testing.assert_allclose(
                est.interference_se[k], intf.std(ddof=1) * scale, rtol=1e-12, atol=1e-15
            )

    def test_stream_is_pinned(self):
        """The oracle's outputs at one small case, recorded from its draw layout.

        A change to the draw layout fails here loudly. numpy does not promise
        that ``Generator.standard_normal`` returns the same values across
        versions (NEP 19), so on a numpy upgrade that moves them, re-record
        these values and say so in CHANGES.md.
        """
        ch, mf, _ = channel_and_precoders(16, 8, 0.1, 29)
        est = empirical_link_budget(ch, mf, 1.0, 64, SeedSpec(508, 3))
        recorded = {
            "desired_power": [
                0.8935052206494112, 0.9837099917038661, 0.9284070507709171, 1.1162215763544834,
                1.2575422491059312, 0.7260170178452079, 1.103602669032965, 1.1349269833988793,
            ],
            "interference": [
                1.1216451940637024, 1.1399728756734027, 0.9860019263775879, 1.333219325450656,
                1.3026423948933596, 0.9264597902269442, 0.9912630800436735, 0.8388027091945139,
            ],
            "desired_se": [
                0.047417698346267356, 0.051167164672987604, 0.04577537003287831,
                0.05331291514110983, 0.06861352181345841, 0.042020633794885846,
                0.04825487723027714, 0.053508907097876826,
            ],
            "interference_se": [
                0.05913591039829028, 0.06633217292019349, 0.04812152812980631,
                0.07057124506426013, 0.07328149805205891, 0.041970853916572286,
                0.052187534935380094, 0.040279349459428924,
            ],
        }
        for name, values in recorded.items():
            np.testing.assert_allclose(getattr(est, name), values, rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("err_var", [0.01, 0.1])
    @pytest.mark.parametrize("which", ["mf", "zf"])
    def test_piece_size_changes_no_result(self, err_var, which, monkeypatch):
        # Pieces of 1 trial (one-row matrix products), 3, and 511 to 513 (at
        # 10000 trials a short last piece each), against the default pieces
        # of 512 trials at 8 users.
        ch, mf, zf = channel_and_precoders(16, 8, err_var, 30)
        pre = mf if which == "mf" else zf

        def outputs(n_trials):
            est = empirical_link_budget(ch, pre, 2.0, n_trials, SeedSpec(509, n_trials))
            return [getattr(est, name).tobytes() for name in
                    ("desired_power", "interference", "desired_se", "interference_se")]

        for n_trials in (2, 1000, 10_000):
            default = outputs(n_trials)
            for trials in (1, 3, 511, 512, 513):
                monkeypatch.setattr(images, "_PIECE_BYTES", trials * 32 * 8)
                assert outputs(n_trials) == default, (n_trials, trials)
            monkeypatch.undo()

    def test_oracle_holds_no_buffers_of_every_trial(self, traced_peak):
        # Two length-T arrays of gains (156 KiB at T = 10000) and one piece's
        # temporaries. Complex normals, rows and two gain arrays for every
        # trial at once traced 3.9 MiB.
        ch, mf, _ = channel_and_precoders(16, 8, 0.1, 31)
        assert traced_peak(lambda: empirical_link_budget(ch, mf, 1.0, 10_000, SeedSpec(510))) <= 1 << 20


class TestExpectedDistortion:
    def test_zero_rates(self):
        assert expected_distortion(np.zeros(8)) == 0.0

    def test_uniform_rate_sums_weights(self):
        assert expected_distortion(np.full(8, 0.01)) == pytest.approx(2.55)

    def test_length_check(self):
        with pytest.raises(ValueError):
            expected_distortion(np.zeros(4), n_streams=8)

    def test_range_check(self):
        with pytest.raises(ValueError):
            expected_distortion(np.array([0.2, 1.5]))

    @pytest.mark.parametrize("bad", [[0.1, np.nan], [np.nan], np.array([0.0, np.nan, 0.5])])
    def test_rejects_nan_rates(self, bad):
        # A NaN rate used to pass the range check and give a NaN distortion.
        with pytest.raises(ValueError, match="BER"):
            expected_distortion(bad)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    def test_matches_direct_sum(self, rates):
        expected = sum(r * 2**k for k, r in enumerate(rates))
        assert expected_distortion(np.array(rates)) == pytest.approx(expected)
