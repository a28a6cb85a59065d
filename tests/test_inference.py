import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semimo import images
from semimo.images import box_mean, image_distance, synthetic_test_image, to_uint8
from semimo.inference import (
    AffineContraction,
    ExternalCommandOperator,
    IdentityOperator,
    InferenceProfile,
    OperatorError,
    SmoothingDenoiser,
    apply_operator,
    estimate_bias,
    estimate_rho,
    identity_bound,
    inferiority_threshold,
    semantic_bound,
    sinr_sensitivity,
)
from semimo.link import QamParams
from semimo.metrics import mae, mae_lipschitz


def total_variation(img):
    a = np.asarray(img, dtype=float)
    return np.abs(np.diff(a, axis=0)).sum() + np.abs(np.diff(a, axis=1)).sum()


class TestOperators:
    def test_identity_returns_same_pixels(self):
        img = synthetic_test_image(32, 32)
        np.testing.assert_array_equal(apply_operator(IdentityOperator(), img), img)

    def test_affine_flat_arithmetic(self):
        for anchor in (np.full((8, 8), 128.0), 128.0):  # a scalar anchor broadcasts
            op = AffineContraction(anchor, 0.5)
            out = apply_operator(op, np.zeros((8, 8)))
            np.testing.assert_allclose(out, 64.0)

    def test_affine_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            AffineContraction(np.zeros((2, 2)), 1.5)

    def test_non_finite_values_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            for make in (
                lambda: SmoothingDenoiser(strength=bad),
                lambda: AffineContraction(bad, 0.5),
                lambda: AffineContraction(np.full((4, 4), bad), 0.5),
                lambda: AffineContraction(np.zeros((2, 2)), bad),
            ):
                with pytest.raises(ValueError):
                    make()

    def test_denoiser_reduces_impulse_tv_and_stays_in_range(self):
        rng = np.random.default_rng(11)
        img = np.full((32, 32), 128.0)
        hits = rng.random(img.shape) < 0.05
        img[hits] = rng.choice([0.0, 255.0], size=hits.sum())
        out = apply_operator(SmoothingDenoiser(strength=2.0), img)
        assert out.min() >= 0.0 and out.max() <= 255.0
        assert total_variation(out) < total_variation(img)

    def test_denoiser_preserves_constants(self):
        out = apply_operator(SmoothingDenoiser(strength=5.0), np.full((16, 16), 77.0))
        np.testing.assert_allclose(out, 77.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 10), st.integers(1, 10)),
                  elements=st.integers(0, 255)))
    @example(np.array([[223, 188, 97, 5], [180, 121, 43, 134]]))  # at 134 the tie 107.5 -> 108
    def test_denoiser_pixels_are_the_exact_blend_rounded_half_to_even(self, u):
        # Strength 1, size 3: (u + S / 9) / 2 = (9u + S) / 18, with S the 3x3
        # sum over repeated edges, all in int64; .5 ties round to even.
        padded = np.pad(u, 1, mode="edge")
        s = sum(padded[i : i + u.shape[0], j : j + u.shape[1]] for i in range(3) for j in range(3))
        q, r = np.divmod(9 * u + s, 18)
        expected = q + ((r > 9) | ((r == 9) & (q % 2 == 1)))
        got = to_uint8(apply_operator(SmoothingDenoiser(strength=1.0), u))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("strength", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_denoiser_is_its_closed_form_byte_for_byte(self, strength, size, monkeypatch):
        # The whole-array blend in the order the strips must keep: the box
        # mean scaled by w, then (1 - w) * u added. Strips of one and of three
        # rows, and 1-D, 3-D and one-pixel inputs, give the same bytes.
        rng = np.random.default_rng(size)
        w = strength / (1.0 + strength)
        cases = [rng.uniform(0, 255, (37, 29)), rng.integers(0, 256, (64, 64)).astype(np.uint8),
                 np.asfortranarray(rng.uniform(0, 255, (17, 23))), rng.uniform(0, 255, 41),
                 rng.uniform(0, 255, (6, 5, 4)), np.array(7.5), np.empty((0, 3))]
        for x in cases:
            u = np.asarray(x, dtype=float)
            expected = box_mean(u, size)
            expected *= w
            expected += (1.0 - w) * u
            for budget in (None, 1, 3 * np.atleast_1d(u)[:1].nbytes):
                if budget is not None:
                    monkeypatch.setattr(images, "_PIECE_BYTES", budget)
                got = SmoothingDenoiser(strength, size)(x)
                assert got.flags.c_contiguous and got.shape == u.shape, (x.shape, budget)
                assert got.tobytes() == expected.tobytes(), (x.shape, budget)
                monkeypatch.undo()

    def test_denoiser_holds_one_image_beside_its_input(self, traced_peak):
        # apply_operator's float copy of the 8-bit frame and the output are
        # two images (16 MiB at 1024²); a strip's buffer and sums come on top.
        # A padded copy and a whole-image blend term took 24.5 MiB.
        clean = synthetic_test_image(1024, 1024)
        noisy = np.clip(clean + np.random.default_rng(4).normal(0, 10, clean.shape), 0, 255)
        noisy = noisy.astype(np.uint8)
        operator = SmoothingDenoiser(strength=1.0)
        assert traced_peak(lambda: apply_operator(operator, noisy)) <= 20 * 2**20

    def test_external_command_identity_via_copy(self):
        img = synthetic_test_image(16, 16)
        for template in (
            "/bin/cp {in} {out}",
            # Braces that are not placeholders reach the command unchanged.
            """awk 'BEGIN{system("cp " ARGV[1] " " ARGV[2])}' {in} {out}""",
        ):
            op = ExternalCommandOperator(template)
            np.testing.assert_array_equal(apply_operator(op, img), img)

    def test_external_command_failure(self):
        op = ExternalCommandOperator(f'{sys.executable} -c "raise SystemExit(9)" {{in}} {{out}}')
        with pytest.raises(OperatorError):
            op(np.zeros((4, 4)))

    def test_external_command_missing_output(self):
        op = ExternalCommandOperator(f'{sys.executable} -c "pass" {{in}} {{out}}')
        with pytest.raises(OperatorError):
            op(np.zeros((4, 4)))

    def test_external_template_needs_placeholders(self):
        with pytest.raises(ValueError):
            ExternalCommandOperator("restore input.pgm output.pgm")


class TestEstimateRho:
    def probes(self):
        return [synthetic_test_image(24, 24), np.full((24, 24), 90.0)]

    def test_affine_is_exact(self):
        op = AffineContraction(np.full((24, 24), 128.0), 0.3)
        est = estimate_rho(op, self.probes(), perturbation_scale=0.5)
        assert est == pytest.approx(0.3, abs=1e-10)

    def test_identity_is_one(self):
        est = estimate_rho(IdentityOperator(), self.probes(), perturbation_scale=0.5)
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_denoiser_never_expands(self):
        est = estimate_rho(
            SmoothingDenoiser(strength=1.0), self.probes(), perturbation_scale=0.5
        )
        assert est <= 1.0 + 1e-9
        # The constant probe direction passes through the kernel untouched.
        assert est == pytest.approx(1.0, abs=1e-12)

    def test_requires_enough_pairs(self):
        with pytest.raises(ValueError):
            estimate_rho(IdentityOperator(), self.probes(), 0.5, n_pairs=50)

    def test_composition_bounded_by_product(self):
        ops = [
            SmoothingDenoiser(strength=1.0),
            AffineContraction(np.full((24, 24), 100.0), 0.7),
        ]
        individual = [
            estimate_rho(op, self.probes(), perturbation_scale=0.5, seed=3)
            for op in ops
        ]
        composed = estimate_rho(
            lambda image: ops[1](ops[0](image)), self.probes(), perturbation_scale=0.5, seed=3
        )
        assert composed <= individual[0] * individual[1] + 1e-9


class TestEstimateBias:
    def test_identity_zero_error_is_zero(self):
        assert estimate_bias(IdentityOperator(), [synthetic_test_image(16, 16)], 0.0) == 0.0

    def test_affine_closed_form(self):
        clean = synthetic_test_image(24, 24)
        flat = np.full((24, 24), 128.0)
        for anchor in (flat, 128.0):  # bias_at broadcasts a scalar anchor too
            op = AffineContraction(anchor, 0.4)
            measured = estimate_bias(op, [clean], error_level=0.0, n_trials=5)
            assert measured == pytest.approx(op.bias_at(clean), rel=1e-12)
            assert measured == pytest.approx(0.6 * image_distance(clean, flat), rel=1e-12)

    def test_denoiser_unbiased_on_constants(self):
        flat = np.full((16, 16), 200.0)
        assert estimate_bias(SmoothingDenoiser(2.0), [flat], 0.0, n_trials=3) == 0.0

    def test_error_level_is_respected(self):
        # Identity at error level eps sees exactly eps on every trial.
        measured = estimate_bias(
            IdentityOperator(), [synthetic_test_image(16, 16)], 0.8, n_trials=20
        )
        assert measured == pytest.approx(0.8, rel=1e-9)


class TestBounds:
    def profile(self, **kw):
        defaults = dict(rho=0.5, epsilon=0.1, delta_eps=0.05, metric_lipschitz=1.0)
        defaults.update(kw)
        return InferenceProfile(**defaults)

    def test_zero_rho_leaves_bias_term(self):
        p = self.profile(rho=0.0)
        assert semantic_bound(p, 0.2, 0.7) == pytest.approx(0.2 + 0.05)

    def test_worked_arithmetic(self):
        p = self.profile()
        assert semantic_bound(p, 0.0, 0.3) == pytest.approx(0.25)

    def test_identity_bound_cases(self):
        assert identity_bound(0.4, 2.0, 0.0) == pytest.approx(0.4)
        assert identity_bound(0.0, 1.0, 0.3) == pytest.approx(0.3)

    @settings(max_examples=200, deadline=None)
    @given(
        floor=st.floats(0.0, allow_infinity=False),
        lip=st.floats(0.0, exclude_min=True, allow_infinity=False),
        err=st.floats(0.0, allow_infinity=False),
    )
    def test_identity_bound_is_the_identity_receivers_semantic_bound(self, floor, lip, err):
        bound = identity_bound(floor, lip, err)
        assert bound == semantic_bound(InferenceProfile(1.0, 0.0, 0.0, lip), floor, err)
        assert bound == floor + lip * err

    @pytest.mark.parametrize("lip", [float("nan"), float("inf"), 0.0, -1.0])
    def test_identity_bound_rejects_a_bad_lipschitz_constant(self, lip):
        with pytest.raises(ValueError):
            identity_bound(0.1, lip, 0.3)

    def test_threshold_arithmetic(self):
        assert inferiority_threshold(self.profile()) == pytest.approx(0.2)
        assert inferiority_threshold(self.profile(epsilon=0.0, delta_eps=0.0)) == 0.0

    def test_threshold_needs_contraction(self):
        with pytest.raises(ValueError):
            inferiority_threshold(self.profile(rho=1.0))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            InferenceProfile(1.2, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            InferenceProfile(0.5, -0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            InferenceProfile(0.5, 0.0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        rho=st.floats(0.0, 0.99),
        eps=st.floats(0.0, 2.0),
        delta=st.floats(0.0, 2.0),
        lip=st.floats(1e-3, 10.0),
        floor=st.floats(0.0, 1.0),
        err=st.floats(0.0, 5.0),
    )
    def test_threshold_consistency(self, rho, eps, delta, lip, floor, err):
        p = InferenceProfile(rho, eps, delta, lip)
        threshold = inferiority_threshold(p)
        if abs(err - threshold) < 1e-12:
            return  # boundary: both sides define equality differently
        id_bound = identity_bound(floor, lip, err)
        sem_bound = semantic_bound(p, floor, err)
        assert (id_bound >= sem_bound) == (err > threshold)

    def test_affine_end_to_end_bound_holds(self):
        # Measured mean metric never exceeds the computed bound across
        # random noisy inputs; mae with its analytic Lipschitz constant.
        rng = np.random.default_rng(21)
        clean = synthetic_test_image(32, 32).astype(float)
        anchor = np.full(clean.shape, 140.0)
        op = AffineContraction(anchor, 0.6)
        lip = mae_lipschitz(clean.size)
        delta = op.bias_at(clean)
        profile = InferenceProfile(0.6, 0.0, delta, lip)
        errors, scores = [], []
        for _ in range(100):
            noisy = clean + rng.normal(0, 30, clean.shape)
            errors.append(image_distance(noisy, clean))
            scores.append(mae(apply_operator(op, noisy), clean))
        measured = float(np.mean(scores))
        bound = semantic_bound(profile, mae(clean, clean), float(np.mean(errors)))
        assert measured <= bound


class TestSensitivity:
    def test_zero_rho_kills_sensitivity(self):
        p = InferenceProfile(0.0, 0.0, 0.0, 1.0)
        assert sinr_sensitivity(p, QamParams(4), 3.0, 1) == 0.0

    def test_linear_in_rho(self):
        qam = QamParams(4)
        full = sinr_sensitivity(InferenceProfile(0.8, 0, 0, 1.0), qam, 2.5, 3)
        half = sinr_sensitivity(InferenceProfile(0.4, 0, 0, 1.0), qam, 2.5, 3)
        assert abs(half * 2 - full) < 1e-12

    def test_rejects_zero_sinr(self):
        with pytest.raises(ValueError):
            sinr_sensitivity(InferenceProfile(0.5, 0, 0, 1.0), QamParams(4), 0.0, 1)

    def test_stream_weight_doubles_per_index(self):
        p = InferenceProfile(0.5, 0, 0, 1.0)
        qam = QamParams(4)
        s1 = sinr_sensitivity(p, qam, 4.0, 1)
        s2 = sinr_sensitivity(p, qam, 4.0, 2)
        assert s2 == pytest.approx(2 * s1, rel=1e-12)

    def test_shape_matches_finite_difference_of_ber_chain(self):
        # The derivative claim should mirror d/dgamma of
        # rho * l_M * 2^(k-1) * ber(gamma): negative, rising toward zero,
        # vanishing at large gamma.
        p = InferenceProfile(0.5, 0, 0, 1.0)
        qam = QamParams(4)
        gammas = np.linspace(0.1, 100.0, 400)
        sens = np.array([sinr_sensitivity(p, qam, g, 3) for g in gammas])
        assert np.all(sens < 0)
        assert np.all(np.diff(sens) > 0)  # monotone increasing toward zero
        assert abs(sens[-1]) < 1e-8

        from semimo.link import ber_from_sinr

        h = 1e-5
        fd = np.array(
            [
                0.5 * 1.0 * 4 * (ber_from_sinr(g + h, qam) - ber_from_sinr(g - h, qam)) / (2 * h)
                for g in gammas
            ]
        )
        assert np.all(fd < 0)
        assert np.all(np.diff(fd) > -1e-10)
        assert abs(fd[-1]) < 1e-8

    def test_magnitude_decreasing_past_beta_knee(self):
        p = InferenceProfile(0.7, 0, 0, 1.0)
        qam = QamParams(16)
        start = 1.0 / qam.beta**2
        gammas = np.linspace(start, start + 50, 100)
        magnitudes = [abs(sinr_sensitivity(p, qam, g, 2)) for g in gammas]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))
