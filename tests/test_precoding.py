import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semimo.channel import SeedSpec, draw_channel_set
from semimo.precoding import (
    DegenerateChannelError,
    GramConditionError,
    mf_precoder,
    zf_precoder,
)


def random_channel(n_tx, n_users, seed):
    return draw_channel_set(n_tx, n_users, 0.0, SeedSpec(seed)).h_known


class TestMatchedFilter:
    def test_unit_vector_is_fixed_point(self):
        h = np.array([[1.0], [0.0]], dtype=complex)
        f = mf_precoder(h)
        np.testing.assert_allclose(f, h)

    def test_complex_column_normalized(self):
        h = np.array([[3.0], [4.0j]], dtype=complex)
        f = mf_precoder(h)
        np.testing.assert_allclose(f[:, 0], [0.6, 0.8j], atol=1e-15)

    def test_all_columns_unit_norm(self):
        h = random_channel(16, 8, 1)
        f = mf_precoder(h)
        np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)

    def test_zero_column_rejected(self):
        h = np.ones((4, 2), dtype=complex)
        h = h.copy()
        h[:, 1] = 0
        with pytest.raises(DegenerateChannelError):
            mf_precoder(h)


class TestZeroForcing:
    def test_two_user_hand_solution(self):
        # Gram = [[1, 1/sqrt(2)], [1/sqrt(2), 1]], det 1/2, inverse
        # [[2, -sqrt(2)], [-sqrt(2), 2]]; raw beams (1, -1) and (0, sqrt(2)).
        h = np.array(
            [[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]], dtype=complex
        )
        f = zf_precoder(h)
        np.testing.assert_allclose(
            f[:, 0], np.array([1, -1]) / np.sqrt(2), atol=1e-12
        )
        np.testing.assert_allclose(f[:, 1], [0, 1], atol=1e-12)
        assert abs(np.vdot(h[:, 1], f[:, 0])) < 1e-12
        assert abs(np.vdot(h[:, 0], f[:, 1])) < 1e-12

    def test_orthogonal_channels_make_zf_equal_mf(self):
        h = np.zeros((6, 3), dtype=complex)
        h[0, 0] = 2.0
        h[2, 1] = 0.5j
        h[4, 2] = 1.0 + 1.0j
        np.testing.assert_allclose(zf_precoder(h), mf_precoder(h), atol=1e-12)

    def test_null_space_invariant_random_channel(self):
        h = random_channel(16, 8, 2)
        f = zf_precoder(h)
        cross = np.abs(h.conj().T @ f)
        np.fill_diagonal(cross, 0.0)
        ratios = cross / np.linalg.norm(h, axis=0)[:, None]
        assert ratios.max() < 1e-10

    def test_unit_norm_columns(self):
        f = zf_precoder(random_channel(16, 8, 3))
        np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)

    def test_duplicate_columns_rejected_with_conditioning(self):
        h = random_channel(8, 4, 4).copy()
        h[:, 1] = h[:, 0]
        with pytest.raises(GramConditionError, match="condition number"):
            zf_precoder(h)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            zf_precoder(np.ones((2, 4), dtype=complex))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(1e-3, 1e3))
def test_scale_invariance(seed, scale):
    h = random_channel(8, 4, seed)
    for build in (mf_precoder, zf_precoder):
        base = build(h)
        scaled = build(scale * h)
        np.testing.assert_allclose(scaled, base, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_zf_desired_power_never_exceeds_mf(seed):
    h = random_channel(12, 6, seed)
    f_zf = zf_precoder(h)
    zf_power = np.abs(np.sum(h.conj() * f_zf, axis=0)) ** 2
    mf_power = np.linalg.norm(h, axis=0) ** 2
    assert np.all(zf_power <= mf_power * (1 + 1e-12))


def test_construction_is_deterministic():
    h = random_channel(16, 8, 5)
    for build in (mf_precoder, zf_precoder):
        a = build(h)
        b = build(h)
        assert a.tobytes() == b.tobytes()

