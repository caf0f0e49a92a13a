"""SPD rearrangement, the information-loss diagnostic, non-strided
convolution, T-CSP text gating, and I-Pooling attention."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from tsrmcl.errors import ContractError, DimensionError
from tsrmcl.tensor import Tensor
from tsrmcl.vision import (
    conv2d_nostride,
    info_loss,
    ipool_attention,
    max_pool_3x3,
    spd_inverse,
    spd_rearrange,
    tcsp_gate,
)

from conftest import PROPERTY, check_op_gradient


@st.composite
def spd_maps(draw):
    """(x, s): an H x W x C map of any finite values, with s dividing H and W."""
    s = draw(st.integers(1, 4))
    shape = (s * draw(st.integers(1, 4)), s * draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))), s


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestSPD:
    def test_stride_one_identity(self, rng):
        x = rng.normal(size=(4, 6, 3))
        out = spd_rearrange(Tensor(x), 1)
        np.testing.assert_array_equal(out.data, x)

    def test_hand_2x2_phase_order(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        out = spd_rearrange(x, 2)
        assert out.shape == (1, 1, 4)
        np.testing.assert_array_equal(out.data.reshape(4), [1.0, 2.0, 3.0, 4.0])

    def test_channel_blocks_are_phase_subgrids(self, rng):
        x = rng.normal(size=(6, 8, 3))
        out = spd_rearrange(Tensor(x), 2).data
        for a in range(2):
            for b in range(2):
                block = out[:, :, (a * 2 + b) * 3:(a * 2 + b + 1) * 3]
                np.testing.assert_array_equal(block, x[a::2, b::2, :])

    def test_round_trip_exact_100_maps(self, rng):
        for _ in range(100):
            s = int(rng.integers(1, 5))
            h = s * int(rng.integers(1, 5))
            w = s * int(rng.integers(1, 5))
            c = int(rng.integers(1, 4))
            x = rng.normal(size=(h, w, c))
            back = spd_inverse(spd_rearrange(Tensor(x), s), s)
            np.testing.assert_array_equal(back.data, x)

    @PROPERTY
    @given(case=spd_maps())
    def test_round_trip_bit_exact_property(self, case):
        x, s = case
        back = spd_inverse(spd_rearrange(Tensor(x), s), s)
        assert back.shape == x.shape
        assert back.data.tobytes() == x.tobytes()

    def test_lossless_multiset(self, rng):
        x = rng.normal(size=(8, 8, 3))
        out = spd_rearrange(Tensor(x), 2)
        np.testing.assert_array_equal(np.sort(out.data.ravel()), np.sort(x.ravel()))

    def test_indivisible_dims_rejected(self):
        with pytest.raises(DimensionError):
            spd_rearrange(Tensor(np.zeros((5, 4, 1))), 2)

    def test_differentiable(self, rng):
        w = Tensor(rng.normal(size=(2, 2, 4)))
        check_op_gradient(lambda t: (spd_rearrange(t, 2) * w).sum(), rng.normal(size=(4, 4, 1)))


class TestInfoLoss:
    def test_stride_one_is_zero(self, rng):
        assert info_loss(Tensor(rng.normal(size=(4, 4, 2))), 1) == 0.0

    def test_zero_map_is_zero(self):
        assert info_loss(Tensor(np.zeros((4, 4, 2))), 2) == 0.0

    def test_hand_single_dropped_phase(self):
        x = Tensor(np.array([[0.0, 5.0], [0.0, 0.0]]).reshape(2, 2, 1))
        assert info_loss(x, 2) == pytest.approx(5.0, abs=1e-15)

    def test_positive_for_generic_input(self, rng):
        x = Tensor(rng.normal(size=(8, 8, 3)))
        assert info_loss(x, 2) > 0.0

    def test_spd_path_loses_nothing_while_strided_path_does(self, rng):
        """SPD keeps every value (bijective); stride-2 sampling drops
        phase sub-grids with positive mass."""
        x = rng.normal(size=(8, 8, 3))
        t = Tensor(x)
        back = spd_inverse(spd_rearrange(t, 2), 2)
        np.testing.assert_array_equal(back.data, x)  # zero loss along SPD
        assert info_loss(t, 2) > 0.0  # strided downsampling is lossy

    def test_sums_norms_of_dropped_phases(self, rng):
        x = rng.normal(size=(6, 6, 2))
        expected = sum(
            np.linalg.norm(x[a::3, b::3, :])
            for a in range(3)
            for b in range(3)
            if (a, b) != (0, 0)
        )
        assert info_loss(Tensor(x), 3) == pytest.approx(expected, abs=1e-12)


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = np.abs(rng.normal(size=(5, 5, 2)))  # nonnegative: LeakyReLU is identity
        kernel = np.zeros((1, 1, 2, 2))
        kernel[0, 0] = np.eye(2)
        out = conv2d_nostride(Tensor(x), Tensor(kernel), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_zero_kernel_negative_bias(self, rng):
        x = rng.normal(size=(4, 4, 3))
        out = conv2d_nostride(
            Tensor(x), Tensor(np.zeros((3, 3, 3, 1))), Tensor([-2.0]), negative_slope=0.01
        )
        np.testing.assert_allclose(out.data, np.full((4, 4, 1), -0.02), atol=1e-15)

    def test_hand_averaging_kernel_center(self, rng):
        x = np.abs(rng.normal(size=(3, 3, 1)))
        kernel = np.full((3, 3, 1, 1), 1.0 / 9.0)
        out = conv2d_nostride(Tensor(x), Tensor(kernel), Tensor([0.0]))
        assert out.data[1, 1, 0] == pytest.approx(x.mean(), abs=1e-12)

    def test_same_padding_output_shape(self, rng):
        x = Tensor(rng.normal(size=(6, 7, 2)))
        out = conv2d_nostride(x, Tensor(rng.normal(size=(5, 5, 2, 4))), Tensor(np.zeros(4)))
        assert out.shape == (6, 7, 4)

    def test_even_kernel_rejected(self):
        with pytest.raises(ContractError):
            conv2d_nostride(
                Tensor(np.zeros((4, 4, 1))), Tensor(np.zeros((2, 2, 1, 1))), Tensor([0.0])
            )

    def test_differentiable(self, rng):
        kernel = Tensor(rng.normal(size=(3, 3, 2, 2)))
        bias = Tensor(rng.normal(size=2))
        check_op_gradient(
            lambda t: (conv2d_nostride(t, kernel, bias, 0.1) ** 2.0).sum(),
            rng.normal(size=(4, 4, 2)),
        )


class TestTCSPGate:
    def test_zero_map_outputs_zero(self):
        x = Tensor(np.zeros((3, 3, 4)))
        text = Tensor(np.ones((2, 4)))
        out = tcsp_gate(x, text)
        assert out.shape == (3, 3, 8)
        np.testing.assert_array_equal(out.data, np.zeros((3, 3, 8)))

    def test_zero_feature_gives_half_gate(self):
        # score 0 -> sigmoid 0 = 0.5; gated channel = 0.5 * 0 = 0
        x = Tensor(np.zeros((1, 1, 3)))
        text = Tensor(np.array([[1.0, 0.0, 0.0]]))
        out = tcsp_gate(x, text)
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, 6)))

    def test_hand_value(self):
        x = Tensor(np.array([1.0, 0.0]).reshape(1, 1, 2))
        text = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = tcsp_gate(x, text)
        g = sigmoid(1.0)  # max of scores (1, 0)
        np.testing.assert_allclose(out.data.reshape(4), [1.0, 0.0, g, 0.0], atol=1e-12)

    def test_identity_branch_preserved(self, rng):
        x = rng.normal(size=(4, 5, 6))
        text = rng.normal(size=(3, 6))
        out = tcsp_gate(Tensor(x), Tensor(text))
        np.testing.assert_array_equal(out.data[:, :, :6], x)

    def test_channel_text_dim_mismatch(self):
        with pytest.raises(DimensionError):
            tcsp_gate(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((1, 4))))

    def test_differentiable(self, rng):
        text = Tensor(rng.normal(size=(2, 3)))
        check_op_gradient(lambda t: (tcsp_gate(t, text) ** 2.0).sum(), rng.normal(size=(3, 3, 3)))


class TestIPoolAttention:
    def _eye(self, d):
        return Tensor(np.eye(d))

    def test_max_pool_cells(self, rng):
        x = rng.normal(size=(6, 9, 2))
        out = max_pool_3x3(Tensor(x)).data
        assert out.shape == (9, 2)
        np.testing.assert_array_equal(out[0], x[0:2, 0:3, :].max(axis=(0, 1)))
        np.testing.assert_array_equal(out[8], x[4:6, 6:9, :].max(axis=(0, 1)))

    def test_zero_value_projection_is_identity(self, rng):
        d = 4
        text = Tensor(rng.normal(size=(3, d)))
        scales = [Tensor(rng.normal(size=(5, 5, d)))]
        out = ipool_attention(scales, text, 2, self._eye(d), self._eye(d),
                              Tensor(np.zeros((d, d))), self._eye(d))
        np.testing.assert_array_equal(out.data, text.data)

    def test_zero_output_projection_is_identity(self, rng):
        d = 4
        text = Tensor(rng.normal(size=(2, d)))
        scales = [Tensor(rng.normal(size=(4, 7, d))), Tensor(rng.normal(size=(3, 3, d)))]
        out = ipool_attention(scales, text, 2, self._eye(d), self._eye(d),
                              self._eye(d), Tensor(np.zeros((d, d))))
        np.testing.assert_array_equal(out.data, text.data)

    def test_single_key_attention_adds_value_projection(self, rng):
        # constant map pools to nine identical tokens; attention over
        # identical keys mixes to exactly that token's value projection
        d = 4
        token = rng.normal(size=d)
        scale = Tensor(np.broadcast_to(token, (3, 3, d)).copy())
        text = Tensor(rng.normal(size=(2, d)))
        wv = Tensor(rng.normal(size=(d, d)))
        out = ipool_attention([scale], text, 1, self._eye(d), self._eye(d), wv, self._eye(d))
        expected = text.data + token @ wv.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_hand_two_token_mix(self):
        # one head, d=1: two pooled tokens a and b with identity
        # projections; query q mixes them by softmax(q*a, q*b)
        a, b, q = 2.0, -1.0, 0.5
        scale = Tensor(np.array([
            [a, a, a, b, b, b],
            [a, a, a, b, b, b],
            [a, a, a, b, b, b],
        ]).reshape(3, 6, 1))
        # pooled tokens: [a, a, b] per band row -> 9 tokens, 6 of a, 3 of b
        text = Tensor(np.array([[q]]))
        out = ipool_attention([scale], text, 1, self._eye(1), self._eye(1),
                              self._eye(1), self._eye(1))
        pooled = np.array([a, a, b] * 3)
        weights = np.exp(q * pooled / 1.0)
        weights /= weights.sum()
        expected = q + float(weights @ pooled)
        np.testing.assert_allclose(out.data, [[expected]], atol=1e-12)

    def test_undersized_map_rejected(self):
        with pytest.raises(DimensionError):
            max_pool_3x3(Tensor(np.zeros((2, 5, 1))))

    def test_differentiable_through_text(self, rng):
        d = 4
        scales = [Tensor(rng.normal(size=(4, 4, d)))]
        mats = [Tensor(rng.normal(size=(d, d))) for _ in range(4)]
        check_op_gradient(
            lambda t: (ipool_attention(scales, t, 2, *mats) ** 2.0).sum(),
            rng.normal(size=(3, d)),
        )
