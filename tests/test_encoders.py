"""ViT and text encoders: patch layout, determinism, padding masks,
projection, and finite-difference gradients end to end."""

import numpy as np
import pytest

from tsrmcl.encoders import (
    EncoderParams,
    TextEncoderConfig,
    ViTConfig,
    encode_images,
    encode_texts,
    init_projection_params,
    init_text_params,
    init_vit_params,
    padded_width,
    patchify,
    project_to_shared,
    sinusoidal_positions,
)
from tsrmcl.errors import ContractError, DegenerateInputError, DimensionError
from tsrmcl.tensor import Tensor, layer_norm
from tsrmcl.tokenizer import TokenSequence

from conftest import assert_gradients_close, numeric_gradient

TOY_VIT = ViTConfig(image_side=8, channels=1, patch=4, width=8, layers=2, heads=2)
TOY_TXT = TextEncoderConfig(max_len=16, width=8, layers=2, heads=2)
TOY_VOCAB_SIZE = 12


class TestConfigs:
    def test_divisibility_enforced(self):
        with pytest.raises(ContractError):
            ViTConfig(image_side=30, patch=8)
        with pytest.raises(ContractError):
            ViTConfig(width=30, heads=4)
        with pytest.raises(ContractError):
            TextEncoderConfig(width=30, heads=4)

    def test_patch_count(self):
        assert ViTConfig(image_side=32, patch=8).n_patches == 16


class TestPatchify:
    def test_single_patch_is_flattened_image(self, rng):
        img = rng.normal(size=(4, 4, 2))
        out = patchify(Tensor(img[None]), 4)
        assert out.shape == (1, 1, 32)
        np.testing.assert_array_equal(out.data[0, 0], img.reshape(-1))

    def test_hand_layout_4x4_ramp(self):
        img = np.arange(16.0).reshape(1, 4, 4, 1)
        out = patchify(Tensor(img), 2).data
        np.testing.assert_array_equal(out[0], [
            [0, 1, 4, 5], [2, 3, 6, 7], [8, 9, 12, 13], [10, 11, 14, 15],
        ])

    def test_reassembly_bijection(self, rng):
        img = rng.normal(size=(8, 8, 3))
        out = patchify(Tensor(img[None]), 2).data[0]
        back = np.zeros_like(img)
        idx = 0
        for i in range(4):
            for j in range(4):
                back[2 * i:2 * i + 2, 2 * j:2 * j + 2, :] = out[idx].reshape(2, 2, 3)
                idx += 1
        np.testing.assert_array_equal(back, img)

    def test_indivisible_rejected(self):
        with pytest.raises(DimensionError):
            patchify(Tensor(np.zeros((1, 5, 4, 1))), 2)
        with pytest.raises(DimensionError):  # an unbatched image is not auto-batched
            patchify(Tensor(np.zeros((4, 4, 1))), 2)

    def test_batched_matches_single(self, rng):
        imgs = rng.normal(size=(3, 8, 8, 2))
        batched = patchify(Tensor(imgs), 4).data
        for i in range(3):
            np.testing.assert_array_equal(batched[i], patchify(Tensor(imgs[i:i + 1]), 4).data[0])


class TestEncodeImage:
    def test_deterministic(self, rng):
        params = init_vit_params(TOY_VIT, seed=3)
        img = rng.random((1, 8, 8, 1))
        a = encode_images(Tensor(img), params).data
        b = encode_images(Tensor(img), params).data
        np.testing.assert_array_equal(a, b)

    def test_same_seed_same_params(self):
        a = init_vit_params(TOY_VIT, seed=5)
        b = init_vit_params(TOY_VIT, seed=5)
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k].data, b.tensors[k].data)

    def test_shape_contract(self, rng):
        params = init_vit_params(TOY_VIT, seed=1)
        out = encode_images(Tensor(rng.random((1, 8, 8, 1))), params)
        assert out.shape == (1, TOY_VIT.width)
        batch = encode_images(Tensor(rng.random((5, 8, 8, 1))), params)
        assert batch.shape == (5, TOY_VIT.width)

    def test_wrong_shape_rejected(self, rng):
        params = init_vit_params(TOY_VIT, seed=1)
        with pytest.raises(DimensionError):
            encode_images(Tensor(rng.random((1, 8, 6, 1))), params)
        with pytest.raises(DimensionError):  # an unbatched image is not auto-batched
            encode_images(Tensor(rng.random((8, 8, 1))), params)

    def test_zero_weights_degenerate_oracle(self, rng):
        """With every attention/MLP weight matrix zero, each sublayer
        contributes only its output bias, so the [CLS] row is the
        [CLS]+position embedding pushed through the residual/norm stack:
        z <- LN(z + bo); z <- LN(z + mlp.b2), computable by hand."""
        params = init_vit_params(TOY_VIT, seed=2)
        t = dict(params.tensors)
        for i in range(TOY_VIT.layers):
            for name in ("wq", "wk", "wv", "wo", "mlp.w1", "mlp.w2"):
                key = f"blk{i}.{name}"
                t[key] = Tensor(np.zeros_like(t[key].data))
            # nonzero output biases so the oracle actually constrains them
            t[f"blk{i}.bo"] = Tensor(rng.normal(size=TOY_VIT.width))
            t[f"blk{i}.mlp.b2"] = Tensor(rng.normal(size=TOY_VIT.width))
        zeroed = EncoderParams(TOY_VIT, t)
        out = encode_images(Tensor(np.zeros((1, 8, 8, 1))), zeroed).data[0]

        row = t["cls"].data + sinusoidal_positions(TOY_VIT.n_patches + 1, TOY_VIT.width)[0]
        z = Tensor(row.reshape(1, 1, -1))
        for i in range(TOY_VIT.layers):
            z = layer_norm(z + t[f"blk{i}.bo"], t[f"blk{i}.ln1.g"], t[f"blk{i}.ln1.b"])
            z = layer_norm(z + t[f"blk{i}.mlp.b2"], t[f"blk{i}.ln2.g"], t[f"blk{i}.ln2.b"])
        np.testing.assert_allclose(out, z.data.reshape(-1), atol=1e-12)

    def test_gradient_wrt_image(self, rng):
        params = init_vit_params(TOY_VIT, seed=4)
        img = rng.random((1, 8, 8, 1))
        t = Tensor(img, requires_grad=True)
        f = encode_images(t, params)
        (f * f).sum().backward()
        numeric = numeric_gradient(
            lambda arr: float((lambda v: (v * v).sum())(encode_images(Tensor(arr), params)).data),
            img,
        )
        assert_gradients_close(t.grad, numeric)


class TestEncodeText:
    def _seq(self, ids):
        return TokenSequence(ids=tuple(ids))

    def test_minimal_sequence_finite_deterministic(self):
        params = init_text_params(TOY_TXT, TOY_VOCAB_SIZE, seed=7)
        seq = self._seq([0, 1])  # [CLS][SEP]
        a = encode_texts([seq], params).data
        b = encode_texts([seq], params).data
        assert np.all(np.isfinite(a))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, TOY_TXT.width)

    def test_padding_invariance(self):
        params = init_text_params(TOY_TXT, TOY_VOCAB_SIZE, seed=8)
        base = self._seq([0, 5, 6, 7, 1])
        padded = self._seq([0, 5, 6, 7, 1, 2, 2, 2])
        a = encode_texts([base], params).data
        b = encode_texts([padded], params).data
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_single_when_same_length(self):
        params = init_text_params(TOY_TXT, TOY_VOCAB_SIZE, seed=9)
        seqs = [self._seq([0, 5, 6, 1]), self._seq([0, 7, 8, 1])]
        batch = encode_texts(seqs, params).data
        for i, s in enumerate(seqs):
            np.testing.assert_array_equal(batch[i], encode_texts([s], params).data[0])

    def test_single_token_attention_is_value_projection(self):
        """With one (unmasked) token, attention weights collapse to 1 and
        the block output is layer_norm(V_proj + residual) of that token."""
        params = init_text_params(TextEncoderConfig(max_len=8, width=8, layers=1, heads=1),
                                  TOY_VOCAB_SIZE, seed=10)
        t = params.tensors
        seq = self._seq([5])
        out = encode_texts([seq], params).data[0]
        e = t["tok.w"].data[5] + sinusoidal_positions(1, 8)[0]
        v = e @ t["blk0.wv"].data + t["blk0.bv"].data
        attn = v @ t["blk0.wo"].data + t["blk0.bo"].data
        z = Tensor((attn + e).reshape(1, 1, 8))
        expected = layer_norm(z, t["blk0.ln1.g"], t["blk0.ln1.b"]).data.reshape(-1)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_overlong_rejected(self):
        params = init_text_params(TOY_TXT, TOY_VOCAB_SIZE, seed=7)
        with pytest.raises(ContractError):
            encode_texts([self._seq([0] * 17)], params)

    def test_empty_batch_rejected(self):
        params = init_text_params(TOY_TXT, TOY_VOCAB_SIZE, seed=7)
        with pytest.raises(ContractError, match="at least one sequence"):
            encode_texts([], params)

    @pytest.mark.parametrize("length, width", [(1, 8), (8, 8), (9, 16), (16, 16), (60, 64), (64, 64)])
    def test_padded_width_rounds_up_to_eight_capped_at_max_len(self, length, width):
        assert padded_width(length, 64) == width
        assert padded_width(length, 12) == min(width, 12)


class TestProjection:
    def test_identity_projection_of_unit_vector(self):
        d = 6
        params = {"w": Tensor(np.eye(d)), "b": Tensor(np.zeros(d))}
        v = np.zeros((1, d))
        v[0, 2] = 1.0
        out = project_to_shared(Tensor(v), params)
        np.testing.assert_allclose(out.data, v, atol=1e-15)

    def test_unit_norm_100_random(self, rng):
        params = init_projection_params(6, 6, seed=11)
        out = project_to_shared(Tensor(rng.normal(size=(100, 6))), params)
        assert np.all(np.abs(np.linalg.norm(out.data, axis=1) - 1.0) <= 1e-12)

    def test_zero_output_rejected(self):
        params = {"w": Tensor(np.zeros((4, 4))), "b": Tensor(np.zeros(4))}
        with pytest.raises(DegenerateInputError):
            project_to_shared(Tensor(np.ones((1, 4))), params)

    def test_rows_bit_identical_to_one_row_calls(self, rng):
        params = init_projection_params(32, 32, seed=13)
        x = rng.normal(size=(33, 32))
        out = project_to_shared(Tensor(x), params).data
        for i in range(len(x)):
            assert out[i].tobytes() == project_to_shared(Tensor(x[i:i + 1]), params).data[0].tobytes()

    def test_unbatched_rejected(self):
        params = init_projection_params(4, 4, seed=11)
        with pytest.raises(DimensionError):
            project_to_shared(Tensor(np.ones(4)), params)

    def test_gradient_through_projection(self, rng):
        params = init_projection_params(5, 5, seed=12)
        x = rng.normal(size=(3, 5))
        t = Tensor(x, requires_grad=True)
        out = project_to_shared(t, params)
        (out * Tensor(np.arange(5.0))).sum().backward()
        numeric = numeric_gradient(
            lambda arr: float(
                (project_to_shared(Tensor(arr), params) * Tensor(np.arange(5.0))).sum().data
            ),
            x,
        )
        assert_gradients_close(t.grad, numeric)


def test_every_parameter_receives_gradient(rng):
    """End-to-end differentiability: no parameter is dead on a random batch."""
    from tsrmcl.contrastive import Temperature, contrastive_loss, similarity

    vit = init_vit_params(TOY_VIT, seed=20)
    txt = init_text_params(TOY_TXT, TOY_VOCAB_SIZE, seed=21)
    pv = init_projection_params(8, 8, seed=22)
    pt = init_projection_params(8, 8, seed=23)
    temp = Temperature.init()

    imgs = Tensor(rng.random((4, 8, 8, 1)))
    seqs = [TokenSequence(ids=(0, int(rng.integers(3, 12)), int(rng.integers(3, 12)), 1))
            for _ in range(4)]
    fv = project_to_shared(encode_images(imgs, vit), pv)
    ft = project_to_shared(encode_texts(seqs, txt), pt)
    loss = contrastive_loss(similarity(fv, ft), temp)
    loss.backward()

    dead = []
    for name, p in {**{f"vit.{k}": v for k, v in vit.tensors.items()},
                    **{f"txt.{k}": v for k, v in txt.tensors.items()},
                    "pv.w": pv["w"], "pv.b": pv["b"],
                    "pt.w": pt["w"], "pt.b": pt["b"],
                    "gamma": temp.gamma}.items():
        if p.grad is None or not np.any(p.grad != 0.0):
            dead.append(name)
    # token rows never gathered legitimately carry zero gradient
    dead = [d for d in dead if d != "txt.tok.w"]
    assert not dead, f"parameters with always-zero gradients: {dead}"
