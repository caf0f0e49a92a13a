"""Similarity matrix, temperature, bidirectional contrastive loss,
softmax classification, and the training loop."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tsrmcl.contrastive import (
    TAU_CEILING,
    Temperature,
    TrainConfig,
    classify,
    contrastive_loss,
    similarity,
    train,
    write_loss_trace,
)
from tsrmcl.errors import ContractError, DimensionError
from tsrmcl.tensor import Tensor

from conftest import assert_gradients_close, numeric_gradient


def unit_rows(rng, b, d):
    x = rng.normal(size=(b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestTemperature:
    def test_exp_parameterization_positive(self):
        for gamma in (-5.0, 0.0, 2.0):
            assert Temperature(Tensor(gamma, requires_grad=True)).tau > 0

    def test_default_init_near_14(self):
        t = Temperature.init()
        assert t.tau == pytest.approx(14.0, rel=1e-12)

    def test_ceiling_caps_tau(self):
        t = Temperature(Tensor(10.0, requires_grad=True))
        assert TAU_CEILING == 100.0
        assert t.tau == 100.0
        assert float(t.tau_tensor().data) == 100.0


class TestSimilarity:
    def test_orthonormal_identity(self):
        fv = Tensor(np.eye(4))
        assert np.array_equal(similarity(fv, fv).data, np.eye(4))

    def test_matched_rows_give_unit_diagonal(self, rng):
        f = unit_rows(rng, 5, 8)
        s = similarity(Tensor(f), Tensor(f)).data
        np.testing.assert_allclose(np.diag(s), np.ones(5), atol=1e-12)

    def test_hand_dot_product(self):
        a = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        b = np.array([[0.0, 1.0, 0.0], [0.6, 0.0, 0.8]])
        s = similarity(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(s, [[0.0, 0.6], [0.8, 0.36]], atol=1e-12)

    def test_entries_bounded(self, rng):
        s = similarity(Tensor(unit_rows(rng, 6, 5)), Tensor(unit_rows(rng, 6, 5))).data
        assert np.all(np.abs(s) <= 1.0 + 1e-9)

    def test_non_unit_rejected(self, rng):
        bad = Tensor(rng.normal(size=(3, 4)) * 3)
        with pytest.raises(ContractError):
            similarity(bad, bad)


class TestContrastiveLoss:
    def test_b1_exactly_zero(self):
        temp = Temperature(Tensor(0.7, requires_grad=True))
        loss = contrastive_loss(Tensor([[0.42]]), temp)
        assert float(loss.data) == 0.0

    def test_b2_identity_closed_form(self):
        temp = Temperature(Tensor(0.0, requires_grad=True))  # tau = 1
        loss = contrastive_loss(Tensor(np.eye(2)), temp)
        assert float(loss.data) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-9)

    def test_permutation_invariance(self, rng):
        temp = Temperature.init()
        s = rng.normal(size=(5, 5))
        perm = rng.permutation(5)
        a = float(contrastive_loss(Tensor(s), temp).data)
        b = float(contrastive_loss(Tensor(s[np.ix_(perm, perm)]), temp).data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_positive_when_not_diagonal_dominant(self, rng):
        temp = Temperature.init()
        for b in (2, 4, 8):
            s = rng.normal(size=(b, b))
            assert float(contrastive_loss(Tensor(s), temp).data) > 0.0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            contrastive_loss(Tensor(np.zeros((2, 3))), Temperature.init())

    @pytest.mark.parametrize("b", [2, 4, 8])
    def test_gradient_wrt_s_and_gamma(self, b, rng):
        s0 = rng.normal(size=(b, b))
        gamma0 = 0.9

        s = Tensor(s0, requires_grad=True)
        gamma = Tensor(gamma0, requires_grad=True)
        contrastive_loss(s, Temperature(gamma)).backward()

        num_s = numeric_gradient(
            lambda arr: float(
                contrastive_loss(Tensor(arr), Temperature(Tensor(gamma0))).data
            ),
            s0,
        )
        assert_gradients_close(s.grad, num_s)
        num_g = numeric_gradient(
            lambda g: float(
                contrastive_loss(Tensor(s0), Temperature(Tensor(g[()]))).data
            ),
            np.array(gamma0),
        )
        assert_gradients_close(gamma.grad, num_g)


class TestClassify:
    def _temp(self, tau):
        return Temperature(Tensor(math.log(tau), requires_grad=True))

    def test_identical_class_texts_uniform(self, rng):
        f = unit_rows(rng, 1, 6)[0]
        c = unit_rows(rng, 1, 6)[0]
        probs = classify(f, np.stack([c, c, c]), self._temp(5.0))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-12)

    def test_large_tau_concentrates(self, rng):
        f = unit_rows(rng, 1, 6)[0]
        cls = unit_rows(rng, 4, 6)
        cls[2] = f  # unique max similarity
        probs = classify(f, cls, self._temp(100.0))
        assert probs[2] >= 0.999

    def test_closed_form_two_classes(self):
        f = np.array([1.0, 0.0])
        cls = np.array([[0.8, 0.6], [0.2, np.sqrt(1 - 0.04)]])
        probs = classify(f, cls, self._temp(1.0))
        e = np.exp([0.8, 0.2])
        np.testing.assert_allclose(probs, e / e.sum(), atol=1e-12)
        assert probs[0] == pytest.approx(0.6457, abs=1e-4)
        assert probs[1] == pytest.approx(0.3543, abs=1e-4)

    def test_probability_vector(self, rng):
        f = unit_rows(rng, 1, 8)[0]
        cls = unit_rows(rng, 7, 8)
        probs = classify(f, cls, self._temp(14.0))
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_argmax_tau_invariant(self, rng):
        f = unit_rows(rng, 1, 8)[0]
        cls = unit_rows(rng, 7, 8)
        args = {np.argmax(classify(f, cls, self._temp(tau))) for tau in (0.5, 2.0, 14.0, 90.0)}
        assert len(args) == 1
        assert args.pop() == np.argmax(cls @ f)

    def test_empty_classes_rejected(self, rng):
        with pytest.raises(ContractError):
            classify(unit_rows(rng, 1, 4)[0], np.zeros((0, 4)), self._temp(1.0))


def tiny_pairs(rng, n=12, side=8):
    texts = [
        "a circular red sign with speed limit 40 km/h",
        "a circular blue sign with a white arrow indicating keep right",
        "a triangular yellow sign warning of children ahead",
    ]
    pairs = []
    for i in range(n):
        k = i % 3
        img = rng.random((side, side, 3)) * 0.2
        img[:, :, k] += 0.7  # channel-coded category
        pairs.append((np.clip(img, 0, 1), texts[k]))
    return pairs


def tiny_config(epochs=3, seed=0):
    return TrainConfig(
        batch_size=6, epochs=epochs, seed=seed, image_side=8, patch=4,
        width=16, vit_layers=1, text_layers=1, heads=2,
    )


class TestTrain:
    def test_needs_two_pairs(self, rng):
        with pytest.raises(ContractError):
            train(tiny_pairs(rng)[:1], tiny_config())

    def test_two_runs_identical_traces(self, rng):
        pairs = tiny_pairs(rng)
        t1 = train(pairs, tiny_config(seed=3))[1]
        t2 = train(pairs, tiny_config(seed=3))[1]
        assert t1 == t2

    def test_loss_decreases_on_separable_data(self, rng):
        pairs = tiny_pairs(rng, n=24)
        _, trace = train(pairs, tiny_config(epochs=12, seed=1))
        assert trace[-1][1] < trace[0][1]

    def test_matched_exceeds_mismatched_after_training(self, rng):
        pairs = tiny_pairs(rng, n=24)
        model, _ = train(pairs, tiny_config(epochs=30, seed=2))
        texts = sorted({t for _, t in pairs})
        text_emb = {t: model.embed_text(t) for t in texts}
        matched, mismatched = [], []
        fvs = model.embed_images(np.stack([img for img, _ in pairs]))
        for f, (_, text) in zip(fvs, pairs):
            for t in texts:
                (matched if t == text else mismatched).append(float(f @ text_emb[t]))
        assert np.mean(matched) - np.mean(mismatched) >= 0.2

    def test_partial_batch_kept(self, rng):
        pairs = tiny_pairs(rng, n=8)  # batch 6 -> batches of 6 and 2
        _, trace = train(pairs, tiny_config(epochs=1, seed=4))
        assert len(trace) == 1

    def test_trace_csv_format(self, tmp_path, rng):
        _, trace = train(tiny_pairs(rng), tiny_config(epochs=2, seed=5))
        path = tmp_path / "trace.csv"
        write_loss_trace(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,tau"
        assert len(lines) == 3


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path, rng):
        model, _ = train(tiny_pairs(rng), tiny_config(epochs=2, seed=6))
        from tsrmcl.contrastive import DualEncoderModel

        model.save(tmp_path / "ckpt")
        back = DualEncoderModel.load(tmp_path / "ckpt")
        imgs = rng.random((2, 8, 8, 3))
        np.testing.assert_array_equal(model.embed_images(imgs), back.embed_images(imgs))
        text = "a circular red sign with speed limit 40 km/h"
        np.testing.assert_array_equal(model.embed_text(text), back.embed_text(text))
        assert model.text_fingerprint() == back.text_fingerprint()

    def test_manifest_has_offsets(self, tmp_path, rng):
        import json

        model, _ = train(tiny_pairs(rng), tiny_config(epochs=1, seed=7))
        model.save(tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert set(manifest) == {"vit_config", "text_config", "params"}
        offsets = [e["offset"] for e in manifest["params"]]
        assert offsets == sorted(offsets)
        assert all({"name", "offset", "nbytes", "shape"} <= set(e) for e in manifest["params"])

    def test_truncated_params_rejected_naming_entry(self, tmp_path, rng):
        import json

        from tsrmcl.contrastive import DualEncoderModel

        model, _ = train(tiny_pairs(rng), tiny_config(epochs=1, seed=7))
        model.save(tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        last = max(manifest["params"], key=lambda e: e["offset"])["name"]
        bin_path = tmp_path / "ckpt" / "params.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-100])
        with pytest.raises(ContractError, match=f"params entry '{last}'.*outside"):
            DualEncoderModel.load(tmp_path / "ckpt")

    @pytest.mark.parametrize("edit, problem", [
        (lambda ps: [e for e in ps if e["name"] != "pv.w"], "'pv.w' is missing"),
        (lambda ps: [e for e in ps if e["name"] != "vit.blk0.wq"], "'vit.blk0.wq' is missing"),
        (lambda ps: ps + [{**ps[0], "name": "stray.w"}], "'stray.w' is not a parameter"),
        (lambda ps: [{**e, "name": "pv.b"} if e["name"] == "gamma" else
                     {**e, "name": "gamma"} if e["name"] == "pv.b" else e for e in ps],
         r"'gamma' has shape \[16\]"),
    ], ids=["drop-pv.w", "drop-vit-entry", "stray-entry", "swapped-shapes"])
    def test_incomplete_manifest_rejected_naming_entry(self, tmp_path, edit, problem):
        import json

        from tsrmcl.contrastive import DualEncoderModel, init_model
        from tsrmcl.tokenizer import build_vocab

        init_model(tiny_config(), build_vocab(["a red sign", "a blue sign"])).save(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"] = edit(manifest["params"])
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=f"params entry {problem}"):
            DualEncoderModel.load(tmp_path / "ckpt")

    def test_round_trip_keeps_plain_policy(self, tmp_path, rng):
        import json

        from tsrmcl.contrastive import DualEncoderModel

        config = replace(tiny_config(epochs=1, seed=8), number_protection=False)
        model, _ = train(tiny_pairs(rng), config)
        model.save(tmp_path / "ckpt")
        assert json.loads((tmp_path / "ckpt" / "vocab.json").read_text())["number_protection"] is False
        back = DualEncoderModel.load(tmp_path / "ckpt")
        assert back.vocab.number_protection is False
        assert back.text_fingerprint() == model.text_fingerprint()
        text = "speed limit 987.25 km/h"
        np.testing.assert_array_equal(back.embed_text(text), model.embed_text(text))

    def test_edited_manifest_shape_rejected_naming_entry(self, tmp_path, rng):
        import json

        from tsrmcl.contrastive import DualEncoderModel

        model, _ = train(tiny_pairs(rng), tiny_config(epochs=1, seed=7))
        model.save(tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = next(e for e in manifest["params"] if e["name"] == "pv.w")
        entry["shape"] = entry["shape"][::-1] + [1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match="params entry 'pv.w'.*manifest says"):
            DualEncoderModel.load(tmp_path / "ckpt")
