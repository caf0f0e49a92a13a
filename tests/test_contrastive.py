"""Similarity matrix, temperature, bidirectional contrastive loss,
softmax classification, the training loop, and the checkpoint."""

import io
import json
import math
import operator
import re
import struct
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib import format as npy_format

from tsrmcl.cache import SemanticCache
from tsrmcl.contrastive import (
    _batch_loss,
    _fitting_tokens,
    TAU_CEILING,
    DualEncoderModel,
    Temperature,
    TrainConfig,
    classify,
    classify_image,
    contrastive_loss,
    init_model,
    similarity,
    train,
    write_loss_trace,
)
from tsrmcl.encoders import encode_images, encode_texts, project_to_shared
from tsrmcl.errors import ContractError, DimensionError
from tsrmcl.tensor import Tensor
from tsrmcl.tokenizer import build_vocab

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

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_over_long_class_text_rejected_naming_it(self, rng, cached):
        model = init_model(tiny_config(), build_vocab(["a red sign", "a blue sign"]))
        cache = SemanticCache(model.text_fingerprint()) if cached else None
        long_text = " ".join(["red"] * 80)
        with pytest.raises(ContractError, match=r"text has \d+ tokens, over max_len 64: 'red red"):
            classify_image(model, rng.random((8, 8, 3)), ["a red sign", long_text], cache=cache)


class TestEmbed:
    TEXTS = ["stop", "a red sign", "a circular blue sign with a white arrow indicating keep right"]

    @pytest.fixture(scope="class")
    def model(self):
        return init_model(tiny_config(), build_vocab(self.TEXTS))

    def test_texts_in_input_order_across_widths(self, model):
        rows = model.embed_texts(self.TEXTS)
        assert rows.shape == (3, 16)
        np.testing.assert_array_equal(model.embed_texts(self.TEXTS[::-1]), rows[::-1])

    def test_empty_text_batch_rejected(self, model):
        with pytest.raises(ContractError, match="embed_texts needs at least one text"):
            model.embed_texts([])

    def test_over_long_text_rejected_before_anything_is_encoded(self, model, monkeypatch):
        encoded = []
        monkeypatch.setattr("tsrmcl.contrastive.encode_texts", lambda *a: encoded.append(a))
        with pytest.raises(ContractError, match=r"text has \d+ tokens, over max_len 64: 'red red"):
            model.embed_texts(["a red sign", " ".join(["red"] * 80)])
        assert encoded == []

    def test_empty_image_stack_gives_zero_rows(self, model):
        assert model.embed_images(np.zeros((0, 8, 8, 3))).shape == (0, 16)

    def test_classify_without_cache_embeds_texts_in_one_call(self, model, rng, monkeypatch):
        calls = []
        embed_texts = DualEncoderModel.embed_texts
        monkeypatch.setattr(DualEncoderModel, "embed_texts",
                            lambda self, texts: calls.append(list(texts)) or embed_texts(self, texts))
        classify_image(model, rng.random((8, 8, 3)), self.TEXTS * 2)
        assert calls == [self.TEXTS * 2]


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

    def test_over_long_text_rejected_before_any_step_naming_its_pair(self, rng):
        pairs = tiny_pairs(rng)
        pairs[5] = (pairs[5][0], " ".join(["sign"] * 80))
        # zero epochs run no step, so only the up-front check can raise
        with pytest.raises(ContractError,
                           match=r"pair 5 text has \d+ tokens, over max_len 64: 'sign sign"):
            train(pairs, tiny_config(epochs=0))

    def test_distinct_text_step_matches_per_row_encoding(self, rng):
        """One step on a batch that repeats its texts: encoding each text
        once and gathering the rows back gives the loss of encoding all B
        rows exactly (the encoders are batch invariant), and every parameter
        its gradient to 1e-10 of the step's largest gradient entry (the key
        biases' gradients are zero up to rounding)."""
        pairs = tiny_pairs(rng, n=10)
        texts = sorted({t for _, t in pairs})
        vocab = build_vocab(texts)
        model = init_model(tiny_config(), vocab)
        sequences = [_fitting_tokens(t, vocab, 64) for t in texts]
        text_of = np.array([texts.index(t) for _, t in pairs])
        images = np.stack([img for img, _ in pairs])
        params = model.flat_params()

        def gradients(loss):
            loss.backward()
            return float(loss.data), {n: p.grad for n, p in params.items()}

        loss, got = gradients(_batch_loss(model, images, sequences, text_of))
        fv = project_to_shared(encode_images(Tensor(images), model.vit), model.proj_v)
        ft = project_to_shared(encode_texts([sequences[k] for k in text_of], model.text), model.proj_t)
        ref_loss, ref = gradients(contrastive_loss(similarity(fv, ft), model.temperature))
        assert loss == ref_loss
        scale = max(np.max(np.abs(g)) for g in ref.values())
        for name, g in ref.items():
            assert got[name] is not None, name
            assert np.max(np.abs(got[name] - g)) <= 1e-10 * scale, name

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


class TestFrozenModel:
    """The model is a value: every route that would edit it in place raises."""

    @pytest.fixture(scope="class")
    def model(self):
        return init_model(tiny_config(), build_vocab(["a red sign", "a blue sign"]))

    @pytest.mark.parametrize("edit", [
        lambda m: setattr(m, "text", m.vit),
        lambda m: operator.setitem(m.text.tensors, "tok.w", m.text.tensors["tok.w"]),
        lambda m: operator.setitem(m.proj_t, "w", m.proj_t["b"]),
        lambda m: setattr(m.vocab, "tokens", m.vocab.tokens[::-1]),
        lambda m: operator.setitem(m.vocab.tokens, 5, "x"),
        lambda m: m.vocab.merges.append(("a", "b")),
        lambda m: operator.setitem(m.vocab.token_to_id, "x", 5),
        lambda m: setattr(m.vocab, "number_protection", False),
        lambda m: setattr(m.temperature, "gamma", Tensor(0.0)),
    ], ids=["model.text", "text.tensors[k]", "proj_t[w]", "vocab.tokens", "vocab.tokens[i]",
            "vocab.merges", "vocab.token_to_id", "vocab.number_protection", "temperature.gamma"])
    def test_mutation_raises(self, model, edit):
        before = model.with_params(model.flat_params()).text_fingerprint()
        with pytest.raises((AttributeError, TypeError)):
            edit(model)
        assert model.with_params(model.flat_params()).text_fingerprint() == before

    def test_with_params_returns_a_working_new_model(self, model, rng):
        flat = model.flat_params()
        flat["pt.b"] = Tensor(flat["pt.b"].data + 0.5, requires_grad=True)
        moved = model.with_params(flat)
        assert moved.vocab is model.vocab and moved.proj_t["b"] is flat["pt.b"]
        assert moved.text_fingerprint() != model.text_fingerprint()
        assert not np.array_equal(moved.embed_text("a red sign"), model.embed_text("a red sign"))
        probs = classify_image(moved, rng.random((8, 8, 3)), ["a red sign", "a blue sign"],
                               cache=SemanticCache(moved.text_fingerprint()))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def saved_checkpoint(tmp_path):
    ckpt = tmp_path / "ckpt"
    init_model(tiny_config(), build_vocab(["a red sign", "a blue sign"])).save(ckpt)
    return ckpt


def rewrite_params(ckpt, edit):
    """Re-save ``params.npz`` with ``edit`` applied to its {name: array} dict."""
    path = ckpt / "params.npz"
    with np.load(path) as npz:
        entries = {name: npz[name] for name in npz.files}
    np.savez(path, **edit(entries))


def replace_member(ckpt, name, raw: bytes, member=None):
    """Swap entry ``name`` of ``params.npz`` for a member (``name.npy`` by
    default) holding ``raw`` bytes; the zip stays well formed, CRC-32
    included."""
    rewrite_params(ckpt, lambda es: {k: v for k, v in es.items() if k != name})
    with zipfile.ZipFile(ckpt / "params.npz", "a") as zf:
        zf.writestr(member or f"{name}.npy", raw)


def npy_bytes(array=None, header=None) -> bytes:
    buf = io.BytesIO()
    if header is None:
        npy_format.write_array(buf, array)
    else:
        npy_format.write_array_header_1_0(buf, header)
    return buf.getvalue()


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path, rng):
        model, _ = train(tiny_pairs(rng), tiny_config(epochs=2, seed=6))
        model.save(tmp_path / "ckpt")
        back = DualEncoderModel.load(tmp_path / "ckpt")
        imgs = rng.random((2, 8, 8, 3))
        assert model.embed_images(imgs).tobytes() == back.embed_images(imgs).tobytes()
        texts = [t for _, t in tiny_pairs(rng)[:3]]
        for text in texts:
            assert model.embed_text(text).tobytes() == back.embed_text(text).tobytes()
        assert model.text_fingerprint() == back.text_fingerprint()

        def probs(m):  # cache off, then on
            return [classify_image(m, imgs[0], texts, cache).tobytes()
                    for cache in (None, SemanticCache(m.text_fingerprint()))]

        assert probs(back) == probs(model)
        assert len(set(probs(back))) == 1

    def test_manifest_holds_only_configs(self, tmp_path, rng):
        model, _ = train(tiny_pairs(rng), tiny_config(epochs=1, seed=7))
        model.save(tmp_path / "ckpt")
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
            "manifest.json", "params.npz", "vocab.json"]
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert set(manifest) == {"vit_config", "text_config"}
        with np.load(tmp_path / "ckpt" / "params.npz") as npz:
            assert sorted(npz.files) == sorted(model.flat_params())
            assert {npz[name].dtype for name in npz.files} == {np.dtype(np.float64)}

    def test_truncated_params_rejected_naming_entry(self, tmp_path):
        """An entry cut short inside a well-formed zip."""
        ckpt = saved_checkpoint(tmp_path)
        with np.load(ckpt / "params.npz") as npz:
            raw = npy_bytes(npz["pv.w"])
        replace_member(ckpt, "pv.w", raw[:-8])
        with pytest.raises(ContractError, match=r"params\.npz: entry 'pv\.w' does not decode"):
            DualEncoderModel.load(ckpt)

    @pytest.mark.parametrize("edit, problem", [
        (lambda es: {k: v for k, v in es.items() if k != "pv.w"}, "'pv.w' is missing"),
        (lambda es: {k: v for k, v in es.items() if k != "vit.blk0.wq"}, "'vit.blk0.wq' is missing"),
        (lambda es: {**es, "stray.w": es["pv.b"]}, "'stray.w' is not a parameter"),
        (lambda es: {**es, "pv.b": es["gamma"], "gamma": es["pv.b"]},
         r"'pv.b' declares float64 \[\]"),
    ], ids=["drop-pv.w", "drop-vit-entry", "stray-entry", "swapped-shapes"])
    def test_incomplete_manifest_rejected_naming_entry(self, tmp_path, edit, problem):
        """The entry list of ``params.npz`` must be exactly the parameters
        of the model the manifest's configs build."""
        ckpt = saved_checkpoint(tmp_path)
        rewrite_params(ckpt, edit)
        with pytest.raises(ContractError, match=rf"params\.npz: entry {problem}"):
            DualEncoderModel.load(ckpt)

    @pytest.mark.parametrize("raw, member, problem", [
        (lambda a: npy_bytes(a.astype(np.int64)), None, r"declares int64 \[16\]"),
        (lambda a: npy_bytes(np.array([None] * 16, dtype=object)), None, r"declares object \[16\]"),
        (lambda a: npy_bytes(np.where(np.arange(16) == 3, np.nan, a)), None,
         "holds non-finite values"),
        (lambda a: npy_bytes(header={"descr": "<f8", "fortran_order": False, "shape": (10**12,)})
         + a.tobytes(), None, r"declares float64 \[1000000000000\]"),
        (lambda a: b"\x93NUMPY\x01\x00garbage", None, "does not decode"),
        (npy_bytes, "pv.b", "does not decode"),
    ], ids=["int64", "object", "nan", "huge-header", "bad-header", "no-npy-suffix"])
    def test_bad_entry_rejected_naming_it(self, tmp_path, raw, member, problem):
        ckpt = saved_checkpoint(tmp_path)
        with np.load(ckpt / "params.npz") as npz:
            original = npz["pv.b"]
        replace_member(ckpt, "pv.b", raw(original), member)
        with pytest.raises(ContractError, match=rf"params\.npz: entry 'pv\.b' {problem}"):
            DualEncoderModel.load(ckpt)

    def test_flipped_payload_byte_rejected_naming_entry(self, tmp_path):
        ckpt = saved_checkpoint(tmp_path)
        path = ckpt / "params.npz"
        with np.load(path) as npz:
            payload = npz["pv.w"].tobytes()
        blob = bytearray(path.read_bytes())
        at = blob.find(payload)
        assert at > 0 and blob.find(payload, at + 1) == -1
        blob[at] ^= 1  # lowest mantissa bit of the first weight: still finite
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractError, match=r"params\.npz: entry 'pv\.w' does not decode.*CRC"):
            DualEncoderModel.load(ckpt)

    def test_corrupt_compressed_entry_rejected_naming_it(self, tmp_path):
        """A damaged deflate stream fails in zlib before any CRC is seen."""
        ckpt = saved_checkpoint(tmp_path)
        path = ckpt / "params.npz"
        with np.load(path) as npz:
            np.savez_compressed(path, **{name: npz[name] for name in npz.files})
        with zipfile.ZipFile(path) as zf:
            offset = zf.getinfo("vit.patch.w.npy").header_offset
        blob = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack_from("<HH", blob, offset + 26)  # local file header
        blob[offset + 30 + name_len + extra_len] ^= 0xFF  # first byte of the deflate stream
        path.write_bytes(bytes(blob))
        with pytest.raises(ContractError, match=r"params\.npz: entry 'vit\.patch\.w' does not decode"):
            DualEncoderModel.load(ckpt)

    @pytest.mark.parametrize("damage", [
        lambda path: path.write_bytes(path.read_bytes()[:-100]),
        lambda path: path.write_bytes(b"not a zip archive"),
        lambda path: (path.unlink(), (path.parent / "params.bin").write_bytes(bytes(64))),
        lambda path: path.write_bytes(npy_bytes(np.zeros(3))),
    ], ids=["truncated", "not-a-zip", "params-bin-only", "bare-npy"])
    def test_unreadable_archive_rejected_naming_it(self, tmp_path, damage):
        ckpt = saved_checkpoint(tmp_path)
        damage(ckpt / "params.npz")
        with pytest.raises(ContractError, match=r"params\.npz: not a readable \.npz archive"):
            DualEncoderModel.load(ckpt)

    @pytest.mark.parametrize("key", ["vit_config", "text_config"])
    def test_unknown_config_key_rejected_naming_it(self, tmp_path, key):
        ckpt = saved_checkpoint(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest[key]["bogus"] = 1
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=f"manifest {key}: .*'bogus'"):
            DualEncoderModel.load(ckpt)
        del manifest[key]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=f"{re.escape(str(ckpt))}: manifest has no {key}"):
            DualEncoderModel.load(ckpt)

    @pytest.mark.parametrize("key, value", [("vocab_size", 20), ("pad_id", 22)])
    def test_token_fact_in_manifest_rejected_naming_it(self, tmp_path, key, value):
        """The vocab owns its size and pad id: a ``text_config`` that holds
        either, as an older manifest does, is refused rather than obeyed."""
        ckpt = saved_checkpoint(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["text_config"][key] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=f"manifest text_config: .*'{key}'"):
            DualEncoderModel.load(ckpt)

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        ckpt = saved_checkpoint(tmp_path)
        bigger = build_vocab(["a red sign", "a blue sign", "speed limit 40 km/h keep right"])
        assert len(bigger) > len(DualEncoderModel.load(ckpt).vocab) == 20
        bigger.save(ckpt / "vocab.json")
        with pytest.raises(ContractError, match=r"params\.npz: entry 'txt\.tok\.w' declares float64 "
                                                rf"\[20, 16\], the manifest's configs and vocab\.json "
                                                rf"need float64 \[{len(bigger)}, 16\]"):
            DualEncoderModel.load(ckpt)

    def test_round_trip_keeps_plain_policy(self, tmp_path, rng):
        config = replace(tiny_config(epochs=1, seed=8), number_protection=False)
        model, _ = train(tiny_pairs(rng), config)
        model.save(tmp_path / "ckpt")
        assert json.loads((tmp_path / "ckpt" / "vocab.json").read_text())["number_protection"] is False
        back = DualEncoderModel.load(tmp_path / "ckpt")
        assert back.vocab.number_protection is False
        assert back.text_fingerprint() == model.text_fingerprint()
        text = "speed limit 987.25 km/h"
        np.testing.assert_array_equal(back.embed_text(text), model.embed_text(text))

    def test_edited_manifest_shape_rejected_naming_entry(self, tmp_path):
        """A config edit that changes a parameter's shape."""
        ckpt = saved_checkpoint(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["vit_config"]["mlp_factor"] = 2
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ContractError, match=r"params\.npz: entry 'vit\.blk0\.mlp\.w1' declares "
                                                r"float64 \[16, 64\], the manifest's configs and "
                                                r"vocab\.json need float64 \[16, 32\]"):
            DualEncoderModel.load(ckpt)
