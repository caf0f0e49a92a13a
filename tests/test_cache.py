"""Semantic cache: memoization contract, transparency, staleness,
concurrency, and the throughput benchmark."""

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsrmcl.cache import SemanticCache, bench_cache, class_bank, get_or_encode, get_or_encode_many
from tsrmcl.contrastive import DualEncoderModel, TrainConfig, classify_image, init_model, train
from tsrmcl.encoders import EncoderParams
from tsrmcl.errors import ContractError, StaleCacheError
from tsrmcl.tensor import Tensor
from tsrmcl.tokenizer import RESERVED, Vocab, build_vocab, tokenize

from conftest import PROPERTY


TEXTS = [
    "a circular red sign with speed limit 40 km/h",
    "a circular red sign with speed limit 80 km/h",
    "a circular blue sign with a white arrow indicating keep right",
    "a triangular yellow sign warning of children ahead",
    "a circular red sign with height limit 2.5 m",
]


# texts of five padded widths: a batch mixes rows that are encoded as different stacks
POOL = TEXTS + [
    "stop",
    "no entry",
    "a circular red sign with speed limit 40 km/h and height limit 2.5 m ahead of children",
    "a triangular yellow sign warning of children ahead, then keep right",
]


CONFIG = TrainConfig(seed=11, image_side=8, patch=4, width=16, vit_layers=1, text_layers=1)


def assert_rows_bit_identical(model, texts, images):
    """Every row of a stacked ``embed_texts`` / ``embed_images`` call is
    bit-identical to the same input embedded alone."""
    for text, row in zip(texts, model.embed_texts(texts)):
        assert row.tobytes() == model.embed_texts([text])[0].tobytes(), text
    for i, row in enumerate(model.embed_images(images)):
        assert row.tobytes() == model.embed_images(images[i:i + 1])[0].tobytes(), i


def check_benchmark_shaped_model() -> None:
    """The batch-invariance contract on a model of the benchmark's default
    shape (32 x 32 images, width 32, 2 + 2 layers), 64 images and the pool."""
    model = init_model(TrainConfig(seed=5), build_vocab(POOL, target_size=512))
    assert_rows_bit_identical(model, POOL * 2, np.random.default_rng(5).random((64, 32, 32, 3)))


@pytest.fixture(scope="module")
def model():
    return init_model(CONFIG, build_vocab(TEXTS, target_size=512))


@pytest.fixture
def cache(model):
    return SemanticCache(model.text_fingerprint())


class TestMemoization:
    def test_miss_then_hit_identical(self, model, cache):
        a = get_or_encode(TEXTS[0], model, cache)
        b = get_or_encode(TEXTS[0], model, cache)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        np.testing.assert_array_equal(a, b)

    def test_transparency_bit_exact(self, model, cache):
        direct = {t: model.embed_text(t) for t in TEXTS}
        for _ in range(2):
            for t in TEXTS:
                np.testing.assert_array_equal(get_or_encode(t, model, cache), direct[t])

    def test_stats_conservation(self, model, cache):
        for k in range(20):
            get_or_encode(TEXTS[k % len(TEXTS)], model, cache)
        assert cache.stats.lookups == 20
        assert cache.stats.hits + cache.stats.misses == 20
        assert cache.stats.misses == len(TEXTS)

    def test_key_includes_normalized_text(self, model, cache):
        a = get_or_encode("Speed Limit 40KPH", model, cache)
        b = get_or_encode("speed limit 40 km/h", model, cache)
        assert cache.stats.misses == 1  # same normalized key
        np.testing.assert_array_equal(a, b)

    def test_bytes_resident_tracked(self, model, cache):
        get_or_encode(TEXTS[0], model, cache)
        one = cache.stats.bytes_resident
        assert one > 0
        get_or_encode(TEXTS[1], model, cache)
        assert cache.stats.bytes_resident == 2 * one


class TestStaleness:
    def test_fingerprint_mismatch_raises(self, model):
        stale = SemanticCache(model.text_fingerprint() ^ 0xDEAD)
        with pytest.raises(StaleCacheError):
            get_or_encode(TEXTS[0], model, stale)

    def test_fingerprint_tracks_text_parameters(self, model):
        fp = model.text_fingerprint()
        flat = model.flat_params()
        bumped = dict(flat)
        name = next(k for k in flat if k.startswith("txt."))
        bumped[name] = Tensor(flat[name].data + 1e-9, requires_grad=True)
        assert model.with_params(bumped).text_fingerprint() != fp

    def test_fingerprint_ignores_image_parameters(self, model):
        fp = model.text_fingerprint()
        flat = model.flat_params()
        bumped = dict(flat)
        name = next(k for k in flat if k.startswith("vit."))
        bumped[name] = Tensor(flat[name].data + 1.0, requires_grad=True)
        assert model.with_params(bumped).text_fingerprint() == fp

    def test_fingerprint_covers_text_config(self, model):
        """Same tensors, twice the heads: other embeddings, so another fingerprint."""
        config = replace(model.text.config, heads=4)
        other = replace(model, text=EncoderParams(config, model.text.tensors))
        assert not np.array_equal(other.embed_text(TEXTS[0]), model.embed_text(TEXTS[0]))
        assert other.text_fingerprint() != model.text_fingerprint()

    def test_fingerprint_covers_merges(self, tmp_path):
        """Same tokens, and merge lists that both load: ``abc`` tokenizes
        to other ids, so the fingerprints differ."""
        tokens = RESERVED + ("a", "b", "c", "ab", "bc", "abc")
        vocabs = []
        for k, last in enumerate([("ab", "c"), ("a", "bc")]):
            Vocab(tokens, [("a", "b"), ("b", "c"), last]).save(tmp_path / f"{k}.json")
            vocabs.append(Vocab.load(tmp_path / f"{k}.json"))
        assert tokenize("abc", vocabs[0]).ids != tokenize("abc", vocabs[1]).ids
        a, b = (init_model(CONFIG, v) for v in vocabs)
        assert a.text_fingerprint() != b.text_fingerprint()

    def test_fingerprint_is_read_only(self, cache):
        with pytest.raises(AttributeError):
            cache.fingerprint = cache.fingerprint ^ 1


class TestEviction:
    def test_lru_bound_evicts_oldest(self, model):
        cache = SemanticCache(model.text_fingerprint(), max_entries=2)
        for t in TEXTS[:3]:
            get_or_encode(t, model, cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        get_or_encode(TEXTS[0], model, cache)  # evicted: must re-encode
        assert cache.stats.misses == 4


class TestConcurrency:
    def test_concurrent_readers_conserve_stats(self, model, cache):
        def worker(k):
            return get_or_encode(TEXTS[k % len(TEXTS)], model, cache)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(80)))
        assert cache.stats.lookups == 80
        assert cache.stats.hits + cache.stats.misses == 80
        direct = {t: model.embed_text(t) for t in TEXTS}
        for k, r in enumerate(results):
            np.testing.assert_array_equal(r, direct[TEXTS[k % len(TEXTS)]])

    def test_duplicate_misses_converge_to_one_value(self, model):
        cache = SemanticCache(model.text_fingerprint())
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: get_or_encode(TEXTS[0], model, cache), range(16)
            ))
        stored = get_or_encode(TEXTS[0], model, cache)
        for r in results:
            np.testing.assert_array_equal(r, stored)
        assert len(cache) == 1

    @PROPERTY
    @given(picks=st.lists(st.integers(0, 2 * len(TEXTS) - 1), min_size=1, max_size=40),
           threads=st.integers(1, 4), max_entries=st.sampled_from([None, 1, 2, 4]))
    def test_concurrent_lookups_bit_identical_and_conserved(self, model, picks, threads,
                                                            max_entries):
        pool_texts = TEXTS + [t.upper() for t in TEXTS]  # same normalized keys
        cache = SemanticCache(model.text_fingerprint(), max_entries=max_entries)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda k: get_or_encode(pool_texts[k], model, cache), picks))
        for k, row in zip(picks, results):
            np.testing.assert_array_equal(row, model.embed_text(pool_texts[k]))
        assert cache.stats.hits + cache.stats.misses == len(picks)
        assert max_entries is None or len(cache) <= max_entries
        assert cache.stats.bytes_resident == len(cache) * results[0].nbytes


class TestClassifierTransparency:
    def test_cache_on_off_identical_probs(self, model, rng):
        images = [rng.random((8, 8, 3)) for _ in range(10)]
        cache = SemanticCache(model.text_fingerprint())
        for img in images:
            off = classify_image(model, img, TEXTS, cache=None)
            on = classify_image(model, img, TEXTS, cache=cache)
            np.testing.assert_array_equal(off, on)


class TestClassBank:
    """The cache's one-slot class bank: the exact tuple of the last class
    list ``classify_image`` served, with its read-only (K, d) matrix."""

    @staticmethod
    def count_embed_texts(monkeypatch):
        calls = []
        embed_texts = DualEncoderModel.embed_texts
        monkeypatch.setattr(DualEncoderModel, "embed_texts",
                            lambda self, texts: calls.append(list(texts)) or embed_texts(self, texts))
        return calls

    def test_cache_on_off_bit_identical_as_the_list_changes(self, model, rng):
        cache = SemanticCache(model.text_fingerprint())
        img = rng.random((8, 8, 3))

        def check(texts):
            assert np.array_equal(classify_image(model, img, texts, cache=cache),
                                  classify_image(model, img, texts, cache=None)), texts

        a, b = TEXTS[:3], TEXTS[2:]
        mutated = list(TEXTS)
        for texts in (a, b, a, a[::-1], mutated):
            check(texts)
        mutated[0] = TEXTS[1]  # edited after a call: the bank holds its own tuple, so it misses
        check(mutated)
        class_bank(mutated, model, cache)  # and so when the list is passed to the bank directly
        mutated[0] = TEXTS[2]
        np.testing.assert_array_equal(class_bank(mutated, model, cache), model.embed_texts(mutated))

    @pytest.mark.parametrize("as_kind", [list, tuple, np.array])
    def test_any_sequence_of_texts(self, model, rng, as_kind):
        img = rng.random((8, 8, 3))
        reference = classify_image(model, img, list(TEXTS))
        cache = SemanticCache(model.text_fingerprint())
        for _ in range(2):  # bank miss, then bank hit
            assert np.array_equal(classify_image(model, img, as_kind(TEXTS)), reference)
            assert np.array_equal(classify_image(model, img, as_kind(TEXTS), cache=cache),
                                  reference)
        with pytest.raises(ContractError, match="at least one class text"):
            classify_image(model, img, as_kind([]), cache=cache)

    def test_repeat_encodes_nothing_and_counts_hits(self, model, rng, monkeypatch):
        calls = self.count_embed_texts(monkeypatch)
        cache = SemanticCache(model.text_fingerprint())
        img = rng.random((8, 8, 3))
        first = classify_image(model, img, TEXTS, cache=cache)
        assert calls == [TEXTS]
        lookups = []
        get = SemanticCache._get
        monkeypatch.setattr(SemanticCache, "_get", lambda self, key: lookups.append(key) or get(self, key))
        assert np.array_equal(classify_image(model, img, list(TEXTS), cache=cache), first)
        assert calls == [TEXTS] and lookups == []  # no per-text lookup either
        assert (cache.stats.hits, cache.stats.misses) == (len(TEXTS), len(TEXTS))

    def test_clear_drops_the_bank(self, model, rng, monkeypatch):
        calls = self.count_embed_texts(monkeypatch)
        cache = SemanticCache(model.text_fingerprint())
        img = rng.random((8, 8, 3))
        classify_image(model, img, TEXTS, cache=cache)
        cache.clear()
        classify_image(model, img, TEXTS, cache=cache)
        assert calls == [TEXTS, TEXTS]
        assert (cache.stats.hits, cache.stats.misses) == (0, 2 * len(TEXTS))

    def test_stale_cache_raises_before_the_bank_is_read(self, model, rng):
        stale = SemanticCache(model.text_fingerprint() ^ 0xDEAD)
        stale._bank = (tuple(TEXTS), model.embed_texts(TEXTS))
        with pytest.raises(StaleCacheError):
            classify_image(model, rng.random((8, 8, 3)), TEXTS, cache=stale)
        assert stale.stats.lookups == 0

    def test_matrix_is_read_only(self, model):
        cache = SemanticCache(model.text_fingerprint())
        for _ in range(2):  # as built, then as reused
            rows = class_bank(TEXTS, model, cache)
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0
        np.testing.assert_array_equal(rows, model.embed_texts(TEXTS))

    def test_threads_sharing_a_cache_get_cache_off_bytes(self, model, rng):
        lists = [TEXTS, POOL[3:]]
        images = rng.random((4, 8, 8, 3))
        expected = {(i, j): classify_image(model, images[i], lists[j]).tobytes()
                    for i in range(len(images)) for j in range(len(lists))}
        cache = SemanticCache(model.text_fingerprint())
        picks = [(k % len(images), (k // 3) % len(lists)) for k in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda ij: classify_image(model, images[ij[0]], lists[ij[1]], cache=cache),
                    picks, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for ij, probs in zip(picks, results):
            assert probs.tobytes() == expected[ij], ij
        assert cache.stats.lookups == sum(len(lists[j]) for _, j in picks)


class TestTextType:
    @pytest.mark.parametrize("texts", [[1, 2], ["a", None]])
    @pytest.mark.parametrize("cached", [False, True])
    def test_classify_rejects_non_str_text(self, model, rng, texts, cached):
        cache = SemanticCache(model.text_fingerprint()) if cached else None
        bad = next(t for t in texts if not isinstance(t, str))
        with pytest.raises(ContractError, match=f"{type(bad).__name__}: {bad!r}"):
            classify_image(model, rng.random((8, 8, 3)), texts, cache=cache)

    def test_get_or_encode_rejects_non_str_text(self, model, cache):
        with pytest.raises(ContractError, match="needs a str, got int: 7"):
            get_or_encode(7, model, cache)
        assert len(cache) == 0

    @pytest.mark.parametrize("image", ["x", object()])
    def test_classify_rejects_non_numeric_image(self, model, cache, image):
        with pytest.raises(ContractError, match="^Tensor needs numeric data"):
            classify_image(model, image, TEXTS, cache=cache)


class TestBatchInvariance:
    """Each embedding row depends on its own input alone: a row of a stacked
    call is bit-identical to the one-row call, whatever else the batch holds."""

    def test_stacked_rows_bit_identical_to_single_rows(self, model, rng):
        images = rng.random((64, 8, 8, 3))
        stacked = model.embed_images(images)
        for img, row in zip(images, stacked):
            np.testing.assert_array_equal(row, model.embed_images(img[None])[0])

    @PROPERTY
    @given(picks=st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=16))
    def test_any_batch_composition(self, model, picks):
        """Random subsets, orders and repeats of a pool, B from 1 to 16."""
        images = np.random.default_rng(len(POOL)).random((len(POOL), 8, 8, 3))
        assert_rows_bit_identical(model, [POOL[k] for k in picks], images[picks])

    def test_benchmark_shaped_model_under_default_threads(self):
        check_benchmark_shaped_model()

    def test_benchmark_shaped_model_under_one_blas_thread(self):
        """perfbench pins OpenBLAS to one thread, and its cache on/off check
        rests on this contract; the pinning only takes effect at start-up,
        so the check runs in a fresh interpreter."""
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", "import test_cache; test_cache.check_benchmark_shaped_model()"],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


class TestBatchedMisses:
    def test_request_encodes_its_distinct_misses_in_one_call(self, model, monkeypatch):
        calls = []
        embed_texts = DualEncoderModel.embed_texts
        monkeypatch.setattr(DualEncoderModel, "embed_texts",
                            lambda self, texts: calls.append(list(texts)) or embed_texts(self, texts))
        cache = SemanticCache(model.text_fingerprint(), max_entries=4)
        get_or_encode_many(TEXTS[:2], model, cache)
        assert calls == [TEXTS[:2]]
        # 2 hits; 4 misses on 3 distinct keys, TEXTS[3] and its upper case sharing one
        request = [TEXTS[0], TEXTS[2], TEXTS[3].upper(), TEXTS[3], TEXTS[1], TEXTS[4]]
        rows = get_or_encode_many(request, model, cache)
        assert calls[1:] == [[TEXTS[2], TEXTS[3], TEXTS[4]]]
        assert (cache.stats.hits, cache.stats.misses) == (2, 2 + 4)
        assert cache.stats.lookups == 2 + len(request)
        assert cache.stats.evictions == 2 + 3 - 4 and len(cache) == 4
        assert cache.stats.bytes_resident == 4 * rows[0].nbytes
        np.testing.assert_array_equal(rows, model.embed_texts(request))

    def test_empty_request_rejected(self, model, cache):
        with pytest.raises(ContractError, match="at least one text"):
            get_or_encode_many([], model, cache)


class TestClassifyFingerprintOnce:
    """The fingerprint digest runs once per model, however many lookups
    check it: a warm request must never rehash the text encoder, and
    training, which builds a new model every step, never digests."""

    @staticmethod
    def count_digests(monkeypatch):
        digests = []
        blake2b = hashlib.blake2b

        def counted(*args, **kwargs):
            digests.append(kwargs)
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counted)
        return digests

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        original = getattr(DualEncoderModel, name)

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(DualEncoderModel, name, counted)
        return calls

    def test_one_fingerprint_per_call(self, model, rng, monkeypatch):
        digests = self.count_digests(monkeypatch)
        fresh = model.with_params(model.flat_params())
        cache = SemanticCache(fresh.text_fingerprint())
        assert len(digests) == 1
        img = rng.random((8, 8, 3))
        classify_image(fresh, img, TEXTS, cache=cache)  # cold: all misses
        classify_image(fresh, img, TEXTS, cache=cache)  # warm: all hits
        assert len(digests) == 1
        assert cache.stats.misses == len(TEXTS)
        assert cache.stats.hits == len(TEXTS)

    def test_one_digest_per_model(self, model, rng, monkeypatch):
        digests = self.count_digests(monkeypatch)
        fresh = model.with_params(model.flat_params())
        cache = SemanticCache(fresh.text_fingerprint())
        images = [rng.random((8, 8, 3)) for _ in range(3)]
        for img in images:
            classify_image(fresh, img, TEXTS, cache=cache)
        for text in TEXTS * 2:
            get_or_encode(text, fresh, cache)
        for _ in range(2):
            bench_cache(fresh, TEXTS, images)
        assert len(digests) == 1
        other = model.with_params(model.flat_params())
        assert other.text_fingerprint() == fresh.text_fingerprint()
        assert len(digests) == 2

    def test_train_never_digests(self, rng, monkeypatch):
        digests = self.count_digests(monkeypatch)
        pairs = [(rng.random((8, 8, 3)), TEXTS[k % len(TEXTS)]) for k in range(8)]
        train(pairs, replace(CONFIG, batch_size=4, epochs=2))
        assert digests == []

    def test_stale_cache_raises_and_encodes_nothing(self, model, rng, monkeypatch):
        texts_encoded = self.count_calls(monkeypatch, "embed_texts")
        images_encoded = self.count_calls(monkeypatch, "embed_images")
        stale = SemanticCache(model.text_fingerprint() ^ 0xDEAD)
        with pytest.raises(StaleCacheError):
            classify_image(model, rng.random((8, 8, 3)), TEXTS, cache=stale)
        assert texts_encoded == [] and images_encoded == []
        assert len(stale) == 0
        assert stale.stats.lookups == 0


class TestBench:
    def test_empty_inputs_rejected(self, model):
        with pytest.raises(ContractError):
            bench_cache(model, [], [np.zeros((8, 8, 3))])
        with pytest.raises(ContractError):
            bench_cache(model, TEXTS, [])

    def test_single_text_single_image_cold_ratio_zero(self, model, rng):
        report = bench_cache(model, TEXTS[:1], [rng.random((8, 8, 3))], repeats=1)
        assert report["cold_hit_ratio"] == 0.0
        assert report["warm_hit_ratio"] == 1.0

    def test_report_schema_and_speedup(self, model, rng):
        images = [rng.random((8, 8, 3)) for _ in range(4)]
        report = bench_cache(model, TEXTS, images, repeats=1)
        assert {"cold_ips", "warm_ips", "speedup", "hits", "misses"} <= set(report)
        assert report["warm_hit_ratio"] == 1.0
        assert report["speedup"] > 1.0
