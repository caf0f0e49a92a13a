"""Semantic cache: memoized text embeddings keyed by normalized text.

All entries belong to the cache's one text-encoder fingerprint (a hash
over the text config, every text-encoder tensor, the text projection and
the vocab), fixed when the cache is made; a new model needs a new cache.
A model is a value, so its fingerprint is computed once per model and
kept; it is checked against the cache's once per call, and a hit then
costs one ``normalize`` plus one dict lookup.

``get_or_encode_many`` looks every text up first, then encodes the
distinct missing keys in one ``embed_texts`` call. That is exact because
``embed_texts`` is batch invariant: a row is bit-identical whatever else
its batch holds. So the cache is semantically transparent: any sequence
of operations produces bit-identical outputs with it on or off. Readers
run concurrently; misses encode outside the lock and publish once, so
duplicate concurrent misses converge to a single stored value.

A one-slot class bank sits beside the per-text store: the exact text
tuple of the last class list ``class_bank`` served, with its read-only
(K, d) matrix. The same tuple again costs one comparison and counts K
hits; another tuple is built by one ``get_or_encode_many`` call and
replaces the slot; ``clear`` drops it. The bank's bytes are outside
``max_entries`` and ``stats.bytes_resident``, and a hit does not refresh
the per-text LRU order. Its rows are ``get_or_encode_many``'s, so the
cache stays transparent.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, StaleCacheError
from .tokenizer import normalize

__all__ = ["CacheStats", "SemanticCache", "get_or_encode", "get_or_encode_many", "class_bank",
           "bench_cache"]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_resident: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class SemanticCache:
    """Embeddings keyed by ``normalize(text)``, all of one fixed fingerprint.
    Unbounded unless ``max_entries`` sets an LRU bound. The class bank,
    one (tuple, K x d matrix) slot, is outside that bound and outside
    ``stats.bytes_resident``; a new tuple replaces it, a hit counts K hits,
    and ``clear`` drops it. It needs no fingerprint of its own, because the
    cache's is fixed for its life."""

    def __init__(self, fingerprint: int, max_entries: int | None = None):
        self._fingerprint = int(fingerprint)
        self.max_entries = max_entries
        self._entries: OrderedDict[str, np.ndarray] = OrderedDict()
        self._bank: tuple[tuple, np.ndarray] | None = None
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def fingerprint(self) -> int:
        """The fingerprint every entry belongs to, fixed for the cache's life."""
        return self._fingerprint

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bank = None
            self.stats.bytes_resident = 0

    def _get(self, key: str) -> np.ndarray | None:
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            if self.max_entries is not None:
                self._entries.move_to_end(key)
            return hit

    def _put(self, key: str, value: np.ndarray) -> np.ndarray:
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = value
            self.stats.bytes_resident += value.nbytes
            if self.max_entries is not None and len(self._entries) > self.max_entries:
                _, dropped = self._entries.popitem(last=False)
                self.stats.evictions += 1
                self.stats.bytes_resident -= dropped.nbytes
            return value

    def _bank_get(self, texts: tuple) -> np.ndarray | None:
        with self._lock:
            if self._bank is None or self._bank[0] != texts:
                return None
            self.stats.hits += len(texts)
            return self._bank[1]

    def _bank_put(self, texts: tuple, rows: np.ndarray) -> None:
        with self._lock:
            self._bank = (texts, rows)


def _check_fingerprint(model, cache: SemanticCache) -> None:
    fp = model.text_fingerprint()
    if fp != cache.fingerprint:
        raise StaleCacheError(
            f"cache fingerprint {cache.fingerprint:#x} does not match encoder {fp:#x}"
        )


def get_or_encode_many(texts, model, cache: SemanticCache) -> np.ndarray:
    """Return the (K, d) embeddings of ``texts``, in order, encoding on
    first touch.

    The model's text fingerprint, computed once per model, is checked
    against the cache's first; a mismatch means the cache is stale
    (``SemanticCache(model.text_fingerprint())`` replaces it) and raises
    ``StaleCacheError`` before anything is looked up or encoded. Each text
    is then one lookup (a hit costs one ``normalize`` plus one dict
    lookup), and each distinct missing key is encoded once, all in one
    ``model.embed_texts`` call made outside the lock. An empty ``texts``
    raises ContractError.
    """
    texts = list(texts)
    if not texts:
        raise ContractError("get_or_encode_many needs at least one text")
    _check_fingerprint(model, cache)
    keys = [normalize(t) for t in texts]
    rows = [cache._get(key) for key in keys]
    missing = {key: text for key, text, row in zip(keys, texts, rows) if row is None}
    if missing:
        stored = {}
        for key, value in zip(missing, model.embed_texts(missing.values())):
            value = value.copy()  # own its bytes: a view would pin the whole batch
            value.flags.writeable = False
            stored[key] = cache._put(key, value)
        rows = [stored[key] if row is None else row for key, row in zip(keys, rows)]
    return np.stack(rows)


def get_or_encode(text: str, model, cache: SemanticCache) -> np.ndarray:
    """The embedding of one text: the one-row case of ``get_or_encode_many``."""
    return get_or_encode_many([text], model, cache)[0]


def class_bank(texts, model, cache: SemanticCache) -> np.ndarray:
    """The read-only (K, d) rows of ``texts``, through the class bank.

    The fingerprint is checked first, so a stale cache raises
    ``StaleCacheError`` before the bank is read. A ``tuple(texts)`` equal
    to the bank's returns its matrix as K hits; any other is built by one
    ``get_or_encode_many`` call, frozen, and replaces the bank. The bank
    keeps its own tuple, so a list edited after a call misses.
    """
    texts = tuple(texts)
    _check_fingerprint(model, cache)
    rows = cache._bank_get(texts)
    if rows is None:
        rows = get_or_encode_many(texts, model, cache)
        rows.flags.writeable = False
        cache._bank_put(texts, rows)
    return rows


def bench_cache(model, texts, images, repeats: int = 1) -> dict:
    """Cold/warm classification throughput with and without cache reuse.

    The cold pass clears the cache before every image, so every class
    text is re-encoded each time (hit ratio 0). The warm pass is timed
    after one priming sweep populated the cache and its class bank (hit
    ratio 1). Returns the report dict {cold_ips, warm_ips, speedup, hits,
    misses, ...}.
    """
    from .contrastive import classify_image

    texts = list(texts)
    images = list(images)
    if not texts or not images or repeats < 1:
        raise ContractError("bench_cache needs non-empty texts, images, and repeats >= 1")

    fp = model.text_fingerprint()

    cold_cache = SemanticCache(fp)
    t0 = time.perf_counter()
    for _ in range(repeats):
        for img in images:
            cold_cache.clear()
            classify_image(model, img, texts, cache=cold_cache)
    cold_elapsed = time.perf_counter() - t0
    cold_stats = cold_cache.stats

    warm_cache = SemanticCache(fp)
    class_bank(texts, model, warm_cache)  # priming sweep
    prime_misses = warm_cache.stats.misses
    t0 = time.perf_counter()
    for _ in range(repeats):
        for img in images:
            classify_image(model, img, texts, cache=warm_cache)
    warm_elapsed = time.perf_counter() - t0
    warm_stats = warm_cache.stats

    n = len(images) * repeats
    cold_ips = n / cold_elapsed if cold_elapsed > 0 else float("inf")
    warm_ips = n / warm_elapsed if warm_elapsed > 0 else float("inf")
    return {
        "cold_ips": cold_ips,
        "warm_ips": warm_ips,
        "speedup": warm_ips / cold_ips if cold_ips > 0 else float("inf"),
        "hits": cold_stats.hits + warm_stats.hits,
        "misses": cold_stats.misses + warm_stats.misses,
        "cold_hit_ratio": cold_stats.hit_ratio,
        "warm_hit_ratio": (warm_stats.hits / (warm_stats.lookups - prime_misses))
        if warm_stats.lookups > prime_misses else 0.0,
        "texts": len(texts),
        "images": len(images),
        "repeats": repeats,
    }
