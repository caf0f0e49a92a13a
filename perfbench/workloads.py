"""The benchmark's four workloads: seeded inputs and one operation each.

Every workload builds its inputs from the seed alone and then drives the
public ``tsrmcl`` API, one operation at a time, from one thread:

- ``train``: one op is one ``contrastive.train`` call on the in-memory
  longtail8 split (233 pairs, B=32) for ``TRAIN_EPOCHS`` epochs.
- ``classify-warm``: one op is one ``classify_image`` call on a test crop
  against the 221 class texts, through a cache primed during set-up.
- ``classify-churn``: one op is one ``classify_image`` call against its
  own Zipf-drawn candidate list, through an LRU cache smaller than the
  text pool.
- ``eval``: one op is one in-process ``tsrmcl eval`` run on a TT100K-shaped
  predictions/ground-truth pair written during set-up.

The runner first makes ``warmup_ops`` untimed calls, so lazy set-up and
first-touch costs stay out of the timings. It times ``call``; ``verify``
and ``final_checks`` are untimed and return which ops failed a
correctness check.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
from collections import OrderedDict
from contextlib import redirect_stdout

import numpy as np

from tsrmcl import cache, cli, contrastive, dataset, metrics, tokenizer

import oracle
from tracer import percentile

IMAGE_SIDE = 32
TRAIN_EPOCHS = 4
WARM_CLASSES = 221
CHURN_POOL_CODES = 1000
CHURN_LIST = 32
CHURN_CACHE = 256
CHURN_ZIPF = 1.0
CHURN_REQUESTS = 4096
CHURN_WARMUP = 16
EVAL_IMAGES = 150
EVAL_CATEGORIES = 221
EVAL_ZIPF = 1.1
EVAL_SCENE = 2048.0
EVAL_ORACLE_IMAGES = 60
PROB_SUM_TOL = 1e-12


def zipf_weights(n: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def longtail8_split(seed: int):
    """(train pairs, test crops) of the synthetic longtail8 set, in memory."""
    spec = dataset.SyntheticSignSpec(categories=OrderedDict(dataset.LONGTAIL8), seed=seed)
    scenes, annotations, _ = dataset.synth_dataset(spec)
    crops = dataset.crop_signs(annotations, images=scenes)
    kb = tokenizer.KnowledgeBase.load()
    records, arrays = [], []
    for crop, category, image_id, k in crops:
        records.append(dataset.PairRecord(
            image=f"{image_id}_{k}", category=category,
            text=dataset.generate_description(category, kb),
        ))
        arrays.append(dataset.resize_nearest(crop, IMAGE_SIDE).astype(np.float64) / 255.0)
    _, tagged = dataset.stratified_split(records, seed=seed)
    train = [(arrays[i], p.text) for i, p in enumerate(tagged) if p.split == "train"]
    test = [arrays[i] for i, p in enumerate(tagged) if p.split == "test"]
    return train, test


def class_texts(n_codes: int) -> list[str]:
    kb = tokenizer.KnowledgeBase.load()
    return [dataset.generate_description(c, kb) for c in cli.sample_category_codes(n_codes)]


def churn_requests(seed: int, pool: list[str], n_requests: int, size: int, s: float):
    """Candidate lists of ``size`` distinct texts, Zipf-skewed over a
    seed-shuffled popularity ranking of ``pool``."""
    rng = np.random.default_rng(seed)
    ranked = [pool[i] for i in rng.permutation(len(pool))]
    p = zipf_weights(len(ranked), s)
    return [[ranked[i] for i in rng.choice(len(ranked), size=size, replace=False, p=p)]
            for _ in range(n_requests)]


def eval_inputs(seed: int, n_images: int, n_categories: int = EVAL_CATEGORIES):
    """(ground-truth doc, prediction rows) shaped like a TT100K test set.

    Images hold 1-5 signs each (every count equally often) on a 2048-px
    scene; 85% of signs are detected with box jitter (10% of those with
    a wrong class), and images carry 0-3 low-confidence false positives
    (every count equally often). Category instance counts follow a fixed
    Zipf profile over the codes; the seed decides which code takes which
    rank and where everything lands. Fixing the counts keeps the cost of
    a report, which grows with categories x detections, the same across
    seeds.
    """
    rng = np.random.default_rng(seed)
    codes = cli.sample_category_codes(n_categories)
    ranked = [codes[i] for i in rng.permutation(len(codes))]
    p = zipf_weights(len(ranked), EVAL_ZIPF)
    signs = rng.permutation([1 + i % 5 for i in range(n_images)])
    false_pos = rng.permutation([i % 4 for i in range(n_images)])
    counts = np.floor(p * int(signs.sum())).astype(int)
    counts[: int(signs.sum()) - int(counts.sum())] += 1  # top ranks take the remainder
    pool = [ranked[r] for r in rng.permutation(np.repeat(np.arange(len(ranked)), counts))]

    def category():
        return ranked[int(rng.choice(len(ranked), p=p))]

    def box(side, aspect, x0=None, y0=None):
        w, h = side, side * aspect
        x0 = float(rng.uniform(0.0, EVAL_SCENE - w)) if x0 is None else x0
        y0 = float(rng.uniform(0.0, EVAL_SCENE - h)) if y0 is None else y0
        return [round(x0, 2), round(y0, 2), round(x0 + w, 2), round(y0 + h, 2)]

    imgs, preds = {}, []
    for n in range(n_images):
        image_id = f"{10000 + n}"
        objects = []
        for _ in range(int(signs[n])):
            cat = pool.pop()
            x0, y0, x1, y1 = box(float(rng.uniform(8.0, 128.0)), float(rng.uniform(0.8, 1.25)))
            objects.append({"category": cat,
                            "bbox": {"xmin": x0, "ymin": y0, "xmax": x1, "ymax": y1}})
            if rng.random() < 0.85:
                w, h = x1 - x0, y1 - y0
                dx, dy = rng.normal(0.0, 0.08, size=2) * (w, h)
                sw, sh = np.exp(rng.normal(0.0, 0.08, size=2))
                det_cat = cat if rng.random() >= 0.10 else category()
                preds.append({
                    "image_id": image_id, "category": det_cat,
                    "bbox": box(w * sw, h * sh / (w * sw), x0 + dx, y0 + dy),
                    "confidence": round(float(rng.uniform(0.35, 1.0)), 4),
                })
        for _ in range(int(false_pos[n])):
            preds.append({
                "image_id": image_id, "category": category(),
                "bbox": box(float(rng.uniform(8.0, 96.0)), float(rng.uniform(0.8, 1.25))),
                "confidence": round(float(rng.uniform(0.01, 0.30)), 4),
            })
        imgs[image_id] = {"path": f"test/{image_id}.jpg", "objects": objects}
    return {"imgs": imgs}, preds


# -- workloads -----------------------------------------------------------------


class Train:
    name = "train"
    unit = "step"
    warmup_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.sizes = {"profile": "longtail8", "epochs": TRAIN_EPOCHS, "image_side": IMAGE_SIDE}

    def setup(self) -> None:
        self.pairs, _ = longtail8_split(self.seed)
        self.config = contrastive.TrainConfig(epochs=TRAIN_EPOCHS, seed=self.seed)
        self.sizes.update(pairs=len(self.pairs), batch_size=self.config.batch_size)
        self.losses: list[float] = []

    def items(self, k: int) -> int:
        return len(self.pairs) * self.config.epochs

    def call(self, k: int):
        return contrastive.train(self.pairs, self.config)

    def verify(self, k: int, out) -> bool:
        losses = [row[1] for row in out[1]]
        self.losses = losses
        return all(math.isfinite(x) for x in losses) and losses[-1] < losses[0]

    def final_checks(self, ops: range) -> set[int]:
        return set()

    def summary(self, lat, items: int, cache_delta) -> dict:
        return {"train_pairs_per_s": items / sum(lat),
                "train_loss": self.losses[-1] if self.losses else None}


class _Classify:
    unit = "request"
    warmup_ops = 8
    check_every: int  # every n-th request is re-run with the cache off

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.samples: list[tuple[int, np.ndarray]] = []

    def _build(self, texts) -> None:
        _, self.crops = longtail8_split(self.seed)
        config = contrastive.TrainConfig(seed=self.seed)
        vocab = tokenizer.build_vocab(texts, target_size=config.vocab_target)
        self.model = contrastive.init_model(config, vocab)
        self.sizes.update(crops=len(self.crops), vocab=len(vocab))

    def request(self, k: int):
        raise NotImplementedError

    def items(self, k: int) -> int:
        return 1

    def call(self, k: int):
        crop, texts = self.request(k)
        return contrastive.classify_image(self.model, crop, texts, self.cache)

    def verify(self, k: int, out) -> bool:
        if k % self.check_every == 0:
            self.samples.append((k, out))
        return bool(np.all(np.isfinite(out))) and abs(float(out.sum()) - 1.0) <= PROB_SUM_TOL

    def final_checks(self, ops: range) -> set[int]:
        """Cache transparency: the cache-off output is bit-identical."""
        failed = set()
        for k, probs in self.samples:
            crop, texts = self.request(k)
            plain = contrastive.classify_image(self.model, crop, texts, None)
            if plain.dtype != probs.dtype or plain.tobytes() != probs.tobytes():
                failed.add(k)
        return failed

    def summary(self, lat, items: int, cache_delta) -> dict:
        lookups = cache_delta["hits"] + cache_delta["misses"]
        return {
            "classify_images_per_s": items / sum(lat),
            "classify_ms_p50": 1000.0 * statistics.median(lat),
            "classify_ms_p90": 1000.0 * percentile(lat, 90),
            "cache_hit_ratio": cache_delta["hits"] / lookups if lookups else 0.0,
            "cache_checks": len(self.samples),
        }


class ClassifyWarm(_Classify):
    name = "classify-warm"
    check_every = 96

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.sizes = {"class_texts": WARM_CLASSES, "cache": "unbounded, primed"}

    def setup(self) -> None:
        self.texts = class_texts(WARM_CLASSES)
        self._build(self.texts)
        self.cache = cache.SemanticCache(self.model.text_fingerprint())
        for text in self.texts:
            cache.get_or_encode(text, self.model, self.cache)
        self.sizes["distinct_texts"] = len(set(self.texts))

    def request(self, k: int):
        return self.crops[k % len(self.crops)], self.texts


class ClassifyChurn(_Classify):
    name = "classify-churn"
    check_every = 16
    warmup_ops = CHURN_WARMUP

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.sizes = {"pool_codes": CHURN_POOL_CODES, "list_size": CHURN_LIST,
                      "cache_max_entries": CHURN_CACHE, "zipf_s": CHURN_ZIPF,
                      "request_lists": CHURN_REQUESTS, "warmup_requests": CHURN_WARMUP}

    def setup(self) -> None:
        pool = sorted(set(class_texts(CHURN_POOL_CODES)))
        self._build(pool)
        self.requests = churn_requests(self.seed, pool, CHURN_REQUESTS, CHURN_LIST, CHURN_ZIPF)
        self.cache = cache.SemanticCache(self.model.text_fingerprint(), max_entries=CHURN_CACHE)
        self.sizes["pool"] = len(pool)

    def request(self, k: int):
        return self.crops[k % len(self.crops)], self.requests[k % len(self.requests)]


class Eval:
    name = "eval"
    unit = "report"
    warmup_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.sizes = {"images": EVAL_IMAGES, "categories": EVAL_CATEGORIES,
                      "zipf_s": EVAL_ZIPF, "oracle_images": EVAL_ORACLE_IMAGES}
        self.first_report: bytes | None = None
        self.oracle_ok: bool | None = None

    def setup(self) -> None:
        gt_doc, preds = eval_inputs(self.seed, EVAL_IMAGES)
        os.makedirs(self.workdir, exist_ok=True)
        self.gt = os.path.join(self.workdir, "gt.json")
        self.pred = os.path.join(self.workdir, "pred.jsonl")
        self.out = os.path.join(self.workdir, "report")
        with open(self.gt, "w", encoding="utf-8") as fh:
            json.dump(gt_doc, fh)
        with open(self.pred, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in preds)
        self.sizes["detections"] = len(preds)
        self.sizes["ground_truths"] = sum(len(e["objects"]) for e in gt_doc["imgs"].values())

    def items(self, k: int) -> int:
        return EVAL_IMAGES

    def call(self, k: int):
        with redirect_stdout(io.StringIO()):
            return cli.run(["eval", "--pred", self.pred, "--gt", self.gt, "--out", self.out])

    def verify(self, k: int, out) -> bool:
        with open(os.path.join(self.out, "report.json"), "rb") as fh:
            report = fh.read()
        if self.first_report is None:
            self.first_report = report
        return out == 0 and report == self.first_report

    def final_checks(self, ops: range) -> set[int]:
        """``map_suite`` equals the brute-force oracle on a subset of images;
        if not, no report can be trusted and every op fails."""
        dets = metrics.load_predictions_jsonl(self.pred)
        gts = metrics.load_tt100k_ground_truth(self.gt)
        keep = sorted(gts)[:EVAL_ORACLE_IMAGES]
        sub_d = {k: dets[k] for k in keep if k in dets}
        sub_g = {k: gts[k] for k in keep}
        self.oracle_ok = oracle.agrees(metrics.map_suite(sub_d, sub_g),
                                       oracle.oracle_report(sub_d, sub_g))
        return set() if self.oracle_ok else set(ops)

    def summary(self, lat, items: int, cache_delta) -> dict:
        doc = json.loads(self.first_report) if self.first_report else {}
        return {"eval_report_s": statistics.median(lat), "oracle_agrees": self.oracle_ok,
                "mAP50:95": doc.get("mAP50:95"), "categories": len(doc.get("per_category", {}))}


WORKLOADS = {w.name: w for w in (Train, ClassifyWarm, ClassifyChurn, Eval)}
