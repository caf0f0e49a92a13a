"""Acceptance gate: every criterion at its stated tolerance.

Each test carries an ``acceptance`` marker; the terminal summary prints
one PASS/FAIL line per criterion. The heavy end-to-end criteria reuse
the CLI surfaces so what is verified here is exactly what ships.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from tsrmcl.boxes import BBox, inner_wiou_t, iou
from tsrmcl.cache import SemanticCache, bench_cache
from tsrmcl.cli import run, sample_category_codes
from tsrmcl.contrastive import (
    Temperature,
    TrainConfig,
    classify_image,
    contrastive_loss,
    init_model,
    similarity,
)
from tsrmcl.dataset import PairRecord, generate_description, stratified_split
from tsrmcl.encoders import encode_images, encode_texts, project_to_shared
from tsrmcl.tensor import Tensor
from tsrmcl.tokenizer import KnowledgeBase, build_vocab, detokenize, normalize, tokenize
from tsrmcl.vision import info_loss, spd_inverse, spd_rearrange

from conftest import assert_gradients_close
from test_boxes import random_int_box, raster_iou
from test_dataset import make_pairs, paper_scale_counts
from test_metrics import brute_report, random_scenes
from test_tokenizer import assert_spans_never_split, fuzz_descriptions


def elapsed_under(t0, budget, what):
    took = time.perf_counter() - t0
    assert took < budget, f"{what} took {took:.1f}s, over the {budget}s budget"


@pytest.mark.acceptance("split arithmetic: 24,715 -> exactly 16,477 / 8,238")
def test_split_arithmetic_paper_scale():
    t0 = time.perf_counter()
    counts = paper_scale_counts()
    assert sum(counts.values()) == 24715
    assert len(counts) == 221
    manifest, _ = stratified_split(make_pairs(counts), ratio=(2, 1), seed=0)
    assert manifest.train_total == 16477
    assert manifest.test_total == 8238
    elapsed_under(t0, 1.0, "split")


@pytest.mark.acceptance("metric oracle equivalence: brute force exact on 100 scenes + hand AP50 cases")
def test_metric_oracle_equivalence():
    from tsrmcl.metrics import Detection, GroundTruth, ap50, map_suite

    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    dets_by, gts_by = random_scenes(rng, 100, max_boxes=20)
    report = map_suite(dets_by, gts_by)
    ap, map50, map5095 = brute_report(dets_by, gts_by)
    assert report.map50 == map50
    assert report.map50_95 == map5095
    for cat, thrs in report.per_category.items():
        for thr, val in thrs.items():
            assert val == ap[cat][thr], (cat, thr)

    def det(x0, y0, x1, y1, conf):
        return Detection(BBox(x0, y0, x1, y1), "a", conf)

    def gt(x0, y0, x1, y1):
        return GroundTruth(BBox(x0, y0, x1, y1), "a")

    # (1) single perfect match -> 1.0
    assert abs(ap50({"i": [det(0, 0, 10, 10, 0.9)]}, {"i": [gt(0, 0, 10, 10)]}, "a") - 1.0) <= 1e-12
    # (2) TP then lower-confidence FP, one gt -> still 1.0
    case2 = ap50(
        {"i": [det(0, 0, 10, 10, 0.9), det(40, 40, 50, 50, 0.2)]},
        {"i": [gt(0, 0, 10, 10)]}, "a",
    )
    assert abs(case2 - 1.0) <= 1e-12
    # (3) two gts, one TP -> 6/11
    case3 = ap50({"i": [det(0, 0, 10, 10, 0.9)]},
                 {"i": [gt(0, 0, 10, 10), gt(30, 30, 40, 40)]}, "a")
    assert abs(case3 - 6 / 11) <= 1e-12
    elapsed_under(t0, 10.0, "metric oracle equivalence")


def _flatten(params):
    names = sorted(params)
    vec = np.concatenate([params[n].data.reshape(-1) for n in names])
    shapes = [(n, params[n].shape) for n in names]
    return vec, shapes


def _unflatten(vec, shapes):
    out = {}
    pos = 0
    for name, shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        out[name] = Tensor(vec[pos:pos + size].reshape(shape), requires_grad=True)
        pos += size
    return out


def _gradient_suite_case(seed):
    """Full pipeline loss for B=4, d=16, 2-layer encoders, parameterized
    by the flattened parameter vector. Returns (vec0, build) where
    build(vec) -> (scalar loss tensor, named parameter tensors)."""
    kb = KnowledgeBase.load()
    texts = [generate_description(c, kb) for c in ("pl40", "i5", "w57", "ph2.5")]
    vocab = build_vocab(texts, target_size=512)
    config = TrainConfig(seed=seed, width=16, image_side=8, patch=4,
                         vit_layers=2, text_layers=2, heads=2)
    model = init_model(config, vocab)
    rng = np.random.default_rng(seed + 1000)
    images = Tensor(rng.random((4, 8, 8, 3)))
    seqs = [tokenize(t, vocab) for t in texts]
    vec0, shapes = _flatten(model.flat_params())

    def build(vec):
        params = _unflatten(vec, shapes)
        m = model.with_params(params)
        fv = project_to_shared(encode_images(images, m.vit), m.proj_v)
        ft = project_to_shared(encode_texts(seqs, m.text), m.proj_t)
        return contrastive_loss(similarity(fv, ft), m.temperature), params

    return vec0, shapes, build


@pytest.mark.acceptance("gradient suite: end-to-end FD check, 10 seeds, rel err <= 1e-4")
def test_gradient_suite_end_to_end():
    t0 = time.perf_counter()
    h = 1e-5
    rng = np.random.default_rng(99)
    for seed in range(10):
        vec0, shapes, build = _gradient_suite_case(seed)
        loss, params = build(vec0)
        loss.backward()
        grad_vec = np.concatenate([
            (params[n].grad if params[n].grad is not None
             else np.zeros(params[n].shape)).reshape(-1)
            for n, _ in shapes
        ])

        def loss_at(vec):
            return float(build(vec)[0].data)

        # directional derivative along a random unit direction checks the
        # whole gradient vector at once
        direction = rng.normal(size=vec0.size)
        direction /= np.linalg.norm(direction)
        numeric_dir = (loss_at(vec0 + h * direction) - loss_at(vec0 - h * direction)) / (2 * h)
        assert_gradients_close(np.array(grad_vec @ direction), np.array(numeric_dir))

        # plus individual coordinates sampled across the parameter vector
        for c in rng.choice(vec0.size, size=6, replace=False):
            vp = vec0.copy()
            vm = vec0.copy()
            vp[c] += h
            vm[c] -= h
            numeric_c = (loss_at(vp) - loss_at(vm)) / (2 * h)
            assert_gradients_close(np.array(grad_vec[c]), np.array(numeric_c))
    elapsed_under(t0, 60.0, "gradient suite")


@pytest.mark.acceptance("closed-form losses: B=1 exact zero; B=2 identity log(1+e^-1)")
def test_closed_form_loss_values():
    temp = Temperature(Tensor(0.0, requires_grad=True))  # tau = exp(0) = 1
    b1 = contrastive_loss(Tensor([[0.7]]), temp)
    assert float(b1.data) == 0.0
    b2 = contrastive_loss(Tensor(np.eye(2)), temp)
    assert abs(float(b2.data) - math.log(1 + math.exp(-1))) <= 1e-9


@pytest.mark.acceptance("SPD properties: 100 exact round trips; info-loss contract; hand case")
def test_spd_properties():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = int(rng.integers(1, 5))
        h = s * int(rng.integers(1, 6))
        w = s * int(rng.integers(1, 6))
        c = int(rng.integers(1, 4))
        x = rng.normal(size=(h, w, c))
        back = spd_inverse(spd_rearrange(Tensor(x), s), s)
        assert np.array_equal(back.data, x)
    assert info_loss(Tensor(rng.normal(size=(6, 6, 2))), 1) == 0.0
    assert info_loss(Tensor(rng.normal(size=(8, 8, 3))), 2) > 0.0
    hand = Tensor(np.array([[0.0, 5.0], [0.0, 0.0]]).reshape(2, 2, 1))
    assert info_loss(hand, 2) == 5.0


@pytest.mark.acceptance("IoU family: rasterization oracle <= 1e-9 on 1,000 boxes; zero self-loss")
def test_iou_family():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        a, b = random_int_box(rng), random_int_box(rng)
        assert abs(iou(a, b) - raster_iou(a, b)) <= 1e-9
    for r in (0.1, 0.25, 0.5, 0.75, 1.0):
        box = BBox(3, 4, 17, 11)
        assert float(inner_wiou_t(box, box, ratio=r).data) == 0.0


@pytest.mark.acceptance("tokenizer: 10,000 fuzzed descriptions, zero span splits; exact round trips; '40' one token")
def test_tokenizer_protection_and_round_trip():
    kb = KnowledgeBase.load()
    corpus_codes = ["pl40", "pl80", "pl120", "ph2.5", "pm55", "pw3.25", "il60",
                    "i1", "i2", "i4", "i5", "ip", "pn", "pne", "ps",
                    "p5", "p10", "p23", "w13", "w32", "w55", "w57"]
    corpus = [generate_description(c, kb) for c in corpus_codes]
    vocab = build_vocab(corpus + fuzz_descriptions(300, seed=11), target_size=2048)

    for text in fuzz_descriptions(10_000, seed=12):
        assert_spans_never_split(text, vocab)

    for text in corpus:
        seq = tokenize(text, vocab)
        assert detokenize(seq, vocab) == normalize(text)

    seq = tokenize("speed limit 40 km/h", vocab)
    surfaces = [vocab.tokens[i] for i in seq.ids]
    assert surfaces.count("40") == 1
    assert seq.protected_spans == ((12, 14, "40"),)


@pytest.fixture(scope="module")
def ablation_rows(tmp_path_factory):
    """One 200-epoch ladder run at the acceptance settings (seed 7,
    lr 3e-4, batch 32, longtail8); rows reused by two criteria."""
    out = tmp_path_factory.mktemp("ablate")
    t0 = time.perf_counter()
    code = run(["ablate", "--out", str(out), "--seed", "7", "--epochs", "200",
                "--batch-size", "32", "--lr", "3e-4"])
    took = time.perf_counter() - t0
    assert code == 0
    rows = json.loads((out / "ablation.json").read_text())
    return rows, took


@pytest.mark.acceptance("end-to-end learning: loss decreases; head >= 90%, tail above chance; ablation monotone")
def test_end_to_end_learning(ablation_rows):
    rows, took = ablation_rows
    by_name = {r["row"]: r for r in rows}
    main = by_name["rule tokenizer on"]

    # (a) final mean loss below first-epoch mean loss
    assert main["final_loss"] < main["first_loss"]

    # (b) held-out accuracy: head categories (100 instances) >= 90%,
    # tail categories (5 instances) strictly above the 1/8 chance rate
    head = ["pl40", "i5"]
    tail = ["ps", "ip"]
    head_acc = np.mean([main["per_category"][c] for c in head])
    tail_acc = np.mean([main["per_category"][c] for c in tail])
    assert head_acc >= 0.90, f"head accuracy {head_acc}"
    assert tail_acc > 1 / 8, f"tail accuracy {tail_acc}"

    # (c) ladder monotone on accuracy: text labels >= serial labels,
    # rule tokenizer >= plain BPE
    assert (by_name["text-label classifier (plain BPE)"]["accuracy"]
            >= by_name["serial-label baseline"]["accuracy"])
    assert (by_name["rule tokenizer on"]["accuracy"]
            >= by_name["text-label classifier (plain BPE)"]["accuracy"])
    # cache adds throughput, never accuracy change
    assert by_name["semantic cache on"]["accuracy"] == by_name["rule tokenizer on"]["accuracy"]
    assert by_name["semantic cache on"]["fps"] > by_name["rule tokenizer on"]["fps"]

    assert took < 15 * 60, f"end-to-end ladder took {took:.0f}s"


@pytest.fixture(scope="module")
def seeded_model():
    kb = KnowledgeBase.load()
    texts = [generate_description(c, kb) for c in sample_category_codes(221)]
    config = TrainConfig(seed=5)
    vocab = build_vocab(texts, target_size=2048)
    return init_model(config, vocab), texts


@pytest.mark.acceptance("cache: bit-exact transparency 50x100; warm >= 5x cold on 221 texts")
def test_cache_transparency_and_speedup(seeded_model):
    t0 = time.perf_counter()
    model, texts = seeded_model
    rng = np.random.default_rng(8)
    side = model.vit.config.image_side

    fifty = texts[:50]
    images = [rng.random((side, side, 3)) for _ in range(100)]
    cache = SemanticCache(model.text_fingerprint())
    for img in images:
        off = classify_image(model, img, fifty, cache=None)
        on = classify_image(model, img, fifty, cache=cache)
        assert np.array_equal(off, on), "cache changed classifier output"

    report = bench_cache(model, texts, images[:40], repeats=1)
    assert report["warm_hit_ratio"] == 1.0
    assert report["speedup"] >= 5.0, f"speedup {report['speedup']:.2f}"
    elapsed_under(t0, 120.0, "cache criterion")


@pytest.mark.acceptance("TT100K small-target share 37.8% +/- 0.5 (optional, needs annotations)")
def test_tt100k_small_target_share():
    path = os.environ.get("TT100K_ANNOTATIONS")
    if not path:
        pytest.skip("set TT100K_ANNOTATIONS to the TT100K annotation JSON to run")
    from tsrmcl.dataset import dataset_stats, load_annotations

    stats = dataset_stats([], load_annotations(path))
    share = stats["small_target"]["share"]
    assert abs(share - 0.378) <= 0.005, f"small-target share {share:.4f}"
