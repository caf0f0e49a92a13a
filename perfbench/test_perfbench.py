"""Tests of the benchmark's own pieces: seeded generators, the tracer's
self-time arithmetic and patch restoration, the eval oracle, host-speed
scaling, and the agreement of BENCHMARK.json with the metrics the code
reports."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tsrmcl import contrastive, metrics, tokenizer
from tsrmcl.boxes import BBox
from tsrmcl.metrics import Detection, GroundTruth, map_suite

import layers
import oracle
import run
import tracer as tr
import workloads

ROOT = Path(__file__).resolve().parent.parent


# -- generators -----------------------------------------------------------------


def test_eval_inputs_deterministic_per_seed_and_differ_across_seeds():
    a = workloads.eval_inputs(3, 30)
    assert a == workloads.eval_inputs(3, 30)
    assert a != workloads.eval_inputs(4, 30)
    gt_doc, preds = a
    assert len(gt_doc["imgs"]) == 30
    assert all(1 <= len(e["objects"]) <= 5 for e in gt_doc["imgs"].values())
    assert all(p["bbox"][2] > p["bbox"][0] and p["bbox"][3] > p["bbox"][1] for p in preds)


def test_churn_requests_deterministic_per_seed_and_differ_across_seeds():
    pool = [f"text {i}" for i in range(100)]
    a = workloads.churn_requests(3, pool, 40, 8, 1.0)
    assert a == workloads.churn_requests(3, pool, 40, 8, 1.0)
    assert a != workloads.churn_requests(4, pool, 40, 8, 1.0)
    assert all(len(set(r)) == 8 for r in a)


def test_longtail8_split_deterministic_per_seed_and_differs_across_seeds():
    train_a, test_a = workloads.longtail8_split(3)
    train_b, test_b = workloads.longtail8_split(3)
    train_c, _ = workloads.longtail8_split(4)
    assert len(train_a) == 233 and len(test_a) == 117
    assert [t for _, t in train_a] == [t for _, t in train_b]
    assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(train_a, train_b))
    assert all(np.array_equal(x, y) for x, y in zip(test_a, test_b))
    assert not all(np.array_equal(x, y) for (x, _), (y, _) in zip(train_a, train_c))


# -- tracer -----------------------------------------------------------------------


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 2.0, 3.0, 1],
        ["b", 5.0, 6.5, 0],
        ["other-root", 20.0, 21.0, -1],
    ]
    assert tr.self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5, 1.0]
    assert tr.roots_of(spans) == [0, 0, 0, 0, 4]
    assert tr.children_of(spans) == {0: [1, 3], 1: [2]}


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    inner = t.timed("inner", lambda x: x + 1)
    outer = t.timed("outer", lambda x: inner(x) * 2)
    with t.span("op"):
        assert outer(1) == 4
        t.count("things", 3)
    assert t.spans == [["op", 0.0, 5.0, -1], ["outer", 1.0, 4.0, 0], ["inner", 2.0, 3.0, 1]]
    assert tr.self_times(t.spans) == [2.0, 2.0, 1.0]
    assert t.counts[("op", "things")] == 3


def _targets():
    """(holder, attribute) -> object for every reference to every target."""
    found = {}
    for owner, attr, _ in layers.TIMED + layers.COUNTED:
        if isinstance(owner, type):
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for name, mod in list(sys.modules.items()):
            if name == "tsrmcl" or name.startswith("tsrmcl."):
                for key, value in vars(mod).items():
                    if value is original:
                        found[(mod, key)] = original
    return found


def test_tracer_wraps_and_restores_every_target():
    before = _targets()
    assert len(before) > len(layers.TIMED) + len(layers.COUNTED)  # re-exports too
    t = tr.Tracer()
    layers.install(t)
    try:
        for (holder, key), original in before.items():
            current = holder.__dict__[key] if isinstance(holder, type) else getattr(holder, key)
            assert current is not original, key
        vocab = tokenizer.build_vocab(["a red sign", "a blue sign"])
        with t.span("op"):
            contrastive.tokenize("a red sign", vocab)
            metrics.ap50({"i": [Detection(BBox(0, 0, 4, 4), "a", 0.9)]},
                         {"i": [GroundTruth(BBox(0, 0, 4, 4), "a")]}, "a")
    finally:
        t.restore()
    for (holder, key), original in before.items():
        current = holder.__dict__[key] if isinstance(holder, type) else getattr(holder, key)
        assert current is original, key
    names = [s[0] for s in t.spans]
    assert names == ["tokenizer.build_vocab", "op", "tokenizer.tokenize", "metrics.ap_at"]
    assert t.spans[2][3] == 1 and t.spans[3][3] == 1
    assert t.counts[("op", "boxes.iou")] == 1


def test_train_steps_and_per_layer_from_hand_spans():
    t = tr.Tracer()
    t.spans = [
        ["op", 0.0, 10.0, -1],
        ["contrastive.train", 0.0, 10.0, 0],
        ["tokenizer.build_vocab", 0.0, 1.0, 1],
        ["encoders.encode_images", 2.0, 3.0, 1],
        ["tensor.backward", 3.0, 4.0, 1],
        ["tensor.adam_step", 4.0, 4.5, 1],
        ["contrastive.with_params", 4.5, 5.0, 1],
        ["encoders.encode_images", 5.0, 6.0, 1],
        ["tensor.backward", 6.0, 8.0, 1],
        ["tensor.adam_step", 8.0, 8.5, 1],
        ["contrastive.with_params", 8.5, 9.0, 1],
    ]
    assert layers.train_steps(t.spans) == [3.0, 4.0]
    values = layers.per_layer(t, "step", None, 0, 0.05)
    assert list(values) == list(layers.PER_LAYER)
    assert values["contrastive.step_ms_p50"] == 3500.0
    assert values["tensor.backward_ms"] == 1500.0
    assert values["tokenizer.build_vocab_ms"] == 1000.0
    assert values["cache.hit_ratio"] == 0.0
    assert values["trace.overhead_share"] == 0.05


# -- eval oracle ------------------------------------------------------------------


def _det(x0, y0, x1, y1, cat, conf):
    return Detection(BBox(x0, y0, x1, y1), cat, conf)


def _gt(x0, y0, x1, y1, cat):
    return GroundTruth(BBox(x0, y0, x1, y1), cat)


def test_oracle_agrees_with_map_suite_on_hand_case():
    dets = {
        "1": [_det(0, 0, 10, 10, "a", 0.9), _det(1, 1, 11, 11, "a", 0.9),  # tie, duplicate
              _det(20, 20, 30, 30, "b", 0.5)],  # right place, wrong class
        "2": [_det(0, 0, 8, 10, "b", 0.7), _det(50, 50, 60, 60, "a", 0.1)],
        "3": [_det(0, 0, 5, 5, "c", 0.3)],  # image without ground truth
    }
    gts = {
        "1": [_gt(0, 0, 10, 10, "a"), _gt(20, 20, 30, 30, "a")],
        "2": [_gt(0, 0, 10, 10, "b")],
    }
    expected = oracle.oracle_report(dets, gts)
    assert oracle.agrees(map_suite(dets, gts), expected)
    # "a": 3 detections, 2 gts, one TP at rank 1 -> 6/11 at every threshold;
    # "b": IoU 0.8 matches up to 0.80 and misses from 0.85
    assert expected["per_category"]["a"][0.50] == 6 / 11
    assert expected["per_category"]["b"][0.80] == 1.0
    assert expected["per_category"]["b"][0.85] == 0.0
    assert (expected["tp"], expected["fp"], expected["fn"]) == (2, 4, 1)

    wrong = map_suite(dets, gts)
    wrong.map50 = np.nextafter(wrong.map50, 1.0)
    assert not oracle.agrees(wrong, expected)


def test_oracle_agrees_with_map_suite_on_generated_scenes():
    gt_doc, preds = workloads.eval_inputs(5, 40)
    gts = {k: [_gt(o["bbox"]["xmin"], o["bbox"]["ymin"], o["bbox"]["xmax"], o["bbox"]["ymax"],
                   o["category"]) for o in e["objects"]] for k, e in gt_doc["imgs"].items()}
    dets = {}
    for p in preds:
        dets.setdefault(p["image_id"], []).append(_det(*p["bbox"], p["category"], p["confidence"]))
    assert oracle.agrees(map_suite(dets, gts), oracle.oracle_report(dets, gts))


# -- host-speed scaling -------------------------------------------------------------


def test_host_speed_scales_by_the_mean_of_the_bracketing_probes():
    speed = run.HostSpeed(np)
    ref = speed.REFERENCE_S
    assert speed.scale(0.3, ref, ref) == pytest.approx(0.3)
    assert speed.scale(0.3, 2 * ref, 2 * ref) == pytest.approx(0.15)
    assert speed.scale(0.3, ref, 3 * ref) == pytest.approx(0.15)
    assert speed.probe() > 0.0


# -- BENCHMARK.json -----------------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("argv", [["--workload", "nope", "--seed", "1", "--seconds", "1"],
                                  ["--workload", "eval", "--seed", "1", "--seconds", "0"]])
def test_bad_arguments_exit_nonzero(argv, capsys):
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
