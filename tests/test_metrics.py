"""Detection scoring against hand traces and an independent brute-force
evaluator (naive matching plus direct 11-point summation)."""

import re

import numpy as np
import pytest

from tsrmcl.boxes import BBox
from tsrmcl.errors import ContractError
from tsrmcl.metrics import (
    APReport,
    Detection,
    GroundTruth,
    IOU_THRESHOLDS,
    ap50,
    ap_at,
    load_predictions_jsonl,
    load_tt100k_ground_truth,
    map_suite,
    match_detections,
    precision_recall,
    strata_of,
)


# -- independent brute-force oracle -------------------------------------------


def brute_iou(a: BBox, b: BBox) -> float:
    xs = max(0.0, min(a.xmax, b.xmax) - max(a.xmin, b.xmin))
    ys = max(0.0, min(a.ymax, b.ymax) - max(a.ymin, b.ymin))
    inter = xs * ys
    if inter == 0.0:
        return 0.0
    return inter / (a.area + b.area - inter)


def brute_ap(dets_by_image, gts_by_image, category, thr):
    """Direct transcription of the protocol: global confidence sweep,
    greedy best-IoU matching, 11-point interpolated summation."""
    rows = []
    for rank, image_id in enumerate(sorted(dets_by_image)):
        for idx, det in enumerate(dets_by_image[image_id]):
            if det.category == category:
                rows.append((image_id, det, rank, idx))
    rows.sort(key=lambda r: (-r[1].confidence, r[2], r[3]))

    gts = {
        image_id: [g for g in gts_by_image.get(image_id, []) if g.category == category]
        for image_id in set(list(dets_by_image) + list(gts_by_image))
    }
    n_gts = sum(len(v) for v in gts.values())
    if n_gts == 0:
        return 0.0 if rows else None
    used = {k: [False] * len(v) for k, v in gts.items()}

    points = []
    tp = 0
    for n, (image_id, det, _, _) in enumerate(rows, start=1):
        best, best_j = 0.0, -1
        for j, g in enumerate(gts.get(image_id, [])):
            if used[image_id][j]:
                continue
            ov = brute_iou(det.bbox, g.bbox)
            if ov >= thr and ov > best:
                best, best_j = ov, j
        if best_j >= 0:
            used[image_id][best_j] = True
            tp += 1
        points.append((tp / n_gts, tp / n))

    total = 0.0
    for k in range(11):
        level = k / 10.0
        best = 0.0
        for r, p in points:
            if r >= level and p > best:
                best = p
        total += best
    return total / 11.0


def brute_report(dets_by_image, gts_by_image):
    cats = sorted({g.category for gts in gts_by_image.values() for g in gts})
    ap = {c: {t: brute_ap(dets_by_image, gts_by_image, c, t) for t in IOU_THRESHOLDS} for c in cats}
    map50 = sum(ap[c][0.50] for c in cats) / len(cats)
    map5095 = sum(sum(ap[c].values()) / 10 for c in cats) / len(cats)
    return ap, map50, map5095


def brute_counts(dets_by_image, gts_by_image, thr=0.5):
    """TP/FP/FN from an independent greedy pass per image, every image
    on either side included."""
    tp = fp = fn = 0
    for image_id in set(dets_by_image) | set(gts_by_image):
        gts = gts_by_image.get(image_id, [])
        used = [False] * len(gts)
        for det in sorted(dets_by_image.get(image_id, []), key=lambda d: -d.confidence):
            best, best_j = 0.0, -1
            for j, g in enumerate(gts):
                if used[j] or g.category != det.category:
                    continue
                ov = brute_iou(det.bbox, g.bbox)
                if ov >= thr and ov > best:
                    best, best_j = ov, j
            if best_j >= 0:
                used[best_j] = True
                tp += 1
            else:
                fp += 1
        fn += used.count(False)
    return tp, fp, fn


def random_scene(rng, max_boxes=20, cats=("a", "b", "c")):
    n_gt = int(rng.integers(1, max_boxes + 1))
    n_det = int(rng.integers(0, max_boxes + 1))

    def box():
        x = float(rng.integers(0, 80))
        y = float(rng.integers(0, 80))
        return BBox(x, y, x + float(rng.integers(4, 30)), y + float(rng.integers(4, 30)))

    gts = [GroundTruth(box(), cats[rng.integers(len(cats))]) for _ in range(n_gt)]
    dets = []
    for _ in range(n_det):
        if gts and rng.random() < 0.6:  # perturb a gt for realistic overlap
            g = gts[rng.integers(len(gts))]
            dx, dy = rng.normal(size=2) * 4
            b = BBox(g.bbox.xmin + dx, g.bbox.ymin + dy, g.bbox.xmax + dx, g.bbox.ymax + dy)
            cat = g.category if rng.random() < 0.8 else cats[rng.integers(len(cats))]
        else:
            b = box()
            cat = cats[rng.integers(len(cats))]
        dets.append(Detection(b, cat, float(rng.integers(0, 101)) / 100.0))
    return dets, gts


def random_scenes(rng, n_scenes, max_boxes=20):
    dets_by_image = {}
    gts_by_image = {}
    for i in range(n_scenes):
        dets, gts = random_scene(rng, max_boxes)
        dets_by_image[f"img{i:03d}"] = dets
        gts_by_image[f"img{i:03d}"] = gts
    return dets_by_image, gts_by_image


# -- unit cases -----------------------------------------------------------------


def det(x0, y0, x1, y1, cat="a", conf=0.9):
    return Detection(BBox(x0, y0, x1, y1), cat, conf)


def gt(x0, y0, x1, y1, cat="a"):
    return GroundTruth(BBox(x0, y0, x1, y1), cat)


class TestMatchDetections:
    def test_perfect_detector(self):
        gts = [gt(0, 0, 10, 10), gt(20, 20, 30, 30, "b")]
        dets = [det(0, 0, 10, 10, "a", 0.9), det(20, 20, 30, 30, "b", 0.8)]
        labels, fn = match_detections(dets, gts, 0.5)
        assert labels == [True, True]
        assert fn == 0

    def test_duplicate_detection_one_tp_one_fp(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [det(0, 0, 10, 10, conf=0.9), det(1, 0, 11, 10, conf=0.8)]
        labels, fn = match_detections(dets, gts, 0.5)
        assert labels == [True, False]
        assert fn == 0

    def test_hand_mixed_scenario(self):
        # det0 (conf .9) overlaps gt0 strongly and gt1 weakly;
        # det1 (conf .8) overlaps gt0 only; det2 wrong category
        gts = [gt(0, 0, 10, 10), gt(8, 0, 18, 10)]
        dets = [
            det(1, 0, 11, 10, conf=0.9),   # IoU gt0 = 9/11, gt1 = 3/17 -> matches gt0
            det(0, 0, 10, 10, conf=0.8),   # gt0 taken; IoU gt1 = 2/18 < 0.5 -> FP
            det(8, 0, 18, 10, "b", 0.7),   # category mismatch -> FP
        ]
        labels, fn = match_detections(dets, gts, 0.5)
        assert labels == [True, False, False]
        assert fn == 1

    def test_confidence_ties_stable_input_order(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [det(0, 0, 10, 10, conf=0.5), det(0, 0, 10, 10, conf=0.5)]
        labels, _ = match_detections(dets, gts, 0.5)
        assert labels == [True, False]

    def test_highest_iou_unmatched_wins(self):
        gts = [gt(0, 0, 10, 10), gt(2, 0, 12, 10)]
        dets = [det(1, 0, 11, 10, conf=0.9)]  # IoU .818 with gt0... and gt1
        labels, fn = match_detections(dets, gts, 0.5)
        assert labels == [True]
        assert fn == 1


class TestPrecisionRecall:
    def test_perfect(self):
        assert precision_recall(10, 0, 0) == (1.0, 1.0)

    def test_no_detections_convention(self):
        assert precision_recall(0, 0, 5) == (0.0, 0.0)

    def test_hand_values(self):
        assert precision_recall(3, 1, 2) == (0.75, 0.6)

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            precision_recall(-1, 0, 0)


class TestAP50:
    def test_single_perfect_match(self):
        dets = {"i": [det(0, 0, 10, 10, conf=0.9)]}
        gts = {"i": [gt(0, 0, 10, 10)]}
        assert ap50(dets, gts, "a") == 1.0

    def test_tp_then_fp_still_one(self):
        dets = {"i": [det(0, 0, 10, 10, conf=0.9), det(50, 50, 60, 60, conf=0.3)]}
        gts = {"i": [gt(0, 0, 10, 10)]}
        assert ap50(dets, gts, "a") == 1.0

    def test_two_gts_one_tp_six_elevenths(self):
        dets = {"i": [det(0, 0, 10, 10, conf=0.9)]}
        gts = {"i": [gt(0, 0, 10, 10), gt(50, 50, 60, 60)]}
        assert ap50(dets, gts, "a") == pytest.approx(6 / 11, abs=1e-12)

    def test_undefined_when_absent_everywhere(self):
        assert ap_at({"i": []}, {"i": []}, "zz", 0.5) is None

    def test_zero_when_only_detections(self):
        dets = {"i": [det(0, 0, 10, 10, "zz", 0.9)]}
        assert ap_at(dets, {"i": []}, "zz", 0.5) == 0.0

    def test_interpolated_precision_non_increasing(self, rng):
        from tsrmcl.metrics import _sweep

        for _ in range(20):
            dets_by, gts_by = random_scenes(rng, 3, max_boxes=10)
            flags, gt_counts = _sweep(dets_by, gts_by, (0.5,))
            for cat in ("a", "b", "c"):
                n_gts = gt_counts.get(cat, 0)
                if n_gts == 0:
                    continue
                tp = 0
                pts = []
                for n, is_tp in enumerate(flags.get(cat, [[]])[0], start=1):
                    tp += int(is_tp)
                    pts.append((tp / n_gts, tp / n))
                # recompute interpolation maxima directly
                flagged = [max((p for r, p in pts if r >= k / 10.0), default=0.0)
                           for k in range(11)]
                assert all(x >= y - 1e-15 for x, y in zip(flagged, flagged[1:]))


class TestMonotonicity:
    def _base(self):
        dets = {"i": [det(0, 0, 10, 10, conf=0.9), det(30, 30, 40, 40, conf=0.6)]}
        gts = {"i": [gt(0, 0, 10, 10), gt(30, 30, 40, 40), gt(50, 50, 60, 60)]}
        return dets, gts

    def test_adding_tp_never_lowers_ap(self):
        dets, gts = self._base()
        before = ap50(dets, gts, "a")
        dets2 = {"i": dets["i"] + [det(50, 50, 60, 60, conf=0.5)]}
        assert ap50(dets2, gts, "a") >= before

    def test_adding_lowest_conf_fp_never_raises_ap(self):
        dets, gts = self._base()
        before = ap50(dets, gts, "a")
        dets2 = {"i": dets["i"] + [det(80, 80, 90, 90, conf=0.01)]}
        assert ap50(dets2, gts, "a") <= before


class TestMapSuite:
    def test_perfect_detections_all_ones(self):
        gts = {"i": [gt(0, 0, 10, 10, "a"), gt(20, 20, 34, 34, "b")]}
        dets = {"i": [det(0, 0, 10, 10, "a", 0.9), det(20, 20, 34, 34, "b", 0.9)]}
        report = map_suite(dets, gts)
        assert report.map50 == 1.0
        assert report.map50_95 == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_all_below_threshold_all_zero(self):
        gts = {"i": [gt(0, 0, 10, 10, "a")]}
        dets = {"i": [det(6, 6, 16, 16, "a", 0.9)]}  # IoU ~ 0.087
        report = map_suite(dets, gts)
        assert report.map50 == 0.0
        assert report.map50_95 == 0.0

    def test_brute_force_equivalence_hand_scene(self, rng):
        dets_by, gts_by = random_scenes(rng, 2, max_boxes=8)
        report = map_suite(dets_by, gts_by)
        ap, map50, map5095 = brute_report(dets_by, gts_by)
        assert report.map50 == map50
        assert report.map50_95 == map5095
        for cat, thrs in report.per_category.items():
            for thr, val in thrs.items():
                assert val == ap[cat][thr]

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ContractError):
            map_suite({"i": [det(0, 0, 1, 1)]}, {"i": []})

    def test_unannotated_category_excluded_from_map_but_counted_in_pr(self):
        gts = {"i": [gt(0, 0, 10, 10, "a")]}
        dets = {"i": [det(0, 0, 10, 10, "a", 0.9), det(30, 30, 40, 40, "zz", 0.8)]}
        report = map_suite(dets, gts)
        assert set(report.per_category) == {"a"}
        assert report.map50 == 1.0
        assert report.fp == 1  # the zz detection

    def test_counts_match_brute_force_per_image(self, rng):
        for _ in range(30):
            dets_by, gts_by = {}, {}
            for i in range(5):
                dets, gts = random_scene(rng, 10, cats=("a", "b", "c", "zz"))
                dets_by[f"img{i}"] = dets
                gts_by[f"img{i}"] = [g for g in gts if g.category != "zz"]  # zz unannotated
            del dets_by["img0"]  # ground truths only
            del gts_by["img4"]  # detections only
            if not any(gts_by.values()):
                continue
            report = map_suite(dets_by, gts_by)
            tp, fp, fn = brute_counts(dets_by, gts_by)
            assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
            assert report.precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert report.recall == (tp / (tp + fn) if tp + fn else 0.0)

    def test_strata_partition_categories(self, rng):
        dets_by, gts_by = random_scenes(rng, 6)
        counts = {"a": 150, "b": 55, "c": 3}
        report = map_suite(dets_by, gts_by, train_counts=counts)
        total = sum(report.strata[s]["categories"] for s in ("head", "middle", "tail"))
        assert total == len(report.per_category)
        assert report.strata["head"]["categories"] == 1
        assert report.strata["middle"]["categories"] == 1
        assert report.strata["tail"]["categories"] == 1

    def test_strata_thresholds(self):
        assert strata_of(101) == "head"
        assert strata_of(100) == "middle"
        assert strata_of(10) == "middle"
        assert strata_of(9) == "tail"


class TestInterchange:
    def test_predictions_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"image_id": "x", "category": "a", "bbox": [0, 0, 5, 5], "confidence": 0.75}\n'
            '{"image_id": "x", "category": "b", "bbox": [1, 2, 3, 4], "confidence": 0.5}\n'
        )
        dets = load_predictions_jsonl(path)
        assert len(dets["x"]) == 2
        assert dets["x"][0].bbox == BBox(0, 0, 5, 5)
        assert dets["x"][1].confidence == 0.5

    @pytest.mark.parametrize("line, detail", [
        ('{"image_id": "x"', "Expecting"),
        ('{"image_id": "x", "bbox": [0, 0, 5, 5], "confidence": 0.5}',
         "missing field 'category'"),
        ("[1, 2, 3]", "expected a JSON object, got list"),
        ('{"image_id": "x", "category": "a", "bbox": [0, 0, 5, 5], "confidence": "x"}',
         "could not convert"),
        ('{"image_id": "x", "category": "a", "bbox": [0, 0, 5, 5], "confidence": 1.5}',
         "outside"),
        ('{"image_id": "x", "category": "a", "bbox": [5, 5, 5, 9], "confidence": 0.5}',
         "degenerate box"),
        ('{"image_id": "x", "category": "a", "bbox": [0, 0, 5], "confidence": 0.5}',
         "4 entries"),
        ('{"image_id": "x", "category": "a", "bbox": [0, 0, Infinity, 10], "confidence": 0.5}',
         "bbox.xmax: not a finite number: inf"),
    ], ids=["bad-json", "missing-field", "non-object", "bad-confidence",
            "confidence-range", "degenerate-box", "short-box", "infinite-edge"])
    def test_bad_jsonl_names_location(self, tmp_path, line, detail):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"image_id": "x", "category": "a", "bbox": [0, 0, 5, 5], "confidence": 0.5}\n'
            + line + "\n"
        )
        with pytest.raises(ContractError, match=re.escape(f"{path}:2: ") + ".*" + detail):
            load_predictions_jsonl(path)

    @pytest.mark.parametrize("doc, where, detail", [
        ('{"imgs": ', "", "Expecting"),
        ("[1]", "", "expected a JSON object, got list"),
        ('{"imgs": []}', "", "expected a JSON object, got list"),
        ('{"imgs": {"7": []}}', "imgs[7]", "expected a JSON object, got list"),
        ('{"imgs": {"7": {"objects": [OK, {"category": "a"}]}}}', "imgs[7].objects[1]",
         "missing field 'bbox'"),
        ('{"imgs": {"7": {"objects": [OK, {"category": "a", "bbox": '
         '{"xmin": 1, "ymin": 2, "xmax": 9}}]}}}', "imgs[7].objects[1]", "missing field 'ymax'"),
        ('{"imgs": {"7": {"objects": [OK, {"category": "a", "bbox": '
         '{"xmin": "x", "ymin": 2, "xmax": 9, "ymax": 12}}]}}}', "imgs[7].objects[1]",
         "could not convert"),
        ('{"imgs": {"7": {"objects": [OK, {"category": "a", "bbox": '
         '{"xmin": 9, "ymin": 2, "xmax": 9, "ymax": 12}}]}}}', "imgs[7].objects[1]",
         "degenerate box"),
        ('{"imgs": {"7": {"objects": [OK, {"category": "a", "bbox": '
         '{"xmin": 1, "ymin": -Infinity, "xmax": 9, "ymax": 12}}]}}}', "imgs[7].objects[1]",
         "bbox.ymin: not a finite number: -inf"),
    ], ids=["bad-json", "non-object-doc", "imgs-list", "entry-list", "missing-bbox",
            "missing-ymax", "bad-number", "degenerate-box", "infinite-edge"])
    def test_bad_tt100k_names_location(self, tmp_path, doc, where, detail):
        ok = '{"category": "a", "bbox": {"xmin": 1, "ymin": 2, "xmax": 9, "ymax": 12}}'
        path = tmp_path / "gt.json"
        path.write_text(doc.replace("OK", ok))
        location = f"{path}: {where}: " if where else f"{path}: "
        with pytest.raises(ContractError, match=re.escape(location) + ".*" + detail):
            load_tt100k_ground_truth(path)

    def test_tt100k_ground_truth(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text(
            '{"imgs": {"77": {"path": "x.ppm", "objects": '
            '[{"category": "pl40", "bbox": {"xmin": 1, "ymin": 2, "xmax": 9, "ymax": 12}}]}}}'
        )
        gts = load_tt100k_ground_truth(path)
        assert gts["77"][0].category == "pl40"
        assert gts["77"][0].bbox == BBox(1, 2, 9, 12)

    def test_report_csv_columns(self, tmp_path):
        report = APReport(precision=0.5, recall=0.25, map50=0.75, map50_95=0.6)
        path = tmp_path / "r.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "Precision,Recall,mAP50,mAP50:95"
        assert lines[1].startswith("0.5")
