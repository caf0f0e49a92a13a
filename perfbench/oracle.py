"""Brute-force detection-metric oracle for the eval workload.

It follows the repository's written protocol, not its code: one dense
IoU matrix per image over every (detection, ground truth) pair, then a
global confidence sweep per (category, IoU threshold) with greedy
highest-IoU matching, 11-point interpolated AP, and a per-image greedy
pass at IoU 0.50 for precision and recall. Sums run in the order the
protocol states them (categories sorted, thresholds ascending), so the
results must equal ``map_suite`` exactly, not approximately.
"""

from __future__ import annotations

import numpy as np

THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


def iou_matrix(dets, gts) -> np.ndarray:
    """IoU of every detection box against every ground-truth box."""
    d = np.array([[x.bbox.xmin, x.bbox.ymin, x.bbox.xmax, x.bbox.ymax] for x in dets],
                 dtype=np.float64).reshape(-1, 4)
    g = np.array([[x.bbox.xmin, x.bbox.ymin, x.bbox.xmax, x.bbox.ymax] for x in gts],
                 dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(d[:, None, 2], g[None, :, 2]) - np.maximum(d[:, None, 0], g[None, :, 0])
    ih = np.minimum(d[:, None, 3], g[None, :, 3]) - np.maximum(d[:, None, 1], g[None, :, 1])
    inter = iw * ih
    area_d = (d[:, 2] - d[:, 0]) * (d[:, 3] - d[:, 1])
    area_g = (g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = inter / (area_d[:, None] + area_g[None, :] - inter)
    return np.where((iw > 0.0) & (ih > 0.0), ratio, 0.0)


def _greedy(order, dets, gts, ious, thr, taken) -> list[bool]:
    """Match detections in ``order``; ``taken`` marks used ground truths."""
    flags = []
    for i in order:
        best, best_j = 0.0, -1
        for j, gt in enumerate(gts):
            if taken[j] or gt.category != dets[i].category:
                continue
            ov = float(ious[i, j])
            if ov >= thr and ov > best:
                best, best_j = ov, j
        if best_j >= 0:
            taken[best_j] = True
        flags.append(best_j >= 0)
    return flags


def _eleven_point(flags, n_gts) -> float:
    points = []
    tp = 0
    for rank, hit in enumerate(flags, start=1):
        tp += int(hit)
        points.append((tp / n_gts, tp / rank))
    total = 0.0
    for k in range(11):
        level = k / 10.0
        total += max([p for r, p in points if r >= level], default=0.0)
    return total / 11.0


def oracle_report(dets_by_image, gts_by_image) -> dict:
    """{"per_category", "map50", "map50_95", "tp", "fp", "fn", "precision", "recall"}."""
    image_ids = sorted(set(dets_by_image) | set(gts_by_image))
    dets = {k: list(dets_by_image.get(k, [])) for k in image_ids}
    gts = {k: list(gts_by_image.get(k, [])) for k in image_ids}
    ious = {k: iou_matrix(dets[k], gts[k]) for k in image_ids}
    categories = sorted({g.category for k in image_ids for g in gts[k]})
    det_rank = {k: r for r, k in enumerate(sorted(dets_by_image))}

    per_category = {}
    for cat in categories:
        n_gts = sum(1 for k in image_ids for g in gts[k] if g.category == cat)
        sweep = sorted(
            ((-d.confidence, det_rank[k], i, k) for k in dets_by_image
             for i, d in enumerate(dets[k]) if d.category == cat),
        )
        per_category[cat] = {}
        for thr in THRESHOLDS:
            taken = {k: [False] * len(gts[k]) for k in image_ids}
            flags = []
            for _, _, i, k in sweep:
                flags += _greedy([i], dets[k], gts[k], ious[k], thr, taken[k])
            per_category[cat][thr] = _eleven_point(flags, n_gts) if flags else 0.0

    map50 = sum([per_category[c][0.50] for c in categories]) / len(categories)
    map50_95 = sum(
        [sum(per_category[c].values()) / len(THRESHOLDS) for c in categories]
    ) / len(categories)

    tp = fp = fn = 0
    for k in image_ids:
        order = sorted(range(len(dets[k])), key=lambda i: -dets[k][i].confidence)
        taken = [False] * len(gts[k])
        flags = _greedy(order, dets[k], gts[k], ious[k], 0.50, taken)
        tp += sum(flags)
        fp += len(flags) - sum(flags)
        fn += taken.count(False)
    return {
        "per_category": per_category,
        "map50": map50,
        "map50_95": map50_95,
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
    }


def agrees(report, oracle: dict) -> bool:
    """Exact (==) agreement of an ``APReport`` with ``oracle_report``."""
    return (
        report.per_category == oracle["per_category"]
        and report.map50 == oracle["map50"]
        and report.map50_95 == oracle["map50_95"]
        and (report.tp, report.fp, report.fn) == (oracle["tp"], oracle["fp"], oracle["fn"])
        and report.precision == oracle["precision"]
        and report.recall == oracle["recall"]
    )
