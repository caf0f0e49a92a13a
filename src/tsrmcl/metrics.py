"""Detection scoring: matching protocol, precision/recall, 11-point
AP50, and the mAP50:95 suite with per-category and long-tail-stratum
breakdowns.

All AP math uses the 11-point interpolated form
AP = (1/11) * sum_k max_{r >= k/10} p(r), and mAP50:95 is the double
mean: over the 10 IoU thresholds per category first, then over
categories. Matching is greedy in descending confidence (ties broken by
stable input order), one ground truth matched at most once, the
highest-IoU unmatched ground truth of the same category wins.

Each image is matched in one pass: every same-category IoU is computed
once and read at all 10 thresholds. AP sweeps regroup those per-image
flags by category, and precision/recall at IoU 0.50 reuse the AP50
flags rather than matching again.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field

from .boxes import BBox, iou
from .errors import ContractError

__all__ = [
    "Detection",
    "GroundTruth",
    "APReport",
    "IOU_THRESHOLDS",
    "match_detections",
    "precision_recall",
    "ap_at",
    "ap50",
    "map_suite",
    "load_predictions_jsonl",
    "load_annotations",
    "tt100k_images",
    "load_tt100k_ground_truth",
    "strata_of",
]

IOU_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    category: str
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ContractError(f"confidence {self.confidence} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruth:
    bbox: BBox
    category: str


def _greedy_match(dets, gts, thresholds):
    """TP flags of one image's detections at each IoU threshold.

    The IoU of every same-category (detection, ground truth) pair is
    computed once and reused at every threshold. Returns one list per
    threshold; ``flags[t][i]`` is True iff detection i (input order)
    matched at ``thresholds[t]``.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    overlaps = [
        [(j, iou(det.bbox, gt.bbox)) for j, gt in enumerate(gts) if gt.category == det.category]
        for det in dets
    ]
    flags = []
    for thr in thresholds:
        taken = [False] * len(gts)
        labels = [False] * len(dets)
        for i in order:
            best_iou, best_j = 0.0, -1
            for j, ov in overlaps[i]:
                if not taken[j] and ov >= thr and ov > best_iou:
                    best_iou, best_j = ov, j
            if best_j >= 0:
                taken[best_j] = True
                labels[i] = True
        flags.append(labels)
    return flags


def match_detections(dets, gts, iou_threshold: float):
    """Greedy TP/FP assignment within one image.

    Returns (labels, fn): ``labels[i]`` is True iff detection i (input
    order) matched an unmatched same-category ground truth with
    IoU >= threshold; ``fn`` counts ground truths left unmatched.
    """
    gts = list(gts)
    [labels] = _greedy_match(list(dets), gts, (iou_threshold,))
    return labels, len(gts) - sum(labels)


def precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    """P = TP/(TP+FP), R = TP/(TP+FN); zero denominators yield 0."""
    if min(tp, fp, fn) < 0:
        raise ContractError("counts must be nonnegative")
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r


def _sweep(dets_by_image, gts_by_image, thresholds):
    """Match every image once; regroup the TP flags by category.

    Returns (flags, gt_counts): ``flags[cat][t]`` lists the flags of
    category ``cat``'s detections at ``thresholds[t]`` in global sweep
    order (descending confidence, then sorted image id, then input
    order); ``gt_counts[cat]`` counts its ground truths over all images.
    Matching never crosses images or categories, so per-image flags are
    those of a per-category global sweep.
    """
    rows: dict[str, list] = {}  # cat -> [(-confidence, flag per threshold)]
    for image_id in sorted(dets_by_image):
        dets = dets_by_image[image_id]
        per_thr = _greedy_match(dets, gts_by_image.get(image_id, []), thresholds)
        for i, det in enumerate(dets):
            rows.setdefault(det.category, []).append((-det.confidence, [f[i] for f in per_thr]))
    flags = {}
    for cat, entries in rows.items():
        entries.sort(key=lambda e: e[0])  # stable: ties keep image, then input order
        flags[cat] = [[e[1][t] for e in entries] for t in range(len(thresholds))]
    gt_counts = Counter(gt.category for gts in gts_by_image.values() for gt in gts)
    return flags, gt_counts


def _eleven_point_ap(flags, total_gts: int):
    """11-point interpolated AP of TP flags in sweep order (see ``ap_at``)."""
    if total_gts == 0:
        return 0.0 if flags else None
    points = []
    tp = 0
    for rank, is_tp in enumerate(flags, start=1):
        tp += int(is_tp)
        points.append((tp / total_gts, tp / rank))
    total = 0.0
    for k in range(11):
        level = k / 10.0
        total += max((p for r, p in points if r >= level), default=0.0)
    return total / 11.0


def ap_at(dets_by_image, gts_by_image, category: str, iou_threshold: float):
    """11-point interpolated AP for one category at one IoU threshold.

    Returns None when the category appears in neither ground truths nor
    detections (undefined); 0.0 when it has detections but no ground
    truths.
    """
    def mine(by_image):
        return {k: [x for x in v if x.category == category] for k, v in by_image.items()}

    flags, gt_counts = _sweep(mine(dets_by_image), mine(gts_by_image), (iou_threshold,))
    return _eleven_point_ap(flags.get(category, [[]])[0], gt_counts.get(category, 0))


def ap50(dets_by_image, gts_by_image, category: str):
    return ap_at(dets_by_image, gts_by_image, category, 0.50)


def strata_of(count: int) -> str:
    """head: > 100 instances, middle: 10..100, tail: < 10."""
    if count > 100:
        return "head"
    if count >= 10:
        return "middle"
    return "tail"


@dataclass
class APReport:
    per_category: dict = field(default_factory=dict)  # cat -> {thr: ap}
    ap50_per_category: dict = field(default_factory=dict)
    map50: float = 0.0
    map50_95: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    tp: int = 0
    fp: int = 0
    fn: int = 0
    strata: dict = field(default_factory=dict)  # stratum -> rollup

    def to_json(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "mAP50": self.map50,
            "mAP50:95": self.map50_95,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "per_category": {
                cat: {f"{thr:.2f}": ap for thr, ap in thrs.items()}
                for cat, thrs in self.per_category.items()
            },
            "ap50_per_category": self.ap50_per_category,
            "strata": self.strata,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)

    def write_csv(self, path) -> None:
        """One row mirroring the headline table columns."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Precision", "Recall", "mAP50", "mAP50:95"])
            writer.writerow([
                f"{self.precision:.6f}",
                f"{self.recall:.6f}",
                f"{self.map50:.6f}",
                f"{self.map50_95:.6f}",
            ])


def map_suite(dets_by_image, gts_by_image, train_counts: dict | None = None) -> APReport:
    """Full AP report over IoU thresholds 0.50..0.95.

    Categories are averaged only when annotated (present in the ground
    truth); detections for unannotated categories still count as false
    positives in P/R. Stratum assignment uses ``train_counts`` when
    given, otherwise the ground-truth instance counts of this set.
    """
    flags, gt_counts = _sweep(dets_by_image, gts_by_image, IOU_THRESHOLDS)
    if not gt_counts:
        raise ContractError("map_suite requires at least one ground truth")

    categories = sorted(gt_counts)
    report = APReport()
    for cat in categories:
        per_thr = flags.get(cat, [[]] * len(IOU_THRESHOLDS))
        thrs = dict(zip(IOU_THRESHOLDS, (_eleven_point_ap(f, gt_counts[cat]) for f in per_thr)))
        report.per_category[cat] = thrs
        report.ap50_per_category[cat] = thrs[0.50]
    report.map50 = sum(report.ap50_per_category.values()) / len(categories)
    report.map50_95 = sum(
        sum(thrs.values()) / len(IOU_THRESHOLDS) for thrs in report.per_category.values()
    ) / len(categories)

    # P/R count every detection at IoU 0.50, unannotated categories included
    at50 = [f for per_thr in flags.values() for f in per_thr[0]]
    report.tp = sum(at50)
    report.fp = len(at50) - report.tp
    report.fn = sum(gt_counts.values()) - report.tp
    report.precision, report.recall = precision_recall(report.tp, report.fp, report.fn)

    counts = train_counts if train_counts is not None else gt_counts
    strata: dict[str, dict] = {
        s: {"categories": 0, "mAP50": 0.0, "mAP50:95": 0.0} for s in ("head", "middle", "tail")
    }
    for cat in categories:
        s = strata_of(counts.get(cat, 0))
        strata[s]["categories"] += 1
        strata[s]["mAP50"] += report.ap50_per_category[cat]
        strata[s]["mAP50:95"] += sum(report.per_category[cat].values()) / len(IOU_THRESHOLDS)
    for s, roll in strata.items():
        n = roll["categories"]
        if n:
            roll["mAP50"] /= n
            roll["mAP50:95"] /= n
    report.strata = strata
    return report


# -- interchange formats ---------------------------------------------------


_FIELD_ERRORS = (ContractError, KeyError, TypeError, ValueError)


def _malformed(where: str, exc: Exception) -> ContractError:
    detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
    return ContractError(f"{where}: {detail}")


def _as_object(value) -> dict:
    if not isinstance(value, dict):
        raise ContractError(f"expected a JSON object, got {type(value).__name__}")
    return value


def load_predictions_jsonl(path) -> dict[str, list[Detection]]:
    """JSON lines of {image_id, category, bbox: [x0,y0,x1,y1], confidence};
    a malformed line raises ContractError naming ``path:line``."""
    out: dict[str, list[Detection]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = _as_object(json.loads(line))
                det = Detection(BBox.from_json(row["bbox"]), str(row["category"]),
                                float(row["confidence"]))
                image_id = str(row["image_id"])
            except _FIELD_ERRORS as exc:
                raise _malformed(f"{path}:{lineno}", exc) from exc
            out.setdefault(image_id, []).append(det)
    return out


def load_annotations(path) -> dict:
    """Decoded TT100K-style annotation file, not yet checked (see
    ``tt100k_images``); malformed JSON raises ContractError naming
    ``path``, line and column."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise _malformed(path, exc) from exc


def tt100k_images(annotations) -> list[tuple[str, str, list[tuple[str, BBox]]]]:
    """Every image of a TT100K-style document, checked whole and sorted
    by id, as ``(image_id, path, [(category, BBox)])``.

    ``annotations`` is the decoded ``{"imgs": {id: {"path", "objects":
    [{"category", "bbox": {"xmin", "ymin", "xmax", "ymax"}}]}}}`` (``path``
    and ``objects`` optional) or the path of its JSON file. Box policy
    (``BBox``): edges are finite numbers and the extent is positive.
    Any fault (a part that is not a JSON object, a missing key, an edge
    that is not a finite number, a zero-extent box) raises ContractError
    naming the source (the file, or ``annotations``), ``imgs[id]`` or
    ``imgs[id].objects[k]``, and the field: e.g. ``imgs[b].objects[1]:
    bbox.ymin: could not convert string to float: 'top'``.
    """
    source = "annotations"
    if not isinstance(annotations, dict):
        annotations, source = load_annotations(annotations), annotations
    images = []
    where = str(source)
    try:
        for image_id, entry in sorted(_as_object(_as_object(annotations)["imgs"]).items()):
            where = f"{source}: imgs[{image_id}]"
            objects = []
            for k, obj in enumerate(_as_object(entry).get("objects", [])):
                where = f"{source}: imgs[{image_id}].objects[{k}]"
                bb = _as_object(_as_object(obj)["bbox"])
                edges = []
                for key in ("xmin", "ymin", "xmax", "ymax"):
                    try:
                        edges.append(float(bb[key]))
                    except (TypeError, ValueError) as exc:
                        raise ContractError(f"bbox.{key}: {exc}") from exc
                objects.append((str(obj["category"]), BBox(*edges)))
            images.append((str(image_id), str(entry.get("path", "")), objects))
    except _FIELD_ERRORS as exc:
        raise _malformed(where, exc) from exc
    return images


def load_tt100k_ground_truth(path) -> dict[str, list[GroundTruth]]:
    """Ground truth of a TT100K-style annotation file, read through
    :func:`tt100k_images` (box policy and errors there)."""
    return {image_id: [GroundTruth(box, category) for category, box in objects]
            for image_id, _, objects in tt100k_images(path)}
