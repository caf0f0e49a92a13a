"""TSTIAD-style dataset construction: crop annotated signs, attach
templated regulation descriptions, split 2:1 by category, plus a
synthetic long-tail sign generator so training runs at desk scale.

Images are handled natively as binary PPM (P6) for bit-exact,
dependency-free I/O; PNG is accepted when Pillow is importable.
"""

from __future__ import annotations

import json
import logging
import math
import os
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError
from .metrics import _FIELD_ERRORS, _as_object, _malformed, load_annotations, strata_of, tt100k_images
from .tokenizer import KnowledgeBase

__all__ = [
    "PairRecord",
    "SplitManifest",
    "SyntheticSignSpec",
    "LONGTAIL8",
    "PALETTE",
    "write_ppm",
    "read_ppm",
    "read_image",
    "resize_nearest",
    "load_annotations",
    "crop_signs",
    "generate_description",
    "stratified_split",
    "synth_dataset",
    "dataset_stats",
    "pairs_to_jsonl",
    "pairs_from_jsonl",
]

log = logging.getLogger(__name__)

LONGTAIL8 = OrderedDict(
    [("pl40", 100), ("i5", 100), ("w57", 50), ("pn", 50),
     ("pl80", 20), ("ph2.5", 20), ("ps", 5), ("ip", 5)]
)

PALETTE = {
    "red": (200, 30, 30),
    "blue": (30, 60, 200),
    "yellow": (235, 200, 30),
    "white": (240, 240, 240),
    "black": (20, 20, 20),
    "green": (30, 140, 60),
}


# -- image I/O ---------------------------------------------------------------


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ContractError(f"PPM writer needs uint8 H x W x 3, got {img.dtype} {img.shape}")
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    """Binary PPM (P6, maxval 255) as a uint8 H x W x 3 array.

    A header without integer width, height and maxval, or a payload
    shorter than width * height * 3 bytes, raises ``ContractError``
    naming ``path``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise ContractError(f"{path}: not a binary PPM (P6) file")
    # header: magic, width, height, maxval; '#' comments allowed
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos] in b" \t\r\n":
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise ContractError(
                f"{path}: PPM header needs integer width, height and maxval, got {token!r}"
            )
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ContractError(f"{path}: only maxval 255 supported, got {maxval}")
    if len(data) - pos < h * w * 3:
        raise ContractError(
            f"{path}: truncated PPM payload, {max(0, len(data) - pos)} of {h * w * 3} bytes"
        )
    img = np.frombuffer(data, dtype=np.uint8, count=h * w * 3, offset=pos)
    return img.reshape(h, w, 3).copy()


def read_image(path) -> np.ndarray:
    """PPM natively; PNG (and friends) through Pillow when available."""
    path = str(path)
    if path.endswith(".ppm"):
        return read_ppm(path)
    try:
        from PIL import Image
    except ImportError as exc:
        raise ContractError(
            f"{path}: only .ppm is supported without Pillow installed"
        ) from exc
    with Image.open(path) as im:
        return np.asarray(im.convert("RGB"))


def resize_nearest(img: np.ndarray, side: int) -> np.ndarray:
    """Deterministic nearest-neighbor resize to side x side."""
    h, w = img.shape[:2]
    ys = np.minimum((np.arange(side) + 0.5) * h / side, h - 1).astype(np.int64)
    xs = np.minimum((np.arange(side) + 0.5) * w / side, w - 1).astype(np.int64)
    return img[np.ix_(ys, xs)]


# -- records -----------------------------------------------------------------


@dataclass(frozen=True)
class PairRecord:
    """One crop image + category code + regulation description."""

    image: str
    category: str
    text: str
    split: str = ""

    def __post_init__(self):
        if not self.text:
            raise ContractError("pair description must be non-empty")
        if self.split not in ("", "train", "test"):
            raise ContractError(f"split tag must be train/test, got {self.split!r}")


def pairs_to_jsonl(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps(
                {"image": p.image, "category": p.category, "text": p.text, "split": p.split},
                ensure_ascii=False,
            ))
            fh.write("\n")


def pairs_from_jsonl(path) -> list[PairRecord]:
    """JSON lines of {image, category, text[, split]}; a malformed line
    raises ContractError naming ``path:line``."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = _as_object(json.loads(line))
                out.append(PairRecord(row["image"], row["category"], row["text"],
                                      row.get("split", "")))
            except _FIELD_ERRORS as exc:
                raise _malformed(f"{path}:{lineno}", exc) from exc
    return out


@dataclass
class SplitManifest:
    per_category: dict = field(default_factory=dict)  # cat -> {"train": n, "test": m}
    train_total: int = 0
    test_total: int = 0
    seed: int = 0
    ratio: tuple = (2, 1)

    def to_json(self) -> dict:
        return {
            "per_category": self.per_category,
            "train_total": self.train_total,
            "test_total": self.test_total,
            "seed": self.seed,
            "ratio": list(self.ratio),
        }


# -- annotations and cropping --------------------------------------------------


def crop_signs(annotations, image_root=None, images: dict | None = None):
    """One pixel-exact crop per annotated object.

    ``annotations`` (a TT100K-style document or its file path) is read
    and checked whole by ``metrics.tt100k_images`` before any image is
    read: a malformed document, a non-finite edge or a zero-extent box
    included, raises its located ContractError. ``images`` maps image id
    to an in-memory array; otherwise each entry's ``path`` is read
    relative to ``image_root``. Edges widen to whole pixels. A box that
    overhangs its image is clamped with a warning, or dropped with a
    warning when the clamp leaves it empty; unreadable images are
    skipped per item with a warning and the pipeline continues.

    Returns a list of (crop, category, image_id, object_index).
    """
    crops = []
    for image_id, path, objects in tt100k_images(annotations):
        if images is not None and image_id in images:
            img = np.asarray(images[image_id])
        else:
            full = os.path.join(image_root, path) if image_root else path
            try:
                img = read_image(full)
            except (OSError, ContractError) as exc:
                log.warning("skipping unreadable image %s: %s", full, exc)
                continue
        h, w = img.shape[:2]
        for k, (category, box) in enumerate(objects):
            x0, y0 = math.floor(box.xmin), math.floor(box.ymin)
            x1, y1 = math.ceil(box.xmax), math.ceil(box.ymax)
            cx0, cy0, cx1, cy1 = max(0, x0), max(0, y0), min(w, x1), min(h, y1)
            if cx1 <= cx0 or cy1 <= cy0:
                log.warning("dropping empty bbox %s of %s: outside its %dx%d image",
                            box.to_json(), image_id, w, h)
                continue
            if (cx0, cy0, cx1, cy1) != (x0, y0, x1, y1):
                log.warning("clamped bbox %s of %s to its %dx%d image",
                            box.to_json(), image_id, w, h)
            crops.append((img[cy0:cy1, cx0:cx1].copy(), category, image_id, k))
    return crops


# -- descriptions ---------------------------------------------------------------


def generate_description(code: str, kb: KnowledgeBase) -> str:
    """Deterministic template fill from the knowledge base.

    "a {shape} {color} sign {action clause}{numeric clause}"; unknown
    codes fall back to "a traffic sign of category {code}" with a warning.
    """
    shape = kb.first_match("code.shape", code)
    color = kb.first_match("code.color", code)
    if shape is None or color is None:
        log.warning("unknown category code %r; using fallback description", code)
        return f"a traffic sign of category {code}"
    parts = [f"a {shape} {color} sign"]
    action = kb.first_match("code.action", code)
    if action:
        parts.append(action)
    numeric = kb.first_match("code.numeric", code)
    if numeric:
        parts.append(numeric)
    return " ".join(parts)


# -- stratified split ------------------------------------------------------------


def stratified_split(pairs, ratio: tuple[int, int] = (2, 1), seed: int = 0):
    """Per-category 2:1 split with largest-remainder rounding.

    Per category the items are shuffled with the seed and
    floor(n * train_frac) go to train; the leftover against the global
    rounded target is distributed by largest fractional remainder
    (ties by category name). Singleton categories always go to train.
    Returns (SplitManifest, tagged pairs in original order).
    """
    pairs = list(pairs)
    if not pairs:
        raise ContractError("stratified_split requires at least one pair")
    a, b = ratio
    if a <= 0 or b <= 0:
        raise ContractError(f"ratio parts must be positive, got {ratio}")
    frac = a / (a + b)

    by_cat: dict[str, list[int]] = {}
    for i, p in enumerate(pairs):
        by_cat.setdefault(p.category, []).append(i)

    target_total = int(np.floor(len(pairs) * frac + 0.5))
    train_n: dict[str, int] = {}
    remainders: dict[str, float] = {}
    for cat in sorted(by_cat):
        n = len(by_cat[cat])
        if n == 1:
            train_n[cat] = 1  # a test-only singleton could never be learned
            continue
        ideal = n * frac
        train_n[cat] = int(np.floor(ideal))
        remainders[cat] = ideal - train_n[cat]

    leftover = target_total - sum(train_n.values())
    if leftover > 0:
        for cat in sorted(remainders, key=lambda c: (-remainders[c], c)):
            if leftover == 0:
                break
            if train_n[cat] < len(by_cat[cat]):
                train_n[cat] += 1
                leftover -= 1
    elif leftover < 0:
        for cat in sorted(remainders, key=lambda c: (remainders[c], c)):
            if leftover == 0:
                break
            if train_n[cat] > 0:
                train_n[cat] -= 1
                leftover += 1

    rng = np.random.default_rng(seed)
    tagged = list(pairs)
    manifest = SplitManifest(seed=seed, ratio=ratio)
    for cat in sorted(by_cat):
        idxs = by_cat[cat]
        perm = rng.permutation(len(idxs))
        n_train = train_n[cat]
        for rank, local in enumerate(perm):
            i = idxs[local]
            tagged[i] = replace(pairs[i], split="train" if rank < n_train else "test")
        manifest.per_category[cat] = {"train": n_train, "test": len(idxs) - n_train}
        manifest.train_total += n_train
        manifest.test_total += len(idxs) - n_train
    return manifest, tagged


# -- synthetic long-tail generator -------------------------------------------------


@dataclass(frozen=True)
class SyntheticSignSpec:
    categories: "OrderedDict[str, int] | dict[str, int]" = field(
        default_factory=lambda: OrderedDict(LONGTAIL8)
    )
    scene_side: int = 128
    min_radius: int = 12
    max_radius: int = 22
    noise: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if not self.categories or any(c < 1 for c in self.categories.values()):
            raise ContractError("category counts must all be >= 1")
        if self.max_radius * 2 + 8 > self.scene_side:
            raise ContractError("scene side too small for the sign radius range")


def _glyph_id(code: str) -> int:
    digits = "".join(ch for ch in code if ch.isdigit() or ch == ".")
    if digits:
        return int(round(float(digits) * 10)) % 7
    return zlib.crc32(code.encode("utf-8")) % 7


def _shape_mask(shape: str, u: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    if shape == "circular":
        return u * u + v * v <= scale * scale
    if shape == "triangular":
        return (v >= -scale) & (v <= 0.78 * scale) & (np.abs(u) <= 0.62 * (v + scale))
    if shape == "rectangular":
        return (np.abs(u) <= 0.92 * scale) & (np.abs(v) <= 0.92 * scale)
    if shape == "octagonal":
        return (np.abs(u) <= scale) & (np.abs(v) <= scale) & (np.abs(u) + np.abs(v) <= 1.35 * scale)
    return u * u + v * v <= scale * scale


def _glyph_mask(gid: int, u: np.ndarray, v: np.ndarray, r: float) -> np.ndarray:
    un = u / r
    vn = v / r
    w = 0.18
    inside = np.maximum(np.abs(un), np.abs(vn)) <= 0.6
    if gid == 0:
        return inside & (np.abs(vn) <= w)
    if gid == 1:
        return np.maximum(np.abs(un), np.abs(vn)) <= 0.34  # filled center square
    if gid == 2:
        return inside & (np.abs(un) <= w)
    if gid == 3:
        return inside & (np.abs(un + vn) <= 1.4 * w)
    if gid == 4:
        return inside & ((np.abs(un) <= w) | (np.abs(vn) <= w))
    if gid == 5:
        return inside & ((np.abs(un - vn) <= 1.4 * w) | (np.abs(un + vn) <= 1.4 * w))
    rad = np.sqrt(un * un + vn * vn)
    return (rad >= 0.28) & (rad <= 0.28 + 2 * w)


def _paint_sign(canvas: np.ndarray, code: str, kb: KnowledgeBase,
                cx: int, cy: int, r: int) -> tuple[int, int, int, int]:
    h, w, _ = canvas.shape
    shape = kb.first_match("code.shape", code) or "circular"
    color_name = kb.first_match("code.color", code) or "red"
    color = np.array(PALETTE.get(color_name, PALETTE["red"]), dtype=np.float64)
    glyph_color = np.array(
        PALETTE["black"] if color_name in ("yellow", "white") else PALETTE["white"],
        dtype=np.float64,
    )

    yy, xx = np.mgrid[0:h, 0:w]
    u = (xx - cx).astype(np.float64)
    v = (yy - cy).astype(np.float64)

    border = _shape_mask(shape, u, v, float(r))
    fill = _shape_mask(shape, u, v, r * 0.86)
    canvas[border] = PALETTE["white"]
    canvas[fill] = color
    glyph = _glyph_mask(_glyph_id(code), u, v, r * 0.86) & fill
    canvas[glyph] = glyph_color

    ys, xs = np.nonzero(border)
    return int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1


def synth_dataset(spec: SyntheticSignSpec):
    """Render long-tail synthetic sign scenes.

    Returns (scenes, annotations, descriptions): scenes maps image id
    to a uint8 array, annotations is TT100K-style JSON-ready, and
    descriptions maps category code to its knowledge-base text. The
    per-category instance counts are honored exactly and everything is
    a pure function of the spec (seed included).
    """
    kb = KnowledgeBase.load()
    rng = np.random.default_rng(spec.seed)
    side = spec.scene_side

    pool: list[str] = []
    for code, count in spec.categories.items():
        pool.extend([code] * count)
    pool = [pool[i] for i in rng.permutation(len(pool))]

    scenes: dict[str, np.ndarray] = {}
    annotations = {"imgs": {}}
    scene_no = 0
    pos = 0
    while pos < len(pool):
        take = int(rng.integers(1, 3))  # 1 or 2 signs per scene
        codes = pool[pos:pos + take]
        pos += take
        scene_id = f"synth_{scene_no:06d}"
        scene_no += 1

        base = float(rng.integers(80, 130))
        canvas = np.clip(
            base + rng.normal(0.0, 12.0, size=(side, side, 3)), 0, 255
        ).astype(np.uint8)

        placed: list[tuple[int, int, int]] = []
        objects = []
        for code in codes:
            r = int(rng.integers(spec.min_radius, spec.max_radius + 1))
            for _ in range(64):
                cx = int(rng.integers(r + 3, side - r - 3))
                cy = int(rng.integers(r + 3, side - r - 3))
                if all((cx - px) ** 2 + (cy - py) ** 2 >= (r + pr + 4) ** 2
                       for px, py, pr in placed):
                    break
            else:
                continue  # crowded scene; the instance is re-queued below
            placed.append((cx, cy, r))
            x0, y0, x1, y1 = _paint_sign(canvas, code, kb, cx, cy, r)
            objects.append({
                "category": code,
                "bbox": {"xmin": x0, "ymin": y0, "xmax": x1, "ymax": y1},
            })
        pool.extend(_requeue(objects, codes))  # crowded-out instances try again

        if spec.noise > 0:
            noisy = canvas.astype(np.float64) + rng.normal(0.0, spec.noise, size=canvas.shape)
            canvas = np.clip(noisy, 0, 255).astype(np.uint8)

        scenes[scene_id] = canvas
        annotations["imgs"][scene_id] = {"path": f"scenes/{scene_id}.ppm", "objects": objects}

    descriptions = {code: generate_description(code, kb) for code in spec.categories}
    return scenes, annotations, descriptions


def _requeue(objects, codes):
    # multiset difference: codes minus successfully painted categories
    remaining = list(codes)
    for o in objects:
        remaining.remove(o["category"])
    return remaining


# -- statistics -----------------------------------------------------------------


def dataset_stats(pairs, annotations=None, small_side: float = 32.0) -> dict:
    """Per-category counts, long-tail strata, and the small-target share
    (boxes with both sides below ``small_side`` pixels).

    Counts come from ``pairs``, or from ``annotations`` when there are
    none. ``annotations`` (a TT100K-style document or its file path) is
    read by ``metrics.tt100k_images``: a malformed document, a
    non-finite edge or a zero-extent box included, raises its located
    ContractError.
    """
    counts: dict[str, int] = {}
    train_counts: dict[str, int] = {}
    for p in pairs or []:
        counts[p.category] = counts.get(p.category, 0) + 1
        if p.split == "train":
            train_counts[p.category] = train_counts.get(p.category, 0) + 1
    boxes = [] if annotations is None else [
        labelled for _, _, objects in tt100k_images(annotations) for labelled in objects
    ]
    if not counts:
        for category, _ in boxes:
            counts[category] = counts.get(category, 0) + 1

    basis = train_counts if train_counts else counts
    strata: dict[str, list[str]] = {"head": [], "middle": [], "tail": []}
    for cat in sorted(counts):
        strata[strata_of(basis.get(cat, 0))].append(cat)

    small = sum(box.width < small_side and box.height < small_side for _, box in boxes)
    return {
        "per_category": counts,
        "strata": {k: {"categories": v, "count": len(v)} for k, v in strata.items()},
        "small_target": {
            "count": small,
            "total": len(boxes),
            "share": (small / len(boxes)) if boxes else 0.0,
        },
    }
