"""Axis-aligned box algebra and the Inner-WIoU loss family.

:class:`BBox` and the plain-float :func:`iou` serve detection matching
in metrics. The Inner-WIoU family lives on the differentiable path
only: ``*_t`` tensor functions over corner 4-vectors (or a BBox).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError
from .tensor import Tensor, concat

__all__ = [
    "BBox",
    "iou",
    "iou_t",
    "inner_iou_t",
    "wiou_t",
    "inner_wiou_t",
]


@dataclass(frozen=True)
class BBox:
    """Corner-coordinate box in pixels: finite edges and strictly
    positive extent, else ``ContractError`` naming the non-finite edge
    (``bbox.xmax: not a finite number: inf``) or the degenerate box."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if not (-math.inf < self.xmin < self.xmax < math.inf
                and -math.inf < self.ymin < self.ymax < math.inf):
            for name in ("xmin", "ymin", "xmax", "ymax"):
                value = getattr(self, name)
                if not math.isfinite(value):
                    raise ContractError(f"bbox.{name}: not a finite number: {value!r}")
            raise ContractError(
                f"degenerate box: [{self.xmin}, {self.ymin}, {self.xmax}, {self.ymax}]"
            )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def to_json(self) -> list[float]:
        return [self.xmin, self.ymin, self.xmax, self.ymax]

    @classmethod
    def from_json(cls, arr) -> "BBox":
        if len(arr) != 4:
            raise ContractError(f"box JSON must have 4 entries, got {len(arr)}")
        return cls(float(arr[0]), float(arr[1]), float(arr[2]), float(arr[3]))


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union; 0 for disjoint boxes."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


# -- differentiable path ----------------------------------------------------
#
# Corner 4-vectors are tensors [xmin, ymin, xmax, ymax]; gradients flow
# to the predicted corners through max/min sub-gradients.


def _corners(box) -> Tensor:
    if isinstance(box, BBox):
        return Tensor(box.to_json())
    t = Tensor._coerce(box)
    if t.shape != (4,):
        raise ContractError(f"corner tensor must have shape (4,), got {t.shape}")
    return t


def iou_t(a, b) -> Tensor:
    a = _corners(a)
    b = _corners(b)
    iw = (a[2].minimum(b[2]) - a[0].maximum(b[0])).relu()
    ih = (a[3].minimum(b[3]) - a[1].maximum(b[1])).relu()
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _shrink_t(box: Tensor, ratio: float) -> Tensor:
    cx = 0.5 * (box[0] + box[2])
    cy = 0.5 * (box[1] + box[3])
    hw = 0.5 * (box[2] - box[0]) * ratio
    hh = 0.5 * (box[3] - box[1]) * ratio
    parts = [cx - hw, cy - hh, cx + hw, cy + hh]
    return concat([p.reshape(1) for p in parts], axis=0)


def inner_iou_t(a, b, ratio: float = 0.75) -> Tensor:
    """IoU of both boxes shrunk about their centers by ``ratio``."""
    if not 0.0 < ratio <= 1.0:
        raise ContractError(f"inner ratio must be in (0, 1], got {ratio}")
    return iou_t(_shrink_t(_corners(a), ratio), _shrink_t(_corners(b), ratio))


def wiou_t(pred, gt, gamma_w: float = 1.0) -> Tensor:
    """Center-deviation penalty weighted by the ground-truth extents."""
    if gamma_w <= 0.0:
        raise ContractError(f"gamma_w must be positive, got {gamma_w}")
    p = _corners(pred)
    g = _corners(gt)
    px = 0.5 * (p[0] + p[2])
    py = 0.5 * (p[1] + p[3])
    gx = 0.5 * (g[0] + g[2])
    gy = 0.5 * (g[1] + g[3])
    wg = g[2] - g[0]
    hg = g[3] - g[1]
    dx = px - gx
    dy = py - gy
    return gamma_w * (dx * dx / (wg * wg) + dy * dy / (hg * hg))


def inner_wiou_t(pred, gt, ratio: float = 0.75, gamma_w: float = 1.0) -> Tensor:
    """WIoU penalty plus the IoU / inner-IoU overlap-quality gap."""
    return wiou_t(pred, gt, gamma_w) + iou_t(pred, gt) - inner_iou_t(pred, gt, ratio)
