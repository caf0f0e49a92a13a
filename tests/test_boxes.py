"""Box algebra and the Inner-WIoU family, cross-checked against a
pixel-rasterization oracle and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsrmcl.boxes import BBox, _shrink_t, inner_iou_t, inner_wiou_t, iou, iou_t, wiou_t
from tsrmcl.errors import ContractError
from tsrmcl.tensor import Tensor

from conftest import PROPERTY, assert_gradients_close, numeric_gradient


def inner_iou(a, b, ratio=0.75) -> float:
    return float(inner_iou_t(a, b, ratio).data)


def wiou(pred, gt, gamma_w=1.0) -> float:
    return float(wiou_t(pred, gt, gamma_w).data)


def inner_wiou(pred, gt, ratio=0.75, gamma_w=1.0) -> float:
    return float(inner_wiou_t(pred, gt, ratio, gamma_w).data)


def raster_iou(a: BBox, b: BBox) -> float:
    """Counting oracle: rasterize integer boxes onto a canvas and count.

    Integer-coordinate boxes cover whole pixels, so pixel counts equal
    continuous areas exactly.
    """
    x1 = int(min(a.xmin, b.xmin))
    y1 = int(min(a.ymin, b.ymin))
    x2 = int(max(a.xmax, b.xmax))
    y2 = int(max(a.ymax, b.ymax))
    w, h = x2 - x1, y2 - y1
    ca = np.zeros((h, w), dtype=bool)
    cb = np.zeros((h, w), dtype=bool)
    ca[int(a.ymin) - y1:int(a.ymax) - y1, int(a.xmin) - x1:int(a.xmax) - x1] = True
    cb[int(b.ymin) - y1:int(b.ymax) - y1, int(b.xmin) - x1:int(b.xmax) - x1] = True
    inter = np.logical_and(ca, cb).sum()
    union = np.logical_or(ca, cb).sum()
    return inter / union


def random_int_box(rng, span=60) -> BBox:
    x1 = int(rng.integers(0, span))
    y1 = int(rng.integers(0, span))
    return BBox(x1, y1, x1 + int(rng.integers(1, 30)), y1 + int(rng.integers(1, 30)))


class TestBBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ContractError):
            BBox(0, 0, 0, 1)
        with pytest.raises(ContractError):
            BBox(5, 2, 4, 3)

    def test_derived_quantities(self):
        b = BBox(1, 2, 5, 10)
        assert (b.width, b.height, b.area) == (4.0, 8.0, 32.0)

    def test_json_round_trip(self):
        b = BBox(1.5, 2.0, 3.25, 4.75)
        assert BBox.from_json(b.to_json()) == b

    def test_shrink_about_center(self):
        s = _shrink_t(Tensor([0.0, 0.0, 4.0, 4.0]), 0.5)
        assert s.data.tolist() == [1.0, 1.0, 3.0, 3.0]


class TestIoU:
    def test_identity(self):
        b = BBox(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_hand_value(self):
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)) == pytest.approx(1 / 3, abs=1e-15)

    def test_symmetry(self, rng):
        for _ in range(100):
            a, b = random_int_box(rng), random_int_box(rng)
            assert iou(a, b) == iou(b, a)
            assert inner_iou(a, b, 0.6) == inner_iou(b, a, 0.6)

    def test_rasterization_oracle_1000_boxes(self, rng):
        for _ in range(1000):
            a, b = random_int_box(rng), random_int_box(rng)
            assert abs(iou(a, b) - raster_iou(a, b)) <= 1e-9

    def test_translation_invariance(self, rng):
        for _ in range(50):
            a, b = random_int_box(rng), random_int_box(rng)
            dx, dy = rng.normal(size=2) * 40
            a2 = BBox(a.xmin + dx, a.ymin + dy, a.xmax + dx, a.ymax + dy)
            b2 = BBox(b.xmin + dx, b.ymin + dy, b.xmax + dx, b.ymax + dy)
            assert iou(a, b) == pytest.approx(iou(a2, b2), abs=1e-9)
            assert inner_iou(a, b, 0.75) == pytest.approx(inner_iou(a2, b2, 0.75), abs=1e-9)
            assert wiou(a, b) == pytest.approx(wiou(a2, b2), abs=1e-9)
            assert inner_wiou(a, b) == pytest.approx(inner_wiou(a2, b2), abs=1e-9)


class TestInnerIoU:
    def test_ratio_one_equals_iou(self, rng):
        for _ in range(50):
            a, b = random_int_box(rng), random_int_box(rng)
            assert inner_iou(a, b, 1.0) == pytest.approx(iou(a, b), abs=1e-12)

    def test_identical_boxes_any_ratio(self):
        b = BBox(2, 3, 9, 8)
        for r in (0.25, 0.5, 0.75, 1.0):
            assert inner_iou(b, b, r) == 1.0

    def test_hand_value_touching_edges(self):
        # shrunk copies touch along one edge only -> zero overlap
        assert inner_iou(BBox(0, 0, 4, 4), BBox(2, 0, 6, 4), 0.5) == 0.0

    def test_ratio_out_of_range(self):
        b = BBox(0, 0, 1, 1)
        for r in (0.0, -0.5, 1.5):
            with pytest.raises(ContractError):
                inner_iou_t(b, b, r)


class TestWIoU:
    def test_coincident_centers(self):
        assert wiou(BBox(1, 1, 3, 3), BBox(0, 0, 4, 4)) == 0.0

    def test_hand_value(self):
        gt = BBox(0, 0, 2, 2)
        pred = BBox(1, 0, 3, 2)  # center (2, 1); gt center (1, 1)
        assert wiou(pred, gt, 1.0) == pytest.approx(0.25, abs=1e-15)

    def test_gamma_scales_linearly(self):
        gt = BBox(0, 0, 2, 2)
        pred = BBox(1, 0, 3, 2)
        assert wiou(pred, gt, 2.0) == pytest.approx(2 * wiou(pred, gt, 1.0), abs=1e-15)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ContractError):
            wiou_t(BBox(0, 0, 1, 1), BBox(0, 0, 1, 1), 0.0)


class TestInnerWIoU:
    def test_perfect_match_is_zero_for_any_ratio(self):
        b = BBox(1, 2, 7, 9)
        for r in (0.25, 0.5, 0.75, 1.0):
            assert inner_wiou(b, b, r) == pytest.approx(0.0, abs=1e-15)

    def test_ratio_one_reduces_to_wiou(self, rng):
        for _ in range(50):
            a, b = random_int_box(rng), random_int_box(rng)
            assert inner_wiou(a, b, 1.0) == pytest.approx(wiou(a, b), abs=1e-12)

    def test_hand_component_sum(self):
        pred = BBox(0, 0, 2, 2)
        gt = BBox(1, 0, 3, 2)
        expected = wiou(pred, gt, 1.0) + iou(pred, gt) - inner_iou(pred, gt, 0.5)
        # components by hand: wiou 0.25, iou 1/3, inner(r=0.5) 0
        assert expected == pytest.approx(0.25 + 1 / 3 - 0.0, abs=1e-12)
        assert inner_wiou(pred, gt, 0.5, 1.0) == pytest.approx(expected, abs=1e-15)


class TestTensorPathAgreement:
    def test_float_and_tensor_paths_match(self, rng):
        for _ in range(100):
            a, b = random_int_box(rng), random_int_box(rng)
            assert float(iou_t(a, b).data) == pytest.approx(iou(a, b), abs=1e-12)

    def test_differentiable_wrt_pred_corners(self, rng):
        gt = BBox(10, 10, 30, 26)
        for _ in range(20):
            corners = np.array([
                rng.uniform(5, 20), rng.uniform(5, 20),
                rng.uniform(21, 40), rng.uniform(27, 45),
            ])
            pred = Tensor(corners, requires_grad=True)
            inner_wiou_t(pred, gt, ratio=0.75, gamma_w=1.0).backward()
            numeric = numeric_gradient(
                lambda c: float(inner_wiou_t(Tensor(c), gt, 0.75, 1.0).data), corners
            )
            assert_gradients_close(pred.grad, numeric)


BOX_PROPERTY = settings(PROPERTY, max_examples=200)


@st.composite
def boxes(draw):
    """Valid boxes on a small canvas, so that pairs often overlap."""
    coord = st.floats(-50.0, 50.0, allow_nan=False)
    extent = st.floats(1e-3, 60.0, allow_nan=False)
    x0, y0 = draw(coord), draw(coord)
    return BBox(x0, y0, x0 + draw(extent), y0 + draw(extent))


class TestIoUProperties:
    @BOX_PROPERTY
    @given(a=boxes(), b=boxes())
    def test_symmetric_and_bounded(self, a, b):
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0

    @BOX_PROPERTY
    @given(a=boxes())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0

    @BOX_PROPERTY
    @given(a=boxes(), b=boxes())
    def test_tensor_path_agrees(self, a, b):
        assert abs(float(iou_t(a, b).data) - iou(a, b)) <= 1e-12
