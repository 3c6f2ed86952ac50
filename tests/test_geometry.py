import math

import numpy as np
import pytest

from hoidet.geometry import (Box, Detection, RelOffset, clip_boxes, decode_corners,
                             decode_rel, encode_rel, iou, nms)


def random_box(rng, lo=0.0, hi=100.0, min_size=1.0, max_size=40.0):
    w = rng.uniform(min_size, max_size)
    h = rng.uniform(min_size, max_size)
    x1 = rng.uniform(lo, hi - w)
    y1 = rng.uniform(lo, hi - h)
    return Box(x1, y1, x1 + w, y1 + h)


class TestBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 10)
        with pytest.raises(ValueError):
            Box(0, 5, 10, 5)
        with pytest.raises(ValueError):
            Box(3, 0, 1, 10)

    def test_derived_quantities(self):
        b = Box(2, 4, 10, 10)
        assert b.w == 8 and b.h == 6
        assert b.cx == 6 and b.cy == 7
        assert b.area == 48


class TestIou:
    def test_identity(self):
        b = Box(3, 4, 17, 20)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_half_shift(self):
        # intersection 50, union 150
        got = iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            ab, ba = iou(a, b), iou(b, a)
            assert ab == ba
            assert 0.0 <= ab <= 1.0

    def test_one_iff_equal(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            if a != b:
                assert iou(a, b) < 1.0


def _nms(dets, thresh):
    """The detections that :func:`nms` keeps, in its order."""
    keep = nms([d.box for d in dets], [d.score for d in dets],
               [d.category for d in dets], thresh)
    return [dets[k] for k in keep]


class TestNms:
    def test_full_overlap(self):
        b = Box(0, 0, 10, 10)
        dets = [Detection(b, "cup", 0.8), Detection(b, "cup", 0.9)]
        out = _nms(dets, 0.3)
        assert len(out) == 1 and out[0].score == 0.9

    def test_disjoint_survive(self):
        dets = [
            Detection(Box(0, 0, 10, 10), "cup", 0.2),
            Detection(Box(50, 50, 60, 60), "cup", 0.9),
        ]
        out = _nms(dets, 0.3)
        assert len(out) == 2
        assert [d.score for d in out] == [0.9, 0.2]

    def test_greedy_trace(self):
        # Pairwise IoUs: (A,B)=0.5, (A,C)=0.1, (B,C)=0.1 -> survivors {A, C}.
        a = Box(0, 0, 30, 10)
        b = Box(10, 0, 40, 10)  # inter 20*10, union 600-200 -> 0.5
        c = Box(36, 0, 66, 10)  # with a: inter 0; with b: inter 4*10=40, union 560
        assert iou(a, b) == pytest.approx(0.5)
        assert iou(a, c) == pytest.approx(0.0, abs=1e-12)
        assert iou(b, c) == pytest.approx(40.0 / 560.0)
        dets = [Detection(a, "x", 0.9), Detection(b, "x", 0.8), Detection(c, "x", 0.7)]
        out = _nms(dets, 0.3)
        assert [d.box for d in out] == [a, c]

    def test_per_category_independent(self):
        b = Box(0, 0, 10, 10)
        dets = [Detection(b, "cup", 0.9), Detection(b, "dog", 0.8)]
        assert len(_nms(dets, 0.3)) == 2

    def test_subset_and_order_invariance(self):
        rng = np.random.default_rng(11)
        dets = [
            Detection(random_box(rng), rng.choice(["a", "b"]), float(rng.uniform()))
            for _ in range(30)
        ]
        out = _nms(dets, 0.4)
        assert all(d in dets for d in out)
        perm = [dets[i] for i in rng.permutation(len(dets))]
        out_perm = _nms(perm, 0.4)
        assert out == out_perm
        # no surviving same-category pair above the threshold
        for i, d in enumerate(out):
            for e in out[i + 1:]:
                if d.category == e.category:
                    assert iou(d.box, e.box) <= 0.4

    def test_empty(self):
        assert _nms([], 0.3) == []


class TestRelEncoding:
    def test_identity(self):
        b = Box(3, 5, 20, 31)
        t = encode_rel(b, b)
        assert t == RelOffset(0.0, 0.0, 0.0, 0.0)

    def test_double_size_shift(self):
        t = encode_rel(Box(5, 5, 25, 25), Box(0, 0, 10, 10))
        assert t.tx == pytest.approx(1.0)
        assert t.ty == pytest.approx(1.0)
        assert t.tw == pytest.approx(math.log(2.0))
        assert t.th == pytest.approx(math.log(2.0))

    def test_left_neighbor(self):
        t = encode_rel(Box(-10, 0, 0, 10), Box(0, 0, 10, 10))
        assert t == RelOffset(-1.0, 0.0, 0.0, 0.0)

    def test_decode_identity(self):
        b = Box(2, 3, 9, 11)
        assert decode_rel(RelOffset(0, 0, 0, 0), b) == b

    def test_decode_hand_case(self):
        got = decode_rel(RelOffset(1.0, 1.0, math.log(2), math.log(2)), Box(0, 0, 10, 10))
        for g, e in zip(got.as_tuple(), (5, 5, 25, 25)):
            assert g == pytest.approx(e, abs=1e-12)

    def test_huge_size_deltas_are_clamped(self):
        ref = Box(0.0, 0.0, 10.0, 20.0)
        big = decode_rel((0.0, 0.0, 800.0, 800.0), ref)
        assert all(math.isfinite(v) for v in big.as_tuple())
        assert big.w == pytest.approx(10.0 * 1000.0 / 16.0)
        assert big.h == pytest.approx(20.0 * 1000.0 / 16.0)
        small = decode_rel((0.0, 0.0, -800.0, -800.0), ref)
        assert small.w == pytest.approx(10.0 * 16.0 / 1000.0)

    def test_decode_corners_are_decode_rel_corners(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            b_h = random_box(rng)
            t = rng.normal(size=4).tolist()
            assert (decode_corners(t, b_h.as_tuple())
                    == decode_rel(t, b_h).as_tuple())
        # a 5-pixel target of a box at 1e17, where floats lie 16 apart
        far = (1e17, 1e17, 1e17 + 64, 1e17 + 64)
        x1, y1, x2, y2 = decode_corners((0.0, 0.0, -2.5, 0.0), far)
        assert x1 == x2 and y1 < y2
        with pytest.raises(ValueError, match="degenerate"):
            decode_rel((0.0, 0.0, -2.5, 0.0), Box(*far))

    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            b_h = random_box(rng)
            b_o = random_box(rng)
            back = decode_rel(encode_rel(b_o, b_h), b_h)
            for g, e in zip(back.as_tuple(), b_o.as_tuple()):
                assert g == pytest.approx(e, rel=1e-9, abs=1e-9)


class TestClipBox:
    def test_inside_untouched(self):
        b = clip_boxes(np.array([1.0, 2.0, 3.0, 4.0]), 10, 10)
        np.testing.assert_array_equal(b, [1, 2, 3, 4])

    def test_clips_and_stays_valid(self):
        rng = np.random.default_rng(13)
        x1, y1 = rng.uniform(-50, 150, (2, 200))
        x2, y2 = x1 + rng.uniform(-5, 60, 200), y1 + rng.uniform(-5, 60, 200)
        b = clip_boxes(np.stack([x1, y1, x2, y2], axis=-1), 100, 80)
        assert b.shape == (200, 4)
        for x1, y1, x2, y2 in b:
            assert 0 <= x1 < x2 <= 100
            assert 0 <= y1 < y2 <= 80
