"""Axis-aligned box algebra: IoU, per-category NMS, and the relative
box encoding that expresses a target box in the coordinate frame of a
person box.

Boxes are stored as corner pairs (x1, y1, x2, y2) in image pixels;
centers and sizes are always derived, never stored. ``Box`` is the
single-box form used at I/O; sets of boxes in the inference hot path
are ``(N, 4)`` float arrays of the same corners (:func:`box_array`).
The array functions repeat the scalar arithmetic operation for
operation, so both forms agree bit for bit; logs and exps go through
``math`` element by element because numpy's vectorised ``log`` and
``exp`` round differently on a few inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Detectron / Fast R-CNN bound on predicted log size ratios, so that a
# wild regression output cannot overflow exp or collapse a box
BBOX_XFORM_CLIP = math.log(1000.0 / 16.0)

MIN_SIZE = 1e-3  # the least extent clip_boxes keeps of a box

# the largest corner magnitude the proposals and annotations readers
# accept: boxes within it have finite areas and IoUs, and finite
# feature-map coordinates on a map of stride at least 1 / COORD_LIMIT
# (the least stride FeatureMap takes)
COORD_LIMIT = 1e150


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with strictly positive width and height."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(
                f"degenerate box: ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def w(self) -> float:
        return self.x2 - self.x1

    @property
    def h(self) -> float:
        return self.y2 - self.y1

    @property
    def cx(self) -> float:
        return (self.x1 + self.x2) / 2.0

    @property
    def cy(self) -> float:
        return (self.y1 + self.y2) / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class RelOffset:
    """Dimensionless offset of one box relative to a reference box:
    normalized center shift plus log size ratios."""

    tx: float
    ty: float
    tw: float
    th: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.tx, self.ty, self.tw, self.th)


@dataclass(frozen=True)
class Detection:
    """A scored box with its category label."""

    box: Box
    category: str
    score: float


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area; 0 for disjoint boxes."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def box_array(boxes) -> np.ndarray:
    """(N, 4) corner array of a sequence of boxes (or of an array)."""
    if isinstance(boxes, np.ndarray):
        return boxes.astype(np.float64, copy=False).reshape(-1, 4)
    return np.array([b.as_tuple() for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou` over broadcasting (..., 4) corner arrays."""
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    _, _, aw, ah = _center_size(a)
    _, _, bw, bh = _center_size(b)
    return np.divide(inter, aw * ah + bw * bh - inter,
                     out=np.zeros(inter.shape), where=(iw > 0.0) & (ih > 0.0))


def nms(boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray,
        iou_thresh: float) -> np.ndarray:
    """Greedy score-descending suppression, independent per label.

    Returns the indices of the survivors sorted by descending score;
    ties are broken by index so the result does not depend on input
    order beyond scores. No two survivors with the same label overlap
    above ``iou_thresh``. IoU is computed once for each pair of boxes
    that share a label, and the greedy pass visits only the pairs that
    overlap above the threshold, so time and memory grow with the
    squared sizes of the label groups, not of the input: one call can
    take many images' candidates with one label per (image, class).
    """
    boxes = box_array(boxes)
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    boxes, labels = boxes[order], np.asarray(labels)[order]
    # score ranks grouped by label, each group in rank order; every rank
    # is paired with the same-label ranks after it
    grouped = np.argsort(labels, kind="stable")
    same = labels[grouped]
    later = np.searchsorted(same, same, side="right") - np.arange(len(same)) - 1
    first = np.repeat(np.arange(len(same)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(
        np.cumsum(later) - later, later)
    p, q = grouped[first], grouped[second]
    over = box_iou(boxes[p], boxes[q]) > iou_thresh
    # pairs come in rank order of their first box within each group, so
    # a box's own fate is settled before it suppresses
    alive = [True] * len(order)
    for i, j in zip(p[over].tolist(), q[over].tolist()):
        if alive[i]:
            alive[j] = False
    return order[np.array(alive, dtype=bool)]


def encode_rel(b_o: Box, b_h: Box) -> RelOffset:
    """Encode ``b_o`` relative to ``b_h``: center shift normalized by the
    reference size, and log width/height ratios (center convention)."""
    return RelOffset(
        tx=(b_o.cx - b_h.cx) / b_h.w,
        ty=(b_o.cy - b_h.cy) / b_h.h,
        tw=math.log(b_o.w / b_h.w),
        th=math.log(b_o.h / b_h.h),
    )


def encode_rels(b_o: np.ndarray, b_h: np.ndarray) -> np.ndarray:
    """:func:`encode_rel` over broadcasting (..., 4) corner arrays."""
    ocx, ocy, ow, oh = _center_size(b_o)
    hcx, hcy, hw, hh = _center_size(b_h)
    return np.stack([(ocx - hcx) / hw, (ocy - hcy) / hh,
                     _per_element(math.log, ow / hw),
                     _per_element(math.log, oh / hh)], axis=-1)


def decode_rel(t, b_h: Box) -> Box:
    """Inverse of :func:`encode_rel` while the log size ratios lie within
    +-``BBOX_XFORM_CLIP``; larger magnitudes are clamped to it. Accepts a
    RelOffset or any 4-sequence (tx, ty, tw, th)."""
    if isinstance(t, RelOffset):
        t = t.as_tuple()
    return Box(*decode_corners([float(v) for v in t], b_h.as_tuple()))


def decode_corners(t, b_h) -> tuple:
    """:func:`decode_rel` of the 4-sequence ``t`` from the corners ``b_h``,
    in Python floats, as a corner tuple; where ``decode_rel`` raises, the
    corners round together (``x2 <= x1`` or ``y2 <= y1``)."""
    x1, y1, x2, y2 = b_h
    tx, ty, tw, th = t
    w, h = x2 - x1, y2 - y1
    cx = (x1 + x2) / 2.0 + tx * w
    cy = (y1 + y2) / 2.0 + ty * h
    w *= math.exp(min(max(tw, -BBOX_XFORM_CLIP), BBOX_XFORM_CLIP))
    h *= math.exp(min(max(th, -BBOX_XFORM_CLIP), BBOX_XFORM_CLIP))
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def decode_rels(t: np.ndarray, b_h: np.ndarray) -> np.ndarray:
    """:func:`decode_rel` over broadcasting (..., 4) arrays -> corners."""
    hcx, hcy, hw, hh = _center_size(b_h)
    cx = hcx + t[..., 0] * hw
    cy = hcy + t[..., 1] * hh
    wh = np.clip(t[..., 2:], -BBOX_XFORM_CLIP, BBOX_XFORM_CLIP)
    w = hw * _per_element(math.exp, wh[..., 0])
    h = hh * _per_element(math.exp, wh[..., 1])
    return np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0],
                    axis=-1)


def _center_size(b: np.ndarray):
    """Center x, center y, width and height of (..., 4) corners, with the
    arithmetic of the ``Box`` properties."""
    return ((b[..., 0] + b[..., 2]) / 2.0, (b[..., 1] + b[..., 3]) / 2.0,
            b[..., 2] - b[..., 0], b[..., 3] - b[..., 1])


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    """Scalar ``math`` function applied to every element of ``x``."""
    x = np.asarray(x)
    return np.array([fn(v) for v in x.ravel().tolist()],
                    dtype=np.float64).reshape(x.shape)


def clip_boxes(b: np.ndarray, width: float, height: float) -> np.ndarray:
    """Clip (..., 4) corners to ``[0, width] x [0, height]``, keeping at
    least ``MIN_SIZE`` of extent where the coordinates are fine enough to
    hold it."""
    x1 = np.minimum(np.maximum(b[..., 0], 0.0), width - MIN_SIZE)
    y1 = np.minimum(np.maximum(b[..., 1], 0.0), height - MIN_SIZE)
    x2 = np.minimum(np.maximum(b[..., 2], x1 + MIN_SIZE), width)
    y2 = np.minimum(np.maximum(b[..., 3], y1 + MIN_SIZE), height)
    return np.stack([x1, y1, x2, y2], axis=-1)
