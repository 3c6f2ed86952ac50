"""Appearance-feature provision.

The engine never touches a convolutional backbone. Instead it pools
features from dense feature maps with a simplified RoIAlign (one
bilinear sample per output bin), and sources those maps either from the
synthetic scene generator or from the per-image maps of an ``.npz``.

Pooling is array-native: :func:`pool_boxes` takes an ``(N, 4)`` box
array and samples every bin of every box in one vectorised bilinear
gather. :func:`roi_align` is its one-box form, and
:class:`SyntheticFeatureProvider` pools all boxes of a call in one such
gather, so a scene's boxes cost one gather, not one per box. Nothing
is memoized: in inference almost every box is new, so a memo would only
add its lookups and grow with every decoded box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, box_array


@dataclass
class FeatureMap:
    """Dense per-image feature tensor of shape (channels, height, width).

    ``stride`` is the number of image pixels covered by one feature cell.
    """

    data: np.ndarray
    stride: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"feature map must be 3-d, got shape {self.data.shape}")
        if 0 in self.data.shape:
            raise ValueError(f"feature map has an empty axis: shape {self.data.shape}")
        if not 0 < self.stride < math.inf:
            raise ValueError(f"stride must be positive and finite, got {self.stride}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature map contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass
class RoiFeature:
    """Flattened pooled feature of length channels * pooled * pooled."""

    values: np.ndarray
    out_of_bounds: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()


def roi_align(fmap: FeatureMap, box: Box, pooled: int = 7) -> RoiFeature:
    """Pool one box into a pooled x pooled grid; see :func:`pool_boxes`."""
    values, outside = pool_boxes(fmap, np.array([box.as_tuple()]), pooled)
    return RoiFeature(values[0], out_of_bounds=bool(outside[0]))


def pool_boxes(fmap: FeatureMap, boxes: np.ndarray, pooled: int = 7):
    """Pool (N, 4) boxes, one bilinear sample per bin, in one gather.

    Each box is converted to feature-map coordinates (divide by stride)
    and clipped to the map extent; each bin is sampled at its center,
    with cell centers at i + 0.5 and out-of-range coordinates
    replicating the border cell. The bins of a box form a separable
    grid, so the corner indices and blend fractions are computed per
    axis and broadcast. Returns the (N, channels * pooled * pooled)
    channel-major features and an (N,) ``out_of_bounds`` mask: a box
    entirely outside the map yields an all-zero row.
    """
    if pooled < 1:
        raise ValueError("pooled resolution must be >= 1")
    f = np.asarray(boxes, dtype=np.float64).reshape(-1, 4) / fmap.stride
    outside = ((f[:, 2] <= 0) | (f[:, 3] <= 0) | (f[:, 0] >= fmap.width)
               | (f[:, 1] >= fmap.height))
    out = np.zeros((len(f), fmap.channels * pooled * pooled))
    f = f[~outside]
    if len(f):
        x1 = np.maximum(f[:, 0], 0.0)
        y1 = np.maximum(f[:, 1], 0.0)
        x2 = np.minimum(f[:, 2], float(fmap.width))
        y2 = np.minimum(f[:, 3], float(fmap.height))
        steps = np.arange(pooled) + 0.5
        cx = x1[:, None] + steps * ((x2 - x1) / pooled)[:, None]
        cy = y1[:, None] + steps * ((y2 - y1) / pooled)[:, None]
        # bin (i, j) of a box sits at (cx[j], cy[i]): y on axis 2, x on 3
        left, right, fx = (a[:, None, :] for a in _corners(cx, fmap.width))
        upper, lower, fy = (a[:, :, None] for a in _corners(cy, fmap.height))
        d = fmap.data
        gx = 1 - fx
        top = d[:, upper, left]  # (C, n, P, P)
        top *= gx
        corner = d[:, upper, right]
        corner *= fx
        top += corner
        bot = d[:, lower, left]
        bot *= gx
        corner = d[:, lower, right]
        corner *= fx
        bot += corner
        top *= 1 - fy
        bot *= fy
        top += bot
        out[~outside] = top.transpose(1, 0, 2, 3).reshape(len(f), -1)
    return out, outside


def _corners(c: np.ndarray, size: int):
    """Lower and upper cell indices (clipped to ``[0, size)``) and the
    upper cell's blend weight of sample coordinates ``c``."""
    u = c - 0.5
    lo = np.floor(u).astype(int)
    return (np.minimum(np.maximum(lo, 0), size - 1),
            np.minimum(np.maximum(lo + 1, 0), size - 1), u - lo)


class SyntheticFeatureProvider:
    """Pools features from per-scene synthetic feature maps.

    Every call pools its boxes afresh in one :func:`pool_boxes` gather;
    nothing is memoized, so memory does not grow with the boxes seen.
    The provider is a pure function of its inputs. Boxes are given as
    Box sequences or (N, 4) arrays.
    """

    def __init__(self, maps: dict[int, FeatureMap], pooled: int = 5):
        self.maps = maps
        self.pooled = pooled
        first = next(iter(maps.values())) if maps else None
        self.feature_dim = (first.channels * pooled * pooled) if first else 0

    def pooled_feature(self, scene_id: int, box: Box) -> np.ndarray:
        return self.pooled_matrix(scene_id, [box])[0]

    def pooled_matrix(self, scene_id: int, boxes) -> np.ndarray:
        return pool_boxes(self.maps[scene_id], box_array(boxes),
                          self.pooled)[0]
