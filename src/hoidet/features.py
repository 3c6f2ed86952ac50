"""Appearance-feature provision.

The engine never touches a convolutional backbone. Instead it pools
features from dense feature maps with a simplified RoIAlign (one
bilinear sample per output bin), and sources those maps either from the
synthetic scene generator or from the per-image maps of an ``.npz``.

A :class:`SyntheticFeatureProvider` holds every map once, channel-last,
in one float64 buffer: scene ``s`` is a block of ``H_s * W_s`` cells of
``C`` values each, at its own row offset, with its own height, width
and stride. Each ``FeatureMap.data`` is a ``(C, H, W)`` view of that
block. Pooling is array-native: boxes of any scenes, each with its
scene's id, are pooled in one call of a vectorised bilinear gather that
reads whole ``C``-value cells, 64 boxes at a time (as Fast R-CNN's RoI
layer pools a mini-batch's RoIs over ``(batch index, box)`` rows);
:func:`roi_align` is the same gather for one box of one map. The
provider memoizes nothing. Training pools each distinct row its
draws name from its label table (a proposal or ground-truth box) once
per run and takes its batches' rows from those features;
inference still pools every box afresh, since almost every decoded box
is new and a memo would only add its lookups and grow with every box.
"""

from __future__ import annotations

import contextlib
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .geometry import COORD_LIMIT, FLOAT32_MAX, Box, box_array


@dataclass
class FeatureMap:
    """Dense per-image feature tensor of shape (channels, height, width).

    ``stride`` is the number of image pixels covered by one feature cell.
    Each cell must be finite and within float32's range, the heads'.
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
        if self.stride < 1 / COORD_LIMIT:
            raise ValueError(f"stride must be at least {1 / COORD_LIMIT:g}, "
                             f"got {self.stride}")
        # min and max fill no mask, unlike isfinite; NaN fails the test
        lo, hi = float(self.data.min()), float(self.data.max())
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError("feature map contains non-finite entries")
        if max(-lo, hi) > FLOAT32_MAX:
            raise ValueError(f"entry {lo if -lo > hi else hi!r} is beyond "
                             f"float32's largest value {FLOAT32_MAX!r}")

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
    """Flattened pooled feature of length channels * POOLED * POOLED."""

    values: np.ndarray
    out_of_bounds: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).ravel()


# the pooled resolution: a box pools to a POOLED x POOLED grid of bins
POOLED = 5


def roi_align(fmap: FeatureMap, box: Box) -> RoiFeature:
    """Pool one box of one map into a POOLED x POOLED grid, in the gather
    of :func:`_pool`."""
    cells = fmap.data.transpose(1, 2, 0).reshape(-1, fmap.channels)
    values, outside = _pool(
        cells, np.array([box.as_tuple()], dtype=np.float64),
        np.zeros(1, dtype=int), np.full(1, fmap.height),
        np.full(1, fmap.width), np.full(1, float(fmap.stride)))
    return RoiFeature(values[0], out_of_bounds=bool(outside[0]))


# boxes per block of the gather in _pool: its four (boxes, P, P, C)
# temporaries then hold at most about 0.2 MB each for 14-channel 5 x 5 bins
_POOL_BLOCK = 64


def _pool(cells, boxes, origin, height, width, stride):
    """Pool (N, 4) boxes, one bilinear sample per bin, in one vectorised
    gather run a block of boxes at a time.

    ``cells`` holds channel-last maps as (cells, C) rows; box ``i`` lies
    on the map whose ``height[i] x width[i]`` cells start at row
    ``origin[i]``, at ``stride[i]`` pixels per cell. Each box is
    converted to feature-map coordinates (divide by stride) and clipped
    to the map extent; each bin is sampled at its center, with cell
    centers at i + 0.5 and out-of-range coordinates replicating the
    border cell. The bins of a box form a separable grid, so the corner
    indices and blend fractions are computed per axis and broadcast,
    and each corner read fetches a whole cell of C values. Returns the
    (N, C * POOLED * POOLED) channel-major features and an (N,)
    ``out_of_bounds`` mask: a box entirely outside its map yields an
    all-zero row.
    """
    f = boxes / stride[:, None]
    outside = ((f[:, 2] <= 0) | (f[:, 3] <= 0) | (f[:, 0] >= width)
               | (f[:, 1] >= height))
    inside = ~outside
    f, origin = f[inside], origin[inside]
    height, width = height[inside], width[inside]
    x1 = np.maximum(f[:, 0], 0.0)
    y1 = np.maximum(f[:, 1], 0.0)
    x2 = np.minimum(f[:, 2], width)
    y2 = np.minimum(f[:, 3], height)
    steps = np.arange(POOLED) + 0.5
    cx = x1[:, None] + steps * ((x2 - x1) / POOLED)[:, None]
    cy = y1[:, None] + steps * ((y2 - y1) / POOLED)[:, None]
    # bin (i, j) of a box sits at (cx[j], cy[i]): y on axis 1, x on 2,
    # channels on 3
    left, right, fx = _corners(cx, width[:, None])
    upper, lower, fy = _corners(cy, height[:, None])
    left, right = left[:, None, :], right[:, None, :]
    upper = (origin[:, None] + upper * width[:, None])[:, :, None]
    lower = (origin[:, None] + lower * width[:, None])[:, :, None]
    fx, fy = fx[:, None, :, None], fy[:, :, None, None]
    gx = 1 - fx
    size = cells.shape[1] * POOLED * POOLED
    rows = np.empty((len(f), size))
    # a block of boxes at a time, so that the (boxes, P, P, C) temporaries
    # stay small however many boxes a call pools
    for b in range(0, len(f), _POOL_BLOCK):
        b = slice(b, b + _POOL_BLOCK)
        # take, not fancy indexing: it copies each whole cell in one go
        top = cells.take(upper[b] + left[b], axis=0)  # (n, P, P, C)
        top *= gx[b]
        corner = cells.take(upper[b] + right[b], axis=0)
        corner *= fx[b]
        top += corner
        bot = cells.take(lower[b] + left[b], axis=0)
        bot *= gx[b]
        corner = cells.take(lower[b] + right[b], axis=0)
        corner *= fx[b]
        bot += corner
        top *= 1 - fy[b]
        bot *= fy[b]
        top += bot
        rows[b].reshape(-1, cells.shape[1], POOLED, POOLED)[...] = (
            top.transpose(0, 3, 1, 2))
    if inside.all():
        return rows, outside
    out = np.zeros((len(boxes), size))
    out[inside] = rows
    return out, outside


def _corners(c: np.ndarray, size):
    """Lower and upper cell indices (clipped to ``[0, size)``) and the
    upper cell's blend weight of sample coordinates ``c``."""
    u = c - 0.5
    lo = np.floor(u).astype(int)
    return (np.minimum(np.maximum(lo, 0), size - 1),
            np.minimum(np.maximum(lo + 1, 0), size - 1), u - lo)


def map_buffer(shape: tuple, dtype=np.float64) -> np.ndarray:
    """A zeroed array of ``shape`` and ``dtype``, for a command's large
    tables (channel-last maps, training's pooled features) and for each
    painted synthetic map.

    Its memory is a private anonymous memory map of its own rather than
    a malloc block: freeing a malloc block this large raises glibc's
    mmap threshold to its size, after which the heap keeps every later
    temporary resident (about 9 MB more peak memory on a 200-scene
    training run). Each command fills a fresh buffer, so the map is
    advised to use transparent huge pages where ``mmap`` offers the
    advice: a 2 MB page faults once for 512 small ones (reading the
    23 MB maps of the ``train`` benchmark workload faulted 496 times,
    not 5,610). Where the kernel refuses the advice, the map keeps
    small pages."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    memory = mmap.mmap(-1, dtype.itemsize * max(count, 1),
                       flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):
            memory.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(memory, dtype, count=count).reshape(shape)


def place(buffer: np.ndarray, offset: int, data: np.ndarray) -> np.ndarray:
    """Copy a (C, H, W) map into ``buffer[offset:]`` channel-last; returns
    the (C, H, W) view of the copy."""
    c, h, w = data.shape
    block = buffer[offset:offset + data.size].reshape(h, w, c)
    block[...] = data.transpose(1, 2, 0)
    return block.transpose(2, 0, 1)


def _buffer_of(maps: list) -> tuple[np.ndarray, list]:
    """The channel-last vector holding ``maps`` (all of one channel
    count) and each map's offset in it: the float64 vector they already
    share when each map's data is a whole-cell block of it (as
    :func:`place` leaves it), else a new :func:`map_buffer` into which
    each map is copied, its data then rebound to a view of the copy."""
    base = maps[0].data.base if maps else None
    if (isinstance(base, np.ndarray) and base.ndim == 1
            and base.dtype == np.float64 and all(
                m.data.base is base
                and m.data.transpose(1, 2, 0).flags.c_contiguous
                for m in maps)):
        start = [(m.data.ctypes.data - base.ctypes.data) // 8 for m in maps]
        if all(o % maps[0].channels == 0 for o in start):
            return base, start
    sizes = [m.data.size for m in maps]
    vector = map_buffer((sum(sizes),))
    offsets = np.cumsum([0] + sizes)[:-1].tolist()
    for m, offset in zip(maps, offsets):
        m.data = place(vector, offset, m.data)
    return vector, offsets


class SyntheticFeatureProvider:
    """Pools features from per-scene feature maps held in one buffer.

    The provider holds every map once, channel-last, in one float64
    buffer (see the module docstring); each given ``FeatureMap``'s data
    becomes a view of it, so the caller's maps are not kept twice.
    Every call pools its boxes afresh in one gather; nothing is
    memoized, so memory does not grow with the boxes seen. The provider
    is a pure function of its inputs. Boxes are given as Box sequences
    or (N, 4) arrays. Maps of different channel counts are a
    ValueError.
    """

    def __init__(self, maps: dict[int, FeatureMap]):
        channels = sorted({m.channels for m in maps.values()})
        if len(channels) > 1:
            raise ValueError(f"feature maps differ in channel count: "
                             f"{', '.join(map(str, channels))}")
        self.maps = maps
        c = channels[0] if channels else 0
        self.feature_dim = c * POOLED * POOLED
        self._ids = np.array(sorted(maps), dtype=np.int64)
        ordered = [maps[i] for i in self._ids.tolist()]
        self.buffer, offsets = _buffer_of(ordered)
        # the buffer as (cells, C) rows; a buffer may end in a partial cell
        cells = len(self.buffer) // max(c, 1)
        self._cells = self.buffer[:cells * c].reshape(cells, c)
        self._origin = np.array(offsets, dtype=int) // max(c, 1)
        self._height = np.array([m.height for m in ordered], dtype=int)
        self._width = np.array([m.width for m in ordered], dtype=int)
        self._stride = np.array([float(m.stride) for m in ordered])

    def pooled_matrix(self, scene_id, boxes) -> np.ndarray:
        """Pooled rows of ``boxes``; ``scene_id`` is one scene's id, or
        (N,) ids, one per box. An unknown id is a KeyError."""
        boxes = box_array(boxes)
        ids = np.broadcast_to(np.asarray(scene_id, dtype=np.int64),
                              (len(boxes),))
        slot = np.searchsorted(self._ids, ids)
        known = slot < len(self._ids)
        known[known] = self._ids[slot[known]] == ids[known]
        if not known.all():
            raise KeyError(ids[~known][0].item())
        return _pool(self._cells, boxes, self._origin[slot],
                     self._height[slot], self._width[slot],
                     self._stride[slot])[0]
