"""Appearance-feature provision.

The engine never touches a convolutional backbone. Instead it pools
features from dense feature maps with a simplified RoIAlign (one
bilinear sample per output bin), and sources those maps either from the
synthetic scene generator or from precomputed feature files.

Pooling is array-native: :func:`pool_boxes` takes an ``(N, 4)`` box
array and samples every bin of every box in one vectorised bilinear
gather. :func:`roi_align` is its one-box form, and
:class:`SyntheticFeatureProvider` pools all memo misses of a call in one
such gather, so a scene's boxes cost one gather, not one per box.

Feature file format ("HOIF"): little-endian binary with header
``magic b"HOIF" | version u32 | feature dim u32 | entry count u64``
followed by ``entry count`` records of ``key u64 | dim * f32``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box

HOIF_MAGIC = b"HOIF"
HOIF_VERSION = 1


class FeatureFileError(Exception):
    """Malformed or incompatible feature file."""


class FeatureKeyError(KeyError):
    """Requested key is not present in a feature file."""


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
        if self.stride <= 0:
            raise ValueError("stride must be positive")
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


def _bilinear(data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample (C, H, W) data at continuous coords, cell centers at i + 0.5.

    Out-of-range coordinates replicate the border cell, so samples are
    always convex combinations of map values.
    """
    c, h, w = data.shape
    u = xs - 0.5
    v = ys - 0.5
    x0 = np.floor(u).astype(int)
    y0 = np.floor(v).astype(int)
    fx = u - x0
    fy = v - y0
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    v00 = data[:, y0c, x0c]
    v01 = data[:, y0c, x1c]
    v10 = data[:, y1c, x0c]
    v11 = data[:, y1c, x1c]
    top = v00 * (1 - fx) + v01 * fx
    bot = v10 * (1 - fx) + v11 * fx
    return top * (1 - fy) + bot * fy


def roi_align(fmap: FeatureMap, box: Box, pooled: int = 7) -> RoiFeature:
    """Pool one box into a pooled x pooled grid; see :func:`pool_boxes`."""
    values, outside = pool_boxes(fmap, np.array([box.as_tuple()]), pooled)
    return RoiFeature(values[0], out_of_bounds=bool(outside[0]))


def pool_boxes(fmap: FeatureMap, boxes: np.ndarray, pooled: int = 7):
    """Pool (N, 4) boxes, one bilinear sample per bin, in one gather.

    Each box is converted to feature-map coordinates (divide by stride)
    and clipped to the map extent; each bin is sampled at its center.
    Returns the (N, channels * pooled * pooled) channel-major features
    and an (N,) ``out_of_bounds`` mask: a box entirely outside the map
    yields an all-zero row.
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
        # bin (i, j) of a box sits at (cx[j], cy[i]), row-major
        grid = (len(f), pooled, pooled)
        xs = np.broadcast_to(cx[:, None, :], grid).reshape(len(f), -1)
        ys = np.broadcast_to(cy[:, :, None], grid).reshape(len(f), -1)
        samples = _bilinear(fmap.data, xs, ys)  # (C, n, P*P)
        out[~outside] = samples.transpose(1, 0, 2).reshape(len(f), -1)
    return out, outside


class SyntheticFeatureProvider:
    """Pools features from per-scene synthetic feature maps.

    Pooled vectors are memoized per (scene id, box) since scenes are
    immutable; the provider is a pure function of its inputs. Boxes are
    given as Box sequences or (N, 4) arrays.
    """

    def __init__(self, maps: dict[int, FeatureMap], pooled: int = 5):
        self.maps = maps
        self.pooled = pooled
        self._cache: dict[tuple[int, tuple[float, float, float, float]], np.ndarray] = {}
        first = next(iter(maps.values())) if maps else None
        self.feature_dim = (first.channels * pooled * pooled) if first else 0

    def pooled_feature(self, scene_id: int, box: Box) -> np.ndarray:
        return self._rows(scene_id, [box])[0]

    def pooled_matrix(self, scene_id: int, boxes) -> np.ndarray:
        if len(boxes) == 0:
            return np.zeros((0, self.feature_dim))
        return np.stack(self._rows(scene_id, boxes))

    def _rows(self, scene_id: int, boxes) -> list[np.ndarray]:
        """Memoized rows; the distinct misses are pooled in one gather."""
        corners = (boxes.tolist() if isinstance(boxes, np.ndarray)
                   else [b.as_tuple() for b in boxes])
        keys = [(scene_id, tuple(c)) for c in corners]
        misses = list(dict.fromkeys(k for k in keys if k not in self._cache))
        if misses:
            values, _ = pool_boxes(self.maps[scene_id],
                                   np.array([k[1] for k in misses]),
                                   self.pooled)
            self._cache.update(zip(misses, values))
        return [self._cache[k] for k in keys]


def write_feature_file(path, entries: dict[int, np.ndarray], dim: int) -> None:
    """Write a HOIF container. Every entry must have length ``dim``."""
    with open(path, "wb") as f:
        f.write(HOIF_MAGIC)
        f.write(struct.pack("<IIQ", HOIF_VERSION, dim, len(entries)))
        for key in sorted(entries):
            vec = np.asarray(entries[key], dtype="<f4").ravel()
            if vec.size != dim:
                raise FeatureFileError(
                    f"entry {key} has dim {vec.size}, file declares {dim}"
                )
            f.write(struct.pack("<Q", key))
            f.write(vec.tobytes())


@dataclass
class FeatureFile:
    """In-memory view of a HOIF feature file."""

    dim: int
    entries: dict[int, np.ndarray] = field(default_factory=dict)

    def get(self, key: int) -> RoiFeature:
        try:
            return RoiFeature(self.entries[key])
        except KeyError:
            raise FeatureKeyError(key) from None


def read_feature_file(path, expected_dim: int | None = None) -> FeatureFile:
    """Load a HOIF container fully into memory.

    Raises :class:`FeatureFileError` on bad magic, version, truncation,
    or when ``expected_dim`` disagrees with the file header.
    """
    with open(path, "rb") as f:
        raw = f.read()
    head = struct.calcsize("<4sIIQ")
    if len(raw) < head:
        raise FeatureFileError("file too short for header")
    magic, version, dim, count = struct.unpack_from("<4sIIQ", raw, 0)
    if magic != HOIF_MAGIC:
        raise FeatureFileError(f"bad magic {magic!r}")
    if version != HOIF_VERSION:
        raise FeatureFileError(f"unsupported version {version}")
    if expected_dim is not None and dim != expected_dim:
        raise FeatureFileError(f"file dim {dim} != configured dim {expected_dim}")
    rec = 8 + 4 * dim
    if len(raw) != head + count * rec:
        raise FeatureFileError("file length does not match header")
    out: dict[int, np.ndarray] = {}
    off = head
    for _ in range(count):
        (key,) = struct.unpack_from("<Q", raw, off)
        vec = np.frombuffer(raw, dtype="<f4", count=dim, offset=off + 8)
        out[key] = vec.astype(np.float64)
        off += rec
    return FeatureFile(dim=dim, entries=out)


def box_key(image_id: int, index: int) -> int:
    """Stable u64 key for the box at ``index`` within an image: the key
    scheme used when exporting or importing precomputed features."""
    if index >= (1 << 20):
        raise ValueError("box index too large for key scheme")
    return (image_id << 20) | index


class FileFeatureProvider:
    """Serves precomputed features keyed by (image id, box index).

    After :meth:`bind_boxes` registers an image's box list, the provider
    also answers by box (``pooled_feature`` / ``pooled_matrix``), making
    it interchangeable with :class:`SyntheticFeatureProvider` wherever
    every queried box comes from the registered lists.
    """

    def __init__(self, path, expected_dim: int | None = None):
        self.file = read_feature_file(path, expected_dim)
        self.feature_dim = self.file.dim
        self._bound: dict[tuple[int, tuple], int] = {}

    def lookup(self, key: int) -> np.ndarray:
        return self.file.get(key).values

    def bind_boxes(self, scene_id: int, boxes: list[Box]) -> None:
        for i, b in enumerate(boxes):
            self._bound[(scene_id, b.as_tuple())] = box_key(scene_id, i)

    def pooled_feature(self, scene_id: int, box: Box) -> np.ndarray:
        key = self._bound.get((scene_id, box.as_tuple()))
        if key is None:
            raise FeatureKeyError((scene_id, box.as_tuple()))
        return self.lookup(key)

    def pooled_matrix(self, scene_id: int, boxes: list[Box]) -> np.ndarray:
        if not boxes:
            return np.zeros((0, self.feature_dim))
        return np.stack([self.pooled_feature(scene_id, b) for b in boxes])
