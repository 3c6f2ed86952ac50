"""Annotations, the action registry, and a synthetic scene generator.

Scenes are stored in one neutral JSON layout regardless of origin:

    {
      "version": 1,
      "actions": [{"name": "carry", "role": "object"}, ...],
      "categories": ["parcel", "ball", ...],
      "scenes": [
        {"image_id": 0, "width": 128.0, "height": 128.0,
         "persons": [[x1, y1, x2, y2], ...],
         "objects": [{"box": [...], "category": "ball", "ignore": false}, ...],
         "interactions": [
             {"person": 0, "action": "throw", "role": "object", "object": 1},
             {"person": 0, "action": "stand", "role": "none", "object": null}]}
      ]
    }

Converters from upstream dataset formats are expected to emit this layout;
the engine never parses third-party formats directly. The reader checks a
file in one ordered pass, naming the first fault; each scene's boxes are
views of one array per file (see :class:`SceneAnnotation`).

The synthetic generator builds scenes whose person appearance provably
determines the target location: each person carries a latent code (action
one-hot plus a 2-d pose vector) painted into the feature map inside the
person box, and every interaction target is placed at a fixed affine
function of that code plus bounded uniform noise. Pooling features over
the person box therefore recovers exactly the information needed to
regress the target offset. Each scene draws from its own
``default_rng((seed, scene))`` stream the doubles that one
``Generator.uniform``, ``choice`` or ``normal`` call per draw would, but
through cheaper calls. The generator holds boxes as corner tuples and
arrays, and a scene's proposals are one ``(N, 4)`` corner array
(:func:`jitter_proposals`); it builds no ``Box``. Nor does it hold a
feature map: each access of a scene's ``feature_map`` paints a fresh map
from its boxes and codes (see :class:`SyntheticScene`), so a map exists
only where a caller consumes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .features import FeatureMap, map_buffer
from .geometry import (BBOX_XFORM_CLIP, COORD_LIMIT, Box, clip_boxes,
                       corners_in_limit, decode_corners)

ROLE_NONE = "none"
ROLE_OBJECT = "object"
ROLE_INSTRUMENT = "instrument"
ROLES = (ROLE_NONE, ROLE_OBJECT, ROLE_INSTRUMENT)

PERSON_CATEGORY = "person"

ANNOTATION_VERSION = 1


class AnnotationError(ValueError):
    """Raised for malformed annotation files; the message names the record."""


_NUMBERS = {float, int}  # the types of a JSON number (not of a boolean)
_INT64 = range(-2**63, 2**63)  # image ids, which are held as int64 arrays
_INF = float("inf")
# JSON names of the types the loader checks for (float stands for any
# number), and of the values it finds
_EXPECTED = {list: "a list", dict: "an object", str: "a string",
             bool: "a boolean", int: "an integer", float: "a number"}
_FOUND = {list: "list", dict: "object", str: "string", bool: "boolean",
          int: "integer", float: "number", type(None): "null"}


def _typed(value, kind: type, where: str):
    """``value`` if it is of JSON type ``kind`` (a key of ``_EXPECTED``;
    a boolean is not a number), else AnnotationError naming ``where``."""
    if type(value) is kind or (kind is float and type(value) in _NUMBERS):
        return value
    raise AnnotationError(f"{where}: expected {_EXPECTED[kind]}, got "
                          f"{_FOUND.get(type(value), type(value).__name__)}")


@dataclass(frozen=True)
class ActionSpec:
    name: str
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise AnnotationError(f"action {self.name!r}: invalid role {self.role!r}")

    @property
    def key(self) -> str:
        return self.name if self.role == ROLE_NONE else f"{self.name}_{self.role}"


class ActionRegistry:
    """Ordered, closed set of (verb, role) entries.

    The entry index doubles as the action axis of every model head, so
    registries must be identical between training and inference; they are
    serialized into checkpoints for that reason.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        seen = {}
        for i, e in enumerate(self.entries):
            if not isinstance(e, ActionSpec):
                raise AnnotationError(f"registry entry {i} is not an ActionSpec")
            if (e.name, e.role) in seen:
                raise AnnotationError(f"duplicate registry entry {e.name}/{e.role}")
            seen[(e.name, e.role)] = i
        self._index = seen
        self._by_name = {}
        for e in self.entries:
            self._by_name.setdefault(e.name, []).append(e)
        for name, specs in self._by_name.items():  # verbs in entry order
            if len(specs) > 1 and any(e.role == ROLE_NONE for e in specs):
                raise AnnotationError(
                    f"verb {name!r} mixes role 'none' with typed roles"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def verbs(self):
        return list(self._by_name)

    def index(self, name: str, role: str) -> int:
        try:
            return self._index[(name, role)]
        except KeyError:
            raise AnnotationError(f"no registry entry for {name!r} with role {role!r}")

    def has(self, name: str, role: str) -> bool:
        return (name, role) in self._index

    def entries_for(self, name: str):
        return list(self._by_name.get(name, []))

    def to_json(self):
        return [{"name": e.name, "role": e.role} for e in self.entries]

    @classmethod
    def from_json(cls, raw) -> "ActionRegistry":
        if not isinstance(raw, list):
            raise AnnotationError("actions must be a list")
        try:
            return cls([ActionSpec(name=_typed(d["name"], str,
                                               f"actions[{i}].name"),
                                   role=_typed(d["role"], str,
                                               f"actions[{i}].role"))
                        for i, d in enumerate(raw)])
        except (KeyError, TypeError) as exc:
            raise AnnotationError(f"malformed action entry ({exc!r})")


# V-COCO-style registry: 26 verbs; cut, eat and hit each take both an
# instrument and a direct object, giving 29 role entries in total.
_DEFAULT_ENTRIES = [
    ("carry", ROLE_OBJECT),
    ("catch", ROLE_OBJECT),
    ("cut", ROLE_OBJECT),
    ("cut", ROLE_INSTRUMENT),
    ("drink", ROLE_INSTRUMENT),
    ("eat", ROLE_OBJECT),
    ("eat", ROLE_INSTRUMENT),
    ("hit", ROLE_OBJECT),
    ("hit", ROLE_INSTRUMENT),
    ("hold", ROLE_OBJECT),
    ("jump", ROLE_INSTRUMENT),
    ("kick", ROLE_OBJECT),
    ("lay", ROLE_INSTRUMENT),
    ("look", ROLE_OBJECT),
    ("point", ROLE_NONE),
    ("read", ROLE_OBJECT),
    ("ride", ROLE_INSTRUMENT),
    ("run", ROLE_NONE),
    ("sit", ROLE_INSTRUMENT),
    ("skateboard", ROLE_INSTRUMENT),
    ("ski", ROLE_INSTRUMENT),
    ("smile", ROLE_NONE),
    ("snowboard", ROLE_INSTRUMENT),
    ("stand", ROLE_NONE),
    ("surf", ROLE_INSTRUMENT),
    ("talk_on_phone", ROLE_INSTRUMENT),
    ("throw", ROLE_OBJECT),
    ("walk", ROLE_NONE),
    ("work_on_computer", ROLE_INSTRUMENT),
]


def default_registry() -> ActionRegistry:
    return ActionRegistry(ActionSpec(n, r) for n, r in _DEFAULT_ENTRIES)


class Interaction(NamedTuple):
    """One interaction record: the acting person's index, the (action,
    role) entry and, for a typed role, the target object's index. A
    named tuple, as a file holds hundreds of them."""

    person: int
    action: str
    role: str
    object: int | None = None


@dataclass
class SceneAnnotation:
    """One image's ground truth, its boxes held as arrays.

    ``persons`` is a (P, 4) float64 array of person box corners and
    ``objects`` an (O, 4) one of object boxes; beside them,
    ``categories`` names each object's category and ``ignore`` (O,)
    flags the objects whose annotation is known non-exhaustive, which
    never serve as classification negatives (no flags by default).
    Interaction records index rows of ``persons`` and ``objects``. The
    scenes of a loaded file hold views of one box array per file.
    """

    image_id: int
    width: float
    height: float
    persons: np.ndarray
    objects: np.ndarray
    categories: tuple
    interactions: list
    ignore: np.ndarray | None = None

    def __post_init__(self):
        self.persons = np.asarray(self.persons, np.float64).reshape(-1, 4)
        self.objects = np.asarray(self.objects, np.float64).reshape(-1, 4)
        self.categories = tuple(self.categories)
        self.ignore = np.asarray(
            np.zeros(len(self.objects), bool) if self.ignore is None
            else self.ignore, bool)

    def validate(self, registry: ActionRegistry, where: str = "scene"):
        _check_records(self.width, self.height, self.interactions,
                       len(self.persons), len(self.objects), registry, where)
        return self


def _check_records(width: float, height: float, interactions, n_persons: int,
                   n_objects: int, registry: ActionRegistry, where: str):
    """AnnotationError naming the first fault of a scene's image size or
    interaction records, given its person and object counts."""
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise AnnotationError(f"{where}: image size must be positive and "
                              f"finite, got {width} x {height}")
    for j, (person, action, role, obj) in enumerate(interactions):
        if not registry.has(action, role):
            raise AnnotationError(f"{where}.interactions[{j}]: unknown action "
                                  f"{action!r} with role {role!r}")
        if not (0 <= person < n_persons):
            raise AnnotationError(f"{where}.interactions[{j}]: person index "
                                  f"{person} out of range")
        if role == ROLE_NONE:
            if obj is not None:
                raise AnnotationError(f"{where}.interactions[{j}]: role "
                                      f"'none' must not reference an object")
        elif obj is None or not (0 <= obj < n_objects):
            raise AnnotationError(f"{where}.interactions[{j}]: object index "
                                  f"{obj} out of range")


def _list_at(raw: dict, key: str, prefix: str = "") -> list:
    """The list under ``key`` of a JSON object (empty when absent),
    named ``prefix + key`` in errors."""
    return _typed(raw.get(key, []), list, prefix + key)


def _check_box(raw, where: str) -> list:
    """The corners of ``raw`` as floats if it is a list of four finite
    numbers of magnitude at most ``COORD_LIMIT`` with positive width and
    height, else AnnotationError naming ``where``."""
    try:
        if type(raw) is not list or not _NUMBERS.issuperset(map(type, raw)):
            raise ValueError("expected a list of numbers")
        x1, y1, x2, y2 = map(float, raw)
        Box(x1, y1, x2, y2)
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            raise ValueError("non-finite corner")
        if max(map(abs, (x1, y1, x2, y2))) > COORD_LIMIT:
            raise ValueError(f"|corner| > {COORD_LIMIT:g}")
    except (OverflowError, ValueError) as exc:
        raise AnnotationError(f"{where}: invalid box {raw!r} ({exc})")
    return [x1, y1, x2, y2]


def _interaction(raw, where: str, k: int) -> Interaction:
    """Interaction record ``k`` of scene ``where``: taken as it stands
    when its fields have their types, else read field by field, which
    raises the AnnotationError of its first fault."""
    if type(raw) is dict:
        person, action, role, obj = rec = Interaction(
            raw.get("person"), raw.get("action"), raw.get("role", ROLE_NONE),
            raw.get("object"))
        if (type(person) is int and type(action) is type(role) is str
                and (obj is None or (type(obj) is int and obj >= 0))):
            return rec
    here = f"{where}.interactions[{k}]"
    try:
        obj = _typed(raw, dict, here).get("object")
        rec = Interaction(
            person=_typed(raw["person"], int, f"{here}.person"),
            action=_typed(raw["action"], str, f"{here}.action"),
            role=_typed(raw.get("role", ROLE_NONE), str, f"{here}.role"),
            object=None if obj is None else _typed(obj, int, f"{here}.object"))
    except KeyError as exc:
        raise AnnotationError(f"{here}: malformed record ({exc})")
    if rec.object is not None and rec.object < 0:
        raise AnnotationError(f"{here}: object index {rec.object} out of range")
    return rec


def _read_scenes(raw: list, registry: ActionRegistry) -> list:
    """The scenes of the "scenes" list ``raw``, checked one by one in
    file order; AnnotationError naming the first fault met. A box of four
    floats within ``COORD_LIMIT`` with positive width and height is taken
    as it stands, any other re-read by :func:`_check_box`. Each scene's
    person boxes, then its object boxes, join one array that every scene
    holds views of."""
    rows, categories, ignore, heads, first = [], [], [], [], {}
    for i, scene in enumerate(raw):
        where = f"scenes[{i}]"
        _typed(scene, dict, where)
        try:
            image_id = _typed(scene["image_id"], int, f"{where}.image_id")
            width = float(_typed(scene["width"], float, f"{where}.width"))
            height = float(_typed(scene["height"], float, f"{where}.height"))
        except (KeyError, OverflowError) as exc:
            raise AnnotationError(f"{where}: bad header fields ({exc})")
        if image_id not in _INT64:
            raise AnnotationError(f"{where}.image_id: {image_id} is outside "
                                  f"the int64 range")
        # persons rows[p:o], objects rows[o:e], categories and flags from c
        p = len(rows)
        for k, box in enumerate(_list_at(scene, "persons", f"{where}.")):
            if not (type(box) is list and len(box) == 4
                    and type(box[0]) is type(box[1]) is type(box[2])
                    is type(box[3]) is float and corners_in_limit(box)):
                box = _check_box(box, f"{where}.persons[{k}]")
            rows.append(box)
        o, c = len(rows), len(categories)
        for k, obj in enumerate(_list_at(scene, "objects", f"{where}.")):
            box, category, flag = ((obj.get("box"), obj.get("category"),
                                    obj.get("ignore", False))
                                   if type(obj) is dict else (None,) * 3)
            if not (type(box) is list and len(box) == 4
                    and type(box[0]) is type(box[1]) is type(box[2])
                    is type(box[3]) is float and corners_in_limit(box)
                    and type(category) is str and type(flag) is bool):
                here = f"{where}.objects[{k}]"
                if "category" not in _typed(obj, dict, here):
                    raise AnnotationError(f"{here}: missing category")
                box = _check_box(box, here)
                _typed(category, str, f"{here}.category")
                _typed(flag, bool, f"{here}.ignore")
            rows.append(box)
            categories.append(category)
            ignore.append(flag)
        interactions = [_interaction(r, where, k) for k, r in enumerate(
            _list_at(scene, "interactions", f"{where}."))]
        _check_records(width, height, interactions, o - p, len(rows) - o,
                       registry, where)
        j = first.setdefault(image_id, i)
        if j != i:
            raise AnnotationError(f"{where}: image_id {image_id} "
                                  f"repeats scenes[{j}]")
        heads.append((image_id, width, height, p, o, len(rows), c,
                      interactions))
    boxes = np.array(rows, np.float64).reshape(-1, 4)
    flags = np.array(ignore, bool)
    return [SceneAnnotation(image_id, width, height, boxes[p:o], boxes[o:e],
                            categories[c:c + e - o], interactions,
                            flags[c:c + e - o])
            for image_id, width, height, p, o, e, c, interactions in heads]


@dataclass
class Dataset:
    registry: ActionRegistry
    categories: list
    scenes: list


def load_annotations(path, schema: str = "vcoco_like") -> Dataset:
    """Parse and validate an annotation file.

    schema selects conventions, not syntax: "vcoco_like" falls back to the
    built-in 26-verb registry when the file omits "actions" and treats the
    annotation as exhaustive; "hico_like" requires an explicit registry and
    tolerates per-object ignore flags for non-exhaustive annotation.

    The scenes are read by :func:`_read_scenes` in one pass, in file
    order; the AnnotationError of the first fault met names its record.
    """
    if schema not in ("vcoco_like", "hico_like"):
        raise AnnotationError(f"unknown schema {schema!r}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise AnnotationError(f"{path}: not valid JSON ({exc})") from None
    version = _typed(raw, dict, f"{path}: top level").get("version")
    if isinstance(version, bool) or version != ANNOTATION_VERSION:
        raise AnnotationError(f"{path}: unsupported version {version!r}")
    if "actions" in raw:
        registry = ActionRegistry.from_json(raw["actions"])
    elif schema == "vcoco_like":
        registry = default_registry()
    else:
        raise AnnotationError(f"{path}: hico_like files must declare actions")
    categories = [_typed(c, str, f"categories[{i}]")
                  for i, c in enumerate(_list_at(raw, "categories"))]
    scenes = _read_scenes(_list_at(raw, "scenes"), registry)
    if not categories:
        categories = sorted({c for s in scenes for c in s.categories})
    if schema == "vcoco_like":
        for i, s in enumerate(scenes):
            if s.ignore.any():
                raise AnnotationError(
                    f"scenes[{i}].objects[{int(s.ignore.argmax())}]: ignore "
                    "flags are a hico_like convention"
                )
    return Dataset(registry=registry, categories=categories, scenes=scenes)


def save_annotations(path, dataset: Dataset) -> None:
    """Write ``dataset`` in the layout of the module docstring, as the
    bytes ``json.dump`` writes with ``indent=1``. Each scene is encoded
    and written on its own, so the document is never held whole."""
    encode = json.JSONEncoder(indent=1).encode
    head = encode({"version": ANNOTATION_VERSION,
                   "actions": dataset.registry.to_json(),
                   "categories": list(dataset.categories), "scenes": []})
    with open(path, "w") as fh:
        if not dataset.scenes:
            fh.write(head + "\n")
            return
        # "scenes" is the last key: reopen the list the encoder closed
        # empty; at depth 2 every line of a scene is two spaces deeper
        fh.write(head[:-len("[]\n}")] + "[")
        for k, s in enumerate(dataset.scenes):
            fh.write(("," if k else "") + "\n  "
                     + encode(_scene_json(s)).replace("\n", "\n  "))
        fh.write("\n ]\n}\n")


def _scene_json(s: SceneAnnotation) -> dict:
    """One scene in the layout of the module docstring."""
    return {
        "image_id": s.image_id,
        "width": s.width,
        "height": s.height,
        "persons": s.persons.tolist(),
        "objects": [
            {"box": box, "category": category, "ignore": ignore}
            for box, category, ignore in zip(
                s.objects.tolist(), s.categories, s.ignore.tolist())
        ],
        "interactions": [r._asdict() for r in s.interactions],
    }


# --- synthetic scenes ----------------------------------------------------

class _Target(NamedTuple):
    """A typed role entry's target: a ``category`` object at the offset
    ``base + pose_gain @ pose`` from its person."""

    category: str
    base: np.ndarray
    pose_gain: np.ndarray


# The synthetic registry, in order, with each entry's target (None for a
# verb with no object). The verbs are few enough to train on a desk yet
# cover every role shape: plain object, plain instrument, dual-role, and
# no-object. Bases are distinct per role entry and qualitatively
# sensible (carried objects at the hand, thrown objects out in front,
# seats below, knife at the hand with the food slightly ahead); pose
# perturbs them in a bounded, invertible way.
_SYNTH_ACTIONS = {
    ("carry", ROLE_OBJECT): _Target(
        "parcel", np.array([0.45, 0.10, -0.90, -1.10]),
        np.array([[0.25, 0.0], [0.0, 0.15], [0.10, 0.0], [0.0, 0.10]])),
    ("throw", ROLE_OBJECT): _Target(
        "ball", np.array([1.20, -0.30, -1.00, -1.20]),
        np.array([[0.25, 0.10], [-0.15, 0.0], [0.0, 0.10], [0.10, 0.0]])),
    ("sit", ROLE_INSTRUMENT): _Target(
        "bench", np.array([0.00, 0.55, 0.25, -0.60]),
        np.array([[0.20, 0.0], [0.0, 0.12], [-0.10, 0.10], [0.0, 0.08]])),
    ("cut", ROLE_INSTRUMENT): _Target(
        "knife", np.array([0.35, 0.05, -1.30, -1.50]),
        np.array([[0.15, -0.10], [0.08, 0.0], [0.0, 0.12], [0.10, 0.0]])),
    ("cut", ROLE_OBJECT): _Target(
        "apple", np.array([0.15, 0.35, -1.00, -1.10]),
        np.array([[-0.12, 0.15], [0.10, 0.0], [0.12, 0.0], [0.0, 0.10]])),
    ("stand", ROLE_NONE): None,
}

SYNTH_CATEGORIES = [t.category for t in _SYNTH_ACTIONS.values() if t]


def synthetic_registry() -> ActionRegistry:
    return ActionRegistry(ActionSpec(n, r) for n, r in _SYNTH_ACTIONS)


def latent_offset(verb: str, role: str, pose: np.ndarray) -> np.ndarray:
    """The noiseless target offset implied by a person's latent code."""
    target = _SYNTH_ACTIONS.get((verb, role))
    if target is None:
        raise KeyError(f"no latent map for {verb}/{role}")
    pose = np.asarray(pose, dtype=np.float64)
    return target.base + target.pose_gain @ pose


@dataclass(frozen=True)
class PersonCode:
    verb: str
    pose: np.ndarray


@dataclass
class SyntheticScene:
    """A generated scene: its annotation, each person's latent code and
    its proposals, with feature maps at ``stride`` pixels per cell.

    The scene holds no map: each access of ``feature_map`` paints a
    fresh, zeroed one from the annotation and codes, the same bytes every
    time, into a :func:`features.map_buffer`. A 14-channel 32 x 32 map is
    below glibc's mmap threshold, so a feature file's worth painted at
    once would otherwise grow the malloc heap, which keeps the freed maps
    resident while any later block sits above them (26 MB through a
    whole ``train`` benchmark run)."""

    annotation: SceneAnnotation
    codes: list
    proposals: np.ndarray  # (N, 4) corners, as jitter_proposals returns
    stride: int

    @property
    def feature_map(self) -> FeatureMap:
        """Every person in index order, marker, verb and pose padded by a
        cell, then every object, marker and category padded by half a
        cell. That gives the bytes of painting in generation order (each
        person, then the objects placed with it, distractors last)
        because persons write only the person, verb and pose channels
        and objects only the object and category channels, so each
        channel sees its writes in generation order, and every value but
        pose, which only persons write, is 1.0."""
        ann, stride = self.annotation, self.stride
        grid = int(round(ann.width)) // stride
        data = map_buffer((_LAYOUT["total"], grid, grid))
        for box, code in zip(ann.persons.tolist(), self.codes):
            pose = code.pose.tolist()
            _paint(data, box, stride, 1.0, [
                (_LAYOUT["person"], 1.0), (_VERB_CHANNEL[code.verb], 1.0),
                (_LAYOUT["pose0"], pose[0]), (_LAYOUT["pose0"] + 1, pose[1])])
        for box, category in zip(ann.objects.tolist(), ann.categories):
            _paint(data, box, stride, 0.5, [
                (_LAYOUT["object"], 1.0), (_CATEGORY_CHANNEL[category], 1.0)])
        return FeatureMap(data=data, stride=float(stride))


# Feature cells per side of a synthetic map. A scene holds no map; maps
# are held whole only while ``synth`` writes its feature file (every
# scene's at once) and inside a provider, and 14 float64 channels take
# 112 MiB per map at 1024.
MAX_GRID_CELLS = 1024


@dataclass
class SynthConfig:
    num_scenes: int = 40
    persons_per_scene: int = 2
    num_distractors: int = 3
    noise: float = 0.05
    seed: int = 0
    image_size: float = 128.0
    stride: int = 4
    proposals_per_box: int = 2
    proposal_magnitude: float = 0.08
    # verbs to sample from; pairs with a second latent->offset mode for
    # multi-target experiments are enabled by listing "cut"
    verbs: tuple = ("carry", "throw", "sit", "cut", "stand")
    # same-category decoys per typed target, placed at the offset a
    # clearly different pose would imply: plausible under the marginal
    # offset distribution yet wrong for this person's pose
    confusers_per_target: int = 0

    def __post_init__(self):
        if min(self.num_scenes, self.persons_per_scene) < 1:
            raise ValueError("counts must be positive")
        if min(self.num_distractors, self.proposals_per_box,
               self.confusers_per_target, self.seed) < 0:
            raise ValueError("num_distractors, proposals_per_box, "
                             "confusers_per_target and seed must be "
                             "nonnegative")
        if not (0 <= self.noise < math.inf
                and 0 <= self.proposal_magnitude < math.inf):  # NaN too
            raise ValueError("noise magnitudes must be nonnegative and "
                             "finite")
        if not 1 <= self.stride <= self.image_size < math.inf:  # NaN too
            raise ValueError(f"need 1 <= stride <= image_size < inf, got "
                             f"stride {self.stride}, image_size "
                             f"{self.image_size}")
        if int(round(self.image_size)) // self.stride > MAX_GRID_CELLS:
            raise ValueError(f"image_size / stride exceeds {MAX_GRID_CELLS} "
                             f"feature cells per side")
        known = synthetic_registry().verbs
        if not self.verbs or any(v not in known for v in self.verbs):
            raise ValueError(f"verbs must be one or more of "
                             f"{', '.join(known)}, got {list(self.verbs)}")


def synth_channel_layout():
    """Feature-map channel indices: person marker, verb one-hot, pose,
    object marker, category one-hot."""
    v = len(synthetic_registry().verbs)
    return {
        "person": 0,
        "verb0": 1,
        "pose0": 1 + v,
        "object": 3 + v,
        "category0": 4 + v,
        "total": 4 + v + len(SYNTH_CATEGORIES),
    }


# the layout, and each verb's and category's channel, for every painted map
_LAYOUT = synth_channel_layout()
_VERB_CHANNEL = {v: _LAYOUT["verb0"] + i
                 for i, v in enumerate(synthetic_registry().verbs)}
_CATEGORY_CHANNEL = {c: _LAYOUT["category0"] + i
                     for i, c in enumerate(SYNTH_CATEGORIES)}


def _paint(data: np.ndarray, box, stride: int, pad: float,
           channel_values) -> None:
    """Write constant channel values into the cells of the (C, H, W) map
    ``data`` under the corners ``box``, padded by ``pad`` cells so
    slightly jittered proposals still read them. The first cells are
    clamped at 0, as a negative slice start would wrap; the end cells
    clip on their own."""
    x1, y1, x2, y2 = box
    x1 = max(math.floor(x1 / stride - pad), 0)
    y1 = max(math.floor(y1 / stride - pad), 0)
    x2 = math.ceil(x2 / stride + pad)
    y2 = math.ceil(y2 / stride + pad)
    for c, v in channel_values:
        data[c, y1:y2, x1:x2] = v


def _fits(box, size: float) -> bool:
    """Whether the corners ``box`` stay apart and keep a one-pixel margin
    inside a square image."""
    x1, y1, x2, y2 = box
    return 1 <= x1 < x2 <= size - 1 and 1 <= y1 < y2 <= size - 1


def _overlaps(box, others, thresh: float) -> bool:
    """Whether the corners ``box`` have an IoU above ``thresh`` with any
    corners of ``others``, each IoU with the arithmetic of
    :func:`geometry.iou`."""
    x1, y1, x2, y2 = box
    area = (x2 - x1) * (y2 - y1)
    for bx1, by1, bx2, by2 in others:
        iw = (x2 if x2 < bx2 else bx2) - (x1 if x1 > bx1 else bx1)
        if iw > 0.0:
            ih = (y2 if y2 < by2 else by2) - (y1 if y1 > by1 else by1)
            if ih > 0.0:
                inter = iw * ih
                if inter / (area + (bx2 - bx1) * (by2 - by1) - inter) > thresh:
                    return True
    return False


def _far(alt, pose) -> bool:
    """Whether the pose ``alt`` lies 1.4 or more from ``pose`` (float
    pairs) as ``np.linalg.norm`` measures it. Its dot product rounds
    unlike Python's ``x*x + y*y`` (it fuses a multiply-add), but by far
    less than 1e-9, so only a square that close to 1.96 needs it."""
    d0, d1 = alt[0] - pose[0], alt[1] - pose[1]
    square = d0 * d0 + d1 * d1
    if abs(square - 1.96) > 1e-9:
        return square > 1.96
    d = np.array([d0, d1])
    return not math.sqrt(d.dot(d)) < 1.4  # np.linalg.norm bit for bit


# Every draw below takes the doubles ``Generator.uniform(lo, hi, k)`` and
# ``Generator.choice(seq)`` would, as ``lo + (hi - lo) * rng.random(k)``
# (numpy's own arithmetic) and ``seq[rng.integers(0, len(seq))]``, at a
# fraction of the call cost; the streams stay those of the numpy calls.


def _uniform(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """``rng.uniform(lo, hi, k)``, draw for draw."""
    return lo + (hi - lo) * rng.random(k)


def _place_person(rng, cfg: SynthConfig, offsets, existing):
    """Draw a person box such that the target box of each latent offset
    in ``offsets`` (``(entry, offset)`` pairs), plus noise, fits in the
    image and overlaps the ``existing`` corners only lightly. Pure
    rejection sampling; a draw whose corners round together fails, and
    the latent offsets are bounded so a feasible draw exists."""
    size = cfg.image_size
    lo = np.array([18.0, 30.0, 0.15 * size, 0.25 * size])
    span = np.array([30.0, 44.0, 0.85 * size, 0.75 * size]) - lo
    for _ in range(500):
        w, h, cx, cy = (lo + span * rng.random(4)).tolist()
        person = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        if not _fits(person, size):
            continue
        targets = []
        for entry, base in offsets:
            noise = _uniform(rng, -cfg.noise, cfg.noise, 4)
            tbox = decode_corners((base + noise).tolist(), person)
            if not _fits(tbox, size):
                break
            targets.append((entry, tbox))
        else:
            if not any(_overlaps(b, existing, 0.15)
                       for b in [person] + [t for _, t in targets]):
                return person, targets
    raise RuntimeError("could not place a person; loosen the scene config")


def generate_synthetic(cfg: SynthConfig):
    """Deterministic scene synthesis: same config and seed, same scenes."""
    registry = synthetic_registry()
    size = cfg.image_size
    scenes = []
    for sid in range(cfg.num_scenes):
        rng = np.random.default_rng((cfg.seed, sid))
        persons, objects, categories, interactions, codes = [], [], [], [], []
        placed = []

        def add_object(box, cat):
            """Record an object and mark its box placed."""
            objects.append(box)
            categories.append(cat)
            placed.append(box)

        for _ in range(cfg.persons_per_scene):
            verb = str(cfg.verbs[rng.integers(0, len(cfg.verbs))])
            pose = _uniform(rng, -1.0, 1.0, 2)
            code = PersonCode(verb=verb, pose=pose)
            offsets = [(e, latent_offset(verb, e.role, pose))
                       for e in registry.entries_for(verb)
                       if e.role != ROLE_NONE]
            person, targets = _place_person(rng, cfg, offsets, placed)
            pidx = len(persons)
            persons.append(person)
            codes.append(code)
            placed.append(person)
            for entry, tbox in targets:
                interactions.append(
                    Interaction(person=pidx, action=entry.name, role=entry.role,
                                object=len(objects))
                )
                add_object(tbox,
                           _SYNTH_ACTIONS[entry.name, entry.role].category)
            if not targets:
                interactions.append(
                    Interaction(person=pidx, action=verb, role=ROLE_NONE, object=None)
                )
            own = pose.tolist()
            for entry, _tbox in targets:
                cat = _SYNTH_ACTIONS[entry.name, entry.role].category
                for _ in range(cfg.confusers_per_target):
                    for _try in range(200):
                        # _uniform(rng, -1.0, 1.0, 2) in Python floats, as
                        # most tries end at the distance test
                        u0, u1 = rng.random(2).tolist()
                        alt = (-1.0 + 2.0 * u0, -1.0 + 2.0 * u1)
                        # far pose -> offset the density head must reject
                        if not _far(alt, own):
                            continue
                        off = latent_offset(verb, entry.role, alt)
                        off = off + _uniform(rng, -cfg.noise, cfg.noise, 4)
                        cbox = decode_corners(off.tolist(), person)
                        if _fits(cbox, size) and not _overlaps(cbox, placed,
                                                               0.3):
                            break
                    else:
                        continue
                    add_object(cbox, cat)
        for _ in range(cfg.num_distractors):
            cat = SYNTH_CATEGORIES[rng.integers(0, len(SYNTH_CATEGORIES))]
            for _try in range(200):
                uw, uh, ux, uy = rng.random(4).tolist()
                w = 6.0 + (24.0 - 6.0) * uw
                h = 6.0 + (24.0 - 6.0) * uh
                # centre bounds that keep the box in the image
                x_lo, x_hi = w / 2 + 1, size - w / 2 - 1
                y_lo, y_hi = h / 2 + 1, size - h / 2 - 1
                cx = x_lo + (x_hi - x_lo) * ux
                cy = y_lo + (y_hi - y_lo) * uy
                dbox = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                if (dbox[2] > dbox[0] and dbox[3] > dbox[1]
                        and not _overlaps(dbox, placed, 0.3)):
                    break
            else:
                continue
            add_object(dbox, cat)
        ann = SceneAnnotation(
            image_id=sid,
            width=size,
            height=size,
            persons=persons,
            objects=objects,
            categories=categories,
            interactions=interactions,
        ).validate(registry, f"synthetic[{sid}]")
        props = jitter_proposals(
            ann, cfg.proposals_per_box, cfg.proposal_magnitude,
            seed=(cfg.seed, sid, 1)
        )
        scenes.append(
            SyntheticScene(
                annotation=ann,
                codes=codes,
                proposals=props,
                stride=cfg.stride,
            )
        )
    return scenes


def jitter_proposals(scene: SceneAnnotation, count: int, magnitude: float, seed):
    """GT boxes plus `count` noisy copies each, standing in for a proposal
    stage, as an ``(N, 4)`` float64 corner array: each ground-truth box
    (persons, then objects), then its copies. Center noise scales with
    box size; width and height get log-space noise. Everything is
    clipped to the image, an offset too large for a float included; a
    copy whose corners then round together is a RuntimeError naming the
    scene."""
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    rng = np.random.default_rng(seed)
    src = np.concatenate([scene.persons, scene.objects])
    # the doubles of one normal(size=4) call per copy, box by box
    noise = rng.normal(size=(len(src), count, 4))
    x1, y1, x2, y2 = src.T[..., None]
    w, h = x2 - x1, y2 - y1
    with np.errstate(over="ignore"):
        dx, dy, dw, dh = np.moveaxis(magnitude * noise, -1, 0)
        cx = (x1 + x2) / 2.0 + dx * w
        cy = (y1 + y2) / 2.0 + dy * h
    w = w * np.exp(np.clip(dw, -BBOX_XFORM_CLIP, BBOX_XFORM_CLIP))
    h = h * np.exp(np.clip(dh, -BBOX_XFORM_CLIP, BBOX_XFORM_CLIP))
    copies = clip_boxes(
        np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1),
        scene.width, scene.height)
    if not ((copies[..., 2] > copies[..., 0])
            & (copies[..., 3] > copies[..., 1])).all():  # NaN too
        raise RuntimeError(f"scene {scene.image_id}: a jittered proposal's "
                           f"corners round together; lower image_size or "
                           f"proposal_magnitude")
    # each ground-truth box, then its copies
    return np.concatenate([src[:, None], copies], axis=1).reshape(-1, 4)
