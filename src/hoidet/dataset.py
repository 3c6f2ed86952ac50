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
the engine never parses third-party formats directly. A loaded scene
holds its boxes as arrays (see :class:`SceneAnnotation`); ``Box`` is
used only where one box at a time is handled, as in the generator's
rejection sampling and :func:`jitter_proposals`.

The synthetic generator builds scenes whose person appearance provably
determines the target location: each person carries a latent code (action
one-hot plus a 2-d pose vector) painted into the feature map inside the
person box, and every interaction target is placed at a fixed affine
function of that code plus bounded uniform noise. Pooling features over
the person box therefore recovers exactly the information needed to
regress the target offset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise
from typing import NamedTuple

import numpy as np

from .features import FeatureMap
from .geometry import Box, box_array, clip_box, decode_rel, iou

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
        for name in {e.name for e in self.entries}:
            roles = [e.role for e in self.entries if e.name == name]
            if ROLE_NONE in roles and len(roles) > 1:
                raise AnnotationError(
                    f"verb {name!r} mixes role 'none' with typed roles"
                )
        self._by_name = {}
        for e in self.entries:
            self._by_name.setdefault(e.name, []).append(e)

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
    for j, rec in enumerate(interactions):
        here = f"{where}.interactions[{j}]"
        if not registry.has(rec.action, rec.role):
            raise AnnotationError(
                f"{here}: unknown action {rec.action!r} with role {rec.role!r}"
            )
        if not (0 <= rec.person < n_persons):
            raise AnnotationError(f"{here}: person index {rec.person} out of range")
        if rec.role == ROLE_NONE:
            if rec.object is not None:
                raise AnnotationError(
                    f"{here}: role 'none' must not reference an object"
                )
        else:
            if rec.object is None or not (0 <= rec.object < n_objects):
                raise AnnotationError(
                    f"{here}: object index {rec.object} out of range"
                )


def _list_at(raw: dict, key: str, prefix: str = "") -> list:
    """The list under ``key`` of a JSON object (empty when absent),
    named ``prefix + key`` in errors."""
    return _typed(raw.get(key, []), list, prefix + key)


def _bulk_scenes(raw: list, registry: ActionRegistry):
    """The scenes of ``raw``, or None if any record fails a check.

    Each check runs once over the same field of every scene, object or
    interaction record of the file, and the boxes of every scene are
    converted in one pass into one array: its person rows, then its
    object rows. The checks are those of :func:`_scene_fault`."""
    if not {dict}.issuperset(map(type, raw)):
        return None
    ids = [s.get("image_id") for s in raw]
    sizes = [s.get(k) for k in ("width", "height") for s in raw]
    persons, objects, records = lists = [
        [s.get(k, []) for s in raw]
        for k in ("persons", "objects", "interactions")]
    if not ({int}.issuperset(map(type, ids))
            and all(map(_INT64.__contains__, ids))
            and len(set(ids)) == len(ids)
            and _NUMBERS.issuperset(map(type, sizes))
            and {list}.issuperset(map(type, chain.from_iterable(lists)))):
        return None
    objs = list(chain.from_iterable(objects))
    recs = list(chain.from_iterable(records))
    if not {dict}.issuperset(map(type, chain(objs, recs))):
        return None
    categories = [o.get("category") for o in objs]
    ignore = [o.get("ignore", False) for o in objs]
    rows = list(chain.from_iterable(persons)) + [o.get("box") for o in objs]
    person = [r.get("person") for r in recs]
    action = [r.get("action") for r in recs]
    role = [r.get("role", ROLE_NONE) for r in recs]
    target = [r.get("object") for r in recs]
    # each record's scene's person and object counts
    n_records = list(map(len, records))
    rec_persons = np.repeat(list(map(len, persons)), n_records).tolist()
    rec_objects = np.repeat(list(map(len, objects)), n_records).tolist()
    if not ({str}.issuperset(map(type, chain(categories, action, role)))
            and {bool}.issuperset(map(type, ignore))
            and {list}.issuperset(map(type, rows))
            and {4}.issuperset(map(len, rows))
            and _NUMBERS.issuperset(map(type, chain.from_iterable(rows)))
            and {int}.issuperset(map(type, person))
            and {int, type(None)}.issuperset(map(type, target))
            and all(map(registry.has, action, role))
            and all(0 <= p < n for p, n in zip(person, rec_persons))
            and all((o is None) if r == ROLE_NONE
                    else (o is not None and 0 <= o < n)
                    for r, o, n in zip(role, target, rec_objects))):
        return None
    try:
        size = np.fromiter(sizes, np.float64, len(sizes))
        boxes = np.fromiter(chain.from_iterable(rows), np.float64,
                            4 * len(rows)).reshape(-1, 4)
    except OverflowError:
        return None
    if not (np.all((0 < size) & (size < math.inf))
            and np.all((boxes[:, 2] > boxes[:, 0])
                       & (boxes[:, 3] > boxes[:, 1]))):
        return None
    p_at = list(accumulate(map(len, persons), initial=0))
    o_at = list(accumulate(map(len, objects), initial=0))
    r_at = list(accumulate(n_records, initial=0))
    object_boxes = boxes[p_at[-1]:]
    flags = np.array(ignore, dtype=bool)
    interactions = list(map(Interaction, person, action, role, target))
    widths, heights = size[:len(raw)].tolist(), size[len(raw):].tolist()
    return [SceneAnnotation(image_id, w, h, boxes[p0:p1], object_boxes[o0:o1],
                            categories[o0:o1], interactions[r0:r1],
                            flags[o0:o1])
            for image_id, w, h, (p0, p1), (o0, o1), (r0, r1) in zip(
                ids, widths, heights, pairwise(p_at), pairwise(o_at),
                pairwise(r_at))]


def _first_fault(raw: list, registry: ActionRegistry):
    """Raise the AnnotationError of the first fault of the "scenes" list
    ``raw``, read record by record in file order; :func:`_bulk_scenes`
    has found that it holds one."""
    first = {}
    for i, scene in enumerate(raw):
        image_id = _scene_fault(scene, registry, f"scenes[{i}]")
        j = first.setdefault(image_id, i)
        if j != i:
            raise AnnotationError(f"scenes[{i}]: image_id {image_id} "
                                  f"repeats scenes[{j}]")
    raise AssertionError("the bulk and record-by-record annotation checks "
                         "disagree")


def _check_box(raw, where: str):
    """AnnotationError naming ``where`` unless ``raw`` is a list of four
    numbers with positive width and height."""
    try:
        if type(raw) is not list or not _NUMBERS.issuperset(map(type, raw)):
            raise ValueError("expected a list of numbers")
        x1, y1, x2, y2 = map(float, raw)
        Box(x1, y1, x2, y2)
    except (OverflowError, ValueError) as exc:
        raise AnnotationError(f"{where}: invalid box {raw!r} ({exc})")


def _scene_fault(raw, registry: ActionRegistry, where: str) -> int:
    """The image id of one raw scene, checked record by record in file
    order; AnnotationError naming its first fault, if it has one."""
    _typed(raw, dict, where)
    try:
        image_id = _typed(raw["image_id"], int, f"{where}.image_id")
        width = float(_typed(raw["width"], float, f"{where}.width"))
        height = float(_typed(raw["height"], float, f"{where}.height"))
    except (KeyError, OverflowError) as exc:
        raise AnnotationError(f"{where}: bad header fields ({exc})")
    if image_id not in _INT64:
        raise AnnotationError(f"{where}.image_id: {image_id} is outside "
                              f"the int64 range")
    persons = _list_at(raw, "persons", f"{where}.")
    for i, box in enumerate(persons):
        _check_box(box, f"{where}.persons[{i}]")
    objects = _list_at(raw, "objects", f"{where}.")
    for i, o in enumerate(objects):
        here = f"{where}.objects[{i}]"
        if "category" not in _typed(o, dict, here):
            raise AnnotationError(f"{here}: missing category")
        _check_box(o.get("box"), here)
        _typed(o["category"], str, f"{here}.category")
        _typed(o.get("ignore", False), bool, f"{here}.ignore")
    interactions = []
    for i, r in enumerate(_list_at(raw, "interactions", f"{where}.")):
        here = f"{where}.interactions[{i}]"
        try:
            obj = _typed(r, dict, here).get("object")
            rec = Interaction(
                person=_typed(r["person"], int, f"{here}.person"),
                action=_typed(r["action"], str, f"{here}.action"),
                role=_typed(r.get("role", ROLE_NONE), str, f"{here}.role"),
                object=None if obj is None else _typed(obj, int,
                                                       f"{here}.object"),
            )
        except KeyError as exc:
            raise AnnotationError(f"{here}: malformed record ({exc})")
        if rec.object is not None and rec.object < 0:
            raise AnnotationError(f"{here}: object index {rec.object} out of range")
        interactions.append(rec)
    _check_records(width, height, interactions, len(persons), len(objects),
                   registry, where)
    return image_id


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

    The scenes are checked and converted in bulk by :func:`_bulk_scenes`.
    If some record fails a check, :func:`_first_fault` reads them record
    by record, in file order, and raises the AnnotationError of the
    first fault it meets, naming the record.
    """
    if schema not in ("vcoco_like", "hico_like"):
        raise AnnotationError(f"unknown schema {schema!r}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"{path}: not valid JSON ({exc})")
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
    raw_scenes = _list_at(raw, "scenes")
    scenes = _bulk_scenes(raw_scenes, registry)
    if scenes is None:
        _first_fault(raw_scenes, registry)
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

# Verb set small enough to train on a desk yet covering every role shape:
# plain object, plain instrument, dual-role, and no-object.
_SYNTH_ENTRIES = [
    ("carry", ROLE_OBJECT),
    ("throw", ROLE_OBJECT),
    ("sit", ROLE_INSTRUMENT),
    ("cut", ROLE_INSTRUMENT),
    ("cut", ROLE_OBJECT),
    ("stand", ROLE_NONE),
]

SYNTH_CATEGORIES = ["parcel", "ball", "bench", "knife", "apple"]

# category of the target object per typed role entry
_SYNTH_TARGET_CATEGORY = {
    ("carry", ROLE_OBJECT): "parcel",
    ("throw", ROLE_OBJECT): "ball",
    ("sit", ROLE_INSTRUMENT): "bench",
    ("cut", ROLE_INSTRUMENT): "knife",
    ("cut", ROLE_OBJECT): "apple",
}

# Latent map: offset = base + pose_gain @ pose. Bases are distinct per
# role entry and qualitatively sensible (carried objects at the hand,
# thrown objects out in front, seats below, knife at the hand with the
# food slightly ahead); pose perturbs them in a bounded, invertible way.
_SYNTH_BASE = {
    ("carry", ROLE_OBJECT): np.array([0.45, 0.10, -0.90, -1.10]),
    ("throw", ROLE_OBJECT): np.array([1.20, -0.30, -1.00, -1.20]),
    ("sit", ROLE_INSTRUMENT): np.array([0.00, 0.55, 0.25, -0.60]),
    ("cut", ROLE_INSTRUMENT): np.array([0.35, 0.05, -1.30, -1.50]),
    ("cut", ROLE_OBJECT): np.array([0.15, 0.35, -1.00, -1.10]),
}

_SYNTH_POSE_GAIN = {
    ("carry", ROLE_OBJECT): np.array(
        [[0.25, 0.0], [0.0, 0.15], [0.10, 0.0], [0.0, 0.10]]
    ),
    ("throw", ROLE_OBJECT): np.array(
        [[0.25, 0.10], [-0.15, 0.0], [0.0, 0.10], [0.10, 0.0]]
    ),
    ("sit", ROLE_INSTRUMENT): np.array(
        [[0.20, 0.0], [0.0, 0.12], [-0.10, 0.10], [0.0, 0.08]]
    ),
    ("cut", ROLE_INSTRUMENT): np.array(
        [[0.15, -0.10], [0.08, 0.0], [0.0, 0.12], [0.10, 0.0]]
    ),
    ("cut", ROLE_OBJECT): np.array(
        [[-0.12, 0.15], [0.10, 0.0], [0.12, 0.0], [0.0, 0.10]]
    ),
}


def synthetic_registry() -> ActionRegistry:
    return ActionRegistry(ActionSpec(n, r) for n, r in _SYNTH_ENTRIES)


def latent_offset(verb: str, role: str, pose: np.ndarray) -> np.ndarray:
    """The noiseless target offset implied by a person's latent code."""
    key = (verb, role)
    if key not in _SYNTH_BASE:
        raise KeyError(f"no latent map for {verb}/{role}")
    pose = np.asarray(pose, dtype=np.float64)
    return _SYNTH_BASE[key] + _SYNTH_POSE_GAIN[key] @ pose


@dataclass(frozen=True)
class PersonCode:
    verb: str
    pose: np.ndarray


@dataclass
class SyntheticScene:
    annotation: SceneAnnotation
    codes: list
    feature_map: FeatureMap
    proposals: list
    seed: int


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


def _paint(data: np.ndarray, box: Box, stride: int, channel_values, pad: float = 1.0):
    """Write constant channel values into the feature cells under a box,
    padded by a margin so slightly jittered proposals still read them."""
    _, h, w = data.shape
    x1 = max(int(np.floor(box.x1 / stride - pad)), 0)
    y1 = max(int(np.floor(box.y1 / stride - pad)), 0)
    x2 = min(int(np.ceil(box.x2 / stride + pad)), w)
    y2 = min(int(np.ceil(box.y2 / stride + pad)), h)
    for c, v in channel_values:
        data[c, y1:y2, x1:x2] = v


def _inside(box: Box, size: float) -> bool:
    """Whether ``box`` keeps a one-pixel margin inside a square image."""
    return (box.x1 >= 1 and box.y1 >= 1
            and box.x2 <= size - 1 and box.y2 <= size - 1)


def _place_person(rng, cfg: SynthConfig, code: PersonCode, registry, existing):
    """Draw a person box such that every implied target box fits in the
    image and overlaps existing boxes only lightly. Pure rejection
    sampling; the latent offsets are bounded so a feasible draw exists."""
    size = cfg.image_size
    typed = [e for e in registry.entries_for(code.verb) if e.role != ROLE_NONE]
    for _ in range(500):
        w = rng.uniform(18.0, 30.0)
        h = rng.uniform(30.0, 44.0)
        cx = rng.uniform(0.15 * size, 0.85 * size)
        cy = rng.uniform(0.25 * size, 0.75 * size)
        person = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        if not _inside(person, size):
            continue
        targets = []
        ok = True
        for entry in typed:
            off = latent_offset(code.verb, entry.role, code.pose)
            off = off + rng.uniform(-cfg.noise, cfg.noise, size=4)
            tbox = decode_rel(off, person)
            if not _inside(tbox, size):
                ok = False
                break
            targets.append((entry, off, tbox))
        if not ok:
            continue
        crowd = [person] + [t[2] for t in targets]
        if any(iou(a, b) > 0.15 for a in crowd for b in existing):
            continue
        return person, targets
    raise RuntimeError("could not place a person; loosen the scene config")


def generate_synthetic(cfg: SynthConfig):
    """Deterministic scene synthesis: same config and seed, same scenes."""
    registry = synthetic_registry()
    layout = synth_channel_layout()
    verbs = registry.verbs
    grid = int(round(cfg.image_size)) // cfg.stride
    cat_index = {c: i for i, c in enumerate(SYNTH_CATEGORIES)}
    scenes = []
    for sid in range(cfg.num_scenes):
        rng = np.random.default_rng((cfg.seed, sid))
        data = np.zeros((layout["total"], grid, grid))
        persons, objects, categories, interactions, codes = [], [], [], [], []
        placed = []

        def add_object(box, cat):
            """Record an object, mark its box placed, and paint it."""
            objects.append(box)
            categories.append(cat)
            placed.append(box)
            _paint(data, box, cfg.stride, [
                (layout["object"], 1.0),
                (layout["category0"] + cat_index[cat], 1.0)], pad=0.5)

        for _ in range(cfg.persons_per_scene):
            verb = str(rng.choice(list(cfg.verbs)))
            pose = rng.uniform(-1.0, 1.0, size=2)
            code = PersonCode(verb=verb, pose=pose)
            person, targets = _place_person(rng, cfg, code, registry, placed)
            pidx = len(persons)
            persons.append(person)
            codes.append(code)
            placed.append(person)
            vals = [(layout["person"], 1.0)]
            vals.append((layout["verb0"] + verbs.index(verb), 1.0))
            vals.append((layout["pose0"], pose[0]))
            vals.append((layout["pose0"] + 1, pose[1]))
            _paint(data, person, cfg.stride, vals)
            for entry, _off, tbox in targets:
                interactions.append(
                    Interaction(person=pidx, action=entry.name, role=entry.role,
                                object=len(objects))
                )
                add_object(tbox, _SYNTH_TARGET_CATEGORY[(entry.name, entry.role)])
            if not targets:
                interactions.append(
                    Interaction(person=pidx, action=verb, role=ROLE_NONE, object=None)
                )
            for entry, _off, _tbox in targets:
                cat = _SYNTH_TARGET_CATEGORY[(entry.name, entry.role)]
                for _ in range(cfg.confusers_per_target):
                    for _try in range(200):
                        alt = rng.uniform(-1.0, 1.0, size=2)
                        # far pose -> offset the density head must reject
                        if np.linalg.norm(alt - pose) < 1.4:
                            continue
                        off = latent_offset(verb, entry.role, alt)
                        off = off + rng.uniform(-cfg.noise, cfg.noise, size=4)
                        cbox = decode_rel(off, person)
                        if not _inside(cbox, cfg.image_size):
                            continue
                        if any(iou(cbox, b) > 0.3 for b in placed):
                            continue
                        break
                    else:
                        continue
                    add_object(cbox, cat)
        for _ in range(cfg.num_distractors):
            cat = str(rng.choice(SYNTH_CATEGORIES))
            for _try in range(200):
                w = rng.uniform(6.0, 24.0)
                h = rng.uniform(6.0, 24.0)
                cx = rng.uniform(w / 2 + 1, cfg.image_size - w / 2 - 1)
                cy = rng.uniform(h / 2 + 1, cfg.image_size - h / 2 - 1)
                dbox = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                if all(iou(dbox, b) <= 0.3 for b in placed):
                    break
            else:
                continue
            add_object(dbox, cat)
        ann = SceneAnnotation(
            image_id=sid,
            width=cfg.image_size,
            height=cfg.image_size,
            persons=box_array(persons),
            objects=box_array(objects),
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
                feature_map=FeatureMap(data=data, stride=float(cfg.stride)),
                proposals=props,
                seed=cfg.seed,
            )
        )
    return scenes


def jitter_proposals(scene: SceneAnnotation, count: int, magnitude: float, seed):
    """GT boxes plus `count` noisy copies each, standing in for a proposal
    stage. Center noise scales with box size; width and height get
    log-space noise. Everything is clipped to the image."""
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    rng = np.random.default_rng(seed)
    sources = [Box(*row) for row in
               np.concatenate([scene.persons, scene.objects]).tolist()]
    out = []
    for src in sources:
        out.append(src)
        for _ in range(count):
            dx, dy, dw, dh = magnitude * rng.normal(size=4)
            cx = src.cx + dx * src.w
            cy = src.cy + dy * src.h
            w = src.w * np.exp(dw)
            h = src.h * np.exp(dh)
            out.append(
                clip_box(
                    cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2,
                    scene.width, scene.height,
                )
            )
    return out
