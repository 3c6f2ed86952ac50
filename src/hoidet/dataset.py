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
the engine never parses third-party formats directly.

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
from dataclasses import dataclass

import numpy as np

from .features import FeatureMap
from .geometry import Box, clip_box, decode_rel, iou

ROLE_NONE = "none"
ROLE_OBJECT = "object"
ROLE_INSTRUMENT = "instrument"
ROLES = (ROLE_NONE, ROLE_OBJECT, ROLE_INSTRUMENT)

PERSON_CATEGORY = "person"

ANNOTATION_VERSION = 1


class AnnotationError(ValueError):
    """Raised for malformed annotation files; the message names the record."""


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
        out = []
        for e in self.entries:
            if e.name not in out:
                out.append(e.name)
        return out

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
            return cls(ActionSpec(name=str(d["name"]), role=str(d["role"]))
                       for d in raw)
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


@dataclass(frozen=True)
class ObjectInstance:
    box: Box
    category: str
    # set when annotation is known non-exhaustive; such objects never
    # serve as classification negatives
    ignore: bool = False


@dataclass(frozen=True)
class Interaction:
    person: int
    action: str
    role: str
    object: int | None = None


@dataclass
class SceneAnnotation:
    image_id: int
    width: float
    height: float
    persons: list
    objects: list
    interactions: list

    def validate(self, registry: ActionRegistry, where: str = "scene"):
        if self.width <= 0 or self.height <= 0:
            raise AnnotationError(f"{where}: nonpositive image size")
        for j, rec in enumerate(self.interactions):
            here = f"{where}.interactions[{j}]"
            if not registry.has(rec.action, rec.role):
                raise AnnotationError(
                    f"{here}: unknown action {rec.action!r} with role {rec.role!r}"
                )
            if not (0 <= rec.person < len(self.persons)):
                raise AnnotationError(f"{here}: person index {rec.person} out of range")
            if rec.role == ROLE_NONE:
                if rec.object is not None:
                    raise AnnotationError(
                        f"{here}: role 'none' must not reference an object"
                    )
            else:
                if rec.object is None or not (0 <= rec.object < len(self.objects)):
                    raise AnnotationError(
                        f"{here}: object index {rec.object} out of range"
                    )
        return self


def _box_from_json(raw, where: str) -> Box:
    try:
        x1, y1, x2, y2 = (float(v) for v in raw)
        return Box(x1, y1, x2, y2)
    except (TypeError, ValueError) as exc:
        raise AnnotationError(f"{where}: invalid box {raw!r} ({exc})")


def _scene_from_json(raw, registry: ActionRegistry, where: str) -> SceneAnnotation:
    try:
        image_id = int(raw["image_id"])
        width = float(raw["width"])
        height = float(raw["height"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AnnotationError(f"{where}: bad header fields ({exc})")
    persons = [
        _box_from_json(b, f"{where}.persons[{i}]")
        for i, b in enumerate(raw.get("persons", []))
    ]
    objects = []
    for i, o in enumerate(raw.get("objects", [])):
        here = f"{where}.objects[{i}]"
        if "category" not in o:
            raise AnnotationError(f"{here}: missing category")
        objects.append(
            ObjectInstance(
                box=_box_from_json(o.get("box"), here),
                category=str(o["category"]),
                ignore=bool(o.get("ignore", False)),
            )
        )
    interactions = []
    for i, r in enumerate(raw.get("interactions", [])):
        here = f"{where}.interactions[{i}]"
        try:
            rec = Interaction(
                person=int(r["person"]),
                action=str(r["action"]),
                role=str(r.get("role", ROLE_NONE)),
                object=None if r.get("object") is None else int(r["object"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise AnnotationError(f"{here}: malformed record ({exc})")
        if rec.object is not None and rec.object < 0:
            raise AnnotationError(f"{here}: object index {rec.object} out of range")
        interactions.append(rec)
    scene = SceneAnnotation(image_id, width, height, persons, objects, interactions)
    return scene.validate(registry, where)


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
    """
    if schema not in ("vcoco_like", "hico_like"):
        raise AnnotationError(f"unknown schema {schema!r}")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AnnotationError(f"{path}: not valid JSON ({exc})")
    if raw.get("version") != ANNOTATION_VERSION:
        raise AnnotationError(f"{path}: unsupported version {raw.get('version')!r}")
    if "actions" in raw:
        registry = ActionRegistry.from_json(raw["actions"])
    elif schema == "vcoco_like":
        registry = default_registry()
    else:
        raise AnnotationError(f"{path}: hico_like files must declare actions")
    categories = [str(c) for c in raw.get("categories", [])]
    scenes = [
        _scene_from_json(s, registry, f"scenes[{i}]")
        for i, s in enumerate(raw.get("scenes", []))
    ]
    if not categories:
        categories = sorted({o.category for s in scenes for o in s.objects})
    if schema == "vcoco_like":
        for i, s in enumerate(scenes):
            for j, o in enumerate(s.objects):
                if o.ignore:
                    raise AnnotationError(
                        f"scenes[{i}].objects[{j}]: ignore flags are a "
                        "hico_like convention"
                    )
    return Dataset(registry=registry, categories=categories, scenes=scenes)


def save_annotations(path, dataset: Dataset) -> None:
    doc = {
        "version": ANNOTATION_VERSION,
        "actions": dataset.registry.to_json(),
        "categories": list(dataset.categories),
        "scenes": [
            {
                "image_id": s.image_id,
                "width": s.width,
                "height": s.height,
                "persons": [list(p.as_tuple()) for p in s.persons],
                "objects": [
                    {
                        "box": list(o.box.as_tuple()),
                        "category": o.category,
                        "ignore": o.ignore,
                    }
                    for o in s.objects
                ],
                "interactions": [
                    {
                        "person": r.person,
                        "action": r.action,
                        "role": r.role,
                        "object": r.object,
                    }
                    for r in s.interactions
                ],
            }
            for s in dataset.scenes
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


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
        if self.noise < 0 or self.proposal_magnitude < 0:
            raise ValueError("noise magnitudes must be nonnegative")
        if self.confusers_per_target < 0:
            raise ValueError("confusers_per_target must be nonnegative")


def synth_channel_layout():
    """Feature-map channel indices: person marker, verb one-hot, pose,
    object marker, category one-hot."""
    v = len(_dedup([n for n, _ in _SYNTH_ENTRIES]))
    return {
        "person": 0,
        "verb0": 1,
        "pose0": 1 + v,
        "object": 3 + v,
        "category0": 4 + v,
        "total": 4 + v + len(SYNTH_CATEGORIES),
    }


def _dedup(names):
    out = []
    for n in names:
        if n not in out:
            out.append(n)
    return out


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
        if person.x1 < 1 or person.y1 < 1 or person.x2 > size - 1 or person.y2 > size - 1:
            continue
        targets = []
        ok = True
        for entry in typed:
            off = latent_offset(code.verb, entry.role, code.pose)
            off = off + rng.uniform(-cfg.noise, cfg.noise, size=4)
            tbox = decode_rel(off, person)
            if tbox.x1 < 1 or tbox.y1 < 1 or tbox.x2 > size - 1 or tbox.y2 > size - 1:
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
    verbs = _dedup([n for n, _ in _SYNTH_ENTRIES])
    grid = int(round(cfg.image_size)) // cfg.stride
    cat_index = {c: i for i, c in enumerate(SYNTH_CATEGORIES)}
    scenes = []
    for sid in range(cfg.num_scenes):
        rng = np.random.default_rng((cfg.seed, sid))
        data = np.zeros((layout["total"], grid, grid))
        persons, objects, interactions, codes = [], [], [], []
        placed = []
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
                cat = _SYNTH_TARGET_CATEGORY[(entry.name, entry.role)]
                oidx = len(objects)
                objects.append(ObjectInstance(box=tbox, category=cat))
                interactions.append(
                    Interaction(person=pidx, action=entry.name, role=entry.role,
                                object=oidx)
                )
                placed.append(tbox)
                _paint(
                    data,
                    tbox,
                    cfg.stride,
                    [
                        (layout["object"], 1.0),
                        (layout["category0"] + cat_index[cat], 1.0),
                    ],
                    pad=0.5,
                )
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
                        if (cbox.x1 < 1 or cbox.y1 < 1
                                or cbox.x2 > cfg.image_size - 1
                                or cbox.y2 > cfg.image_size - 1):
                            continue
                        if any(iou(cbox, b) > 0.3 for b in placed):
                            continue
                        break
                    else:
                        continue
                    objects.append(ObjectInstance(box=cbox, category=cat))
                    placed.append(cbox)
                    _paint(
                        data,
                        cbox,
                        cfg.stride,
                        [
                            (layout["object"], 1.0),
                            (layout["category0"] + cat_index[cat], 1.0),
                        ],
                        pad=0.5,
                    )
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
            objects.append(ObjectInstance(box=dbox, category=cat))
            placed.append(dbox)
            _paint(
                data,
                dbox,
                cfg.stride,
                [
                    (layout["object"], 1.0),
                    (layout["category0"] + cat_index[cat], 1.0),
                ],
                pad=0.5,
            )
        ann = SceneAnnotation(
            image_id=sid,
            width=cfg.image_size,
            height=cfg.image_size,
            persons=persons,
            objects=objects,
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
    sources = list(scene.persons) + [o.box for o in scene.objects]
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
