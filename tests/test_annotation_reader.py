"""The one-pass annotation reader against a record-by-record reference.

``load_annotations`` walks the scenes of a file once, in file order. It
takes a box of four floats and a record of well-typed fields as they
stand, re-reads anything else field by field to name its fault, and
converts all boxes into one array at the end. The reference, an older
reader kept here, builds and checks one ``Box`` per box and one typed
record at a time. Over files mutated at random, the two must agree: the
same arrays, bit for bit, or the same error line.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoidet.dataset import (
    ANNOTATION_VERSION,
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    ActionRegistry,
    AnnotationError,
    Dataset,
    Interaction,
    SynthConfig,
    _INT64,
    _list_at,
    _NUMBERS,
    _typed,
    default_registry,
    generate_synthetic,
    load_annotations,
    save_annotations,
    synthetic_registry,
)
from hoidet.geometry import Box, box_array


# --- the reference reader ----------------------------------------------------


def _box_from_json(raw, where):
    try:
        if type(raw) is not list or not _NUMBERS.issuperset(map(type, raw)):
            raise ValueError("expected a list of numbers")
        x1, y1, x2, y2 = map(float, raw)
        box = Box(x1, y1, x2, y2)
        if not all(map(math.isfinite, (x1, y1, x2, y2))):
            raise ValueError("non-finite corner")
        return box
    except (OverflowError, ValueError) as exc:
        raise AnnotationError(f"{where}: invalid box {raw!r} ({exc})")


def _validate(scene, registry, where):
    width, height, persons, objects, interactions = scene[1:]
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise AnnotationError(f"{where}: image size must be positive and "
                              f"finite, got {width} x {height}")
    for j, rec in enumerate(interactions):
        here = f"{where}.interactions[{j}]"
        if not registry.has(rec.action, rec.role):
            raise AnnotationError(
                f"{here}: unknown action {rec.action!r} with role {rec.role!r}")
        if not (0 <= rec.person < len(persons)):
            raise AnnotationError(
                f"{here}: person index {rec.person} out of range")
        if rec.role == ROLE_NONE:
            if rec.object is not None:
                raise AnnotationError(
                    f"{here}: role 'none' must not reference an object")
        elif rec.object is None or not (0 <= rec.object < len(objects)):
            raise AnnotationError(
                f"{here}: object index {rec.object} out of range")


def _scene_from_json(raw, registry, where):
    """(image_id, width, height, persons, objects, interactions): persons
    a Box list, objects (Box, category, ignore) triples."""
    _typed(raw, dict, where)
    try:
        image_id = _typed(raw["image_id"], int, f"{where}.image_id")
        width = float(_typed(raw["width"], float, f"{where}.width"))
        height = float(_typed(raw["height"], float, f"{where}.height"))
    except (KeyError, OverflowError) as exc:
        raise AnnotationError(f"{where}: bad header fields ({exc})")
    # image ids are held as int64 arrays downstream
    if image_id not in _INT64:
        raise AnnotationError(f"{where}.image_id: {image_id} is outside "
                              f"the int64 range")
    persons = [_box_from_json(b, f"{where}.persons[{i}]")
               for i, b in enumerate(_list_at(raw, "persons", f"{where}."))]
    objects = []
    for i, o in enumerate(_list_at(raw, "objects", f"{where}.")):
        here = f"{where}.objects[{i}]"
        if "category" not in _typed(o, dict, here):
            raise AnnotationError(f"{here}: missing category")
        objects.append((_box_from_json(o.get("box"), here),
                        _typed(o["category"], str, f"{here}.category"),
                        _typed(o.get("ignore", False), bool,
                               f"{here}.ignore")))
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
                                                       f"{here}.object"))
        except KeyError as exc:
            raise AnnotationError(f"{here}: malformed record ({exc})")
        if rec.object is not None and rec.object < 0:
            raise AnnotationError(
                f"{here}: object index {rec.object} out of range")
        interactions.append(rec)
    scene = (image_id, width, height, persons, objects, interactions)
    _validate(scene, registry, where)
    return scene


def reference_load(path, schema):
    """(registry, categories, scenes) of an annotation file, read record
    by record."""
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
    scenes, first = [], {}
    for i, s in enumerate(_list_at(raw, "scenes")):
        scenes.append(_scene_from_json(s, registry, f"scenes[{i}]"))
        j = first.setdefault(scenes[-1][0], i)
        if j != i:
            raise AnnotationError(f"scenes[{i}]: image_id "
                                  f"{scenes[-1][0]} repeats scenes[{j}]")
    if not categories:
        categories = sorted({o[1] for s in scenes for o in s[4]})
    if schema == "vcoco_like":
        for i, s in enumerate(scenes):
            for j, o in enumerate(s[4]):
                if o[2]:
                    raise AnnotationError(
                        f"scenes[{i}].objects[{j}]: ignore flags are a "
                        "hico_like convention")
    return registry, categories, scenes


def _outcome(load, path, schema):
    try:
        return "ok", load(path, schema)
    except AnnotationError as exc:
        return "error", str(exc)


def _assert_same(got: Dataset, want):
    registry, categories, scenes = want
    assert got.registry.entries == registry.entries
    assert got.categories == categories
    assert len(got.scenes) == len(scenes)
    for scene, (image_id, width, height, persons, objects,
                interactions) in zip(got.scenes, scenes):
        assert (scene.image_id, scene.width, scene.height) == (
            image_id, width, height)
        assert type(scene.width) is float and type(scene.height) is float
        for name, arr, boxes in (("persons", scene.persons, persons),
                                 ("objects", scene.objects,
                                  [o[0] for o in objects])):
            ref = box_array(boxes)
            assert arr.dtype == np.float64 and arr.shape == ref.shape, name
            assert arr.tobytes() == ref.tobytes(), name
        assert scene.categories == tuple(o[1] for o in objects)
        assert scene.ignore.dtype == bool
        assert scene.ignore.tolist() == [o[2] for o in objects]
        assert scene.interactions == interactions


# --- mutated files -----------------------------------------------------------


def _base_docs(tmp):
    """Valid annotation documents: synthetic scenes, one with ignore
    flags and one without declared categories."""
    docs = []
    for seed, persons in ((3, 2), (4, 1)):
        scenes = generate_synthetic(SynthConfig(
            num_scenes=3, seed=seed, persons_per_scene=persons,
            num_distractors=2))
        path = tmp / f"base{seed}.json"
        save_annotations(path, Dataset(
            synthetic_registry(), [PERSON_CATEGORY] + SYNTH_CATEGORIES,
            [s.annotation for s in scenes]))
        docs.append(json.loads(path.read_text()))
    docs[0]["scenes"][1]["objects"][0]["ignore"] = True
    del docs[1]["categories"]
    return docs


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 60),
    st.sampled_from([2**63 - 1, 2**63, -2**63, -2**63 - 1, 10**20, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["carry", "throw", "stand", "cut", "fly", "object",
                     "none", "instrument", "parcel", "kite", "person", ""]),
    st.just([]), st.just({}),
    st.lists(st.one_of(st.integers(-2, 130), st.floats(-2.0, 130.0)),
             max_size=5))


def _mutate(doc, data):
    """One random edit somewhere in ``doc``: a value replaced, removed,
    duplicated or appended."""
    parent, key = doc, data.draw(st.sampled_from(["scenes"] * 4 + sorted(doc)))
    if key not in doc:  # removed by an earlier edit
        return
    while True:
        node = parent[key]
        keys = (list(node) if isinstance(node, dict)
                else list(range(len(node))) if isinstance(node, list)
                else [])
        if not keys or not data.draw(st.booleans()):
            break
        parent, key = node, data.draw(st.sampled_from(keys))
    op = data.draw(st.sampled_from(["set", "delete", "duplicate", "append"]))
    node = parent[key]
    if op == "set":
        parent[key] = copy.deepcopy(data.draw(LEAVES))
    elif op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(node, list) and node:
        node.append(copy.deepcopy(node[data.draw(
            st.integers(0, len(node) - 1))]))
    elif op == "append" and isinstance(node, list):
        node.append(copy.deepcopy(data.draw(LEAVES)))


@pytest.fixture(scope="module")
def base_docs(tmp_path_factory):
    return _base_docs(tmp_path_factory.mktemp("base"))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "annotations.json"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_bulk_reader_matches_the_record_reader(base_docs, scratch, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(base_docs)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    scratch.write_text(json.dumps(doc))
    for schema in ("hico_like", "vcoco_like"):
        got = _outcome(load_annotations, scratch, schema)
        want = _outcome(reference_load, scratch, schema)
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            _assert_same(got[1], want[1])


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["scenes"][1].__setitem__("image_id", 2**63),
     "scenes[1].image_id: 9223372036854775808 is outside the int64 range"),
    (lambda d: d["scenes"][2]["objects"][0].__setitem__("box", [1, 2, 0, 4]),
     "scenes[2].objects[0]: invalid box [1, 2, 0, 4] (degenerate box: "
     "(1.0, 2.0, 0.0, 4.0))"),
    # the first fault in file order wins, whatever its kind
    (lambda d: (d["scenes"][2].__setitem__("image_id", 0),
                d["scenes"][1]["persons"][0].append(3)),
     "scenes[1].persons[0]: invalid box"),
    (lambda d: (d["scenes"][2]["persons"].__setitem__(0, "x"),
                d["scenes"][1].__setitem__("image_id", 0)),
     "scenes[1]: image_id 0 repeats scenes[0]"),
    (lambda d: d["scenes"][0]["interactions"][0].__setitem__("person", 99),
     "scenes[0].interactions[0]: person index 99 out of range"),
    # the image size is checked after the records' types
    (lambda d: (d["scenes"][1].__setitem__("width", 0),
                d["scenes"][1]["interactions"][0].__setitem__("person", "0")),
     "scenes[1].interactions[0].person: expected an integer, got string"),
    (lambda d: d["scenes"][2]["objects"][0].update(box=[1.0, 2.0, 0.5, 4.0],
                                                    ignore="yes"),
     "scenes[2].objects[0]: invalid box [1.0, 2.0, 0.5, 4.0] (degenerate "
     "box"),
    (lambda d: d["scenes"][0]["persons"].__setitem__(0, [0, 0, 10**400, 1]),
     f"scenes[0].persons[0]: invalid box [0, 0, {10**400}, 1] (int too "
     f"large to convert to float)"),
    # boxes of four floats, degenerate along x or along y
    (lambda d: d["scenes"][0]["persons"].__setitem__(0, [3.0, 1.0, 1.0, 4.0]),
     "scenes[0].persons[0]: invalid box [3.0, 1.0, 1.0, 4.0] (degenerate"),
    (lambda d: d["scenes"][0]["persons"].__setitem__(0, [1.0, 4.0, 3.0, 2.0]),
     "scenes[0].persons[0]: invalid box [1.0, 4.0, 3.0, 2.0] (degenerate"),
    (lambda d: d["scenes"][1]["objects"][1].__setitem__(
        "box", [5.0, 1.0, 2.0, 3.0]),
     "scenes[1].objects[1]: invalid box [5.0, 1.0, 2.0, 3.0] (degenerate"),
    (lambda d: d["scenes"][1]["objects"][1].__setitem__(
        "box", [1.0, 5.0, 2.0, 3.0]),
     "scenes[1].objects[1]: invalid box [1.0, 5.0, 2.0, 3.0] (degenerate"),
    (lambda d: d["scenes"][1]["objects"][0].__setitem__("ignore", "yes"),
     "scenes[1].objects[0].ignore: expected a boolean, got string"),
    (lambda d: d["scenes"][1]["objects"][0].__setitem__("category", 5),
     "scenes[1].objects[0].category: expected a string, got integer"),
    (lambda d: d["scenes"][0]["interactions"][0].__setitem__("action", 5),
     "scenes[0].interactions[0].action: expected a string, got integer"),
    (lambda d: d["scenes"][0]["interactions"][0].__setitem__("role", 5),
     "scenes[0].interactions[0].role: expected a string, got integer"),
    # a negative object index is a fault of the record as read, before
    # the image size and the registry are checked
    (lambda d: (d["scenes"][0].__setitem__("width", 0),
                d["scenes"][0]["interactions"][0].update(action="fly",
                                                         object=-1)),
     "scenes[0].interactions[0]: object index -1 out of range"),
])
def test_named_faults(base_docs, tmp_path, edit, message):
    doc = copy.deepcopy(base_docs[0])
    edit(doc)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(AnnotationError) as err:
        load_annotations(path, "hico_like")
    assert str(err.value).startswith(message)
    with pytest.raises(AnnotationError) as ref:
        reference_load(path, "hico_like")
    assert str(ref.value) == str(err.value)


def test_integer_boxes_load_as_their_floats(base_docs, tmp_path):
    doc = copy.deepcopy(base_docs[0])
    doc["scenes"][0]["persons"][0] = [1, 2, 30, 2**53 + 1]
    doc["scenes"][1]["objects"][0]["box"] = [0, 0, 7, 9]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    got = load_annotations(path, "hico_like")
    _assert_same(got, reference_load(path, "hico_like"))
    assert got.scenes[0].persons[0].tolist() == [1.0, 2.0, 30.0,
                                                 float(2**53 + 1)]
    assert got.scenes[1].objects[0].tolist() == [0.0, 0.0, 7.0, 9.0]


def test_scenes_share_one_box_array(base_docs, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(base_docs[0]))
    scenes = load_annotations(path, "hico_like").scenes
    bases = {id(s.persons.base) for s in scenes} | {
        id(s.objects.base) for s in scenes}
    assert len(bases) == 1
