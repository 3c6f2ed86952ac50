"""The synthetic generator and jitter_proposals against a reference that
draws one ``Generator.uniform``, ``choice`` or ``normal`` call at a time
and builds a ``Box`` per draw. The library draws the same doubles through
cheaper calls, so every scene must come out equal, field by field."""

import math
from typing import NamedTuple

import numpy as np
import pytest

from hoidet.dataset import (
    ROLE_NONE,
    SYNTH_CATEGORIES,
    Interaction,
    PersonCode,
    SceneAnnotation,
    SynthConfig,
    _far,
    _SYNTH_ACTIONS,
    generate_synthetic,
    jitter_proposals,
    latent_offset,
    synth_channel_layout,
    synthetic_registry,
)
from hoidet.features import FeatureMap
from hoidet.geometry import BBOX_XFORM_CLIP, Box, box_array, decode_rel, iou

CROWDED = dict(persons_per_scene=4, num_distractors=10, confusers_per_target=1)
SPARSE = dict(persons_per_scene=1, num_distractors=5, confusers_per_target=1)


class _ReferenceScene(NamedTuple):
    """The reference's scene: the attributes ``SyntheticScene`` offers,
    its map painted once, as the generator once held it."""
    annotation: SceneAnnotation
    codes: list
    feature_map: FeatureMap
    proposals: list  # Box per proposal


def _reference_paint(data, box: Box, stride, channel_values, pad=1.0):
    _, h, w = data.shape
    x1 = max(int(np.floor(box.x1 / stride - pad)), 0)
    y1 = max(int(np.floor(box.y1 / stride - pad)), 0)
    x2 = min(int(np.ceil(box.x2 / stride + pad)), w)
    y2 = min(int(np.ceil(box.y2 / stride + pad)), h)
    for c, v in channel_values:
        data[c, y1:y2, x1:x2] = v


def _reference_inside(box: Box, size: float) -> bool:
    return (box.x1 >= 1 and box.y1 >= 1
            and box.x2 <= size - 1 and box.y2 <= size - 1)


def _reference_place_person(rng, cfg, code, registry, existing):
    size = cfg.image_size
    typed = [e for e in registry.entries_for(code.verb) if e.role != ROLE_NONE]
    for _ in range(500):
        w = rng.uniform(18.0, 30.0)
        h = rng.uniform(30.0, 44.0)
        cx = rng.uniform(0.15 * size, 0.85 * size)
        cy = rng.uniform(0.25 * size, 0.75 * size)
        person = Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        if not _reference_inside(person, size):
            continue
        targets = []
        for entry in typed:
            off = latent_offset(code.verb, entry.role, code.pose)
            off = off + rng.uniform(-cfg.noise, cfg.noise, size=4)
            try:
                tbox = decode_rel(off, person)
            except ValueError:
                break
            if not _reference_inside(tbox, size):
                break
            targets.append((entry, tbox))
        else:
            crowd = [person] + [t[1] for t in targets]
            if not any(iou(a, b) > 0.15 for a in crowd for b in existing):
                return person, targets
    raise RuntimeError("could not place a person; loosen the scene config")


def _reference_generate(cfg: SynthConfig):
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
            objects.append(box)
            categories.append(cat)
            placed.append(box)
            _reference_paint(data, box, cfg.stride, [
                (layout["object"], 1.0),
                (layout["category0"] + cat_index[cat], 1.0)], pad=0.5)

        for _ in range(cfg.persons_per_scene):
            verb = str(rng.choice(list(cfg.verbs)))
            pose = rng.uniform(-1.0, 1.0, size=2)
            code = PersonCode(verb=verb, pose=pose)
            person, targets = _reference_place_person(rng, cfg, code,
                                                      registry, placed)
            pidx = len(persons)
            persons.append(person)
            codes.append(code)
            placed.append(person)
            _reference_paint(data, person, cfg.stride, [
                (layout["person"], 1.0),
                (layout["verb0"] + verbs.index(verb), 1.0),
                (layout["pose0"], pose[0]), (layout["pose0"] + 1, pose[1])])
            for entry, tbox in targets:
                interactions.append(Interaction(pidx, entry.name, entry.role,
                                                len(objects)))
                add_object(tbox, _SYNTH_ACTIONS[entry.name,
                                                entry.role].category)
            if not targets:
                interactions.append(Interaction(pidx, verb, ROLE_NONE, None))
            for entry, _tbox in targets:
                cat = _SYNTH_ACTIONS[entry.name, entry.role].category
                for _ in range(cfg.confusers_per_target):
                    for _try in range(200):
                        alt = rng.uniform(-1.0, 1.0, size=2)
                        if np.linalg.norm(alt - pose) < 1.4:
                            continue
                        off = latent_offset(verb, entry.role, alt)
                        off = off + rng.uniform(-cfg.noise, cfg.noise, size=4)
                        try:
                            cbox = decode_rel(off, person)
                        except ValueError:
                            continue
                        if not _reference_inside(cbox, cfg.image_size):
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
        ann = SceneAnnotation(sid, cfg.image_size, cfg.image_size,
                              box_array(persons), box_array(objects),
                              categories, interactions)
        props = _reference_jitter(ann, cfg.proposals_per_box,
                                  cfg.proposal_magnitude, (cfg.seed, sid, 1))
        scenes.append(_ReferenceScene(ann, codes, FeatureMap(
            data, float(cfg.stride)), props))
    return scenes


def _reference_clip_box(x1, y1, x2, y2, width, height, min_size=1e-3):
    x1 = min(max(x1, 0.0), width - min_size)
    y1 = min(max(y1, 0.0), height - min_size)
    x2 = min(max(x2, x1 + min_size), width)
    y2 = min(max(y2, y1 + min_size), height)
    return Box(x1, y1, x2, y2)


def _reference_jitter(scene, count, magnitude, seed):
    rng = np.random.default_rng(seed)
    out = []
    for row in np.concatenate([scene.persons, scene.objects]).tolist():
        src = Box(*row)
        out.append(src)
        for _ in range(count):
            dx, dy, dw, dh = magnitude * rng.normal(size=4)
            cx = src.cx + dx * src.w
            cy = src.cy + dy * src.h
            w = src.w * np.exp(min(max(dw, -BBOX_XFORM_CLIP), BBOX_XFORM_CLIP))
            h = src.h * np.exp(min(max(dh, -BBOX_XFORM_CLIP), BBOX_XFORM_CLIP))
            out.append(_reference_clip_box(
                cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2,
                scene.width, scene.height))
    return out


def _assert_same_scenes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        a, b = g.annotation, w.annotation
        assert (a.image_id, a.width, a.height) == (b.image_id, b.width,
                                                   b.height)
        np.testing.assert_array_equal(a.persons, b.persons)
        np.testing.assert_array_equal(a.objects, b.objects)
        assert a.categories == b.categories
        assert a.interactions == b.interactions
        assert [c.verb for c in g.codes] == [c.verb for c in w.codes]
        for c, d in zip(g.codes, w.codes):
            np.testing.assert_array_equal(c.pose, d.pose)
        np.testing.assert_array_equal(g.feature_map.data, w.feature_map.data)
        assert g.feature_map.stride == w.feature_map.stride
        assert g.proposals.tolist() == [list(p.as_tuple())
                                        for p in w.proposals]


@pytest.mark.parametrize("recipe", [
    {}, SPARSE, CROWDED, dict(confusers_per_target=2), dict(noise=0.3),
    dict(stride=8), dict(verbs=("cut", "stand")),
    dict(proposal_magnitude=0.0), dict(proposal_magnitude=0.8),
], ids=["defaults", "sparse", "crowded", "two_confusers", "noise", "stride",
        "verbs", "no_jitter", "wide_jitter"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_generator_matches_reference(recipe, seed):
    cfg = SynthConfig(**dict(recipe, num_scenes=3, seed=seed))
    _assert_same_scenes(generate_synthetic(cfg), _reference_generate(cfg))


def test_unplaceable_person_raises_as_reference():
    cfg = SynthConfig(num_scenes=1, image_size=30.0, stride=1)
    with pytest.raises(RuntimeError) as want:
        _reference_generate(cfg)
    with pytest.raises(RuntimeError) as got:
        generate_synthetic(cfg)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("magnitude", [0.0, 0.8, 50.0, 1e308])
def test_jitter_matches_reference(magnitude):
    """Many draws per box, so that every clamp and clip is met; at 1e308
    the offsets overflow, and the reference clips them to the image."""
    scene = SceneAnnotation(0, 200.0, 150.0, [[40, 40, 80, 120], [1, 2, 9, 5]],
                            [[90, 60, 130, 100]], ["parcel"], [])
    with np.errstate(over="ignore"):
        want = _reference_jitter(scene, 300, magnitude, 5)
    got = jitter_proposals(scene, 300, magnitude, 5)
    assert got.tolist() == [list(p.as_tuple()) for p in want]


def test_vectorised_exp_is_the_scalar_exp():
    """jitter_proposals takes ``np.exp`` of whole arrays where the
    reference takes it one scalar at a time (``math.exp`` rounds
    differently on some inputs)."""
    x = np.random.default_rng(0).uniform(-BBOX_XFORM_CLIP, BBOX_XFORM_CLIP,
                                         20_000)
    assert np.exp(x).tolist() == [np.exp(v) for v in x]


def test_far_pose_is_the_norm_test():
    """``_far`` decides as ``np.linalg.norm`` does, on random pairs and on
    pairs within a few ulps of distance 1.4, where its fallback acts."""
    rng = np.random.default_rng(1)
    pose = rng.uniform(-1.0, 1.0, (20_000, 2))
    angle = rng.uniform(0.0, 2 * math.pi, 20_000)
    step = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    near = pose + 1.4 * step * (1 + rng.integers(-8, 9, (20_000, 1)) * 2e-16)
    anywhere = rng.uniform(-1.0, 1.0, (20_000, 2))
    for alt in (near, anywhere):
        for a, p in zip(alt.tolist(), pose.tolist()):
            assert _far(a, p) == (not np.linalg.norm(
                np.subtract(a, p)) < 1.4), (a, p)
