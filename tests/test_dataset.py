import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import hoidet
from hoidet.dataset import (
    ActionRegistry,
    ActionSpec,
    AnnotationError,
    Dataset,
    Interaction,
    SceneAnnotation,
    SynthConfig,
    SyntheticScene,
    SYNTH_CATEGORIES,
    default_registry,
    generate_synthetic,
    jitter_proposals,
    latent_offset,
    load_annotations,
    save_annotations,
    synth_channel_layout,
    synthetic_registry,
)
from hoidet.features import POOLED, roi_align
from hoidet.geometry import Box, encode_rel, iou


def rel_vec(b_o, b_h):
    """encode_rel of two (x1, y1, x2, y2) rows, as a vector."""
    return np.array(encode_rel(Box(*b_o), Box(*b_h)).as_tuple())


def assert_same_scene(a, b):
    """Scenes equal field by field, their arrays bit for bit."""
    assert (a.image_id, a.width, a.height) == (b.image_id, b.width, b.height)
    for name in ("persons", "objects", "ignore"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name
    assert a.categories == b.categories
    assert a.interactions == b.interactions


class TestRegistry:
    def test_default_shape(self):
        reg = default_registry()
        assert len(reg) == 29
        assert len(reg.verbs) == 26
        for verb in ("cut", "eat", "hit"):
            roles = sorted(e.role for e in reg.entries_for(verb))
            assert roles == ["instrument", "object"]
        none_verbs = sorted(e.name for e in reg if e.role == "none")
        assert none_verbs == ["point", "run", "smile", "stand", "walk"]

    def test_lookup(self):
        reg = default_registry()
        i = reg.index("cut", "instrument")
        assert reg.entries[i] == ActionSpec("cut", "instrument")
        assert reg.has("stand", "none")
        with pytest.raises(AnnotationError):
            reg.index("fly", "object")

    def test_rejects_duplicates_and_bad_roles(self):
        with pytest.raises(AnnotationError):
            ActionRegistry([ActionSpec("a", "object"), ActionSpec("a", "object")])
        with pytest.raises(AnnotationError):
            ActionSpec("a", "target")
        with pytest.raises(AnnotationError):
            ActionRegistry([ActionSpec("a", "none"), ActionSpec("a", "object")])

    def test_mixed_roles_named_in_entry_order(self):
        """Of two verbs that mix role 'none' with a typed role, the first
        in entry order is named, whatever the string hash seed."""
        src = os.path.dirname(os.path.dirname(hoidet.__file__))
        code = ("from hoidet.dataset import ActionRegistry, ActionSpec\n"
                "try:\n"
                "    ActionRegistry([ActionSpec(n, r) for n in 'ab'\n"
                "                    for r in ('none', 'object')])\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed),
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True,
                                 check=True).stdout
            assert out == ("verb 'a' mixes role 'none' with typed "
                           "roles\n"), (seed, out)

    def test_json_round_trip(self):
        reg = default_registry()
        again = ActionRegistry.from_json(reg.to_json())
        assert again.entries == reg.entries


def small_dataset():
    reg = synthetic_registry()
    scene = SceneAnnotation(
        image_id=7,
        width=100.0,
        height=80.0,
        persons=[[10, 10, 30, 60]],
        objects=[[35, 20, 50, 35], [60, 50, 90, 70]],
        categories=["parcel", "bench"],
        ignore=[False, False],
        interactions=[
            Interaction(person=0, action="carry", role="object", object=0),
            Interaction(person=0, action="stand", role="none", object=None),
        ],
    )
    return Dataset(registry=reg, categories=list(SYNTH_CATEGORIES), scenes=[scene])


class TestAnnotationsIO:
    def test_round_trip(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ann.json"
        save_annotations(path, ds)
        back = load_annotations(path)
        assert back.registry.entries == ds.registry.entries
        assert back.categories == ds.categories
        assert len(back.scenes) == 1
        assert_same_scene(ds.scenes[0], back.scenes[0])

    @pytest.mark.parametrize("scenes", [0, 1, 3])
    def test_bytes_are_those_of_json_dump(self, tmp_path, scenes):
        ds = small_dataset()
        ds.scenes = [s.annotation for s in generate_synthetic(
            SynthConfig(num_scenes=3, seed=2))][:scenes]
        path = tmp_path / "ann.json"
        save_annotations(path, ds)
        dumped = io.StringIO()
        json.dump(json.loads(path.read_text()), dumped, indent=1)
        assert path.read_text() == dumped.getvalue() + "\n"

    def test_empty_scene_list(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"version": 1, "actions": [], "scenes": []}')
        ds = load_annotations(path)
        assert ds.scenes == []

    def test_dangling_object_index(self, tmp_path):
        ds = small_dataset()
        ds.scenes[0].interactions[0] = Interaction(0, "carry", "object", object=5)
        path = tmp_path / "bad.json"
        save_annotations(path, ds)
        with pytest.raises(AnnotationError, match=r"scenes\[0\].interactions\[0\]"):
            load_annotations(path)

    def test_negative_object_index_with_typed_role(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(
            '{"version": 1, "actions": [{"name": "carry", "role": "object"}],'
            ' "scenes": [{"image_id": 0, "width": 10, "height": 10,'
            ' "persons": [[1, 1, 4, 9]], "objects": [],'
            ' "interactions": [{"person": 0, "action": "carry",'
            ' "role": "object", "object": -1}]}]}'
        )
        with pytest.raises(AnnotationError, match="object index -1"):
            load_annotations(path)

    def test_unknown_action_names_record(self, tmp_path):
        ds = small_dataset()
        ds.scenes[0].interactions[1] = Interaction(0, "fly", "none", None)
        path = tmp_path / "bad.json"
        save_annotations(path, ds)
        with pytest.raises(AnnotationError, match="unknown action 'fly'"):
            load_annotations(path)

    def test_invalid_box_names_record(self, tmp_path):
        path = tmp_path / "box.json"
        path.write_text(
            '{"version": 1, "actions": [], "scenes": [{"image_id": 0,'
            ' "width": 10, "height": 10, "persons": [[5, 5, 2, 9]],'
            ' "objects": [], "interactions": []}]}'
        )
        with pytest.raises(AnnotationError, match=r"scenes\[0\].persons\[0\]"):
            load_annotations(path)

    def test_role_none_with_object_rejected(self, tmp_path):
        ds = small_dataset()
        ds.scenes[0].interactions[1] = Interaction(0, "stand", "none", object=0)
        path = tmp_path / "bad.json"
        save_annotations(path, ds)
        with pytest.raises(AnnotationError, match="must not reference"):
            load_annotations(path)

    def test_schema_conventions(self, tmp_path):
        ds = small_dataset()
        ds.scenes[0].ignore[1] = True
        path = tmp_path / "ign.json"
        save_annotations(path, ds)
        loaded = load_annotations(path, schema="hico_like")
        assert loaded.scenes[0].ignore.tolist() == [False, True]
        with pytest.raises(AnnotationError, match="hico_like"):
            load_annotations(path, schema="vcoco_like")
        with pytest.raises(AnnotationError):
            load_annotations(path, schema="coco")

    def test_vcoco_like_default_registry(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text('{"version": 1, "scenes": []}')
        assert len(load_annotations(path).registry) == 29
        with pytest.raises(AnnotationError, match="declare actions"):
            load_annotations(path, schema="hico_like")


class TestSyntheticScenes:
    def test_deterministic(self):
        cfg = SynthConfig(num_scenes=3, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        for sa, sb in zip(a, b):
            assert_same_scene(sa.annotation, sb.annotation)
            np.testing.assert_array_equal(sa.feature_map.data, sb.feature_map.data)
            assert sa.proposals.tobytes() == sb.proposals.tobytes()

    def test_scenes_hold_boxes_and_codes_not_maps(self):
        """A scene holds its annotation, codes, proposals and stride, and
        no map: 200 criterion-5 scenes held 23.2 MB while each kept its
        dense (14, 32, 32) float64 map. Each access paints the same map
        afresh."""
        cfg = SynthConfig(num_scenes=200, persons_per_scene=1,
                          num_distractors=5, confusers_per_target=1)
        tracemalloc.start()
        try:
            scenes = generate_synthetic(cfg)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 3e6
        assert [f.name for f in dataclasses.fields(SyntheticScene)] == [
            "annotation", "codes", "proposals", "stride"]
        assert set(vars(scenes[0])) == {"annotation", "codes", "proposals",
                                        "stride"}
        first, second = scenes[0].feature_map, scenes[0].feature_map
        assert first.data is not second.data
        assert first.data.shape == (synth_channel_layout()["total"], 32, 32)
        assert first.data.tobytes() == second.data.tobytes()
        assert first.stride == second.stride == 4.0

    def test_noiseless_offsets_exact(self):
        cfg = SynthConfig(num_scenes=6, persons_per_scene=2, noise=0.0, seed=3)
        for sc in generate_synthetic(cfg):
            ann = sc.annotation
            for rec in ann.interactions:
                if rec.object is None:
                    continue
                person = ann.persons[rec.person]
                pose = sc.codes[rec.person].pose
                want = latent_offset(rec.action, rec.role, pose)
                got = rel_vec(ann.objects[rec.object], person)
                np.testing.assert_allclose(got, want, atol=1e-9)

    def test_noise_is_bounded(self):
        noise = 0.07
        cfg = SynthConfig(num_scenes=8, persons_per_scene=2, noise=noise, seed=5)
        for sc in generate_synthetic(cfg):
            ann = sc.annotation
            for rec in ann.interactions:
                if rec.object is None:
                    continue
                person = ann.persons[rec.person]
                pose = sc.codes[rec.person].pose
                want = latent_offset(rec.action, rec.role, pose)
                got = rel_vec(ann.objects[rec.object], person)
                assert np.max(np.abs(got - want)) <= noise + 1e-9

    def test_gt_object_nearest_to_latent_offset(self):
        # frozen from a 1000-scene calibration run: observed rate 1.0
        cfg = SynthConfig(num_scenes=200, persons_per_scene=1, num_distractors=5,
                          noise=0.05, seed=123)
        total = hits = 0
        for sc in generate_synthetic(cfg):
            ann = sc.annotation
            for rec in ann.interactions:
                if rec.object is None:
                    continue
                person = ann.persons[rec.person]
                mu = latent_offset(rec.action, rec.role, sc.codes[rec.person].pose)
                dists = [
                    np.linalg.norm(rel_vec(o, person) - mu) for o in ann.objects
                ]
                total += 1
                hits += int(np.argmin(dists) == rec.object)
        assert hits / total >= 0.99

    def test_confusers_plausible_but_wrong_pose(self):
        # decoys must lie on the latent offset manifold (recoverable pose
        # inside the sampling box) while staying far from the true pose
        cfg = SynthConfig(num_scenes=30, persons_per_scene=1,
                          num_distractors=0, noise=0.0, seed=9,
                          confusers_per_target=2,
                          verbs=("carry", "sit", "cut"))
        total_extras = total_typed = 0
        for sc in generate_synthetic(cfg):
            ann = sc.annotation
            person = ann.persons[0]
            pose = sc.codes[0].pose
            interacted = {r.object for r in ann.interactions
                          if r.object is not None}
            typed = {(r.action, r.role): ann.categories[r.object]
                     for r in ann.interactions if r.object is not None}
            total_typed += len(typed)
            for i, o in enumerate(ann.objects):
                if i in interacted:
                    continue
                total_extras += 1
                keys = [k for k, c in typed.items() if c == ann.categories[i]]
                assert len(keys) == 1
                verb, role = keys[0]
                base = latent_offset(verb, role, np.zeros(2))
                gain = np.stack(
                    [latent_offset(verb, role, e) - base
                     for e in np.eye(2)], axis=1)
                rel = rel_vec(o, person)
                alt, res, *_ = np.linalg.lstsq(gain, rel - base, rcond=None)
                assert np.linalg.norm(gain @ alt - (rel - base)) < 1e-9
                assert np.all(np.abs(alt) <= 1.0 + 1e-9)
                assert np.linalg.norm(alt - pose) >= 1.4 - 1e-9
        # rejection sampling drops colliding decoys; observed success
        # rates 0.64-0.83 over seeds {1, 5, 9, 77}
        assert total_extras >= 0.5 * 2 * total_typed

    def test_feature_map_carries_person_code(self):
        cfg = SynthConfig(num_scenes=4, persons_per_scene=1, num_distractors=0,
                          seed=9)
        layout = synth_channel_layout()
        verbs = synthetic_registry().verbs
        for sc in generate_synthetic(cfg):
            person = Box(*sc.annotation.persons[0])
            code = sc.codes[0]
            pooled = roi_align(sc.feature_map, person).values
            center = pooled.reshape(-1, POOLED, POOLED)[:, POOLED // 2,
                                                        POOLED // 2]
            assert center[layout["person"]] == 1.0
            verb_hot = center[layout["verb0"]:layout["verb0"] + len(verbs)]
            assert verbs[int(np.argmax(verb_hot))] == code.verb
            np.testing.assert_allclose(
                center[layout["pose0"]:layout["pose0"] + 2], code.pose, atol=1e-9
            )

    def test_scene_structure_valid(self):
        cfg = SynthConfig(num_scenes=10, persons_per_scene=2, num_distractors=4,
                          seed=21)
        reg = synthetic_registry()
        for sc in generate_synthetic(cfg):
            ann = sc.annotation
            ann.validate(reg, "scene")
            assert len(ann.persons) == 2
            for x1, y1, x2, y2 in ann.persons:
                assert 0 <= x1 < x2 <= cfg.image_size
                assert 0 <= y1 < y2 <= cfg.image_size
            # every person has at least one interaction record
            actors = {r.person for r in ann.interactions}
            assert actors == set(range(len(ann.persons)))


class TestJitterProposals:
    def scene(self):
        return SceneAnnotation(
            image_id=0,
            width=200.0,
            height=200.0,
            persons=[[40, 40, 80, 120]],
            objects=[[90, 60, 130, 100]],
            categories=["parcel"],
            interactions=[],
        )

    def test_zero_magnitude_copies(self):
        props = [Box(*r) for r in jitter_proposals(
            self.scene(), count=3, magnitude=0.0, seed=4).tolist()]
        assert len(props) == 8
        for i, src in enumerate([Box(40, 40, 80, 120), Box(90, 60, 130, 100)]):
            for p in props[i * 4:(i + 1) * 4]:
                np.testing.assert_allclose(p.as_tuple(), src.as_tuple(), atol=1e-12)

    def test_outputs_inside_image(self):
        scene = self.scene()
        props = [Box(*r) for r in jitter_proposals(
            scene, count=50, magnitude=0.8, seed=1).tolist()]
        for p in props:
            assert 0 <= p.x1 < p.x2 <= scene.width
            assert 0 <= p.y1 < p.y2 <= scene.height

    def test_mean_iou_band(self):
        # band frozen from a 200-seed calibration at magnitude 0.1:
        # observed mean 0.716 (5th pct 0.538, 95th pct 0.871)
        scene = self.scene()
        vals = []
        for seed in range(50):
            props = [Box(*r) for r in jitter_proposals(
                scene, count=20, magnitude=0.1, seed=seed).tolist()]
            sources = ([Box(*scene.persons[0])] * 21
                       + [Box(*scene.objects[0])] * 21)
            # each source's own copy leads its group of 21
            for k, (src, p) in enumerate(zip(sources, props)):
                if k % 21:
                    vals.append(iou(src, p))
        assert 0.66 <= np.mean(vals) <= 0.77
