import os

import numpy as np
import pytest

import hoidet.trainer as trainer

from hoidet.dataset import (
    PERSON_CATEGORY,
    ROLE_INSTRUMENT,
    ROLE_NONE,
    ROLE_OBJECT,
    SYNTH_CATEGORIES,
    Interaction,
    SceneAnnotation,
    SynthConfig,
    generate_synthetic,
    latent_offset,
    synthetic_registry,
)
from hoidet.geometry import Box, box_array, encode_rel, iou
from hoidet.inference import infer
from hoidet.model import HeadConfig, init_params, load_checkpoint
from hoidet.trainer import (
    Phase,
    SampleBoxes,
    Schedule,
    TrainScene,
    TrainingDiverged,
    assign_labels,
    featurize,
    from_synthetic,
    train,
)

REGISTRY = synthetic_registry()
CATEGORIES = [PERSON_CATEGORY] + SYNTH_CATEGORIES


def _box(cx, cy, w, h):
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _shifted(b: Box, dx=0.0, dy=0.0):
    return Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)


def _scene(persons, objects, interactions, image_id=0, size=128.0):
    """A scene of person Boxes and (Box, category[, ignore]) objects."""
    return SceneAnnotation(
        image_id=image_id, width=size, height=size,
        persons=box_array(persons), objects=box_array([o[0] for o in objects]),
        categories=[o[1] for o in objects],
        ignore=[len(o) > 2 and o[2] for o in objects],
        interactions=interactions,
    )


def _far_negatives(n, start=100.0, size=4.0):
    # disjoint small boxes in the far corner, zero IoU with everything
    out = []
    for i in range(n):
        x = start + (i % 5) * (size + 1.0)
        y = start + (i // 5) * (size + 1.0)
        out.append(Box(x, y, x + size, y + size))
    return out


PERSON = _box(40.0, 60.0, 20.0, 34.0)
KNIFE = _box(58.0, 58.0, 8.0, 6.0)
APPLE = _box(52.0, 74.0, 7.0, 7.0)

CUT_SCENE = _scene(
    persons=[PERSON],
    objects=[
        (KNIFE, "knife"),
        (APPLE, "apple"),
    ],
    interactions=[
        Interaction(person=0, action="cut", role=ROLE_INSTRUMENT, object=0),
        Interaction(person=0, action="cut", role=ROLE_OBJECT, object=1),
    ],
)


@pytest.fixture(scope="module")
def synth():
    scenes, provider = from_synthetic(
        generate_synthetic(SynthConfig(num_scenes=6, seed=7))
    )
    cfg = HeadConfig(
        feature_dim=provider.feature_dim,
        num_actions=len(REGISTRY),
        num_object_classes=len(CATEGORIES),
        hidden_dim=64,
    )
    return scenes, provider, cfg


class TestSchedule:
    def test_defaults(self):
        s = Schedule()
        assert [(p.iterations, p.lr) for p in s.phases] == [
            (10000, 1e-3), (3000, 1e-4)]
        assert s.total_iterations == 13000
        assert (s.images_per_step, s.workers) == (2, 8)
        assert (s.momentum, s.weight_decay) == (0.9, 1e-4)

    def test_tuple_phases_coerced(self):
        s = Schedule(phases=[(5, 0.01)])
        assert s.phases == [Phase(5, 0.01)]

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(phases=[])
        with pytest.raises(ValueError):
            Schedule(phases=[Phase(5, -1e-3)])
        with pytest.raises(ValueError):
            Schedule(workers=0)


class TestAssignLabels:
    def test_ratio_follows_scarce_positives(self):
        # 10 boxes on the GT, 100 clear negatives: requested 16 positives
        # shrink to 10, so negatives shrink to 30
        pos = [PERSON, KNIFE] + [
            _shifted(PERSON, dx) for dx in np.linspace(-1.5, 1.5, 4)
        ] + [_shifted(KNIFE, 0.0, dy) for dy in np.linspace(-0.8, 0.8, 4)]
        props = pos + _far_negatives(100)
        out = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=0)
        assert int(out.object_reg_mask.sum()) == 10
        assert len(out.object_boxes) == 40
        assert int((out.object_labels == 0).sum()) == 30

    def test_quota_caps_rich_image(self):
        # the 30 shifted person boxes are all positives and all humans:
        # 16 positives are taken, three negatives per positive taken, and
        # 16 humans
        pos = [_shifted(PERSON, dx) for dx in np.linspace(-2.0, 2.0, 30)]
        props = pos + _far_negatives(200)
        out = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=1)
        assert int(out.object_reg_mask.sum()) == 16
        assert int((out.object_labels == 0).sum()) == 48
        assert len(out.object_boxes) == 64
        assert len(out.human_boxes) == 16

    @pytest.mark.parametrize("quotas, n_pos, n_neg", [
        ((trainer.POSITIVES, trainer.NEGATIVES_PER_POSITIVE), 16, 48),
    ])
    def test_section_keeps_quota_and_ratio(self, quotas, n_pos, n_neg):
        # 30 positives, 200 negatives: negatives follow the positives
        # taken in the fixed ratio, within the section's size
        positives, negatives_per_positive = quotas
        pos = [_shifted(PERSON, dx) for dx in np.linspace(-2.0, 2.0, 30)]
        props = pos + _far_negatives(200)
        out = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=1)
        assert int(out.object_reg_mask.sum()) == n_pos
        assert int((out.object_labels == 0).sum()) == n_neg
        assert len(out.object_boxes) <= positives * (1 + negatives_per_positive)

    def test_labels_match_categories(self):
        props = [PERSON, KNIFE, APPLE] + _far_negatives(6)
        out = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=0)
        by_box = {tuple(b): l for b, l in
                  zip(out.object_boxes.tolist(), out.object_labels)}
        assert by_box[PERSON.as_tuple()] == 1 + CATEGORIES.index("person") - 0
        assert by_box[KNIFE.as_tuple()] == CATEGORIES.index("knife") + 1
        assert by_box[APPLE.as_tuple()] == CATEGORIES.index("apple") + 1
        for b, l in by_box.items():
            if b not in (PERSON.as_tuple(), KNIFE.as_tuple(), APPLE.as_tuple()):
                assert l == 0

    def test_exact_proposals_have_zero_residual(self):
        props = [PERSON, KNIFE, APPLE]
        out = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=0)
        assert int(out.object_reg_mask.sum()) == 3
        assert np.allclose(out.object_reg_targets[out.object_reg_mask], 0.0)

    def test_ignored_overlap_is_excluded(self):
        ghost = _box(90.0, 30.0, 12.0, 12.0)
        scene = _scene(
            persons=[PERSON],
            objects=[(KNIFE, "knife"),
                     (ghost, "ball", True)],
            interactions=[
                Interaction(person=0, action="cut", role=ROLE_INSTRUMENT,
                            object=0)],
        )
        near_ghost = _shifted(ghost, 1.0)
        assert iou(near_ghost, ghost) >= 0.5
        props = [PERSON, KNIFE, near_ghost] + _far_negatives(2)
        out = assign_labels(props, scene, REGISTRY, CATEGORIES, seed=0)
        taken = {tuple(b) for b in out.object_boxes.tolist()}
        # 2 positives -> up to 6 negatives, so both far boxes are kept;
        # the ignore-overlapping box must appear nowhere
        assert near_ghost.as_tuple() not in taken
        assert int(out.object_reg_mask.sum()) == 2
        assert int((out.object_labels == 0).sum()) == 2

    def test_real_match_beats_ignore_overlap(self):
        shadow = _shifted(PERSON, 1.0)
        scene = _scene(
            persons=[PERSON],
            objects=[(shadow, "ball", True)],
            interactions=[
                Interaction(person=0, action="stand", role=ROLE_NONE)],
        )
        out = assign_labels([PERSON], scene, REGISTRY, CATEGORIES, seed=0)
        assert list(out.object_labels) == [CATEGORIES.index("person") + 1]

    def test_human_quota(self):
        props = [_shifted(PERSON, dx) for dx in np.linspace(-2.0, 2.0, 24)]
        out = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=0)
        assert len(out.human_boxes) == 16
        for b in out.human_boxes:
            assert iou(Box(*b), PERSON) >= 0.5

    def test_action_targets_are_verb_level(self):
        # only the instrument record is annotated; both cut entries still
        # light up, while the offset mask covers just the annotated role
        scene = _scene(
            persons=[PERSON],
            objects=[(KNIFE, "knife")],
            interactions=[
                Interaction(person=0, action="cut", role=ROLE_INSTRUMENT,
                            object=0)],
        )
        out = assign_labels([PERSON, KNIFE], scene, REGISTRY, CATEGORIES,
                            seed=0)
        assert len(out.human_boxes) == 1
        row = out.human_action_targets[0]
        a_inst = REGISTRY.index("cut", ROLE_INSTRUMENT)
        a_obj = REGISTRY.index("cut", ROLE_OBJECT)
        assert row[a_inst] == 1.0 and row[a_obj] == 1.0
        assert row.sum() == 2.0
        assert out.human_target_mask[0, a_inst]
        assert not out.human_target_mask[0, a_obj]
        want = np.array(encode_rel(KNIFE, PERSON).as_tuple())
        assert np.allclose(out.human_target_offsets[0, a_inst], want)

    def test_offsets_measured_from_sampled_box(self):
        moved = _shifted(PERSON, 2.0, -1.0)
        scene = _scene(
            persons=[PERSON],
            objects=[(KNIFE, "knife")],
            interactions=[Interaction(person=0, action="cut",
                                      role=ROLE_INSTRUMENT, object=0)],
        )
        out = assign_labels([moved], scene, REGISTRY, CATEGORIES, seed=0)
        a = REGISTRY.index("cut", ROLE_INSTRUMENT)
        want = np.array(encode_rel(KNIFE, moved).as_tuple())
        assert np.allclose(out.human_target_offsets[0, a], want)
        assert not np.allclose(
            out.human_target_offsets[0, a],
            np.array(encode_rel(KNIFE, PERSON).as_tuple()),
        )

    def test_no_object_verb_has_no_offsets(self):
        scene = _scene(
            persons=[PERSON], objects=[],
            interactions=[Interaction(person=0, action="stand",
                                      role=ROLE_NONE)],
        )
        out = assign_labels([PERSON], scene, REGISTRY, CATEGORIES, seed=0)
        a = REGISTRY.index("stand", ROLE_NONE)
        assert out.human_action_targets[0, a] == 1.0
        assert out.human_action_targets[0].sum() == 1.0
        assert not out.human_target_mask.any()

    def test_first_record_wins_on_duplicate_roles(self):
        other = _box(70.0, 70.0, 8.0, 6.0)
        scene = _scene(
            persons=[PERSON],
            objects=[(KNIFE, "knife"),
                     (other, "knife")],
            interactions=[
                Interaction(person=0, action="cut", role=ROLE_INSTRUMENT,
                            object=0),
                Interaction(person=0, action="cut", role=ROLE_INSTRUMENT,
                            object=1),
            ],
        )
        out = assign_labels([PERSON], scene, REGISTRY, CATEGORIES, seed=0)
        a = REGISTRY.index("cut", ROLE_INSTRUMENT)
        want = np.array(encode_rel(KNIFE, PERSON).as_tuple())
        assert np.allclose(out.human_target_offsets[0, a], want)

    def test_interaction_pairs_are_unique_gt_pairs(self):
        out = assign_labels([PERSON, KNIFE, APPLE], CUT_SCENE, REGISTRY,
                            CATEGORIES, seed=0)
        assert len(out.interaction_pairs) == 2
        boxes = {tuple(o) for _, o in out.interaction_pairs.tolist()}
        assert boxes == {KNIFE.as_tuple(), APPLE.as_tuple()}
        for h, _ in out.interaction_pairs.tolist():
            assert tuple(h) == PERSON.as_tuple()
        # verb-level: each pair is labeled with both cut entries
        assert np.all(out.interaction_action_targets.sum(axis=1) == 2.0)

    def test_none_role_records_make_no_pairs(self):
        scene = _scene(
            persons=[PERSON], objects=[],
            interactions=[Interaction(person=0, action="stand",
                                      role=ROLE_NONE)],
        )
        out = assign_labels([PERSON], scene, REGISTRY, CATEGORIES, seed=0)
        assert out.interaction_pairs.shape == (0, 2, 4)
        assert out.interaction_action_targets.shape == (0, len(REGISTRY))

    def test_sampling_is_seed_deterministic(self):
        props = [_shifted(PERSON, dx) for dx in np.linspace(-2.0, 2.0, 30)]
        props += _far_negatives(120)
        a = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=5)
        b = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=5)
        assert np.array_equal(a.object_boxes, b.object_boxes)
        assert np.array_equal(a.object_labels, b.object_labels)
        c = assign_labels(props, CUT_SCENE, REGISTRY, CATEGORIES, seed=6)
        assert {tuple(x) for x in a.object_boxes.tolist()} != {
            tuple(x) for x in c.object_boxes.tolist()}

    def test_requires_person_category(self):
        with pytest.raises(ValueError, match="person"):
            assign_labels([PERSON], CUT_SCENE, REGISTRY, SYNTH_CATEGORIES,
                          seed=0)


class TestSyntheticAgreement:
    """Label assignment replayed against the generator's own latent map."""

    def test_noiseless_offsets_equal_latent_map(self):
        scenes = generate_synthetic(
            SynthConfig(num_scenes=4, persons_per_scene=1, num_distractors=0,
                        noise=0.0, seed=21, verbs=("carry", "cut")))
        for s in scenes:
            ann = s.annotation
            # the persons as proposals: each one a human row of its own
            out = assign_labels(ann.persons, ann, REGISTRY, CATEGORIES,
                                seed=0)
            code = s.codes[0]
            for rec in ann.interactions:
                a = REGISTRY.index(rec.action, rec.role)
                row = rec.person
                want = latent_offset(rec.action, rec.role, code.pose)
                assert out.human_target_mask[row, a]
                assert np.allclose(out.human_target_offsets[row, a], want,
                                   atol=1e-12)

    def test_generated_proposals_fill_sections(self, synth):
        scenes, _, _ = synth
        for ts in scenes:
            out = assign_labels(ts.proposals, ts.annotation, REGISTRY,
                                CATEGORIES, seed=3)
            assert len(out.object_boxes) >= 1
            assert len(out.human_boxes) >= 1
            assert out.human_action_targets.sum() >= 1


class TestFeaturize:
    def test_shapes(self, synth):
        scenes, provider, cfg = synth
        ts = scenes[0]
        samples = featurize(assign_labels(ts.proposals, ts.annotation,
                                          REGISTRY, CATEGORIES, seed=0),
                            provider, ts.scene_id, cfg)
        a, d = cfg.num_actions, cfg.feature_dim
        n_o = len(samples.object_labels)
        n_h = samples.human_feats.shape[0]
        assert samples.object_feats.shape == (n_o, d)
        assert samples.object_reg_targets.shape == (n_o, 4)
        assert samples.human_action_targets.shape == (n_h, a)
        assert samples.human_target_offsets.shape == (n_h, a, 4)
        assert samples.interaction_h_feats.shape[0] == \
            samples.interaction_o_feats.shape[0]
        assert samples.interaction_action_targets.shape[1] == a

    def test_empty_human_section(self, synth):
        _, provider, cfg = synth
        scene = _scene(
            persons=[PERSON],
            objects=[(KNIFE, "knife")],
            interactions=[Interaction(person=0, action="cut",
                                      role=ROLE_INSTRUMENT, object=0)],
        )
        labels = assign_labels(_far_negatives(4), scene, REGISTRY,
                               CATEGORIES, seed=0)
        assert labels.human_boxes.shape == (0, 4)
        synth_scene = generate_synthetic(SynthConfig(num_scenes=1, seed=9))[0]
        from hoidet.features import SyntheticFeatureProvider
        prov = SyntheticFeatureProvider({0: synth_scene.feature_map})
        feats = featurize(labels, prov, 0, cfg)
        assert feats.human_feats.shape == (0, cfg.feature_dim)
        assert feats.human_target_offsets.shape == (0, cfg.num_actions, 4)


class TestFromSynthetic:
    def test_adapter(self, synth):
        scenes, provider, _ = synth
        assert [ts.scene_id for ts in scenes] == list(range(6))
        assert provider.feature_dim == 14 * 5 * 5
        for ts in scenes:
            assert len(ts.proposals)
            m = provider.pooled_matrix(ts.scene_id, ts.proposals[:2])
            assert m.shape == (2, provider.feature_dim)


class TestTrainLoop:
    def test_deterministic_given_seed(self, synth, tmp_path):
        scenes, provider, cfg = synth
        outs = []
        for run in range(2):
            path = tmp_path / f"ckpt{run}.bin"
            params, hist = train(
                scenes, provider, cfg,
                Schedule(phases=[Phase(6, 1e-3)], seed=13),
                REGISTRY, CATEGORIES, checkpoint_path=str(path))
            outs.append((params, hist, path.read_bytes()))
        p0, h0, b0 = outs[0]
        p1, h1, b1 = outs[1]
        assert all(np.array_equal(p0[k], p1[k]) for k in p0)
        assert [r.total for r in h0] == [r.total for r in h1]
        assert b0 == b1

    def test_zero_lr_keeps_parameters(self, synth):
        scenes, provider, cfg = synth
        params, _ = train(scenes, provider, cfg,
                          Schedule(phases=[Phase(4, 0.0)], seed=3),
                          REGISTRY, CATEGORIES)
        ref = init_params(cfg, 3)  # float64, rounded once by train
        assert params.vector.dtype == np.float32
        assert all(np.array_equal(params[k], ref[k].astype(np.float32))
                   for k in ref)

    def test_loss_trends_down(self, synth):
        scenes, provider, cfg = synth
        _, hist = train(scenes, provider, cfg,
                        Schedule(phases=[Phase(20, 1e-3)], seed=3),
                        REGISTRY, CATEGORIES)
        assert len(hist) == 20
        first = np.mean([r.total for r in hist[:5]])
        last = np.mean([r.total for r in hist[-5:]])
        assert last < first

    def test_divergence_reports_iteration(self, synth):
        scenes, provider, cfg = synth
        with np.errstate(all="ignore"), pytest.raises(
                TrainingDiverged, match=r"iteration \d+"):
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                train(scenes, provider, cfg,
                      Schedule(phases=[Phase(50, 1e6)], seed=3),
                      REGISTRY, CATEGORIES)

    def test_non_finite_loss_is_named(self, synth):
        scenes, provider, cfg = synth
        params = init_params(cfg, 3)
        params["obj_cls_w"][0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(scenes, provider, cfg,
                  Schedule(phases=[Phase(2, 1e-3)], seed=3),
                  REGISTRY, CATEGORIES, params=params)
        assert str(err.value) == ("iteration 0: non-finite loss term "
                                  "object_cls_loss")

    def test_non_finite_gradient_is_named(self, synth, monkeypatch):
        scenes, provider, cfg = synth
        real, calls = trainer.backward, []

        def poisoned(*args):
            grads, rep = real(*args)
            calls.append(None)
            if len(calls) == 2:
                grads["act_w"][0, 0] = np.inf
                grads["hum_fc2_b"][3] = np.nan  # earlier in parameter order
            return grads, rep

        monkeypatch.setattr(trainer, "backward", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            train(scenes, provider, cfg,
                  Schedule(phases=[Phase(4, 1e-3)], seed=3),
                  REGISTRY, CATEGORIES)
        assert str(err.value) == "iteration 1: non-finite gradient hum_fc2_b"

    def test_non_finite_parameter_is_named(self, synth, monkeypatch):
        scenes, provider, cfg = synth
        real, calls = trainer.sgd_step, []

        def overflowing(params, *args):
            real(params, *args)
            calls.append(None)
            if len(calls) == 3:
                params["mu_b"][0] = -np.inf
            return params, args[1]

        monkeypatch.setattr(trainer, "sgd_step", overflowing)
        with pytest.raises(TrainingDiverged) as err:
            train(scenes, provider, cfg,
                  Schedule(phases=[Phase(4, 1e-3)], seed=3),
                  REGISTRY, CATEGORIES)
        assert str(err.value) == "iteration 2: non-finite parameter mu_b"

    def test_parameter_beyond_float32_is_named(self, synth, monkeypatch):
        """Finite in float64, but training holds float32 parameters, in
        which it is an infinity."""
        scenes, provider, cfg = synth
        real, calls = trainer.sgd_step, []

        def overflowing(params, *args):
            real(params, *args)
            calls.append(None)
            if len(calls) == 3:
                params["mu_b"][0] = -1e39
            return params, args[1]

        monkeypatch.setattr(trainer, "sgd_step", overflowing)
        with pytest.raises(TrainingDiverged) as err:
            train(scenes, provider, cfg,
                  Schedule(phases=[Phase(4, 1e-3)], seed=3),
                  REGISTRY, CATEGORIES)
        assert str(err.value) == "iteration 2: non-finite parameter mu_b"

    def test_given_parameter_beyond_float32_is_named(self, synth):
        """A caller's float64 parameter beyond float32 rounds to an
        infinity, without a warning, and the first step names it."""
        scenes, provider, cfg = synth
        params = init_params(cfg, 3)
        params["act_b"][0] = 1e39
        with pytest.raises(TrainingDiverged) as err:
            train(scenes, provider, cfg,
                  Schedule(phases=[Phase(2, 1e-3)], seed=3),
                  REGISTRY, CATEGORIES, params=params)
        assert str(err.value) == "iteration 0: non-finite parameter act_b"

    def test_loss_log_is_parseable(self, synth, tmp_path):
        scenes, provider, cfg = synth
        log = tmp_path / "loss.log"
        train(scenes, provider, cfg,
              Schedule(phases=[Phase(3, 1e-3), Phase(2, 1e-4)], seed=3),
              REGISTRY, CATEGORIES, log_path=str(log))
        lines = log.read_text().strip().split("\n")
        assert lines[0].split() == [
            "iteration", "lr", "total", "object_cls_loss", "object_reg_loss",
            "action_cls_loss", "target_loc_loss", "interaction_cls_loss"]
        assert len(lines) == 1 + 5
        rows = [line.split() for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4]
        assert [float(r[1]) for r in rows] == [1e-3] * 3 + [1e-4] * 2
        for r in rows:
            assert all(np.isfinite(float(v)) for v in r[2:])

    def test_checkpoint_holds_the_trained_float32_parameters(self, synth,
                                                             tmp_path):
        """Training rounds to float32 once, at the start, so saving loses
        nothing, and loading returns the same float32 values."""
        scenes, provider, cfg = synth
        path = tmp_path / "ckpt.bin"
        params, _ = train(scenes, provider, cfg,
                          Schedule(phases=[Phase(3, 1e-3)], seed=3),
                          REGISTRY, CATEGORIES, checkpoint_path=str(path))
        ck = load_checkpoint(str(path))
        assert params.vector.dtype == np.float32
        assert ck.params.vector.dtype == np.float32
        assert list(ck.params) == list(params)
        assert ck.params.vector.tobytes() == params.vector.tobytes()

    def test_trained_and_loaded_parameters_infer_alike(self, synth,
                                                       tmp_path):
        """The parameters ``train`` returns and those its checkpoint
        loads are the same float32 bits, and the cascade scores every
        scene with them to equal triplets."""
        scenes, provider, cfg = synth
        path = tmp_path / "ckpt.bin"
        params, _ = train(scenes, provider, cfg,
                          Schedule(phases=[Phase(20, 1e-3)], seed=3),
                          REGISTRY, CATEGORIES, checkpoint_path=str(path))
        loaded = load_checkpoint(str(path)).params
        assert params.vector.dtype == loaded.vector.dtype == np.float32
        assert loaded.vector.tobytes() == params.vector.tobytes()
        ids = np.repeat([ts.scene_id for ts in scenes],
                        [len(ts.proposals) for ts in scenes])
        boxes = np.concatenate([ts.proposals for ts in scenes])
        trained, _ = infer(ids, boxes, provider, params, cfg, REGISTRY,
                           CATEGORIES)
        assert trained
        assert infer(ids, boxes, provider, loaded, cfg, REGISTRY,
                     CATEGORIES)[0] == trained

    def test_periodic_checkpoints(self, synth, tmp_path):
        scenes, provider, cfg = synth
        path = tmp_path / "ckpt.bin"
        train(scenes, provider, cfg,
              Schedule(phases=[Phase(4, 1e-3)], seed=3),
              REGISTRY, CATEGORIES, checkpoint_path=str(path),
              checkpoint_every=2)
        assert os.path.exists(path)
        ck = load_checkpoint(str(path))
        assert ck.config.feature_dim == cfg.feature_dim
        assert ck.actions == REGISTRY.to_json()

    def test_resume_from_given_parameters(self, synth):
        scenes, provider, cfg = synth
        p1, _ = train(scenes, provider, cfg,
                      Schedule(phases=[Phase(3, 1e-3)], seed=3),
                      REGISTRY, CATEGORIES)
        before = {k: v.copy() for k, v in p1.items()}
        p2, _ = train(scenes, provider, cfg,
                      Schedule(phases=[Phase(2, 1e-3)], seed=4),
                      REGISTRY, CATEGORIES, params=p1)
        assert any(not np.array_equal(before[k], p2[k]) for k in before)

    def test_requires_scenes(self, synth):
        _, provider, cfg = synth
        with pytest.raises(ValueError):
            train([], provider, cfg, Schedule(), REGISTRY, CATEGORIES)


class TestOverfit:
    def test_single_scene_loss_collapses(self, synth):
        scenes, provider, cfg = synth
        _, hist = train(scenes[:1], provider, cfg,
                        Schedule(phases=[Phase(500, 1e-3)], seed=11),
                        REGISTRY, CATEGORIES)
        assert hist[-1].total < 0.10 * hist[0].total
