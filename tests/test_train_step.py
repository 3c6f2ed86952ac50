"""The batched, array-native training step against the loops it replaced.

Label assignment on the IoU matrix must reproduce, exactly, the
proposal-by-proposal matching kept here as a reference. One ``backward``
over the 16 stacked images must match the 8 workers x 2 images gradient
accumulation over per-image branch passes with per-row loss loops, also
kept here; only the summation order differs, so the two agree to a
relative 1e-10. The row forms of the regression losses must equal their
single-row calls bit for bit.

Label assignment is one label table for many scenes plus a seeded draw
per visit to a scene. Each scene's part of a table built for many
scenes together, its indices made scene-local, must equal, bit for bit,
the table built for that scene alone, and what the training loop draws
from the table must equal the one-scene public path,
``featurize(assign_labels(...))``.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoidet.dataset import (
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    AnnotationError,
    Interaction,
    SynthConfig,
    generate_synthetic,
    synthetic_registry,
)
from hoidet.density import mdn_nll_grad, smooth_l1, smooth_l1_grad
from hoidet.features import SyntheticFeatureProvider
from hoidet.geometry import Box, box_array, encode_rel, iou
from hoidet.model import (
    LOGIT_CLIP,
    PROB_EPS,
    HeadConfig,
    ImageSamples,
    LossReport,
    LossWeights,
    _as_matrix,
    _clip_sigmoid,
    _relu,
    _softmax_rows,
    _trunk_backward,
    _trunk_forward,
    backward,
    init_params,
    zero_grads,
)
import hoidet.trainer as trainer
from hoidet.trainer import (
    LabelTable,
    Phase,
    SampleBoxes,
    Schedule,
    TrainScene,
    assign_labels,
    featurize,
    from_synthetic,
    label_tables,
    train,
)
from test_trainer import _scene

REGISTRY = synthetic_registry()
CATEGORIES = [PERSON_CATEGORY] + SYNTH_CATEGORIES


# --- (a) label assignment ----------------------------------------------------


def _reference_assign_labels(proposals, scene, registry, categories, seed=0,
                             object_quota=64, human_quota=16) -> SampleBoxes:
    """Proposal by proposal, ground truth by ground truth, scalar iou and
    encode_rel: the label assignment the array path replaced, with its
    general quota rule at a quarter positives and IoU 0.5."""
    pos_fraction, iou_pos = 0.25, 0.5
    rng = np.random.default_rng(seed)
    cat_index = {c: i + 1 for i, c in enumerate(categories)}
    a = len(registry)

    def rel(box, ref):
        return np.array(encode_rel(box, ref).as_tuple())

    n_persons = len(scene.persons)
    gt_boxes = [Box(*b) for b in scene.persons.tolist()
                + scene.objects.tolist()]
    gt_labels = [cat_index["person"]] * n_persons + [
        cat_index[c] for c in scene.categories
    ]
    gt_ignore = [False] * n_persons + scene.ignore.tolist()

    n = len(proposals)
    labels = np.zeros(n, dtype=int)
    reg_targets = np.zeros((n, 4))
    reg_mask = np.zeros(n, dtype=bool)
    pos_idx, neg_idx = [], []
    person_match = np.full(n, -1, dtype=int)
    person_iou = np.zeros(n)
    for i, prop in enumerate(proposals):
        best_j, best_v = -1, 0.0
        best_ign = 0.0
        for j, gt in enumerate(gt_boxes):
            v = iou(prop, gt)
            if gt_ignore[j]:
                best_ign = max(best_ign, v)
                continue
            if v > best_v:
                best_j, best_v = j, v
            if j < n_persons and v > person_iou[i]:
                person_match[i] = j
                person_iou[i] = v
        if best_v >= iou_pos:
            labels[i] = gt_labels[best_j]
            reg_targets[i] = rel(gt_boxes[best_j], prop)
            reg_mask[i] = True
            pos_idx.append(i)
        elif best_ign >= iou_pos:
            continue
        else:
            neg_idx.append(i)

    pos_requested = int(round(object_quota * pos_fraction))
    rng.shuffle(pos_idx)
    rng.shuffle(neg_idx)
    take_pos = pos_idx[:pos_requested]
    # negatives in the quota's ratio to the positives taken, within the
    # quota; none when the positive fraction is 0
    f = pos_fraction
    neg_wanted = (min(object_quota - len(take_pos),
                      int(round(len(take_pos) * (1 - f) / f))) if f > 0 else 0)
    take_neg = neg_idx[:neg_wanted]
    chosen = sorted(take_pos + take_neg)

    hum_idx = [i for i in range(n) if person_iou[i] >= iou_pos]
    rng.shuffle(hum_idx)
    hum_idx = sorted(hum_idx[:human_quota])

    hum_targets = np.zeros((len(hum_idx), a))
    hum_offsets = np.zeros((len(hum_idx), a, 4))
    hum_mask = np.zeros((len(hum_idx), a), dtype=bool)
    for row, i in enumerate(hum_idx):
        pid = person_match[i]
        for rec in scene.interactions:
            if rec.person != pid:
                continue
            for entry in registry.entries_for(rec.action):
                hum_targets[row, registry.index(entry.name, entry.role)] = 1.0
            if rec.role != ROLE_NONE:
                e = registry.index(rec.action, rec.role)
                if not hum_mask[row, e]:
                    hum_offsets[row, e] = rel(
                        gt_boxes[n_persons + rec.object], proposals[i])
                    hum_mask[row, e] = True

    pair_targets = {}
    for rec in scene.interactions:
        if rec.role == ROLE_NONE:
            continue
        t = pair_targets.setdefault((rec.person, rec.object), np.zeros(a))
        for entry in registry.entries_for(rec.action):
            t[registry.index(entry.name, entry.role)] = 1.0
    keys = sorted(pair_targets)
    return SampleBoxes(
        object_boxes=[proposals[i] for i in chosen],
        object_labels=labels[chosen],
        object_reg_targets=reg_targets[chosen],
        object_reg_mask=reg_mask[chosen],
        human_boxes=[proposals[i] for i in hum_idx],
        human_action_targets=hum_targets,
        human_target_offsets=hum_offsets,
        human_target_mask=hum_mask,
        interaction_pairs=[(gt_boxes[p], gt_boxes[n_persons + o])
                           for p, o in keys],
        interaction_action_targets=(np.stack([pair_targets[k] for k in keys])
                                    if keys else np.zeros((0, a))),
    )


def _assert_same_samples(got: SampleBoxes, want: SampleBoxes):
    """``want`` holds Box lists and (person Box, object Box) tuples where
    ``got`` holds their corner arrays."""
    want_boxes = {
        "object_boxes": box_array(want.object_boxes),
        "human_boxes": box_array(want.human_boxes),
        "interaction_pairs": box_array(
            [b for pair in want.interaction_pairs for b in pair]
        ).reshape(-1, 2, 4),
    }
    for name in ("object_boxes", "human_boxes", "interaction_pairs",
                 "object_labels", "object_reg_targets", "object_reg_mask",
                 "human_action_targets", "human_target_offsets",
                 "human_target_mask", "interaction_action_targets"):
        g = getattr(got, name)
        w = want_boxes.get(name, getattr(want, name))
        assert g.shape == w.shape and g.dtype.kind == w.dtype.kind, name
        assert np.all(g == w), name


def _check_assignment(proposals, scene, seed, positives=16, humans=16):
    """assign_labels, its caps patched to ``positives`` and ``humans``,
    against the reference at the same caps and a quarter positives."""
    with mock.patch.multiple(trainer, POSITIVES=positives, HUMANS=humans):
        got = assign_labels(proposals, scene, REGISTRY, CATEGORIES, seed)
    want = _reference_assign_labels(proposals, scene, REGISTRY, CATEGORIES,
                                    seed, object_quota=4 * positives,
                                    human_quota=humans)
    _assert_same_samples(got, want)
    return got


# integer corners on a small canvas make exact duplicates and IoU ties;
# float corners exercise the rounding of iou and encode_rel
CORNERS = st.one_of(st.integers(0, 40), st.floats(0.0, 40.0))
SIZES = st.one_of(st.integers(1, 24), st.floats(0.5, 24.0))
BOXES = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                  CORNERS, CORNERS, SIZES, SIZES)


@st.composite
def labeled_scenes(draw):
    persons = draw(st.lists(BOXES, max_size=3))
    objects = draw(st.lists(
        st.tuples(BOXES, st.sampled_from(SYNTH_CATEGORIES), st.booleans()),
        max_size=5))
    records = []
    if persons:
        entries = [e for e in REGISTRY
                   if e.role == ROLE_NONE or objects]
        for _ in range(draw(st.integers(0, 6))):
            e = draw(st.sampled_from(entries))
            person = draw(st.integers(0, len(persons) - 1))
            obj = (None if e.role == ROLE_NONE
                   else draw(st.integers(0, len(objects) - 1)))
            records.append(Interaction(person, e.name, e.role, obj))
        if records:  # a duplicate role record for the same person
            records.append(draw(st.sampled_from(records)))
    scene = _scene(persons, objects, records, size=64.0).validate(REGISTRY)
    gt = persons + [o[0] for o in objects]
    shifted = [Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
               for b, dx, dy in draw(st.lists(
                   st.tuples(st.sampled_from(gt), st.integers(-4, 4),
                             st.integers(-4, 4)), max_size=10))] if gt else []
    proposals = (draw(st.lists(st.sampled_from(gt), max_size=len(gt) + 2))
                 if gt else []) + shifted + draw(st.lists(BOXES, max_size=8))
    proposals = draw(st.permutations(proposals))
    return scene, proposals


@settings(max_examples=300, deadline=None)
# the paper's caps, and caps small enough to bind in these scenes
@given(labeled_scenes(), st.sampled_from([(16, 16), (1, 1), (2, 2)]),
       st.integers(0, 2**32 - 1))
def test_assign_labels_matches_reference(scene_and_props, caps, seed):
    scene, proposals = scene_and_props
    _check_assignment(proposals, scene, seed, *caps)


@pytest.mark.parametrize("config", [
    dict(num_scenes=12, seed=3),
    dict(num_scenes=8, seed=4, persons_per_scene=3, num_distractors=4,
         proposals_per_box=3),
])
def test_assign_labels_matches_reference_on_synthetic_scenes(config):
    for s in generate_synthetic(SynthConfig(**config)):
        for seed in range(3):
            _check_assignment([Box(*r) for r in s.proposals.tolist()],
                              s.annotation, (seed, s.annotation.image_id))


def _box(cx, cy, w, h):
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


PERSON = _box(20.0, 30.0, 10.0, 20.0)
KNIFE = _box(28.0, 30.0, 4.0, 3.0)


def test_scene_without_person():
    scene = _scene([], [(KNIFE, "knife")], [], size=64.0)
    got = _check_assignment([KNIFE, _box(50, 50, 6, 6), PERSON], scene, 1)
    assert len(got.human_boxes) == 0 and got.object_labels.tolist() != []


def test_scene_without_positives():
    scene = _scene([PERSON], [(KNIFE, "knife")],
                   [Interaction(0, "cut", "instrument", 0)], size=64.0)
    got = _check_assignment([_box(55, 55, 4, 4), _box(5, 5, 3, 3)], scene, 2)
    assert len(got.object_boxes) == 0 and len(got.human_boxes) == 0
    assert len(got.interaction_pairs) == 1


def test_ignore_region_and_duplicate_role_records():
    ghost = _box(50.0, 12.0, 8.0, 8.0)
    scene = _scene(
        [PERSON],
        [(KNIFE, "knife"), (_box(29.0, 31.0, 4.0, 3.0), "knife"),
         (ghost, "ball", True)],
        [Interaction(0, "cut", "instrument", 1),
         Interaction(0, "cut", "instrument", 0),
         Interaction(0, "stand", ROLE_NONE)], size=64.0)
    props = [PERSON, _box(20.5, 30.0, 10.0, 20.0), KNIFE, ghost,
             _box(50.5, 12.0, 8.0, 8.0), _box(5, 5, 3, 3)]
    got = _check_assignment(props, scene, 3)
    assert list(ghost.as_tuple()) not in got.object_boxes.tolist()
    assert got.human_target_mask.sum() == 2  # one entry per sampled person


def _train_scene(scene, proposals):
    return TrainScene(scene, box_array(proposals))


GHOST = _box(50.0, 12.0, 8.0, 8.0)
EDGE_SCENES = [
    _train_scene(_scene(  # no proposals
        [PERSON], [(KNIFE, "knife")],
        [Interaction(0, "cut", "instrument", 0)], size=64.0), []),
    _train_scene(_scene(  # no persons
        [], [(KNIFE, "knife")], [], size=64.0), [KNIFE, PERSON]),
    _train_scene(_scene(  # no objects
        [PERSON], [], [Interaction(0, "stand", ROLE_NONE)], size=64.0),
        [PERSON, KNIFE]),
    _train_scene(_scene(  # only ignored objects
        [PERSON], [(GHOST, "ball", True)], [], size=64.0),
        [PERSON, GHOST, _box(50.5, 12.0, 8.0, 8.0)]),
    _train_scene(_scene(  # duplicate role records
        [PERSON], [(KNIFE, "knife"), (_box(29.0, 31.0, 4.0, 3.0), "knife")],
        [Interaction(0, "cut", "instrument", 1),
         Interaction(0, "cut", "instrument", 0),
         Interaction(0, "cut", "instrument", 1)], size=64.0),
        [PERSON, _box(20.5, 30.0, 10.0, 20.0), KNIFE]),
    _train_scene(_scene(  # no ground truth at all
        [], [], [], size=64.0), [PERSON, KNIFE]),
]


def _scene_parts(table: LabelTable, scenes) -> list:
    """Each scene's part of the LabelTable of ``scenes``, its indices
    made scene-local: a one-scene LabelTable per scene."""
    parts, row, prop = [], 0, 0
    for s, ts in enumerate(scenes):
        n_p = len(ts.proposals)
        n_r = n_p + len(ts.annotation.persons) + len(ts.annotation.objects)
        r, p = slice(row, row + n_r), slice(prop, prop + n_p)
        (a0, b0, h0, q0), (a1, b1, h1, q1) = table.at[s:s + 2].tolist()
        h = slice(h0, h1)
        parts.append(LabelTable(
            boxes=table.boxes[r], scene_ids=table.scene_ids[r],
            proposal_rows=table.proposal_rows[p] - row,
            labels=table.labels[p], reg_targets=table.reg_targets[p],
            positives=table.positives[a0:a1] - prop,
            negatives=table.negatives[b0:b1] - prop,
            human_rows=table.human_rows[h] - row,
            action_targets=table.action_targets[h],
            target_offsets=table.target_offsets[h],
            target_mask=table.target_mask[h],
            pair_rows=table.pair_rows[q0:q1] - row,
            pair_targets=table.pair_targets[q0:q1],
            at=table.at[s:s + 2] - table.at[s]))
        row, prop = row + n_r, prop + n_p
    assert len(table.at) == len(scenes) + 1
    assert (row, prop) == (len(table.boxes), len(table.labels))
    assert table.at[-1].tolist() == [len(table.positives),
                                     len(table.negatives),
                                     len(table.human_rows),
                                     len(table.pair_rows)]
    return parts


def _joined(parts: list) -> LabelTable:
    """The LabelTable of the scenes of one-scene tables, in order, their
    indices made global."""
    rows = np.cumsum([0] + [len(t.boxes) for t in parts])
    props = np.cumsum([0] + [len(t.labels) for t in parts])
    shift = {"proposal_rows": rows, "human_rows": rows, "pair_rows": rows,
             "positives": props, "negatives": props}
    joined = {f.name: np.concatenate([
        getattr(t, f.name) + shift[f.name][i] if f.name in shift
        else getattr(t, f.name) for i, t in enumerate(parts)])
        for f in dataclasses.fields(LabelTable) if f.name != "at"}
    return LabelTable(**joined, at=np.concatenate((
        np.zeros((1, 4), dtype=int),
        np.cumsum([t.at[1] for t in parts], axis=0))))


def _assert_same_table(got: LabelTable, want: LabelTable):
    for field in dataclasses.fields(LabelTable):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert g.shape == w.shape and g.dtype == w.dtype, field.name
        assert g.tobytes() == w.tobytes(), field.name


@settings(max_examples=60, deadline=None)
@given(st.lists(labeled_scenes(), max_size=5).flatmap(
    lambda drawn: st.permutations(
        [_train_scene(*d) for d in drawn] + EDGE_SCENES)),
    st.sampled_from([1, 40, trainer._CHUNK_PAIRS]))
def test_tables_built_together_equal_tables_built_alone(scenes, chunk_pairs):
    # small chunks put chunk boundaries between the scenes
    with mock.patch.object(trainer, "_CHUNK_PAIRS", chunk_pairs):
        together = label_tables(scenes, REGISTRY, CATEGORIES)
    for field in dataclasses.fields(LabelTable):
        assert not getattr(together, field.name).flags.writeable, field.name
    for ts, got in zip(scenes, _scene_parts(together, scenes)):
        want = label_tables([ts], REGISTRY, CATEGORIES)
        _assert_same_table(got, want)
    _assert_same_table(_joined(_scene_parts(together, scenes)), together)


def test_chunks_keep_their_padded_block_within_bound(monkeypatch):
    small, _ = from_synthetic(generate_synthetic(SynthConfig(
        num_scenes=8, seed=4, persons_per_scene=1, num_distractors=1)))
    large, _ = from_synthetic(generate_synthetic(SynthConfig(
        num_scenes=1, seed=5, persons_per_scene=4, num_distractors=10)))
    scenes = small[:3] + large + small[3:]
    chunks, real = [], trainer._label_chunk

    def recording(chunk, *args):
        chunks.append(list(chunk))
        return real(chunk, *args)

    def block(chunk):
        return len(chunk) * max(len(ts.proposals) for ts in chunk) * max(
            [1] + [len(ts.annotation.persons) + len(ts.annotation.objects)
                   for ts in chunk])

    # the small scenes before the large one hold far fewer pairs than
    # the bound, but padded to the large scene's size with it they
    # exceed it
    bound = block(large) + 1
    assert block(small[:3] + large) > bound > sum(
        block([ts]) for ts in small[:3])
    monkeypatch.setattr(trainer, "_label_chunk", recording)
    monkeypatch.setattr(trainer, "_CHUNK_PAIRS", bound)
    table = label_tables(scenes, REGISTRY, CATEGORIES)
    assert [ts for chunk in chunks for ts in chunk] == scenes
    assert len(chunks) > 1
    for chunk in chunks:
        assert len(chunk) == 1 or block(chunk) <= bound
    for ts, got in zip(scenes, _scene_parts(table, scenes)):
        want = label_tables([ts], REGISTRY, CATEGORIES)
        _assert_same_table(got, want)


def test_training_draws_the_public_samples(monkeypatch):
    scenes, provider = from_synthetic(generate_synthetic(SynthConfig(
        num_scenes=5, seed=2, persons_per_scene=2, num_distractors=3)))
    cfg = HeadConfig(feature_dim=provider.feature_dim,
                     num_actions=len(REGISTRY),
                     num_object_classes=len(CATEGORIES), hidden_dim=8)
    schedule = Schedule(phases=[Phase(3, 1e-3)], seed=7)
    real, batches = trainer.backward, []

    def recording(batch, *args):
        batches.append(batch)
        return real(batch, *args)

    monkeypatch.setattr(trainer, "backward", recording)
    monkeypatch.setattr(trainer, "POSITIVES", 2)  # both caps bind
    monkeypatch.setattr(trainer, "HUMANS", 2)
    train(scenes, provider, cfg, schedule, REGISTRY, CATEGORIES)
    assert len(batches) == 3
    per = schedule.images_per_step
    for it, batch in enumerate(batches):
        picks = np.random.default_rng((schedule.seed, it)).integers(
            0, len(scenes), size=schedule.workers * per)
        assert len(batch) == len(picks)
        for b, (img, pick) in enumerate(zip(batch, picks)):
            ts = scenes[pick]
            want = featurize(assign_labels(
                ts.proposals, ts.annotation, REGISTRY, CATEGORIES,
                (schedule.seed, it, *divmod(b, per))),
                provider, ts.scene_id, cfg)
            for field in dataclasses.fields(ImageSamples):
                g, w = getattr(img, field.name), getattr(want, field.name)
                if field.name.endswith("_feats"):
                    # train keeps its pooled rows in float32, the
                    # precision every branch rounds them to
                    w = w.astype(np.float32)
                assert g.shape == w.shape and g.dtype == w.dtype, field.name
                assert np.all(g == w), field.name


def _pooling_events(monkeypatch):
    """Record, in call order, each ``pooled_matrix`` call's (scene id,
    box) rows as ("pool", rows) and each ``backward`` as ("step", None)."""
    events = []
    real_pool, real_backward = SyntheticFeatureProvider.pooled_matrix, \
        trainer.backward

    def pooling(self, scene_id, boxes):
        ids = np.broadcast_to(scene_id, (len(boxes),))
        events.append(("pool", [(int(i), *b) for i, b in
                                zip(ids, box_array(boxes).tolist())]))
        return real_pool(self, scene_id, boxes)

    def stepping(*args):
        events.append(("step", None))
        return real_backward(*args)

    monkeypatch.setattr(SyntheticFeatureProvider, "pooled_matrix", pooling)
    monkeypatch.setattr(trainer, "backward", stepping)
    return events


def _drawn_rows(scenes, schedule, it):
    """The (scene id, box) rows iteration ``it`` of ``train`` draws, by
    the one-scene public path."""
    per, rows = schedule.images_per_step, set()
    picks = np.random.default_rng((schedule.seed, it)).integers(
        0, len(scenes), size=schedule.workers * per)
    for b, pick in enumerate(picks.tolist()):
        ts = scenes[pick]
        s = assign_labels(ts.proposals, ts.annotation, REGISTRY, CATEGORIES,
                          (schedule.seed, it, *divmod(b, per)))
        for boxes in (s.object_boxes, s.human_boxes,
                      s.interaction_pairs.reshape(-1, 4)):
            rows.update((ts.scene_id, *b) for b in boxes.tolist())
    return rows


def test_each_drawn_row_is_pooled_once_before_training(monkeypatch):
    """``train`` pools every distinct (scene, box) row its draws name
    exactly once, and no other row, all before its first step."""
    scenes, provider, cfg = _sparse_world(num_scenes=12)
    schedule = Schedule(phases=[Phase(4, 1e-2), Phase(3, 1e-3)], seed=1)
    events = _pooling_events(monkeypatch)
    train(scenes, provider, cfg, schedule, REGISTRY, CATEGORIES)
    kinds = [kind for kind, _ in events]
    first_step = kinds.index("step")
    assert "pool" not in kinds[first_step:]
    assert kinds.count("step") == schedule.total_iterations
    pooled = [row for _, rows in events[:first_step] for row in rows]
    assert len(pooled) == len(set(pooled))
    assert set(pooled) == set().union(*(
        _drawn_rows(scenes, schedule, it)
        for it in range(schedule.total_iterations)))


@pytest.mark.parametrize("pool_rows", [1, 64])
def test_pooling_in_blocks_of_any_size_trains_alike(monkeypatch, pool_rows):
    """A run that pools its rows in three or more blocks, down to one
    row each, gives LossReports and final parameters equal, bit for
    bit, to a run with the default block size."""
    scenes, provider, cfg = _sparse_world(num_scenes=12)
    schedule = Schedule(phases=[Phase(4, 1e-2), Phase(3, 1e-3)], seed=2)
    want, want_history = train(scenes, provider, cfg, schedule, REGISTRY,
                               CATEGORIES)
    monkeypatch.setattr(trainer, "_POOL_ROWS", pool_rows)
    events = _pooling_events(monkeypatch)
    got, history = train(scenes, provider, cfg, schedule, REGISTRY,
                         CATEGORIES)
    assert [kind for kind, _ in events].count("pool") >= 3
    assert history == want_history
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def _sparse_world(num_scenes=40):
    """More scenes than a short schedule draws, and a head to train."""
    scenes, provider = from_synthetic(generate_synthetic(SynthConfig(
        num_scenes=num_scenes, seed=6, persons_per_scene=1,
        num_distractors=2)))
    cfg = HeadConfig(feature_dim=provider.feature_dim,
                     num_actions=len(REGISTRY),
                     num_object_classes=len(CATEGORIES), hidden_dim=8)
    return scenes, provider, cfg


def _drawn(schedule, num_scenes):
    """The scene indices a schedule's iterations pick."""
    return {int(p) for it in range(schedule.total_iterations)
            for p in np.random.default_rng((schedule.seed, it)).integers(
                0, num_scenes, size=schedule.workers * schedule.images_per_step)}


def test_labelling_only_drawn_scenes_changes_nothing(monkeypatch):
    """``train`` labels the scenes its schedule draws, in one call, and
    nothing else; its LossReports and final parameters equal, bit for
    bit, those of a run that labels every scene."""
    scenes, provider, cfg = _sparse_world()
    schedule = Schedule(phases=[Phase(2, 1e-2), Phase(1, 1e-3)], seed=3)
    drawn = _drawn(schedule, len(scenes))
    assert len(drawn) < len(scenes)
    real, calls = trainer.label_tables, []

    def recording(requested, *args):
        calls.append([ts.scene_id for ts in requested])
        return real(requested, *args)

    monkeypatch.setattr(trainer, "label_tables", recording)
    got, history = train(scenes, provider, cfg, schedule, REGISTRY,
                         CATEGORIES)
    assert calls == [sorted(scenes[i].scene_id for i in drawn)]

    def every_scene(requested, *args):
        parts = dict(zip(map(id, scenes),
                         _scene_parts(real(scenes, *args), scenes)))
        return _joined([parts[id(ts)] for ts in requested])

    monkeypatch.setattr(trainer, "label_tables", every_scene)
    want, want_history = train(scenes, provider, cfg, schedule, REGISTRY,
                               CATEGORIES)
    assert history == want_history
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_undrawn_scene_with_unknown_category_fails_before_iteration_0(
        monkeypatch):
    """Every scene's categories are checked, drawn or not: the first
    scene with an unknown one is named, as labelling every scene names
    it, and no iteration runs."""
    scenes, provider, cfg = _sparse_world()
    schedule = Schedule(phases=[Phase(1, 1e-3)], seed=3)
    undrawn = sorted(set(range(len(scenes))) - _drawn(schedule, len(scenes)))
    for i in undrawn[1:3]:
        ann = scenes[i].annotation
        assert len(ann.categories) > 0
        kites = dataclasses.replace(ann, categories=["kite"] * len(ann.objects))
        scenes[i] = TrainScene(kites, scenes[i].proposals)

    def no_iteration(*args):
        raise AssertionError("iteration 0 ran")

    monkeypatch.setattr(trainer, "backward", no_iteration)
    want = (f"scene {undrawn[1]}: object category 'kite' is not a "
            f"training category")
    with pytest.raises(AnnotationError) as err:
        train(scenes, provider, cfg, schedule, REGISTRY, CATEGORIES)
    assert str(err.value) == want
    with pytest.raises(AnnotationError) as every:
        label_tables(scenes, REGISTRY, CATEGORIES)
    assert str(every.value) == want


def _per_tensor_sgd_step(params, grads, velocity, lr, momentum,
                         weight_decay):
    """The optimizer step before the flat parameter vector: one new
    velocity and one new parameter array per named tensor."""
    for name in params:
        v = momentum * velocity[name] + grads[name] + weight_decay * params[name]
        velocity[name] = v
        params[name] = params[name] - lr * v


@pytest.mark.parametrize("head", ["fixed_sigma", "mdn_m2", "concat_mlp",
                                  "no_interaction"])
def test_training_step_equals_the_per_image_path(head):
    """``train``'s step (one gather over the batch, stacked sections, a
    flat parameter vector) against one ``featurize`` per image, the
    list form of ``backward`` and a per-tensor step, both in float32
    from the float64 initial parameters rounded once: every LossReport
    and final parameter is the same, bit for bit."""
    world = generate_synthetic(SynthConfig(
        num_scenes=5, seed=4, persons_per_scene=2, num_distractors=3))
    scenes, provider = from_synthetic(world)
    # a scene with neither persons nor pairs: empty human and pair sections
    ann = scenes[0].annotation
    bare = dataclasses.replace(ann, image_id=99, persons=np.zeros((0, 4)),
                               interactions=[])
    scenes.append(TrainScene(bare, scenes[0].proposals))
    provider = SyntheticFeatureProvider(
        {**provider.maps, 99: world[0].feature_map})
    kw = {"fixed_sigma": {}, "mdn_m2": dict(use_mdn=True, density_M=2),
          "concat_mlp": dict(pairwise_mode="concat_mlp"),
          "no_interaction": dict(use_interaction_branch=False)}[head]
    cfg = HeadConfig(feature_dim=provider.feature_dim,
                     num_actions=len(REGISTRY),
                     num_object_classes=len(CATEGORIES), hidden_dim=12, **kw)
    schedule = Schedule(phases=[Phase(2, 1e-2), Phase(2, 1e-3)], seed=5)
    weights = LossWeights(object_reg=0.5, target_loc=3.0)
    got, history = train(scenes, provider, cfg, schedule, REGISTRY,
                         CATEGORIES, loss_weights=weights)

    table = label_tables(scenes, REGISTRY, CATEGORIES)
    # the last scene's humans and pairs start where they end
    assert table.at[-2, 2:].tolist() == table.at[-1, 2:].tolist()
    params = {name: p.astype(np.float32)
              for name, p in init_params(cfg, schedule.seed).items()}
    velocity = {name: np.zeros_like(p) for name, p in params.items()}
    per, it, drawn = schedule.images_per_step, 0, set()
    for phase in schedule.phases:
        for _ in range(phase.iterations):
            picks = np.random.default_rng((schedule.seed, it)).integers(
                0, len(scenes), size=schedule.workers * per)
            drawn.update(picks.tolist())
            images = [featurize(assign_labels(
                scenes[pick].proposals, scenes[pick].annotation, REGISTRY,
                CATEGORIES, (schedule.seed, it, *divmod(b, per))),
                provider, scenes[pick].scene_id, cfg)
                for b, pick in enumerate(picks)]
            grads, rep = backward(images, params, cfg, weights)
            assert rep == history[it]
            _per_tensor_sgd_step(params, grads, velocity, phase.lr,
                                 schedule.momentum, schedule.weight_decay)
            it += 1
    assert len(scenes) - 1 in drawn
    assert list(got) == list(params)
    for name, want in params.items():
        assert got[name].tobytes() == want.tobytes(), name


# --- (b) one stacked backward ------------------------------------------------


def _ref_bce_mean(p, targets):
    return float(np.mean(np.sum(
        -(targets * np.log(p) + (1 - targets) * np.log(1 - p)), axis=1)))


def _ref_object(img, params, cfg, grads, cls_scale, reg_scale):
    feats = _as_matrix(img.object_feats, cfg.feature_dim)
    n = len(feats)
    if n == 0:
        return 0.0, 0.0
    labels = np.asarray(img.object_labels, dtype=int)
    z2, cache = _trunk_forward(feats, params, "obj")
    logits = z2 @ params["obj_cls_w"] + params["obj_cls_b"]
    inside = np.abs(logits) < LOGIT_CLIP
    probs = _softmax_rows(logits)
    p_true = probs[np.arange(n), labels]
    cls_loss = float(np.mean(-np.log(np.maximum(p_true, PROB_EPS))))
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits[p_true < PROB_EPS] = 0.0
    d_logits *= inside
    d_logits *= cls_scale / n
    deltas = (z2 @ params["obj_reg_w"] + params["obj_reg_b"]).reshape(
        n, cfg.num_object_classes + 1, 4)
    reg_loss = 0.0
    d_deltas = np.zeros_like(deltas)
    for i in np.flatnonzero(np.asarray(img.object_reg_mask, dtype=bool)):
        c = labels[i]
        reg_loss += smooth_l1(deltas[i, c], img.object_reg_targets[i])
        d_deltas[i, c] = smooth_l1_grad(deltas[i, c], img.object_reg_targets[i])
    reg_loss /= n
    d_reg_pre = d_deltas.reshape(n, -1) * (reg_scale / n)
    grads["obj_cls_w"] += z2.T @ d_logits
    grads["obj_cls_b"] += d_logits.sum(axis=0)
    grads["obj_reg_w"] += z2.T @ d_reg_pre
    grads["obj_reg_b"] += d_reg_pre.sum(axis=0)
    d_z2 = d_logits @ params["obj_cls_w"].T + d_reg_pre @ params["obj_reg_w"].T
    _trunk_backward(d_z2, cache, params, grads, "obj")
    return cls_loss, reg_loss


def _ref_human(img, params, cfg, grads, act_scale, loc_scale):
    feats = _as_matrix(img.human_feats, cfg.feature_dim)
    n = len(feats)
    if n == 0:
        return 0.0, 0.0
    a, m = cfg.num_actions, cfg.density_M
    targets = np.asarray(img.human_action_targets, dtype=np.float64)
    z2, cache = _trunk_forward(feats, params, "hum")
    p, mask = _clip_sigmoid(z2 @ params["act_w"] + params["act_b"])
    act_loss = _ref_bce_mean(p, targets)
    d_logits = (p - targets) * mask * (act_scale / n)
    grads["act_w"] += z2.T @ d_logits
    grads["act_b"] += d_logits.sum(axis=0)
    d_z2 = d_logits @ params["act_w"].T
    loc_mask = np.asarray(img.human_target_mask, dtype=bool)
    count = int(loc_mask.sum())
    loc_loss = 0.0
    mus = (z2 @ params["mu_w"] + params["mu_b"]).reshape(n, a, m, 4)
    d_mus = np.zeros_like(mus)
    if count:
        if cfg.use_mdn:
            wlogs = (z2 @ params["wlog_w"] + params["wlog_b"]).reshape(n, a, m)
            raws = (z2 @ params["sig_w"] + params["sig_b"]).reshape(n, a, m, 4)
            d_wlogs, d_raws = np.zeros_like(wlogs), np.zeros_like(raws)
            for i, j in np.argwhere(loc_mask):
                nll, d_lg, d_mu, d_rw = mdn_nll_grad(
                    img.human_target_offsets[i, j], wlogs[i, j], mus[i, j],
                    raws[i, j], sigma_floor=cfg.sigma_floor)
                loc_loss += nll
                d_wlogs[i, j], d_mus[i, j], d_raws[i, j] = d_lg, d_mu, d_rw
            d_wlog_pre = d_wlogs.reshape(n, -1) * (loc_scale / count)
            d_sig_pre = d_raws.reshape(n, -1) * (loc_scale / count)
            grads["wlog_w"] += z2.T @ d_wlog_pre
            grads["wlog_b"] += d_wlog_pre.sum(axis=0)
            grads["sig_w"] += z2.T @ d_sig_pre
            grads["sig_b"] += d_sig_pre.sum(axis=0)
            d_z2 += d_wlog_pre @ params["wlog_w"].T
            d_z2 += d_sig_pre @ params["sig_w"].T
        else:
            for i, j in np.argwhere(loc_mask):
                loc_loss += smooth_l1(mus[i, j, 0], img.human_target_offsets[i, j])
                d_mus[i, j, 0] = smooth_l1_grad(mus[i, j, 0],
                                                img.human_target_offsets[i, j])
        loc_loss /= count
        d_mu_pre = d_mus.reshape(n, -1) * (loc_scale / count)
        grads["mu_w"] += z2.T @ d_mu_pre
        grads["mu_b"] += d_mu_pre.sum(axis=0)
        d_z2 += d_mu_pre @ params["mu_w"].T
    _trunk_backward(d_z2, cache, params, grads, "hum")
    return act_loss, loc_loss


def _ref_interaction(img, params, cfg, grads, scale):
    feats_h = _as_matrix(img.interaction_h_feats, cfg.feature_dim)
    feats_o = _as_matrix(img.interaction_o_feats, cfg.feature_dim)
    n = len(feats_h)
    if n == 0 or not cfg.use_interaction_branch:
        return 0.0
    targets = np.asarray(img.interaction_action_targets, dtype=np.float64)
    z2h, cache_h = _trunk_forward(feats_h, params, "hum")
    z2o, cache_o = _trunk_forward(feats_o, params, "int")
    if cfg.pairwise_mode == "logit_sum":
        hw, hb = (("act_w", "act_b") if cfg.share_interaction_head
                  else ("int_h_w", "int_h_b"))
        p, mask = _clip_sigmoid(z2h @ params[hw] + params[hb]
                                + z2o @ params["int_o_w"] + params["int_o_b"])
        loss = _ref_bce_mean(p, targets)
        d_sum = (p - targets) * mask * (scale / n)
        grads[hw] += z2h.T @ d_sum
        grads[hb] += d_sum.sum(axis=0)
        grads["int_o_w"] += z2o.T @ d_sum
        grads["int_o_b"] += d_sum.sum(axis=0)
        d_z2h, d_z2o = d_sum @ params[hw].T, d_sum @ params["int_o_w"].T
    else:
        z = np.concatenate([z2h, z2o], axis=1)
        pre1 = z @ params["cm_fc1_w"] + params["cm_fc1_b"]
        hid = _relu(pre1)
        p, mask = _clip_sigmoid(hid @ params["cm_fc2_w"] + params["cm_fc2_b"])
        loss = _ref_bce_mean(p, targets)
        d_logits = (p - targets) * mask * (scale / n)
        grads["cm_fc2_w"] += hid.T @ d_logits
        grads["cm_fc2_b"] += d_logits.sum(axis=0)
        d_pre1 = (d_logits @ params["cm_fc2_w"].T) * (pre1 > 0)
        grads["cm_fc1_w"] += z.T @ d_pre1
        grads["cm_fc1_b"] += d_pre1.sum(axis=0)
        d_z = d_pre1 @ params["cm_fc1_w"].T
        d_z2h, d_z2o = d_z[:, :cfg.hidden_dim], d_z[:, cfg.hidden_dim:]
    _trunk_backward(d_z2h, cache_h, params, grads, "hum")
    _trunk_backward(d_z2o, cache_o, params, grads, "int")
    return loss


def _ref_backward(images, params, cfg, w):
    """One worker: every image's branches passed alone, scaled by 1/k."""
    k = len(images)
    grads, rep = zero_grads(params), LossReport()
    for img in images:
        cls_l, reg_l = _ref_object(img, params, cfg, grads,
                                   w.object_cls / k, w.object_reg / k)
        act_l, loc_l = _ref_human(img, params, cfg, grads,
                                  w.action_cls / k, w.target_loc / k)
        int_l = _ref_interaction(img, params, cfg, grads,
                                 w.interaction_cls / k)
        rep.object_cls_loss += cls_l / k
        rep.object_reg_loss += reg_l / k
        rep.action_cls_loss += act_l / k
        rep.target_loc_loss += loc_l / k
        rep.interaction_cls_loss += int_l / k
    return grads, rep.compute_total(w)


def _ref_accumulated(images, params, cfg, w, workers=8):
    """The 8 workers x 2 images loop: per-worker gradients summed and
    divided by the worker count, reports averaged the same way."""
    per = len(images) // workers
    acc, out = zero_grads(params), LossReport()
    for i in range(workers):
        grads, rep = _ref_backward(images[i * per:(i + 1) * per], params,
                                   cfg, w)
        for name in acc:
            acc[name] += grads[name]
        for name, value in rep.as_dict().items():
            setattr(out, name, getattr(out, name) + value / workers)
    for name in acc:
        acc[name] /= workers
    return acc, out


def _cfg(**kw):
    base = dict(feature_dim=7, num_actions=3, num_object_classes=2,
                hidden_dim=9, concat_hidden=6)
    base.update(kw)
    return HeadConfig(**base)


def _images(cfg, rng, empty=(), count=16):
    """Images with random section sizes, some sections empty; the names
    in ``empty`` are empty in every image."""
    out = []
    d, a = cfg.feature_dim, cfg.num_actions
    for _ in range(count):
        n_o = int(rng.integers(1, 9))
        n_h = 0 if "human" in empty else int(rng.integers(0, 5))
        n_i = 0 if "interaction" in empty else int(rng.integers(0, 4))
        labels = rng.integers(0, cfg.num_object_classes + 1, size=n_o)
        act_t = (rng.random((n_h, a)) < 0.5).astype(float)
        out.append(ImageSamples(
            object_feats=rng.normal(size=(n_o, d)),
            object_labels=labels,
            object_reg_targets=rng.normal(size=(n_o, 4)),
            object_reg_mask=labels > 0,
            human_feats=rng.normal(size=(n_h, d)),
            human_action_targets=act_t,
            human_target_offsets=rng.normal(size=(n_h, a, 4)),
            human_target_mask=(act_t > 0) & (rng.random((n_h, a)) < 0.7),
            interaction_h_feats=rng.normal(size=(n_i, d)),
            interaction_o_feats=rng.normal(size=(n_i, d)),
            interaction_action_targets=(rng.random((n_i, a)) < 0.5)
            .astype(float),
        ))
    return out


# subnormal gradient entries (far-tail responsibilities) carry no
# relative precision; below the smallest normal float only atol applies
TINY = np.finfo(np.float64).tiny

HEADS = {
    "fixed_sigma": _cfg(),
    "mdn_m2": _cfg(use_mdn=True, density_M=2),
    "mdn_m2_shared": _cfg(use_mdn=True, density_M=2,
                          share_interaction_head=True),
    "concat_mlp": _cfg(pairwise_mode="concat_mlp"),
    "no_interaction": _cfg(use_interaction_branch=False),
}


@pytest.mark.parametrize("empty", [(), ("human",), ("interaction",)],
                         ids=["mixed", "no_humans", "no_interactions"])
@pytest.mark.parametrize("head", sorted(HEADS))
def test_stacked_backward_matches_worker_accumulation(head, empty):
    cfg = HEADS[head]
    for seed in range(3):
        rng = np.random.default_rng((seed, len(empty)))
        params = init_params(cfg, seed)
        # scaled-up weights so that the clamps and both smooth-L1 pieces occur
        for name in params:
            params[name] = params[name] * 20.0 + rng.normal(
                size=params[name].shape) * 0.1
        weights = LossWeights(object_reg=0.5, target_loc=3.0)
        images = _images(cfg, rng, empty)
        got_grads, got = backward(images, params, cfg, weights)
        want_grads, want = _ref_accumulated(images, params, cfg, weights)
        assert set(got_grads) == set(want_grads)
        for name in want_grads:
            np.testing.assert_allclose(got_grads[name], want_grads[name],
                                       rtol=1e-10, atol=TINY, err_msg=name)
        for name, value in want.as_dict().items():
            np.testing.assert_allclose(getattr(got, name), value, rtol=1e-10,
                                       atol=0, err_msg=name)


# --- (c) row forms of the losses ---------------------------------------------


def test_smooth_l1_rows_equal_single_row_calls():
    rng = np.random.default_rng(5)
    pred = rng.normal(size=(40, 4)) * 2.0
    target = rng.normal(size=(40, 4))
    pred[0] = target[0]  # zero residual
    losses, grads = smooth_l1(pred, target), smooth_l1_grad(pred, target)
    assert losses.shape == (40,) and grads.shape == (40, 4)
    for i in range(len(pred)):
        one = smooth_l1(pred[i], target[i])
        assert isinstance(one, float) and losses[i] == one
        np.testing.assert_array_equal(grads[i], smooth_l1_grad(pred[i], target[i]))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_mdn_nll_grad_rows_equal_single_row_calls(m):
    rng = np.random.default_rng(m)
    rows = 25
    b = rng.normal(size=(rows, 4))
    logits = rng.normal(size=(rows, m)) * 3.0
    mus = rng.normal(size=(rows, m, 4))
    raws = rng.normal(size=(rows, m, 4)) * 2.0
    b[0] = 40.0  # far from every mode: the log-sum-exp path matters
    nll, d_lg, d_mu, d_rw = mdn_nll_grad(b, logits, mus, raws, sigma_floor=0.2)
    assert nll.shape == (rows,) and d_mu.shape == (rows, m, 4)
    for i in range(rows):
        one = mdn_nll_grad(b[i], logits[i], mus[i], raws[i], sigma_floor=0.2)
        assert isinstance(one[0], float) and nll[i] == one[0]
        for got, want in zip((d_lg[i], d_mu[i], d_rw[i]), one[1:]):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
