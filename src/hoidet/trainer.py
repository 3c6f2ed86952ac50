"""Multi-task training: label assignment, sampling quotas, and the loop.

Label assignment follows the detection convention: proposals (which
always include the ground-truth boxes) are matched to ground truth by
IoU at 0.5. The object branch samples at most 64 boxes per image, a
quarter of them positives and at most three negatives per positive
taken, so that when positives are scarce the negative count drops
with them. The human-centric branch samples at most 16 person boxes;
each carries a multi-hot action target over the registry entries
(verb-level: both role entries of a dual-role verb light up together)
and, per role entry with an annotated target object, the ground-truth
relative offset measured from the sampled box. Interaction samples are
ground-truth pairs only.

A scene's labels depend only on its fixed proposals and ground truth,
so ``train`` builds a scene's :class:`LabelTable` once, before
iteration 0 (as Fast R-CNN's roidb holds each image's matches and
regression targets), and only for the scenes its schedule draws: it
draws every iteration's picks first. A chunk of scenes is stacked into
zero-padded arrays straight from the annotations' box arrays, and a
proposal's match is the ``argmax`` of its row of one IoU block. A
scene's rows are its proposals, then its ground-truth boxes; a human
row is the proposal it was matched from, and a pair's ground-truth box
is the first proposal with the same corners when there is one. A visit
to a scene is then an index draw, :func:`_draw_rows`: its seeded
shuffles pick object and human rows of the table.
:func:`assign_labels` is the same path for one scene: its table, then
the draw, then the rows' boxes and labels.

Each iteration draws the 16-image effective batch (8 workers x 2
images, each image seeded by its (seed, iteration, worker, slot)) and
takes one ``backward`` over all of it. Before it runs a window of
consecutive iterations, ``train`` draws the window's images and pools
the distinct rows they name in one provider call with a per-row scene
id (as Fast R-CNN pools a mini-batch's RoIs in one RoI layer); a
window holds at most ``_WINDOW_BYTES`` of pooled rows. An iteration's
:class:`Batch` is then row takes from those features and from the
drawn tables' labels, laid out section-major: the object rows of the
16 images, then their human rows, pair-human rows and pair-object
rows, each section in image order. Pooling is row-local, so a window's
features are those of pooling each image's boxes on each visit. Each
branch's feature matrix is a slice of the batch's rows, and a row of
image i weighs 1/(16 n_i) for the image's n_i rows in that section:
the objective is the mean over images of the per-image mean loss.
Parameters, gradients and momentum are each one vector
(:class:`FlatTensors`, as :func:`init_params` returns), so zeroing the
gradients is one fill, the SGD step works on the whole vector in place
and each finite or range check reads the whole vector and names the
tensor only on failure.
Training is bit-reproducible given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    ROLE_NONE,
    ActionRegistry,
    AnnotationError,
    SceneAnnotation,
)
from .geometry import box_array, box_iou, encode_rels
from .model import (
    Batch,
    FlatTensors,
    HeadConfig,
    ImageSamples,
    LossWeights,
    backward,
    first_non_finite,
    init_params,
    save_checkpoint,
    sgd_step,
    zero_grads,
)


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class Quotas:
    object_quota: int = 64
    pos_fraction: float = 0.25
    human_quota: int = 16
    iou_pos: float = 0.5

    def __post_init__(self):
        if not 0 < self.iou_pos <= 1:
            raise ValueError(f"iou_pos must be in (0, 1], got {self.iou_pos}")
        if not 0 <= self.pos_fraction <= 1:
            raise ValueError(
                f"pos_fraction must be in [0, 1], got {self.pos_fraction}")
        if not (self.object_quota >= 0 and self.human_quota >= 0):
            raise ValueError(
                f"quotas must be >= 0, got object_quota={self.object_quota}, "
                f"human_quota={self.human_quota}")


@dataclass(frozen=True)
class Phase:
    iterations: int
    lr: float


@dataclass
class Schedule:
    phases: list = field(
        default_factory=lambda: [Phase(10000, 1e-3), Phase(3000, 1e-4)]
    )
    images_per_step: int = 2
    workers: int = 8
    seed: int = 0
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self):
        self.phases = [p if isinstance(p, Phase) else Phase(*p) for p in self.phases]
        if not self.phases:
            raise ValueError("schedule needs at least one phase")
        if not all(0 <= p.lr < math.inf and p.iterations >= 0
                   for p in self.phases):  # NaN too
            raise ValueError("phase rates must be nonnegative and finite")
        if self.total_iterations < 1:
            raise ValueError("schedule needs at least one iteration")
        if self.images_per_step < 1 or self.workers < 1:
            raise ValueError("batch shape must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (0 <= self.momentum < math.inf
                and 0 <= self.weight_decay < math.inf):  # NaN too
            raise ValueError("momentum and weight_decay must be nonnegative "
                             "and finite")

    @property
    def total_iterations(self) -> int:
        return sum(p.iterations for p in self.phases)


@dataclass
class TrainScene:
    """One training image: its annotation and its ``(N, 4)`` float64
    array of proposal corners. Its id is the annotation's, so that it
    pools its own scene's map."""

    annotation: SceneAnnotation
    proposals: np.ndarray

    @property
    def scene_id(self) -> int:
        return self.annotation.image_id


def from_synthetic(scenes):
    """Adapt generated scenes into (TrainScene list, feature provider)."""
    from .features import SyntheticFeatureProvider

    train_scenes = [TrainScene(s.annotation, s.proposals) for s in scenes]
    provider = SyntheticFeatureProvider(
        {s.annotation.image_id: s.feature_map for s in scenes}
    )
    return train_scenes, provider


@dataclass
class SampleBoxes:
    """One draw's labeled boxes before feature pooling. Boxes are (N, 4)
    corner arrays; interaction pairs are (N, 2, 4), person then object."""

    object_boxes: np.ndarray
    object_labels: np.ndarray
    object_reg_targets: np.ndarray
    object_reg_mask: np.ndarray
    human_boxes: np.ndarray
    human_action_targets: np.ndarray
    human_target_offsets: np.ndarray
    human_target_mask: np.ndarray
    interaction_pairs: np.ndarray
    interaction_action_targets: np.ndarray


@dataclass
class LabelTable:
    """One scene's labels: everything a draw needs except the seeded
    sampling, fixed by the scene's proposals and ground truth.

    The scene's rows (``boxes``) are its N proposals, then its
    ground-truth boxes (persons, then objects). Per proposal: the class
    label (0 = background) and the regression target toward the matched
    box (zero unless positive). ``positives`` and ``negatives`` hold
    proposal indices in ascending order; a proposal in neither overlaps
    an ignore region. ``human_rows`` are the proposals matching a
    person, in ascending order, each with its person's action targets
    and, per role entry, the offset of the entry's target object from
    the box and whether one is defined (the first record wins on
    duplicate role records). ``pair_rows`` hold the person and object
    row of each annotated pair, in sorted index order, with the pair's
    action targets. The arrays are read-only.
    """

    boxes: np.ndarray
    labels: np.ndarray
    reg_targets: np.ndarray
    positives: list
    negatives: list
    human_rows: np.ndarray
    action_targets: np.ndarray
    target_offsets: np.ndarray
    target_mask: np.ndarray
    pair_rows: np.ndarray
    pair_targets: np.ndarray


# train pools the distinct rows a window of consecutive iterations
# draws in one (rows, feature_dim) float64 array of at most this many
# bytes (a window of one iteration may hold more), so that the memory
# it adds stays bounded however long the schedule and however many
# scenes it draws: unbounded, a 2000-scene run's pooled rows took
# 150 MB. A longer window only saves re-pooling the rows it shares
# with the next one: 1000 iterations over 2000 scenes took 9.7 s
# pooling every draw, 8.0 s in 8 MB windows, 7.9 s in 32 MB windows
# and 7.2 s unbounded (one BLAS thread, 2 vCPUs)
_WINDOW_BYTES = 32 << 20

# label_tables matches the scenes in chunks, each as one zero-padded
# (scenes, proposals, ground truth) IoU block of at most this many
# entries: its temporary arrays take about 60 bytes per entry, so a
# chunk's stay under 0.5 MB whatever the number and mix of scenes (a
# scene with a larger block is a chunk of its own)
_CHUNK_PAIRS = 8192


def label_tables(scenes, registry: ActionRegistry, categories,
                 quotas: Quotas = Quotas()) -> list:
    """The LabelTable of every TrainScene, built together.

    categories lists the non-background class names and must contain
    "person" and every object's category (AnnotationError otherwise);
    class index = list position + 1, background 0. A proposal matches
    the first ground-truth box of highest IoU (ignore regions excluded),
    and its person match likewise among the persons; a match at IoU >=
    ``quotas.iou_pos`` makes it positive, or a human. A chunk of scenes
    is stacked into zero-padded proposal and ground-truth arrays, the
    latter filled from the annotations' person and object arrays, and
    each match is an ``argmax`` along the ground-truth axis of one IoU
    block (a zero-area pad overlaps nothing); only the interaction
    records are walked scene by scene. A scene's table does not depend
    on the other scenes.
    """
    cat_index = _class_index(categories)
    tables, chunk, p, g = [], [], 0, 1
    for ts in scenes:
        n_p = len(ts.proposals)
        n_g = len(ts.annotation.persons) + len(ts.annotation.objects)
        if chunk and (len(chunk) + 1) * max(p, n_p) * max(g, n_g) > _CHUNK_PAIRS:
            tables += _label_chunk(chunk, registry, cat_index, quotas.iou_pos)
            chunk, p, g = [], 0, 1
        chunk.append(ts)
        p, g = max(p, n_p), max(g, n_g)
    if chunk:
        tables += _label_chunk(chunk, registry, cat_index, quotas.iou_pos)
    return tables


def _class_index(categories) -> dict:
    """Class index of each training category (list position + 1);
    AnnotationError unless "person" is one."""
    cat_index = {c: i + 1 for i, c in enumerate(categories)}
    if "person" not in cat_index:
        raise AnnotationError('categories must include "person"')
    return cat_index


def _object_labels(scenes, cat_index: dict) -> list:
    """The class index of every object of the TrainScenes, scene by
    scene; AnnotationError naming the first scene with an object whose
    category ``cat_index`` lacks, and that category."""
    labels = []
    for ts in scenes:
        try:
            labels += map(cat_index.__getitem__, ts.annotation.categories)
        except KeyError as exc:
            raise AnnotationError(f"scene {ts.scene_id}: object category "
                                  f"{exc.args[0]!r} is not a training "
                                  f"category")
    return labels


def _label_chunk(scenes, registry: ActionRegistry, cat_index: dict,
                 iou_pos: float) -> list:
    """:func:`label_tables` of one chunk of scenes."""
    a = len(registry)
    verb_cols = {verb: [registry.index(e.name, e.role)
                        for e in registry.entries_for(verb)]
                 for verb in registry.verbs}
    anns = [ts.annotation for ts in scenes]
    object_labels = _object_labels(scenes, cat_index)
    act = []  # (scene, person, entry) cells set by the records
    roles = {}  # (scene, person, entry) -> target object; first record wins
    pairs, pair_target_rows, pair_cols = [], [], []  # (scene, person, object)
    for s, ann in enumerate(anns):
        pair_cats = {}
        for rec in ann.interactions:
            cols = verb_cols[rec.action]
            act += [(s, rec.person, c) for c in cols]
            if rec.role != ROLE_NONE:
                o = len(ann.persons) + rec.object
                roles.setdefault(
                    (s, rec.person, registry.index(rec.action, rec.role)), o)
                pair_cats.setdefault((rec.person, o), set()).update(cols)
        for key in sorted(pair_cats):
            pair_target_rows += [len(pairs)] * len(pair_cats[key])
            pair_cols += pair_cats[key]
            pairs.append((s, *key))

    # the chunk as zero-padded arrays, each scene's ground truth its
    # persons, then its objects, and at least one proposal and one
    # ground-truth column for argmax (a row of IoU 0, as a pad's, never
    # matches: iou_pos > 0)
    n_prop = [len(ts.proposals) for ts in scenes]
    n_pers = np.array([len(ann.persons) for ann in anns], dtype=int)
    n_gt = n_pers + [len(ann.objects) for ann in anns]
    slot = np.arange(max(1, n_gt.max(initial=0)))
    is_person = slot < n_pers[:, None]
    is_object = ~is_person & (slot < n_gt[:, None])
    gt = np.zeros(is_person.shape + (4,))
    gt[is_person] = np.concatenate([ann.persons for ann in anns])
    gt[is_object] = np.concatenate([ann.objects for ann in anns])
    labels_gt = np.where(is_person, cat_index["person"], 0)
    labels_gt[is_object] = object_labels
    ignored = np.zeros(is_person.shape, bool)
    ignored[is_object] = np.concatenate([ann.ignore for ann in anns])
    props = np.zeros((len(scenes), max(1, *n_prop), 4))
    for s, ts in enumerate(scenes):
        props[s, :n_prop[s]] = ts.proposals

    overlap = box_iou(props[:, :, None], gt[:, None])
    best = np.where(ignored[:, None], 0.0, overlap)
    best_j = best.argmax(axis=2)
    pos = best.max(axis=2) >= iou_pos
    # overlapping an ignore region: neither positive nor negative
    neg = ~pos & (np.where(ignored[:, None], overlap, 0.0).max(axis=2)
                  < iou_pos)
    persons = np.where(slot < n_pers[:, None, None], overlap, 0.0)
    hs, hp = np.nonzero(persons.max(axis=2) >= iou_pos)
    person = persons.argmax(axis=2)[hs, hp]

    labels = np.where(pos, np.take_along_axis(labels_gt, best_j, axis=1), 0)
    reg_targets = np.zeros(props.shape)
    matched = np.take_along_axis(gt, best_j[..., None], axis=1)
    reg_targets[pos] = encode_rels(matched[pos], props[pos])

    actions = np.zeros(is_person.shape + (a,))
    actions[tuple(np.array(act, dtype=int).reshape(-1, 3).T)] = 1.0
    role_keys = np.array(list(roles), dtype=int).reshape(-1, 3)
    role_objects = np.full(is_person.shape + (a,), -1)
    role_objects[tuple(role_keys.T)] = list(roles.values())
    targets = role_objects[hs, person]
    target_mask = targets >= 0
    rows, cols = np.nonzero(target_mask)
    offsets = np.zeros((len(hs), a, 4))
    offsets[rows, cols] = encode_rels(gt[hs[rows], targets[rows, cols]],
                                      props[hs[rows], hp[rows]])
    pairs = np.array(pairs, dtype=int).reshape(-1, 3)
    # a ground-truth box's row is the first proposal with its corners,
    # if any, else its own row after the scene's proposals
    real = np.arange(props.shape[1]) < np.array(n_prop)[:, None]
    same = (props[:, :, None] == gt[:, None]).all(axis=3) & real[..., None]
    gt_rows = np.where(same.any(axis=1), same.argmax(axis=1),
                       np.array(n_prop)[:, None] + slot)
    pair_rows = gt_rows[pairs[:, :1], pairs[:, 1:]]
    pair_targets = np.zeros((len(pairs), a))
    pair_targets[pair_target_rows, pair_cols] = 1.0

    action_targets = actions[hs, person]
    for arr in (labels, reg_targets, hp, action_targets, offsets,
                target_mask, pair_rows, pair_targets):
        arr.flags.writeable = False
    # each scene's humans and pairs, in scene order
    h_at = np.searchsorted(hs, np.arange(len(scenes) + 1)).tolist()
    q_at = np.searchsorted(pairs[:, 0], np.arange(len(scenes) + 1)).tolist()
    tables = []
    for s, n in enumerate(n_prop):
        h, q = slice(h_at[s], h_at[s + 1]), slice(q_at[s], q_at[s + 1])
        boxes = np.concatenate((props[s, :n], gt[s, :n_gt[s]]))
        boxes.flags.writeable = False
        tables.append(LabelTable(
            boxes=boxes, labels=labels[s, :n],
            reg_targets=reg_targets[s, :n],
            positives=np.flatnonzero(pos[s, :n]).tolist(),
            negatives=np.flatnonzero(neg[s, :n]).tolist(),
            human_rows=hp[h], action_targets=action_targets[h],
            target_offsets=offsets[h], target_mask=target_mask[h],
            pair_rows=pair_rows[q], pair_targets=pair_targets[q]))
    return tables


def _draw_rows(table: LabelTable, quotas: Quotas, seed):
    """One visit's draw from a scene's table, as row indices: the
    object section's proposal indices and the human section's indices
    into the table's humans, both ascending.

    The generator seeded by ``seed`` shuffles the positives, the
    negatives and the humans, in that order. The object section takes
    the first ``round(Q f)`` shuffled positives, for ``Q =
    object_quota`` and ``f = pos_fraction``, and, for f > 0, the first
    ``min(Q - p, round(p (1 - f) / f))`` shuffled negatives for the p
    positives taken, so that it holds at most Q rows and at most the
    quota's share of negatives; when positives are scarce the negative
    count drops with them. The human section takes the first
    ``human_quota`` shuffled humans.
    """
    rng = np.random.default_rng(seed)
    pos, neg = list(table.positives), list(table.negatives)
    rng.shuffle(pos)
    rng.shuffle(neg)
    q, f = quotas.object_quota, quotas.pos_fraction
    take_pos = pos[:int(round(q * f))]
    p = len(take_pos)
    take_neg = neg[:min(q - p, int(round(p * (1 - f) / f)))] if f else []
    humans = list(range(len(table.human_rows)))
    rng.shuffle(humans)
    return (np.array(sorted(take_pos + take_neg), dtype=int),
            np.array(sorted(humans[:quotas.human_quota]), dtype=int))


def assign_labels(proposals, scene: SceneAnnotation, registry: ActionRegistry,
                  categories, quotas: Quotas = Quotas(), seed=0) -> SampleBoxes:
    """Match proposals (an ``(N, 4)`` array or a ``Box`` list) to ground
    truth and sample the three sections: the one-scene
    :func:`label_tables`, then the rows of :func:`_draw_rows`, in
    ascending proposal order, and all the ground-truth pairs."""
    table, = label_tables([TrainScene(scene, box_array(proposals))],
                          registry, categories, quotas)
    objects, humans = _draw_rows(table, quotas, seed)
    labels = table.labels[objects]
    return SampleBoxes(
        object_boxes=table.boxes[objects],
        object_labels=labels,
        object_reg_targets=table.reg_targets[objects],
        object_reg_mask=labels > 0,
        human_boxes=table.boxes[table.human_rows[humans]],
        human_action_targets=table.action_targets[humans],
        human_target_offsets=table.target_offsets[humans],
        human_target_mask=table.target_mask[humans],
        interaction_pairs=table.boxes[table.pair_rows],
        interaction_action_targets=table.pair_targets,
    )


def featurize(samples: SampleBoxes, provider, scene_id: int,
              cfg: HeadConfig) -> ImageSamples:
    """One image's samples with their pooled features: its object,
    human, pair-human and pair-object boxes pooled in one provider
    call, each section's features a slice of its rows."""
    pairs = samples.interaction_pairs
    sections = (samples.object_boxes, samples.human_boxes, pairs[:, 0],
                pairs[:, 1])
    feats = provider.pooled_matrix(scene_id, np.concatenate(sections))
    h, i, o = np.cumsum([len(b) for b in sections[:3]]).tolist()
    return ImageSamples(
        object_feats=feats[:h],
        object_labels=samples.object_labels,
        object_reg_targets=samples.object_reg_targets,
        object_reg_mask=samples.object_reg_mask,
        human_feats=feats[h:i],
        human_action_targets=samples.human_action_targets,
        human_target_offsets=samples.human_target_offsets,
        human_target_mask=samples.human_target_mask,
        interaction_h_feats=feats[i:o],
        interaction_o_feats=feats[o:],
        interaction_action_targets=samples.interaction_action_targets,
    )


class _Drawn:
    """The drawn scenes' label tables end to end, so that a step's
    labels and feature rows are takes: the rows (boxes) of table ``s``
    follow those of tables ``0 .. s-1``, and likewise its proposal
    labels (from ``label_at[s]`` on), its humans (from ``human_at[s]``
    on) and its pairs (``pairs[s]``). ``proposal_rows``, ``human_rows``
    and ``pair_rows`` give each proposal's, human's and pair's rows
    among all the tables' rows, and ``scene_ids`` each row's scene."""

    def __init__(self, tables: list, scene_ids):
        def joined(name):
            return np.concatenate([getattr(t, name) for t in tables])

        def starts(name):
            return np.cumsum([0] + [len(getattr(t, name)) for t in tables])

        def shifted(arrays):  # table-local rows as rows of all tables
            return np.concatenate([a + r for a, r in zip(arrays, row_at)])

        self.tables = tables
        row_at = starts("boxes")[:-1].tolist()
        self.boxes = joined("boxes")
        self.scene_ids = np.repeat(scene_ids, [len(t.boxes) for t in tables])
        self.label_at, self.human_at = starts("labels"), starts("human_rows")
        self.labels, self.reg_targets = joined("labels"), joined("reg_targets")
        self.proposal_rows = shifted(np.arange(len(t.labels)) for t in tables)
        self.human_rows = shifted(t.human_rows for t in tables)
        self.action_targets = joined("action_targets")
        self.target_offsets = joined("target_offsets")
        self.target_mask = joined("target_mask")
        pair_at = starts("pair_rows").tolist()
        self.pairs = [np.arange(a, b) for a, b in zip(pair_at, pair_at[1:])]
        self.pair_rows = shifted(t.pair_rows for t in tables)
        self.pair_targets = joined("pair_targets")


@dataclass
class _Step:
    """One iteration's draw: the proposal, human and pair indices of its
    images' samples into a :class:`_Drawn`, each section in image
    order, the per-image counts, and the feature rows of the object,
    human, pair-human and pair-object sections, in that order."""

    objects: np.ndarray
    humans: np.ndarray
    pairs: np.ndarray
    counts: list
    rows: np.ndarray


def _draw_step(drawn: _Drawn, slots, quotas: Quotas, seeds) -> _Step:
    """The draws of the images of tables ``slots``, image ``b`` seeded
    by ``seeds[b]``, as one :class:`_Step`."""
    sections = ([], [], [])
    for s, seed in zip(slots, seeds):
        objects, humans = _draw_rows(drawn.tables[s], quotas, seed)
        sections[0].append(objects + drawn.label_at[s])
        sections[1].append(humans + drawn.human_at[s])
        sections[2].append(drawn.pairs[s])
    counts = [np.array([len(x) for x in sec], dtype=int) for sec in sections]
    objects, humans, pairs = (np.concatenate(sec) for sec in sections)
    rows = np.concatenate((drawn.proposal_rows[objects],
                           drawn.human_rows[humans],
                           drawn.pair_rows[pairs].T.ravel()))
    return _Step(objects, humans, pairs, counts, rows)


def _windows(steps, num_rows: int, cap: int):
    """The steps in consecutive windows whose feature rows hold at most
    ``cap`` distinct rows between them (a step alone may hold more),
    each with its sorted distinct rows."""
    seen = np.zeros(num_rows, dtype=bool)
    window, count = [], 0
    for step in steps:
        new = np.unique(step.rows[~seen[step.rows]])
        if window and count + len(new) > cap:
            yield window, np.flatnonzero(seen)
            seen[:] = False
            window, count, new = [], 0, np.unique(step.rows)
        seen[new] = True
        count += len(new)
        window.append(step)
    yield window, np.flatnonzero(seen)


def _batch(drawn: _Drawn, step: _Step, feats: np.ndarray) -> Batch:
    """A step's Batch, with ``feats`` the pooled features of its rows."""
    h, i, o = np.cumsum([len(step.objects), len(step.humans),
                         len(step.pairs)]).tolist()
    labels = drawn.labels.take(step.objects)
    return Batch(
        ImageSamples(
            object_feats=feats[:h],
            object_labels=labels,
            object_reg_targets=drawn.reg_targets.take(step.objects, axis=0),
            object_reg_mask=labels > 0,
            human_feats=feats[h:i],
            human_action_targets=drawn.action_targets.take(step.humans,
                                                           axis=0),
            human_target_offsets=drawn.target_offsets.take(step.humans,
                                                           axis=0),
            human_target_mask=drawn.target_mask.take(step.humans, axis=0),
            interaction_h_feats=feats[i:o],
            interaction_o_feats=feats[o:],
            interaction_action_targets=drawn.pair_targets.take(step.pairs,
                                                               axis=0),
        ),
        object_counts=step.counts[0], human_counts=step.counts[1],
        pair_counts=step.counts[2])


def _check_finite(tensors, cfg: HeadConfig, what: str) -> None:
    """TrainingDiverged naming the first non-finite tensor of the
    FlatTensors ``tensors``, checked as one vector."""
    if not np.isfinite(tensors.vector).all():
        raise TrainingDiverged(f"{what} {first_non_finite(tensors, cfg)}")


# checkpoints hold float32, which would store a parameter of larger
# magnitude as an infinity that loading then refuses
_PARAM_LIMIT = float(np.finfo(np.float32).max)


def _check_params(params, cfg: HeadConfig, it: int) -> None:
    """TrainingDiverged naming the first parameter tensor that holds a
    NaN, an infinity or a magnitude above ``_PARAM_LIMIT``, checked as
    one vector."""
    v = params.vector
    if not (v.min() >= -_PARAM_LIMIT and v.max() <= _PARAM_LIMIT):
        _check_finite(params, cfg, f"iteration {it}: non-finite parameter")
        name = next(n for n, t in params.items()
                    if (np.abs(t) > _PARAM_LIMIT).any())
        raise TrainingDiverged(f"iteration {it}: parameter {name} exceeds "
                               f"the float32 range")


LOG_FIELDS = ("total", "object_cls_loss", "object_reg_loss", "action_cls_loss",
              "target_loc_loss", "interaction_cls_loss")


def train(scenes, provider, cfg: HeadConfig, schedule: Schedule,
          registry: ActionRegistry, categories,
          quotas: Quotas = Quotas(), loss_weights: LossWeights = LossWeights(),
          params=None, log_path=None, checkpoint_path=None,
          checkpoint_every: int = 0):
    """Run the schedule; returns (params, LossReport history).

    Deterministic given the seed: scene choice, sampling, and gradient
    reduction all follow fixed seeded orders. Iteration ``it`` picks its
    images from ``default_rng((seed, it))``; every iteration's picks are
    drawn before iteration 0, and one :func:`label_tables` call labels
    the distinct scenes they name, so a scene the schedule never draws
    is never labelled. Raises AnnotationError before iteration 0 when
    there are no scenes or the categories cannot label every scene,
    drawn or not (see :func:`label_tables`), and TrainingDiverged with
    the iteration index when the loss or a gradient leaves the finite
    range or, after the step, a parameter leaves float32's (checkpoints
    hold float32); tensors are named.
    """
    if not scenes:
        raise AnnotationError("training needs at least one scene")
    _object_labels(scenes, _class_index(categories))  # drawn or not
    per = schedule.images_per_step
    picks = np.empty((schedule.total_iterations, schedule.workers * per),
                     dtype=np.int64)
    for it, row in enumerate(picks):
        row[:] = np.random.default_rng((schedule.seed, it)).integers(
            0, len(scenes), size=len(row))
    drawn = np.unique(picks)
    tables = _Drawn(label_tables([scenes[i] for i in drawn.tolist()],
                                 registry, categories, quotas),
                    [scenes[i].scene_id for i in drawn.tolist()])
    slots = np.searchsorted(drawn, picks).tolist()
    steps = (_draw_step(tables, row, quotas,
                        [(schedule.seed, it, *divmod(b, per))
                         for b in range(len(row))])
             for it, row in enumerate(slots))
    rates = [phase.lr for phase in schedule.phases
             for _ in range(phase.iterations)]
    # parameters, gradients and velocity: one vector each, every named
    # tensor a view into it; a caller's parameters are copied, not moved
    params = (init_params(cfg, schedule.seed) if params is None
              else FlatTensors(params))
    grads, velocity = zero_grads(params), zero_grads(params)
    history = []
    log_fh = open(log_path, "w") if log_path else None
    if log_fh:
        log_fh.write("iteration lr " + " ".join(LOG_FIELDS) + "\n")
    actions_json = registry.to_json()
    it = 0
    try:
        # the finite checks name every NaN and infinity, so numpy's
        # own overflow warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore"):
            for window, rows in _windows(
                    steps, len(tables.boxes),
                    max(1, _WINDOW_BYTES // (8 * max(cfg.feature_dim, 1)))):
                pooled = provider.pooled_matrix(tables.scene_ids[rows],
                                                tables.boxes[rows])
                for step in window:
                    lr = rates[it]
                    batch = _batch(tables, step, pooled.take(
                        np.searchsorted(rows, step.rows), axis=0))
                    grads.vector.fill(0.0)
                    try:
                        grads, rep = backward(batch, params, cfg,
                                              loss_weights, grads)
                    except FloatingPointError as exc:
                        raise TrainingDiverged(
                            f"iteration {it}: {exc}") from exc
                    _check_finite(grads, cfg,
                                  f"iteration {it}: non-finite gradient")
                    sgd_step(params, grads, velocity, lr, schedule.momentum,
                             schedule.weight_decay)
                    _check_params(params, cfg, it)
                    history.append(rep)
                    if log_fh:
                        vals = rep.as_dict()
                        log_fh.write(
                            f"{it} {lr:g} "
                            + " ".join(f"{vals[f]:.6f}" for f in LOG_FIELDS)
                            + "\n"
                        )
                    it += 1
                    if (checkpoint_path and checkpoint_every
                            and it % checkpoint_every == 0):
                        save_checkpoint(checkpoint_path, params, cfg,
                                        actions_json)
        if checkpoint_path:
            save_checkpoint(checkpoint_path, params, cfg, actions_json)
    finally:
        if log_fh:
            log_fh.close()
    return params, history
