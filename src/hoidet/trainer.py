"""Multi-task training: label assignment, box sampling, and the loop.

Label assignment follows the detection convention: proposals (which
always include the ground-truth boxes) are matched to ground truth by
IoU at ``IOU_POS`` = 0.5. The object branch samples at most 64 boxes
per image: at most ``POSITIVES`` = 16 positives and
``NEGATIVES_PER_POSITIVE`` = 3 negatives per positive taken, so that
when positives are scarce the negative count drops with them. The
human-centric branch samples at most ``HUMANS`` = 16 person boxes;
each carries a multi-hot action target over the registry entries
(verb-level: both role entries of a dual-role verb light up together)
and, per role entry with an annotated target object, the ground-truth
relative offset measured from the sampled box. Interaction samples are
ground-truth pairs only.

A scene's labels depend only on its fixed proposals and ground truth,
so ``train`` labels each scene once, before iteration 0 (as Fast
R-CNN's roidb holds each image's matches and regression targets), and
only the scenes its schedule draws: it draws every iteration's picks
first. The drawn scenes' labels are one :class:`LabelTable` with global
indices. Each chunk of scenes is stacked into zero-padded arrays
straight from the annotations' box arrays, a proposal's match is the
``argmax`` of its row of one IoU block, and the chunk's part of the
table is written on from the chunks before it. A scene's rows are its
proposals, then its ground-truth boxes (one that is also a proposal is
that proposal's row). A visit to a scene is then an index draw,
:func:`_draw_rows`: its seeded shuffles pick the scene's object and
human entries of the table. :func:`assign_labels` is the same path for
one scene: its table, then the draw, then the rows' boxes and labels.

Each iteration draws the 16-image effective batch (8 workers x 2
images, each image seeded by its (seed, iteration, worker, slot)) and
takes one ``backward`` over all of it. ``train`` draws every
iteration's images before iteration 0 and pools each distinct row they
name once, with a per-row scene id (as Fast R-CNN pools a mini-batch's
RoIs in one RoI layer), into one float32 table indexed by label-table
row. It pools in float64 blocks of ``_POOL_ROWS`` rows, each rounded
into the table. The table is a :func:`features.map_buffer`, outside the
malloc heap, so freeing it leaves no raised mmap threshold behind. Its
zeroed rows are written only where drawn: the memory this adds is the
run's distinct drawn rows at 4 x ``feature_dim`` bytes each (never more
than the drawn scenes' rows), plus one float64 block. An iteration's
:class:`Batch` is then row takes from that table and from the label
table, laid out section-major: the object rows of the 16 images, then
their human rows, pair-human rows and pair-object rows, each section in
image order. Pooling is row-local, so the table's rows are those of
pooling each image's boxes on each visit. Each branch's feature matrix
is a slice of the batch's rows, and a row of image i weighs
1/(16 n_i) for the image's n_i rows in that section: the objective is
the mean over images of the per-image mean loss. Parameters, gradients
and momentum are each one float32 vector (:class:`FlatTensors`), so
zeroing the gradients is one fill, the SGD step works on the whole
vector in place and each finite check reads the whole vector and names
the tensor only on failure. Float32 is the precision checkpoints
store, so every training product runs in it: ``train`` rounds the
float64 initial parameters once, and its pooled rows as it stores
them. A parameter that leaves float32's range is an infinity, which
the finite check names, and a pooled value beyond it ends the first
step in a non-finite loss; a momentum, weight decay or rate beyond it
is a ValueError. Pooling stays float64, as in inference. Training is
bit-reproducible given the seed, under one BLAS thread.
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
from .features import map_buffer
from .geometry import box_array, box_iou, encode_rels
from .model import (
    Batch,
    FlatTensors,
    HeadConfig,
    ImageSamples,
    LossWeights,
    backward,
    check_float32,
    first_non_finite,
    init_params,
    save_checkpoint,
    sgd_step,
    zero_grads,
)


class TrainingDiverged(RuntimeError):
    pass


# Fast R-CNN's image-centric sampling rule (see the module docstring)
IOU_POS = 0.5
POSITIVES = 16
NEGATIVES_PER_POSITIVE = 3
HUMANS = 16


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
        check_float32(momentum=self.momentum, weight_decay=self.weight_decay,
                      phases=max(p.lr for p in self.phases))

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
    """The labels of a list of scenes: everything a draw needs except
    the seeded sampling, fixed by the scenes' proposals and ground
    truth. Every index is global, into the table's own arrays.

    The rows (``boxes``, with ``scene_ids``) run scene by scene, a
    scene's rows its N proposals, then its ground-truth boxes (persons,
    then objects). Per proposal: its row, its class label (0 =
    background) and the regression target toward the matched box (zero
    unless positive). ``positives`` and ``negatives`` hold proposal
    indices, ascending; a proposal in neither overlaps an ignore region.
    ``human_rows`` are the rows of the proposals matching a person, each
    with its person's action targets and, per role entry, the offset of
    the entry's target object from the box and whether one is defined
    (the first record wins on duplicate role records). ``pair_rows``
    hold the person and object row of each annotated pair, in sorted
    index order within a scene, with the pair's action targets. Scene
    ``s``'s positives, negatives, humans and pairs start at ``at[s]``
    and end at ``at[s + 1]``. The arrays are read-only.
    """

    boxes: np.ndarray
    scene_ids: np.ndarray
    proposal_rows: np.ndarray
    labels: np.ndarray
    reg_targets: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    human_rows: np.ndarray
    action_targets: np.ndarray
    target_offsets: np.ndarray
    target_mask: np.ndarray
    pair_rows: np.ndarray
    pair_targets: np.ndarray
    at: np.ndarray


# train pools its drawn rows in blocks of this many, each a float64
# (rows, feature_dim) array rounded into the float32 table, so that the
# float64 it holds is one block (2.8 MB at 350-wide rows) however many
# rows the run draws
_POOL_ROWS = 1024

# label_tables matches the scenes in chunks, each as one zero-padded
# (scenes, proposals, ground truth) IoU block of at most this many
# entries: its temporary arrays take about 60 bytes per entry, so a
# chunk's stay under 0.5 MB whatever the number and mix of scenes (a
# scene with a larger block is a chunk of its own)
_CHUNK_PAIRS = 8192


def label_tables(scenes, registry: ActionRegistry, categories) -> LabelTable:
    """The one LabelTable of a non-empty list of TrainScenes.

    categories lists the non-background class names and must contain
    "person" and every object's category (AnnotationError otherwise);
    class index = list position + 1, background 0. A proposal matches
    the first ground-truth box of highest IoU (ignore regions excluded),
    and its person match likewise among the persons; a match at IoU >=
    ``IOU_POS`` makes it positive, or a human. A chunk of scenes
    is stacked into zero-padded proposal and ground-truth arrays, the
    latter filled from the annotations' person and object arrays, and
    each match is an ``argmax`` along the ground-truth axis of one IoU
    block (a zero-area pad overlaps nothing); only the interaction
    records are walked scene by scene. A chunk writes its rows and
    proposals counted on from those of the chunks before it. A scene's
    part of the table does not depend on the other scenes.
    """
    cat_index = _class_index(categories)
    chunks, p, g = [[]], 0, 1
    for ts in scenes:
        n_p = len(ts.proposals)
        n_g = len(ts.annotation.persons) + len(ts.annotation.objects)
        if chunks[-1] and ((len(chunks[-1]) + 1) * max(p, n_p) * max(g, n_g)
                           > _CHUNK_PAIRS):
            chunks.append([])
            p, g = 0, 1
        chunks[-1].append(ts)
        p, g = max(p, n_p), max(g, n_g)
    parts, rows, proposals = [], 0, 0
    for chunk in chunks:
        parts.append(_label_chunk(chunk, registry, cat_index, rows, proposals))
        rows += len(parts[-1][0])
        proposals += len(parts[-1][2])
    *fields, counts = (np.concatenate(f) for f in zip(*parts))
    at = np.zeros((len(counts) + 1, 4), dtype=int)
    np.cumsum(counts, axis=0, out=at[1:])
    table = LabelTable(*fields, at)
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


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
                 rows: int, proposals: int) -> tuple:
    """:func:`label_tables` of one chunk of scenes, whose first row and
    first proposal are ``rows`` and ``proposals``: the LabelTable's
    fields up to ``at``, then each scene's numbers of positives,
    negatives, humans and pairs as an ``(S, 4)`` array."""
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
    # matches: IOU_POS > 0)
    n_prop = np.array([len(ts.proposals) for ts in scenes], dtype=int)
    n_pers = np.array([len(ann.persons) for ann in anns], dtype=int)
    n_gt = n_pers + [len(ann.objects) for ann in anns]
    slot = np.arange(max(1, n_gt.max()))
    is_person = slot < n_pers[:, None]
    is_object = ~is_person & (slot < n_gt[:, None])
    gt = np.zeros(is_person.shape + (4,))
    gt[is_person] = np.concatenate([ann.persons for ann in anns])
    gt[is_object] = np.concatenate([ann.objects for ann in anns])
    labels_gt = np.where(is_person, cat_index["person"], 0)
    labels_gt[is_object] = object_labels
    ignored = np.zeros(is_person.shape, bool)
    ignored[is_object] = np.concatenate([ann.ignore for ann in anns])
    real = np.arange(max(1, n_prop.max())) < n_prop[:, None]
    props = np.zeros(real.shape + (4,))
    props[real] = np.concatenate([ts.proposals for ts in scenes])

    overlap = box_iou(props[:, :, None], gt[:, None])
    best = np.where(ignored[:, None], 0.0, overlap)
    best_j = best.argmax(axis=2)
    pos = best.max(axis=2) >= IOU_POS
    # overlapping an ignore region: neither positive nor negative
    neg = real & ~pos & (np.where(ignored[:, None], overlap, 0.0).max(axis=2)
                         < IOU_POS)
    persons = np.where(slot < n_pers[:, None, None], overlap, 0.0)
    hs, hp = np.nonzero(persons.max(axis=2) >= IOU_POS)
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
    cells, cols = np.nonzero(target_mask)
    offsets = np.zeros((len(hs), a, 4))
    offsets[cells, cols] = encode_rels(gt[hs[cells], targets[cells, cols]],
                                       props[hs[cells], hp[cells]])
    pairs = np.array(pairs, dtype=int).reshape(-1, 3)
    pair_targets = np.zeros((len(pairs), a))
    pair_targets[pair_target_rows, pair_cols] = 1.0

    # each scene's first row and first proposal in the table; a pair's
    # person or object row is the first proposal of its scene with the
    # box's corners, if any, else the box's own row after the proposals
    n_rows = n_prop + n_gt
    row_at = rows + np.cumsum(n_rows) - n_rows
    local = np.arange(real.shape[1])
    index = (proposals + np.cumsum(n_prop) - n_prop)[:, None] + local
    ps, pg = pairs[:, :1], pairs[:, 1:]
    same = ((props[pairs[:, 0], :, None] == gt[ps, pg][:, None]).all(axis=3)
            & real[pairs[:, 0], :, None])
    pair_rows = row_at[ps] + np.where(same.any(axis=1), same.argmax(axis=1),
                                      n_prop[ps] + pg)
    counts = np.stack((pos.sum(axis=1), neg.sum(axis=1),
                       np.bincount(hs, minlength=len(scenes)),
                       np.bincount(pairs[:, 0], minlength=len(scenes))),
                      axis=1)
    boxes = np.concatenate((props, gt), axis=1)[
        np.concatenate((real, slot < n_gt[:, None]), axis=1)]
    return (boxes, np.repeat([ts.scene_id for ts in scenes], n_rows),
            (row_at[:, None] + local)[real], labels[real], reg_targets[real],
            index[pos], index[neg], row_at[hs] + hp, actions[hs, person],
            offsets, target_mask, pair_rows, pair_targets, counts)


def _draw_rows(table: LabelTable, s: int, seed):
    """One visit's draw from scene ``s`` of the table: the object
    section's proposal indices and the human section's human indices,
    both ascending, and the indices of all the scene's pairs.

    The generator seeded by ``seed`` shuffles the scene's positives,
    negatives and humans, in that order. The object section takes the
    first ``POSITIVES`` shuffled positives and the first
    ``NEGATIVES_PER_POSITIVE`` shuffled negatives per positive taken;
    the human section takes the first ``HUMANS`` shuffled humans.
    """
    (p0, n0, h0, q0), (p1, n1, h1, q1) = table.at[s:s + 2].tolist()
    pos, neg = table.positives[p0:p1].tolist(), table.negatives[n0:n1].tolist()
    humans = list(range(h0, h1))
    rng = np.random.default_rng(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    rng.shuffle(humans)
    take_pos = pos[:POSITIVES]
    take_neg = neg[:NEGATIVES_PER_POSITIVE * len(take_pos)]
    return (np.array(sorted(take_pos + take_neg), dtype=int),
            np.array(sorted(humans[:HUMANS]), dtype=int),
            np.arange(q0, q1))


def assign_labels(proposals, scene: SceneAnnotation, registry: ActionRegistry,
                  categories, seed=0) -> SampleBoxes:
    """Match proposals (an ``(N, 4)`` array or a ``Box`` list) to ground
    truth and sample the three sections: the one-scene
    :func:`label_tables`, then the rows of :func:`_draw_rows`, in
    ascending proposal order, and all the ground-truth pairs."""
    table = label_tables([TrainScene(scene, box_array(proposals))],
                         registry, categories)
    objects, humans, pairs = _draw_rows(table, 0, seed)
    labels = table.labels[objects]
    return SampleBoxes(
        object_boxes=table.boxes[table.proposal_rows[objects]],
        object_labels=labels,
        object_reg_targets=table.reg_targets[objects],
        object_reg_mask=labels > 0,
        human_boxes=table.boxes[table.human_rows[humans]],
        human_action_targets=table.action_targets[humans],
        human_target_offsets=table.target_offsets[humans],
        human_target_mask=table.target_mask[humans],
        interaction_pairs=table.boxes[table.pair_rows[pairs]],
        interaction_action_targets=table.pair_targets[pairs],
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


@dataclass
class _Step:
    """One iteration's draw: the proposal, human and pair indices of its
    images' samples into the LabelTable, each section in image order,
    the per-image counts, and the feature rows of the object, human,
    pair-human and pair-object sections, in that order."""

    objects: np.ndarray
    humans: np.ndarray
    pairs: np.ndarray
    counts: list
    rows: np.ndarray


def _draw_step(table: LabelTable, slots, seeds) -> _Step:
    """The draws of the images of the table's scenes ``slots``, image
    ``b`` seeded by ``seeds[b]``, as one :class:`_Step`."""
    sections = ([], [], [])
    for s, seed in zip(slots, seeds):
        for section, drawn in zip(sections, _draw_rows(table, s, seed)):
            section.append(drawn)
    counts = [np.array([len(x) for x in sec], dtype=int) for sec in sections]
    objects, humans, pairs = (np.concatenate(sec) for sec in sections)
    rows = np.concatenate((table.proposal_rows[objects],
                           table.human_rows[humans],
                           table.pair_rows[pairs].T.ravel()))
    return _Step(objects, humans, pairs, counts, rows)


def _batch(table: LabelTable, step: _Step, feats: np.ndarray) -> Batch:
    """A step's Batch, with ``feats`` the pooled features of its rows."""
    h, i, o = np.cumsum([len(step.objects), len(step.humans),
                         len(step.pairs)]).tolist()
    labels = table.labels.take(step.objects)
    return Batch(
        ImageSamples(
            object_feats=feats[:h],
            object_labels=labels,
            object_reg_targets=table.reg_targets.take(step.objects, axis=0),
            object_reg_mask=labels > 0,
            human_feats=feats[h:i],
            human_action_targets=table.action_targets.take(step.humans,
                                                           axis=0),
            human_target_offsets=table.target_offsets.take(step.humans,
                                                           axis=0),
            human_target_mask=table.target_mask.take(step.humans, axis=0),
            interaction_h_feats=feats[i:o],
            interaction_o_feats=feats[o:],
            interaction_action_targets=table.pair_targets.take(step.pairs,
                                                               axis=0),
        ),
        object_counts=step.counts[0], human_counts=step.counts[1],
        pair_counts=step.counts[2])


def _check_finite(tensors, cfg: HeadConfig, what: str) -> None:
    """TrainingDiverged naming the first non-finite tensor of the
    FlatTensors ``tensors``, checked as one vector."""
    if not np.isfinite(tensors.vector).all():
        raise TrainingDiverged(f"{what} {first_non_finite(tensors, cfg)}")


LOG_FIELDS = ("total", "object_cls_loss", "object_reg_loss", "action_cls_loss",
              "target_loc_loss", "interaction_cls_loss")


def train(scenes, provider, cfg: HeadConfig, schedule: Schedule,
          registry: ActionRegistry, categories,
          loss_weights: LossWeights = LossWeights(),
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
    the iteration index when the loss, a gradient or, after the step, a
    parameter is not finite; tensors are named. Training runs in
    float32: the returned parameters are float32 FlatTensors, the
    values a checkpoint stores and ``load_checkpoint`` returns. Model
    functions compute in their parameters' dtype, so inference runs in
    float32 with either, and scores alike.
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
    table = label_tables([scenes[i] for i in drawn.tolist()], registry,
                         categories)
    slots = np.searchsorted(drawn, picks).tolist()
    steps = [_draw_step(table, row, [(schedule.seed, it, *divmod(b, per))
                         for b in range(len(row))])
             for it, row in enumerate(slots)]
    rates = [phase.lr for phase in schedule.phases
             for _ in range(phase.iterations)]
    # parameters, gradients and velocity: one float32 vector each, every
    # named tensor a view into it; the initial parameters, or a caller's,
    # are rounded once, into a copy (a value beyond float32 becomes an
    # infinity, which the first step's checks name)
    with np.errstate(over="ignore"):
        params = FlatTensors(init_params(cfg, schedule.seed)
                             if params is None else params, dtype=np.float32)
    grads, velocity = zero_grads(params), zero_grads(params)
    history = []
    log_fh = open(log_path, "w") if log_path else None
    if log_fh:
        log_fh.write("iteration lr " + " ".join(LOG_FIELDS) + "\n")
    actions_json = registry.to_json()
    try:
        # the finite checks name every NaN and infinity, so numpy's
        # own overflow warnings would only repeat them
        with np.errstate(over="ignore", invalid="ignore"):
            pooled = map_buffer((len(table.boxes), cfg.feature_dim),
                                np.float32)
            rows = np.unique(np.concatenate([step.rows for step in steps]))
            for at in range(0, len(rows), _POOL_ROWS):
                block = rows[at:at + _POOL_ROWS]
                pooled[block] = provider.pooled_matrix(table.scene_ids[block],
                                                       table.boxes[block])
            for it, (step, lr) in enumerate(zip(steps, rates)):
                batch = _batch(table, step, pooled.take(step.rows, axis=0))
                grads.vector.fill(0.0)
                try:
                    grads, rep = backward(batch, params, cfg, loss_weights,
                                          grads)
                except FloatingPointError as exc:
                    raise TrainingDiverged(f"iteration {it}: {exc}") from exc
                _check_finite(grads, cfg,
                              f"iteration {it}: non-finite gradient")
                sgd_step(params, grads, velocity, lr, schedule.momentum,
                         schedule.weight_decay)
                _check_finite(params, cfg,
                              f"iteration {it}: non-finite parameter")
                history.append(rep)
                if log_fh:
                    vals = rep.as_dict()
                    log_fh.write(f"{it} {lr:g} "
                                 + " ".join(f"{vals[f]:.6f}" for f in LOG_FIELDS)
                                 + "\n")
                if (checkpoint_path and checkpoint_every
                        and (it + 1) % checkpoint_every == 0):
                    save_checkpoint(checkpoint_path, params, cfg, actions_json)
        if checkpoint_path:
            save_checkpoint(checkpoint_path, params, cfg, actions_json)
    finally:
        if log_fh:
            log_fh.close()
    return params, history
