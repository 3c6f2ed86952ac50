"""Multi-task training: label assignment, sampling quotas, and the loop.

Label assignment follows the detection convention: proposals (which
always include the ground-truth boxes) are matched to ground truth by
IoU at 0.5. The object branch samples at most 64 boxes per image at a
1:3 positive:negative ratio; when positives are scarce the negative
count drops to three times the actual positives, preserving the ratio.
The human-centric branch samples at most 16 person boxes; each carries
a multi-hot action target over the registry entries (verb-level: both
role entries of a dual-role verb light up together) and, per role
entry with an annotated target object, the ground-truth relative
offset measured from the sampled box. Interaction samples are
ground-truth pairs only.

A scene's labels depend only on its fixed proposals and ground truth,
so ``train`` builds every scene's :class:`LabelTable` once, before
iteration 0 (as Fast R-CNN's roidb holds each image's matches and
regression targets): a chunk of scenes is stacked into zero-padded
arrays, and a proposal's match is the ``argmax`` of its row of one IoU
block. A visit to a scene is then only the seeded shuffles of
:func:`draw_samples` and row gathers from its table.
:func:`assign_labels` is the same path for one scene: its table, then
the draw.

Each iteration draws the 16-image effective batch (8 workers x 2
images, each image seeded by its (seed, iteration, worker, slot)) and
takes one ``backward`` over all of it. The draws are laid out
section-major, as a :class:`Batch`: the object rows of the 16 images,
then their human rows, pair-human rows and pair-object rows, each
section in image order. The provider pools all of them in one gather
with a per-row scene id (as Fast R-CNN pools a mini-batch's RoIs in one
RoI layer), so each branch's feature matrix is a slice of that gather,
and a row of image i weighs 1/(16 n_i) for the image's n_i rows in that
section: the objective is the mean over images of the per-image mean
loss. Parameters, gradients and momentum are each one vector
(:class:`FlatTensors`), so zeroing the gradients is one fill, the SGD
step works on the whole vector in place and each finite check is one
``isfinite`` pass that names the tensor only on failure. Training is
bit-reproducible given the seed.
"""

from __future__ import annotations

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
        if any(p.lr < 0 or p.iterations < 0 for p in self.phases):
            raise ValueError("phase rates must be nonnegative")
        if self.images_per_step < 1 or self.workers < 1:
            raise ValueError("batch shape must be positive")

    @property
    def total_iterations(self) -> int:
        return sum(p.iterations for p in self.phases)


@dataclass
class TrainScene:
    """One training image: its annotation and its ``(N, 4)`` array of
    proposal corners (a list of ``Box`` is accepted as well)."""

    scene_id: int
    annotation: SceneAnnotation
    proposals: np.ndarray


def from_synthetic(scenes):
    """Adapt generated scenes into (TrainScene list, feature provider)."""
    from .features import SyntheticFeatureProvider

    train_scenes = [
        TrainScene(s.annotation.image_id, s.annotation, s.proposals) for s in scenes
    ]
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

    Per proposal (row of ``boxes``): the class label (0 = background)
    and the regression target toward the matched box (zero unless
    positive). ``positives`` and ``negatives`` hold proposal indices in
    ascending order; a proposal in neither overlaps an ignore region.
    ``human_boxes`` are the proposals matching a person, in ascending
    order, each with its person's action targets and, per role entry,
    the offset of the entry's target object from the box and whether
    one is defined (the first record wins on duplicate role records).
    ``pair_boxes`` are the annotated (person, object) pairs in sorted
    index order, with their action targets. The arrays are read-only.
    """

    boxes: np.ndarray
    labels: np.ndarray
    reg_targets: np.ndarray
    positives: list
    negatives: list
    human_boxes: np.ndarray
    action_targets: np.ndarray
    target_offsets: np.ndarray
    target_mask: np.ndarray
    pair_boxes: np.ndarray
    pair_targets: np.ndarray


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
    is stacked into zero-padded proposal and ground-truth arrays, and
    each match is an ``argmax`` along the ground-truth axis of one IoU
    block (a zero-area pad overlaps nothing); only the interaction
    records are walked scene by scene. A scene's table does not depend
    on the other scenes.
    """
    cat_index = {c: i + 1 for i, c in enumerate(categories)}
    if "person" not in cat_index:
        raise AnnotationError('categories must include "person"')
    tables, chunk, p, g = [], [], 0, 1
    for ts in scenes:
        n_p = len(ts.proposals)
        n_g = len(ts.annotation.persons) + len(ts.annotation.objects)
        if chunk and (len(chunk) + 1) * max(p, n_p) * max(g, n_g) > _CHUNK_PAIRS:
            tables += _label_chunk(chunk, registry, cat_index, quotas.iou_pos)
            chunk, p, g = [], 0, 1
        chunk.append(ts)
        p, g = max(p, n_p), max(g, n_g)
    return tables + _label_chunk(chunk, registry, cat_index, quotas.iou_pos)


def _label_chunk(scenes, registry: ActionRegistry, cat_index: dict,
                 iou_pos: float) -> list:
    """:func:`label_tables` of one chunk of scenes."""
    a = len(registry)
    verb_cols = {verb: [registry.index(e.name, e.role)
                        for e in registry.entries_for(verb)]
                 for verb in registry.verbs}
    # ground truth of every scene (persons, then objects)
    gt_boxes, gt_labels, gt_ignore = [], [], []
    act = []  # (scene, person, entry) cells set by the records
    roles = {}  # (scene, person, entry) -> target object; first record wins
    pairs, pair_rows, pair_cols = [], [], []  # pairs: (scene, person, object)
    for s, ts in enumerate(scenes):
        ann = ts.annotation
        gt_boxes += ann.persons + [o.box for o in ann.objects]
        try:
            gt_labels += [cat_index["person"]] * len(ann.persons) + [
                cat_index[o.category] for o in ann.objects]
        except KeyError as exc:
            raise AnnotationError(f"scene {ts.scene_id}: object category "
                                  f"{exc.args[0]!r} is not a training "
                                  f"category")
        gt_ignore += [False] * len(ann.persons) + [o.ignore for o in ann.objects]
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
            pair_rows += [len(pairs)] * len(pair_cats[key])
            pair_cols += pair_cats[key]
            pairs.append((s, *key))

    # the chunk as zero-padded arrays, at least one ground-truth column
    # for argmax (a row of IoU 0, as a pad's, never matches: iou_pos > 0)
    n_prop = [len(ts.proposals) for ts in scenes]
    n_pers = np.array([len(ts.annotation.persons) for ts in scenes], dtype=int)
    n_gt = n_pers + [len(ts.annotation.objects) for ts in scenes]
    slot = np.arange(max(1, n_gt.max(initial=0)))
    real = slot < n_gt[:, None]
    gt = np.zeros(real.shape + (4,))
    gt[real] = box_array(gt_boxes)
    labels_gt, ignored = np.zeros(real.shape, int), np.zeros(real.shape, bool)
    labels_gt[real], ignored[real] = gt_labels, gt_ignore
    props = np.zeros((len(scenes), max(n_prop, default=0), 4))
    for s, ts in enumerate(scenes):
        props[s, :n_prop[s]] = box_array(ts.proposals)

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

    actions = np.zeros(real.shape + (a,))
    actions[tuple(np.array(act, dtype=int).reshape(-1, 3).T)] = 1.0
    role_keys = np.array(list(roles), dtype=int).reshape(-1, 3)
    role_objects = np.full(real.shape + (a,), -1)
    role_objects[tuple(role_keys.T)] = list(roles.values())
    targets = role_objects[hs, person]
    target_mask = targets >= 0
    rows, cols = np.nonzero(target_mask)
    offsets = np.zeros((len(hs), a, 4))
    offsets[rows, cols] = encode_rels(gt[hs[rows], targets[rows, cols]],
                                      props[hs[rows], hp[rows]])
    pairs = np.array(pairs, dtype=int).reshape(-1, 3)
    pair_boxes = gt[pairs[:, :1], pairs[:, 1:]]
    pair_targets = np.zeros((len(pairs), a))
    pair_targets[pair_rows, pair_cols] = 1.0

    human_boxes, action_targets = props[hs, hp], actions[hs, person]
    for arr in (props, labels, reg_targets, human_boxes, action_targets,
                offsets, target_mask, pair_boxes, pair_targets):
        arr.flags.writeable = False
    # each scene's humans and pairs, in scene order
    h_at = np.searchsorted(hs, np.arange(len(scenes) + 1)).tolist()
    q_at = np.searchsorted(pairs[:, 0], np.arange(len(scenes) + 1)).tolist()
    tables = []
    for s, n in enumerate(n_prop):
        h, q = slice(h_at[s], h_at[s + 1]), slice(q_at[s], q_at[s + 1])
        tables.append(LabelTable(
            boxes=props[s, :n], labels=labels[s, :n],
            reg_targets=reg_targets[s, :n],
            positives=np.flatnonzero(pos[s, :n]).tolist(),
            negatives=np.flatnonzero(neg[s, :n]).tolist(),
            human_boxes=human_boxes[h], action_targets=action_targets[h],
            target_offsets=offsets[h], target_mask=target_mask[h],
            pair_boxes=pair_boxes[q], pair_targets=pair_targets[q]))
    return tables


def draw_samples(table: LabelTable, quotas: Quotas, seed) -> SampleBoxes:
    """One visit's samples from a scene's table.

    The generator seeded by ``seed`` shuffles the positives, the
    negatives and the humans, in that order. The object section takes
    the first ``round(object_quota * pos_fraction)`` shuffled positives
    and three negatives per positive taken; when positives are scarce
    the negative count drops with them, preserving the 1:3 ratio. The
    human section takes the first ``human_quota`` shuffled humans. Both
    keep ascending proposal order. Interaction samples are all the
    ground-truth pairs.
    """
    rng = np.random.default_rng(seed)
    pos, neg = list(table.positives), list(table.negatives)
    rng.shuffle(pos)
    rng.shuffle(neg)
    take_pos = pos[:int(round(quotas.object_quota * quotas.pos_fraction))]
    chosen = np.array(sorted(take_pos + neg[:3 * len(take_pos)]), dtype=int)
    humans = list(range(len(table.human_boxes)))
    rng.shuffle(humans)
    rows = np.array(sorted(humans[:quotas.human_quota]), dtype=int)
    labels = table.labels[chosen]
    return SampleBoxes(
        object_boxes=table.boxes[chosen],
        object_labels=labels,
        object_reg_targets=table.reg_targets[chosen],
        object_reg_mask=labels > 0,
        human_boxes=table.human_boxes[rows],
        human_action_targets=table.action_targets[rows],
        human_target_offsets=table.target_offsets[rows],
        human_target_mask=table.target_mask[rows],
        interaction_pairs=table.pair_boxes,
        interaction_action_targets=table.pair_targets,
    )


def assign_labels(proposals, scene: SceneAnnotation, registry: ActionRegistry,
                  categories, quotas: Quotas = Quotas(), seed=0) -> SampleBoxes:
    """Match proposals to ground truth and sample the three sections: the
    one-scene :func:`label_tables`, then :func:`draw_samples`."""
    table, = label_tables([TrainScene(scene.image_id, scene, proposals)],
                          registry, categories, quotas)
    return draw_samples(table, quotas, seed)


def featurize_batch(draws, provider, scene_ids) -> Batch:
    """The draws of k images, image ``i`` of scene ``scene_ids[i]``, as
    one Batch: their boxes are laid out section-major (object, human,
    pair-human and pair-object rows, each section in image order) and
    pooled in one provider call with a per-row scene id, so each
    section's features are a slice of that call's rows."""
    sections = ([d.object_boxes for d in draws],
                [d.human_boxes for d in draws],
                [d.interaction_pairs[:, 0] for d in draws],
                [d.interaction_pairs[:, 1] for d in draws])
    counts = [np.array([len(b) for b in boxes], dtype=int)
              for boxes in sections]
    per_row = np.concatenate(counts)
    feats = provider.pooled_matrix(
        np.repeat(np.tile(scene_ids, len(sections)), per_row),
        np.concatenate([b for boxes in sections for b in boxes]))
    h, i, o = np.cumsum([c.sum() for c in counts[:3]]).tolist()

    def stacked(name):
        return np.concatenate([getattr(d, name) for d in draws])

    return Batch(
        ImageSamples(
            object_feats=feats[:h],
            object_labels=stacked("object_labels"),
            object_reg_targets=stacked("object_reg_targets"),
            object_reg_mask=stacked("object_reg_mask"),
            human_feats=feats[h:i],
            human_action_targets=stacked("human_action_targets"),
            human_target_offsets=stacked("human_target_offsets"),
            human_target_mask=stacked("human_target_mask"),
            interaction_h_feats=feats[i:o],
            interaction_o_feats=feats[o:],
            interaction_action_targets=stacked("interaction_action_targets"),
        ),
        object_counts=counts[0], human_counts=counts[1],
        pair_counts=counts[2])


def featurize(samples: SampleBoxes, provider, scene_id: int,
              cfg: HeadConfig) -> ImageSamples:
    """One image's samples with their pooled features: the one-image
    :func:`featurize_batch`."""
    image, = featurize_batch([samples], provider, [scene_id])
    return image


def _check_finite(tensors, cfg: HeadConfig, what: str) -> None:
    """TrainingDiverged naming the first non-finite tensor of the
    FlatTensors ``tensors``, checked as one vector."""
    if not np.isfinite(tensors.vector).all():
        raise TrainingDiverged(f"{what} {first_non_finite(tensors, cfg)}")


LOG_FIELDS = ("total", "object_cls_loss", "object_reg_loss", "action_cls_loss",
              "target_loc_loss", "interaction_cls_loss")


def train(scenes, provider, cfg: HeadConfig, schedule: Schedule,
          registry: ActionRegistry, categories,
          quotas: Quotas = Quotas(), loss_weights: LossWeights = LossWeights(),
          params=None, log_path=None, checkpoint_path=None,
          checkpoint_every: int = 0):
    """Run the schedule; returns (params, LossReport history).

    Deterministic given the seed: scene choice, sampling, and gradient
    reduction all follow fixed seeded orders. Raises AnnotationError
    before iteration 0 when there are no scenes or the categories cannot
    label them (see :func:`label_tables`), and TrainingDiverged with the
    iteration index when the loss, a gradient or, after the step, a
    parameter leaves the finite range; tensors are named.
    """
    if not scenes:
        raise AnnotationError("training needs at least one scene")
    tables = label_tables(scenes, registry, categories, quotas)
    scene_ids = np.array([ts.scene_id for ts in scenes])
    # parameters, gradients and velocity: one vector each, every named
    # tensor a view into it
    params = FlatTensors(init_params(cfg, schedule.seed) if params is None
                         else params)
    grads, velocity = zero_grads(params), zero_grads(params)
    history = []
    log_fh = open(log_path, "w") if log_path else None
    if log_fh:
        log_fh.write("iteration lr " + " ".join(LOG_FIELDS) + "\n")
    actions_json = registry.to_json()
    it = 0
    try:
        for phase in schedule.phases:
            for _ in range(phase.iterations):
                rng = np.random.default_rng((schedule.seed, it))
                per = schedule.images_per_step
                picks = rng.integers(0, len(scenes), size=schedule.workers * per)
                batch = featurize_batch(
                    [draw_samples(tables[pick], quotas,
                                  (schedule.seed, it, *divmod(b, per)))
                     for b, pick in enumerate(picks)],
                    provider, scene_ids[picks])
                grads.vector.fill(0.0)
                try:
                    grads, rep = backward(batch, params, cfg, loss_weights,
                                          grads)
                except FloatingPointError as exc:
                    raise TrainingDiverged(f"iteration {it}: {exc}") from exc
                _check_finite(grads, cfg, f"iteration {it}: non-finite gradient")
                sgd_step(params, grads, velocity, phase.lr,
                         schedule.momentum, schedule.weight_decay)
                _check_finite(params, cfg, f"iteration {it}: non-finite parameter")
                history.append(rep)
                if log_fh:
                    vals = rep.as_dict()
                    log_fh.write(
                        f"{it} {phase.lr:g} "
                        + " ".join(f"{vals[f]:.6f}" for f in LOG_FIELDS)
                        + "\n"
                    )
                it += 1
                if (checkpoint_path and checkpoint_every
                        and it % checkpoint_every == 0):
                    save_checkpoint(checkpoint_path, params, cfg, actions_json)
        if checkpoint_path:
            save_checkpoint(checkpoint_path, params, cfg, actions_json)
    finally:
        if log_fh:
            log_fh.close()
    return params, history
