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
iteration 0, in a few array calls over all scenes (as Fast R-CNN's
roidb holds each image's matches and regression targets). A visit to a
scene is then only the seeded shuffles of :func:`draw_samples` and row
gathers from its table. :func:`assign_labels` is the same path for one
scene: its table, then the draw.

Each iteration draws the 16-image effective batch (8 workers x 2
images, each image seeded by its (seed, iteration, worker, slot)) and
takes one ``backward`` over all of it: every branch stacks the rows of
the 16 images, and a row of image i weighs 1/(16 n_i) for the image's
n_i rows in that section, so the objective is the mean over images of
the per-image mean loss. Each image's boxes are pooled in one provider
call. Training is bit-reproducible given the seed.
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
    HeadConfig,
    ImageSamples,
    LossWeights,
    backward,
    first_non_finite,
    init_params,
    init_velocity,
    save_checkpoint,
    sgd_step,
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
    scene_id: int
    annotation: SceneAnnotation
    proposals: list


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


def _row_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per row, the largest of its nonnegative ``values`` (0 for an empty
    row), the rows laid end to end with ``counts[i]`` entries in row i."""
    out = np.zeros(len(counts))
    filled = counts > 0
    if filled.any():
        out[filled] = np.maximum.reduceat(values,
                                          (np.cumsum(counts) - counts)[filled])
    return out


def _within(counts: np.ndarray) -> np.ndarray:
    """Each entry's position in its row, the rows laid end to end with
    ``counts[i]`` entries in row i."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                               counts)


def _first_max(values: np.ndarray, counts: np.ndarray):
    """Per row, laid out as for :func:`_row_max`, the position in the row
    of the first entry holding the row's maximum, and that maximum;
    (-1, 0.0) where no value exceeds 0. This is the scalar scan
    ``if v > best: best = v`` started from 0."""
    best = _row_max(values, counts)
    rows = np.repeat(np.arange(len(counts)), counts)
    hit = np.flatnonzero((values == best[rows]) & (values > 0.0))
    first = hit[np.diff(rows[hit], prepend=-1) != 0]
    index = np.full(len(counts), -1)
    index[rows[first]] = _within(counts)[first]
    return index, best


def _spans(owner: np.ndarray, n: int) -> list:
    """For each of owners 0 .. n-1, the slice of the rows it owns, given
    the owner of every row in ascending order."""
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    return [slice(start, end) for start, end in zip([0] + ends[:-1], ends)]


# label_tables works through the scenes in chunks of about this many
# (proposal, ground truth) pairs: its temporary arrays take about 180
# bytes per pair, so a chunk's stay near 1.5 MB whatever the number of
# scenes (a scene with more pairs is a chunk of its own)
_CHUNK_PAIRS = 8192


def label_tables(scenes, registry: ActionRegistry, categories,
                 quotas: Quotas = Quotas()) -> list:
    """The LabelTable of every TrainScene, built together.

    categories lists the non-background class names and must contain
    "person" and every object's category (AnnotationError otherwise);
    class index = list position + 1, background 0. A proposal matches
    the first ground-truth box of highest IoU (ignore regions excluded),
    and its person match likewise among the persons; a match at IoU >=
    ``quotas.iou_pos`` makes it positive, or a human. The proposals and
    ground truth of a chunk of scenes are laid end to end, so matching
    and encoding run once over every (proposal, ground truth) pair of
    the same scene in the chunk; only the interaction records are walked
    scene by scene. A scene's table does not depend on the other scenes.
    """
    cat_index = {c: i + 1 for i, c in enumerate(categories)}
    if "person" not in cat_index:
        raise AnnotationError('categories must include "person"')
    tables, chunk, size = [], [], 0
    for ts in scenes:
        chunk.append(ts)
        size += len(ts.proposals) * (len(ts.annotation.persons)
                                     + len(ts.annotation.objects))
        if size >= _CHUNK_PAIRS:
            tables += _label_chunk(chunk, registry, cat_index, quotas.iou_pos)
            chunk, size = [], 0
    return tables + _label_chunk(chunk, registry, cat_index, quotas.iou_pos)


def _label_chunk(scenes, registry: ActionRegistry, cat_index: dict,
                 iou_pos: float) -> list:
    """:func:`label_tables` of one chunk of scenes."""
    a = len(registry)
    verb_cols = {verb: [registry.index(e.name, e.role)
                        for e in registry.entries_for(verb)]
                 for verb in registry.verbs}
    # ground truth of every scene (persons, then objects), and per
    # record the entries it sets, all as flat ground-truth indices
    gt_boxes, gt_labels, gt_ignore = [], [], []
    act_rows, act_cols = [], []
    roles = {}  # (person, entry) -> target object; the first record wins
    pairs, pair_rows, pair_cols, pair_scene = [], [], [], []
    for s, ts in enumerate(scenes):
        ann = ts.annotation
        p0, o0 = len(gt_boxes), len(gt_boxes) + len(ann.persons)
        gt_boxes += ann.persons
        gt_boxes += [o.box for o in ann.objects]
        try:
            gt_labels += [cat_index["person"]] * len(ann.persons) + [
                cat_index[o.category] for o in ann.objects]
        except KeyError as exc:
            raise AnnotationError(f"scene {ts.scene_id}: object category "
                                  f"{exc.args[0]!r} is not a training "
                                  f"category")
        gt_ignore += [False] * len(ann.persons) + [o.ignore
                                                   for o in ann.objects]
        pair_cats = {}
        for rec in ann.interactions:
            cols = verb_cols[rec.action]
            act_rows += [p0 + rec.person] * len(cols)
            act_cols += cols
            if rec.role != ROLE_NONE:
                h, o = p0 + rec.person, o0 + rec.object
                roles.setdefault((h, registry.index(rec.action, rec.role)), o)
                pair_cats.setdefault((h, o), set()).update(cols)
        for key in sorted(pair_cats):
            pair_rows += [len(pairs)] * len(pair_cats[key])
            pair_cols += pair_cats[key]
            pairs.append(key)
        pair_scene += [s] * len(pair_cats)

    gt = box_array(gt_boxes)
    gt_labels = np.array(gt_labels, dtype=int)
    gt_ignore = np.array(gt_ignore, dtype=bool)
    props = box_array([b for ts in scenes for b in ts.proposals])
    n_prop = np.array([len(ts.proposals) for ts in scenes], dtype=int)
    n_pers = np.array([len(ts.annotation.persons) for ts in scenes], dtype=int)
    n_gt = n_pers + np.array([len(ts.annotation.objects) for ts in scenes],
                             dtype=int)
    scene = np.repeat(np.arange(len(scenes)), n_prop)  # of each proposal
    gt_start = (np.cumsum(n_gt) - n_gt)[scene]

    # every (proposal, ground truth) pair of a scene, proposal-major
    per_prop = n_gt[scene]
    pair_prop = np.repeat(np.arange(len(props)), per_prop)
    col = _within(per_prop)
    pair_gt = gt_start[pair_prop] + col
    overlap = box_iou(props[pair_prop], gt[pair_gt])
    ignored = gt_ignore[pair_gt]
    best_j, best_v = _first_max(np.where(ignored, 0.0, overlap), per_prop)
    best_ign = _row_max(np.where(ignored, overlap, 0.0), per_prop)
    person_j, person_v = _first_max(
        overlap[col < n_pers[scene][pair_prop]], n_pers[scene])

    pos = best_v >= iou_pos
    # overlapping an ignore region: neither positive nor negative
    neg = ~pos & (best_ign < iou_pos)
    match = gt_start[pos] + best_j[pos]
    labels = np.zeros(len(props), dtype=int)
    labels[pos] = gt_labels[match]
    reg_targets = np.zeros((len(props), 4))
    reg_targets[pos] = encode_rels(gt[match], props[pos])

    humans = np.flatnonzero(person_v >= iou_pos)
    person = gt_start[humans] + person_j[humans]
    actions = np.zeros((len(gt), a))
    actions[act_rows, act_cols] = 1.0
    role_keys = np.array(list(roles), dtype=int).reshape(-1, 2)
    role_objects = np.full((len(gt), a), -1)
    role_objects[role_keys[:, 0], role_keys[:, 1]] = list(roles.values())
    targets = role_objects[person]
    target_mask = targets >= 0
    rows, cols = np.nonzero(target_mask)
    offsets = np.zeros((len(humans), a, 4))
    offsets[rows, cols] = encode_rels(gt[targets[rows, cols]],
                                      props[humans[rows]])
    pair_boxes = gt[np.array(pairs, dtype=int).reshape(-1, 2)]
    pair_targets = np.zeros((len(pairs), a))
    pair_targets[pair_rows, pair_cols] = 1.0

    human_boxes, action_targets = props[humans], actions[person]
    for arr in (props, labels, reg_targets, human_boxes, action_targets,
                offsets, target_mask, pair_boxes, pair_targets):
        arr.flags.writeable = False
    local = _within(n_prop)
    positives, negatives = local[pos], local[neg]
    n = len(scenes)
    return [
        LabelTable(boxes=props[p], labels=labels[p],
                   reg_targets=reg_targets[p],
                   positives=positives[i].tolist(),
                   negatives=negatives[j].tolist(),
                   human_boxes=human_boxes[h],
                   action_targets=action_targets[h],
                   target_offsets=offsets[h], target_mask=target_mask[h],
                   pair_boxes=pair_boxes[q], pair_targets=pair_targets[q])
        for p, i, j, h, q in zip(
            _spans(scene, n), _spans(scene[pos], n), _spans(scene[neg], n),
            _spans(scene[humans], n),
            _spans(np.array(pair_scene, dtype=int), n))
    ]


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


def featurize(samples: SampleBoxes, provider, scene_id: int,
              cfg: HeadConfig) -> ImageSamples:
    """Pool every sampled box of the image in one provider call and split
    the rows into the object, human and pair sections."""
    pairs = samples.interaction_pairs
    h = len(samples.object_boxes)  # row where each section starts
    i = h + len(samples.human_boxes)
    o = i + len(pairs)
    feats = provider.pooled_matrix(scene_id, np.concatenate([
        samples.object_boxes, samples.human_boxes, pairs[:, 0], pairs[:, 1]]))
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


def build_image_samples(ts: TrainScene, provider, registry, categories,
                        cfg: HeadConfig, quotas: Quotas, seed) -> ImageSamples:
    samples = assign_labels(ts.proposals, ts.annotation, registry, categories,
                            quotas, seed)
    return featurize(samples, provider, ts.scene_id, cfg)


def _check_finite(tensors, cfg: HeadConfig, what: str) -> None:
    name = first_non_finite(tensors, cfg)
    if name is not None:
        raise TrainingDiverged(f"{what} {name}")


LOG_FIELDS = ("total", "object_cls_loss", "object_reg_loss", "action_cls_loss",
              "target_loc_loss", "interaction_cls_loss")


def train(scenes, provider, cfg: HeadConfig, schedule: Schedule,
          registry: ActionRegistry, categories,
          quotas: Quotas = Quotas(), loss_weights: LossWeights = LossWeights(),
          params=None, log_path=None, checkpoint_path=None,
          checkpoint_every: int = 0, actions_json=None):
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
    if params is None:
        params = init_params(cfg, schedule.seed)
    velocity = init_velocity(params)
    history = []
    log_fh = open(log_path, "w") if log_path else None
    if log_fh:
        log_fh.write("iteration lr " + " ".join(LOG_FIELDS) + "\n")
    if actions_json is None:
        actions_json = registry.to_json()
    it = 0
    try:
        for phase in schedule.phases:
            for _ in range(phase.iterations):
                rng = np.random.default_rng((schedule.seed, it))
                per = schedule.images_per_step
                picks = rng.integers(0, len(scenes), size=schedule.workers * per)
                batch = [
                    featurize(
                        draw_samples(tables[pick], quotas,
                                     (schedule.seed, it, *divmod(b, per))),
                        provider, scenes[pick].scene_id, cfg)
                    for b, pick in enumerate(picks)
                ]
                try:
                    grads, rep = backward(batch, params, cfg, loss_weights)
                except FloatingPointError as exc:
                    raise TrainingDiverged(f"iteration {it}: {exc}") from exc
                if not np.isfinite(rep.total):
                    raise TrainingDiverged(
                        f"non-finite loss {rep.total} at iteration {it}"
                    )
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
