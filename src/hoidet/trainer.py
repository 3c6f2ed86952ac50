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

Each iteration draws the 16-image effective batch (8 workers x 2
images, each image seeded by its (seed, iteration, worker, slot)) and
takes one ``backward`` over all of it: every branch stacks the rows of
the 16 images, and a row of image i weighs 1/(16 n_i) for the image's
n_i rows in that section, so the objective is the mean over images of
the per-image mean loss. Label assignment works on the proposal x
ground-truth IoU matrix, and each image's boxes are pooled in one
provider call. Training is bit-reproducible given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ROLE_NONE, ActionRegistry, SceneAnnotation
from .geometry import box_array, encode_rels, iou_matrix
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
    """assign_labels output: labeled boxes before feature pooling."""

    object_boxes: list
    object_labels: np.ndarray
    object_reg_targets: np.ndarray
    object_reg_mask: np.ndarray
    human_boxes: list
    human_action_targets: np.ndarray
    human_target_offsets: np.ndarray
    human_target_mask: np.ndarray
    interaction_pairs: list  # [(person Box, object Box)]
    interaction_action_targets: np.ndarray


def _first_max(values: np.ndarray):
    """Per row, the first column holding the row's maximum, and that
    maximum; (-1, 0.0) where no value exceeds 0. This is the scalar scan
    ``if v > best: best = v`` started from 0."""
    padded = np.hstack([np.zeros((len(values), 1)), values])
    best = padded.argmax(axis=1)
    return best - 1, padded[np.arange(len(values)), best]


def assign_labels(proposals, scene: SceneAnnotation, registry: ActionRegistry,
                  categories, quotas: Quotas = Quotas(), seed=0) -> SampleBoxes:
    """Match proposals to ground truth and sample the three sections.

    categories lists the non-background class names and must contain
    "person"; class index = list position + 1, background 0. A proposal
    matches the first ground-truth box of highest IoU (ignore regions
    excluded), and its person match likewise among the persons.
    """
    rng = np.random.default_rng(seed)
    cat_index = {c: i + 1 for i, c in enumerate(categories)}
    if "person" not in cat_index:
        raise ValueError('categories must include "person"')
    a = len(registry)
    n_persons = len(scene.persons)

    props = box_array(proposals)
    gt_boxes = box_array(list(scene.persons) + [o.box for o in scene.objects])
    gt_labels = np.array([cat_index["person"]] * n_persons + [
        cat_index[o.category] for o in scene.objects
    ], dtype=int)
    gt_ignore = np.array([False] * n_persons + [o.ignore for o in scene.objects],
                         dtype=bool)

    n = len(props)
    overlap = iou_matrix(props, gt_boxes)
    best_j, best_v = _first_max(np.where(gt_ignore, 0.0, overlap))
    best_ign = np.max(overlap[:, gt_ignore], axis=1, initial=0.0)
    person_match, person_iou = _first_max(overlap[:, :n_persons])

    pos = best_v >= quotas.iou_pos
    # overlapping an ignore region: neither positive nor negative
    neg = ~pos & (best_ign < quotas.iou_pos)
    labels = np.zeros(n, dtype=int)
    labels[pos] = gt_labels[best_j[pos]]
    reg_targets = np.zeros((n, 4))
    reg_targets[pos] = encode_rels(gt_boxes[best_j[pos]], props[pos])
    pos_idx = np.flatnonzero(pos).tolist()
    neg_idx = np.flatnonzero(neg).tolist()

    pos_requested = int(round(quotas.object_quota * quotas.pos_fraction))
    rng.shuffle(pos_idx)
    rng.shuffle(neg_idx)
    take_pos = pos_idx[:pos_requested]
    take_neg = neg_idx[: 3 * len(take_pos)]
    chosen = sorted(take_pos + take_neg)

    hum_idx = np.flatnonzero(person_iou >= quotas.iou_pos).tolist()
    rng.shuffle(hum_idx)
    hum_idx = sorted(hum_idx[: quotas.human_quota])

    hum_person = person_match[hum_idx]
    hum_targets = np.zeros((len(hum_idx), a))
    hum_offsets = np.zeros((len(hum_idx), a, 4))
    hum_mask = np.zeros((len(hum_idx), a), dtype=bool)
    set_rows, set_cols, set_objects = [], [], []
    for rec in scene.interactions:
        rows = np.flatnonzero(hum_person == rec.person)
        for entry in registry.entries_for(rec.action):
            hum_targets[rows, registry.index(entry.name, entry.role)] = 1.0
        if rec.role != ROLE_NONE:
            e = registry.index(rec.action, rec.role)
            rows = rows[~hum_mask[rows, e]]  # first record wins on duplicates
            hum_mask[rows, e] = True
            set_rows.append(rows)
            set_cols.append(np.full(len(rows), e))
            set_objects.append(np.full(len(rows), rec.object))
    if set_rows:
        rows, cols = np.concatenate(set_rows), np.concatenate(set_cols)
        objects = box_array([o.box for o in scene.objects])
        hum_offsets[rows, cols] = encode_rels(
            objects[np.concatenate(set_objects)], props[hum_idx][rows])

    pair_targets = {}
    for rec in scene.interactions:
        if rec.role == ROLE_NONE:
            continue
        key = (rec.person, rec.object)
        t = pair_targets.setdefault(key, np.zeros(a))
        for entry in registry.entries_for(rec.action):
            t[registry.index(entry.name, entry.role)] = 1.0
    pairs = [
        (scene.persons[p], scene.objects[o].box) for p, o in sorted(pair_targets)
    ]
    pair_mat = (
        np.stack([pair_targets[k] for k in sorted(pair_targets)])
        if pair_targets
        else np.zeros((0, a))
    )

    return SampleBoxes(
        object_boxes=[proposals[i] for i in chosen],
        object_labels=labels[chosen],
        object_reg_targets=reg_targets[chosen],
        object_reg_mask=pos[chosen],
        human_boxes=[proposals[i] for i in hum_idx],
        human_action_targets=hum_targets,
        human_target_offsets=hum_offsets,
        human_target_mask=hum_mask,
        interaction_pairs=pairs,
        interaction_action_targets=pair_mat,
    )


def featurize(samples: SampleBoxes, provider, scene_id: int,
              cfg: HeadConfig) -> ImageSamples:
    """Pool every sampled box of the image in one provider call and split
    the rows into the object, human and pair sections."""
    a = cfg.num_actions
    pairs = samples.interaction_pairs
    h = len(samples.object_boxes)  # row where each section starts
    i = h + len(samples.human_boxes)
    o = i + len(pairs)
    feats = provider.pooled_matrix(
        scene_id, [*samples.object_boxes, *samples.human_boxes,
                   *(p for p, _ in pairs), *(b for _, b in pairs)])
    n_h = i - h
    return ImageSamples(
        object_feats=feats[:h],
        object_labels=samples.object_labels,
        object_reg_targets=samples.object_reg_targets,
        object_reg_mask=samples.object_reg_mask,
        human_feats=feats[h:i],
        human_action_targets=samples.human_action_targets.reshape(n_h, a),
        human_target_offsets=samples.human_target_offsets.reshape(n_h, a, 4),
        human_target_mask=samples.human_target_mask.reshape(n_h, a),
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
    reduction all follow fixed seeded orders. Raises TrainingDiverged
    with the iteration index when the loss, a gradient or, after the
    step, a parameter leaves the finite range; tensors are named.
    """
    if not scenes:
        raise ValueError("training needs at least one scene")
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
                    build_image_samples(
                        scenes[pick], provider, registry, categories, cfg,
                        quotas, seed=(schedule.seed, it, *divmod(b, per)),
                    )
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
