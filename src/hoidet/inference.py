"""Cascaded inference: detect, score humans, pick one target per action.

The cascade avoids quadratic head work: every post-detection box runs
through the per-RoI heads exactly once (batched), caching its action
logits, density parameters, and object-side interaction logits. Pair
scoring then reduces to sums and products over the cached values, and
the target for each (human, action) is the candidate maximizing

    s_o * interaction_score * compat

which equals the full triplet-score argmax since the human's own terms
are constant within the group. Ties go to the lowest candidate index.

The hot path is array-native. Proposals and detections enter it as
``(N, 4)`` box arrays: decoding, per-class NMS and RoI pooling run on
arrays. Then, for each human, the offsets of all candidates, every
action's compat and the interaction scores come out as ``(candidates,
actions)`` arrays, and one argmax over candidates picks every action's
target. ``Box``/``Detection`` objects appear only in the inputs and in
the returned triplets. Every array step repeats the arithmetic of the
scalar functions in ``geometry`` and ``density``, so the picks and
scores are the same bits as a pair-by-pair evaluation.

Self-pairs are excluded: a human box is never its own target, but other
detected people are legitimate candidates.

Predictions serialize as JSON lines, one triplet per line; that file is
the evaluator's input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .dataset import PERSON_CATEGORY, ROLE_NONE, ActionRegistry
from .density import gaussian_compat, kmeans_compat, mixture_compat
from .geometry import Box, Detection, box_array, decode_rels, encode_rels, nms
from .model import (
    HeadConfig,
    forward_human,
    forward_object,
    interaction_human_logits,
    interaction_object_logits,
    pair_scores,
)

SCORE_THRESHOLD = 0.05
NMS_THRESHOLD = 0.3
MAX_TRIPLETS = 100


@dataclass(frozen=True)
class InferenceConfig:
    score_threshold: float = SCORE_THRESHOLD
    nms_threshold: float = NMS_THRESHOLD
    max_triplets: int = MAX_TRIPLETS

    def __post_init__(self):
        if self.max_triplets < 0:
            raise ValueError(
                f"max_triplets must be >= 0, got {self.max_triplets}")
        for name in ("score_threshold", "nms_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # also rejects NaN
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class ScoredTriplet:
    """One (human, action, object) prediction with its score factors.

    ``object`` is None exactly when the action takes no target; then
    ``s_o`` and ``compat`` are None and the total is s_h * action_score.
    """

    image_id: int
    human: Detection
    action: str
    role: str
    object: Detection | None
    s_h: float
    s_o: float | None
    action_score: float
    compat: float | None
    score: float


@dataclass
class InferStats:
    num_proposals: int = 0
    num_detections: int = 0
    per_roi_forwards: int = 0
    num_pairs_scored: int = 0

    def add(self, other: InferStats) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def detect_objects(probs: np.ndarray, deltas: np.ndarray, proposals,
                   categories, score_threshold: float = SCORE_THRESHOLD,
                   nms_threshold: float = NMS_THRESHOLD) -> list[Detection]:
    """Decode the (proposal, class) pairs scoring above the threshold,
    then per-class NMS; decoded boxes of zero extent are dropped."""
    scores = probs[:, 1:len(categories) + 1]
    i, c = np.nonzero(scores > score_threshold)
    boxes = decode_rels(deltas[i, c + 1], box_array(proposals)[i])
    valid = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    boxes, c, scores = boxes[valid], c[valid], scores[i, c][valid]
    keep = nms(boxes, scores, c, nms_threshold)
    return [Detection(box=Box(*boxes[k].tolist()), category=categories[c[k]],
                      score=float(scores[k])) for k in keep]


def select_object(s_o: np.ndarray, inter: np.ndarray, compat: np.ndarray):
    """Index along axis 0 (the candidates) maximizing the product, per
    column for 2-d input; None if there are no candidates.

    np.argmax keeps the first maximum, which is the tie-break rule.
    """
    score = np.asarray(s_o) * np.asarray(inter) * np.asarray(compat)
    if len(score) == 0:
        return None
    best = np.argmax(score, axis=0)
    return int(best) if best.ndim == 0 else best


def infer(scene_id: int, proposals, provider, params, cfg: HeadConfig,
          registry: ActionRegistry, categories,
          icfg: InferenceConfig = InferenceConfig(),
          baseline_centers=None):
    """Full cascade for one image -> (triplets sorted by score, stats).

    baseline_centers, when given, maps action index -> (K, 4) cluster
    centers and replaces the model's density output in the compat term.
    """
    stats = InferStats(num_proposals=len(proposals))
    if not proposals:
        return [], stats
    feats = provider.pooled_matrix(scene_id, proposals)
    obj_out = forward_object(feats, params, cfg)
    detections = detect_objects(obj_out.probs, obj_out.deltas, proposals,
                                categories, icfg.score_threshold,
                                icfg.nms_threshold)
    triplets = score_detections(scene_id, detections, provider, params, cfg,
                                registry, stats, baseline_centers)
    order = sorted(range(len(triplets)),
                   key=lambda i: (-triplets[i].score, i))
    return [triplets[i] for i in order[: icfg.max_triplets]], stats


def _compat(rels: np.ndarray, hum, h: int, cfg: HeadConfig,
            baseline_centers, targeted) -> np.ndarray:
    """(candidates, actions) target-location term of human ``h`` for the
    candidates' (C, 4) offsets; only the ``targeted`` actions' columns
    are filled for the k-means baseline."""
    if baseline_centers is not None:
        out = np.zeros((len(rels), cfg.num_actions))
        for a in targeted:
            out[:, a] = kmeans_compat(rels, baseline_centers[a], cfg.sigma)
        return out
    if cfg.use_mdn:
        return mixture_compat(rels[:, None, :], hum.weights[h], hum.mus[h],
                              hum.sigmas[h])
    return gaussian_compat(rels[:, None, :], hum.mus[h, :, 0], cfg.sigma)


def score_detections(scene_id: int, detections, provider, params,
                     cfg: HeadConfig, registry: ActionRegistry,
                     stats: InferStats | None = None,
                     baseline_centers=None) -> list:
    """Post-detection cascade: unsorted triplets for the given boxes."""
    if stats is None:
        stats = InferStats()
    stats.num_detections = len(detections)
    if not detections:
        return []

    boxes = box_array([d.box for d in detections])
    det_scores = np.array([d.score for d in detections])
    det_feats = provider.pooled_matrix(scene_id, boxes)
    # one cascade-stage pass per surviving box: caches action scores,
    # density parameters, and both interaction-side quantities
    hum = forward_human(det_feats, params, cfg)
    if cfg.use_interaction_branch:
        logit_h = interaction_human_logits(hum.hidden, params, cfg)
        logit_o, hidden_o = interaction_object_logits(det_feats, params, cfg)
    stats.per_roi_forwards += len(detections)
    targeted = [a for a, e in enumerate(registry) if e.role != ROLE_NONE]

    triplets = []
    for h, hdet in enumerate(detections):
        if hdet.category != PERSON_CATEGORY:
            continue
        # every other detection is a candidate: (C,) indices, (C, A) terms
        cand = np.delete(np.arange(len(detections)), h)
        if len(cand):
            if cfg.use_interaction_branch:
                inter = pair_scores(logit_h[h], logit_o[cand], hum.hidden[h],
                                    hidden_o[cand], params, cfg)
                stats.num_pairs_scored += len(cand)
            else:
                inter = np.broadcast_to(hum.action_scores[h],
                                        (len(cand), cfg.num_actions))
            compat = _compat(encode_rels(boxes[cand], boxes[h]), hum, h, cfg,
                             baseline_centers, targeted)
            s_o = det_scores[cand]
            best = select_object(s_o[:, None], inter, compat)
        for a, entry in enumerate(registry):
            act = float(hum.action_scores[h, a])
            if entry.role == ROLE_NONE:
                triplets.append(ScoredTriplet(
                    image_id=scene_id, human=hdet, action=entry.name,
                    role=entry.role, object=None, s_h=hdet.score, s_o=None,
                    action_score=act, compat=None,
                    score=hdet.score * act))
                continue
            if not len(cand):
                continue
            j = best[a]
            so, ia, g = float(s_o[j]), float(inter[j, a]), float(compat[j, a])
            triplets.append(ScoredTriplet(
                image_id=scene_id, human=hdet, action=entry.name,
                role=entry.role, object=detections[cand[j]], s_h=hdet.score,
                s_o=so, action_score=ia, compat=g,
                score=hdet.score * so * ia * g))
    return triplets


def _det_json(d: Detection | None):
    if d is None:
        return None
    return {"box": list(d.box.as_tuple()), "category": d.category,
            "score": d.score}


def _det_from_json(obj):
    if obj is None:
        return None
    return Detection(box=Box(*obj["box"]), category=obj["category"],
                     score=float(obj["score"]))


def triplet_to_json(t: ScoredTriplet) -> dict:
    return {
        "image_id": t.image_id,
        "human": _det_json(t.human),
        "action": t.action,
        "role": t.role,
        "object": _det_json(t.object),
        "s_h": t.s_h,
        "s_o": t.s_o,
        "action_score": t.action_score,
        "compat": t.compat,
        "score": t.score,
    }


def triplet_from_json(obj: dict) -> ScoredTriplet:
    return ScoredTriplet(
        image_id=int(obj["image_id"]),
        human=_det_from_json(obj["human"]),
        action=str(obj["action"]),
        role=str(obj["role"]),
        object=_det_from_json(obj["object"]),
        s_h=float(obj["s_h"]),
        s_o=None if obj["s_o"] is None else float(obj["s_o"]),
        action_score=float(obj["action_score"]),
        compat=None if obj["compat"] is None else float(obj["compat"]),
        score=float(obj["score"]),
    )


def write_predictions(path, triplets) -> None:
    with open(path, "w") as f:
        for t in triplets:
            f.write(json.dumps(triplet_to_json(t)) + "\n")


def read_predictions(path) -> list[ScoredTriplet]:
    """Triplets of a predictions file; a line that is not JSON, lacks a
    key or holds a value of the wrong type raises ValueError naming the
    line (1-based)."""
    out = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(triplet_from_json(json.loads(line)))
            except KeyError as exc:
                raise ValueError(
                    f"predictions line {number}: missing key {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"predictions line {number}: {exc}") from exc
    return out
