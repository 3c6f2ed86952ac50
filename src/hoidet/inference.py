"""Cascaded inference: detect, score humans, pick one target per action.

The cascade avoids quadratic head work: every post-detection box runs
through the per-RoI heads exactly once (batched), caching its action
logits, density parameters, and object-side interaction logits. Pair
scoring then reduces to sums and products over the cached values, and
the target for each (human, action) is the candidate maximizing

    s_o * interaction_score * compat

which equals the full triplet-score argmax since the human's own terms
are constant within the group. Ties go to the lowest candidate index.

:func:`infer` runs a whole command's scenes at once, as Fast R-CNN's
RoI layer pools a mini-batch's RoIs: consecutive whole scenes are
pooled in one gather of at most ``_INFER_BLOCK`` rows (a larger scene
alone), first their proposals, then their detections. Every head
matmul still takes one scene's rows: the object head one scene's
proposals, the human and interaction heads one scene's detections, and
in ``concat_mlp`` mode the pair MLP one human's candidates. A matmul's
rows can change in their last bits with its row count, and pooling is
row-local, so the triplets are the same bits as one scene at a time.
Decoding and per-class NMS run per scene on ``(N, 4)`` box arrays.

Pair scoring is one pass per scene over ``(detections, humans,
actions)`` arrays: every human's offsets to every detection, every
action's compat and interaction score, the self pair masked out, and
one first-index argmax over the detections picks every (human, action)
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

from .dataset import (
    _NUMBERS,
    PERSON_CATEGORY,
    ROLE_NONE,
    ActionRegistry,
    _typed,
)
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
# rows per RoI-pooling gather of ``infer``: whole scenes are pooled
# together up to this many, so that a gather's (rows, C * P * P) output
# stays near 0.7 MB for 14-channel 5 x 5 bins however many scenes a
# command holds
_INFER_BLOCK = 256


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


def select_object(s_o, inter, compat, exclude=None):
    """Index along axis 0 (the candidates) maximizing the product, per
    column for 2-d input and per (column, action) for 3-d; None if there
    are no candidates. ``exclude`` holds, for each axis-1 column, the
    one candidate it may not pick.

    np.argmax keeps the first maximum, which is the tie-break rule.
    """
    score = np.asarray(s_o) * np.asarray(inter) * np.asarray(compat)
    if len(score) == 0:
        return None
    if exclude is not None:
        score[exclude, np.arange(len(exclude))] = -np.inf
    best = np.argmax(score, axis=0)
    return int(best) if best.ndim == 0 else best


def _scene_bounds(ids: np.ndarray) -> list:
    """(start, stop) rows of each run of equal ``ids``: one per scene."""
    if not len(ids):
        return []
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    return list(zip([0, *starts.tolist()], [*starts.tolist(), len(ids)]))


def _blocks(bounds):
    """Consecutive ``(start, stop)`` row bounds in groups spanning at
    most ``_INFER_BLOCK`` rows; a longer one is a group of its own."""
    group = []
    for lo, hi in bounds:
        if group and hi - group[0][0] > _INFER_BLOCK:
            yield group
            group = []
        group.append((lo, hi))
    if group:
        yield group


def _pooled(provider, ids, boxes, bounds):
    """Each bound's rows of ``boxes`` pooled, in order, in one gather per
    group of :func:`_blocks`."""
    for group in _blocks(bounds):
        lo, hi = group[0][0], group[-1][1]
        feats = (provider.pooled_matrix(ids[lo:hi], boxes[lo:hi]) if hi > lo
                 else np.zeros((0, provider.feature_dim)))
        for a, b in group:
            yield feats[a - lo:b - lo]


def infer(scene_id, proposals, provider, params, cfg: HeadConfig,
          registry: ActionRegistry, categories,
          icfg: InferenceConfig = InferenceConfig(),
          baseline_centers=None):
    """Full cascade for the scenes of ``proposals`` -> (triplets, stats).

    proposals are an ``(N, 4)`` corner array (or a ``Box`` list);
    ``scene_id`` is one scene's id, or (N,) ids, one per proposal, each
    scene's rows contiguous. The triplets are each scene's in scene
    order, sorted by score and capped at ``icfg.max_triplets``; the
    stats are summed over the scenes. baseline_centers, when given, maps
    action index -> (K, 4) cluster centers and replaces the model's
    density output in the compat term.
    """
    proposals = box_array(proposals)
    ids = np.broadcast_to(np.asarray(scene_id, dtype=np.int64),
                          (len(proposals),))
    stats = InferStats(num_proposals=len(proposals))
    out = []
    for block in _blocks(_scene_bounds(ids)):
        found = []
        for (a, b), feats in zip(block, _pooled(provider, ids, proposals,
                                                block)):
            obj = forward_object(feats, params, cfg)
            found.append(detect_objects(
                obj.probs, obj.deltas, proposals[a:b], categories,
                icfg.score_threshold, icfg.nms_threshold))
        ends = np.cumsum([0] + [len(d) for d in found]).tolist()
        det_ids = np.repeat([ids[a] for a, _ in block], np.diff(ends))
        boxes = box_array([d.box for dets in found for d in dets])
        for (a, _), dets, feats in zip(
                block, found, _pooled(provider, det_ids, boxes,
                                      list(zip(ends, ends[1:])))):
            triplets = score_detections(int(ids[a]), dets, provider, params,
                                        cfg, registry, stats,
                                        baseline_centers, feats)
            order = sorted(range(len(triplets)),
                           key=lambda i: (-triplets[i].score, i))
            out.extend(triplets[i] for i in order[:icfg.max_triplets])
    return out, stats


def _compat(rels: np.ndarray, hum, humans, cfg: HeadConfig,
            baseline_centers, targeted) -> np.ndarray:
    """(detections, humans, actions) target-location term of the
    ``humans``' rows of ``hum`` for the (D, H, 4) offsets of every
    detection from every human; only the ``targeted`` actions' columns
    are filled for the k-means baseline."""
    if baseline_centers is not None:
        out = np.zeros(rels.shape[:2] + (cfg.num_actions,))
        for a in targeted:
            out[..., a] = kmeans_compat(rels, baseline_centers[a], cfg.sigma)
        return out
    if cfg.use_mdn:
        return mixture_compat(rels[..., None, :], hum.weights[humans],
                              hum.mus[humans], hum.sigmas[humans])
    return gaussian_compat(rels[..., None, :], hum.mus[humans, :, 0],
                           cfg.sigma)


def score_detections(scene_id: int, detections, provider, params,
                     cfg: HeadConfig, registry: ActionRegistry,
                     stats: InferStats | None = None,
                     baseline_centers=None, feats=None) -> list:
    """Post-detection cascade: unsorted triplets for the given boxes of
    one scene. ``feats`` are their pooled rows, pooled here when None."""
    if stats is None:
        stats = InferStats()
    stats.num_detections += len(detections)
    if not detections:
        return []

    boxes = box_array([d.box for d in detections])
    if feats is None:
        feats = provider.pooled_matrix(scene_id, boxes)
    # one cascade-stage pass per surviving box: caches action scores,
    # density parameters, and both interaction-side quantities
    hum = forward_human(feats, params, cfg)
    if cfg.use_interaction_branch:
        logit_h = interaction_human_logits(hum.hidden, params, cfg)
        logit_o, hidden_o = interaction_object_logits(feats, params, cfg)
    stats.per_roi_forwards += len(detections)
    humans = np.flatnonzero([d.category == PERSON_CATEGORY
                             for d in detections])
    if not len(humans):
        return []
    n, h = len(detections), len(humans)
    act = hum.action_scores[humans]
    if n > 1:
        # every detection is a candidate of every human, itself masked
        # out: (detections, humans, actions) terms, one pass per scene
        if not cfg.use_interaction_branch:
            inter = act[None]
        elif cfg.pairwise_mode == "logit_sum":
            inter = pair_scores(logit_h[humans][None], logit_o[:, None],
                                None, None, params, cfg)
        else:  # one pair-MLP call per human over exactly its candidates
            inter = np.zeros((n, h, cfg.num_actions))
            for k, i in enumerate(humans.tolist()):
                cand = np.delete(np.arange(n), i)
                inter[cand, k] = pair_scores(logit_h[i], logit_o[cand],
                                             hum.hidden[i], hidden_o[cand],
                                             params, cfg)
        if cfg.use_interaction_branch:
            stats.num_pairs_scored += h * (n - 1)
        targeted = [a for a, e in enumerate(registry) if e.role != ROLE_NONE]
        compat = _compat(encode_rels(boxes[:, None], boxes[humans][None]),
                         hum, humans, cfg, baseline_centers, targeted)
        det_scores = np.array([d.score for d in detections])
        best = select_object(det_scores[:, None, None], inter, compat,
                             exclude=humans)
        picked = best, np.arange(h)[:, None], np.arange(cfg.num_actions)
        inter = inter[picked] if cfg.use_interaction_branch else act
        best, s_o = best.tolist(), det_scores[best].tolist()
        inter, compat = inter.tolist(), compat[picked].tolist()

    act = act.tolist()
    triplets = []
    for k, i in enumerate(humans.tolist()):
        hdet = detections[i]
        for a, entry in enumerate(registry):
            if entry.role == ROLE_NONE:
                triplets.append(ScoredTriplet(
                    scene_id, hdet, entry.name, entry.role, None, hdet.score,
                    None, act[k][a], None, hdet.score * act[k][a]))
            elif n > 1:
                so, ia, g = s_o[k][a], inter[k][a], compat[k][a]
                triplets.append(ScoredTriplet(
                    scene_id, hdet, entry.name, entry.role,
                    detections[best[k][a]], hdet.score, so, ia, g,
                    hdet.score * so * ia * g))
    return triplets


def _det_json(d: Detection | None):
    if d is None:
        return None
    return {"box": list(d.box.as_tuple()), "category": d.category,
            "score": d.score}


def _det_from_json(obj, where: str, seen: dict) -> Detection:
    box = _typed(obj, dict, where)["box"]
    if (type(box) is not list or len(box) != 4
            or not _NUMBERS.issuperset(map(type, box))):
        raise ValueError(f"{where}.box: expected a list of 4 numbers, got "
                         f"{json.dumps(box)}")
    # the box is checked before the category, so that a detection with
    # both faults is named by its box; the corners become floats (an
    # integer too large for one is an OverflowError)
    x1, y1, x2, y2 = box
    if not (x2 > x1 and y2 > y1):
        Box(*box)  # raises the degenerate-box error
    box = list(map(float, box))
    category = _typed(obj["category"], str, where + ".category")
    score = float(_typed(obj["score"], float, where + ".score"))
    key = (category, score, *box)
    det = seen.get(key)
    if det is None:
        det = seen[key] = Detection(Box(*box), category, score)
    return det


def triplet_from_json(obj, seen: dict) -> ScoredTriplet:
    """The triplet of one predictions line; a field of the wrong JSON
    type (a boolean is not a number) raises ValueError naming it.
    Equal detections are built once: ``seen`` holds them by value."""
    _typed(obj, dict, "top level")
    # positional: keywords cost about a tenth of the check
    return ScoredTriplet(
        _typed(obj["image_id"], int, "image_id"),
        _det_from_json(obj["human"], "human", seen),
        _typed(obj["action"], str, "action"),
        _typed(obj["role"], str, "role"),
        (None if obj["object"] is None
         else _det_from_json(obj["object"], "object", seen)),
        float(_typed(obj["s_h"], float, "s_h")),
        (None if obj["s_o"] is None
         else float(_typed(obj["s_o"], float, "s_o"))),
        float(_typed(obj["action_score"], float, "action_score")),
        (None if obj["compat"] is None
         else float(_typed(obj["compat"], float, "compat"))),
        float(_typed(obj["score"], float, "score")))


_LINE = ('{{"image_id": {}, "human": {}, "action": {}, "role": {}, '
         '"object": {}, "s_h": {}, "s_o": {}, "action_score": {}, '
         '"compat": {}, "score": {}}}\n')


def _number_json(x) -> str:
    """``json.dumps(x)``, by ``float.__repr__`` for a finite float."""
    if type(x) is float and x - x == 0:
        return float.__repr__(x)
    return "null" if x is None else json.dumps(x)


def write_predictions(path, triplets) -> None:
    """One ``_LINE`` per triplet, as ``json.dumps`` writes its JSON object.

    The detections, names and image ids that triplets share are encoded
    once each (keyed by identity: the triplets keep them alive), so a
    line costs one template fill and five numbers."""
    shared = {}

    def encoded(value, to_json=None):
        text = shared.get(id(value))
        if text is None:
            text = shared[id(value)] = json.dumps(
                value if to_json is None else to_json(value))
        return text

    with open(path, "w") as f:
        f.writelines(_LINE.format(
            encoded(t.image_id), encoded(t.human, _det_json),
            encoded(t.action), encoded(t.role),
            encoded(t.object, _det_json), _number_json(t.s_h),
            _number_json(t.s_o), _number_json(t.action_score),
            _number_json(t.compat), _number_json(t.score))
            for t in triplets)


_DECODER = json.JSONDecoder()


def _parse_line(line: str):
    """``json.loads`` of a stripped line. One ``raw_decode`` does it when
    it takes the whole line (``json.loads`` adds only whitespace scans
    and a BOM check); otherwise ``json.loads`` raises its own error."""
    try:
        obj, end = _DECODER.raw_decode(line)
        if end == len(line):
            return obj
    except ValueError:
        pass
    return json.loads(line)


def read_predictions(path) -> list[ScoredTriplet]:
    """Triplets of a predictions file, one JSON object per line; blank
    lines are skipped. A line that is not JSON, lacks a key or holds a
    value of the wrong type raises ValueError naming the line (1-based)."""
    out, seen = [], {}
    with open(path) as f:
        for number, line in enumerate(map(str.strip, f), 1):
            if not line:
                continue
            try:
                out.append(triplet_from_json(_parse_line(line), seen))
            except KeyError as exc:
                raise ValueError(
                    f"predictions line {number}: missing key {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"predictions line {number}: {exc}") from exc
    return out
