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
RoI layer pools a mini-batch's RoIs, in blocks of consecutive whole
scenes holding at most ``_INFER_BLOCK`` proposals (a larger scene
alone). A block's proposals are pooled in one gather, then its
detections, again in gathers of at most ``_INFER_BLOCK`` rows. Every
head matmul still takes one scene's rows: the object head one scene's
proposals, the human and interaction heads one scene's detections, and
in ``concat_mlp`` mode the pair MLP one human's candidates. A matmul's
rows can change in their last bits with its row count, and pooling is
row-local, so the triplets are the same bits as one scene at a time.

Between the heads, a block is arrays. Every (proposal, class) above the
score threshold is decoded in one pass, and one per-class NMS call
takes them all, each (scene, class) its own label group. The survivors
stay ``(N, 4)`` boxes with class, score and scene arrays. Pair scoring
is one pass over a ``(humans, candidates, actions)`` grid: row k holds
human k's candidates, the other detections of its scene in detection
order, padded at the end to the block's longest row. Offsets, compat
and interaction scores fill the grid, and one first-index argmax with
the padding at -inf picks every (human, action) target. ``Box`` and
``Detection`` objects appear only in the inputs and in the returned
triplets, and only for the triplets kept. Every array step repeats the
arithmetic of the scalar functions in ``geometry`` and ``density``, so
the picks and scores are the same bits as a pair-by-pair evaluation.

The k-means prior is scored as a fixed-width density whose means are
an ``(actions, K, 4)`` table of centers. Each kept triplet carries the
mean its target was scored with (``ScoredTriplet.target_mean``);
``hoidet infer --overlay`` decodes it into the triplet's hint box, so
the overlay is the cascade's own density and costs no head work.

Self-pairs are excluded: a human box is never its own target, but other
detected people are legitimate candidates.

Predictions serialize as JSON lines, one triplet per line; that file is
the evaluator's input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import (
    _INF,
    _NUMBERS,
    PERSON_CATEGORY,
    ROLE_NONE,
    ActionRegistry,
    _typed,
)
from .density import gaussian_compat, mixture_compat
from .geometry import (COORD_LIMIT, Box, Detection, box_array, decode_rels,
                       encode_rels, nms)
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
# proposals per block of ``infer``, and rows per RoI-pooling gather:
# whole scenes are pooled, decoded and scored together up to this many,
# so that a gather's (rows, C * P * P) output stays near 0.7 MB for
# 14-channel 5 x 5 bins, and a block's pair arrays stay as small,
# however many scenes a command holds
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
    ``s_o``, ``compat`` and ``target_mean`` are None and the total is
    s_h * action_score. ``target_mean`` is the density mean the target
    was scored with; predictions files do not hold it.
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
    target_mean: list | None = field(default=None, compare=False)


@dataclass
class InferStats:
    num_proposals: int = 0
    num_detections: int = 0
    per_roi_forwards: int = 0
    num_pairs_scored: int = 0


def _detect(probs, deltas, proposals, scenes, num_classes: int,
            score_threshold: float, nms_threshold: float):
    """Decode the (proposal, class) pairs scoring above the threshold,
    then per-class NMS within each scene; decoded boxes of zero extent
    are dropped. ``scenes`` are the proposals' ascending scene indices.

    Returns the survivors' boxes, classes (0-based), scores and scenes,
    each scene's contiguous and by descending score, ties to the lowest
    (proposal, class) index."""
    scores = probs[:, 1:num_classes + 1]
    i, c = np.nonzero(scores > score_threshold)
    boxes = decode_rels(deltas[i, c + 1], proposals[i])
    valid = (boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])
    boxes, c, scores, scene = (boxes[valid], c[valid], scores[i, c][valid],
                               scenes[i][valid])
    keep = nms(boxes, scores, scene * num_classes + c, nms_threshold)
    keep = keep[np.argsort(scene[keep], kind="stable")]
    return boxes[keep], c[keep], scores[keep], scene[keep]


def detect_objects(probs: np.ndarray, deltas: np.ndarray, proposals,
                   categories, score_threshold: float = SCORE_THRESHOLD,
                   nms_threshold: float = NMS_THRESHOLD) -> list[Detection]:
    """One scene's detections (see :func:`_detect`), by descending score."""
    boxes, c, scores, _ = _detect(
        probs, deltas, box_array(proposals), np.zeros(len(probs), np.int64),
        len(categories), score_threshold, nms_threshold)
    return _detections(boxes, c, scores, categories)


def _detections(boxes, classes, scores, categories) -> list[Detection]:
    return [Detection(Box(*b), categories[k], s) for b, k, s in
            zip(boxes.tolist(), classes.tolist(), scores.tolist())]


def select_object(s_o, inter, compat, counts):
    """Each group's index maximizing the product, per trailing column:
    axis 0 holds the groups, axis 1 their candidates, of which group k
    has its first ``counts[k]`` (0 for a group without any). Products
    beyond a group's candidates are -inf, and np.argmax keeps the first
    maximum (and the first NaN): the tie-break rule."""
    score = s_o * inter * compat
    score[np.arange(score.shape[1]) >= counts[:, None]] = -np.inf
    return np.argmax(score, axis=1)


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
    person = np.array([c == PERSON_CATEGORY for c in categories], dtype=bool)
    stats = InferStats(num_proposals=len(proposals))
    out = []
    for block in _blocks(_scene_bounds(ids)):
        lo, hi = block[0][0], block[-1][1]
        obj = [forward_object(feats, params, cfg)
               for feats in _pooled(provider, ids, proposals, block)]
        boxes, cls, scores, scene = _detect(
            np.concatenate([o.probs for o in obj]),
            np.concatenate([o.deltas for o in obj]), proposals[lo:hi],
            np.repeat(np.arange(len(block)), [b - a for a, b in block]),
            len(categories), icfg.score_threshold, icfg.nms_threshold)
        stats.num_detections += len(boxes)
        if not len(boxes):
            continue
        det_ids = ids[[a for a, _ in block]][scene]
        heads = _concat([_heads(feats, params, cfg) for feats in _pooled(
            provider, det_ids, boxes, _scene_bounds(scene))])
        stats.per_roi_forwards += len(boxes)
        rows = _score_rows(boxes, scores, person[cls], scene, heads, params,
                           cfg, registry, stats, baseline_centers)
        # each scene's rows by descending score (ties: row order), capped
        row_scene = scene[rows.human]
        order = np.lexsort((-rows.score, row_scene))
        ranked = row_scene[order]
        keep = order[np.arange(len(order)) - np.searchsorted(ranked, ranked)
                     < icfg.max_triplets]
        used = np.zeros(len(boxes) + 1, dtype=bool)  # the last for -1
        used[rows.human[keep]] = used[rows.object[keep]] = True
        used = np.flatnonzero(used[:-1])
        dets = dict(zip(used.tolist(), _detections(
            boxes[used], cls[used], scores[used], categories)))
        out.extend(_triplets(rows, keep, det_ids.tolist(), dets, registry))
    return out, stats


def _center_table(centers: dict, num_actions: int) -> np.ndarray:
    """The (A, K, 4) table of ``centers`` (action index -> (K_a, 4)):
    each action's centers repeated up to the largest K_a, which keeps
    their max, and zeros for an action without centers."""
    rows = [np.reshape(centers.get(a, np.zeros(4)), (-1, 4))
            for a in range(num_actions)]
    k = max(map(len, rows))
    return np.stack([np.resize(r, (k, 4)) for r in rows])


def _heads(feats, params, cfg: HeadConfig) -> tuple:
    """Per-RoI outputs of one scene's detection rows: action scores,
    target means, mixture weights and widths (None without the MDN), the
    human trunk output, and the human- and object-side interaction
    logits and object-side trunk output (None without the branch)."""
    hum = forward_human(feats, params, cfg)
    logit_h = logit_o = hidden_o = None
    if cfg.use_interaction_branch:
        logit_h = interaction_human_logits(hum.hidden, params, cfg)
        logit_o, hidden_o = interaction_object_logits(feats, params, cfg)
    return (hum.action_scores, hum.mus, hum.weights, hum.sigmas, hum.hidden,
            logit_h, logit_o, hidden_o)


def _concat(heads: list) -> tuple:
    """Several scenes' :func:`_heads`, each output stacked over them."""
    return tuple(None if part[0] is None else np.concatenate(part)
                 for part in zip(*heads))


class _Rows(NamedTuple):
    """Triplets as arrays, one entry per triplet: the human's and the
    object's detection index (-1 for no target), the action's registry
    index, the score factors (s_o and compat 0 without a target) and the
    target's density mean (zeros without a target)."""

    human: np.ndarray
    action: np.ndarray
    object: np.ndarray
    s_h: np.ndarray
    s_o: np.ndarray
    action_score: np.ndarray
    compat: np.ndarray
    score: np.ndarray
    mean: np.ndarray


def _score_rows(boxes, scores, person, scene, heads, params,
                cfg: HeadConfig, registry: ActionRegistry, stats: InferStats,
                baseline_centers) -> _Rows:
    """Triplet rows of detections with ascending ``scene`` indices: every
    human's actions in detection order, each action in registry order,
    a targeted one only where the human's scene holds another detection.
    ``heads`` are the detections' :func:`_heads` outputs.

    A fixed-width density (the head's first mean, or the k-means centers)
    scores a candidate by its max Gaussian compat over the means, and a
    row's mean is the one attaining it; a mixture sums its components,
    and a row's mean is the heaviest one's."""
    act, mus, weights, sigmas, hidden, logit_h, logit_o, hidden_o = heads
    humans = np.flatnonzero(person)
    num_humans, num_actions = len(humans), cfg.num_actions
    # row k of a (humans, most candidates) grid holds human k's candidates:
    # the other detections of its scene, in order, then padding
    first = np.searchsorted(scene, scene[humans])
    counts = np.searchsorted(scene, scene[humans], side="right") - first - 1
    width = int(counts.max(initial=0))
    valid = np.arange(width) < counts[:, None]
    cand = first[:, None] + np.arange(width)
    cand = np.where(valid, cand + (cand >= humans[:, None]), humans[:, None])
    targeted = np.array([e.role != ROLE_NONE for e in registry], dtype=bool)
    if width:
        rels = np.zeros((num_humans, width, 4))
        rels[valid] = encode_rels(boxes[cand[valid]],
                                  boxes[np.repeat(humans, counts)])
        if baseline_centers is None and cfg.use_mdn:
            means = mus[humans][:, None]  # (humans, 1, actions, M, 4)
            rank = weights[humans][:, None]
            compat = mixture_compat(rels[:, :, None], rank, means,
                                    sigmas[humans][:, None])
        else:
            means = (mus[humans][:, None, :, :1] if baseline_centers is None
                     else _center_table(baseline_centers, num_actions))
            rank = gaussian_compat(rels[:, :, None, None], means, cfg.sigma)
            compat = rank.max(axis=-1)
        if not cfg.use_interaction_branch:
            inter = act[humans][:, None]
        elif cfg.pairwise_mode == "logit_sum":
            inter = pair_scores(logit_h[humans][:, None], logit_o[cand], None,
                                None, params, cfg)
        else:  # one pair-MLP call per human over exactly its candidates
            inter = np.zeros((num_humans, width, num_actions))
            for k, (i, n) in enumerate(zip(humans.tolist(), counts.tolist())):
                if n:
                    inter[k, :n] = pair_scores(
                        logit_h[i], logit_o[cand[k, :n]], hidden[i],
                        hidden_o[cand[k, :n]], params, cfg)
        if cfg.use_interaction_branch:
            stats.num_pairs_scored += int(counts.sum())
        best = select_object(scores[cand][..., None], inter, compat, counts)

    # every (human, action) row, targeted ones where there is a candidate
    has = (counts > 0)[:, None] & targeted
    k, a = np.nonzero(has | ~targeted)
    human = humans[k]
    s_h = scores[human]
    action_score = act[human, a]
    obj = np.full(len(k), -1)
    s_o, compat_at = np.zeros(len(k)), np.zeros(len(k))
    score = s_h * action_score
    mean = np.zeros((len(k), 4))
    t = np.flatnonzero(has[k, a])
    if len(t):
        at = k[t], best[k[t], a[t]], a[t]  # (human, candidate, action)
        obj[t] = cand[at[:2]]
        s_o[t] = scores[obj[t]]
        if cfg.use_interaction_branch:
            action_score[t] = inter[at]
        compat_at[t] = compat[at]
        score[t] = s_h[t] * s_o[t] * action_score[t] * compat_at[t]
        shape = (num_humans, width, num_actions, means.shape[-2])
        at += (np.broadcast_to(rank, shape)[at].argmax(axis=-1),)
        mean[t] = np.broadcast_to(means, shape + (4,))[at]
    return _Rows(human, a, obj, s_h, s_o, action_score, compat_at, score,
                 mean)


def _triplets(rows: _Rows, keep, image_ids, dets, registry) -> list:
    """The ``keep`` rows as ``ScoredTriplet``s: ``image_ids`` and ``dets``
    are indexed by detection."""
    entries = list(registry)
    return [
        ScoredTriplet(image_ids[h], dets[h], entries[a].name, entries[a].role,
                      None, s_h, None, ia, None, score) if o < 0 else
        ScoredTriplet(image_ids[h], dets[h], entries[a].name, entries[a].role,
                      dets[o], s_h, s_o, ia, g, score, mean)
        for h, a, o, s_h, s_o, ia, g, score, mean in zip(
            *(col[keep].tolist() for col in rows))]


def score_detections(scene_id: int, detections, provider, params,
                     cfg: HeadConfig, registry: ActionRegistry,
                     stats: InferStats | None = None,
                     baseline_centers=None) -> list:
    """Post-detection cascade for the given detections of one scene:
    their triplets, unsorted, each human's in detection order, then in
    registry order."""
    if stats is None:
        stats = InferStats()
    stats.num_detections += len(detections)
    if not detections:
        return []
    boxes = box_array([d.box for d in detections])
    heads = _heads(provider.pooled_matrix(scene_id, boxes), params, cfg)
    stats.per_roi_forwards += len(detections)
    rows = _score_rows(
        boxes, np.array([d.score for d in detections]),
        np.array([d.category == PERSON_CATEGORY for d in detections]),
        np.zeros(len(detections), np.int64), heads, params, cfg, registry,
        stats, baseline_centers)
    return _triplets(rows, np.arange(len(rows.score)),
                     [scene_id] * len(detections), detections, registry)


def _det_json(d: Detection | None):
    if d is None:
        return None
    return {"box": list(d.box.as_tuple()), "category": d.category,
            "score": d.score}


def _finite(value, where: str) -> float:
    """A JSON number as a float; a non-number (a boolean too), NaN or an
    infinity raises ValueError naming ``where``."""
    if type(value) is float and -_INF < value < _INF:
        return value
    if type(value) is float:
        raise ValueError(f"{where}: expected a finite number, got "
                         f"{json.dumps(value)}")
    return float(_typed(value, float, where))


def _det_from_json(obj, where: str, seen: dict) -> Detection:
    box = _typed(obj, dict, where)["box"]
    if (type(box) is not list or len(box) != 4
            or not _NUMBERS.issuperset(map(type, box))):
        raise ValueError(f"{where}.box: expected a list of 4 numbers, got "
                         f"{json.dumps(box)}")
    # the box is checked before the category, so that a detection with
    # both faults is named by its box; one comparison chain passes the
    # boxes of positive extent within COORD_LIMIT (as the proposals and
    # annotations readers keep them); the corners become floats (an
    # integer too large for one is an OverflowError)
    x1, y1, x2, y2 = box
    if not (-COORD_LIMIT <= x1 < x2 <= COORD_LIMIT
            and -COORD_LIMIT <= y1 < y2 <= COORD_LIMIT):
        if any(type(v) is float and not -_INF < v < _INF for v in box):
            raise ValueError(f"{where}.box: expected finite numbers, got "
                             f"{json.dumps(box)}")
        Box(*box)  # raises the degenerate-box error
        if max(map(abs, map(float, box))) > COORD_LIMIT:
            raise ValueError(f"{where}.box: |corner| > {COORD_LIMIT:g}, "
                             f"got {json.dumps(box)}")
    box = list(map(float, box))
    category = _typed(obj["category"], str, where + ".category")
    score = _finite(obj["score"], where + ".score")
    key = (category, score, *box)
    det = seen.get(key)
    if det is None:
        det = seen[key] = Detection(Box(*box), category, score)
    return det


def triplet_from_json(obj, seen: dict) -> ScoredTriplet:
    """The triplet of one predictions line; a field of the wrong JSON
    type (a boolean is not a number) or a number that is not finite
    raises ValueError naming it. Equal detections are built once:
    ``seen`` holds them by value."""
    _typed(obj, dict, "top level")
    # positional: keywords cost about a tenth of the check
    return ScoredTriplet(
        _typed(obj["image_id"], int, "image_id"),
        _det_from_json(obj["human"], "human", seen),
        _typed(obj["action"], str, "action"),
        _typed(obj["role"], str, "role"),
        (None if obj["object"] is None
         else _det_from_json(obj["object"], "object", seen)),
        _finite(obj["s_h"], "s_h"),
        None if obj["s_o"] is None else _finite(obj["s_o"], "s_o"),
        _finite(obj["action_score"], "action_score"),
        None if obj["compat"] is None else _finite(obj["compat"], "compat"),
        _finite(obj["score"], "score"))


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
    except (ValueError, RecursionError):
        pass
    return json.loads(line)


def read_predictions(path) -> list[ScoredTriplet]:
    """Triplets of a predictions file, one JSON object per line; blank
    lines are skipped. A line that is not UTF-8 or not JSON, lacks a key
    or holds a value of the wrong type raises ValueError naming the line
    (1-based). Each line ends at ``\n`` (JSON Lines); ``\r\n`` endings
    are stripped with the other surrounding whitespace."""
    out, seen = [], {}
    with open(path, "rb") as f:
        for number, raw in enumerate(f, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                out.append(triplet_from_json(_parse_line(line), seen))
            except KeyError as exc:
                raise ValueError(
                    f"predictions line {number}: missing key {exc}") from exc
            except (TypeError, ValueError, OverflowError,
                    RecursionError) as exc:
                raise ValueError(f"predictions line {number}: {exc}") from exc
    return out
