"""The array-native inference path against box-at-a-time references.

Batched RoI pooling and the vectorised cascade must reproduce, bit for
bit, a one-box RoIAlign and the pair-by-pair cascade (scalar
``encode_rel`` and compat per candidate, one interaction matmul per
human), both kept here as references. One ``infer`` call over many
scenes must reproduce a call per scene, whatever its pooling blocks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoidet import inference
from hoidet.dataset import (
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    SynthConfig,
    generate_synthetic,
    synthetic_registry,
)
from hoidet.density import gaussian_compat, mixture_compat
from hoidet.features import FeatureMap, SyntheticFeatureProvider, roi_align
from hoidet.geometry import Box, Detection, box_array, encode_rel, iou, nms
from hoidet.inference import (
    InferenceConfig,
    InferStats,
    ScoredTriplet,
    detect_objects,
    infer,
    score_detections,
)
from hoidet.model import (
    HeadConfig,
    forward_human,
    forward_object,
    init_params,
    interaction_human_logits,
    interaction_object_logits,
    pair_scores,
)
from hoidet.trainer import from_synthetic

REGISTRY = synthetic_registry()
CATEGORIES = [PERSON_CATEGORY] + SYNTH_CATEGORIES
TARGETED = [a for a, e in enumerate(REGISTRY) if e.role != ROLE_NONE]


# --- RoI pooling -------------------------------------------------------------


def _reference_roi_align(fmap: FeatureMap, box: Box, pooled: int):
    """One box at a time: Python-float box arithmetic, then one bilinear
    sample per bin center, border cells replicated."""
    fx1, fy1 = box.x1 / fmap.stride, box.y1 / fmap.stride
    fx2, fy2 = box.x2 / fmap.stride, box.y2 / fmap.stride
    size = fmap.channels * pooled * pooled
    if fx2 <= 0 or fy2 <= 0 or fx1 >= fmap.width or fy1 >= fmap.height:
        return np.zeros(size), True
    fx1, fy1 = max(fx1, 0.0), max(fy1, 0.0)
    fx2, fy2 = min(fx2, float(fmap.width)), min(fy2, float(fmap.height))
    centers_x = fx1 + (np.arange(pooled) + 0.5) * ((fx2 - fx1) / pooled)
    centers_y = fy1 + (np.arange(pooled) + 0.5) * ((fy2 - fy1) / pooled)
    gx, gy = np.meshgrid(centers_x, centers_y)
    u, v = gx.ravel() - 0.5, gy.ravel() - 0.5
    x0, y0 = np.floor(u).astype(int), np.floor(v).astype(int)
    fx, fy = u - x0, v - y0
    x0c, x1c = np.clip(x0, 0, fmap.width - 1), np.clip(x0 + 1, 0, fmap.width - 1)
    y0c, y1c = np.clip(y0, 0, fmap.height - 1), np.clip(y0 + 1, 0, fmap.height - 1)
    d = fmap.data
    top = d[:, y0c, x0c] * (1 - fx) + d[:, y0c, x1c] * fx
    bot = d[:, y1c, x0c] * (1 - fx) + d[:, y1c, x1c] * fx
    return (top * (1 - fy) + bot * fy).ravel(), False


# 3 channels on a 10 x 8 grid at stride 2: the image spans 20 x 16
FMAP = FeatureMap(np.random.default_rng(0).normal(size=(3, 8, 10)), stride=2.0)

# maps of other sizes and strides, pooled by one provider with a scene id
# per box: the image of map 2 spans 12 x 27, of map 3 48 x 24
MAPS = {2: FeatureMap(np.random.default_rng(2).normal(size=(3, 9, 4)),
                      stride=3.0),
        3: FeatureMap(np.random.default_rng(3).normal(size=(3, 3, 6)),
                      stride=8.0),
        7: FeatureMap(FMAP.data.copy(), stride=FMAP.stride)}

# inside, partly clipped, fully outside and sub-cell boxes all occur
BOXES = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                  st.floats(-15.0, 35.0), st.floats(-12.0, 28.0),
                  st.floats(0.01, 30.0), st.floats(0.01, 30.0))


@settings(max_examples=300, deadline=None)
@given(boxes=st.lists(BOXES, min_size=1, max_size=10), data=st.data())
def test_batched_pooling_matches_one_box_roi_align(boxes, data):
    repeats = data.draw(st.lists(st.integers(0, len(boxes) - 1), max_size=4))
    boxes = boxes + [boxes[i] for i in repeats]
    warm = data.draw(st.integers(0, len(boxes)))
    pooled = data.draw(st.integers(1, 4))
    want = [_reference_roi_align(FMAP, b, pooled) for b in boxes]
    rows = np.stack([w[0] for w in want])

    prov = SyntheticFeatureProvider({0: FMAP}, pooled=pooled)
    prov.pooled_matrix(0, boxes[:warm])  # an earlier call changes nothing
    np.testing.assert_array_equal(prov.pooled_matrix(0, boxes), rows)
    fresh = SyntheticFeatureProvider({0: FMAP}, pooled=pooled)
    np.testing.assert_array_equal(fresh.pooled_matrix(0, box_array(boxes)),
                                  rows)
    for b, (row, outside) in zip(boxes, want):
        got = roi_align(FMAP, b, pooled)
        np.testing.assert_array_equal(got.values, row)
        assert got.out_of_bounds == outside
    ids = data.draw(st.lists(st.sampled_from(sorted(MAPS)),
                             min_size=len(boxes), max_size=len(boxes)))
    multi = SyntheticFeatureProvider(MAPS, pooled=pooled)
    np.testing.assert_array_equal(
        multi.pooled_matrix(np.array(ids), boxes),
        np.stack([_reference_roi_align(MAPS[i], b, pooled)[0]
                  for i, b in zip(ids, boxes)]))


def test_pooling_covers_each_kind_of_box():
    boxes = [Box(2.0, 3.0, 11.0, 9.0),    # inside
             Box(-5.0, -4.0, 6.0, 30.0),  # clipped on three sides
             Box(21.0, 2.0, 30.0, 9.0),   # right of the map
             Box(-9.0, -9.0, -1.0, -1.0),  # above and left of it
             Box(7.1, 7.2, 7.3, 7.25)]    # inside one cell
    prov = SyntheticFeatureProvider({0: FMAP}, pooled=3)
    got = prov.pooled_matrix(0, boxes + boxes[:2])
    for row, b in zip(got, boxes + boxes[:2]):
        np.testing.assert_array_equal(row, _reference_roi_align(FMAP, b, 3)[0])
    assert not got[2].any() and not got[3].any()
    assert got[4].any()


# --- cascade -----------------------------------------------------------------


def _reference_nms(dets, thresh):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    suppressed = [False] * len(dets)
    keep = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(dets[i])
        for j in order[pos + 1:]:
            if dets[j].category == dets[i].category and \
                    iou(dets[i].box, dets[j].box) > thresh:
                suppressed[j] = True
    return keep


# integer corners give exact duplicates, and IoUs such as 1/2 and 1/3 that
# land exactly on a threshold
NMS_BOXES = st.one_of(
    st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
              st.integers(0, 4).map(float), st.integers(0, 4).map(float),
              st.integers(1, 4).map(float), st.integers(1, 4).map(float)),
    BOXES)


def _check_nms(dets, thresh):
    keep = nms(box_array([d.box for d in dets]),
               np.array([d.score for d in dets]),
               np.array([int(d.category) for d in dets], dtype=int), thresh)
    want = _reference_nms(dets, thresh)
    position = {id(d): i for i, d in enumerate(dets)}
    assert keep.tolist() == [position[id(d)] for d in want]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), num_labels=st.integers(1, 6),
       thresh=st.sampled_from([0.25, 1 / 3, 0.5]) | st.floats(
           0.0, 1.0, exclude_min=True, exclude_max=True))
def test_array_nms_matches_per_label_greedy(data, num_labels, thresh):
    pool = data.draw(st.lists(NMS_BOXES, min_size=1, max_size=8))
    scores = st.sampled_from([0.2, 0.5, 0.5, 0.9]) | st.floats(0.0, 1.0)
    dets = data.draw(st.lists(st.builds(
        Detection, st.sampled_from(pool),
        st.integers(0, num_labels - 1).map(str), scores), max_size=24))
    _check_nms(dets, thresh)


def test_array_nms_on_empty_one_box_and_threshold_overlap():
    _check_nms([], 0.3)
    _check_nms([Detection(Box(1.0, 2.0, 5.0, 9.0), "0", 0.7)], 0.3)
    half = [Detection(Box(0.0, 0.0, 2.0, 2.0), "0", 0.9),
            Detection(Box(0.0, 0.0, 2.0, 1.0), "0", 0.8)]
    _check_nms(half, 0.5)  # IoU exactly 0.5 is not above 0.5: both kept
    _check_nms(half, 0.49)
    assert nms(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=int),
               0.5).shape == (0,)


def _dense_nms(boxes, scores, labels, thresh):
    """Greedy suppression over one dense (N, N) overlap table of every
    candidate pair, masked to same-label pairs."""
    n = len(boxes)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    over = [[labels[i] == labels[j]
             and iou(Box(*boxes[i]), Box(*boxes[j])) > thresh
             for j in order] for i in order]
    alive = [True] * n
    for p in range(n):
        if alive[p]:
            for q in range(p + 1, n):
                alive[q] = alive[q] and not over[p][q]
    return [i for p, i in enumerate(order) if alive[p]]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), num_labels=st.sampled_from([1, 2, 7, 60]),
       thresh=st.sampled_from([0.0, 1.0, 0.5, 1 / 3]) | st.floats(0.0, 1.0))
def test_grouped_nms_matches_dense_greedy(data, num_labels, thresh):
    """Many labels (as one call over many scenes' classes gives), tied
    scores, duplicate boxes, thresholds 0 and 1, and no input at all."""
    pool = data.draw(st.lists(NMS_BOXES, min_size=1, max_size=6))
    n = data.draw(st.integers(0, 40))
    boxes = [data.draw(st.sampled_from(pool)).as_tuple() for _ in range(n)]
    scores = data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]) | st.floats(
        0.0, 1.0), min_size=n, max_size=n))
    labels = data.draw(st.lists(st.integers(0, num_labels - 1).map(
        lambda c: 1000 * c - 7), min_size=n, max_size=n))
    keep = nms(np.array(boxes).reshape(-1, 4), np.array(scores),
               np.array(labels, dtype=np.int64), thresh)
    assert keep.tolist() == _dense_nms(boxes, scores, labels, thresh)


def _reference_detect(probs, deltas, proposals, categories, thresh=0.05,
                      nms_thresh=0.3):
    dets = []
    for i, p in enumerate(proposals):
        for c, name in enumerate(categories, start=1):
            s = float(probs[i, c])
            if s > thresh:
                t = [float(v) for v in deltas[i, c]]
                cx, cy = p.cx + t[0] * p.w, p.cy + t[1] * p.h
                w, h = p.w * math.exp(t[2]), p.h * math.exp(t[3])
                box = Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0,
                          cy + h / 2.0)
                dets.append(Detection(box, name, s))
    return _reference_nms(dets, nms_thresh)


def _reference_score(scene_id, dets, provider, params, cfg, centers=None):
    """Pair by pair: scalar encode_rel and compat for every candidate,
    one interaction matmul per human, first maximum kept."""
    feats = provider.pooled_matrix(scene_id, [d.box for d in dets])
    hum = forward_human(feats, params, cfg)
    if cfg.use_interaction_branch:
        logit_h = interaction_human_logits(hum.hidden, params, cfg)
        logit_o, hidden_o = interaction_object_logits(feats, params, cfg)
    out = []
    for h, hd in enumerate(dets):
        if hd.category != PERSON_CATEGORY:
            continue
        cand = [j for j in range(len(dets)) if j != h]
        if cand and cfg.use_interaction_branch:
            n = len(cand)
            inter_all = pair_scores(
                np.tile(logit_h[h], (n, 1)), logit_o[cand],
                np.tile(hum.hidden[h], (n, 1)), hidden_o[cand], params, cfg)
        for a, entry in enumerate(REGISTRY):
            act = float(hum.action_scores[h, a])
            if entry.role == ROLE_NONE:
                out.append(ScoredTriplet(scene_id, hd, entry.name, entry.role,
                                         None, hd.score, None, act, None,
                                         hd.score * act))
                continue
            best = None
            for k, j in enumerate(cand):
                rel = np.array(encode_rel(dets[j].box, hd.box).as_tuple())
                if centers is not None:
                    g = max(gaussian_compat(rel, c, cfg.sigma)
                            for c in centers[a])
                elif cfg.use_mdn:
                    g = mixture_compat(rel, hum.weights[h, a], hum.mus[h, a],
                                       hum.sigmas[h, a])
                else:
                    g = gaussian_compat(rel, hum.mus[h, a, 0], cfg.sigma)
                i = (float(inter_all[k, a]) if cfg.use_interaction_branch
                     else act)
                s = dets[j].score * i * g
                if best is None or s > best[0]:
                    best = (s, j, i, g)
            if best is not None:
                _, j, i, g = best
                so = dets[j].score
                out.append(ScoredTriplet(scene_id, hd, entry.name, entry.role,
                                         dets[j], hd.score, so, i, g,
                                         hd.score * so * i * g))
    return out


@pytest.fixture(scope="module")
def crowd():
    return from_synthetic(generate_synthetic(SynthConfig(
        num_scenes=3, persons_per_scene=3, num_distractors=3, seed=21)))


VARIANTS = {
    "fixed_sigma": {},
    "mdn_m2": dict(use_mdn=True, density_M=2),
    "concat_mlp": dict(pairwise_mode="concat_mlp"),
    "no_interaction_branch": dict(use_interaction_branch=False),
    "kmeans_baseline": {},
}


def _cfg(provider, **kw):
    return HeadConfig(feature_dim=provider.feature_dim,
                      num_actions=len(REGISTRY),
                      num_object_classes=len(CATEGORIES), hidden_dim=24, **kw)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_cascade_matches_pair_by_pair_reference(crowd, variant):
    scenes, provider = crowd
    cfg = _cfg(provider, **VARIANTS[variant])
    rng = np.random.default_rng(5)
    centers = ({a: rng.normal(scale=0.5, size=(int(rng.integers(1, 4)), 4))
                for a in TARGETED} if variant == "kmeans_baseline" else None)
    groups = 0
    for ts in scenes:
        params = init_params(cfg, ts.scene_id + 3)
        obj = forward_object(provider.pooled_matrix(ts.scene_id, ts.proposals),
                             params, cfg)
        dets = detect_objects(obj.probs, obj.deltas, ts.proposals, CATEGORIES)
        assert dets == _reference_detect(obj.probs, obj.deltas, ts.proposals,
                                         CATEGORIES)
        assert sum(d.category == PERSON_CATEGORY for d in dets) >= 2
        stats = InferStats()
        got = score_detections(ts.scene_id, dets, provider, params, cfg,
                               REGISTRY, stats, centers)
        want = _reference_score(ts.scene_id, dets, provider, params, cfg,
                                centers)
        assert got == want  # every field, floats compared with ==
        assert stats.per_roi_forwards == len(dets)
        groups += len(got)
    assert groups > 100


def _three(cats, boxes, scores):
    return [Detection(b, c, s) for c, b, s in zip(cats, boxes, scores)]


def test_tie_goes_to_the_lowest_candidate_index(crowd):
    scenes, provider = crowd
    sid = scenes[0].scene_id
    cfg = _cfg(provider)
    params = init_params(cfg, 9)
    person, other = Box(20.0, 20.0, 40.0, 60.0), Box(50.0, 30.0, 70.0, 50.0)
    # candidates 1 and 2 are the same box with the same score: every
    # factor of their pair scores ties
    dets = _three([PERSON_CATEGORY, SYNTH_CATEGORIES[0], SYNTH_CATEGORIES[1]],
                  [person, other, other], [0.9, 0.7, 0.7])
    got = score_detections(sid, dets, provider, params, cfg, REGISTRY)
    targeted = [t for t in got if t.object is not None]
    assert len(targeted) == len(TARGETED)
    assert all(t.object is dets[1] for t in targeted)
    assert got == _reference_score(sid, dets, provider, params, cfg)


@pytest.mark.parametrize("second", [PERSON_CATEGORY, SYNTH_CATEGORIES[0]])
def test_tie_between_a_person_and_an_object_goes_to_the_lower_index(
        crowd, second):
    scenes, provider = crowd
    sid = scenes[0].scene_id
    cfg = _cfg(provider)
    params = init_params(cfg, 9)
    person, other = Box(20.0, 20.0, 40.0, 60.0), Box(50.0, 30.0, 70.0, 50.0)
    # a second person and an object on one box with one score, in either
    # order: every factor of the first person's two pair scores ties
    third = ({PERSON_CATEGORY, SYNTH_CATEGORIES[0]} - {second}).pop()
    dets = _three([PERSON_CATEGORY, second, third], [person, other, other],
                  [0.9, 0.7, 0.7])
    got = score_detections(sid, dets, provider, params, cfg, REGISTRY)
    first = [t for t in got if t.human is dets[0] and t.object is not None]
    assert len(first) == len(TARGETED)
    assert all(t.object is dets[1] for t in first)
    assert got == _reference_score(sid, dets, provider, params, cfg)


def test_lone_human_and_scene_without_person(crowd):
    scenes, provider = crowd
    sid = scenes[0].scene_id
    cfg = _cfg(provider, use_mdn=True, density_M=2)
    params = init_params(cfg, 4)
    lone = [Detection(Box(20.0, 20.0, 40.0, 60.0), PERSON_CATEGORY, 0.8)]
    stats = InferStats()
    got = score_detections(sid, lone, provider, params, cfg, REGISTRY, stats)
    assert [t.object for t in got] == [None] * (len(REGISTRY) - len(TARGETED))
    assert got == _reference_score(sid, lone, provider, params, cfg)
    assert stats.num_pairs_scored == 0

    objects = [Detection(Box(5.0, 5.0, 15.0, 15.0), c, 0.6)
               for c in SYNTH_CATEGORIES[:2]]
    assert score_detections(sid, objects, provider, params, cfg,
                            REGISTRY) == []


# --- one infer call over many scenes -----------------------------------------


def _scene_list(crowd):
    """A provider and (scene id, proposals) scenes that cover every kind
    of scene a command can hold, interleaved with crowded ones, plus the
    object-head parameters and inference config that give those kinds.

    The object head's weights are scaled up and the person class raised,
    so that single proposals of the crowd scenes give no detection, one
    person or one object alone; each kind becomes a scene of its own on a
    copy of its source scene's map."""
    scenes, provider = crowd
    cfg = _cfg(provider)
    obj = init_params(cfg, 3)
    obj = {k: v for k, v in obj.items() if k.startswith("obj_")}
    obj["obj_cls_w"] = obj["obj_cls_w"] * 1e3
    obj["obj_cls_b"] = obj["obj_cls_b"].copy()
    obj["obj_cls_b"][1] = 0.7
    icfg = InferenceConfig(score_threshold=0.2, max_triplets=30)
    single = {}
    for ts in scenes:
        for row in box_array(ts.proposals):
            props = row[None]
            out = forward_object(provider.pooled_matrix(ts.scene_id, props),
                                 obj, cfg)
            cats = [d.category for d in detect_objects(
                out.probs, out.deltas, props, CATEGORIES,
                icfg.score_threshold, icfg.nms_threshold)]
            kind = ("none" if not cats else "lone human"
                    if cats == [PERSON_CATEGORY] else "no person"
                    if PERSON_CATEGORY not in cats else None)
            single.setdefault(kind, (ts.scene_id, props))
    maps = {ts.scene_id: provider.maps[ts.scene_id] for ts in scenes}
    full = [(ts.scene_id, box_array(ts.proposals)) for ts in scenes]
    made = {}
    for new_id, kind in enumerate(("empty", "none", "lone human",
                                   "no person"), start=100):
        source, props = single.get(kind, (scenes[0].scene_id,
                                          np.zeros((0, 4))))
        assert kind == "empty" or len(props), kind
        maps[new_id] = FeatureMap(maps[source].data.copy(),
                                  maps[source].stride)
        made[kind] = (new_id, props)
    order = [full[0], made["empty"], made["none"], full[1],
             made["lone human"], made["no person"], full[2]]
    return SyntheticFeatureProvider(maps), order, obj, icfg


# the cascade variants, plus k-means centers in place of other heads'
# densities
ONE_CALL_VARIANTS = {**VARIANTS,
                     "share_interaction": dict(share_interaction_head=True),
                     "kmeans_mdn": VARIANTS["mdn_m2"],
                     "kmeans_concat_mlp": VARIANTS["concat_mlp"]}


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("variant", sorted(ONE_CALL_VARIANTS))
def test_one_call_over_many_scenes_equals_a_call_per_scene(
        crowd, variant, block, monkeypatch):
    provider, order, obj, icfg = _scene_list(crowd)
    kw = ONE_CALL_VARIANTS[variant]
    cfg = _cfg(provider, **kw)
    params = {**init_params(cfg, 7), **obj}
    rng = np.random.default_rng(5)
    # k-means centers replace the density of any head
    centers = ({a: rng.normal(scale=0.5, size=(int(rng.integers(1, 4)), 4))
                for a in TARGETED} if variant.startswith("kmeans") else None)

    want, totals, per_scene = [], InferStats(), []
    for sid, props in order:
        trips, stats = infer(sid, props, provider, params, cfg, REGISTRY,
                             CATEGORIES, icfg, centers)
        want.extend(trips)
        totals.add(stats)
        per_scene.append((sid, stats, trips))
    # the scene kinds the list is meant to hold
    kinds = [(s.num_proposals, s.num_detections, len(t))
             for _, s, t in per_scene]
    assert kinds[1] == (0, 0, 0)  # no proposals
    assert kinds[2][0] > 0 and kinds[2][1:] == (0, 0)  # no detections
    assert kinds[4][1] == 1 and all(t.object is None
                                    for t in per_scene[4][2])  # lone human
    assert kinds[4][2] > 0
    assert kinds[5][1] > 0 and kinds[5][2] == 0  # no person
    assert sum(t.object is not None for t in want) > 20

    if block is not None:
        monkeypatch.setattr(inference, "_INFER_BLOCK", block)
    limit = inference._INFER_BLOCK
    whole = {}  # rows a one-scene gather may hold: its proposals, detections
    for sid, stats, _ in per_scene:
        whole[sid] = {stats.num_proposals, stats.num_detections}
    calls = []
    pool = SyntheticFeatureProvider.pooled_matrix

    def recorded(self, scene_id, boxes):
        ids = np.broadcast_to(scene_id, (len(boxes),))
        calls.append(ids.copy())
        return pool(self, scene_id, boxes)

    monkeypatch.setattr(SyntheticFeatureProvider, "pooled_matrix", recorded)
    ids = np.repeat([sid for sid, _ in order], [len(p) for _, p in order])
    got, stats = infer(ids, np.concatenate([p for _, p in order]), provider,
                       params, cfg, REGISTRY, CATEGORIES, icfg, centers)
    assert got == want  # every field, floats compared with ==
    assert stats == totals
    for rows in calls:
        # a gather over its limit holds one whole scene's boxes
        assert len(rows) <= limit or (
            len(set(rows.tolist())) == 1
            and len(rows) in whole[int(rows[0])]), (len(rows), limit)
    if block is None:
        assert len(calls) == 2  # one gather of proposals, one of detections
    else:
        assert len(calls) > 2
