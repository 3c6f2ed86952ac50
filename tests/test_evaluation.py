import json

import numpy as np
import pytest

from hoidet.dataset import (
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    Dataset,
    SynthConfig,
    generate_synthetic,
    load_annotations,
    save_annotations,
    synthetic_registry,
)
from hoidet.evaluation import (
    APReport,
    EntryResult,
    MatchRule,
    _GtRecord,
    agent_candidates,
    average_precision,
    evaluate_triplets,
    match_triplets,
    report_json,
    report_text,
)
from hoidet.geometry import Box, Detection, iou, nms
from hoidet.inference import ScoredTriplet, read_predictions, write_predictions

REGISTRY = synthetic_registry()


def _triplet(image_id, h_box, o_box, action, role, score, category="knife",
             s_h=None, act=None):
    s_h = score if s_h is None else s_h
    act = 1.0 if act is None else act
    return ScoredTriplet(
        image_id=image_id,
        human=Detection(h_box, PERSON_CATEGORY, s_h),
        action=action, role=role,
        object=None if o_box is None else Detection(o_box, category, 1.0),
        s_h=s_h, s_o=None if o_box is None else 1.0,
        action_score=act, compat=None if o_box is None else 1.0,
        score=score)


def _gt_echo_triplets(ds: Dataset):
    out = []
    for scene in ds.scenes:
        for rec in scene.interactions:
            person = Box(*scene.persons[rec.person].tolist())
            if rec.role == ROLE_NONE:
                out.append(_triplet(scene.image_id, person, None,
                                    rec.action, rec.role, 1.0))
            else:
                out.append(_triplet(scene.image_id, person,
                                    Box(*scene.objects[rec.object].tolist()),
                                    rec.action, rec.role, 1.0,
                                    category=scene.categories[rec.object]))
    return out


@pytest.fixture(scope="module")
def synth_dataset():
    scenes = generate_synthetic(SynthConfig(num_scenes=8, seed=31))
    return Dataset(registry=REGISTRY,
                   categories=[PERSON_CATEGORY] + SYNTH_CATEGORIES,
                   scenes=[s.annotation for s in scenes])


H_GT = Box(0.0, 0.0, 10.0, 10.0)
O_GT = Box(20.0, 0.0, 30.0, 10.0)
# IoU with H_GT exactly 0.6: 10x7.5 intersection over 200-75 union
H_06 = Box(0.0, 2.5, 10.0, 12.5)
# IoU with O_GT exactly 0.4: shift by 30/7
O_04 = Box(20.0, 30.0 / 7.0, 30.0, 10.0 + 30.0 / 7.0)


class TestMatchRule:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            MatchRule(iou_thresh=0.0)
        with pytest.raises(ValueError):
            MatchRule(iou_thresh=1.5)
        assert MatchRule(iou_thresh=1.0).iou_thresh == 1.0

    def test_defaults(self):
        r = MatchRule()
        assert r.iou_thresh == 0.5 and not r.require_object_category


class TestMatchTriplets:
    def _gts(self):
        return {0: [_GtRecord(H_GT, O_GT, "knife")]}

    def test_exact_match_is_tp(self):
        preds = [_triplet(0, H_GT, O_GT, "cut", "instrument", 0.9)]
        assert match_triplets(preds, self._gts()) == [True]

    def test_single_consumption(self):
        preds = [_triplet(0, H_GT, O_GT, "cut", "instrument", 0.9),
                 _triplet(0, H_GT, O_GT, "cut", "instrument", 0.6)]
        assert match_triplets(preds, self._gts()) == [True, False]

    def test_object_overlap_rule_trace(self):
        # human IoU 0.6 passes, object IoU 0.4 fails: FP for the role
        # metric but TP for the agent metric
        assert abs(iou(H_06, H_GT) - 0.6) < 1e-12
        assert abs(iou(O_04, O_GT) - 0.4) < 1e-12
        preds = [_triplet(0, H_06, O_04, "cut", "instrument", 0.9)]
        assert match_triplets(preds, self._gts()) == [False]
        assert match_triplets(preds, self._gts(), agent=True) == [True]

    def test_category_flag(self):
        preds = [_triplet(0, H_GT, O_GT, "cut", "instrument", 0.9,
                          category="apple")]
        assert match_triplets(preds, self._gts()) == [True]
        strict = MatchRule(require_object_category=True)
        assert match_triplets(preds, self._gts(), strict) == [False]
        match = [_triplet(0, H_GT, O_GT, "cut", "instrument", 0.9,
                          category="knife")]
        assert match_triplets(match, self._gts(), strict) == [True]

    def test_wrong_image_is_fp(self):
        preds = [_triplet(7, H_GT, O_GT, "cut", "instrument", 0.9)]
        assert match_triplets(preds, self._gts()) == [False]

    def test_missing_object_prediction_is_fp_for_role(self):
        preds = [_triplet(0, H_GT, None, "cut", "instrument", 0.9)]
        assert match_triplets(preds, self._gts()) == [False]

    def test_consumes_highest_human_iou(self):
        near = _GtRecord(H_GT, O_GT, "knife")
        far = _GtRecord(H_06, O_GT, "knife")
        gts = {0: [far, near]}
        preds = [_triplet(0, H_GT, O_GT, "cut", "instrument", 0.9)]
        assert match_triplets(preds, gts) == [True]
        assert near.consumed and not far.consumed


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision([True], 1) == 1.0

    def test_fp_then_tp(self):
        assert abs(average_precision([False, True], 1) - 0.5) < 1e-12

    def test_three_flag_curve(self):
        ap = average_precision([True, False, True], 2)
        assert abs(ap - 5.0 / 6.0) < 1e-9

    def test_eleven_point_variant(self):
        ap = average_precision([True, False, True], 2, eleven_point=True)
        assert abs(ap - 28.0 / 33.0) < 1e-9

    def test_zero_gt_undefined(self):
        assert average_precision([True], 0) is None
        with pytest.raises(ValueError):
            average_precision([], -1)

    def test_no_predictions(self):
        assert average_precision([], 3) == 0.0

    def _brute_ap(self, flags, gt):
        # numeric integration of the precision envelope on a fine grid
        flags = np.asarray(flags, dtype=bool)
        tp = np.cumsum(flags)
        fp = np.cumsum(~flags)
        rec = tp / gt
        prec = tp / (tp + fp)
        grid = np.linspace(0.0, 1.0, 200001)[1:]
        env = np.zeros_like(grid)
        for i, r in enumerate(grid):
            mask = rec >= r
            env[i] = prec[mask].max() if mask.any() else 0.0
        return env.mean()

    def test_matches_dense_integration(self):
        rng = np.random.default_rng(91)
        for _ in range(8):
            n = int(rng.integers(1, 12))
            gt = int(rng.integers(1, 8))
            flags = list(rng.uniform(size=n) < 0.5)
            if sum(flags) > gt:
                flags = [f and i < gt for i, f in enumerate(flags)]
            ap = average_precision(flags, gt)
            assert abs(ap - self._brute_ap(flags, gt)) < 1e-4

    def test_trailing_fp_never_helps(self):
        rng = np.random.default_rng(92)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            gt = int(rng.integers(2, 6))
            flags = list(rng.uniform(size=n) < 0.4)
            base = average_precision(flags, gt)
            assert average_precision(flags + [False], gt) <= base + 1e-12

    def test_added_tp_never_hurts(self):
        rng = np.random.default_rng(93)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            gt = int(rng.integers(3, 8))
            flags = list(rng.uniform(size=n) < 0.4)
            if sum(flags) >= gt:
                continue
            base = average_precision(flags, gt)
            k = int(rng.integers(0, n + 1))
            assert average_precision(
                flags[:k] + [True] + flags[k:], gt) >= base - 1e-12


def _rand_box(rng, lo=0.0, hi=60.0, smin=6.0, smax=25.0):
    x = rng.uniform(lo, hi)
    y = rng.uniform(lo, hi)
    w = rng.uniform(smin, smax)
    h = rng.uniform(smin, smax)
    return Box(x, y, x + w, y + h)


def _jitter(rng, b, m):
    d = rng.uniform(-m, m, 4)
    return Box(b.x1 + d[0] * b.w, b.y1 + d[1] * b.h,
               b.x2 + d[2] * b.w, b.y2 + d[3] * b.h)


def _max_matching(edges, n_pred, n_gt):
    best = 0

    def rec(i, used, count):
        nonlocal best
        best = max(best, count)
        if i == n_pred:
            return
        rec(i + 1, used, count)
        for j in range(n_gt):
            if j not in used and (i, j) in edges:
                rec(i + 1, used | {j}, count + 1)

    rec(0, frozenset(), 0)
    return best


class TestGreedyAgainstExhaustive:
    """Greedy score-order matching reproduces the assignment maximizing
    true positives at every score threshold, on small random instances."""

    def _instance(self, seed, detection_like):
        rng = np.random.default_rng(seed)
        n_gt = int(rng.integers(1, 6))
        n_pred = int(rng.integers(1, 6))
        gts = [(_rand_box(rng), _rand_box(rng)) for _ in range(n_gt)]
        preds = []
        for _ in range(n_pred):
            if detection_like and rng.uniform() < 0.7:
                h, o = gts[int(rng.integers(n_gt))]
                hb, ob = _jitter(rng, h, 0.25), _jitter(rng, o, 0.25)
            else:
                hb, ob = _rand_box(rng), _rand_box(rng)
            preds.append(_triplet(0, hb, ob, "cut", "instrument",
                                  float(rng.uniform(0.1, 1.0))))
        preds.sort(key=lambda t: -t.score)
        return preds, gts

    @pytest.mark.parametrize("detection_like", [False, True])
    def test_equal_tp_counts_at_every_threshold(self, detection_like):
        for seed in range(120):
            preds, gts = self._instance(seed, detection_like)
            recs = [_GtRecord(h, o, "knife") for h, o in gts]
            flags = match_triplets(preds, {0: recs})
            edges = {
                (i, j)
                for i, p in enumerate(preds)
                for j, (h, o) in enumerate(gts)
                if iou(p.human.box, h) >= 0.5 and iou(p.object.box, o) >= 0.5
            }
            for k in range(1, len(preds) + 1):
                ek = {(i, j) for i, j in edges if i < k}
                want = _max_matching(ek, k, len(gts))
                assert sum(flags[:k]) == want, (seed, k)


class TestRoleTpImpliesAgentTp:
    """With person boxes deduplicated the way the detector emits them
    (pairwise IoU <= 0.3), no two predictions can claim the same person
    record, so a role TP always stays a TP under the human-only rule."""

    def test_on_nms_consistent_instances(self):
        for seed in range(80):
            rng = np.random.default_rng((77, seed))
            n_gt = int(rng.integers(1, 5))
            gts = [(_rand_box(rng), _rand_box(rng)) for _ in range(n_gt)]
            raw = []
            for _ in range(6):
                if rng.uniform() < 0.7:
                    h, o = gts[int(rng.integers(n_gt))]
                    hb, ob = _jitter(rng, h, 0.2), _jitter(rng, o, 0.2)
                else:
                    hb, ob = _rand_box(rng), _rand_box(rng)
                raw.append((hb, ob, float(rng.uniform(0.1, 1.0))))
            kept = nms([hb for hb, _, _ in raw], [s for _, _, s in raw],
                       [PERSON_CATEGORY] * len(raw), 0.3)
            kept_keys = {(raw[k][0].as_tuple(), raw[k][2]) for k in kept}
            preds = [_triplet(0, hb, ob, "cut", "instrument", s)
                     for hb, ob, s in raw
                     if (hb.as_tuple(), s) in kept_keys]
            preds.sort(key=lambda t: -t.score)
            recs = lambda: {0: [_GtRecord(h, o, "knife") for h, o in gts]}
            role_flags = match_triplets(preds, recs())
            agent_flags = match_triplets(preds, recs(), agent=True)
            for r, a in zip(role_flags, agent_flags):
                assert a or not r, seed


class TestAgentCandidates:
    def test_dedupe_keeps_best_score_per_human_verb(self):
        h = Box(0, 0, 10, 10)
        t1 = _triplet(0, h, O_GT, "cut", "instrument", 0.9, s_h=0.9, act=0.5)
        t2 = _triplet(0, h, O_GT, "cut", "object", 0.9, s_h=0.9, act=0.7)
        t3 = _triplet(0, h, None, "stand", ROLE_NONE, 0.9, s_h=0.9, act=0.4)
        cands = agent_candidates([t1, t2, t3])
        assert sorted(cands) == ["cut", "stand"]
        assert len(cands["cut"]) == 1
        assert abs(cands["cut"][0].score - 0.9 * 0.7) < 1e-12
        assert abs(cands["stand"][0].score - 0.9 * 0.4) < 1e-12

    def test_distinct_humans_kept_apart(self):
        t1 = _triplet(0, Box(0, 0, 10, 10), O_GT, "cut", "instrument", 0.9)
        t2 = _triplet(0, Box(30, 30, 40, 40), O_GT, "cut", "instrument", 0.8)
        cands = agent_candidates([t1, t2])
        assert len(cands["cut"]) == 2


class TestEvaluateTriplets:
    def test_gt_echo_scores_one(self, synth_dataset):
        report = evaluate_triplets(_gt_echo_triplets(synth_dataset),
                                   synth_dataset)
        assert report.mean_role_ap == 1.0
        assert report.mean_agent_ap == 1.0
        for e in report.role_entries + report.agent_entries:
            if e.defined:
                assert e.ap == 1.0 and e.fp == 0 and e.tp == e.gt_count
            else:
                assert e.ap is None

    def test_empty_predictions(self, synth_dataset):
        report = evaluate_triplets([], synth_dataset)
        for e in report.role_entries + report.agent_entries:
            assert e.ap == (0.0 if e.defined else None)
        assert report.mean_role_ap == 0.0
        assert report.mean_agent_ap == 0.0

    def test_unknown_action_rejected(self, synth_dataset):
        bad = [_triplet(0, H_GT, O_GT, "juggle", "object", 0.5)]
        with pytest.raises(ValueError, match="juggle"):
            evaluate_triplets(bad, synth_dataset)

    def test_zero_gt_entries_flagged_not_averaged(self):
        scenes = generate_synthetic(
            SynthConfig(num_scenes=4, seed=33, verbs=("carry",)))
        ds = Dataset(registry=REGISTRY,
                     categories=[PERSON_CATEGORY] + SYNTH_CATEGORIES,
                     scenes=[s.annotation for s in scenes])
        report = evaluate_triplets(_gt_echo_triplets(ds), ds)
        role = {(e.action, e.role): e for e in report.role_entries}
        agent = {e.action: e for e in report.agent_entries}
        assert role["carry", "object"].ap == 1.0
        assert role["cut", "object"].ap is None
        assert role["cut", "object"].gt_count == 0
        assert report.mean_role_ap == 1.0  # undefined entries excluded
        assert agent["carry"].ap == 1.0
        assert agent["stand"].ap is None

    def test_score_order_invariance(self, synth_dataset):
        rng = np.random.default_rng(5)
        trips = _gt_echo_triplets(synth_dataset)
        for t in trips:
            t.score = float(rng.uniform(0.2, 0.9))
        ref = evaluate_triplets(trips, synth_dataset)
        # strictly monotone rescaling preserves the ordering, so every
        # AP is unchanged
        import copy

        squashed = copy.deepcopy(trips)
        for t in squashed:
            t.score = t.score ** 2
        got = evaluate_triplets(squashed, synth_dataset)
        for a, b in zip(ref.role_entries, got.role_entries):
            assert a.ap == b.ap
        assert ref.mean_role_ap == got.mean_role_ap

    def test_role_metric_needs_object_box(self, synth_dataset):
        trips = _gt_echo_triplets(synth_dataset)
        shifted = []
        for t in trips:
            if t.object is None:
                shifted.append(t)
                continue
            b = t.object.box
            far = Box(b.x1 + 100.0, b.y1 + 100.0, b.x2 + 100.0,
                      b.y2 + 100.0)
            t.object = Detection(far, t.object.category, t.object.score)
            shifted.append(t)
        report = evaluate_triplets(shifted, synth_dataset)
        for e in report.role_entries:
            if e.defined:
                assert e.ap == 0.0
        for e in report.agent_entries:
            if e.defined:
                assert e.ap == 1.0


class TestReportOutput:
    def test_text_layout(self, synth_dataset):
        report = evaluate_triplets(_gt_echo_triplets(synth_dataset),
                                   synth_dataset)
        text = report_text(report)
        lines = text.strip().split("\n")
        assert lines[0].split() == ["action", "role", "AP_role", "AP_agent",
                                    "#GT"]
        assert any(line.startswith("mean") for line in lines)
        assert sum(1 for line in lines if line.startswith("cut")) == 2

    def test_json_round_trip(self, synth_dataset):
        report = evaluate_triplets(_gt_echo_triplets(synth_dataset),
                                   synth_dataset)
        doc = json.loads(json.dumps(report_json(report)))
        assert doc["mean_role_ap"] == 1.0
        assert len(doc["role_entries"]) == sum(
            1 for e in REGISTRY if e.role != ROLE_NONE)
        assert len(doc["agent_entries"]) == len(REGISTRY.verbs)


class TestEvaluateFiles:
    def test_end_to_end_from_files(self, synth_dataset, tmp_path):
        gt_path = tmp_path / "gt.json"
        save_annotations(gt_path, synth_dataset)
        pred_path = tmp_path / "preds.jsonl"
        write_predictions(pred_path, _gt_echo_triplets(synth_dataset))
        report = evaluate_triplets(
            read_predictions(pred_path),
            load_annotations(gt_path, schema="hico_like"))
        assert report.mean_role_ap == 1.0
        assert report.mean_agent_ap == 1.0
