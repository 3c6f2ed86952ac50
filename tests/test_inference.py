import numpy as np
import pytest

from hoidet.dataset import (
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    SynthConfig,
    generate_synthetic,
    synthetic_registry,
)
from hoidet.density import gaussian_compat, kmeans_compat, mixture_compat
from hoidet.geometry import Box, Detection, decode_rel, encode_rel, iou
from hoidet.inference import (
    InferenceConfig,
    ScoredTriplet,
    detect_objects,
    infer,
    read_predictions,
    select_object,
    write_predictions,
)
from hoidet.model import HeadConfig, init_params
from hoidet.trainer import from_synthetic
from test_model import forward_interaction

REGISTRY = synthetic_registry()
CATEGORIES = [PERSON_CATEGORY] + SYNTH_CATEGORIES


def component_product(t: ScoredTriplet) -> float:
    """The triplet's score recomputed from its factors."""
    p = t.s_h * t.action_score
    if t.object is not None:
        p = t.s_h * t.s_o * t.action_score * t.compat
    return p


def _mk_cfg(provider, **kw):
    return HeadConfig(
        feature_dim=provider.feature_dim,
        num_actions=len(REGISTRY),
        num_object_classes=len(CATEGORIES),
        hidden_dim=32,
        **kw,
    )


@pytest.fixture(scope="module")
def small_world():
    scenes, provider = from_synthetic(
        generate_synthetic(
            SynthConfig(num_scenes=2, persons_per_scene=2,
                        num_distractors=2, proposals_per_box=1, seed=5)
        )
    )
    return scenes, provider


class TestInferenceConfig:
    @pytest.mark.parametrize("kw", [
        dict(max_triplets=-1),
        dict(score_threshold=-0.01),
        dict(score_threshold=float("nan")),
        dict(nms_threshold=1.5),
        dict(nms_threshold=float("inf")),
    ])
    def test_out_of_range_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            InferenceConfig(**kw)

    def test_bounds_accepted(self):
        InferenceConfig(score_threshold=0.0, nms_threshold=1.0, max_triplets=0)
        InferenceConfig(score_threshold=1.0, nms_threshold=0.0)


class TestDetectObjects:
    def _identity_deltas(self, n, c):
        return np.zeros((n, c + 1, 4))

    def test_all_below_threshold_empty(self):
        props = [Box(0, 0, 10, 10), Box(20, 20, 30, 30)]
        probs = np.full((2, len(CATEGORIES) + 1), 0.04)
        dets = detect_objects(probs, self._identity_deltas(2, len(CATEGORIES)),
                              props, CATEGORIES)
        assert dets == []

    def test_default_thresholds(self):
        import inspect

        sig = inspect.signature(detect_objects)
        assert sig.parameters["score_threshold"].default == 0.05
        assert sig.parameters["nms_threshold"].default == 0.3

    def test_duplicate_person_suppressed(self):
        # two person boxes at IoU 0.8: 0.9 survives, 0.6 is suppressed
        b1 = Box(0.0, 0.0, 10.0, 10.0)
        b2 = Box(0.0, 1.0, 10.0, 11.0)
        assert abs(iou(b1, b2) - 0.9 / 1.1) < 1e-12 and iou(b1, b2) > 0.8 - 0.1
        c = len(CATEGORIES)
        probs = np.zeros((2, c + 1))
        pcol = CATEGORIES.index(PERSON_CATEGORY) + 1
        probs[0, pcol] = 0.9
        probs[1, pcol] = 0.6
        dets = detect_objects(probs, self._identity_deltas(2, c), [b1, b2],
                              CATEGORIES)
        assert len(dets) == 1
        assert dets[0].score == 0.9 and dets[0].category == PERSON_CATEGORY

    def test_regression_deltas_applied(self):
        prop = Box(10.0, 10.0, 30.0, 40.0)
        c = len(CATEGORIES)
        probs = np.zeros((1, c + 1))
        probs[0, 2] = 0.7
        deltas = np.zeros((1, c + 1, 4))
        deltas[0, 2] = [0.1, -0.2, 0.05, 0.1]
        dets = detect_objects(probs, deltas, [prop], CATEGORIES)
        want = decode_rel(deltas[0, 2], prop)
        assert len(dets) == 1
        assert np.allclose(dets[0].box.as_tuple(), want.as_tuple())

    def test_huge_delta_gives_finite_box(self):
        prop = Box(10.0, 10.0, 30.0, 40.0)
        c = len(CATEGORIES)
        probs = np.zeros((1, c + 1))
        probs[0, 2] = 0.7
        deltas = np.zeros((1, c + 1, 4))
        deltas[0, 2] = [0.0, 0.0, 800.0, 800.0]
        dets = detect_objects(probs, deltas, [prop], CATEGORIES)
        assert len(dets) == 1
        assert all(np.isfinite(dets[0].box.as_tuple()))
        assert dets[0].box.w == pytest.approx(20.0 * 1000.0 / 16.0)

    def test_nms_is_per_class(self):
        b = Box(0.0, 0.0, 10.0, 10.0)
        c = len(CATEGORIES)
        probs = np.zeros((2, c + 1))
        probs[0, 1] = 0.8
        probs[1, 2] = 0.7
        dets = detect_objects(probs, self._identity_deltas(2, c), [b, b],
                              CATEGORIES)
        assert len(dets) == 2

    def test_threshold_is_strict(self):
        b = Box(0.0, 0.0, 10.0, 10.0)
        c = len(CATEGORIES)
        probs = np.zeros((1, c + 1))
        probs[0, 1] = 0.05
        dets = detect_objects(probs, self._identity_deltas(1, c), [b],
                              CATEGORIES)
        assert dets == []


class TestSelectObject:
    def test_empty_none(self):
        assert select_object(np.zeros(0), np.zeros(0), np.zeros(0)) is None

    def test_singleton(self):
        assert select_object(np.array([0.3]), np.array([0.5]),
                             np.array([0.9])) == 0

    def test_near_target_wins(self):
        s_o = np.array([0.6, 0.6])
        inter = np.array([0.5, 0.5])
        g = np.array([gaussian_compat(np.zeros(4), np.zeros(4)),
                      gaussian_compat(np.full(4, 2.0), np.zeros(4))])
        assert select_object(s_o, inter, g) == 0

    def test_product_arithmetic(self):
        s_o = np.array([0.9, 0.8])
        g = np.array([0.2, 0.9])
        inter = np.array([0.5, 0.5])
        # 0.8*0.9 = 0.72 beats 0.9*0.2 = 0.18
        assert select_object(s_o, inter, g) == 1

    def test_tie_breaks_to_first(self):
        s_o = np.array([0.5, 0.5, 0.5])
        ones = np.ones(3)
        assert select_object(s_o, ones, ones) == 0

    def test_monotone_in_selected_score(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            s_o = rng.uniform(0.05, 1.0, n)
            inter = rng.uniform(0.05, 1.0, n)
            g = rng.uniform(0.05, 1.0, n)
            j = select_object(s_o, inter, g)
            boosted = s_o.copy()
            boosted[j] = min(1.0, boosted[j] * 1.5)
            assert select_object(boosted, inter, g) == j


def _brute_force(scene_id, dets, provider, params, cfg, registry):
    """Exhaustive triplet scoring, one interaction forward per pair."""
    feats = provider.pooled_matrix(scene_id, [d.box for d in dets])
    from hoidet.model import forward_human

    hum = forward_human(feats, params, cfg)
    best = {}
    for h, hd in enumerate(dets):
        if hd.category != PERSON_CATEGORY:
            continue
        for a, entry in enumerate(registry):
            if entry.role == ROLE_NONE:
                best[(h, a)] = (None, hd.score * hum.action_scores[h, a])
                continue
            top = None
            for j, od in enumerate(dets):
                if j == h:
                    continue
                rel = np.array(encode_rel(od.box, hd.box).as_tuple())
                if cfg.use_interaction_branch:
                    inter = forward_interaction(feats[h], feats[j], params,
                                                cfg)[a]
                else:
                    inter = hum.action_scores[h, a]
                if cfg.use_mdn:
                    g = mixture_compat(rel, hum.weights[h, a], hum.mus[h, a],
                                       hum.sigmas[h, a])
                else:
                    g = gaussian_compat(rel, hum.mus[h, a, 0], cfg.sigma)
                s = hd.score * od.score * inter * g
                if top is None or s > top[1]:
                    top = (j, s)
            if top is not None:
                best[(h, a)] = top
    return best


class TestInferCascade:
    def test_no_proposals_empty(self, small_world):
        _, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 1)
        trips, stats = infer(0, [], provider, params, cfg, REGISTRY,
                             CATEGORIES)
        assert trips == [] and stats.num_detections == 0

    def test_no_humans_empty(self, small_world):
        scenes, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 1)
        trips, _ = infer(scenes[0].scene_id, scenes[0].proposals[:4],
                         provider, params, cfg, REGISTRY, SYNTH_CATEGORIES)
        assert trips == []

    @pytest.mark.parametrize("kw,seed", [
        (dict(), 11),
        (dict(use_mdn=True, density_M=2), 12),
        (dict(pairwise_mode="concat_mlp", concat_hidden=24), 13),
        (dict(use_interaction_branch=False), 14),
        (dict(share_interaction_head=True), 15),
    ])
    def test_matches_exhaustive_scoring(self, small_world, kw, seed):
        scenes, provider = small_world
        cfg = _mk_cfg(provider, **kw)
        params = init_params(cfg, seed)
        for ts in scenes:
            props = ts.proposals[:8]
            trips, stats = infer(ts.scene_id, props, provider, params, cfg,
                                 REGISTRY, CATEGORIES,
                                 InferenceConfig(max_triplets=10_000))
            from hoidet.model import forward_object

            obj = forward_object(provider.pooled_matrix(ts.scene_id, props),
                                 params, cfg)
            dets = detect_objects(obj.probs, obj.deltas, props, CATEGORIES)
            assert stats.num_detections == len(dets)
            oracle = _brute_force(ts.scene_id, dets, provider, params, cfg,
                                  REGISTRY)
            got = {}
            for t in trips:
                h = next(i for i, d in enumerate(dets)
                         if d.box.as_tuple() == t.human.box.as_tuple()
                         and d.category == PERSON_CATEGORY
                         and d.score == t.s_h)
                a = REGISTRY.index(t.action, t.role)
                obj = (None if t.object is None else next(
                    i for i, d in enumerate(dets)
                    if d.box.as_tuple() == t.object.box.as_tuple()
                    and d.score == t.object.score))
                got[(h, a)] = (obj, t.score)
            assert set(got) == set(oracle)
            for key, (obj, score) in got.items():
                assert obj == oracle[key][0], (key, kw)
                assert np.isclose(score, oracle[key][1], rtol=1e-9, atol=0)

    def test_per_roi_forward_count_is_linear(self, small_world):
        scenes, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 2)
        for ts in scenes:
            _, stats = infer(ts.scene_id, ts.proposals, provider, params,
                             cfg, REGISTRY, CATEGORIES)
            assert stats.per_roi_forwards == stats.num_detections
            assert stats.num_pairs_scored <= stats.num_detections ** 2

    def test_scores_in_unit_interval_and_factorized(self, small_world):
        scenes, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 3)
        trips, _ = infer(scenes[0].scene_id, scenes[0].proposals, provider,
                         params, cfg, REGISTRY, CATEGORIES)
        assert trips
        for t in trips:
            assert 0.0 <= t.score <= 1.0
            assert abs(t.score - component_product(t)) <= 1e-9
            if t.role == ROLE_NONE:
                assert t.object is None and t.s_o is None and t.compat is None
            else:
                assert t.object is not None
                assert t.object.box.as_tuple() != t.human.box.as_tuple()

    def test_output_sorted_and_capped(self, small_world):
        scenes, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 4)
        full, _ = infer(scenes[0].scene_id, scenes[0].proposals, provider,
                        params, cfg, REGISTRY, CATEGORIES,
                        InferenceConfig(max_triplets=100000))
        scores = [t.score for t in full]
        assert scores == sorted(scores, reverse=True)
        capped, _ = infer(scenes[0].scene_id, scenes[0].proposals, provider,
                          params, cfg, REGISTRY, CATEGORIES,
                          InferenceConfig(max_triplets=3))
        assert len(capped) == 3
        assert [t.score for t in capped] == scores[:3]

    def test_interaction_branch_off_uses_human_score(self, small_world):
        scenes, provider = small_world
        cfg = _mk_cfg(provider, use_interaction_branch=False)
        params = init_params(cfg, 5)
        trips, stats = infer(scenes[0].scene_id, scenes[0].proposals,
                             provider, params, cfg, REGISTRY, CATEGORIES)
        assert stats.num_pairs_scored == 0
        from hoidet.model import forward_human

        checked = 0
        for t in trips:
            if t.role == ROLE_NONE:
                continue
            out = forward_human(
                provider.pooled_feature(t.image_id, t.human.box), params, cfg)
            a = REGISTRY.index(t.action, t.role)
            assert np.isclose(t.action_score, out.action_scores[0, a],
                              rtol=1e-12)
            checked += 1
        assert checked > 0

    def test_kmeans_centers_override_density(self, small_world):
        scenes, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 6)
        rng = np.random.default_rng(7)
        centers = {a: rng.normal(size=(3, 4)) for a in range(len(REGISTRY))}
        trips, _ = infer(scenes[0].scene_id, scenes[0].proposals, provider,
                         params, cfg, REGISTRY, CATEGORIES,
                         baseline_centers=centers)
        checked = 0
        for t in trips:
            if t.object is None:
                continue
            rel = np.array(encode_rel(t.object.box, t.human.box).as_tuple())
            a = REGISTRY.index(t.action, t.role)
            assert np.isclose(t.compat,
                              kmeans_compat(rel, centers[a], cfg.sigma))
            checked += 1
        assert checked > 0


class TestPredictionIO:
    def test_round_trip(self, small_world, tmp_path):
        scenes, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 8)
        trips = []
        for ts in scenes:
            t, _ = infer(ts.scene_id, ts.proposals, provider, params, cfg,
                         REGISTRY, CATEGORIES)
            trips.extend(t)
        path = tmp_path / "preds.jsonl"
        write_predictions(path, trips)
        back = read_predictions(path)
        assert len(back) == len(trips)
        for a, b in zip(trips, back):
            assert a.image_id == b.image_id
            assert a.action == b.action and a.role == b.role
            assert a.human == b.human
            assert a.object == b.object
            assert a.score == b.score and a.s_h == b.s_h
            assert a.s_o == b.s_o and a.compat == b.compat

    def test_blank_lines_ignored(self, tmp_path):
        t = ScoredTriplet(
            image_id=0,
            human=Detection(Box(0, 0, 1, 1), PERSON_CATEGORY, 0.9),
            action="stand", role=ROLE_NONE, object=None,
            s_h=0.9, s_o=None, action_score=0.5, compat=None, score=0.45)
        path = tmp_path / "p.jsonl"
        write_predictions(path, [t])
        path.write_text(path.read_text() + "\n\n")
        assert len(read_predictions(path)) == 1
