import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hoidet.dataset import (
    _NUMBERS,
    PERSON_CATEGORY,
    ROLE_NONE,
    SYNTH_CATEGORIES,
    SynthConfig,
    generate_synthetic,
    _typed,
    synthetic_registry,
)
from hoidet.density import gaussian_compat, mixture_compat
from hoidet.geometry import (
    Box,
    Detection,
    box_array,
    decode_rel,
    encode_rel,
    iou,
)
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
from test_cli import _json_paths, _json_type
from test_density import kmeans_compat
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


def _select_one(s_o, inter, compat):
    """One group's index maximizing the product, None for no candidates:
    :func:`select_object` over one group of all the candidates."""
    if not len(s_o):
        return None
    return int(select_object(np.asarray(s_o)[None], np.asarray(inter)[None],
                             np.asarray(compat)[None],
                             np.array([len(s_o)]))[0])


class TestSelectObject:
    def test_empty_none(self):
        assert _select_one(np.zeros(0), np.zeros(0), np.zeros(0)) is None

    def test_singleton(self):
        assert _select_one(np.array([0.3]), np.array([0.5]),
                           np.array([0.9])) == 0

    def test_near_target_wins(self):
        s_o = np.array([0.6, 0.6])
        inter = np.array([0.5, 0.5])
        g = np.array([gaussian_compat(np.zeros(4), np.zeros(4)),
                      gaussian_compat(np.full(4, 2.0), np.zeros(4))])
        assert _select_one(s_o, inter, g) == 0

    def test_product_arithmetic(self):
        s_o = np.array([0.9, 0.8])
        g = np.array([0.2, 0.9])
        inter = np.array([0.5, 0.5])
        # 0.8*0.9 = 0.72 beats 0.9*0.2 = 0.18
        assert _select_one(s_o, inter, g) == 1

    def test_tie_breaks_to_first(self):
        s_o = np.array([0.5, 0.5, 0.5])
        ones = np.ones(3)
        assert _select_one(s_o, ones, ones) == 0

    def test_monotone_in_selected_score(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            s_o = rng.uniform(0.05, 1.0, n)
            inter = rng.uniform(0.05, 1.0, n)
            g = rng.uniform(0.05, 1.0, n)
            j = _select_one(s_o, inter, g)
            boosted = s_o.copy()
            boosted[j] = min(1.0, boosted[j] * 1.5)
            assert _select_one(boosted, inter, g) == j


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

    def test_proposal_array_gives_the_box_list_triplets(self, small_world):
        scenes, provider = small_world
        cfg = _mk_cfg(provider)
        params = init_params(cfg, 8)
        for ts in scenes:
            want = infer(ts.scene_id, ts.proposals, provider, params, cfg,
                         REGISTRY, CATEGORIES)
            got = infer(ts.scene_id, box_array(ts.proposals), provider,
                        params, cfg, REGISTRY, CATEGORIES)
            assert got == want
        assert infer(0, np.zeros((0, 4)), provider, params, cfg, REGISTRY,
                     CATEGORIES)[0] == []

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
                provider.pooled_matrix(t.image_id, [t.human.box]), params,
                cfg)
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

    @pytest.mark.parametrize("mode", ["fixed_sigma", "mdn_m2", "kmeans"])
    def test_target_mean_is_the_scored_mean(self, small_world, mode):
        """A fixed-width density's mean is the one whose compat the triplet
        holds (a k-means action's nearest center), a mixture's the mean
        of its heaviest component; untargeted triplets have none."""
        from hoidet.model import forward_human

        scenes, provider = small_world
        cfg = _mk_cfg(provider, **(dict(use_mdn=True, density_M=2)
                                   if mode == "mdn_m2" else {}))
        params = init_params(cfg, 8)
        rng = np.random.default_rng(9)
        centers = None
        if mode == "kmeans":
            centers = {a: rng.normal(scale=0.5, size=(rng.integers(1, 4), 4))
                       for a in range(len(REGISTRY))}
        trips, _ = infer([s.scene_id for s in scenes for _ in s.proposals],
                         [Box(*r) for s in scenes
                          for r in s.proposals.tolist()], provider,
                         params, cfg, REGISTRY, CATEGORIES,
                         baseline_centers=centers)
        targeted = [t for t in trips if t.object is not None]
        assert targeted
        assert all(t.target_mean is None for t in trips if t.object is None)
        for t in targeted:
            a = REGISTRY.index(t.action, t.role)
            rel = np.array(encode_rel(t.object.box, t.human.box).as_tuple())
            hum = forward_human(provider.pooled_matrix(
                t.image_id, [t.human.box]), params, cfg)
            if mode == "mdn_m2":
                want = hum.mus[0, a, np.argmax(hum.weights[0, a])]
                np.testing.assert_allclose(t.target_mean, want, atol=1e-12)
                continue
            if mode == "kmeans":
                assert any(c.tolist() == t.target_mean for c in centers[a])
            else:
                np.testing.assert_allclose(t.target_mean, hum.mus[0, a, 0],
                                           atol=1e-12)
            assert gaussian_compat(rel, t.target_mean, cfg.sigma) == t.compat


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


def _triplet_json(t: ScoredTriplet) -> dict:
    """The JSON object of one predictions line, field by field."""
    def det(d):
        return None if d is None else {
            "box": list(d.box.as_tuple()), "category": d.category,
            "score": d.score}
    return {"image_id": t.image_id, "human": det(t.human),
            "action": t.action, "role": t.role, "object": det(t.object),
            "s_h": t.s_h, "s_o": t.s_o, "action_score": t.action_score,
            "compat": t.compat, "score": t.score}


HUMAN = Detection(Box(0.5, 1.0, 3.25, 4.0), PERSON_CATEGORY, 0.9)
RIDDEN = Detection(Box(1.5, 2.0, 9.0, 7.125), "bicycle", 0.75)


class TestPredictionLines:
    """Each predictions line is ``json.dumps`` of the triplet's object,
    and reading a file gives what reading it line by line gives."""

    def test_written_bytes_equal_json_dumps(self, tmp_path):
        trips = [
            ScoredTriplet(7, HUMAN, "ride", "object", RIDDEN, 0.9, 0.75,
                          0.5, 1.5, 0.50625),
            ScoredTriplet(7, HUMAN, "stand", ROLE_NONE, None, 0.9, None,
                          0.5, None, 0.45),
            # integer corners, numpy and non-finite scores, a non-ASCII name
            ScoredTriplet(8, Detection(Box(0, 0, 2, 3), PERSON_CATEGORY, 1),
                          "r\u00e9ad", ROLE_NONE, None, np.float64(0.25),
                          None, float("nan"), None, float("-inf")),
        ]
        path = tmp_path / "p.jsonl"
        write_predictions(path, trips)
        assert path.read_text() == "".join(
            json.dumps(_triplet_json(t)) + "\n" for t in trips)
        # the reader takes finite numbers only
        with pytest.raises(ValueError, match="^predictions line 3: "
                           "action_score: expected a finite number, got NaN$"):
            read_predictions(path)
        write_predictions(path, trips[:2])
        assert read_predictions(path) == trips[:2]

    def test_lines_that_join_into_triplets_keep_their_own_error(
            self, tmp_path):
        """Line 1 stops inside a box that line 2 finishes, and line 3
        holds two triplets: three lines, and three triplets if the
        lines were joined by commas; line by line, line 1 is not JSON."""
        line = json.dumps(_triplet_json(ScoredTriplet(
            7, HUMAN, "ride", "object", RIDDEN, 0.9, 0.75, 0.5, 1.5, 0.5)))
        cut = line.index(", ", line.index('"box": ['))
        path = tmp_path / "p.jsonl"
        path.write_text(f"{line[:cut]}\n{line[cut + 2:]}\n{line}, {line}\n")
        with pytest.raises(ValueError) as err:
            read_predictions(path)
        assert str(err.value).startswith(
            "predictions line 1: Expecting ',' delimiter")

    def test_lines_beyond_plain_values_are_read_checked(self, tmp_path):
        """Integer numbers and extra keys are valid; they take the
        field-by-field reader, which converts the numbers to float."""
        want = ScoredTriplet(3, HUMAN, "stand", ROLE_NONE, None, 0.9, None,
                             1.0, None, 0.9)
        plain = _triplet_json(want)
        odd = {**plain, "action_score": 1, "note": [[1], [2]]}
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps(plain) + "\n" + json.dumps(odd) + "\n")
        got = read_predictions(path)
        assert got == [want, want]
        assert type(got[1].action_score) is float


def _reference_detection(obj, where: str) -> Detection:
    box = _typed(obj, dict, where)["box"]
    if (type(box) is not list or len(box) != 4
            or not _NUMBERS.issuperset(map(type, box))):
        raise ValueError(f"{where}.box: expected a list of 4 numbers, got "
                         f"{json.dumps(box)}")
    if any(type(v) is float and not math.isfinite(v) for v in box):
        raise ValueError(f"{where}.box: expected finite numbers, got "
                         f"{json.dumps(box)}")
    Box(*box)  # a degenerate box is named by the numbers as written
    return Detection(box=Box(*map(float, box)),
                     category=_typed(obj["category"], str,
                                     where + ".category"),
                     score=_reference_number(obj["score"], where + ".score"))


def _reference_number(value, where: str) -> float:
    number = float(_typed(value, float, where))
    if not math.isfinite(number):
        raise ValueError(f"{where}: expected a finite number, got "
                         f"{json.dumps(number)}")
    return number


def _reference_triplet(obj) -> ScoredTriplet:
    """One line's triplet, checked field by field in the file's order."""
    def number(key, nullable=False):
        if nullable and obj[key] is None:
            return None
        return _reference_number(obj[key], key)

    _typed(obj, dict, "top level")
    return ScoredTriplet(
        image_id=_typed(obj["image_id"], int, "image_id"),
        human=_reference_detection(obj["human"], "human"),
        action=_typed(obj["action"], str, "action"),
        role=_typed(obj["role"], str, "role"),
        object=(None if obj["object"] is None
                else _reference_detection(obj["object"], "object")),
        s_h=number("s_h"), s_o=number("s_o", True),
        action_score=number("action_score"),
        compat=number("compat", True), score=number("score"))


def _reference_read(path) -> list:
    """A predictions file read with one ``json.loads`` per line."""
    out = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(_reference_triplet(json.loads(line)))
            except KeyError as exc:
                raise ValueError(
                    f"predictions line {number}: missing key {exc}") from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"predictions line {number}: {exc}") from exc
    return out


def _outcome(read, path):
    """The triplets ``read`` gives for ``path``, or its error text."""
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


# JSON values without NaN, so that equal triplets compare equal
_OTHER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=2)),
    max_leaves=5)

_LINES = [json.dumps(_triplet_json(t)) for t in [
    ScoredTriplet(7, HUMAN, "ride", "object", RIDDEN, 0.9, 0.75, 0.5, 1.5,
                  0.50625),
    ScoredTriplet(7, HUMAN, "stand", ROLE_NONE, None, 0.9, None, 0.5, None,
                  0.45),
    ScoredTriplet(8, Detection(Box(0, 0, 2, 3), PERSON_CATEGORY, 1), "ride",
                  "object", RIDDEN, 1.0, 0.75, 0.25, 2.0, 0.375),
]]


def _mutated(line: str, draw) -> str:
    """``line`` with one fault drawn: a JSON value of another type at a
    path, a key dropped or added, a number as an integer or as NaN or an
    infinity, a cut, a stray character, a BOM, a second document, or a
    degenerate box that also lacks its category."""
    kind = draw(st.sampled_from(["value", "drop", "add", "integer",
                                 "non_finite", "cut", "insert", "bom",
                                 "two_docs", "two_faults"]))
    if kind == "cut":
        return line[:draw(st.integers(0, len(line) - 1))]
    if kind == "insert":
        at = draw(st.integers(0, len(line)))
        return line[:at] + draw(st.sampled_from('{}[],:" 0e.-\ufeff')) \
            + line[at:]
    if kind == "bom":
        return "\ufeff" + line
    if kind == "two_docs":
        return line + draw(st.sampled_from([" ", "\t", " , "])) + line
    doc = json.loads(line)
    if kind == "two_faults":
        doc["human"]["box"] = [3, 3, 1, 1]
        del doc["human"]["category"]
        return json.dumps(doc)
    path = draw(st.sampled_from(list(_json_paths(doc))))
    if not path:
        return json.dumps(draw(_OTHER_VALUES.filter(
            lambda v: _json_type(v) is not dict)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "drop" and type(parent) is dict:
        del parent[path[-1]]
    elif kind == "add" and type(old) is dict:
        old[draw(st.text(max_size=3))] = draw(_OTHER_VALUES)
    elif kind == "integer" and type(old) is float:
        parent[path[-1]] = int(old)
    elif kind == "non_finite" and type(old) is float:
        parent[path[-1]] = draw(st.sampled_from(
            [math.nan, math.inf, -math.inf]))
    else:
        parent[path[-1]] = draw(_OTHER_VALUES.filter(
            lambda v: _json_type(v) != _json_type(old)))
    return json.dumps(doc)


class TestReaderMatchesReference:
    """Every predictions file gives the triplets, or the error line, of a
    reader that parses each line with ``json.loads`` and checks each field
    in turn."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_lines(self, tmp_path_factory, data):
        lines = data.draw(st.lists(st.sampled_from(_LINES + [""]),
                                   min_size=1, max_size=6))
        for at in data.draw(st.sets(st.integers(0, len(lines) - 1),
                                    max_size=2)):
            if lines[at]:
                lines[at] = _mutated(lines[at], data.draw)
        path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert (_outcome(read_predictions, path)
                == _outcome(_reference_read, path))

    @pytest.mark.parametrize("edit, message", [
        (lambda line: "\ufeff" + line,
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
         "(char 0)"),
        (lambda line: line + "  " + line,
         f"Extra data: line 1 column {len(_LINES[0]) + 3} "
         f"(char {len(_LINES[0]) + 2})"),
        (lambda line: line.replace('"box": [0.5, 1.0, 3.25, 4.0], '
                                   '"category": "person", ',
                                   '"box": [3, 3, 1, 1], '),
         "degenerate box: (3, 3, 1, 1)"),
    ], ids=["bom", "second_document", "degenerate_box_and_no_category"])
    def test_line_error(self, tmp_path, edit, message):
        path = tmp_path / "p.jsonl"
        path.write_text(f"{_LINES[1]}\n{edit(_LINES[0])}\n")
        assert _outcome(_reference_read, path) == \
            f"predictions line 2: {message}"
        assert _outcome(read_predictions, path) == \
            f"predictions line 2: {message}"

    def test_equal_detections_are_shared(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("\n".join(_LINES) + "\n")
        first, second, third = read_predictions(path)
        assert first.human is second.human
        assert first.object is third.object
