import copy
import dataclasses
import warnings

import numpy as np
import pytest

from hoidet.density import mixture_compat, smooth_l1
from hoidet.model import (
    Batch,
    Checkpoint,
    CheckpointError,
    ConfigError,
    FlatTensors,
    HeadConfig,
    ImageSamples,
    LossWeights,
    PROB_EPS,
    backward,
    check_params,
    forward_human,
    forward_object,
    init_params,
    init_velocity,
    interaction_human_logits,
    interaction_object_logits,
    load_checkpoint,
    pair_scores,
    save_checkpoint,
    sgd_step,
    zero_grads,
    _FEATURE_FIELDS,
)


def forward_interaction(feat_h, feat_o, params, cfg: HeadConfig) -> np.ndarray:
    """Pairwise action scores for one (human, object) feature pair."""
    if not cfg.use_interaction_branch:
        raise ConfigError("interaction branch is disabled")
    hum = forward_human(feat_h, params, cfg)
    lh = interaction_human_logits(hum.hidden, params, cfg)
    lo, z2o = interaction_object_logits(feat_o, params, cfg)
    out = pair_scores(lh, lo, hum.hidden, z2o, params, cfg)
    return out[0] if out.ndim == 2 and out.shape[0] == 1 else out


def empty_samples(cfg: HeadConfig) -> ImageSamples:
    """One image's samples with every section empty."""
    d, a = cfg.feature_dim, cfg.num_actions
    return ImageSamples(
        object_feats=np.zeros((0, d)),
        object_labels=np.zeros(0, dtype=int),
        object_reg_targets=np.zeros((0, 4)),
        object_reg_mask=np.zeros(0, dtype=bool),
        human_feats=np.zeros((0, d)),
        human_action_targets=np.zeros((0, a)),
        human_target_offsets=np.zeros((0, a, 4)),
        human_target_mask=np.zeros((0, a), dtype=bool),
        interaction_h_feats=np.zeros((0, d)),
        interaction_o_feats=np.zeros((0, d)),
        interaction_action_targets=np.zeros((0, a)),
    )


def bce_loss(score, label) -> float:
    p = float(np.clip(score, PROB_EPS, 1.0 - PROB_EPS))
    y = float(label)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def small_cfg(**kw):
    base = dict(feature_dim=7, num_actions=3, num_object_classes=2,
                hidden_dim=9, concat_hidden=6)
    base.update(kw)
    return HeadConfig(**base)


def identity_params(cfg, fills):
    """All-zero parameters with identity trunks (requires hidden == dim),
    plus explicit overrides."""
    params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
    eye = np.eye(cfg.feature_dim)
    for prefix in ("obj", "hum", "int"):
        if f"{prefix}_fc1_w" in params:
            params[f"{prefix}_fc1_w"] = eye.copy()
            params[f"{prefix}_fc2_w"] = eye.copy()
    params.update(fills)
    return params


def random_batch(cfg, rng, images=2):
    out = []
    for _ in range(images):
        n_o, n_h, n_i = 5, 3, 2
        labels = rng.integers(0, cfg.num_object_classes + 1, size=n_o)
        act_t = (rng.random((n_h, cfg.num_actions)) < 0.5).astype(float)
        mask = (act_t > 0) & (rng.random(act_t.shape) < 0.8)
        out.append(ImageSamples(
            object_feats=rng.normal(size=(n_o, cfg.feature_dim)) * 0.5,
            object_labels=labels,
            object_reg_targets=rng.normal(size=(n_o, 4)) * 0.3,
            object_reg_mask=labels > 0,
            human_feats=rng.normal(size=(n_h, cfg.feature_dim)) * 0.5,
            human_action_targets=act_t,
            human_target_offsets=rng.normal(size=(n_h, cfg.num_actions, 4)) * 0.3,
            human_target_mask=mask,
            interaction_h_feats=rng.normal(size=(n_i, cfg.feature_dim)) * 0.5,
            interaction_o_feats=rng.normal(size=(n_i, cfg.feature_dim)) * 0.5,
            interaction_action_targets=(
                rng.random((n_i, cfg.num_actions)) < 0.5
            ).astype(float),
        ))
    return out


class TestForwardObject:
    def test_zero_params_uniform(self):
        cfg = small_cfg()
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        out = forward_object(np.ones(cfg.feature_dim), params, cfg)
        np.testing.assert_allclose(out.probs, 1.0 / 3.0, rtol=1e-12)

    def test_probs_sum_to_one(self):
        cfg = small_cfg()
        params = init_params(cfg, 3)
        rng = np.random.default_rng(0)
        out = forward_object(rng.normal(size=(6, cfg.feature_dim)), params, cfg)
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-6)
        assert out.deltas.shape == (6, 3, 4)

    def test_hand_built_linear_head(self):
        cfg = HeadConfig(feature_dim=1, num_actions=1, num_object_classes=1,
                         hidden_dim=1)
        params = identity_params(cfg, {"obj_cls_w": np.array([[1.0, -1.0]])})
        out = forward_object(np.array([2.0]), params, cfg)
        want = np.exp([2.0, -2.0])
        want /= want.sum()
        np.testing.assert_allclose(out.probs[0], want, rtol=1e-9)
        np.testing.assert_allclose(out.probs[0], [0.9820, 0.0180], atol=1e-4)

    def test_dimension_mismatch(self):
        cfg = small_cfg()
        params = init_params(cfg, 0)
        with pytest.raises(ConfigError):
            forward_object(np.ones(cfg.feature_dim + 1), params, cfg)


class TestForwardHuman:
    def test_zero_params_scores_half(self):
        cfg = small_cfg()
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        out = forward_human(np.ones(cfg.feature_dim), params, cfg)
        np.testing.assert_allclose(out.action_scores, 0.5, rtol=1e-12)
        assert out.weights is None and out.sigmas is None

    def test_logit_two(self):
        cfg = HeadConfig(feature_dim=1, num_actions=1, num_object_classes=1,
                         hidden_dim=1)
        params = identity_params(cfg, {"act_w": np.array([[2.0]])})
        out = forward_human(np.array([1.0]), params, cfg)
        np.testing.assert_allclose(out.action_scores[0, 0], 0.8808, atol=1e-4)

    def test_per_action_independence(self):
        cfg = small_cfg()
        params = init_params(cfg, 5)
        feat = np.random.default_rng(1).normal(size=cfg.feature_dim)
        base = forward_human(feat, params, cfg).action_scores[0]
        poked = copy.deepcopy(params)
        poked["act_w"][:, 0] += 1.0
        after = forward_human(feat, poked, cfg).action_scores[0]
        assert after[0] != base[0]
        np.testing.assert_array_equal(after[1:], base[1:])

    def test_mdn_outputs(self):
        cfg = small_cfg(use_mdn=True, density_M=2)
        params = init_params(cfg, 7)
        rng = np.random.default_rng(2)
        out = forward_human(rng.normal(size=(4, cfg.feature_dim)), params, cfg)
        assert out.mus.shape == (4, 3, 2, 4)
        np.testing.assert_allclose(out.weights.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out.sigmas >= cfg.sigma_floor)


class TestForwardInteraction:
    def test_zero_params_half(self):
        cfg = small_cfg()
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        out = forward_interaction(np.ones(cfg.feature_dim),
                                  np.ones(cfg.feature_dim), params, cfg)
        np.testing.assert_allclose(out, 0.5, rtol=1e-12)

    def test_logit_sum_value(self):
        cfg = HeadConfig(feature_dim=1, num_actions=1, num_object_classes=1,
                         hidden_dim=1)
        params = identity_params(cfg, {
            "int_h_w": np.array([[1.0]]),
            "int_o_w": np.array([[1.5]]),
        })
        out = forward_interaction(np.array([1.0]), np.array([1.0]), params, cfg)
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-2.5)), rtol=1e-9)
        np.testing.assert_allclose(out, 0.9241, atol=1e-4)

    def test_swap_symmetry_iff_shared_heads(self):
        cfg = small_cfg()
        rng = np.random.default_rng(9)
        params = init_params(cfg, 11)
        fh = rng.normal(size=cfg.feature_dim)
        fo = rng.normal(size=cfg.feature_dim)
        ab = forward_interaction(fh, fo, params, cfg)
        ba = forward_interaction(fo, fh, params, cfg)
        assert not np.allclose(ab, ba)
        # tie the two per-RoI heads (trunk and logits) together
        for k in ("fc1_w", "fc1_b", "fc2_w", "fc2_b"):
            params[f"int_{k}"] = params[f"hum_{k}"].copy()
        params["int_o_w"] = params["int_h_w"].copy()
        params["int_o_b"] = params["int_h_b"].copy()
        ab = forward_interaction(fh, fo, params, cfg)
        ba = forward_interaction(fo, fh, params, cfg)
        np.testing.assert_allclose(ab, ba, rtol=1e-9)

    def test_concat_mlp_mode(self):
        cfg = small_cfg(pairwise_mode="concat_mlp")
        params = init_params(cfg, 4)
        out = forward_interaction(np.ones(cfg.feature_dim),
                                  np.zeros(cfg.feature_dim), params, cfg)
        assert out.shape == (3,)
        assert np.all((out > 0) & (out < 1))

    def test_cached_pair_path_matches_direct(self):
        cfg = small_cfg()
        params = init_params(cfg, 8)
        rng = np.random.default_rng(3)
        fh = rng.normal(size=cfg.feature_dim)
        fo = rng.normal(size=cfg.feature_dim)
        hum = forward_human(fh, params, cfg)
        lh = interaction_human_logits(hum.hidden, params, cfg)
        lo, z2o = interaction_object_logits(fo, params, cfg)
        cached = pair_scores(lh[0], lo[0], hum.hidden[0], z2o[0], params, cfg)
        direct = forward_interaction(fh, fo, params, cfg)
        np.testing.assert_allclose(cached, direct, rtol=1e-12)


class TestBceLoss:
    def test_values(self):
        np.testing.assert_allclose(bce_loss(0.5, 1), np.log(2.0), rtol=1e-12)
        assert bce_loss(1.0, 1) < 1e-6
        p = 1.0 / (1.0 + np.exp(-2.0))
        np.testing.assert_allclose(bce_loss(p, 0), 2.1269, atol=1e-4)


def fd_check(cfg, seed, indices_per_tensor=5):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    batch = random_batch(cfg, rng)
    weights = LossWeights()
    grads, report = backward(batch, params, cfg, weights)
    assert np.isfinite(report.total)
    eps = 1e-6
    for name, g in grads.items():
        flat = params[name].ravel()
        idxs = rng.choice(flat.size, size=min(indices_per_tensor, flat.size),
                          replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            up = backward(batch, params, cfg, weights)[1].total
            flat[i] = orig - eps
            dn = backward(batch, params, cfg, weights)[1].total
            flat[i] = orig
            fd = (up - dn) / (2 * eps)
            np.testing.assert_allclose(
                g.ravel()[i], fd, rtol=1e-4, atol=1e-7,
                err_msg=f"{name}[{i}]",
            )


class TestBackward:
    def test_fd_fixed_logit_sum(self):
        fd_check(small_cfg(), seed=101)

    def test_fd_mdn_shared_head(self):
        fd_check(small_cfg(use_mdn=True, density_M=2,
                           share_interaction_head=True), seed=202)

    def test_fd_concat_mlp(self):
        fd_check(small_cfg(pairwise_mode="concat_mlp"), seed=303)

    def test_perfect_batch_zero_grads(self):
        cfg = HeadConfig(feature_dim=2, num_actions=2, num_object_classes=1,
                         hidden_dim=2)
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        # saturate every classification logit well past the clip so the
        # clamp gradients vanish; make regression residuals exactly zero
        params["obj_cls_b"] = np.array([-40.0, 40.0])
        params["act_b"] = np.array([40.0, -40.0])
        params["int_h_b"] = np.array([40.0, -40.0])
        reg_target = params["obj_reg_b"].reshape(2, 4)[1]
        mu_target = params["mu_b"].reshape(2, 1, 4)[0, 0]
        img = ImageSamples(
            object_feats=np.zeros((1, 2)),
            object_labels=np.array([1]),
            object_reg_targets=reg_target[None, :].copy(),
            object_reg_mask=np.array([True]),
            human_feats=np.zeros((1, 2)),
            human_action_targets=np.array([[1.0, 0.0]]),
            human_target_offsets=np.stack([mu_target, np.zeros(4)])[None],
            human_target_mask=np.array([[True, False]]),
            interaction_h_feats=np.zeros((1, 2)),
            interaction_o_feats=np.zeros((1, 2)),
            interaction_action_targets=np.array([[1.0, 0.0]]),
        )
        grads, report = backward([img], params, cfg)
        assert report.total < 1e-5
        for name, g in grads.items():
            np.testing.assert_array_equal(g, 0.0, err_msg=name)

    def test_action_weight_linearity(self):
        cfg = small_cfg(use_interaction_branch=False)
        params = init_params(cfg, 17)
        rng = np.random.default_rng(6)
        img = empty_samples(cfg)
        img.human_feats = rng.normal(size=(3, cfg.feature_dim))
        img.human_action_targets = (
            rng.random((3, cfg.num_actions)) < 0.5
        ).astype(float)
        g2, r2 = backward([img], params, cfg, LossWeights(action_cls=2.0))
        g4, r4 = backward([img], params, cfg, LossWeights(action_cls=4.0))
        assert r4.total == pytest.approx(2 * r2.total, rel=1e-12)
        for name in g2:
            np.testing.assert_allclose(g4[name], 2.0 * g2[name], rtol=1e-12,
                                       err_msg=name)

    def test_report_total_weighted_sum(self):
        cfg = small_cfg()
        params = init_params(cfg, 23)
        rng = np.random.default_rng(7)
        _, r = backward(random_batch(cfg, rng), params, cfg)
        want = (r.object_cls_loss + r.object_reg_loss + 2 * r.action_cls_loss
                + r.target_loc_loss + r.interaction_cls_loss)
        assert abs(r.total - want) < 1e-9

    def test_disabled_interaction_branch(self):
        cfg = small_cfg(use_interaction_branch=False)
        params = init_params(cfg, 29)
        assert not any(k.startswith(("int_", "cm_")) for k in params)
        rng = np.random.default_rng(8)
        grads, r = backward(random_batch(cfg, rng), params, cfg)
        assert r.interaction_cls_loss == 0.0
        assert set(grads) == set(params)

    def test_non_finite_loss_aborts_with_term_name(self):
        cfg = small_cfg()
        params = init_params(cfg, 31)
        params["obj_cls_w"][0, 0] = np.nan
        rng = np.random.default_rng(9)
        with pytest.raises(FloatingPointError, match="object_cls_loss"):
            backward(random_batch(cfg, rng), params, cfg)

    def test_empty_human_section_is_legal(self):
        cfg = small_cfg()
        params = init_params(cfg, 37)
        img = empty_samples(cfg)
        img.object_feats = np.ones((2, cfg.feature_dim))
        img.object_labels = np.array([0, 1])
        img.object_reg_targets = np.zeros((2, 4))
        img.object_reg_mask = np.array([False, True])
        grads, r = backward([img], params, cfg)
        assert r.action_cls_loss == 0.0 and r.target_loc_loss == 0.0
        assert np.isfinite(r.total)


HEAD_VARIANTS = {
    "fixed_sigma": {},
    "mdn_m2": dict(use_mdn=True, density_M=2),
    "mdn_m1_shared": dict(use_mdn=True, density_M=1,
                          share_interaction_head=True),
    "concat_mlp": dict(pairwise_mode="concat_mlp"),
    "no_interaction": dict(use_interaction_branch=False),
}


def _bce_mean(p, targets) -> float:
    return float(np.mean(np.sum(
        -(targets * np.log(p) + (1 - targets) * np.log(1 - p)), axis=1)))


@pytest.mark.parametrize("variant", sorted(HEAD_VARIANTS))
def test_training_loss_is_the_loss_of_the_inference_outputs(variant):
    """Every loss term of one image, recomputed from what the inference
    forwards return, equals the term the backward pass reports."""
    cfg = small_cfg(**HEAD_VARIANTS[variant])
    rng = np.random.default_rng(41)
    # larger than the initial scale, so that no output sits near zero
    params = {k: v * 5.0 for k, v in init_params(cfg, 41).items()}
    (img,) = random_batch(cfg, rng, images=1)
    _, got = backward([img], params, cfg)

    obj = forward_object(img.object_feats, params, cfg)
    labels = img.object_labels
    reg = np.flatnonzero(img.object_reg_mask)
    hum = forward_human(img.human_feats, params, cfg)
    ii, jj = np.nonzero(img.human_target_mask)
    assert len(reg) and len(ii)
    offsets = img.human_target_offsets[ii, jj]
    if cfg.use_mdn:
        loc = -np.log(mixture_compat(offsets, hum.weights[ii, jj],
                                     hum.mus[ii, jj], hum.sigmas[ii, jj]))
    else:
        loc = smooth_l1(hum.mus[ii, jj, 0], offsets)
    want = {
        "object_cls_loss": np.mean(-np.log(np.maximum(
            obj.probs[np.arange(len(labels)), labels], PROB_EPS))),
        "object_reg_loss": np.sum(smooth_l1(
            obj.deltas[reg, labels[reg]], img.object_reg_targets[reg]))
        / len(labels),
        "action_cls_loss": _bce_mean(hum.action_scores,
                                     img.human_action_targets),
        "target_loc_loss": np.mean(loc),
        "interaction_cls_loss": 0.0,
    }
    if cfg.use_interaction_branch:
        hidden_h = forward_human(img.interaction_h_feats, params, cfg).hidden
        logit_h = interaction_human_logits(hidden_h, params, cfg)
        logit_o, hidden_o = interaction_object_logits(
            img.interaction_o_feats, params, cfg)
        p = np.array([pair_scores(logit_h[i], logit_o[i], hidden_h[i],
                                  hidden_o[i], params, cfg)
                      for i in range(len(hidden_h))])
        want["interaction_cls_loss"] = _bce_mean(
            p, img.interaction_action_targets)
        assert want["interaction_cls_loss"] > 0
    for name, value in want.items():
        assert getattr(got, name) == pytest.approx(value, rel=1e-9, abs=0), \
            name


def _with_features(batch: Batch, dtype) -> Batch:
    """``batch`` with its feature rows converted to ``dtype``."""
    rows = dataclasses.replace(batch.rows, **{
        name: getattr(batch.rows, name).astype(dtype)
        for name in _FEATURE_FIELDS})
    return dataclasses.replace(batch, rows=rows)


class TestPrecision:
    """The model computes in the dtype of the parameters it is given."""

    @pytest.mark.parametrize("variant", sorted(HEAD_VARIANTS))
    def test_float32_parameters_give_float32_gradients(self, variant):
        """Float64 features are rounded once, where a branch takes them:
        the gradients equal those of features rounded beforehand."""
        cfg = small_cfg(**HEAD_VARIANTS[variant])
        params = FlatTensors(init_params(cfg, 53), dtype=np.float32)
        batch = Batch.stack(random_batch(cfg, np.random.default_rng(53)),
                            cfg.feature_dim)
        assert batch.rows.object_feats.dtype == np.float64
        grads, rep = backward(batch, params, cfg)
        want, want_rep = backward(_with_features(batch, np.float32), params,
                                  cfg)
        assert grads.vector.dtype == np.float32
        assert grads.vector.tobytes() == want.vector.tobytes()
        assert rep == want_rep

    @pytest.mark.parametrize("variant", sorted(HEAD_VARIANTS))
    def test_float64_parameters_keep_float64(self, variant):
        """Float32 features meet float64 parameters widened, exactly."""
        cfg = small_cfg(**HEAD_VARIANTS[variant])
        params = init_params(cfg, 59)
        batch = _with_features(Batch.stack(
            random_batch(cfg, np.random.default_rng(59)), cfg.feature_dim),
            np.float32)
        grads, rep = backward(batch, params, cfg)
        want, want_rep = backward(_with_features(batch, np.float64), params,
                                  cfg)
        assert grads.vector.dtype == np.float64
        assert grads.vector.tobytes() == want.vector.tobytes()
        assert rep == want_rep


class TestSgdStep:
    def test_fixed_point(self):
        params = FlatTensors({"w": np.array([1.0, -2.0])})
        vel = init_velocity(params)
        sgd_step(params, zero_grads(params), vel, lr=0.5, momentum=0.9,
                 weight_decay=0.0)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_plain_step(self):
        params = FlatTensors({"w": np.array([1.0])})
        vel = init_velocity(params)
        sgd_step(params, FlatTensors({"w": np.array([1.0])}), vel, lr=0.001,
                 momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(params["w"], [0.999], rtol=1e-12)

    def test_weight_decay_only(self):
        params = FlatTensors({"w": np.array([1.0])})
        vel = init_velocity(params)
        sgd_step(params, FlatTensors({"w": np.array([0.0])}), vel, lr=0.001,
                 momentum=0.9, weight_decay=0.0001)
        np.testing.assert_allclose(params["w"], [1.0 - 0.001 * 0.0001],
                                   rtol=1e-12)

    def test_momentum_accumulates(self):
        params = FlatTensors({"w": np.array([0.0])})
        vel = init_velocity(params)
        g = FlatTensors({"w": np.array([1.0])})
        sgd_step(params, g, vel, lr=1.0, momentum=0.5, weight_decay=0.0)
        sgd_step(params, g, vel, lr=1.0, momentum=0.5, weight_decay=0.0)
        # velocities 1 then 1.5; param = -(1 + 1.5)
        np.testing.assert_allclose(params["w"], [-2.5], rtol=1e-12)
        np.testing.assert_allclose(vel["w"], [1.5], rtol=1e-12)

    def test_tensor_names_must_match(self):
        params = FlatTensors({"w": np.array([1.0])})
        with pytest.raises(ValueError, match="same tensor names"):
            sgd_step(params, FlatTensors({"v": np.array([1.0])}),
                     init_velocity(params), lr=1.0, momentum=0.0,
                     weight_decay=0.0)
        np.testing.assert_array_equal(params["w"], [1.0])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = small_cfg(use_mdn=True, density_M=2)
        params = init_params(cfg, 41)
        actions = [{"name": "carry", "role": "object"}]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, actions)
        ck = load_checkpoint(path)
        assert isinstance(ck, Checkpoint)
        assert ck.config == cfg
        assert ck.actions == actions
        for name in params:
            np.testing.assert_array_equal(
                ck.params[name], params[name].astype(np.float32).astype(np.float64)
            )

    def test_bit_exact_second_save(self, tmp_path):
        cfg = small_cfg()
        params = init_params(cfg, 43)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, params, cfg, None)
        ck = load_checkpoint(p1)
        save_checkpoint(p2, ck.params, ck.config, ck.actions)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        cfg = small_cfg()
        params = init_params(cfg, 47)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, None)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_value_beyond_float32_is_refused_before_writing(self, tmp_path,
                                                           value):
        """A float64 value that float32 cannot hold would be written as
        an infinity, which no load accepts."""
        cfg = small_cfg()
        params = init_params(cfg, 0)
        params["act_b"][1] = value
        path = tmp_path / "model.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as info:
                save_checkpoint(path, params, cfg, None)
        assert str(info.value) == (
            f"parameter act_b holds {value!r}, beyond float32's largest "
            f"value {float(np.finfo(np.float32).max)!r}")
        assert not path.exists()


class TestParamChecks:
    def test_init_deterministic(self):
        cfg = small_cfg()
        a = init_params(cfg, 1)
        b = init_params(cfg, 1)
        c = init_params(cfg, 2)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_shape_validation(self):
        cfg = small_cfg()
        params = init_params(cfg, 0)
        check_params(params, cfg)
        bad = dict(params)
        bad["act_w"] = np.zeros((1, 1))
        with pytest.raises(ConfigError, match="act_w"):
            check_params(bad, cfg)
        del bad["act_w"]
        with pytest.raises(ConfigError, match="missing"):
            check_params(bad, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_cfg(pairwise_mode="bilinear")
        with pytest.raises(ConfigError):
            small_cfg(density_M=2)  # MDN not enabled
        with pytest.raises(ConfigError):
            small_cfg(feature_dim=0)
