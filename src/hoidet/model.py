"""The trainable head network and its exact gradients.

Three branches sit on top of pooled RoI features, each a two-layer
fully-connected ReLU trunk plus task heads:

* object branch: softmax over object classes + background, and a
  per-class box-regression head;
* human-centric branch: per-action sigmoid scores plus target-density
  outputs (mean offsets; mixture weights and widths when the MDN path
  is enabled);
* interaction branch: per-RoI action logits on the human and object
  sides that are summed and passed through a sigmoid (``logit_sum``),
  or a small MLP over the concatenated trunk outputs (``concat_mlp``).

The human side of the interaction branch reuses the human-centric
trunk; the object side has its own trunk. Everything is plain numpy
with hand-written reverse-mode gradients, verified against finite
differences in the tests.

Numeric conventions: parameters are float64 in memory and float32 in
checkpoint files; logits are clamped to +-30 before exponentiation and
probabilities to [1e-7, 1 - 1e-7], with gradients defined as zero in
the clamped regions.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .density import (
    DEFAULT_SIGMA,
    DEFAULT_SIGMA_FLOOR,
    mdn_nll_grad,
    sigmoid,
    smooth_l1,
    smooth_l1_grad,
    softmax,
    softplus,
)

LOGIT_CLIP = 30.0
PROB_EPS = 1e-7

CHECKPOINT_MAGIC = b"HOICKPT1"
CHECKPOINT_VERSION = 1

PAIRWISE_MODES = ("logit_sum", "concat_mlp")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class HeadConfig:
    feature_dim: int
    num_actions: int
    num_object_classes: int
    hidden_dim: int = 1024
    density_M: int = 1
    use_mdn: bool = False
    sigma: float = DEFAULT_SIGMA
    sigma_floor: float = DEFAULT_SIGMA_FLOOR
    use_interaction_branch: bool = True
    pairwise_mode: str = "logit_sum"
    concat_hidden: int = 512
    share_interaction_head: bool = False

    def __post_init__(self):
        dims = (self.feature_dim, self.num_actions, self.num_object_classes,
                self.hidden_dim, self.density_M, self.concat_hidden)
        if min(dims) < 1:
            raise ConfigError("all dimensions must be positive")
        if self.pairwise_mode not in PAIRWISE_MODES:
            raise ConfigError(f"invalid pairwise_mode {self.pairwise_mode!r}")
        if not self.use_mdn and self.density_M != 1:
            raise ConfigError("density_M > 1 requires the MDN path")
        if self.sigma <= 0 or self.sigma_floor <= 0:
            raise ConfigError("sigma values must be positive")


@dataclass(frozen=True)
class LossWeights:
    object_cls: float = 1.0
    object_reg: float = 1.0
    action_cls: float = 2.0  # human-centric action term counts double
    target_loc: float = 1.0
    interaction_cls: float = 1.0


@dataclass
class LossReport:
    """Unweighted per-term losses; ``total`` applies the loss weights."""

    object_cls_loss: float = 0.0
    object_reg_loss: float = 0.0
    action_cls_loss: float = 0.0
    target_loc_loss: float = 0.0
    interaction_cls_loss: float = 0.0
    total: float = 0.0

    def compute_total(self, w: LossWeights) -> "LossReport":
        self.total = (
            w.object_cls * self.object_cls_loss
            + w.object_reg * self.object_reg_loss
            + w.action_cls * self.action_cls_loss
            + w.target_loc * self.target_loc_loss
            + w.interaction_cls * self.interaction_cls_loss
        )
        return self

    def as_dict(self):
        return {
            "object_cls_loss": self.object_cls_loss,
            "object_reg_loss": self.object_reg_loss,
            "action_cls_loss": self.action_cls_loss,
            "target_loc_loss": self.target_loc_loss,
            "interaction_cls_loss": self.interaction_cls_loss,
            "total": self.total,
        }


def _param_specs(cfg: HeadConfig):
    """Ordered (name, shape, kind) for every tensor; kind picks the init
    scale: trunk weights at 1/sqrt(fan_in), heads 100x smaller, biases 0."""
    d, h, a = cfg.feature_dim, cfg.hidden_dim, cfg.num_actions
    c1 = cfg.num_object_classes + 1
    m = cfg.density_M
    specs = [
        ("obj_fc1_w", (d, h), "trunk"), ("obj_fc1_b", (h,), "bias"),
        ("obj_fc2_w", (h, h), "trunk"), ("obj_fc2_b", (h,), "bias"),
        ("obj_cls_w", (h, c1), "head"), ("obj_cls_b", (c1,), "bias"),
        ("obj_reg_w", (h, c1 * 4), "head"), ("obj_reg_b", (c1 * 4,), "bias"),
        ("hum_fc1_w", (d, h), "trunk"), ("hum_fc1_b", (h,), "bias"),
        ("hum_fc2_w", (h, h), "trunk"), ("hum_fc2_b", (h,), "bias"),
        ("act_w", (h, a), "head"), ("act_b", (a,), "bias"),
        ("mu_w", (h, a * m * 4), "head"), ("mu_b", (a * m * 4,), "bias"),
    ]
    if cfg.use_mdn:
        specs += [
            ("wlog_w", (h, a * m), "head"), ("wlog_b", (a * m,), "bias"),
            ("sig_w", (h, a * m * 4), "head"), ("sig_b", (a * m * 4,), "bias"),
        ]
    if cfg.use_interaction_branch:
        specs += [
            ("int_fc1_w", (d, h), "trunk"), ("int_fc1_b", (h,), "bias"),
            ("int_fc2_w", (h, h), "trunk"), ("int_fc2_b", (h,), "bias"),
        ]
        if cfg.pairwise_mode == "logit_sum":
            if not cfg.share_interaction_head:
                specs += [("int_h_w", (h, a), "head"), ("int_h_b", (a,), "bias")]
            specs += [("int_o_w", (h, a), "head"), ("int_o_b", (a,), "bias")]
        else:
            specs += [
                ("cm_fc1_w", (2 * h, cfg.concat_hidden), "trunk"),
                ("cm_fc1_b", (cfg.concat_hidden,), "bias"),
                ("cm_fc2_w", (cfg.concat_hidden, a), "head"),
                ("cm_fc2_b", (a,), "bias"),
            ]
    return specs


def init_params(cfg: HeadConfig, seed: int = 0):
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, kind in _param_specs(cfg):
        if kind == "bias":
            params[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            w = rng.uniform(-bound, bound, size=shape)
            params[name] = w * 0.01 if kind == "head" else w
    return params


def check_params(params, cfg: HeadConfig):
    specs = {name: shape for name, shape, _ in _param_specs(cfg)}
    for name, shape in specs.items():
        if name not in params:
            raise ConfigError(f"missing parameter {name}")
        if params[name].shape != shape:
            raise ConfigError(
                f"parameter {name} has shape {params[name].shape}, want {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise ConfigError(f"parameter {name} contains non-finite values")
    extra = set(params) - set(specs)
    if extra:
        raise ConfigError(f"unexpected parameters {sorted(extra)}")


def first_non_finite(tensors, cfg: HeadConfig) -> str | None:
    """Name of the first tensor, in parameter order, holding a NaN or an
    infinity; None when every tensor is finite."""
    for name, _, _ in _param_specs(cfg):
        if not np.isfinite(tensors[name]).all():
            return name
    return None


def _relu(x):
    return np.maximum(x, 0.0)


def _clip_sigmoid(logits):
    """Clamped sigmoid plus the mask where gradients pass."""
    clipped = np.clip(logits, -LOGIT_CLIP, LOGIT_CLIP)
    p_raw = sigmoid(clipped)
    p = np.clip(p_raw, PROB_EPS, 1.0 - PROB_EPS)
    mask = (
        (np.abs(logits) < LOGIT_CLIP)
        & (p_raw > PROB_EPS)
        & (p_raw < 1.0 - PROB_EPS)
    )
    return p, mask


def _softmax_rows(logits):
    return softmax(np.clip(logits, -LOGIT_CLIP, LOGIT_CLIP))


def _as_matrix(feats, dim):
    arr = np.asarray(feats, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ConfigError(f"feature shape {arr.shape} incompatible with dim {dim}")
    return arr


def _trunk_forward(feats, params, prefix):
    a1 = feats @ params[f"{prefix}_fc1_w"] + params[f"{prefix}_fc1_b"]
    z1 = _relu(a1)
    a2 = z1 @ params[f"{prefix}_fc2_w"] + params[f"{prefix}_fc2_b"]
    z2 = _relu(a2)
    return z2, (feats, a1, z1, a2)


def _trunk_backward(d_z2, cache, params, grads, prefix):
    feats, a1, z1, a2 = cache
    d_a2 = d_z2 * (a2 > 0)
    grads[f"{prefix}_fc2_w"] += z1.T @ d_a2
    grads[f"{prefix}_fc2_b"] += d_a2.sum(axis=0)
    d_z1 = d_a2 @ params[f"{prefix}_fc2_w"].T
    d_a1 = d_z1 * (a1 > 0)
    grads[f"{prefix}_fc1_w"] += feats.T @ d_a1
    grads[f"{prefix}_fc1_b"] += d_a1.sum(axis=0)


# --- forward passes -------------------------------------------------------


@dataclass
class ObjectOutput:
    probs: np.ndarray     # (N, C+1) softmax rows, background at 0
    deltas: np.ndarray    # (N, C+1, 4) per-class regression offsets
    hidden: np.ndarray    # (N, H) trunk output


@dataclass
class HumanOutput:
    action_scores: np.ndarray  # (N, A) independent sigmoids
    mus: np.ndarray            # (N, A, M, 4)
    weights: np.ndarray | None  # (N, A, M) softmax rows, MDN only
    sigmas: np.ndarray | None   # (N, A, M, 4), MDN only
    hidden: np.ndarray


def forward_object(feat, params, cfg: HeadConfig) -> ObjectOutput:
    feats = _as_matrix(feat.values if hasattr(feat, "values") else feat,
                       cfg.feature_dim)
    z2, _ = _trunk_forward(feats, params, "obj")
    probs = _softmax_rows(z2 @ params["obj_cls_w"] + params["obj_cls_b"])
    deltas = (z2 @ params["obj_reg_w"] + params["obj_reg_b"]).reshape(
        len(feats), cfg.num_object_classes + 1, 4
    )
    return ObjectOutput(probs=probs, deltas=deltas, hidden=z2)


def forward_human(feat, params, cfg: HeadConfig) -> HumanOutput:
    feats = _as_matrix(feat.values if hasattr(feat, "values") else feat,
                       cfg.feature_dim)
    n = len(feats)
    a, m = cfg.num_actions, cfg.density_M
    z2, _ = _trunk_forward(feats, params, "hum")
    scores, _ = _clip_sigmoid(z2 @ params["act_w"] + params["act_b"])
    mus = (z2 @ params["mu_w"] + params["mu_b"]).reshape(n, a, m, 4)
    weights = sigmas = None
    if cfg.use_mdn:
        wlog = (z2 @ params["wlog_w"] + params["wlog_b"]).reshape(n, a, m)
        weights = _softmax_rows(wlog)
        raw = (z2 @ params["sig_w"] + params["sig_b"]).reshape(n, a, m, 4)
        sigmas = cfg.sigma_floor + softplus(raw)
    return HumanOutput(action_scores=scores, mus=mus, weights=weights,
                       sigmas=sigmas, hidden=z2)


def interaction_human_logits(hidden, params, cfg: HeadConfig) -> np.ndarray:
    """Per-RoI action logits on the human side, from the cached
    human-centric trunk output. Unused (zero) in concat_mlp mode, which
    pairs trunk outputs instead of logits."""
    hidden = np.atleast_2d(hidden)
    if cfg.pairwise_mode != "logit_sum":
        return np.zeros((len(hidden), cfg.num_actions))
    if cfg.share_interaction_head:
        return hidden @ params["act_w"] + params["act_b"]
    return hidden @ params["int_h_w"] + params["int_h_b"]


def interaction_object_logits(feat, params, cfg: HeadConfig):
    """Object-side per-RoI logits plus the trunk output (cached by
    callers for the concat_mlp pairing)."""
    feats = _as_matrix(feat.values if hasattr(feat, "values") else feat,
                       cfg.feature_dim)
    z2, _ = _trunk_forward(feats, params, "int")
    if cfg.pairwise_mode == "logit_sum":
        return z2 @ params["int_o_w"] + params["int_o_b"], z2
    return np.zeros((len(feats), cfg.num_actions)), z2


def pair_scores(logit_h, logit_o, hidden_h, hidden_o, params,
                cfg: HeadConfig) -> np.ndarray:
    """Combine cached per-RoI quantities into the pairwise action scores.

    One human's row broadcasts against many objects' rows; only the
    mode's own inputs are read (logits for logit_sum, trunk outputs for
    concat_mlp).
    """
    if cfg.pairwise_mode == "logit_sum":
        p, _ = _clip_sigmoid(np.asarray(logit_h) + np.asarray(logit_o))
        return p
    hh, ho = np.atleast_2d(hidden_h), np.atleast_2d(hidden_o)
    z = np.concatenate([np.broadcast_to(hh, (len(ho), hh.shape[1])), ho],
                       axis=1)
    mlp = _relu(z @ params["cm_fc1_w"] + params["cm_fc1_b"])
    p, _ = _clip_sigmoid(mlp @ params["cm_fc2_w"] + params["cm_fc2_b"])
    return p[0] if np.ndim(hidden_o) == 1 else p


# --- training batch and backward pass -------------------------------------


@dataclass
class ImageSamples:
    """One image's training samples; empty sections use length-0 arrays.

    Object section: features, integer class labels (0 = background),
    regression targets for the labeled class, and a mask marking which
    rows regress. Human section: features, (N, A) multi-hot action
    targets, (N, A, 4) ground-truth offsets with an (N, A) defined mask.
    Interaction section: ground-truth pair features and (N, A) multi-hot
    action targets; positives only by construction.
    """

    object_feats: np.ndarray
    object_labels: np.ndarray
    object_reg_targets: np.ndarray
    object_reg_mask: np.ndarray
    human_feats: np.ndarray
    human_action_targets: np.ndarray
    human_target_offsets: np.ndarray
    human_target_mask: np.ndarray
    interaction_h_feats: np.ndarray
    interaction_o_feats: np.ndarray
    interaction_action_targets: np.ndarray

    @classmethod
    def empty(cls, cfg: HeadConfig) -> "ImageSamples":
        d, a = cfg.feature_dim, cfg.num_actions
        return cls(
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


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def _stack(images, name) -> np.ndarray:
    return np.concatenate([np.asarray(getattr(img, name)) for img in images])


def _stack_feats(images, name, dim):
    """One section's feature rows of every image, and each image's count."""
    mats = [_as_matrix(getattr(img, name), dim) for img in images]
    return np.concatenate(mats), np.array([len(m) for m in mats])


def _row_weights(counts, k) -> np.ndarray:
    """1/(k c_i) for each of the c_i rows of image i."""
    counts = np.asarray(counts)
    return np.repeat(1.0 / (k * np.maximum(counts, 1)), counts)


def _bce_rows(p, targets) -> np.ndarray:
    """Binary cross-entropy of each row, summed over the actions."""
    return np.sum(-(targets * np.log(p) + (1 - targets) * np.log(1 - p)),
                  axis=1)


def _backward_object(images, params, cfg, grads, cls_scale, reg_scale):
    feats, counts = _stack_feats(images, "object_feats", cfg.feature_dim)
    n = len(feats)
    if n == 0:
        return 0.0, 0.0
    w = _row_weights(counts, len(images))
    labels = _stack(images, "object_labels").astype(int)
    rows = np.arange(n)
    z2, cache = _trunk_forward(feats, params, "obj")
    logits = z2 @ params["obj_cls_w"] + params["obj_cls_b"]
    inside = np.abs(logits) < LOGIT_CLIP
    probs = _softmax_rows(logits)
    p_true = probs[rows, labels]
    clamped = p_true < PROB_EPS
    cls_loss = float(w @ -np.log(np.maximum(p_true, PROB_EPS)))

    d_logits = probs.copy()
    d_logits[rows, labels] -= 1.0
    d_logits[clamped] = 0.0
    d_logits *= inside
    d_logits *= (cls_scale * w)[:, None]

    reg_pre = z2 @ params["obj_reg_w"] + params["obj_reg_b"]
    deltas = reg_pre.reshape(n, cfg.num_object_classes + 1, 4)
    reg = np.flatnonzero(_stack(images, "object_reg_mask").astype(bool))
    pred = deltas[reg, labels[reg]]
    target = _stack(images, "object_reg_targets").reshape(n, 4)[reg]
    reg_loss = float(w[reg] @ smooth_l1(pred, target))
    d_deltas = np.zeros_like(deltas)
    d_deltas[reg, labels[reg]] = (smooth_l1_grad(pred, target)
                                  * (reg_scale * w[reg])[:, None])
    d_reg_pre = d_deltas.reshape(n, -1)

    grads["obj_cls_w"] += z2.T @ d_logits
    grads["obj_cls_b"] += d_logits.sum(axis=0)
    grads["obj_reg_w"] += z2.T @ d_reg_pre
    grads["obj_reg_b"] += d_reg_pre.sum(axis=0)
    d_z2 = d_logits @ params["obj_cls_w"].T + d_reg_pre @ params["obj_reg_w"].T
    _trunk_backward(d_z2, cache, params, grads, "obj")
    return cls_loss, reg_loss


def _backward_human(images, params, cfg, grads, act_scale, loc_scale):
    feats, counts = _stack_feats(images, "human_feats", cfg.feature_dim)
    n = len(feats)
    if n == 0:
        return 0.0, 0.0
    k = len(images)
    a, m = cfg.num_actions, cfg.density_M
    w = _row_weights(counts, k)
    targets = _stack(images, "human_action_targets").astype(np.float64)
    z2, cache = _trunk_forward(feats, params, "hum")

    logits = z2 @ params["act_w"] + params["act_b"]
    p, mask = _clip_sigmoid(logits)
    act_loss = float(w @ _bce_rows(p, targets))
    d_logits = (p - targets) * mask * (act_scale * w)[:, None]
    grads["act_w"] += z2.T @ d_logits
    grads["act_b"] += d_logits.sum(axis=0)
    d_z2 = d_logits @ params["act_w"].T

    # the defined (row, action) offsets, image by image
    ii, jj, offsets, loc_counts = [], [], [], []
    for img, start in zip(images, np.cumsum(counts) - counts):
        r, c = np.nonzero(np.asarray(img.human_target_mask, dtype=bool))
        ii.append(r + start)
        jj.append(c)
        offsets.append(np.asarray(img.human_target_offsets)[r, c])
        loc_counts.append(len(r))
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    loc_loss = 0.0
    if len(ii):
        offsets = np.concatenate(offsets)
        v = _row_weights(loc_counts, k)
        scale = loc_scale * v
        mus = (z2 @ params["mu_w"] + params["mu_b"]).reshape(n, a, m, 4)
        d_mus = np.zeros_like(mus)
        if cfg.use_mdn:
            wlogs = (z2 @ params["wlog_w"] + params["wlog_b"]).reshape(n, a, m)
            raws = (z2 @ params["sig_w"] + params["sig_b"]).reshape(n, a, m, 4)
            nll, d_lg, d_mu, d_rw = mdn_nll_grad(
                offsets, wlogs[ii, jj], mus[ii, jj], raws[ii, jj],
                sigma_floor=cfg.sigma_floor,
            )
            loc_loss = float(v @ nll)
            d_wlogs = np.zeros_like(wlogs)
            d_raws = np.zeros_like(raws)
            d_wlogs[ii, jj] = d_lg * scale[:, None]
            d_mus[ii, jj] = d_mu * scale[:, None, None]
            d_raws[ii, jj] = d_rw * scale[:, None, None]
            d_wlog_pre = d_wlogs.reshape(n, -1)
            d_sig_pre = d_raws.reshape(n, -1)
            grads["wlog_w"] += z2.T @ d_wlog_pre
            grads["wlog_b"] += d_wlog_pre.sum(axis=0)
            grads["sig_w"] += z2.T @ d_sig_pre
            grads["sig_b"] += d_sig_pre.sum(axis=0)
            d_z2 += d_wlog_pre @ params["wlog_w"].T
            d_z2 += d_sig_pre @ params["sig_w"].T
        else:
            pred = mus[ii, jj, 0]
            loc_loss = float(v @ smooth_l1(pred, offsets))
            d_mus[ii, jj, 0] = smooth_l1_grad(pred, offsets) * scale[:, None]
        d_mu_pre = d_mus.reshape(n, -1)
        grads["mu_w"] += z2.T @ d_mu_pre
        grads["mu_b"] += d_mu_pre.sum(axis=0)
        d_z2 += d_mu_pre @ params["mu_w"].T

    _trunk_backward(d_z2, cache, params, grads, "hum")
    return act_loss, loc_loss


def _backward_interaction(images, params, cfg, grads, scale):
    feats_h, counts = _stack_feats(images, "interaction_h_feats",
                                   cfg.feature_dim)
    feats_o, counts_o = _stack_feats(images, "interaction_o_feats",
                                     cfg.feature_dim)
    n = len(feats_h)
    if n == 0 or not cfg.use_interaction_branch:
        return 0.0
    if not np.array_equal(counts, counts_o):
        raise ConfigError("interaction feature pair counts differ")
    w = _row_weights(counts, len(images))
    targets = _stack(images, "interaction_action_targets").astype(np.float64)
    z2h, cache_h = _trunk_forward(feats_h, params, "hum")
    z2o, cache_o = _trunk_forward(feats_o, params, "int")

    if cfg.pairwise_mode == "logit_sum":
        h_key = ("act_w", "act_b") if cfg.share_interaction_head else \
            ("int_h_w", "int_h_b")
        lh = z2h @ params[h_key[0]] + params[h_key[1]]
        lo = z2o @ params["int_o_w"] + params["int_o_b"]
        p, mask = _clip_sigmoid(lh + lo)
        loss = float(w @ _bce_rows(p, targets))
        d_sum = (p - targets) * mask * (scale * w)[:, None]
        grads[h_key[0]] += z2h.T @ d_sum
        grads[h_key[1]] += d_sum.sum(axis=0)
        grads["int_o_w"] += z2o.T @ d_sum
        grads["int_o_b"] += d_sum.sum(axis=0)
        d_z2h = d_sum @ params[h_key[0]].T
        d_z2o = d_sum @ params["int_o_w"].T
    else:
        z = np.concatenate([z2h, z2o], axis=1)
        pre1 = z @ params["cm_fc1_w"] + params["cm_fc1_b"]
        hid = _relu(pre1)
        logits = hid @ params["cm_fc2_w"] + params["cm_fc2_b"]
        p, mask = _clip_sigmoid(logits)
        loss = float(w @ _bce_rows(p, targets))
        d_logits = (p - targets) * mask * (scale * w)[:, None]
        grads["cm_fc2_w"] += hid.T @ d_logits
        grads["cm_fc2_b"] += d_logits.sum(axis=0)
        d_hid = d_logits @ params["cm_fc2_w"].T
        d_pre1 = d_hid * (pre1 > 0)
        grads["cm_fc1_w"] += z.T @ d_pre1
        grads["cm_fc1_b"] += d_pre1.sum(axis=0)
        d_z = d_pre1 @ params["cm_fc1_w"].T
        h = cfg.hidden_dim
        d_z2h, d_z2o = d_z[:, :h], d_z[:, h:]

    _trunk_backward(d_z2h, cache_h, params, grads, "hum")
    _trunk_backward(d_z2o, cache_o, params, grads, "int")
    return loss


def backward(batch, params, cfg: HeadConfig, weights: LossWeights = LossWeights()):
    """Mean over the batch's images of each image's multi-task loss, with
    exact gradients for every parameter plus the loss breakdown.

    Each branch stacks the rows of all k images and runs one forward and
    backward pass. A row of image i weighs 1/(k n_i), n_i being the
    image's rows in that section, and a defined target offset weighs
    1/(k count_i), count_i being the image's defined offsets: every term
    is the mean over images of the per-image mean, and an image with an
    empty section adds nothing to that term.
    """
    images = list(batch)
    if not images:
        raise ConfigError("backward needs at least one image")
    grads = zero_grads(params)
    report = LossReport()
    report.object_cls_loss, report.object_reg_loss = _backward_object(
        images, params, cfg, grads, weights.object_cls, weights.object_reg)
    report.action_cls_loss, report.target_loc_loss = _backward_human(
        images, params, cfg, grads, weights.action_cls, weights.target_loc)
    report.interaction_cls_loss = _backward_interaction(
        images, params, cfg, grads, weights.interaction_cls)
    report.compute_total(weights)
    for name, value in report.as_dict().items():
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss term {name}")
    return grads, report


def sgd_step(params, grads, velocity, lr, momentum=0.9, weight_decay=0.0001):
    """v <- momentum v + g + wd p;  p <- p - lr v. Mutates in place."""
    for name in params:
        v = momentum * velocity[name] + grads[name] + weight_decay * params[name]
        velocity[name] = v
        params[name] = params[name] - lr * v
    return params, velocity


def init_velocity(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


# --- checkpoints -----------------------------------------------------------


@dataclass
class Checkpoint:
    params: dict
    config: HeadConfig
    actions: list | None


def save_checkpoint(path, params, cfg: HeadConfig, actions=None) -> None:
    check_params(params, cfg)
    names = [name for name, _, _ in _param_specs(cfg)]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "actions": actions,
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<Q", len(blob)))
    buf.write(blob)
    for n in names:
        buf.write(np.ascontiguousarray(params[n], dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


class CheckpointError(ValueError):
    pass


def load_checkpoint(path) -> Checkpoint:
    """Parameters, head config and action registry of a checkpoint file;
    a file this function cannot read as one is a CheckpointError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = len(CHECKPOINT_MAGIC) + 8
    if len(raw) < off or raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic or preamble")
    (hlen,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})")
    off += hlen
    try:
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version "
                                  f"{header.get('format_version')!r}")
        cfg = HeadConfig(**header["config"])
        specs = [(str(t["name"]), tuple(int(n) for n in t["shape"]))
                 for t in header["tensors"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc!r})")
    params = {}
    for name, shape in specs:
        size = int(np.prod(shape)) if shape else 1
        nbytes = size * 4
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated tensor {name}")
        arr = np.frombuffer(raw, dtype="<f4", count=size, offset=off)
        params[name] = arr.astype(np.float64).reshape(shape)
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    check_params(params, cfg)
    return Checkpoint(params=params, config=cfg, actions=header.get("actions"))
