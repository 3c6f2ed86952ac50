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

Training and inference call the same head functions: each head's
formula is written once, and both the public forwards and ``backward``
call it; ``backward`` adds only the losses and their gradients.
``backward`` takes a :class:`Batch`, every image's rows stacked section
by section, and runs each branch once over its section's rows.

Parameters are :class:`FlatTensors` (named views of one vector), as
:func:`init_params` and :func:`load_checkpoint` return them.

Numeric conventions: the functions compute in the dtype of the
parameters they are given. Features are converted to it once, where a
branch takes them, and every trunk product and gradient is in it; the
small per-row head math (softmax, sigmoid, density terms) runs in
float64 and is rounded to the parameters' dtype before it meets a
trunk product. Float32 is the precision of checkpoint files:
``train`` holds its parameters, gradients and momentum in it, and
:func:`load_checkpoint` returns the stored float32 values, so inference
from a checkpoint runs in float32 and scores as the parameters
``train`` returned do; :func:`init_params` returns float64. Logits
are clamped to +-30 before exponentiation and probabilities to
[1e-7, 1 - 1e-7], with gradients defined as zero in the clamped
regions.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

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
from .geometry import FLOAT32_MAX

LOGIT_CLIP = 30.0
PROB_EPS = 1e-7

CHECKPOINT_MAGIC = b"HOICKPT1"
CHECKPOINT_VERSION = 1

PAIRWISE_MODES = ("logit_sum", "concat_mlp")


class ConfigError(ValueError):
    pass


def check_float32(**values) -> None:
    """ConfigError naming the first of ``values`` beyond float32's largest
    finite value: training runs in float32, where it is an infinity."""
    for name, value in values.items():
        if value > FLOAT32_MAX:
            raise ConfigError(f"{name} {value!r} is beyond float32's largest "
                              f"value {FLOAT32_MAX!r}")


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
        if any(type(d) is not int for d in dims):  # a boolean is not one
            raise ConfigError("all dimensions must be integers")
        if min(dims) < 1:
            raise ConfigError("all dimensions must be positive")
        if self.pairwise_mode not in PAIRWISE_MODES:
            raise ConfigError(f"invalid pairwise_mode {self.pairwise_mode!r}")
        if not self.use_mdn and self.density_M != 1:
            raise ConfigError("density_M > 1 requires the MDN path")
        if not (0 < self.sigma < math.inf
                and 0 < self.sigma_floor < math.inf):  # also rejects NaN
            raise ConfigError("sigma values must be positive and finite")


@dataclass(frozen=True)
class LossWeights:
    object_cls: float = 1.0
    object_reg: float = 1.0
    action_cls: float = 2.0  # human-centric action term counts double
    target_loc: float = 1.0
    interaction_cls: float = 1.0

    def __post_init__(self):
        if not all(0 <= w < math.inf for w in asdict(self).values()):
            raise ConfigError("loss weights must be nonnegative and finite")
        check_float32(**asdict(self))


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
        return asdict(self)


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


def init_params(cfg: HeadConfig, seed: int = 0) -> FlatTensors:
    """Zero biases, weights uniform in +-1/sqrt(fan-in) (x 0.01 for heads)."""
    rng = np.random.default_rng(seed)
    specs = _param_specs(cfg)
    params = FlatTensors({name: np.zeros(shape) for name, shape, _ in specs},
                         values=False)
    for name, shape, kind in specs:
        if kind != "bias":
            bound = 1.0 / np.sqrt(shape[0])
            w = rng.uniform(-bound, bound, size=shape)
            params[name][...] = w * 0.01 if kind == "head" else w
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


def _clip_probs(logits):
    """Clamped sigmoid: the logits clipped to +-LOGIT_CLIP, the
    probabilities to [PROB_EPS, 1 - PROB_EPS]."""
    return np.clip(sigmoid(np.clip(logits, -LOGIT_CLIP, LOGIT_CLIP)),
                   PROB_EPS, 1.0 - PROB_EPS)


def _clip_sigmoid(logits):
    """Clamped sigmoid plus the mask where gradients pass: where neither
    clamp acts. A probability strictly inside the clamp is the unclamped
    sigmoid, so the mask reads it rather than the raw sigmoid."""
    p = _clip_probs(logits)
    mask = (
        (np.abs(logits) < LOGIT_CLIP)
        & (p > PROB_EPS)
        & (p < 1.0 - PROB_EPS)
    )
    return p, mask


def _softmax_rows(logits):
    return softmax(np.clip(logits, -LOGIT_CLIP, LOGIT_CLIP))


def _as_matrix(feats, dim, dtype=np.float64):
    arr = np.asarray(feats, dtype=dtype)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ConfigError(f"feature shape {arr.shape} incompatible with dim {dim}")
    return arr


def _features(feats, params, cfg: HeadConfig):
    """A branch's feature rows as a matrix in the parameters' dtype
    (inference's float64 pooled rows are rounded here; training's are
    float32 already)."""
    return _as_matrix(feats, cfg.feature_dim, _dtype(params))


def _linear(x, params, name):
    return x @ params[f"{name}_w"] + params[f"{name}_b"]


def _linear_backward(d_out, x, params, grads, name):
    """Accumulate the gradients of layer ``name`` applied to ``x``, given
    the gradient of its output; returns the gradient of ``x``. The
    products run in ``x``'s dtype, which a float64 ``d_out`` would
    otherwise widen."""
    d_out = d_out.astype(x.dtype, copy=False)
    grads[f"{name}_w"] += x.T @ d_out
    grads[f"{name}_b"] += d_out.sum(axis=0)
    return d_out @ params[f"{name}_w"].T


def _trunk_forward(feats, params, prefix):
    a1 = _linear(feats, params, f"{prefix}_fc1")
    z1 = _relu(a1)
    a2 = _linear(z1, params, f"{prefix}_fc2")
    z2 = _relu(a2)
    return z2, (feats, a1, z1, a2)


def _trunk_backward(d_z2, cache, params, grads, prefix):
    feats, a1, z1, a2 = cache
    d_z1 = _linear_backward(d_z2 * (a2 > 0), z1, params, grads,
                            f"{prefix}_fc2")
    # the pooled features take no gradient, so the first layer stops here
    d_a1 = d_z1 * (a1 > 0)
    grads[f"{prefix}_fc1_w"] += feats.T @ d_a1
    grads[f"{prefix}_fc1_b"] += d_a1.sum(axis=0)


# --- heads and forward passes ---------------------------------------------


def _object_head(z2, params, cfg: HeadConfig):
    """Class logits (N, C+1) and per-class box deltas (N, C+1, 4)."""
    deltas = _linear(z2, params, "obj_reg").reshape(
        len(z2), cfg.num_object_classes + 1, 4)
    return _linear(z2, params, "obj_cls"), deltas


def _human_head(z2, params, cfg: HeadConfig):
    """Action logits (N, A) and target means (N, A, M, 4), plus the MDN's
    weight logits (N, A, M) and raw widths (N, A, M, 4), None without it."""
    n, a, m = len(z2), cfg.num_actions, cfg.density_M
    logits = _linear(z2, params, "act")
    mus = _linear(z2, params, "mu").reshape(n, a, m, 4)
    if not cfg.use_mdn:
        return logits, mus, None, None
    return (logits, mus, _linear(z2, params, "wlog").reshape(n, a, m),
            _linear(z2, params, "sig").reshape(n, a, m, 4))


def _human_pair_layer(cfg: HeadConfig) -> str:
    """The human side's logit_sum layer; the action head when shared."""
    return "act" if cfg.share_interaction_head else "int_h"


def _side_logits(z2, params, cfg: HeadConfig, layer: str):
    """One side's per-RoI logit_sum logits from its trunk output; zero in
    concat_mlp mode, which pairs trunk outputs instead of logits."""
    if cfg.pairwise_mode != "logit_sum":
        return np.zeros((len(z2), cfg.num_actions))
    return _linear(z2, params, layer)


def _pair_logits(logit_h, logit_o, hidden_h, hidden_o, params,
                 cfg: HeadConfig):
    """Pair logits, and the concat_mlp layers' inputs (None for logit_sum)."""
    if cfg.pairwise_mode == "logit_sum":
        return logit_h + logit_o, None
    hh, ho = np.atleast_2d(hidden_h), np.atleast_2d(hidden_o)
    z = np.concatenate([np.broadcast_to(hh, (len(ho), hh.shape[1])), ho],
                       axis=1)
    pre = _linear(z, params, "cm_fc1")
    hid = _relu(pre)
    return _linear(hid, params, "cm_fc2"), (z, pre, hid)


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
    z2, _ = _trunk_forward(_features(feat, params, cfg), params, "obj")
    logits, deltas = _object_head(z2, params, cfg)
    return ObjectOutput(probs=_softmax_rows(logits), deltas=deltas, hidden=z2)


def forward_human(feat, params, cfg: HeadConfig) -> HumanOutput:
    z2, _ = _trunk_forward(_features(feat, params, cfg), params, "hum")
    logits, mus, wlogs, raws = _human_head(z2, params, cfg)
    scores = _clip_probs(logits)
    weights = sigmas = None
    if cfg.use_mdn:
        weights = _softmax_rows(wlogs)
        sigmas = cfg.sigma_floor + softplus(raws)
    return HumanOutput(action_scores=scores, mus=mus, weights=weights,
                       sigmas=sigmas, hidden=z2)


def interaction_human_logits(hidden, params, cfg: HeadConfig) -> np.ndarray:
    """Per-RoI action logits on the human side, from the cached
    human-centric trunk output (zero in concat_mlp mode)."""
    return _side_logits(np.atleast_2d(hidden), params, cfg,
                        _human_pair_layer(cfg))


def interaction_object_logits(feat, params, cfg: HeadConfig):
    """Object-side per-RoI logits plus the trunk output (cached by
    callers for the concat_mlp pairing)."""
    z2, _ = _trunk_forward(_features(feat, params, cfg), params, "int")
    return _side_logits(z2, params, cfg, "int_o"), z2


def pair_scores(logit_h, logit_o, hidden_h, hidden_o, params,
                cfg: HeadConfig) -> np.ndarray:
    """Combine cached per-RoI quantities into the pairwise action scores.

    One human's row broadcasts against many objects' rows; only the
    mode's own inputs are read (logits for logit_sum, trunk outputs for
    concat_mlp).
    """
    logits, mlp = _pair_logits(np.asarray(logit_h), np.asarray(logit_o),
                               hidden_h, hidden_o, params, cfg)
    p = _clip_probs(logits)
    return p[0] if mlp is not None and np.ndim(hidden_o) == 1 else p


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


# the per-image row counts that split each section (the first word of
# an ImageSamples field's name)
_SECTION_COUNTS = {"object": "object_counts", "human": "human_counts",
                   "interaction": "pair_counts"}
_FEATURE_FIELDS = ("object_feats", "human_feats", "interaction_h_feats",
                   "interaction_o_feats")


@dataclass
class Batch:
    """k images' samples stacked section by section: ``rows`` holds the
    object rows of image 0, 1, ..., k-1, then likewise the human rows
    and the pair rows, and each section's per-image row counts say
    where an image's rows lie. Iterating yields each image's
    ImageSamples, as views of ``rows``."""

    rows: ImageSamples
    object_counts: np.ndarray
    human_counts: np.ndarray
    pair_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.object_counts)

    def __iter__(self):
        bounds = {section: np.cumsum([0, *getattr(self, counts)]).tolist()
                  for section, counts in _SECTION_COUNTS.items()}
        for i in range(len(self)):
            cut = {section: slice(b[i], b[i + 1])
                   for section, b in bounds.items()}
            yield ImageSamples(**{
                f.name: getattr(self.rows, f.name)[cut[f.name.split("_")[0]]]
                for f in fields(ImageSamples)})

    @classmethod
    def stack(cls, images, dim: int) -> "Batch":
        """The Batch of a sequence of ImageSamples; feature rows must be
        ``dim`` wide (ConfigError otherwise), and an image's pair-human
        and pair-object rows equal in number."""
        feats = {name: [_as_matrix(getattr(img, name), dim)
                        for img in images] for name in _FEATURE_FIELDS}
        counts = {name: np.array([len(m) for m in mats], dtype=int)
                  for name, mats in feats.items()}
        if not np.array_equal(counts["interaction_h_feats"],
                              counts["interaction_o_feats"]):
            raise ConfigError("interaction feature pair counts differ")
        rows = ImageSamples(**{
            f.name: np.concatenate(feats[f.name] if f.name in feats else
                                   [np.asarray(getattr(img, f.name))
                                    for img in images])
            for f in fields(ImageSamples)})
        return cls(rows, counts["object_feats"], counts["human_feats"],
                   counts["interaction_h_feats"])


class FlatTensors(dict):
    """Named tensors, each a view into one contiguous vector of
    ``dtype``, ``vector``, in insertion order, so that an operation on
    every tensor is one operation on the vector. The views start as
    copies of ``tensors`` (rounded to ``dtype``), or as zeros when
    ``values`` is false. Rebinding a name detaches that tensor from the
    vector; write into the view instead."""

    def __init__(self, tensors: dict, values: bool = True,
                 dtype=np.float64):
        super().__init__()
        shapes = {name: np.shape(t) for name, t in tensors.items()}
        self.vector = np.zeros(sum(math.prod(s) for s in shapes.values()),
                               dtype=dtype)
        at = 0
        for name, shape in shapes.items():
            view = self.vector[at:at + math.prod(shape)].reshape(shape)
            if values:
                view[...] = tensors[name]
            self[name] = view
            at += view.size


def _dtype(tensors):
    """The dtype of named tensors, read from the first tensor rather
    than from a vector, so that a plain dict serves as well as
    FlatTensors."""
    return next(iter(tensors.values())).dtype


def zero_grads(params):
    """Zero tensors shaped like ``params``, in their dtype, as
    FlatTensors."""
    return FlatTensors(params, values=False, dtype=_dtype(params))


def _row_weights(counts, k) -> np.ndarray:
    """1/(k c_i) for each of the c_i rows of image i."""
    counts = np.asarray(counts)
    return np.repeat(1.0 / (k * np.maximum(counts, 1)), counts)


def _bce_rows(p, targets) -> np.ndarray:
    """Binary cross-entropy of each row, summed over the actions."""
    return np.sum(-(targets * np.log(p) + (1 - targets) * np.log(1 - p)),
                  axis=1)


def _backward_object(batch: Batch, params, cfg, grads, cls_scale,
                     reg_scale):
    samples = batch.rows
    feats = _features(samples.object_feats, params, cfg)
    n = len(feats)
    if n == 0:
        return 0.0, 0.0
    w = _row_weights(batch.object_counts, len(batch))
    labels = np.asarray(samples.object_labels).astype(int)
    rows = np.arange(n)
    z2, cache = _trunk_forward(feats, params, "obj")
    logits, deltas = _object_head(z2, params, cfg)
    probs = _softmax_rows(logits)
    p_true = probs[rows, labels]
    cls_loss = float(w @ -np.log(np.maximum(p_true, PROB_EPS)))

    d_logits = probs.copy()
    d_logits[rows, labels] -= 1.0
    d_logits[p_true < PROB_EPS] = 0.0
    d_logits *= np.abs(logits) < LOGIT_CLIP
    d_logits *= (cls_scale * w)[:, None]

    reg = np.flatnonzero(np.asarray(samples.object_reg_mask).astype(bool))
    pred = deltas[reg, labels[reg]]
    target = np.asarray(samples.object_reg_targets).reshape(n, 4)[reg]
    reg_loss = float(w[reg] @ smooth_l1(pred, target))
    d_deltas = np.zeros_like(deltas)
    d_deltas[reg, labels[reg]] = (smooth_l1_grad(pred, target)
                                  * (reg_scale * w[reg])[:, None])

    d_z2 = (_linear_backward(d_logits, z2, params, grads, "obj_cls")
            + _linear_backward(d_deltas.reshape(n, -1), z2, params, grads,
                               "obj_reg"))
    _trunk_backward(d_z2, cache, params, grads, "obj")
    return cls_loss, reg_loss


def _backward_human(batch: Batch, params, cfg, grads, act_scale, loc_scale):
    samples = batch.rows
    feats = _features(samples.human_feats, params, cfg)
    n = len(feats)
    if n == 0:
        return 0.0, 0.0
    k = len(batch)
    w = _row_weights(batch.human_counts, k)
    targets = np.asarray(samples.human_action_targets).astype(np.float64)
    z2, cache = _trunk_forward(feats, params, "hum")
    logits, mus, wlogs, raws = _human_head(z2, params, cfg)

    p, mask = _clip_sigmoid(logits)
    act_loss = float(w @ _bce_rows(p, targets))
    d_logits = (p - targets) * mask * (act_scale * w)[:, None]
    d_z2 = _linear_backward(d_logits, z2, params, grads, "act")

    # the defined (row, action) offsets, in row order, and each image's
    # count of them
    ii, jj = np.nonzero(np.asarray(samples.human_target_mask, dtype=bool))
    loc_loss = 0.0
    if len(ii):
        offsets = np.asarray(samples.human_target_offsets)[ii, jj]
        loc_counts = np.diff(np.searchsorted(
            ii, np.cumsum([0, *batch.human_counts])))
        v = _row_weights(loc_counts, k)
        scale = loc_scale * v
        d_mus = np.zeros_like(mus)
        if cfg.use_mdn:
            nll, d_lg, d_mu, d_rw = mdn_nll_grad(
                offsets, wlogs[ii, jj], mus[ii, jj], raws[ii, jj],
                sigma_floor=cfg.sigma_floor,
            )
            loc_loss = float(v @ nll)
            d_wlogs, d_raws = np.zeros_like(wlogs), np.zeros_like(raws)
            d_wlogs[ii, jj] = d_lg * scale[:, None]
            d_mus[ii, jj] = d_mu * scale[:, None, None]
            d_raws[ii, jj] = d_rw * scale[:, None, None]
            d_z2 += _linear_backward(d_wlogs.reshape(n, -1), z2, params,
                                     grads, "wlog")
            d_z2 += _linear_backward(d_raws.reshape(n, -1), z2, params,
                                     grads, "sig")
        else:
            pred = mus[ii, jj, 0]
            loc_loss = float(v @ smooth_l1(pred, offsets))
            d_mus[ii, jj, 0] = smooth_l1_grad(pred, offsets) * scale[:, None]
        d_z2 += _linear_backward(d_mus.reshape(n, -1), z2, params, grads,
                                 "mu")

    _trunk_backward(d_z2, cache, params, grads, "hum")
    return act_loss, loc_loss


def _backward_interaction(batch: Batch, params, cfg, grads, scale):
    samples = batch.rows
    feats_h = _features(samples.interaction_h_feats, params, cfg)
    feats_o = _features(samples.interaction_o_feats, params, cfg)
    n = len(feats_h)
    if n == 0 or not cfg.use_interaction_branch:
        return 0.0
    w = _row_weights(batch.pair_counts, len(batch))
    targets = np.asarray(samples.interaction_action_targets).astype(np.float64)
    z2h, cache_h = _trunk_forward(feats_h, params, "hum")
    z2o, cache_o = _trunk_forward(feats_o, params, "int")
    logits, mlp = _pair_logits(interaction_human_logits(z2h, params, cfg),
                               _side_logits(z2o, params, cfg, "int_o"),
                               z2h, z2o, params, cfg)

    p, mask = _clip_sigmoid(logits)
    loss = float(w @ _bce_rows(p, targets))
    d_logits = (p - targets) * mask * (scale * w)[:, None]
    if mlp is None:
        d_z2h = _linear_backward(d_logits, z2h, params, grads,
                                 _human_pair_layer(cfg))
        d_z2o = _linear_backward(d_logits, z2o, params, grads, "int_o")
    else:
        z, pre, hid = mlp
        d_hid = _linear_backward(d_logits, hid, params, grads, "cm_fc2")
        d_z = _linear_backward(d_hid * (pre > 0), z, params, grads, "cm_fc1")
        d_z2h, d_z2o = np.split(d_z, 2, axis=1)

    _trunk_backward(d_z2h, cache_h, params, grads, "hum")
    _trunk_backward(d_z2o, cache_o, params, grads, "int")
    return loss


def backward(batch, params, cfg: HeadConfig,
             weights: LossWeights = LossWeights(), grads=None):
    """Mean over the batch's images of each image's multi-task loss, with
    exact gradients for every parameter plus the loss breakdown.

    ``batch`` is a :class:`Batch` or a sequence of ImageSamples (stacked
    into one first). Each branch runs one forward and backward pass over
    its section's rows of all k images. A row of image i weighs
    1/(k n_i), n_i being the image's rows in that section, and a defined
    target offset weighs 1/(k count_i), count_i being the image's
    defined offsets: every term is the mean over images of the
    per-image mean, and an image with an empty section adds nothing to
    that term. The gradients are added to ``grads`` when given (zeroed
    tensors named like ``params``), else to a fresh :func:`zero_grads`.
    """
    if not isinstance(batch, Batch):
        images = list(batch)
        if not images:
            raise ConfigError("backward needs at least one image")
        batch = Batch.stack(images, cfg.feature_dim)
    if grads is None:
        grads = zero_grads(params)
    report = LossReport()
    report.object_cls_loss, report.object_reg_loss = _backward_object(
        batch, params, cfg, grads, weights.object_cls, weights.object_reg)
    report.action_cls_loss, report.target_loc_loss = _backward_human(
        batch, params, cfg, grads, weights.action_cls, weights.target_loc)
    report.interaction_cls_loss = _backward_interaction(
        batch, params, cfg, grads, weights.interaction_cls)
    report.compute_total(weights)
    for name, value in report.as_dict().items():
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss term {name}")
    return grads, report


def sgd_step(params, grads, velocity, lr, momentum, weight_decay):
    """v <- momentum v + g + wd p;  p <- p - lr v, in place, on the
    vectors of three FlatTensors of one layout (ValueError when their
    tensor names differ)."""
    if not list(params) == list(grads) == list(velocity):
        raise ValueError("sgd_step needs parameters, gradients and "
                         "velocity with the same tensor names")
    p, v = params.vector, velocity.vector
    v *= momentum
    v += grads.vector
    v += weight_decay * p
    p -= lr * v
    return params, velocity


init_velocity = zero_grads  # the momentum buffers start at zero too


# --- checkpoints -----------------------------------------------------------


@dataclass
class Checkpoint:
    params: FlatTensors
    config: HeadConfig
    actions: list | None


def save_checkpoint(path, params, cfg: HeadConfig, actions=None) -> None:
    """Write ``params`` in float32; a ConfigError, before anything is
    written, when :func:`check_params` refuses them or a value is beyond
    float32's range, where the file could only hold an infinity."""
    check_params(params, cfg)
    names = [name for name, _, _ in _param_specs(cfg)]
    with np.errstate(over="ignore"):
        stored = [np.ascontiguousarray(params[n], dtype="<f4") for n in names]
    for n, t in zip(names, stored):
        if not np.isfinite(t).all():
            value = float(params[n][~np.isfinite(t)][0])
            raise ConfigError(f"parameter {n} holds {value!r}, beyond "
                              f"float32's largest value {FLOAT32_MAX!r}")
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
    for t in stored:
        buf.write(t.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


class CheckpointError(ValueError):
    pass


def load_checkpoint(path) -> Checkpoint:
    """Parameters (float32 FlatTensors, the stored values), head config
    and action registry of a checkpoint file; a file this function
    cannot read as one, or whose header config or tensors
    :class:`HeadConfig` or :func:`check_params` refuses, is a
    CheckpointError naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    off = len(CHECKPOINT_MAGIC) + 8
    if len(raw) < off or raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic or preamble")
    (hlen,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC))
    try:
        header = json.loads(raw[off:off + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})")
    off += hlen
    try:
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version "
                                  f"{header.get('format_version')!r}")
        cfg = HeadConfig(**header["config"])
        specs = [(str(t["name"]), t["shape"]) for t in header["tensors"]]
    except (AttributeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc!r})")
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    for name, shape in specs:
        if (type(shape) is not list
                or not all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"{path}: malformed header (tensor {name} "
                                  f"has shape {json.dumps(shape)})")
    stored = {}
    for name, shape in specs:
        size = math.prod(shape)
        nbytes = size * 4
        if off + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated tensor {name}")
        stored[name] = np.frombuffer(raw, dtype="<f4", count=size,
                                     offset=off).reshape(shape)
        off += nbytes
    if off != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    params = FlatTensors(stored, dtype=np.float32)
    try:
        check_params(params, cfg)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return Checkpoint(params=params, config=cfg, actions=header.get("actions"))
