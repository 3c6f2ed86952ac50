"""Target-localization mathematics.

Given a person box, the head network predicts where that person's
interaction target should sit, expressed as a density over 4-d relative
offsets (tx, ty, tw, th). Two families are implemented:

* a fixed-width unnormalized Gaussian compatibility
  ``exp(-||d - mu||^2 / (2 sigma^2))`` used for ranking candidate
  objects (only relative order matters, so the normalizer is dropped);
* a diagonal-covariance Gaussian mixture with learned weights, means
  and widths, trained by negative log likelihood. Its densities are
  fully normalized because the likelihood objective requires it.

The mixture widths are parametrized as ``sigma_floor + softplus(raw)``
to keep them positive and bounded away from zero; the floor defaults to
0.3, as does the fixed sigma.

Also here: the smooth L1 regression loss for mean-only training, and a
seeded k-means over observed offsets that serves as the
non-instance-aware baseline (score = max over cluster centers of the
fixed-width compatibility).

The compatibility functions take one offset or a ``(..., 4)`` array of
them, broadcasting against the density parameters, so the cascade scores
every (candidate, action) pair of a human in one call. The training
losses (:func:`smooth_l1`, :func:`mdn_nll_grad`) broadcast the same way,
so a training step takes all of its regression rows in one call. One
offset and many go through the same arithmetic and give the same bits.
"""

from __future__ import annotations

import warnings

import numpy as np

DEFAULT_SIGMA = 0.3
DEFAULT_SIGMA_FLOOR = 0.3
LOG_2PI = float(np.log(2.0 * np.pi))


def _offsets(x) -> np.ndarray:
    """(..., 4) float array of offsets; a RelOffset becomes (4,)."""
    arr = np.asarray(getattr(x, "as_tuple", lambda: x)(), dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != 4:
        raise ValueError(f"expected (..., 4) offsets, got shape {arr.shape}")
    return arr


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def gaussian_compat(b_rel, mu, sigma: float = DEFAULT_SIGMA):
    """Unnormalized isotropic compatibility in (0, 1].

    Equals 1 exactly when the offset sits at the predicted mean and
    decays with squared distance at scale sigma. Offsets and means
    broadcast over leading axes; a single pair gives a float. The
    squared distance is a stacked (1, 4) @ (4, 1) product, which numpy
    evaluates as the same dot product for one pair or many.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    d = _offsets(b_rel) - _offsets(mu)
    sq = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
    return _scalar_or_array(np.exp(-sq / (2.0 * sigma * sigma)))


def component_log_densities(b_rel, mus, sigmas) -> np.ndarray:
    """Log of the normalized diagonal Gaussian density of each component.

    b_rel: (..., 4); mus, sigmas: (..., M, 4). Returns (..., M).
    """
    b = _offsets(b_rel)
    mus, sigmas = (np.asarray(x, dtype=np.float64) for x in (mus, sigmas))
    if mus.ndim < 2:
        mus, sigmas = mus.reshape(-1, 4), sigmas.reshape(-1, 4)
    z = (b[..., None, :] - mus) / sigmas
    return -2.0 * LOG_2PI - np.log(sigmas).sum(axis=-1) - 0.5 * (z * z).sum(axis=-1)


def mixture_compat(b_rel, weights, mus, sigmas):
    """Normalized mixture density sum_m w_m N(b_rel | mu_m, diag(sigma_m^2)).

    weights: (..., M); broadcasts like :func:`component_log_densities`;
    a single offset gives a float.
    """
    w = np.asarray(weights, dtype=np.float64)
    logs = component_log_densities(b_rel, mus, sigmas)
    return _scalar_or_array(np.sum(w * np.exp(logs), axis=-1))


def mdn_nll_grad(b_rel, w_logits, mus, raw_sigmas,
                 sigma_floor: float = DEFAULT_SIGMA_FLOOR):
    """NLL of one offset under mixture parameters in head form, with
    gradients taken w.r.t. the head outputs themselves.

    Head form means: mixing weights are ``softmax(w_logits)`` and widths
    are ``sigma_floor + softplus(raw_sigmas)``.

    Returns (nll, d_logits (M,), d_mus (M, 4), d_raw_sigmas (M, 4)).
    Offsets of shape (..., 4) with parameters (..., M) and (..., M, 4)
    give one row per offset: nll (...,) and gradients with the same
    leading axes, each row equal to its single-offset call.
    """
    b = _offsets(b_rel)
    lead = b.shape[:-1]
    logits = np.asarray(w_logits, dtype=np.float64).reshape(lead + (-1,))
    mus = np.asarray(mus, dtype=np.float64).reshape(lead + (-1, 4))
    raw = np.asarray(raw_sigmas, dtype=np.float64).reshape(lead + (-1, 4))
    w = softmax(logits)
    sigmas = sigma_floor + softplus(raw)

    log_comp = component_log_densities(b, mus, sigmas)
    score = np.log(w) + log_comp
    peak = score.max(axis=-1, keepdims=True)
    lse = peak + np.log(np.exp(score - peak).sum(axis=-1, keepdims=True))
    nll = -lse[..., 0]
    resp = np.exp(score - lse)  # posterior responsibilities, sums to 1

    d_logits = w - resp
    diff = mus - b[..., None, :]
    d_mus = resp[..., None] * diff / (sigmas * sigmas)
    d_sigmas = resp[..., None] * (1.0 / sigmas - diff * diff / sigmas**3)
    d_raw = d_sigmas * sigmoid(raw)
    return _scalar_or_array(nll), d_logits, d_mus, d_raw


def smooth_l1(pred, target):
    """Sum over the 4 coordinates of the Huber-style loss:
    0.5 d^2 for |d| < 1, |d| - 0.5 otherwise. Rows of (..., 4) arrays
    give one loss each; a single pair gives a float."""
    d = _offsets(pred) - _offsets(target)
    a = np.abs(d)
    per = np.where(a < 1.0, 0.5 * d * d, a - 0.5)
    return _scalar_or_array(per.sum(axis=-1))


def smooth_l1_grad(pred, target) -> np.ndarray:
    """Gradient of :func:`smooth_l1` w.r.t. ``pred``: d clipped to [-1, 1]."""
    d = _offsets(pred) - _offsets(target)
    return np.clip(d, -1.0, 1.0)


def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


def sigmoid(x):
    """1 / (1 + e^-x); neither branch's exponent is ever positive, so
    neither overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, 0))
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.maximum(x, 0))),
                    e / (1.0 + e))


def softmax(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def kmeans_offsets(offsets: np.ndarray, k: int, seed: int,
                   max_iter: int = 100) -> np.ndarray:
    """Lloyd's algorithm on 4-d offsets with k-means++ style seeding.

    Returns (k', 4) centers where k' = min(k, len(offsets)); a reduced
    k is reported with a warning. The clustering objective (sum of
    squared distances to assigned centers) is non-increasing across
    iterations by construction of the two Lloyd steps.
    """
    pts = np.asarray(offsets, dtype=np.float64).reshape(-1, 4)
    n = len(pts)
    if n == 0:
        raise ValueError("k-means needs at least one offset")
    if k < 1:
        raise ValueError("k must be positive")
    if n < k:
        warnings.warn(f"only {n} offsets for k={k}; reducing k to {n}")
        k = n
    rng = np.random.default_rng(seed)

    # k-means++ seeding: first center uniform, then proportional to
    # squared distance from the nearest chosen center.
    centers = np.empty((k, 4))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = centers[0]
            break
        probs = d2 / total
        centers[j] = pts[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((pts - centers[j]) ** 2).sum(axis=1))

    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if np.array_equal(new_assign, assign) and _ > 0:
            break
        assign = new_assign
        for j in range(k):
            mask = assign == j
            if mask.any():
                centers[j] = pts[mask].mean(axis=0)
    return centers


def kmeans_compat(b_rel, centers: np.ndarray, sigma: float = DEFAULT_SIGMA):
    """Baseline compatibility: max over cluster centers of the
    fixed-width Gaussian score, i.e. distance to the nearest mode.
    Offsets broadcast over leading axes; a single one gives a float."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 4)
    b = _offsets(b_rel)
    return _scalar_or_array(
        np.max(gaussian_compat(b[..., None, :], centers, sigma), axis=-1))
