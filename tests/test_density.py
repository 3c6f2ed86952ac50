import warnings

import numpy as np
import pytest

from hoidet.density import (
    DEFAULT_SIGMA,
    component_log_densities,
    gaussian_compat,
    kmeans_offsets,
    mdn_nll_grad,
    mixture_compat,
    smooth_l1,
    smooth_l1_grad,
    softmax,
    softplus,
)


def kmeans_compat(b_rel, centers, sigma=DEFAULT_SIGMA):
    """The k-means baseline's compat, as the cascade scores it: the max
    over the centers of the fixed-width compat."""
    b = np.asarray(b_rel, dtype=np.float64)[..., None, :]
    return np.max(gaussian_compat(b, np.reshape(centers, (-1, 4)), sigma),
                  axis=-1)


def mdn_nll(b_rel, weights, mus, sigmas) -> float:
    """Negative log mixture density, computed via log-sum-exp so that
    far-from-mode offsets do not underflow to -log(0)."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    logs = component_log_densities(b_rel, mus, sigmas) + np.log(w)
    peak = logs.max()
    return float(-(peak + np.log(np.exp(logs - peak).sum())))


def inv_softplus(y):
    """Inverse of softplus on y > 0: log(e^y - 1)."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("inv_softplus requires positive input")
    out = y + np.log(-np.expm1(-y))
    return out if out.ndim else float(out)


class TestGaussianCompat:
    def test_zero_distance_is_one(self):
        mu = np.array([0.2, -0.1, 0.3, 0.0])
        assert gaussian_compat(mu, mu, sigma=0.3) == 1.0

    def test_known_value(self):
        # squared distance 0.18 at sigma 0.3 gives exponent exactly -1
        b = np.array([0.3, 0.3, 0.0, 0.0])
        mu = np.zeros(4)
        got = gaussian_compat(b, mu, sigma=0.3)
        np.testing.assert_allclose(got, np.exp(-1.0), rtol=1e-12)

    def test_decreases_with_distance(self):
        rng = np.random.default_rng(7)
        mu = rng.normal(size=4)
        direction = rng.normal(size=4)
        direction /= np.linalg.norm(direction)
        vals = [gaussian_compat(mu + t * direction, mu) for t in (0.0, 0.2, 0.5, 1.1)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_compat(np.zeros(4), np.zeros(4), sigma=0.0)


class TestMixtureCompat:
    def test_mode_value_single_component(self):
        # normalized 4-d isotropic Gaussian at its mean: (2 pi s^2)^-2
        s = 0.5
        mu = np.array([0.1, 0.2, -0.3, 0.4])
        got = mixture_compat(mu, [1.0], [mu], [[s, s, s, s]])
        np.testing.assert_allclose(got, (2.0 * np.pi * s * s) ** -2, rtol=1e-12)

    def test_degenerate_weights_select_first_component(self):
        rng = np.random.default_rng(3)
        mus = rng.normal(size=(2, 4))
        sigmas = 0.3 + rng.random(size=(2, 4))
        b = rng.normal(size=4)
        full = mixture_compat(b, [1.0, 0.0], mus, sigmas)
        first = mixture_compat(b, [1.0], mus[:1], sigmas[:1])
        np.testing.assert_allclose(full, first, rtol=1e-12)

    def test_normalization_by_separable_quadrature(self):
        # For one diagonal component the density factrizes per axis, so
        # the 4-d integral equals (prod of axis trapezoids) / mode^3.
        s = np.array([0.35, 0.5, 0.45, 0.6])
        mu = np.array([0.4, -0.2, 0.1, 0.0])
        mode = mixture_compat(mu, [1.0], [mu], [s])
        axis_integrals = []
        for d in range(4):
            xs = np.linspace(mu[d] - 10 * s[d], mu[d] + 10 * s[d], 4001)
            vals = []
            for x in xs:
                p = mu.copy()
                p[d] = x
                vals.append(mixture_compat(p, [1.0], [mu], [s]))
            axis_integrals.append(np.trapezoid(vals, xs))
        integral = np.prod(axis_integrals) / mode**3
        np.testing.assert_allclose(integral, 1.0, atol=1e-6)

    def test_normalization_by_importance_sampling(self):
        # Two-component mixture; proposal is the same mixture with widths
        # inflated 1.5x, sampled and evaluated with independent numpy code.
        w = np.array([0.4, 0.6])
        mus = np.array([[0.5, -0.3, 0.2, 0.0], [-0.6, 0.4, -0.1, 0.3]])
        sigmas = np.array([[0.45, 0.6, 0.5, 0.7], [0.8, 0.55, 0.65, 0.5]])
        prop_sigmas = 1.5 * sigmas

        rng = np.random.default_rng(20240817)
        n = 40000
        comp = rng.choice(2, size=n, p=w)
        z = mus[comp] + prop_sigmas[comp] * rng.standard_normal((n, 4))

        def diag_pdf(pts, m, s):
            zc = (pts - m) / s
            return np.exp(-0.5 * (zc * zc).sum(axis=1)) / (
                (2 * np.pi) ** 2 * np.prod(s)
            )

        q = w[0] * diag_pdf(z, mus[0], prop_sigmas[0]) + w[1] * diag_pdf(
            z, mus[1], prop_sigmas[1]
        )
        p = np.array([mixture_compat(zi, w, mus, sigmas) for zi in z])
        estimate = float(np.mean(p / q))
        np.testing.assert_allclose(estimate, 1.0, atol=1e-2)

    def test_m1_is_monotone_transform_of_gaussian_compat(self):
        # Same argmax over candidates: the normalizer is a constant factor.
        rng = np.random.default_rng(11)
        mu = rng.normal(size=4) * 0.3
        s = 0.42
        candidates = rng.normal(size=(40, 4))
        fixed = [gaussian_compat(c, mu, sigma=s) for c in candidates]
        mixed = [mixture_compat(c, [1.0], [mu], [[s] * 4]) for c in candidates]
        assert int(np.argmax(fixed)) == int(np.argmax(mixed))
        order_f = np.argsort(fixed)
        order_m = np.argsort(mixed)
        np.testing.assert_array_equal(order_f, order_m)


class TestSmoothL1:
    def test_zero_residual(self):
        v = np.array([0.1, 0.2, 0.3, 0.4])
        assert smooth_l1(v, v) == 0.0

    def test_known_values(self):
        t = np.zeros(4)
        np.testing.assert_allclose(
            smooth_l1(np.array([0.5, 0, 0, 0]), t), 0.125, rtol=1e-12
        )
        np.testing.assert_allclose(
            smooth_l1(np.array([2.0, 0, 0, 0]), t), 1.5, rtol=1e-12
        )
        # mixed-regime sum: 0.125 + 1.5 + 0 + 2.5
        np.testing.assert_allclose(
            smooth_l1(np.array([0.5, -2.0, 0.0, 3.0]), t), 4.125, rtol=1e-12
        )

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pred = rng.normal(size=4) * 2.0
            target = rng.normal(size=4)
            # keep away from the |d| = 1 kink where the loss is not C^2
            pred = np.where(np.abs(np.abs(pred - target) - 1.0) < 1e-3, pred + 0.01, pred)
            g = smooth_l1_grad(pred, target)
            eps = 1e-6
            for i in range(4):
                e = np.zeros(4)
                e[i] = eps
                fd = (smooth_l1(pred + e, target) - smooth_l1(pred - e, target)) / (2 * eps)
                np.testing.assert_allclose(g[i], fd, rtol=1e-4, atol=1e-8)


class TestMdnNll:
    def test_mode_value(self):
        s = 0.5
        mu = np.array([0.0, 0.1, -0.1, 0.2])
        got = mdn_nll(mu, [1.0], [mu], [[s] * 4])
        np.testing.assert_allclose(got, 2.0 * np.log(2 * np.pi * s * s), rtol=1e-12)

    def test_decreases_as_mu_approaches_target(self):
        b = np.array([0.5, 0.5, 0.0, 0.0])
        s = [[0.4] * 4]
        far = mdn_nll(b, [1.0], [np.zeros(4)], s)
        near = mdn_nll(b, [1.0], [b * 0.5], s)
        at = mdn_nll(b, [1.0], [b], s)
        assert far > near > at

    def test_no_underflow_far_from_modes(self):
        b = np.full(4, 50.0)
        val = mdn_nll(b, [1.0], [np.zeros(4)], [[0.3] * 4])
        assert np.isfinite(val) and val > 1000

    def test_grad_matches_value(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=3)
        mus = rng.normal(size=(3, 4))
        raw = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        nll, _, _, _ = mdn_nll_grad(b, logits, mus, raw, sigma_floor=0.3)
        direct = mdn_nll(b, softmax(logits), mus, 0.3 + softplus(raw))
        np.testing.assert_allclose(nll, direct, rtol=1e-12)

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(21)
        eps = 1e-6
        for _ in range(5):
            logits = rng.normal(size=3)
            mus = rng.normal(size=(3, 4)) * 0.5
            raw = rng.normal(size=(3, 4))
            b = rng.normal(size=4) * 0.5

            def value(lg, mu, rw):
                return mdn_nll(b, softmax(lg), mu, 0.3 + softplus(rw))

            _, d_lg, d_mu, d_rw = mdn_nll_grad(b, logits, mus, raw)
            for i in range(3):
                e = np.zeros(3)
                e[i] = eps
                fd = (value(logits + e, mus, raw) - value(logits - e, mus, raw)) / (2 * eps)
                np.testing.assert_allclose(d_lg[i], fd, rtol=1e-4, atol=1e-7)
            for i in range(3):
                for j in range(4):
                    e = np.zeros((3, 4))
                    e[i, j] = eps
                    fd = (value(logits, mus + e, raw) - value(logits, mus - e, raw)) / (2 * eps)
                    np.testing.assert_allclose(d_mu[i, j], fd, rtol=1e-4, atol=1e-7)
                    fd = (value(logits, mus, raw + e) - value(logits, mus, raw - e)) / (2 * eps)
                    np.testing.assert_allclose(d_rw[i, j], fd, rtol=1e-4, atol=1e-7)


class TestSoftplus:
    def test_at_zero(self):
        np.testing.assert_allclose(softplus(0.0), np.log(2.0), rtol=1e-12)

    def test_positive_and_asymptotic(self):
        # -800 underflows to the correctly rounded 0.0 in float64; the
        # point of the extreme inputs is that neither end overflows or warns.
        xs = np.array([-800.0, -700.0, -5.0, 0.0, 5.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ys = softplus(xs)
        assert np.all(ys >= 0)
        assert np.all(ys[1:] > 0)
        np.testing.assert_allclose(ys[-1], 800.0, rtol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=50) * 3.0
        np.testing.assert_allclose(inv_softplus(softplus(xs)), xs, rtol=1e-9, atol=1e-9)
        with pytest.raises(ValueError):
            inv_softplus(-0.1)


class TestKmeans:
    def test_single_point_single_center(self):
        pt = np.array([[0.5, -0.5, 0.1, 0.2]])
        centers = kmeans_offsets(np.repeat(pt, 6, axis=0), k=1, seed=0)
        np.testing.assert_allclose(centers, pt, atol=1e-12)

    def test_recovers_two_separated_clusters(self):
        rng = np.random.default_rng(99)
        a = np.array([2.0, 0.0, 0.0, 0.0]) + 0.05 * rng.standard_normal((40, 4))
        b = np.array([-2.0, 0.0, 0.0, 0.0]) + 0.05 * rng.standard_normal((40, 4))
        pts = np.vstack([a, b])
        centers = kmeans_offsets(pts, k=2, seed=1)
        want = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda c: c[0])
        got = sorted(centers, key=lambda c: c[0])
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_reduces_k_with_warning(self):
        """k falls to the number of offsets; the caller reports it, and
        k-means itself warns of nothing."""
        pts = np.zeros((2, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centers = kmeans_offsets(pts, k=5, seed=0)
        assert centers.shape == (2, 4)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(60, 4))

        def objective(centers):
            d = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            return d.min(axis=1).sum()

        objs = [
            objective(kmeans_offsets(pts, k=3, seed=8, max_iter=it))
            for it in (1, 2, 4, 8, 30)
        ]
        assert all(x >= y - 1e-9 for x, y in zip(objs, objs[1:]))

    def test_compat_is_max_over_centers(self):
        centers = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])
        at_center = kmeans_compat(centers[0], centers)
        np.testing.assert_allclose(at_center, 1.0, rtol=1e-12)
        midpoint = kmeans_compat(np.zeros(4), centers)
        np.testing.assert_allclose(midpoint, gaussian_compat(np.zeros(4), centers[0]))
