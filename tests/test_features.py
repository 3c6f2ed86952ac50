import numpy as np
import pytest

from hoidet.features import (POOLED, FeatureMap, SyntheticFeatureProvider,
                             roi_align)
from hoidet.geometry import Box


def make_map(data, stride=1.0):
    return FeatureMap(np.asarray(data, dtype=float), stride)


class TestFeatureMap:
    @pytest.mark.parametrize("shape, stride, message", [
        ((2, 0, 4), 1.0, "empty axis"),
        ((2, 4, 4), float("nan"), "stride must be positive and finite"),
        ((2, 4, 4), float("inf"), "stride must be positive and finite"),
    ])
    def test_malformed_rejected(self, shape, stride, message):
        with pytest.raises(ValueError, match=message):
            FeatureMap(np.zeros(shape), stride)

    @pytest.mark.parametrize("cell, message", [
        (float("nan"), "non-finite entries"),
        (-float("inf"), "non-finite entries"),
        (1e39, "entry 1e[+]39 is beyond float32's largest value"),
        (-1e39, "entry -1e[+]39 is beyond float32's largest value"),
    ])
    def test_cell_beyond_float32_rejected(self, cell, message):
        data = np.zeros((2, 4, 4))
        data[1, 2, 3] = cell
        with pytest.raises(ValueError, match=message):
            FeatureMap(data, 1.0)


class TestRoiAlign:
    def test_constant_map(self):
        fmap = make_map(np.full((3, 8, 8), 2.5), stride=2.0)
        out = roi_align(fmap, Box(1, 1, 13, 13))
        assert out.values.shape == (3 * POOLED * POOLED,)
        np.testing.assert_allclose(out.values, 2.5)
        assert not out.out_of_bounds

    def test_bilinear_center_sample(self):
        # 2x2 map [[0,1],[2,3]], box covering it exactly: the middle bin
        # of the 5 x 5 grid samples (1.0, 1.0), between all four cell
        # centers -> 1.5
        assert POOLED == 5
        fmap = make_map([[[0.0, 1.0], [2.0, 3.0]]])
        out = roi_align(fmap, Box(0, 0, 2, 2))
        assert out.values.reshape(5, 5)[2, 2] == pytest.approx(1.5,
                                                               abs=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(2, 6, 6))
        big = np.zeros((2, 16, 16))
        big[:, 4:10, 4:10] = base
        shifted = np.zeros((2, 16, 16))
        shifted[:, 7:13, 6:12] = base  # +3 rows, +2 cols
        box = Box(4.3, 4.7, 9.1, 9.6)
        a = roi_align(make_map(big), box).values
        b = roi_align(make_map(shifted), Box(box.x1 + 2, box.y1 + 3, box.x2 + 2, box.y2 + 3)).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 5, 5))
        b = rng.normal(size=(2, 5, 5))
        box = Box(0.7, 1.1, 4.2, 4.9)
        alpha, beta = 1.7, -0.4
        combo = roi_align(make_map(alpha * a + beta * b), box).values
        sep = alpha * roi_align(make_map(a), box).values + beta * roi_align(make_map(b), box).values
        np.testing.assert_allclose(combo, sep, atol=1e-10)

    def test_bounded_by_map_range(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(1, 10, 10))
        fmap = make_map(data, stride=4.0)
        for _ in range(50):
            x1, y1 = rng.uniform(0, 30, 2)
            box = Box(x1, y1, x1 + rng.uniform(1, 9), y1 + rng.uniform(1, 9))
            vals = roi_align(fmap, box).values
            assert vals.min() >= data.min() - 1e-12
            assert vals.max() <= data.max() + 1e-12

    def test_fully_outside_flags_zero(self):
        fmap = make_map(np.ones((2, 4, 4)))
        out = roi_align(fmap, Box(10, 10, 12, 12))
        assert out.out_of_bounds
        np.testing.assert_array_equal(out.values, 0.0)

    def test_partially_outside_clips(self):
        fmap = make_map(np.ones((1, 4, 4)))
        out = roi_align(fmap, Box(-3, -3, 2, 2))
        assert not out.out_of_bounds
        np.testing.assert_allclose(out.values, 1.0)


class TestSyntheticProvider:
    def test_deterministic_and_cached(self):
        rng = np.random.default_rng(6)
        fmap = make_map(rng.normal(size=(3, 8, 8)), stride=2.0)
        prov = SyntheticFeatureProvider({0: fmap})
        box = Box(1, 1, 9, 9)
        a = prov.pooled_matrix(0, [box])[0]
        b = prov.pooled_matrix(0, [box])[0]
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(a, roi_align(fmap, box).values)

    def test_matrix_shape(self):
        fmap = make_map(np.zeros((2, 4, 4)))
        prov = SyntheticFeatureProvider({0: fmap})
        mat = prov.pooled_matrix(0, [Box(0, 0, 2, 2), Box(1, 1, 3, 3)])
        assert mat.shape == (2, 2 * POOLED * POOLED)
        assert prov.pooled_matrix(0, []).shape == (0, 2 * POOLED * POOLED)

