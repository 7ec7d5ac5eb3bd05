"""ECDF evaluation, quantile, and Kolmogorov-distance contracts.

The KS oracle here recomputes the sup by direct counting at eps-shifted
evaluation points, independent of the searchsorted implementation.
"""

import numpy as np
import pytest

from ojaboot import stats


def ks_bruteforce(xs, ys):
    xs = np.sort(np.asarray(xs, float))
    ys = np.sort(np.asarray(ys, float))
    pts = np.concatenate([xs, ys])
    eps = 1e-9 * max(1.0, np.max(np.abs(pts)))
    best = 0.0
    for t in np.concatenate([pts - eps, pts, pts + eps]):
        ft = np.sum(xs <= t) / xs.size
        gt = np.sum(ys <= t) / ys.size
        best = max(best, abs(ft - gt))
    return best


class TestEcdf:
    def test_direct_counts(self):
        f = stats.ecdf([1.0, 2.0, 3.0])
        assert f(2.0) == pytest.approx(2 / 3)
        assert f(0.5) == 0.0
        assert f(3.0) == 1.0

    def test_ties(self):
        f = stats.ecdf([5.0, 5.0, 5.0])
        assert f(4.9) == 0.0
        assert f(5.0) == 1.0

    def test_single_sample_step(self):
        f = stats.ecdf([2.5])
        assert f(2.4999) == 0.0
        assert f(2.5) == 1.0
        assert f.left_limit(2.5) == 0.0

    def test_monotone_right_continuous(self):
        rng = np.random.default_rng(0)
        f = stats.ecdf(rng.standard_normal(100))
        grid = np.linspace(-4, 4, 500)
        vals = f(grid)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            stats.ecdf([])
        with pytest.raises(ValueError):
            stats.ecdf([1.0, np.inf])


class TestQuantile:
    def test_inverse_cdf_definition(self):
        f = stats.ecdf([1.0, 2.0, 3.0, 4.0])
        assert f.quantile(0.5) == 2.0

    def test_boundaries(self):
        f = stats.ecdf([3.0, 1.0, 2.0])
        assert f.quantile(1.0) == 3.0
        assert f.quantile(0.0) == 1.0

    def test_order_statistic_round_trip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(37)
        f = stats.ecdf(x)
        srt = np.sort(x)
        for k in range(1, 38):
            assert f.quantile(k / 37) == srt[k - 1]

    def test_rejects_out_of_range(self):
        f = stats.ecdf([1.0])
        with pytest.raises(ValueError):
            f.quantile(-0.1)
        with pytest.raises(ValueError):
            f.quantile(1.1)


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 7, 8, 21, 300])
    def test_equals_numpy_median_bitwise(self, size):
        x = np.random.default_rng(size).standard_normal(size)
        assert stats.median(x) == float(np.median(x))


class TestKolmogorovDistance:
    def test_identical_is_zero(self):
        f = stats.ecdf([1.0, 2.0, 2.0, 5.0])
        g = stats.ecdf([2.0, 5.0, 1.0, 2.0])
        assert stats.kolmogorov_distance(f, g) == 0.0

    def test_disjoint_point_masses(self):
        assert stats.kolmogorov_distance(stats.ecdf([0.0]), stats.ecdf([1.0])) == 1.0

    def test_interleaved_jumps(self):
        # jumps at 1, 1.5, 2; the sup 0.5 shows up between 1 and 2
        f = stats.ecdf([1.0, 2.0])
        g = stats.ecdf([1.5])
        assert stats.kolmogorov_distance(f, g) == pytest.approx(0.5)

    def test_matches_bruteforce_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            xs = rng.standard_normal(rng.integers(1, 40))
            ys = rng.standard_normal(rng.integers(1, 40)) * 1.3 + 0.2
            f, g = stats.ecdf(xs), stats.ecdf(ys)
            d = stats.kolmogorov_distance(f, g)
            assert d == pytest.approx(ks_bruteforce(xs, ys), abs=1e-12)
            points = np.union1d(xs, ys)  # distinct pooled jumps give the same value
            assert d == max(np.abs(f(points) - g(points)).max(),
                            np.abs(f.left_limit(points) - g.left_limit(points)).max())
            assert d == stats.kolmogorov_distance(g, f)
            assert 0.0 <= d <= 1.0

    def test_zero_iff_same_multiset(self):
        f = stats.ecdf([1.0, 2.0])
        g = stats.ecdf([1.0, 2.0 + 1e-9])
        assert stats.kolmogorov_distance(f, g) > 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = stats.ecdf(rng.standard_normal(25))
            b = stats.ecdf(rng.standard_normal(30) + 0.5)
            c = stats.ecdf(rng.standard_normal(20) * 2.0)
            dab = stats.kolmogorov_distance(a, b)
            dbc = stats.kolmogorov_distance(b, c)
            dac = stats.kolmogorov_distance(a, c)
            assert dac <= dab + dbc + 1e-12
