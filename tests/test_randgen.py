"""Stream determinism and Monte Carlo moment checks for the sampling primitives.

Tolerances are all at least 3 sigma for the stated draw counts.
"""

import numpy as np
import pytest

from ojaboot import randgen


class TestRngStream:
    def test_same_seed_and_path_bit_identical(self):
        a = randgen.RngStream(1234, ("trial", 3))
        b = randgen.RngStream(1234, ("trial", 3))
        np.testing.assert_array_equal(a.normal(0.0, 1.0, 1000), b.normal(0.0, 1.0, 1000))

    def test_distinct_paths_differ(self):
        a = randgen.RngStream(99, (1,))
        b = randgen.RngStream(99, (2,))
        assert not np.array_equal(a.normal(0.0, 1.0, 16), b.normal(0.0, 1.0, 16))

    def test_draws_independent_of_evaluation_order(self):
        first = randgen.RngStream(7, ("trial", 3, "replicate", 7)).normal(0.0, 0.5, 5)
        # interleave with other streams, then re-derive
        randgen.RngStream(7, ("trial", 0)).normal(0.0, 1.0, 100)
        again = randgen.RngStream(7, ("trial", 3, "replicate", 7)).normal(0.0, 0.5, 5)
        np.testing.assert_array_equal(first, again)

    def test_int_and_str_labels_are_distinct(self):
        a = randgen.RngStream(1, (5,)).normal(0.0, 1.0, 8)
        b = randgen.RngStream(1, ("5",)).normal(0.0, 1.0, 8)
        assert not np.array_equal(a, b)

    def test_rejects_bad_labels(self):
        with pytest.raises(TypeError):
            randgen.RngStream(1, (3.5,))
        with pytest.raises(TypeError):
            randgen.RngStream(1, (True,))


class TestNormal:
    def test_zero_variance_returns_mean(self):
        s = randgen.RngStream(0, ())
        assert s.normal(5.0, 0.0) == 5.0

    def test_negative_variance_rejected(self):
        s = randgen.RngStream(0, ())
        with pytest.raises(ValueError):
            s.normal(0.0, -1.0)

    def test_standard_normal_moments(self):
        s = randgen.RngStream(2024, ("normal-moments",))
        z = s.normal(0.0, 1.0, 10**6)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_half_variance(self):
        s = randgen.RngStream(2024, ("multiplier-moments",))
        w = s.normal(0.0, 0.5, 10**6)
        assert abs(w.var() - 0.5) < 0.01

    def test_standard_normal_scaled_once_equals_normal_bitwise(self):
        fresh = randgen.RngStream(8, ("w", 2)).normal(0.0, 0.5, 257)
        buf = np.empty(257)
        assert randgen.RngStream(8, ("w", 2)).standard_normal(out=buf) is buf
        buf *= np.sqrt(0.5)
        assert buf.tobytes() == fresh.tobytes()


class TestUniformSym:
    def test_support(self):
        s = randgen.RngStream(3, ("support",))
        z = s.uniform_sym(10**5)
        assert np.all(z > -1.7321) and np.all(z < 1.7321)

    def test_unit_variance(self):
        s = randgen.RngStream(3, ("uvar",))
        z = s.uniform_sym(10**6)
        assert abs(z.var() - 1.0) < 0.01

    def test_fourth_moment(self):
        # E Z^4 = a^4 / 5 with a = sqrt(3), so KAPPA = 3^2 / 5
        assert randgen.KAPPA == 3**2 / 5
        assert randgen.ROOT3**2 == pytest.approx(3.0, rel=1e-15)
        z4 = randgen.RngStream(3, ("u4",)).uniform_sym(10**6) ** 4
        assert abs(z4.mean() - randgen.KAPPA) <= 5 * z4.std() / np.sqrt(z4.size)

    def test_chunked_draws_equal_bulk(self):
        # the sampling experiment draws each trial's rows in time chunks
        bulk = randgen.RngStream(3, ("chunks",)).uniform_sym((131, 3))
        s = randgen.RngStream(3, ("chunks",))
        chunks = np.vstack([s.uniform_sym((rows, 3)) for rows in (64, 64, 3)])
        np.testing.assert_array_equal(chunks, bulk)


    @pytest.mark.parametrize("size", [None, 7, (13, 5)])
    def test_bitwise_numpy_uniform(self, size):
        # the benchmark's checker recomputes samples with Generator.uniform
        s = randgen.RngStream(3, ())
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence(3, spawn_key=())))
        for _ in range(2):
            np.testing.assert_array_equal(s.uniform_sym(size),
                                          g.uniform(-randgen.ROOT3, randgen.ROOT3, size))


class TestChisq1:
    def test_nonnegative(self):
        s = randgen.RngStream(4, ("chisq-pos",))
        assert np.all(s.chisq1(10**5) >= 0)

    def test_mean(self):
        s = randgen.RngStream(4, ("chisq-mean",))
        assert abs(s.chisq1(10**6).mean() - 1.0) < 0.01

    def test_cdf_at_95th_percentile(self):
        # P(chi^2(1) <= 3.8415) = 0.95
        s = randgen.RngStream(4, ("chisq-cdf",))
        z = s.chisq1(10**6)
        assert abs(np.mean(z <= 3.8415) - 0.95) < 0.005
