"""Covariance construction, spectral data, sampling laws, and enumeration."""

import math
import types

import numpy as np
import pytest

from ojaboot import linalg, model, randgen


def explicit_law(sigma):
    """A law given only by its covariance, symmetrized as the package's specs are."""
    return types.SimpleNamespace(sigma=linalg.sym(sigma))


def rademacher_e1(d=2):
    # mean-zero two-point law: +/- e1 with probability 1/2 each
    sup = np.zeros((2, d))
    sup[0, 0] = 1.0
    sup[1, 0] = -1.0
    return model.DiscreteSpec(support=sup, probs=np.array([0.5, 0.5]))


class TestKernelCovariance:
    @pytest.mark.parametrize("d,c,beta", [(2, 0.01, 1.0), (10, 0.01, 0.2), (30, 0.5, 1.0)])
    def test_sigma11_is_scale_squared(self, d, c, beta):
        sigma = model.KernelSpec(d, c, beta, 5.0).sigma
        assert sigma[0, 0] == pytest.approx(25.0)

    def test_off_diagonal_value(self):
        # sigma_12 = exp(-0.01) * 5 * (5/2) = 12.5 exp(-0.01)
        sigma = model.KernelSpec(2, 0.01, 1.0, 5.0).sigma
        assert sigma[0, 1] == pytest.approx(12.5 * math.exp(-0.01), rel=1e-12)
        assert sigma[0, 1] == pytest.approx(12.37562, abs=5e-6)

    def test_flat_kernel_is_rank_one(self):
        sigma = model.KernelSpec(4, 0.0, 0.0, 5.0).sigma
        np.testing.assert_allclose(sigma, 25.0 * np.ones((4, 4)))
        vals = linalg.eigh(sigma).eigenvalues
        assert vals[0] == pytest.approx(100.0)
        np.testing.assert_allclose(vals[1:], 0.0, atol=1e-10)

    @pytest.mark.parametrize("d,beta", [(10, 1.0), (30, 0.2)])
    def test_psd(self, d, beta):
        sigma = model.KernelSpec(d, 0.01, beta, 5.0).sigma
        vals = linalg.eigh(sigma).eigenvalues
        assert np.min(vals) >= -1e-10 * vals[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            model.KernelSpec(1, 0.01, 1.0, 5.0).sigma
        with pytest.raises(ValueError):
            model.KernelSpec(3, -0.1, 1.0, 5.0).sigma
        with pytest.raises(ValueError):
            model.KernelSpec(3, 0.01, 1.0, 0.0).sigma


class TestSpectralDecompose:
    def test_diagonal(self):
        m = model.spectral_decompose(explicit_law(np.diag([3.0, 1.0])))
        np.testing.assert_allclose(m.v1, [1.0, 0.0])
        assert m.lambda1 == pytest.approx(3.0)
        assert m.lambda2 == pytest.approx(1.0)
        np.testing.assert_allclose(m.v_perp[:, 0], [0.0, 1.0])
        assert not m.degenerate_gap
        m.require_gap()  # no raise

    def test_identity_flags_degenerate_gap(self):
        m = model.spectral_decompose(explicit_law(np.eye(3)))
        assert m.degenerate_gap
        with pytest.raises(model.DegenerateGapError):
            m.require_gap()

    def test_kernel_reconstruction(self):
        spec = model.KernelSpec(d=10, c=0.01, beta=1.0, scale=5.0)
        m = model.spectral_decompose(spec)
        recon = m.eig.eigenvectors @ np.diag(m.eig.eigenvalues) @ m.eig.eigenvectors.T
        assert np.linalg.norm(recon - m.sigma) <= 1e-10 * np.linalg.norm(m.sigma)
        # v_perp orthonormal and orthogonal to v1
        blk = np.hstack([m.v1[:, None], m.v_perp])
        np.testing.assert_allclose(blk.T @ blk, np.eye(10), atol=1e-10)

    def test_sqrt_sigma_squares_back(self):
        spec = model.KernelSpec(d=8, c=0.01, beta=0.2, scale=5.0)
        m = model.spectral_decompose(spec)
        assert np.linalg.norm(m.sqrt_sigma @ m.sqrt_sigma - m.sigma) <= 1e-8 * np.linalg.norm(m.sigma)


class TestSampleX:
    def test_identity_coordinates_uniform(self):
        m = model.spectral_decompose(explicit_law(np.eye(4)))
        s = randgen.RngStream(1, ("sx",))
        xs = model.sample_x(m, s, size=20000)
        assert np.all(np.abs(xs) < math.sqrt(3.0) + 1e-12)
        np.testing.assert_allclose(xs.var(axis=0), 1.0, atol=0.05)

    def test_second_moment_matches_sigma(self):
        spec = model.KernelSpec(d=5, c=0.01, beta=1.0, scale=5.0)
        m = model.spectral_decompose(spec)
        s = randgen.RngStream(2, ("sx2",))
        xs = model.sample_x(m, s, size=2 * 10**5)
        emp = xs.T @ xs / xs.shape[0]
        # spec example: entrywise agreement within 0.05 (absolute) at 2e5 draws
        # fails only if the sampler is wrong; also check against 5x standard errors
        prods = xs[:, :, None] * xs[:, None, :]
        se = prods.std(axis=0) / math.sqrt(xs.shape[0])
        assert np.all(np.abs(emp - m.sigma) <= np.maximum(0.05, 5.0 * se))

    def test_rejects_discrete_laws(self):
        # a discrete law is enumerated, never sampled: no draw of the wrong law
        m = model.spectral_decompose(rademacher_e1())
        np.testing.assert_allclose(m.sigma, np.diag([1.0, 0.0]), atol=1e-15)
        with pytest.raises(ValueError, match="discrete"):
            model.sample_x(m, randgen.RngStream(3, ("disc",)), size=5000)


class TestSamplePaths:
    def test_rows_are_sample_x_in_chunks(self):
        m = model.spectral_decompose(model.KernelSpec(d=5, c=0.01, beta=1.0, scale=5.0))
        streams = [randgen.RngStream(4, ("path", i)) for i in range(3)]
        out = np.empty((3, 7, 5))
        chunks = [model.sample_paths(m, streams, out) @ m.sqrt_sigma for _ in range(2)]
        for i, row in enumerate(np.concatenate(chunks, axis=1)):
            bulk = model.sample_x(m, randgen.RngStream(4, ("path", i)), 14)
            np.testing.assert_allclose(row, bulk, rtol=1e-12, atol=1e-13)

    def test_draws_are_uniform_sym_bit_for_bit(self):
        # the whole buffer is mapped at once; each row must still hold its own
        # stream's uniform_sym values, chunk after chunk
        m = model.spectral_decompose(model.KernelSpec(d=4, c=0.01, beta=1.0, scale=5.0))
        streams = [randgen.RngStream(6, ("path", i)) for i in range(3)]
        singles = [randgen.RngStream(6, ("path", i)) for i in range(3)]
        out = np.empty((3, 5, 4))
        for _ in range(2):
            assert model.sample_paths(m, streams, out) is out
            for row, stream in zip(out, singles):
                np.testing.assert_array_equal(row, stream.uniform_sym((5, 4)))

    def test_fills_views_of_a_larger_buffer_bit_for_bit(self):
        # a block of 3 streams in a buffer for 5, then a short last chunk of 2 steps:
        # each view's rows hold their streams' uniform_sym values, and the rest of the
        # buffer is left as it was
        m = model.spectral_decompose(model.KernelSpec(d=4, c=0.01, beta=1.0, scale=5.0))
        streams = [randgen.RngStream(6, ("view", i)) for i in range(3)]
        singles = [randgen.RngStream(6, ("view", i)) for i in range(3)]
        buf = np.full((5, 6, 4), np.nan)
        for steps in (6, 2):
            view = buf[:3, :steps]
            assert model.sample_paths(m, streams, view) is view
            for row, stream in zip(view, singles):
                np.testing.assert_array_equal(row, stream.uniform_sym((steps, 4)))
        assert np.isnan(buf[3:]).all() and not np.isnan(buf[:3]).any()

    def test_rejects_unfit_buffers_and_discrete_laws(self):
        # the last two have rows that are not C-contiguous: strided, and Fortran-ordered
        m = model.spectral_decompose(model.KernelSpec(d=3, c=0.01, beta=1.0, scale=5.0))
        streams = [randgen.RngStream(4, ("bad", i)) for i in range(2)]
        for out in [np.empty((2, 4, 4)), np.empty((3, 4, 3)), np.empty((2, 12)),
                    np.empty((2, 8, 3))[:, ::2], np.empty((2, 3, 4)).transpose(0, 2, 1)]:
            with pytest.raises(ValueError):
                model.sample_paths(m, streams, out)
        disc = model.spectral_decompose(rademacher_e1())
        with pytest.raises(ValueError):
            model.sample_paths(disc, streams, np.empty((2, 4, 2)))


class TestDiscreteSpecValidation:
    def test_rejects_noncentered_support(self):
        with pytest.raises(ValueError, match="mean zero"):
            model.DiscreteSpec(support=np.array([[1.0], [1.0]]), probs=np.array([0.5, 0.5]))

    def test_rejects_bad_probs(self):
        sup = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError):
            model.DiscreteSpec(support=sup, probs=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            model.DiscreteSpec(support=sup, probs=np.array([1.0, 0.0]))

    def test_sigma_matches_enumerated_second_moment(self):
        rng = np.random.default_rng(8)
        sup = rng.standard_normal((4, 3))
        sup -= sup.mean(axis=0)  # equal weights: center by subtracting the mean
        spec = model.DiscreteSpec(support=sup, probs=np.full(4, 0.25))
        second = np.zeros((3, 3))
        for outcome, p in model.enumerate_outcomes(spec, 1):
            second += p * np.outer(outcome[0], outcome[0])
        np.testing.assert_allclose(second, spec.sigma, atol=1e-12)


class TestEnumerateOutcomes:
    def test_two_point_cube(self):
        spec = rademacher_e1()
        outs = list(model.enumerate_outcomes(spec, 3))
        assert len(outs) == 8
        assert sum(p for _, p in outs) == pytest.approx(1.0, abs=1e-10)
        assert all(seq.shape == (3, 2) for seq, _ in outs)

    def test_singleton_support(self):
        spec = model.DiscreteSpec(support=np.array([[0.0, 0.0]]), probs=np.array([1.0]))
        outs = list(model.enumerate_outcomes(spec, 5))
        assert len(outs) == 1
        assert outs[0][1] == pytest.approx(1.0)

    def test_three_point_probabilities(self):
        sup = np.array([[1.0], [-1.0], [-1.0]])
        sup = sup - np.array([0.5, 0.25, 0.25]) @ sup  # center under these weights
        spec = model.DiscreteSpec(support=sup, probs=np.array([0.5, 0.25, 0.25]))
        outs = list(model.enumerate_outcomes(spec, 2))
        assert len(outs) == 9
        assert sum(p for _, p in outs) == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        spec = rademacher_e1()
        with pytest.raises(ValueError, match="cap"):
            list(model.enumerate_outcomes(spec, 21))
