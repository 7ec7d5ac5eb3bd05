"""Reference covariance assembly, chi-square weights, and anti-concentration."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ojaboot import linalg, model, randgen, reference


def kernel_model(d, c, beta, scale=1.0):
    return model.spectral_decompose(model.KernelSpec(d=d, c=c, beta=beta, scale=scale))


def imhof_cdf(weights, x, nodes=100_001, span=2000.0):
    """P(sum_j weights[j] xi_j <= x), xi_j iid chi-square(1), by Imhof (1961):
    1/2 - (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du with
    theta(u) = sum_j arctan(w_j u) / 2 - x u / 2 and rho(u) = prod_j (1 + w_j^2 u^2)^(1/4),
    by the trapezoid rule on [0, span / max weight]."""
    w = np.asarray(weights, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    u, h = np.linspace(0.0, span / w.max(), nodes, retstep=True)
    u = u[1:]
    theta = 0.5 * np.arctan(np.outer(u, w)).sum(axis=1) - 0.5 * x * u
    rho = np.exp(0.25 * np.log1p(np.outer(u, w) ** 2).sum(axis=1))
    f = np.sin(theta) / (u * rho)
    f0 = 0.5 * (w.sum() - x[:, 0])  # the integrand's limit at u = 0
    integral = h * (0.5 * f0 + f[:, :-1].sum(axis=1) + 0.5 * f[:, -1])
    return 0.5 - integral / math.pi


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def monte_carlo_M(mdl, draw, n_mc, rows=10**4):
    """Sample mean of (x . v1)^2 (P x)(P x)^T over n_mc rows of draw(size), drawn
    `rows` at a time, with the entrywise standard error of that mean."""
    total = total_sq = 0.0
    for first in range(0, n_mc, rows):
        x = draw(min(rows, n_mc - first))
        s = x @ mdl.v1
        y = x @ mdl.v_perp
        terms = (s * s)[:, None, None] * (y[:, :, None] * y[:, None, :])
        total = total + terms.sum(axis=0)
        total_sq = total_sq + np.square(terms).sum(axis=0)
    mean = total / n_mc
    return mean, np.sqrt(np.maximum(total_sq / n_mc - mean**2, 0.0) / n_mc)


class TestEstimateM:
    def test_two_point_law_orthogonal_support(self):
        sup = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mdl = model.spectral_decompose(model.DiscreteSpec(sup, np.array([0.5, 0.5])))
        m = reference.estimate_M(mdl)
        np.testing.assert_array_equal(m, [[0.0]])

    def test_product_moment_diag_law(self):
        # independent unit-variance coordinates: E[(x.v1)^2 (x.v2)^2] = lam1*lam2
        mdl = model.spectral_decompose(model.ExplicitSpec(np.diag([3.0, 1.2])))
        np.testing.assert_allclose(reference.estimate_M(mdl), [[3.6]], rtol=1e-15)

    def test_discrete_exact_value(self):
        sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
        mdl = model.spectral_decompose(model.DiscreteSpec(sup, np.full(3, 1 / 3)))
        m = reference.estimate_M(mdl)
        # law has Sigma = diag(0.72, 0.54); E[x1^2 x2^2] = (2/3)*0.36*0.81
        np.testing.assert_allclose(m, [[0.1944]], atol=1e-15)

    def test_discrete_matches_monte_carlo(self):
        sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
        law = model.DiscreteSpec(sup, np.full(3, 1 / 3))
        mdl = model.spectral_decompose(law)
        rng = np.random.default_rng(8)  # sample_x draws continuous laws only
        mean, se = monte_carlo_M(
            mdl, lambda size: law.support[rng.choice(3, size=size, p=law.probs)], 10**5)
        assert np.all(np.abs(mean - reference.estimate_M(mdl)) <= 5 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("spec", [
        model.KernelSpec(d=10, c=0.3, beta=0.6, scale=1.5),
        model.ExplicitSpec(np.array([[3.0, 0.8, 0.4], [0.8, 2.0, -0.5], [0.4, -0.5, 1.0]])),
    ], ids=["kernel", "explicit"])
    def test_closed_form_matches_monte_carlo(self, spec):
        mdl = model.spectral_decompose(spec)
        stream = randgen.derive_stream(9, ("m4",))
        mean, se = monte_carlo_M(mdl, lambda size: model.sample_x(mdl, stream, size), 10**5)
        closed = reference.estimate_M(mdl)
        assert np.all(np.abs(mean - closed) <= 5 * se)
        # the draws also resolve the (kappa - 3) term: the Gaussian-law moment
        # matrix lam1 * diag(lam_2, ..., lam_d) misses some entry by more than 5 SE
        lam = mdl.eig.eigenvalues
        assert np.any(np.abs(mean - lam[0] * np.diag(lam[1:])) > 5 * se)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_closed_form_matches_rademacher_support_sum(self, d, monkeypatch):
        # x = Sigma^{1/2} z with z uniform on {-1, 1}^d has kappa = E z^4 = 1; as a
        # DiscreteSpec on the same eigenvectors, its exact support sum is the oracle
        mdl = kernel_model(d, 0.3, 1.0, scale=2.0)
        z = np.array(list(itertools.product([-1.0, 1.0], repeat=d)))
        law = model.DiscreteSpec(z @ mdl.sqrt_sigma, np.full(2**d, 0.5**d))
        exact = reference.estimate_M(dataclasses.replace(mdl, sampling_law=law))

        def rel_gap():
            return (linalg.frobenius_norm(reference.estimate_M(mdl) - exact)
                    / linalg.frobenius_norm(exact))

        assert rel_gap() > 0.1  # at kappa = 9/5: the oracle resolves the kappa term
        monkeypatch.setattr(randgen, "KAPPA", 1.0)
        assert rel_gap() <= 1e-12

    def test_psd_and_symmetric(self):
        mdl = kernel_model(8, 0.4, 0.5)
        m = reference.estimate_M(mdl)
        np.testing.assert_array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= -1e-12


class TestContractionRatios:
    def test_formula(self):
        mdl = kernel_model(5, 0.2, 0.5)
        eta_n, n = np.log(100), 100
        lp = reference.contraction_ratios(mdl, eta_n, n)
        lam = mdl.eig.eigenvalues
        expected = (1 + eta_n * lam[1:] / n) / (1 + eta_n * lam[0] / n)
        np.testing.assert_allclose(lp, expected, rtol=1e-15)
        assert np.all(lp > 0) and np.all(lp <= 1) and np.all(np.diff(lp) <= 0)


class TestAssembleVbar:
    def test_single_step_sum(self):
        m = np.array([[0.7, 0.1], [0.1, 0.4]])
        v_perp = np.eye(3)[:, 1:]
        out = reference.assemble_vbar(m, [0.9, 0.5], eta_n=2.5, n=1, v_perp=v_perp)
        np.testing.assert_allclose(out[1:, 1:], 2.5 * m, atol=1e-15)
        np.testing.assert_allclose(out[0], 0.0, atol=1e-15)

    def test_scalar_geometric_sum(self):
        r, m, n, eta = 0.97, 1.3, 50, 2.0
        v_perp = np.array([[0.0], [1.0]])
        out = reference.assemble_vbar([[m]], [r], eta, n, v_perp)
        direct = m * sum((r * r) ** (i - 1) for i in range(1, n + 1))
        np.testing.assert_allclose(out[1, 1], (eta / n) * direct, rtol=1e-12)

    def test_tie_takes_n_term_limit(self):
        out = reference.assemble_vbar([[0.8]], [1.0], eta_n=1.7, n=40,
                                      v_perp=np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(out[1, 1], 1.7 * 0.8, rtol=1e-15)

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(7)
        mdl = kernel_model(10, 0.3, 0.6, scale=1.5)
        n, eta = 1000, np.log(1000)
        raw = rng.standard_normal((9, 9))
        m = raw @ raw.T
        lp = reference.contraction_ratios(mdl, eta, n)
        closed = reference.assemble_vbar(m, lp, eta, n, mdl.v_perp)
        brute = np.zeros((9, 9))
        for i in range(1, n + 1):
            dia = np.diag(lp ** (i - 1))
            brute += dia @ m @ dia
        brute = (eta / n) * mdl.v_perp @ brute @ mdl.v_perp.T
        rel = np.linalg.norm(closed - brute) / np.linalg.norm(brute)
        assert rel <= 1e-10

    def test_rejects_ratio_above_one(self):
        with pytest.raises(ValueError):
            reference.assemble_vbar([[1.0]], [1.5], 1.0, 10, np.array([[0.0], [1.0]]))


class TestBuildReference:
    def test_range_is_complement_of_top_eigenvector(self):
        mdl = kernel_model(12, 0.2, 0.4)
        vbar = reference.build_reference(mdl, np.log(500), 500)
        assert np.linalg.norm(vbar @ mdl.v1) <= 1e-10
        assert np.linalg.eigvalsh(vbar).min() >= -1e-12
        assert vbar.shape == (12, 12)

    def test_discrete_law_ignores_stream(self):
        # no stream to ignore any more: a discrete law's vbar is its support sum
        # M = [[0.1944]] (TestEstimateM), assembled
        sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
        mdl = model.spectral_decompose(model.DiscreteSpec(sup, np.full(3, 1 / 3)))
        vbar = reference.build_reference(mdl, 1.0, 10)
        lp = reference.contraction_ratios(mdl, 1.0, 10)
        np.testing.assert_allclose(
            vbar, reference.assemble_vbar([[0.1944]], lp, 1.0, 10, mdl.v_perp), atol=1e-15)

    def test_degenerate_gap_rejected(self):
        mdl = model.spectral_decompose(model.ExplicitSpec(np.eye(3)))
        with pytest.raises(model.DegenerateGapError):
            reference.build_reference(mdl, 1.0, 10)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            reference.build_reference(kernel_model(4, 0.5, 0.5), 0.0, 10)

    def test_summary_keys(self):
        # the three scalars reference_summary.json records agree: the descending
        # weights sum to trace_vbar, and their l2 norm is frob_vbar
        mdl = kernel_model(6, 0.5, 0.5)
        vbar = reference.build_reference(mdl, np.log(200), 200)
        w = reference.chisq_weights(vbar).weights
        np.testing.assert_allclose(w.sum(), np.trace(vbar), rtol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(w), linalg.frobenius_norm(vbar), rtol=1e-10)
        np.testing.assert_array_equal(w, np.sort(w)[::-1])

    def test_trace_and_frobenius_bounds(self):
        # damped geometric sum against the eigengap, tested at C = 2
        for d, c, beta, scale in [(20, 0.5, 0.5, 1.0), (50, 0.01, 1.0, 5.0)]:
            mdl = kernel_model(d, c, beta, scale)
            gap = mdl.eigengap
            m = reference.estimate_M(mdl)
            for n in (1000, 4000):
                vbar = reference.build_reference(mdl, np.log(n), n)
                assert np.trace(vbar) <= 2.0 * np.trace(m) / gap
                assert linalg.frobenius_norm(vbar) <= 2.0 * linalg.frobenius_norm(m) / gap


class TestChisqWeights:
    def test_diagonal(self):
        w = reference.chisq_weights(np.diag([2.0, 0.0]))
        np.testing.assert_array_equal(w.weights, [2.0, 0.0])

    def test_identity(self):
        w = reference.chisq_weights(np.eye(3))
        np.testing.assert_allclose(w.weights, [1.0, 1.0, 1.0], atol=1e-12)

    def test_rank_one(self):
        u = np.array([0.6, 0.8])
        w = reference.chisq_weights(3.0 * np.outer(u, u))
        np.testing.assert_allclose(w.weights, [3.0, 0.0], atol=1e-12)

    def test_rejects_negative_spectrum(self):
        with pytest.raises(linalg.NotPsdError):
            reference.chisq_weights(np.diag([1.0, -0.1]))

    def test_clamps_roundoff_negatives(self):
        w = reference.chisq_weights(np.diag([1.0, -1e-12]))
        assert w.weights.min() == 0.0

    def test_moment_properties(self):
        w = reference.WeightedChiSq([2.0, 0.7, 0.1])
        assert w.mean == pytest.approx(2.8)
        assert w.variance == pytest.approx(2 * (4.0 + 0.49 + 0.01))

    def test_constructor_sorts_descending(self):
        w = reference.WeightedChiSq([0.1, 2.0, 0.7])
        np.testing.assert_array_equal(w.weights, [2.0, 0.7, 0.1])
        assert w.weights.flags.c_contiguous

    def test_constructor_rejects_significant_negative(self):
        with pytest.raises(linalg.NotPsdError):
            reference.WeightedChiSq([1.0, -1e-6])

    def test_roundoff_negative_is_relative_to_the_largest_weight(self):
        # vbar's null eigenvalue rounds to ~1e-16 * |vbar|, far below -1e-12 at
        # large scale; it clamps to zero, and the same ratio clamps at any scale
        for scale in (1.0, 1e6):
            w = reference.WeightedChiSq(scale * np.array([1.0, -3e-9]))
            np.testing.assert_array_equal(w.weights, [scale, 0.0])
        with pytest.raises(linalg.NotPsdError):
            reference.WeightedChiSq([1e6, -0.1])

    def test_unit_scales_squares_to_one(self):
        w = reference.WeightedChiSq([3.0, 4.0, 0.0]).unit()
        np.testing.assert_array_equal(w.weights, [0.8, 0.6, 0.0])
        assert w.variance == pytest.approx(2.0)



class TestSampleWeightedChisq:
    def test_single_weight_quantile(self):
        # chi-square(1): P(xi <= 3.8415) = 0.95
        d = reference.sample_weighted_chisq(
            reference.WeightedChiSq([1.0]), randgen.derive_stream(9, ("q",)), 10**5)
        assert abs(np.mean(d <= 3.8415) - 0.95) <= 0.005

    def test_equal_pair_mean(self):
        a = 0.7
        d = reference.sample_weighted_chisq(
            reference.WeightedChiSq([a, a]), randgen.derive_stream(11, ("p",)), 10**5)
        assert abs(d.mean() - 2 * a) <= 3 * (2 * a / np.sqrt(10**5))

    def test_zero_weights_degenerate(self):
        d = reference.sample_weighted_chisq(
            reference.WeightedChiSq([0.0, 0.0]), randgen.derive_stream(12, ("z",)), 100)
        np.testing.assert_array_equal(d, np.zeros(100))

    def test_mean_and_variance_invariant(self):
        w = reference.WeightedChiSq([2.0, 0.7, 0.1])
        d = reference.sample_weighted_chisq(w, randgen.derive_stream(10, ("mv",)), 2 * 10**5)
        se_mean = np.sqrt(w.variance / d.size)
        assert abs(d.mean() - w.mean) <= 4 * se_mean
        m4 = np.mean((d - d.mean()) ** 4)
        se_var = np.sqrt((m4 - d.var() ** 2) / d.size)
        assert abs(d.var() - w.variance) <= 5 * se_var

    def test_roundoff_weight_draws_no_column(self):
        # a weight below the relative floor (vbar's null eigenvalue, say) is
        # roundoff; whether it lands at +1e-18 or 0 must not change the draw
        draws = [reference.sample_weighted_chisq(reference.WeightedChiSq([1.3, tiny]),
                                                 randgen.derive_stream(15, ("f",)), 1000)
                 for tiny in (1e-18, 0.0)]
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_nonnegative_draws(self):
        d = reference.sample_weighted_chisq(
            reference.WeightedChiSq([0.5, 0.2]), randgen.derive_stream(13, ("nn",)), 1000)
        assert d.min() >= 0.0

    def test_needs_at_least_one_draw(self):
        with pytest.raises(ValueError):
            reference.sample_weighted_chisq(
                reference.WeightedChiSq([1.0]), randgen.derive_stream(14, ("e",)), 0)

    def test_chunked_draws_equal_one_shot_draw(self):
        w = reference.WeightedChiSq(np.linspace(2.0, 0.1, 9))
        n_mc = reference._MC_ROWS + 37
        d = reference.sample_weighted_chisq(w, randgen.derive_stream(18, ("edge",)), n_mc)
        one_shot = randgen.derive_stream(18, ("edge",)).chisq1((n_mc, 9)) @ w.weights
        np.testing.assert_array_equal(d, one_shot)

    def test_memory_does_not_grow_with_draws(self):
        # a one-shot (1e5, 99) draw alone would hold 79 MB
        w = reference.WeightedChiSq(1.0 / np.arange(1, 100))
        peak = traced_peak_bytes(
            lambda: reference.sample_weighted_chisq(w, randgen.derive_stream(19, ("mem",)),
                                                    10**5))
        assert peak < 8 * 2**20

    def test_matches_imhof_cdf_within_dkw_band(self):
        w = reference.WeightedChiSq([2.0, 1.3, 0.9, 0.5, 0.3, 0.2, 0.1])
        n_mc = 10**5
        draws = np.sort(reference.sample_weighted_chisq(
            w, randgen.derive_stream(20, ("imhof",)), n_mc))
        x = w.mean * np.array([0.2, 0.5, 1.0, 1.5, 2.5])
        ecdf = np.searchsorted(draws, x, side="right") / n_mc
        band = math.sqrt(math.log(200.0) / (2 * n_mc))  # 99% DKW
        assert np.abs(ecdf - imhof_cdf(w.weights, x)).max() <= band


class TestImhofOracle:
    x = np.array([0.05, 0.3, 1.0, 2.5, 6.0, 12.0])

    def test_one_weight_is_chisq1(self):
        exact = [math.erf(math.sqrt(v / 2)) for v in self.x]
        np.testing.assert_allclose(imhof_cdf([1.0], self.x), exact, atol=1e-4)

    def test_two_equal_weights_are_chisq2(self):
        np.testing.assert_allclose(imhof_cdf([1.0, 1.0], self.x),
                                   1.0 - np.exp(-self.x / 2), atol=1e-4)

    def test_four_equal_weights_are_chisq4(self):
        np.testing.assert_allclose(imhof_cdf(np.ones(4), self.x),
                                   1.0 - np.exp(-self.x / 2) * (1.0 + self.x / 2), atol=1e-4)


def unit_draws(weights, path, n_mc):
    """A sorted sample of the unit-scaled law, as anticoncentration_check reads it."""
    return np.sort(reference.sample_weighted_chisq(reference.WeightedChiSq(weights).unit(),
                                                   randgen.derive_stream(5, path), n_mc))


class TestAnticoncentration:
    def test_single_weight_passes(self):
        out = reference.anticoncentration_check(unit_draws([1.0], ("ac", 1), 10**5), 0.01)
        assert out["pass"]
        assert out["bound"] == pytest.approx(np.sqrt(0.04 / np.pi))
        assert 0.0 < out["max_window_prob"] <= out["bound"]

    def test_huge_window_vacuous(self):
        out = reference.anticoncentration_check(unit_draws([1.0], ("ac", 2), 10**4), 100.0)
        assert out["bound"] > 1.0 and out["pass"]

    def test_many_equal_weights_flatten_the_law(self):
        one = reference.anticoncentration_check(unit_draws([1.0], ("ac", 1), 10**5), 0.01)
        many = reference.anticoncentration_check(
            unit_draws(np.ones(50), ("ac", 50), 10**5), 0.01)
        assert many["max_window_prob"] < 0.5 * one["max_window_prob"]

    def test_scale_invariance(self):
        a = reference.anticoncentration_check(unit_draws([5.0], ("ac", 1), 10**4), 0.01)
        b = reference.anticoncentration_check(unit_draws([1.0], ("ac", 1), 10**4), 0.01)
        assert a == b

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            reference.WeightedChiSq([0.0]).unit()

    def test_does_not_reorder_the_sample(self):
        draws = unit_draws([1.0, 0.5], ("ac", 5), 1000)
        kept = draws.copy()
        reference.anticoncentration_check(draws, 0.01)
        np.testing.assert_array_equal(draws, kept)

    def test_reads_the_sorted_sample_in_place(self):
        # a sorted copy, or an isfinite mask of the whole sample, would be sample-sized
        draws = unit_draws([1.0, 0.5], ("ac", 6), 10**5)
        peak = traced_peak_bytes(lambda: reference.anticoncentration_check(draws, 0.01))
        assert peak < 0.25 * draws.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_rejected(self, bad):
        draws = unit_draws([1.0], ("ac", 7), 100)
        draws[50] = bad
        with pytest.raises(ValueError, match="finite"):
            reference.anticoncentration_check(np.sort(draws), 0.01)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            reference.anticoncentration_check(unit_draws([1.0], ("ac", 4), 100), 0.0)
