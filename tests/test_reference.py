"""Reference covariance assembly, chi-square weights, and anti-concentration."""

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


def monte_carlo_M(mdl, stream, n_mc, rows=10**4):
    """Sample mean of (x . v1)^2 (P x)(P x)^T over n_mc rows of model.sample_x,
    drawn `rows` at a time, with the entrywise standard error of that mean."""
    total = total_sq = 0.0
    for first in range(0, n_mc, rows):
        x = model.sample_x(mdl, stream, min(rows, n_mc - first))
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
        mdl = model.spectral_decompose(model.DiscreteSpec(sup, np.full(3, 1 / 3)))
        mean, se = monte_carlo_M(mdl, randgen.derive_stream(8, ("m3",)), 10**5)
        assert np.all(np.abs(mean - reference.estimate_M(mdl)) <= 5 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("spec", [
        model.KernelSpec(d=10, c=0.3, beta=0.6, scale=1.5),
        model.ExplicitSpec(np.array([[3.0, 0.8, 0.4], [0.8, 2.0, -0.5], [0.4, -0.5, 1.0]])),
    ], ids=["kernel", "explicit"])
    def test_closed_form_matches_monte_carlo(self, spec):
        mdl = model.spectral_decompose(spec)
        mean, se = monte_carlo_M(mdl, randgen.derive_stream(9, ("m4",)), 10**5)
        closed = reference.estimate_M(mdl)
        assert np.all(np.abs(mean - closed) <= 5 * se)
        # the draws also resolve the (kappa - 3) term: the Gaussian-law moment
        # matrix lam1 * diag(lam_2, ..., lam_d) misses some entry by more than 5 SE
        lam = mdl.eig.eigenvalues
        assert np.any(np.abs(mean - lam[0] * np.diag(lam[1:])) > 5 * se)

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
        ref = reference.build_reference(mdl, np.log(500), 500)
        assert np.linalg.norm(ref.vbar @ mdl.v1) <= 1e-10
        assert np.linalg.eigvalsh(ref.vbar).min() >= -1e-12
        assert ref.dim == 12

    def test_discrete_law_ignores_stream(self):
        sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
        mdl = model.spectral_decompose(model.DiscreteSpec(sup, np.full(3, 1 / 3)))
        ref = reference.build_reference(mdl, 1.0, 10)
        np.testing.assert_allclose(ref.m_matrix, [[0.1944]], atol=1e-15)

    def test_degenerate_gap_rejected(self):
        mdl = model.spectral_decompose(model.ExplicitSpec(np.eye(3)))
        with pytest.raises(model.DegenerateGapError):
            reference.build_reference(mdl, 1.0, 10)

    def test_summary_keys(self):
        mdl = kernel_model(6, 0.5, 0.5)
        ref = reference.build_reference(mdl, np.log(200), 200)
        out = ref.summary(reference.chisq_weights(ref.vbar))
        assert set(out) == {"weights", "trace", "frobenius"}
        np.testing.assert_allclose(sum(out["weights"]), out["trace"], rtol=1e-10)
        assert out["weights"] == sorted(out["weights"], reverse=True)

    def test_trace_and_frobenius_bounds(self):
        # damped geometric sum against the eigengap, tested at C = 2
        for d, c, beta, scale in [(20, 0.5, 0.5, 1.0), (50, 0.01, 1.0, 5.0)]:
            mdl = kernel_model(d, c, beta, scale)
            gap = mdl.eigengap
            for n in (1000, 4000):
                ref = reference.build_reference(mdl, np.log(n), n)
                assert np.trace(ref.vbar) <= 2.0 * np.trace(ref.m_matrix) / gap
                assert (linalg.frobenius_norm(ref.vbar)
                        <= 2.0 * linalg.frobenius_norm(ref.m_matrix) / gap)


class TestReferenceCovarianceValidation:
    def good_kwargs(self):
        return dict(m_matrix=np.eye(2), lambda_perp=np.array([0.9, 0.8]),
                    vbar=np.eye(3) * 0.1, eta_n=1.0, n=5)

    def test_accepts_consistent_fields(self):
        ref = reference.ReferenceCovariance(**self.good_kwargs())
        assert ref.n == 5

    def test_rejects_ratio_out_of_range(self):
        kw = self.good_kwargs()
        kw["lambda_perp"] = np.array([1.1, 0.8])
        with pytest.raises(ValueError):
            reference.ReferenceCovariance(**kw)

    def test_rejects_increasing_ratios(self):
        kw = self.good_kwargs()
        kw["lambda_perp"] = np.array([0.8, 0.9])
        with pytest.raises(ValueError):
            reference.ReferenceCovariance(**kw)

    def test_rejects_asymmetric_vbar(self):
        kw = self.good_kwargs()
        kw["vbar"] = np.array([[1.0, 0.5, 0], [0, 1.0, 0], [0, 0, 1.0]])
        with pytest.raises(ValueError):
            reference.ReferenceCovariance(**kw)

    def test_rejects_shape_mismatch(self):
        kw = self.good_kwargs()
        kw["vbar"] = np.eye(4)
        with pytest.raises(ValueError):
            reference.ReferenceCovariance(**kw)


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
        with pytest.raises(ValueError):
            reference.WeightedChiSq([1.0, -1e-6])


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


class TestAnticoncentration:
    def test_single_weight_passes(self):
        out = reference.anticoncentration_check(
            reference.WeightedChiSq([1.0]), 0.01, randgen.derive_stream(5, ("ac", 1)),
            n_mc=10**5)
        assert out["pass"]
        assert out["bound"] == pytest.approx(np.sqrt(0.04 / np.pi))
        assert 0.0 < out["max_window_prob"] <= out["bound"]

    def test_huge_window_vacuous(self):
        out = reference.anticoncentration_check(
            reference.WeightedChiSq([1.0]), 100.0, randgen.derive_stream(5, ("ac", 2)),
            n_mc=10**4)
        assert out["bound"] > 1.0 and out["pass"]

    def test_many_equal_weights_flatten_the_law(self):
        one = reference.anticoncentration_check(
            reference.WeightedChiSq([1.0]), 0.01, randgen.derive_stream(5, ("ac", 1)),
            n_mc=10**5)
        many = reference.anticoncentration_check(
            reference.WeightedChiSq(np.ones(50)), 0.01, randgen.derive_stream(5, ("ac", 50)),
            n_mc=10**5)
        assert many["max_window_prob"] < 0.5 * one["max_window_prob"]

    def test_scale_invariance(self):
        a = reference.anticoncentration_check(
            reference.WeightedChiSq([5.0]), 0.01, randgen.derive_stream(5, ("ac", 1)),
            n_mc=10**4)
        b = reference.anticoncentration_check(
            reference.WeightedChiSq([1.0]), 0.01, randgen.derive_stream(5, ("ac", 1)),
            n_mc=10**4)
        assert a == b

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            reference.anticoncentration_check(
                reference.WeightedChiSq([0.0]), 0.01, randgen.derive_stream(5, ("ac", 3)))

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            reference.anticoncentration_check(
                reference.WeightedChiSq([1.0]), 0.0, randgen.derive_stream(5, ("ac", 4)))
