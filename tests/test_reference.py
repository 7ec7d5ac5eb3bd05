"""Reference covariance assembly, chi-square weights, the exact chi-square CDF and
its quantiles, and anti-concentration."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ojaboot import linalg, model, randgen, reference


def kernel_model(d, c, beta, scale=1.0):
    return model.spectral_decompose(model.KernelSpec(d=d, c=c, beta=beta, scale=scale).sigma)


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


def support_sum_M(mdl, support, probs):
    """E (x . v1)^2 (P x)(P x)^T for x drawn from the finite law support[k] w.p. probs[k],
    summed exactly over the support, in the frame of mdl (v1, v_perp)."""
    s = support @ mdl.v1
    y = support @ mdl.v_perp
    return linalg.sym((y * (probs * s * s)[:, None]).T @ y)


class TestEstimateM:
    def test_two_point_law_orthogonal_support(self):
        # +/- e1 w.p. 1/2 has the rank-one covariance diag(1, 0): nothing reaches the
        # complement, so M is exactly zero, in closed form as in the support sum
        sup = np.array([[1.0, 0.0], [-1.0, 0.0]])
        law = model.DiscreteSpec(sup, np.array([0.5, 0.5]))
        mdl = model.spectral_decompose(law.sigma)
        np.testing.assert_array_equal(reference.estimate_M(mdl), [[0.0]])
        np.testing.assert_array_equal(support_sum_M(mdl, law.support, law.probs), [[0.0]])

    def test_product_moment_diag_law(self):
        # independent unit-variance coordinates: E[(x.v1)^2 (x.v2)^2] = lam1*lam2
        mdl = model.spectral_decompose(np.diag([3.0, 1.2]))
        np.testing.assert_allclose(reference.estimate_M(mdl), [[3.6]], rtol=1e-15)

    # the two discrete tests pin support_sum_M, the oracle of the (kappa - 3) test below
    def test_discrete_exact_value(self):
        sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
        law = model.DiscreteSpec(sup, np.full(3, 1 / 3))
        m = support_sum_M(model.spectral_decompose(law.sigma), law.support, law.probs)
        # law has Sigma = diag(0.72, 0.54); E[x1^2 x2^2] = (2/3)*0.36*0.81
        np.testing.assert_allclose(m, [[0.1944]], atol=1e-15)

    def test_discrete_matches_monte_carlo(self):
        sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
        law = model.DiscreteSpec(sup, np.full(3, 1 / 3))
        mdl = model.spectral_decompose(law.sigma)
        rng = np.random.default_rng(8)  # sample_x draws the model's uniform law only
        mean, se = monte_carlo_M(
            mdl, lambda size: law.support[rng.choice(3, size=size, p=law.probs)], 10**5)
        exact = support_sum_M(mdl, law.support, law.probs)
        assert np.all(np.abs(mean - exact) <= 5 * np.maximum(se, 1e-12))

    @pytest.mark.parametrize("sigma", [
        model.KernelSpec(d=10, c=0.3, beta=0.6, scale=1.5).sigma,
        np.array([[3.0, 0.8, 0.4], [0.8, 2.0, -0.5], [0.4, -0.5, 1.0]]),
    ], ids=["kernel", "explicit"])
    def test_closed_form_matches_monte_carlo(self, sigma):
        mdl = model.spectral_decompose(sigma)
        stream = randgen.RngStream(9, ("m4",))
        mean, se = monte_carlo_M(mdl, lambda size: model.sample_x(mdl, stream, size), 10**5)
        closed = reference.estimate_M(mdl)
        assert np.all(np.abs(mean - closed) <= 5 * se)
        # the draws also resolve the (kappa - 3) term: the Gaussian-law moment
        # matrix lam1 * diag(lam_2, ..., lam_d) misses some entry by more than 5 SE
        lam = mdl.eigenvalues
        assert np.any(np.abs(mean - lam[0] * np.diag(lam[1:])) > 5 * se)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_closed_form_matches_rademacher_support_sum(self, d, monkeypatch):
        # x = Sigma^{1/2} z with z uniform on {-1, 1}^d has kappa = E z^4 = 1; its
        # exact support sum on the same eigenvectors is the oracle
        mdl = kernel_model(d, 0.3, 1.0, scale=2.0)
        z = np.array(list(itertools.product([-1.0, 1.0], repeat=d)))
        exact = support_sum_M(mdl, z @ mdl.sqrt_sigma, np.full(2**d, 0.5**d))

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
        lam = mdl.eigenvalues
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

    def test_degenerate_gap_rejected(self):
        mdl = model.spectral_decompose(np.eye(3))
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



def sample_weighted_chisq(weights, seed, n_mc, rows=512):
    """n_mc draws of sum_r weights[r] xi_r, xi_r iid chi-square(1), `rows` at a time:
    the Monte Carlo oracle for the exact CDF."""
    rng = np.random.default_rng(seed)
    w = np.asarray(weights, dtype=float)
    return np.concatenate([np.square(rng.standard_normal((min(rows, n_mc - lo), w.size))) @ w
                           for lo in range(0, n_mc, rows)])


chisq_law = reference.WeightedChiSq


def complex_log_phi(w, s):
    """log Phi(s) = -1/2 sum_r log(1 + 2 w_r s) in complex arithmetic, numpy's log1p on
    the principal branch: the oracle for the real kernel."""
    return -0.5 * sum(np.log1p(2.0 * wr * s) for wr in w)


class TestLogPhi:
    # weights as cdf scales them, the largest in [1/2, 1)
    w = chisq_law(1.0 / np.arange(1, 100))._inversion[1]

    def test_matches_complex_log1p_at_random_s(self):
        rng = np.random.default_rng(33)
        s = 10.0 ** rng.uniform(-8.0, 8.0, 2000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
        np.testing.assert_allclose(reference._log_phi(self.w, s), complex_log_phi(self.w, s),
                                   rtol=0, atol=1e-12)

    def test_matches_complex_log1p_at_the_inversion_nodes(self):
        # Talbot's nodes r (theta cot theta + i theta); past theta = pi/2, Re(1 + 2ws) < 0
        # for the largest weights, and arg(1 + 2ws) nears pi. Davies' nodes are -iu.
        theta = np.pi * np.arange(1, 20) / 20
        u = np.concatenate(([1.0], theta / np.tan(theta) + 1j * theta))
        talbot = np.multiply.outer(np.geomspace(1e-8, 1e8, 200), u)
        assert (1.0 + 2.0 * self.w[0] * talbot).real.min() < 0.0
        davies = -1j * np.geomspace(1e-8, 1e8, 500)
        for s in (talbot, davies):
            np.testing.assert_allclose(reference._log_phi(self.w, s),
                                       complex_log_phi(self.w, s), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("w", [[1.0], [1.0, 0.5], [1.0] + [1e-3] * 99],
                             ids=["one", "two", "dominant-and-bulk"])
    def test_cdf_at_tiny_x_neither_overflows_nor_divides_by_zero(self, w):
        # x = 1e-300 puts Talbot's nodes at |s| ~ 1e301, where (2ws)^2 would overflow
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = chisq_law(w).cdf(np.array([1e-300, 1e-200, 1e-20]))
        assert np.all((f >= 0.0) & (f <= 1e-10))

    def test_cdf_is_zero_up_to_the_cut_and_erf_above_it(self):
        # the one weight 1 is scaled to 1/2, so the cut at x = (pi / 4) 1e-20 scaled is
        # twice that unscaled, where erf(sqrt(x / 2)) is 1e-10
        cut = np.ldexp(reference._X_ZERO, 1)
        law = chisq_law([1.0])
        assert np.all(law.cdf(np.array([5e-324, 1e-300, 0.5 * cut, cut])) == 0.0)
        x = np.array([np.nextafter(cut, np.inf), 2.0 * cut, 1e-12, 1e-6])
        np.testing.assert_allclose(law.cdf(x), [math.erf(math.sqrt(v / 2)) for v in x],
                                   rtol=0, atol=1e-10)


class TestChisqCdf:
    x = np.linspace(0.0, 30.0, 301)[1:]

    def test_one_weight_is_erf(self):
        exact = [math.erf(math.sqrt(v / 2)) for v in self.x]
        np.testing.assert_allclose(chisq_law([1.0]).cdf(self.x), exact, rtol=0, atol=1e-10)

    def test_two_equal_weights_are_exponential(self):
        np.testing.assert_allclose(chisq_law([1.0, 1.0]).cdf(self.x), 1.0 - np.exp(-self.x / 2),
                                   rtol=0, atol=1e-10)

    def test_four_equal_weights_are_chisq4(self):
        np.testing.assert_allclose(chisq_law(np.ones(4)).cdf(self.x),
                                   1.0 - np.exp(-self.x / 2) * (1.0 + self.x / 2),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("k", [10, 50, 100])
    def test_many_equal_weights_are_chisq_k(self, k):
        # chi-square(k) for even k: 1 - e^(-x/2) sum_{j < k/2} (x/2)^j / j!. The law is
        # concentrated far from 0, where the fixed Talbot contour alone is off by up to 0.04
        x = np.linspace(0.0, 3.0 * k, 301)[1:]
        terms = np.cumprod(np.column_stack([np.ones_like(x)] +
                                           [x / 2 / j for j in range(1, k // 2)]), axis=1)
        exact = 1.0 - np.exp(-x / 2) * terms.sum(axis=1)
        np.testing.assert_allclose(chisq_law(np.ones(k)).cdf(x), exact, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("a, b", [(1.0, 0.3), (2.0, 1e-3)])
    def test_two_unequal_weights(self, a, b):
        # F(x) = 1 - (1/2pi) int_0^2pi exp(-x / (2 (a cos^2 phi + b sin^2 phi))) dphi; the
        # integrand is periodic, so the trapezoid rule converges fast
        phi = 2.0 * np.pi * np.arange(4000) / 4000
        den = 2.0 * (a * np.cos(phi) ** 2 + b * np.sin(phi) ** 2)
        exact = 1.0 - np.exp(-self.x[:, None] / den).mean(axis=1)
        np.testing.assert_allclose(chisq_law([a, b]).cdf(self.x), exact, rtol=0, atol=1e-10)

    def test_matches_imhof_cdf(self):
        law = chisq_law([2.0, 1.3, 0.9, 0.5, 0.3, 0.2, 0.1])
        x = law.mean * np.array([0.2, 0.5, 1.0, 1.5, 2.5])
        np.testing.assert_allclose(law.cdf(x), imhof_cdf(law.weights, x), rtol=0, atol=1e-10)

    def test_matches_monte_carlo_within_dkw_band(self):
        law = chisq_law([2.0, 1.3, 0.9, 0.5, 0.3, 0.2, 0.1])
        n_mc = 10**5
        draws = np.sort(sample_weighted_chisq(law.weights, 20, n_mc))
        x = law.mean * np.linspace(0.05, 3.0, 60)
        ecdf = np.searchsorted(draws, x, side="right") / n_mc
        band = math.sqrt(math.log(200.0) / (2 * n_mc))  # 99% DKW
        assert np.abs(ecdf - law.cdf(x)).max() <= band

    def test_zero_and_below_are_exactly_zero(self):
        f = chisq_law([1.0, 0.5]).cdf(np.array([0.0, -1.0, -np.inf]))
        np.testing.assert_array_equal(f, [0.0, 0.0, 0.0])
        assert chisq_law([1.0]).cdf(0.0) == 0.0

    def test_point_mass_has_no_cdf(self):
        with pytest.raises(ValueError, match="point mass"):
            chisq_law([0.0, 0.0]).cdf(1.0)

    def test_roundoff_weight_is_left_out(self):
        # a weight below the relative floor (vbar's null eigenvalue, say) is
        # roundoff; whether it lands at +1e-18 or 0 must not change F
        f = [chisq_law([1.3, tiny]).cdf(self.x) for tiny in (1e-18, 0.0)]
        np.testing.assert_array_equal(f[0], f[1])

    def test_scale_invariance(self):
        w = np.array([1.0, 0.4, 0.05])
        base = chisq_law(w).cdf(self.x)
        # a power of two scales the inverted law exactly; any other factor rounds
        np.testing.assert_array_equal(chisq_law(2.0**40 * w).cdf(2.0**40 * self.x), base)
        for c in (3.7, 1e-6, 1e298):
            np.testing.assert_allclose(chisq_law(c * w).cdf(c * self.x), base, rtol=0,
                                       atol=1e-12)

    def test_monotone(self):
        law = chisq_law(1.0 / np.arange(1, 100))
        # strictly increasing where the steps are well above the 1e-10 accuracy
        f = law.cdf(np.linspace(*law.quantile([1e-6, 1.0 - 1e-6]), 2000))
        assert np.all(np.diff(f) > 0.0)
        # and to within that accuracy at both ends, where F or 1 - F is O(1e-13)
        f = law.cdf(np.linspace(0.0, law.tail_end, 5000))
        assert np.all(np.diff(f) >= -1e-12) and 0.0 <= f.min() and f.max() <= 1.0

    def test_memory_of_1000_points_at_99_weights(self):
        # one (1000, 20, 99) complex array of every node and weight would hold 30 MB
        law = chisq_law(1.0 / np.arange(1, 100))
        x = np.linspace(0.01, 20.0, 1000)
        law.cdf(x)  # first use of the code path
        assert traced_peak_bytes(lambda: law.cdf(x)) < 2**20

    def test_chisq1_quantiles(self):
        np.testing.assert_allclose(chisq_law([1.0]).quantile([0.9, 0.95, 0.99]),
                                   [2.705543, 3.841459, 6.634897], rtol=0, atol=1e-6)

    def test_quantile_inverts_the_cdf(self):
        law = chisq_law(1.0 / np.arange(1, 100))
        p = np.array([0.0, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-9])
        q = law.quantile(p)
        assert q[0] < 1e-16 * law.tail_end and np.all(np.diff(q) > 0) and q[-1] < law.tail_end
        np.testing.assert_allclose(law.cdf(q), p, rtol=0, atol=1e-12)

    def test_tail_end_bounds_the_law(self):
        for w in ([1.0], [1.0, 1e-4], np.ones(50), 1.0 / np.arange(1, 100)):
            law = chisq_law(w)
            assert 1.0 - law.cdf(law.tail_end) <= 1e-12


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
    h = 0.01

    def test_single_weight_is_erf(self):
        # one weight: the density falls from infinity at 0, so the top window is at 0
        value = reference.max_window_prob(chisq_law([1.0]), self.h)
        assert value == pytest.approx(math.erf(math.sqrt(self.h / 2)), rel=0, abs=1e-10)
        assert value <= math.sqrt(4 * self.h / math.pi)

    def test_huge_window_is_at_most_one(self):
        assert reference.max_window_prob(chisq_law([1.0]), 100.0) <= 1.0

    def test_many_equal_weights_flatten_the_law(self):
        one = reference.max_window_prob(chisq_law([1.0]), self.h)
        many = reference.max_window_prob(chisq_law(np.ones(50)).unit(), self.h)
        assert many < 0.5 * one

    def test_scale_invariance(self):
        a = reference.max_window_prob(chisq_law([5.0, 2.0]).unit(), self.h)
        b = reference.max_window_prob(chisq_law([1.0, 0.4]).unit(), self.h)
        assert a == pytest.approx(b, rel=0, abs=1e-12)

    def test_interior_maximum_is_the_window_at_the_mode(self):
        # three equal unit weights: chi-square(3) / sqrt(3), whose mode is 1/sqrt(3)
        law = chisq_law(np.ones(3)).unit()
        value = reference.max_window_prob(law, self.h)
        t = np.linspace(0.3, 0.9, 6001)
        assert value == pytest.approx((law.cdf(t + self.h) - law.cdf(t)).max(), rel=1e-3)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            reference.WeightedChiSq([0.0]).unit()

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            reference.max_window_prob(chisq_law([1.0]), 0.0)
