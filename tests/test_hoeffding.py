"""Exactness of the subset-decomposition oracles.

Every identity here is algebraic, so tolerances are 1e-10 relative Frobenius
against directly computed products; expectations over discrete laws are exact
sums over enumerated outcomes.
"""

from fractions import Fraction

import numpy as np
import pytest

from ojaboot import hoeffding, linalg, model, reference


def three_point_law():
    sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
    return model.DiscreteSpec(support=sup, probs=np.full(3, 1 / 3))


def rel_frob(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


class TestDirectProduct:
    def test_empty_product_is_identity(self):
        np.testing.assert_array_equal(
            hoeffding.direct_product(np.zeros((0, 3)), eta_n=1.0), np.eye(3))

    def test_single_factor(self):
        x = np.array([1.0, 2.0])
        got = hoeffding.direct_product(x[None, :], eta_n=0.7)
        np.testing.assert_allclose(got, np.eye(2) + 0.7 * np.outer(x, x))

    def test_order_sensitivity(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((2, 3))
        fwd = hoeffding.direct_product(data, eta_n=1.0)
        rev = hoeffding.direct_product(data[::-1], eta_n=1.0)
        assert np.linalg.norm(fwd - rev) > 1e-8

    def test_sample_one_acts_first(self):
        x1 = np.array([1.0, 0.0])
        x2 = np.array([1.0, 1.0])
        got = hoeffding.direct_product(np.stack([x1, x2]), eta_n=2.0)
        f1 = np.eye(2) + np.outer(x1, x1)
        f2 = np.eye(2) + np.outer(x2, x2)
        np.testing.assert_allclose(got, f2 @ f1)


class TestHoeffdingTerm:
    def test_empty_subset(self):
        rng = np.random.default_rng(2)
        sigma = linalg.sym(rng.standard_normal((3, 3)))
        data = rng.standard_normal((4, 3))
        pairs = hoeffding.factor_pairs(data, 1.2, sigma=sigma)
        expected = np.linalg.matrix_power(np.eye(3) + 0.3 * sigma, 4)
        np.testing.assert_allclose(hoeffding.hoeffding_term(pairs, frozenset()), expected,
                                   atol=1e-12)

    def test_single_index_n1(self):
        x = np.array([2.0, -1.0])
        sigma = np.diag([1.0, 1.0])
        pairs = hoeffding.factor_pairs(x[None, :], 0.9, sigma=sigma)
        np.testing.assert_allclose(
            hoeffding.hoeffding_term(pairs, frozenset({1})), 0.9 * (np.outer(x, x) - sigma))

    def test_middle_index_n3(self):
        rng = np.random.default_rng(3)
        sigma = linalg.sym(rng.standard_normal((2, 2)))
        data = rng.standard_normal((3, 2))
        a = 0.6 / 3
        base = np.eye(2) + a * sigma
        expected = base @ (a * (np.outer(data[1], data[1]) - sigma)) @ base
        pairs = hoeffding.factor_pairs(data, 0.6, sigma=sigma)
        np.testing.assert_allclose(hoeffding.hoeffding_term(pairs, frozenset({2})), expected,
                                   atol=1e-13)

    def test_subset_bounds_validated(self):
        pairs = hoeffding.factor_pairs(np.zeros((3, 2)), 1.0, sigma=np.eye(2))
        with pytest.raises(ValueError):
            hoeffding.hoeffding_term(pairs, frozenset({5}))


class TestHoeffdingSum:
    def test_n1_binomial_identity(self):
        x = np.array([1.5, -0.5])
        sigma = np.diag([2.0, 1.0])
        total, terms = hoeffding.hoeffding_sum(x[None, :], eta_n=0.8, sigma=sigma)
        np.testing.assert_allclose(total, np.eye(2) + 0.8 * np.outer(x, x), atol=1e-14)
        np.testing.assert_allclose(terms[0], np.eye(2) + 0.8 * sigma)
        np.testing.assert_allclose(terms[1], 0.8 * (np.outer(x, x) - sigma))

    @pytest.mark.parametrize("n,d,eta_n", [(4, 3, 1.0), (6, 2, np.log(6)), (8, 4, 0.5)])
    def test_decomposition_identity(self, n, d, eta_n):
        rng = np.random.default_rng(10 * n + d)
        data = rng.standard_normal((n, d)) * 1.3
        sigma = linalg.sym(rng.standard_normal((d, d)))
        total, terms = hoeffding.hoeffding_sum(data, eta_n, sigma=sigma)
        b = hoeffding.direct_product(data, eta_n)
        assert np.linalg.norm(total - b) <= 1e-10 * max(1.0, np.linalg.norm(b))
        assert len(terms) == n + 1

    @pytest.mark.parametrize("kind", ["plain", "bootstrap"])
    def test_exact_decomposition_has_no_gap(self, kind):
        rng = np.random.default_rng(5)
        n = 5 if kind == "plain" else 6
        data = rng.standard_normal((n, 3)) * 5.0
        if kind == "plain":
            sum_args, product_args = {"sigma": linalg.sym(rng.standard_normal((3, 3)))}, {}
        else:
            sum_args = product_args = {"weights": rng.standard_normal(n)}
        total, _ = hoeffding.hoeffding_sum(data, np.log(n), **sum_args, exact=True)
        b = hoeffding.direct_product(data, np.log(n), **product_args, exact=True)
        assert all(isinstance(v, Fraction) for v in total.flat)
        assert np.array_equal(total, b)
        np.testing.assert_allclose(b.astype(float),
                                   hoeffding.direct_product(data, np.log(n), **product_args),
                                   rtol=1e-12)

    def test_exact_sum_rejects_a_float_term(self, monkeypatch):
        monkeypatch.setattr(hoeffding, "hoeffding_term",
                            lambda pairs, s: np.ones((2, 2)) if s else np.zeros((2, 2)))
        with pytest.raises(TypeError, match="float"):
            hoeffding.hoeffding_sum(np.ones((2, 2)), 1.0, sigma=np.eye(2), exact=True)

    def test_t0_always_the_sigma_power(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((5, 2))
        sigma = np.diag([1.0, 0.3])
        _, terms = hoeffding.hoeffding_sum(data, eta_n=2.0, sigma=sigma)
        np.testing.assert_allclose(
            terms[0], np.linalg.matrix_power(np.eye(2) + 0.4 * sigma, 5), atol=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="capped"):
            hoeffding.hoeffding_sum(np.zeros((21, 2)), 1.0, sigma=np.eye(2))
        # 2^20 > 10^6 subsets, so 19 is the largest n the cap admits
        with pytest.raises(ValueError, match=r"capped at n = 19 .*got 20"):
            hoeffding.hoeffding_sum(np.zeros((20, 2)), 1.0, sigma=np.eye(2))


class TestBootstrapHoeffding:
    def test_zero_weights_collapse_to_plain_product(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((5, 2))
        total, _ = hoeffding.hoeffding_sum(data, eta_n=1.1, weights=np.zeros(5))
        np.testing.assert_allclose(total, hoeffding.direct_product(data, 1.1), atol=1e-12)

    def test_zero_increment_collapses(self):
        x = np.array([1.0, 0.5])
        data = np.stack([x, x])
        total, _ = hoeffding.hoeffding_sum(data, eta_n=0.9, weights=np.array([0.0, 1.0]))
        np.testing.assert_allclose(total, hoeffding.direct_product(data, 0.9), atol=1e-12)

    @pytest.mark.parametrize("n,d", [(5, 2), (6, 3)])
    def test_decomposition_identity(self, n, d):
        rng = np.random.default_rng(100 + n)
        data = rng.standard_normal((n, d))
        weights = rng.standard_normal(n)
        total, terms = hoeffding.hoeffding_sum(data, eta_n=np.log(n), weights=weights)
        direct = hoeffding.direct_product(data, eta_n=np.log(n), weights=weights)
        assert rel_frob(total, direct) <= 1e-10
        assert len(terms) == n

    def test_index_one_never_in_subset(self):
        pairs = hoeffding.factor_pairs(np.ones((2, 2)), 1.0, weights=np.ones(2))
        with pytest.raises(ValueError, match="index 1"):
            hoeffding.hoeffding_term(pairs, frozenset({1}))


class TestOrthogonality:
    def test_n2_exact(self):
        assert hoeffding.orthogonality_table(three_point_law(), n=2, eta_n=0.7) <= 1e-10

    def test_n4_exact(self):
        spec = model.DiscreteSpec(
            support=np.array([[1.0, 0.3], [-1.0, -0.3]]), probs=np.array([0.5, 0.5]))
        assert hoeffding.orthogonality_table(spec, n=4, eta_n=1.3) <= 1e-10
        assert hoeffding.orthogonality_table(three_point_law(), n=4, eta_n=1.3) <= 1e-10

    def test_diagonal_energy_positive(self):
        # E ||H(S)||_F^2 > 0 for S != empty when the law has nonzero variance
        spec = three_point_law()
        n = 3
        energy = 0.0
        for outcome, p in model.enumerate_outcomes(spec, n):
            pairs = hoeffding.factor_pairs(outcome, 1.0, sigma=spec.sigma)
            term = hoeffding.hoeffding_term(pairs, frozenset({2}))
            energy += p * np.sum(term * term)
        assert energy > 1e-6


class TestEnergyDecay:
    def test_geometric_decay_bound(self):
        # ratio bound eta_n^2 M_d / n with exact M_d over the support
        spec = three_point_law()
        eta_n, n = 0.5, 4
        md = sum(p * np.abs(np.linalg.eigvalsh(np.outer(x, x) - spec.sigma)).max() ** 2
                 for x, p in zip(spec.support, spec.probs))
        bound = eta_n**2 * md / n
        assert bound < 1.0
        energies = np.zeros(n + 1)
        for outcome, p in model.enumerate_outcomes(spec, n):
            _, terms = hoeffding.hoeffding_sum(outcome, eta_n, sigma=spec.sigma)
            for k, t in enumerate(terms):
                energies[k] += p * np.sum(t * t)
        ratios = energies[1:] / energies[:-1]
        assert np.all(ratios <= bound)


def hajek_term_v1(data, m, eta_n):
    """First-order term of the decomposition, projected off v1 and normalized:
    V_perp V_perp^T T_1 v1 / (1 + a lambda1)^n exactly, a = eta_n / n.

    Because sample 1 acts first, the contraction that damps sample i's
    contribution is the one accumulated over the n - i later steps: the summand
    for X_i carries the diagonal ratio powers n - i (the i - 1 earlier factors
    would describe the reversed product, which only matches in distribution).
    """
    m.require_gap()
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    a = eta_n / n
    ratios = reference.contraction_ratios(m, eta_n, n)  # length d-1
    coef = data @ m.v1  # (x_i . v1)
    proj = data @ m.v_perp  # rows V_perp^T x_i
    powers = ratios[None, :] ** (n - 1 - np.arange(n))[:, None]  # row i: ratios^(n-i), 1-based
    acc = (powers * proj * coef[:, None]).sum(axis=0)
    return m.v_perp @ (a / (1.0 + a * m.lambda1) * acc)


class TestHajekTermV1:
    def test_zero_for_constant_outer_product(self):
        # +/- x law: X X^T == Sigma on every support point
        sup = np.array([[1.0, 0.4], [-1.0, -0.4]])
        spec = model.DiscreteSpec(support=sup, probs=np.array([0.5, 0.5]))
        m = model.spectral_decompose(spec)
        data = sup[np.array([0, 1, 1, 0])]
        got = hajek_term_v1(data, m, eta_n=1.0)
        np.testing.assert_allclose(got, np.zeros(2), atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_projected_enumerated_t1(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 3, 2
        raw = rng.standard_normal((d, d))
        m = model.spectral_decompose(model.ExplicitSpec(raw @ raw.T + np.diag([2.0, 0.5])))
        data = rng.standard_normal((n, d))
        eta_n = 1.1
        a = eta_n / n
        _, terms = hoeffding.hoeffding_sum(data, eta_n, sigma=m.sigma)
        target = m.v_perp @ (m.v_perp.T @ (terms[1] @ m.v1)) / (1 + a * m.lambda1) ** n
        got = hajek_term_v1(data, m, eta_n)
        assert np.linalg.norm(got - target) <= 1e-10

    def test_orthogonal_to_v1(self):
        rng = np.random.default_rng(5)
        m = model.spectral_decompose(model.KernelSpec(d=6, c=0.01, beta=1.0, scale=5.0))
        data = rng.standard_normal((8, 6))
        got = hajek_term_v1(data, m, eta_n=2.0)
        assert abs(got @ m.v1) <= 1e-12

    def test_degenerate_gap_rejected(self):
        m = model.spectral_decompose(model.ExplicitSpec(np.eye(3)))
        with pytest.raises(model.DegenerateGapError):
            hajek_term_v1(np.ones((2, 3)), m, eta_n=1.0)
