"""Exactness of the subset-decomposition oracles.

Every identity here is algebraic, so tolerances are 1e-10 relative Frobenius
against directly computed products; expectations over discrete laws are exact
sums over enumerated outcomes.
"""

import functools
import itertools
import types
from fractions import Fraction

import numpy as np
import pytest

from ojaboot import hoeffding, linalg, model, randgen, reference


def explicit_law(sigma):
    """A law given only by its covariance, symmetrized as the package's specs are."""
    return types.SimpleNamespace(sigma=linalg.sym(sigma))


def three_point_law():
    sup = np.array([[1.2, 0.0], [-0.6, 0.9], [-0.6, -0.9]])
    return model.DiscreteSpec(support=sup, probs=np.full(3, 1 / 3))


def rel_frob(a, b):
    return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))


def as_fractions(numerators, den):
    """The exact path's integer numerators over den, entrywise as Fractions."""
    assert all(isinstance(v, int) for v in numerators.flat)
    return np.array([Fraction(v, den) for v in numerators.flat],
                    dtype=object).reshape(numerators.shape)


class TestDirectProduct:
    def test_zero_rows_are_rejected(self):
        for oracle in (hoeffding.direct_product,
                       lambda data, eta_n: hoeffding.hoeffding_sum(data, eta_n, sigma=np.eye(3))):
            with pytest.raises(ValueError, match="n >= 1"):
                oracle(np.zeros((0, 3)), eta_n=1.0)

    def test_single_factor(self, rounded):
        x = np.array([1.0, 2.0])
        got = rounded(*hoeffding.direct_product(x[None, :], eta_n=0.7))
        np.testing.assert_allclose(got, np.eye(2) + 0.7 * np.outer(x, x))

    def test_order_sensitivity(self, rounded):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((2, 3))
        fwd = rounded(*hoeffding.direct_product(data, eta_n=1.0))
        rev = rounded(*hoeffding.direct_product(data[::-1], eta_n=1.0))
        assert np.linalg.norm(fwd - rev) > 1e-8

    def test_sample_one_acts_first(self, rounded):
        x1 = np.array([1.0, 0.0])
        x2 = np.array([1.0, 1.0])
        got = rounded(*hoeffding.direct_product(np.stack([x1, x2]), eta_n=2.0))
        f1 = np.eye(2) + np.outer(x1, x1)
        f2 = np.eye(2) + np.outer(x2, x2)
        np.testing.assert_allclose(got, f2 @ f1)


class TestHoeffdingTerm:
    def test_empty_subset(self, rounded):
        rng = np.random.default_rng(2)
        sigma = linalg.sym(rng.standard_normal((3, 3)))
        data = rng.standard_normal((4, 3))
        pairs, den = hoeffding.factor_pairs(data, 1.2, sigma=sigma)
        expected = np.linalg.matrix_power(np.eye(3) + 0.3 * sigma, 4)
        terms = dict(hoeffding.subset_terms(pairs))
        np.testing.assert_allclose(rounded(terms[frozenset()], den**4), expected, atol=1e-12)

    def test_single_index_n1(self, rounded):
        x = np.array([2.0, -1.0])
        sigma = np.diag([1.0, 1.0])
        pairs, den = hoeffding.factor_pairs(x[None, :], 0.9, sigma=sigma)
        terms = dict(hoeffding.subset_terms(pairs))
        np.testing.assert_allclose(rounded(terms[frozenset({1})], den),
                                   0.9 * (np.outer(x, x) - sigma))

    def test_middle_index_n3(self, rounded):
        rng = np.random.default_rng(3)
        sigma = linalg.sym(rng.standard_normal((2, 2)))
        data = rng.standard_normal((3, 2))
        a = 0.6 / 3
        base = np.eye(2) + a * sigma
        expected = base @ (a * (np.outer(data[1], data[1]) - sigma)) @ base
        pairs, den = hoeffding.factor_pairs(data, 0.6, sigma=sigma)
        got = rounded(dict(hoeffding.subset_terms(pairs))[frozenset({2})], den**3)
        np.testing.assert_allclose(got, expected, atol=1e-13)


def exact_pairs(kind, n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    args = ({"sigma": linalg.sym(rng.standard_normal((d, d)))} if kind == "plain"
            else {"weights": rng.standard_normal(n)})
    return hoeffding.factor_pairs(data, 1.3, **args)[0]


class CountingMatrix:
    """A matrix that counts the products taken through it."""
    products = 0

    def __init__(self, m):
        self.m = m

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return CountingMatrix(self.m @ other.m)


class TestSubsetTerms:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("kind", ["plain", "bootstrap"])
    def test_yields_the_power_set_of_the_increments(self, kind, n):
        pairs = exact_pairs(kind, n)
        got = [s for s, _ in hoeffding.subset_terms(pairs)]
        idx = range(1, n + 1) if kind == "plain" else range(2, n + 1)
        want = {frozenset(c) for k in range(len(idx) + 1) for c in itertools.combinations(idx, k)}
        assert len(got) == len(set(got)) == len(want) and set(got) == want
        # bootstrap index 1 has no previous sample, so no subset holds it
        assert kind == "plain" or not any(1 in s for s in got)

    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("kind", ["plain", "bootstrap"])
    def test_each_term_is_the_product_of_its_factors(self, kind, n):
        pairs = exact_pairs(kind, n, d=3, seed=n)
        for s, h in hoeffding.subset_terms(pairs):
            want = product([b if i in s else a for i, (a, b) in enumerate(pairs, 1)])
            assert all(isinstance(v, int) for v in h.flat)
            assert np.array_equal(h, want)

    @pytest.mark.parametrize("kind, products", [("plain", lambda n: 2 ** (n + 1) - 4),
                                                ("bootstrap", lambda n: 2**n - 2)])
    def test_each_prefix_costs_one_product(self, kind, products, monkeypatch):
        for n in (1, 2, 4, 7):
            pairs = [(CountingMatrix(a), None if b is None else CountingMatrix(b))
                     for a, b in exact_pairs(kind, n)]
            monkeypatch.setattr(CountingMatrix, "products", 0)
            assert len(list(hoeffding.subset_terms(pairs))) == 2 ** (n - (kind == "bootstrap"))
            assert CountingMatrix.products == products(n)

    @pytest.mark.parametrize("n", [1, 4, 7])
    @pytest.mark.parametrize("kind", ["plain", "bootstrap"])
    def test_sum_equals_the_combinations_loop(self, kind, n):
        rng = np.random.default_rng(n)
        data = rng.standard_normal((n, 2)) * 3.0
        args = ({"sigma": np.diag([2.0, 0.5])} if kind == "plain"
                else {"weights": rng.standard_normal(n)})
        pairs, den = hoeffding.factor_pairs(data, np.log(n + 1), **args)
        idx = [i for i, (_, b) in enumerate(pairs, 1) if b is not None]
        terms = [np.zeros_like(pairs[0][0]) for _ in range(len(idx) + 1)]
        for k in range(len(idx) + 1):
            for combo in itertools.combinations(idx, k):
                terms[k] += product([b if i in combo else a
                                     for i, (a, b) in enumerate(pairs, 1)])
        total, got, got_den = hoeffding.hoeffding_sum(data, np.log(n + 1), **args)
        assert got_den == den ** n and len(got) == len(terms)
        assert all(np.array_equal(g, t) for g, t in zip(got, terms))
        assert np.array_equal(total, np.sum(terms, axis=0))


class TestHoeffdingSum:
    def test_n1_binomial_identity(self, rounded):
        x = np.array([1.5, -0.5])
        sigma = np.diag([2.0, 1.0])
        total, terms, den = hoeffding.hoeffding_sum(x[None, :], eta_n=0.8, sigma=sigma)
        np.testing.assert_allclose(rounded(total, den), np.eye(2) + 0.8 * np.outer(x, x),
                                   atol=1e-14)
        np.testing.assert_allclose(rounded(terms[0], den), np.eye(2) + 0.8 * sigma)
        np.testing.assert_allclose(rounded(terms[1], den), 0.8 * (np.outer(x, x) - sigma))

    @pytest.mark.parametrize("n,d,eta_n", [(4, 3, 1.0), (6, 2, np.log(6)), (8, 4, 0.5)])
    def test_decomposition_identity(self, n, d, eta_n, rounded):
        rng = np.random.default_rng(10 * n + d)
        data = rng.standard_normal((n, d)) * 1.3
        sigma = linalg.sym(rng.standard_normal((d, d)))
        total, terms, den = hoeffding.hoeffding_sum(data, eta_n, sigma=sigma)
        total = rounded(total, den)
        b = rounded(*hoeffding.direct_product(data, eta_n))
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
        total, _, den_t = hoeffding.hoeffding_sum(data, np.log(n), **sum_args)
        b = as_fractions(*hoeffding.direct_product(data, np.log(n), **product_args))
        total = as_fractions(total, den_t)
        assert np.array_equal(total, b)

    def test_exact_sum_rejects_a_float_term(self, monkeypatch):
        orig = hoeffding.subset_terms
        monkeypatch.setattr(hoeffding, "subset_terms", lambda pairs: (
            (s, np.ones((2, 2)) if s else h) for s, h in orig(pairs)))
        with pytest.raises(TypeError, match="float"):
            hoeffding.hoeffding_sum(np.ones((2, 2)), 1.0, sigma=np.eye(2))

    def test_t0_always_the_sigma_power(self, rounded):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((5, 2))
        sigma = np.diag([1.0, 0.3])
        _, terms, den = hoeffding.hoeffding_sum(data, eta_n=2.0, sigma=sigma)
        np.testing.assert_allclose(
            rounded(terms[0], den), np.linalg.matrix_power(np.eye(2) + 0.4 * sigma, 5), atol=1e-12)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError, match="capped"):
            hoeffding.hoeffding_sum(np.zeros((21, 2)), 1.0, sigma=np.eye(2))
        # 2^20 > 10^6 subsets, so 19 is the largest n the cap admits
        with pytest.raises(ValueError, match=r"capped at n = 19 .*got 20"):
            hoeffding.hoeffding_sum(np.zeros((20, 2)), 1.0, sigma=np.eye(2))


def exact(a):
    """Each float of a as the Fraction of its exact value."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(a, dtype=float))


def product(factors):  # factors[0] acts first
    return functools.reduce(lambda out, f: f @ out, factors)


def fraction_oracle(data, eta_n, sigma=None, weights=None):
    """(direct product, subset sum) in Fractions throughout, from each input
    float's exact value: the reference for the integer evaluation."""
    x = exact(data)
    n, d = x.shape
    a = Fraction(eta_n) / n
    eye = np.eye(d, dtype=object)
    outer = [np.outer(r, r) for r in x]
    if weights is None:
        s = exact(linalg.sym(sigma))
        pairs = [(eye + a * s, a * (xx - s)) for xx in outer]
        factors = [eye + a * xx for xx in outer]
    else:
        w = exact(weights)
        inc = [None] + [a * w[i] * (outer[i] - outer[i - 1]) for i in range(1, n)]
        pairs = [(eye + a * xx, b) for xx, b in zip(outer, inc)]
        factors = [eye + a * xx + (0 if b is None else b) for xx, b in zip(outer, inc)]
    idx = [i for i, (_, b) in enumerate(pairs) if b is not None]
    total = sum(product([inc_i if i in s else base for i, (base, inc_i) in enumerate(pairs)])
                for k in range(len(idx) + 1) for s in itertools.combinations(idx, k))
    return product(factors), total


class TestExactAgainstFractions:
    @pytest.mark.parametrize("scale", [5.0, 1e70])
    @pytest.mark.parametrize("n, d", [(1, 2), (3, 3), (5, 2), (6, 3)])
    @pytest.mark.parametrize("kind", ["plain", "bootstrap"])
    def test_integer_evaluation_equals_the_fraction_oracle(self, kind, n, d, scale):
        mdl = model.spectral_decompose(model.KernelSpec(d=d, c=0.01, beta=1.0, scale=scale))
        stream = randgen.RngStream(11, ("exact", kind, n, d))
        data = model.sample_x(mdl, stream, n)
        args = ({"sigma": mdl.sigma} if kind == "plain"
                else {"weights": stream.normal(0.0, 0.5, n)})
        eta = float(np.log(n + 1))
        direct, total = fraction_oracle(data, eta, **args)
        got_total, terms, den = hoeffding.hoeffding_sum(data, eta, **args)
        got_direct = as_fractions(*hoeffding.direct_product(data, eta, args.get("weights")))
        got_total, terms = as_fractions(got_total, den), [as_fractions(t, den) for t in terms]
        assert np.array_equal(got_direct, direct)
        assert np.array_equal(got_total, total)
        assert np.array_equal(np.sum(terms, axis=0), total)


class TestBootstrapHoeffding:
    def test_zero_weights_collapse_to_plain_product(self, rounded):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((5, 2))
        total, _, den = hoeffding.hoeffding_sum(data, eta_n=1.1, weights=np.zeros(5))
        np.testing.assert_allclose(rounded(total, den),
                                   rounded(*hoeffding.direct_product(data, 1.1)), atol=1e-12)

    def test_zero_increment_collapses(self, rounded):
        x = np.array([1.0, 0.5])
        data = np.stack([x, x])
        total, _, den = hoeffding.hoeffding_sum(data, eta_n=0.9, weights=np.array([0.0, 1.0]))
        np.testing.assert_allclose(rounded(total, den),
                                   rounded(*hoeffding.direct_product(data, 0.9)), atol=1e-12)

    @pytest.mark.parametrize("n,d", [(5, 2), (6, 3)])
    def test_decomposition_identity(self, n, d, rounded):
        rng = np.random.default_rng(100 + n)
        data = rng.standard_normal((n, d))
        weights = rng.standard_normal(n)
        total, terms, den = hoeffding.hoeffding_sum(data, eta_n=np.log(n), weights=weights)
        direct = rounded(*hoeffding.direct_product(data, eta_n=np.log(n), weights=weights))
        assert rel_frob(rounded(total, den), direct) <= 1e-10
        assert len(terms) == n

    def test_index_one_never_in_subset(self):
        pairs, _ = hoeffding.factor_pairs(np.ones((2, 2)), 1.0, weights=np.ones(2))
        assert set(dict(hoeffding.subset_terms(pairs))) == {frozenset(), frozenset({2})}


def verify_law():
    """The lopsided two-point law of verify's orthogonality check, dyadic throughout."""
    return model.DiscreteSpec(np.array([[1.5, 0.75], [-0.5, -0.25]]), np.array([0.25, 0.75]))


def fraction_orthogonality(spec, n, eta_n):
    """orthogonality_table in Fractions throughout, from each input float's exact
    value, rounded once at the end."""
    s = exact(linalg.sym(spec.sigma))
    a = Fraction(eta_n) / n
    base = np.eye(s.shape[0], dtype=object) + a * s
    subsets = [set(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    gram = np.zeros((len(subsets), len(subsets)), dtype=object)
    for outcome, p in model.enumerate_outcomes(spec, n):
        incs = [a * (np.outer(r, r) - s) for r in exact(outcome)]
        flat = [product([incs[i] if i in sub else base for i in range(n)]).ravel()
                for sub in subsets]
        gram += Fraction(p) * np.array([[f @ g for g in flat] for f in flat], dtype=object)
    return float(max(abs(gram[i, j]) for i in range(len(subsets))
                     for j in range(len(subsets)) if i != j))


class TestOrthogonality:
    def test_n2_exact(self):
        assert hoeffding.orthogonality_table(three_point_law(), n=2, eta_n=0.7) <= 1e-10

    def test_n4_exact(self):
        spec = model.DiscreteSpec(
            support=np.array([[1.0, 0.3], [-1.0, -0.3]]), probs=np.array([0.5, 0.5]))
        assert hoeffding.orthogonality_table(spec, n=4, eta_n=1.3) <= 1e-10
        assert hoeffding.orthogonality_table(three_point_law(), n=4, eta_n=1.3) <= 1e-10

    @pytest.mark.parametrize("spec, n", [(three_point_law(), 2), (three_point_law(), 3),
                                         (verify_law(), 4)], ids=["three-point-2", "three-point-3",
                                                                  "verify-4"])
    def test_equals_the_fraction_oracle(self, spec, n):
        assert hoeffding.orthogonality_table(spec, n, eta_n=1.0) == fraction_orthogonality(
            spec, n, eta_n=1.0)

    def test_verify_law_reads_exactly_zero(self):
        # its probabilities, support and covariance are exact in binary, so the exact
        # table has no input rounding to measure
        assert hoeffding.orthogonality_table(verify_law(), n=4, eta_n=1.0) == 0.0

    def test_diagonal_energy_positive(self, rounded):
        # E ||H(S)||_F^2 > 0 for S != empty when the law has nonzero variance
        spec = three_point_law()
        n = 3
        energy = 0.0
        for outcome, p in model.enumerate_outcomes(spec, n):
            pairs, den = hoeffding.factor_pairs(outcome, 1.0, sigma=spec.sigma)
            term = rounded(dict(hoeffding.subset_terms(pairs))[frozenset({2})], den**n)
            energy += p * np.sum(term * term)
        assert energy > 1e-6


class TestEnergyDecay:
    def test_geometric_decay_bound(self, rounded):
        # ratio bound eta_n^2 M_d / n with exact M_d over the support
        spec = three_point_law()
        eta_n, n = 0.5, 4
        md = sum(p * np.abs(np.linalg.eigvalsh(np.outer(x, x) - spec.sigma)).max() ** 2
                 for x, p in zip(spec.support, spec.probs))
        bound = eta_n**2 * md / n
        assert bound < 1.0
        energies = np.zeros(n + 1)
        for outcome, p in model.enumerate_outcomes(spec, n):
            _, terms, den = hoeffding.hoeffding_sum(outcome, eta_n, sigma=spec.sigma)
            for k, t in enumerate(terms):
                t = rounded(t, den)
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
    def test_matches_projected_enumerated_t1(self, seed, rounded):
        rng = np.random.default_rng(seed)
        n, d = 3, 2
        raw = rng.standard_normal((d, d))
        m = model.spectral_decompose(explicit_law(raw @ raw.T + np.diag([2.0, 0.5])))
        data = rng.standard_normal((n, d))
        eta_n = 1.1
        a = eta_n / n
        _, terms, den = hoeffding.hoeffding_sum(data, eta_n, sigma=m.sigma)
        t1 = rounded(terms[1], den)
        target = m.v_perp @ (m.v_perp.T @ (t1 @ m.v1)) / (1 + a * m.lambda1) ** n
        got = hajek_term_v1(data, m, eta_n)
        assert np.linalg.norm(got - target) <= 1e-10

    def test_orthogonal_to_v1(self):
        rng = np.random.default_rng(5)
        m = model.spectral_decompose(model.KernelSpec(d=6, c=0.01, beta=1.0, scale=5.0))
        data = rng.standard_normal((8, 6))
        got = hajek_term_v1(data, m, eta_n=2.0)
        assert abs(got @ m.v1) <= 1e-12

    def test_degenerate_gap_rejected(self):
        m = model.spectral_decompose(explicit_law(np.eye(3)))
        with pytest.raises(model.DegenerateGapError):
            hajek_term_v1(np.ones((2, 3)), m, eta_n=1.0)
