"""Exact subset-enumeration oracles for decomposing the streamed matrix product.

The product B_n = (I + a X_n X_n^T) ... (I + a X_1 X_1^T), a = eta_n / n, is
what the Oja run applies to u0 (sample 1 acts first, later factors multiply on
the left; every builder here composes factors through the same helper, so the
identities below are ordering-consistent). Expanding each factor as
(I + a Sigma) + a(X_i X_i^T - Sigma) and distributing gives one term per
subset S of indices:

    B_n = sum_S H(S),  H(S) = product with a(X_i X_i^T - Sigma) at i in S
                              and I + a Sigma elsewhere,

the decomposition whose order-k sums T_k = sum_{|S|=k} H(S) are mutually
orthogonal in expectation (trace inner product). The bootstrap product has the
same structure with multiplier increments a W_i (X_i X_i^T - X_{i-1} X_{i-1}^T)
in place of the centered factors; index 1 never enters a subset because there
is no sample before it (first-step convention, shared with the bootstrap
module).

These builders are ground truth for tests and the verify suite: exactness, not
scale, is the point. Enumeration is capped at 2^n <= 10^6 subsets
(model.ENUMERATION_CAP), so n <= 19. In float64 the subset terms can cancel by
a factor of 1e6 or more (sum_S ||H(S)|| against ||B_n||), so `hoeffding_sum`
and `direct_product` also take exact=True. Then they evaluate in rational
arithmetic (fractions.Fraction) and return object arrays of rationals. A float
is a dyadic rational, so the inputs convert without loss and sum_S H(S) equals
B_n with no rounding at all.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .model import ENUMERATION_CAP, DiscreteSpec, SpectralModel, enumerate_outcomes
from .reference import contraction_ratios


def ordered_product(factors) -> np.ndarray:
    """Compose factors so that factors[0] acts first: factors[-1] @ ... @ factors[0].

    Rational factors (object arrays) are multiplied as integers over one common
    denominator, which skips the gcd that every Fraction operation pays.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need the dimension from at least one factor")
    if factors[0].dtype != object:
        out = np.eye(factors[0].shape[0])
        for f in factors:
            out = f @ out
        return out
    den = math.lcm(*(v.denominator for f in factors for v in f.flat))
    out = np.eye(factors[0].shape[0], dtype=object)
    for f in factors:
        out = _map(lambda v: v.numerator * (den // v.denominator), f) @ out
    scale = den ** len(factors)
    return _map(lambda v: Fraction(v, scale), out)


def _map(fn, a: np.ndarray) -> np.ndarray:
    return np.array([fn(v) for v in a.flat], dtype=object).reshape(a.shape)


def _as_rows(data) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be an (n, d) array of row samples")
    return data


def _exact(a) -> np.ndarray:
    """A float array as an object array of Fractions, with no rounding."""
    return _map(Fraction, np.asarray(a, dtype=float))


def _require_exact(m: np.ndarray) -> np.ndarray:
    # Fraction + float is a float, so a stray float would otherwise pass silently.
    if not all(isinstance(v, numbers.Rational) for v in m.flat):
        raise TypeError("a float entered an exact evaluation")
    return m


def direct_product(data, eta_n: float, n: int | None = None, exact: bool = False) -> np.ndarray:
    """B_n for the first n rows of data; n = 0 gives the identity."""
    data = _as_rows(data)
    if n is None:
        n = data.shape[0]
    if n > data.shape[0]:
        raise ValueError(f"need {n} samples, got {data.shape[0]}")
    data = data[:n]
    if exact:
        data, eta_n = _exact(data), Fraction(eta_n)
    eye = np.eye(data.shape[1], dtype=data.dtype)
    if n == 0:
        return eye
    a = eta_n / n
    return ordered_product(eye + a * np.outer(x, x) for x in data)


@dataclass(frozen=True, eq=False)
class SubsetTermSpec:
    """One subset's factor recipe. Indices in s are 1-based; weights are the
    bootstrap multipliers (weights[0] is never used: index 1 cannot be in s).
    Object-array data and sigma with a Fraction eta_n give an exact term; sigma
    must then already be symmetric."""

    s: frozenset
    n: int
    eta_n: float
    sigma: np.ndarray
    data: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not all(1 <= i <= self.n for i in self.s):
            raise ValueError(f"subset {sorted(self.s)} not within 1..{self.n}")
        if self.data.shape[0] < self.n:
            raise ValueError("not enough data rows")
        if self.weights is not None and 1 in self.s:
            raise ValueError("index 1 cannot carry a multiplier increment (no previous sample)")


def hoeffding_term(spec: SubsetTermSpec) -> np.ndarray:
    """H(S), or its bootstrap counterpart when weights are present."""
    a = spec.eta_n / spec.n
    d = spec.data.shape[1]
    eye = np.eye(d, dtype=spec.data.dtype)
    sigma = spec.sigma if spec.data.dtype == object else linalg.sym(spec.sigma)
    base = eye + a * sigma
    factors = []
    for i in range(1, spec.n + 1):
        x = spec.data[i - 1]
        if spec.weights is None:
            factors.append(a * (np.outer(x, x) - spec.sigma) if i in spec.s else base)
        else:
            if i in spec.s:
                prev = spec.data[i - 2]
                delta = np.outer(x, x) - np.outer(prev, prev)
                factors.append(a * spec.weights[i - 1] * delta)
            else:
                factors.append(eye + a * np.outer(x, x))
    return ordered_product(factors)


def _check_enumeration_size(n: int):
    # 2^n subsets; the largest n under the cap is floor(log2 cap), 19 for 10^6
    if 2**n > ENUMERATION_CAP:
        raise ValueError(f"subset enumeration capped at n = {ENUMERATION_CAP.bit_length() - 1} "
                         f"(2^n <= {ENUMERATION_CAP}), got {n}")


def hoeffding_sum(data, sigma, eta_n: float, exact: bool = False):
    """(sum of all H(S), [T_0, ..., T_n]) with T_k the order-k subset sum."""
    data = _as_rows(data)
    n = data.shape[0]
    _check_enumeration_size(n)
    sigma = linalg.sym(sigma)
    if exact:
        data, sigma, eta_n = _exact(data), _exact(sigma), Fraction(eta_n)
    d = data.shape[1]
    terms = [np.zeros((d, d), dtype=data.dtype) for _ in range(n + 1)]
    for k in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            spec = SubsetTermSpec(s=frozenset(combo), n=n, eta_n=eta_n, sigma=sigma, data=data)
            terms[k] += hoeffding_term(spec)
    total = np.sum(terms, axis=0)
    return (_require_exact(total) if exact else total), terms


def bootstrap_direct_product(data, weights, eta_n: float) -> np.ndarray:
    """Product of I + a(X_i X_i^T + W_i Delta_i) factors; Delta_1 is absent."""
    data = _as_rows(data)
    n = data.shape[0]
    a = eta_n / n
    d = data.shape[1]
    factors = []
    for i in range(n):
        f = np.eye(d) + a * np.outer(data[i], data[i])
        if i > 0:
            delta = np.outer(data[i], data[i]) - np.outer(data[i - 1], data[i - 1])
            f = f + a * weights[i] * delta
        factors.append(f)
    return ordered_product(factors)


def bootstrap_hoeffding_sum(data, weights, eta_n: float):
    """(sum over subsets of {2..n}, [T*_0, ..., T*_{n-1}]) for the bootstrap product."""
    data = _as_rows(data)
    n = data.shape[0]
    _check_enumeration_size(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] != n:
        raise ValueError("need one weight per sample")
    d = data.shape[1]
    terms = [np.zeros((d, d)) for _ in range(n)]
    for k in range(n):
        for combo in itertools.combinations(range(2, n + 1), k):
            spec = SubsetTermSpec(
                s=frozenset(combo), n=n, eta_n=eta_n,
                sigma=np.zeros((d, d)), data=data, weights=weights,
            )
            terms[k] += hoeffding_term(spec)
    total = np.sum(terms, axis=0)
    return total, terms


def orthogonality_table(spec: DiscreteSpec, n: int, eta_n: float) -> float:
    """max over S != R of |E <H(S), H(R)>|, exactly, by outcome enumeration."""
    _check_enumeration_size(n)
    sigma = spec.sigma
    d = sigma.shape[0]
    subsets = [frozenset(c)
               for k in range(n + 1)
               for c in itertools.combinations(range(1, n + 1), k)]
    m = len(subsets)
    gram = np.zeros((m, m))
    for outcome, p in enumerate_outcomes(spec, n):
        flat = np.empty((m, d * d))
        for a, s in enumerate(subsets):
            term_spec = SubsetTermSpec(s=s, n=n, eta_n=eta_n, sigma=sigma, data=outcome)
            flat[a] = hoeffding_term(term_spec).ravel()
        gram += p * (flat @ flat.T)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))


def hajek_term_v1(data, model: SpectralModel, eta_n: float) -> np.ndarray:
    """First-order term of the decomposition, projected off v1 and normalized.

    Equals V_perp V_perp^T T_1 v1 / (1 + a lambda1)^n exactly, a = eta_n / n.
    Because sample 1 acts first, the contraction that damps sample i's
    contribution is the one accumulated over the n - i later steps: the
    summand for X_i carries the diagonal ratio powers n - i (applying the
    per-index closed form to the i-1 earlier factors instead would describe
    the reversed product, which only matches in distribution).
    """
    model.require_gap()
    data = _as_rows(data)
    n = data.shape[0]
    a = eta_n / n
    ratios = contraction_ratios(model, eta_n, n)  # length d-1
    coef = data @ model.v1  # (x_i . v1)
    proj = data @ model.v_perp  # rows V_perp^T x_i
    powers = ratios[None, :] ** (n - 1 - np.arange(n))[:, None]  # row i: ratios^(n-i), 1-based
    acc = (powers * proj * coef[:, None]).sum(axis=0)
    return model.v_perp @ (a / (1.0 + a * model.lambda1) * acc)
