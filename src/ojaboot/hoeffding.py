"""Exact subset-enumeration oracles for decomposing the streamed matrix products.

The Oja run applies F_n ... F_1 to u0 (sample 1 acts first; `ordered_product`
composes every product here that way). Writing each factor as a pair
F_i = A_i + B_i and distributing gives one term per subset S of the indices
with an increment B_i: the product is sum_S H(S), where H(S) has B_i at i in S
and A_i elsewhere. `factor_pairs` builds the pairs once per sum; a = eta_n / n.

- Plain, F_i = I + a X_i X_i^T: A_i = I + a Sigma, B_i = a(X_i X_i^T - Sigma).
  The order-k sums T_k = sum_{|S|=k} H(S) are mutually orthogonal in
  expectation (trace inner product).
- Bootstrap, F_i = I + a(X_i X_i^T + W_i Delta_i): A_i = I + a X_i X_i^T,
  B_i = a W_i Delta_i, Delta_i = X_i X_i^T - X_{i-1} X_{i-1}^T. B_1 is None:
  no sample precedes index 1 (the bootstrap module's first-step convention).

`direct_product` multiplies the F_i as written, never through the pairs, so a
wrong pair cannot cancel out of the identity it checks. These builders are
ground truth for tests and the verify suite. Enumeration is capped at
2^n <= 10^6 subsets (model.ENUMERATION_CAP), so n <= 19. In float64 the terms
can cancel by a factor of 1e6 or more (sum_S ||H(S)|| against the product), so
`hoeffding_sum` and `direct_product` take exact=True: a float is a dyadic
rational, so the inputs become Fractions without loss, are scaled to integers
over one common denominator, multiplied and summed as integers, and returned
as object arrays of Fractions, with no rounding at all.
"""

from __future__ import annotations

import itertools
import math
import numbers
from fractions import Fraction

import numpy as np

from . import linalg
from .model import ENUMERATION_CAP, DiscreteSpec, enumerate_outcomes


def ordered_product(factors) -> np.ndarray:
    """Compose factors so that factors[0] acts first: factors[-1] @ ... @ factors[0]."""
    factors = list(factors)
    if not factors:
        raise ValueError("need the dimension from at least one factor")
    out = np.eye(factors[0].shape[0], dtype=factors[0].dtype)
    for f in factors:
        out = f @ out
    return out


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


def _integers(mats):
    """([den * m for m in mats], den) for rational matrices, den their least
    common denominator; None passes through. Integer products skip the gcd that
    every Fraction operation pays."""
    den = math.lcm(*(v.denominator for m in mats if m is not None for v in m.flat))
    return [None if m is None else _map(lambda v: v.numerator * (den // v.denominator), m)
            for m in mats], den


def _fractions(m: np.ndarray, den: int) -> np.ndarray:
    # Fraction + float is a float, so a stray float would otherwise pass silently.
    if not all(isinstance(v, numbers.Rational) for v in m.flat):
        raise TypeError("a float entered an exact evaluation")
    return _map(lambda v: Fraction(v, den), m)


def _prepare(data, eta_n: float, weights, exact: bool):
    """(rows, a = eta_n / n, weights, identity), all rational when exact."""
    data = _as_rows(data)
    n = data.shape[0]
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("need one weight per sample")
    if exact:
        data, eta_n = _exact(data), Fraction(eta_n)
        weights = None if weights is None else _exact(weights)
    # zero rows give no factor for a to scale
    return data, eta_n / max(n, 1), weights, np.eye(data.shape[1], dtype=data.dtype)


def direct_product(data, eta_n: float, weights=None, exact: bool = False) -> np.ndarray:
    """F_n ... F_1 with F_i = I + a X_i X_i^T, plus a W_i Delta_i for i >= 2 when
    weights are given; zero rows give the identity."""
    data, a, weights, eye = _prepare(data, eta_n, weights, exact)
    if data.shape[0] == 0:
        return eye
    factors = []
    for i, x in enumerate(data):
        f = eye + a * np.outer(x, x)
        if weights is not None and i > 0:
            f = f + a * weights[i] * (np.outer(x, x) - np.outer(data[i - 1], data[i - 1]))
        factors.append(f)
    if not exact:
        return ordered_product(factors)
    ints, den = _integers(factors)
    return _fractions(ordered_product(ints), den ** len(ints))


def factor_pairs(data, eta_n: float, sigma=None, weights=None, exact: bool = False) -> list:
    """[(A_i, B_i)] for i = 1..n: the plain pairs from sigma, or the bootstrap
    pairs from weights (B_1 is then None). Exactly one of the two is given."""
    if (sigma is None) == (weights is None):
        raise ValueError("give exactly one of sigma (plain) and weights (bootstrap)")
    data, a, weights, eye = _prepare(data, eta_n, weights, exact)
    outer = [np.outer(x, x) for x in data]
    if weights is None:
        sigma = _exact(linalg.sym(sigma)) if exact else linalg.sym(sigma)
        base = eye + a * sigma
        return [(base, a * (xx - sigma)) for xx in outer]
    return [(eye + a * xx, None if i == 0 else a * weights[i] * (xx - outer[i - 1]))
            for i, xx in enumerate(outer)]


def hoeffding_term(pairs, s) -> np.ndarray:
    """H(S): the ordered product of B_i for i in s (1-based) and A_i elsewhere."""
    for i in s:
        if not 1 <= i <= len(pairs) or pairs[i - 1][1] is None:
            raise ValueError(f"index {i} is not within 1..{len(pairs)} or has no increment "
                             "(bootstrap index 1 has no previous sample)")
    return ordered_product(b if i in s else a for i, (a, b) in enumerate(pairs, 1))


def _check_enumeration_size(n: int):
    # 2^n subsets; the largest n under the cap is floor(log2 cap), 19 for 10^6
    if 2**n > ENUMERATION_CAP:
        raise ValueError(f"subset enumeration capped at n = {ENUMERATION_CAP.bit_length() - 1} "
                         f"(2^n <= {ENUMERATION_CAP}), got {n}")


def hoeffding_sum(data, eta_n: float, sigma=None, weights=None, exact: bool = False):
    """(sum of all H(S), [T_0, ..., T_m]) with T_k the order-k subset sum and m
    the number of indices with an increment: n plain, n - 1 bootstrap."""
    pairs = factor_pairs(data, eta_n, sigma, weights, exact)
    _check_enumeration_size(len(pairs))
    if exact:
        ints, den = _integers([m for pair in pairs for m in pair])
        pairs = list(zip(ints[::2], ints[1::2]))
    idx = [i for i, (_, b) in enumerate(pairs, 1) if b is not None]
    terms = [np.zeros_like(pairs[0][0]) for _ in range(len(idx) + 1)]
    for k in range(len(idx) + 1):
        for combo in itertools.combinations(idx, k):
            terms[k] += hoeffding_term(pairs, frozenset(combo))
    if exact:
        scale = den ** len(pairs)
        terms = [_fractions(t, scale) for t in terms]
    return np.sum(terms, axis=0), terms


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
        pairs = factor_pairs(outcome, eta_n, sigma=sigma)
        flat = np.empty((m, d * d))
        for a, s in enumerate(subsets):
            flat[a] = hoeffding_term(pairs, s).ravel()
        gram += p * (flat @ flat.T)
    off = gram - np.diag(np.diag(gram))
    return float(np.max(np.abs(off)))
