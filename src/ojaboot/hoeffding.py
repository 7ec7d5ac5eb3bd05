"""Exact subset-enumeration oracles for decomposing the streamed matrix products.

The Oja run applies F_n ... F_1 to u0 (sample 1 acts first, as in every product
here). Writing each factor as a pair F_i = A_i + B_i and distributing gives one
term per subset S of the indices with an increment B_i: the product is
sum_S H(S), where H(S) has B_i at i in S and A_i elsewhere. `factor_pairs`
builds the pairs once per sum; a = eta_n / n. `subset_terms` builds every H(S)
depth first: each prefix over indices 1..i is its parent's over 1..i-1 times
A_i or B_i, one product shared by every subset under it.

- Plain, F_i = I + a X_i X_i^T: A_i = I + a Sigma, B_i = a(X_i X_i^T - Sigma).
  The order-k sums T_k = sum_{|S|=k} H(S) are mutually orthogonal in
  expectation (trace inner product).
- Bootstrap, F_i = I + a(X_i X_i^T + W_i Delta_i): A_i = I + a X_i X_i^T,
  B_i = a W_i Delta_i, Delta_i = X_i X_i^T - X_{i-1} X_{i-1}^T. B_1 is None:
  no sample precedes index 1 (the bootstrap module's first-step convention).

`direct_product` multiplies the F_i as written, never through the pairs, so a
wrong pair cannot cancel out of the identity it checks. These builders are
ground truth for tests and the verify suite. Enumeration is capped at
2^n <= 10^6 subsets (model.ENUMERATION_CAP), so n <= 19. Everything is
evaluated exactly: in float64 the terms can cancel by a factor of 1e6 or more
(sum_S ||H(S)|| against the product), and the products overflow long before
their inputs do. A float is a dyadic rational: each input's integer ratio is
read once, and the factors (or the pairs) become integer matrices over one
common denominator, a power of two times n. The products and sums run on those
integers and nothing is divided, so nothing rounds at any scale. Every matrix
returned is an object array of Python integers, the numerators over the
denominator returned with it.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .model import ENUMERATION_CAP, DiscreteSpec, enumerate_outcomes


def _dyadic(a):
    """(m, q): the float array a as integers m over one power of two q, m = q a.
    Each float's integer ratio is read once; nothing rounds."""
    ratios = [v.as_integer_ratio() for v in np.ravel(a).tolist()]
    q = max((r for _, r in ratios), default=1)
    return np.array([p * (q // r) for p, r in ratios], dtype=object).reshape(np.shape(a)), q


def _integers(m: np.ndarray) -> np.ndarray:
    # int + float is a float, so a stray float would otherwise pass silently
    if not all(isinstance(v, int) for v in m.flat):
        raise TypeError("a float entered an exact evaluation")
    return m


def _prepare(data, eta_n: float, sigma, weights):
    """(outer, a, sigma, aw, eye, den): every factor and pair is a sum of eye,
    a x_i x_i^T, a sigma and aw_i Delta_i over den, outer the x_i x_i^T, all integers.
    With eta_n = e / q_e, W = w / q_w and u the least power of two that makes
    u X and u^2 sigma integers, den = n q_e q_w u^2 and the parts are u X,
    a = e q_w, u^2 sigma and aw = e w."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or not len(data):
        raise ValueError("data must be an (n, d) array of n >= 1 row samples")
    n, d = data.shape
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("need one weight per sample")
    e, qe = float(eta_n).as_integer_ratio()
    x, qx = _dyadic(data)
    s, qs = (None, 1) if sigma is None else _dyadic(linalg.sym(sigma))
    w, qw = (None, 1) if weights is None else _dyadic(weights)
    u = max(qx, 1 << (qs.bit_length() // 2))
    den = n * qe * qw * u * u
    return ([np.outer(r, r) for r in x * (u // qx)], e * qw,
            None if s is None else s * (u * u // qs),
            None if w is None else e * w, den * np.eye(d, dtype=object), den)


def direct_product(data, eta_n: float, weights=None):
    """(numerators, den): F_n ... F_1 with F_i = I + a X_i X_i^T, plus
    a W_i Delta_i for i >= 2 when weights are given."""
    outer, a, _, aw, eye, den = _prepare(data, eta_n, None, weights)
    factors = [eye + a * xx for xx in outer]
    if aw is not None:  # no sample precedes F_1
        factors[1:] = [f + aw[i] * (outer[i] - outer[i - 1])
                       for i, f in enumerate(factors[1:], 1)]
    out = factors[0]
    for f in factors[1:]:
        out = f @ out
    return _integers(out), den ** len(factors)


def factor_pairs(data, eta_n: float, sigma=None, weights=None):
    """([(A_i, B_i)] for i = 1..n, den): the plain pairs from sigma, or the
    bootstrap pairs from weights (B_1 is then None), as integer matrices over
    den. Exactly one of sigma and weights is given."""
    if (sigma is None) == (weights is None):
        raise ValueError("give exactly one of sigma (plain) and weights (bootstrap)")
    outer, a, sigma, aw, eye, den = _prepare(data, eta_n, sigma, weights)
    if aw is None:
        base = eye + a * sigma
        return [(base, a * (xx - sigma)) for xx in outer], den
    return [(eye + a * xx, None if i == 0 else aw[i] * (xx - outer[i - 1]))
            for i, xx in enumerate(outer)], den


def subset_terms(pairs):
    """Yield (S, H(S)) for every subset S of the indices (1-based) whose B_i is not
    None, H(S) the ordered product of B_i for i in S and A_i elsewhere, numerators
    over den ** len(pairs) for pairs over den. A stack holds at most two prefixes
    per depth, each its parent's times one factor: 2^(n+1) - 4 products for n
    plain pairs, 2^n - 2 for n bootstrap pairs."""
    stack = [(0, (), None)]
    while stack:
        i, s, prefix = stack.pop()
        if i == len(pairs):
            yield frozenset(s), prefix
            continue
        a, b = pairs[i]
        children = [(a, s)] if b is None else [(b, (*s, i + 1)), (a, s)]
        stack += [(i + 1, t, f if prefix is None else f @ prefix) for f, t in children]


def _check_enumeration_size(n: int):
    # 2^n subsets; the largest n under the cap is floor(log2 cap), 19 for 10^6
    if 2**n > ENUMERATION_CAP:
        raise ValueError(f"subset enumeration capped at n = {ENUMERATION_CAP.bit_length() - 1} "
                         f"(2^n <= {ENUMERATION_CAP}), got {n}")


def hoeffding_sum(data, eta_n: float, sigma=None, weights=None):
    """(sum of all H(S), [T_0, ..., T_m], den) with T_k the order-k subset sum
    and m the number of indices with an increment: n plain, n - 1 bootstrap.
    Every matrix is the numerators over den."""
    pairs, den = factor_pairs(data, eta_n, sigma, weights)
    _check_enumeration_size(len(pairs))
    terms = [np.zeros_like(pairs[0][0]) for _ in range(1 + sum(b is not None for _, b in pairs))]
    for s, h in subset_terms(pairs):
        terms[len(s)] += h
    return np.sum([_integers(t) for t in terms], axis=0), terms, den ** len(pairs)


def orthogonality_table(spec: DiscreteSpec, n: int, eta_n: float) -> float:
    """max over S != R of |E <H(S), H(R)>|, exactly, by outcome enumeration: each
    outcome's Gram numerators, weighted by its probability's integer ratio, summed
    over one common denominator, and one correctly rounded division at the end."""
    _check_enumeration_size(n)
    gram, den = 0, 1
    for outcome, p in enumerate_outcomes(spec, n):
        pairs, q = factor_pairs(outcome, eta_n, sigma=spec.sigma)
        flat = np.array([h.ravel() for _, h in subset_terms(pairs)])
        num, q_p = p.as_integer_ratio()
        q_g = q_p * q ** (2 * n)  # each term is over q^n
        common = math.lcm(den, q_g)
        gram = gram * (common // den) + _integers(flat @ flat.T) * (num * (common // q_g))
        den = common
    off = gram[~np.eye(len(gram), dtype=bool)]
    return max(abs(v) for v in off) / den
