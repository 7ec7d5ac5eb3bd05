"""Reference law for the scaled eigenvector error.

The projected error statistic is asymptotically a Gaussian quadratic form,
so its law is a weighted sum of independent chi-square(1) variables. The
weights are the eigenvalues of a covariance matrix assembled from two
ingredients: a fourth-moment matrix of the data law expressed in the
complement of the top eigenvector, and the geometric decay ratios of the
deflated one-step update. The moment matrix is exact: a closed form in the
eigenbasis and the fourth moment 9/5 of the model's sampling coordinates,
X = Sigma^{1/2} Z with iid Z (`model`). The covariance is a
plain d x d array (`build_reference`), and its spectrum is the weight vector
of a `WeightedChiSq`.

The law is exact, never sampled. Its CDF F inverts Phi(s) = E e^(-sQ) =
prod_r (1 + 2 w_r s)^(-1/2), log Phi summed in real arithmetic: with p = 2w Re s and
q = 2w Im s, log(1 + 2ws) = log1p(p(2 + p) + q^2) / 2 + i atan2(q, 1 + p), complex log1p's
principal branch, also where Re(1 + 2ws) < 0 (Talbot's nodes past theta = pi/2). At a
largest weight in [1/2, 1), F(x) <= P(w_1 xi_1 <= x) <= sqrt(4x / pi), at most 1e-10 for
x <= (pi / 4) 1e-20, where F reads 0; above that Talbot's |s| stays below about 2e22 and no
square overflows. F is then found in one of two ways:
- Gil-Pelaez as Davies (1973, Biometrika 60) sums it, with phi(u) = Phi(-iu):
  F(x) = 1/2 - (1/pi) sum_{k>=0} Im(phi(u_k) e^(-i u_k x)) / (k + 1/2) for
  u_k = (k + 1/2) pi / T, where P(Q > T) <= e^-40 bounds the aliasing error. As
  log|phi| is concave in log u, the terms past k sum to at most
  |phi(u_k)| / (pi p_k), p_k the slope of log|phi| from u_{k-1} to u_k, and the
  sum stops once that is below 1e-12. It is used when that takes at most 4096
  terms: when phi decays fast, as for a law of many comparable weights.
- Otherwise the fixed Talbot contour (Abate and Valko 2004, Int. J. Numer. Meth.
  Eng. 60) with M = 20 nodes: r = 2M/(5x), theta_k = k pi/M,
  s_k = r theta_k (cot theta_k + i), sigma_k = theta_k + (theta_k cot theta_k - 1)
  cot theta_k and F(x) = (r/M) [e^(rx) Phi(r) / (2r)
  + sum_{k=1}^{M-1} Re(e^(x s_k) Phi(s_k) / s_k (1 + i sigma_k))]. Alone, it is
  off by 4e-6 at 50 equal weights and by 0.04 at 99: a law concentrated far from
  0 is too sharp for its nodes.
The absolute error is at most 1e-10 on every law measured: at most 1e-12 against
closed forms and a 50-digit inversion, over 1 to 500 equal weights, power-law and
geometric spectra, and 250 random kernel-model laws on the Talbot branch. One
kind of law suits neither branch: one dominant weight and a bulk of 99 weights
1e-3 of it, where Talbot is off by 5e-4 near the bulk's mean. No kernel-model
law measured is of that kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg, model, randgen

# |1 - r| below this switches the geometric sum to its n-term limit
_TIE_TOL = 1e-12
# a weight below -1e-8 * max|w| means the covariance is not PSD; one in
# [-1e-8, 0) * max|w| clamps to zero, and one below +1e-8 * the largest is
# roundoff that the CDF leaves out
_WEIGHT_FLOOR_RTOL = 1e-8
_TALBOT_NODES, _GP_TERMS, _GP_TAIL = 20, 4096, 1e-12
# each inversion holds about ten (x, node) arrays of at most 2^13 values: under 1 MiB
_CHUNK = 2**13
# at and below this x, at a largest weight in [1/2, 1), F <= sqrt(4x / pi) = 1e-10: F reads 0
_X_ZERO = 0.25 * np.pi * 1e-20
# tail_end is the point past which P(Q > x) <= e^-_TAIL_T; bisection halves [0, tail_end]
# _BISECTIONS times, past which the bracket is one ulp
_TAIL_T, _BISECTIONS = 40.0, 64


def _log_phi(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log Phi at each s, a weight at a time (module docstring): never an (s, weight) array."""
    sr, si, p, q, t = s.real.copy(), s.imag.copy(), *np.empty((3, *s.shape))
    mod, arg = np.zeros(s.shape), np.zeros(s.shape)  # mod sums 2 log|1 + 2ws|
    for wr in w:
        np.multiply(sr, 2.0 * wr, out=p)
        np.multiply(si, 2.0 * wr, out=q)
        np.multiply(np.add(p, 2.0, out=t), p, out=t)
        arg += np.arctan2(q, np.add(p, 1.0, out=p), out=p)
        mod += np.log1p(np.add(t, np.square(q, out=q), out=t), out=t)
    del sr, si, p, q, t  # the chunk's peak is then that of the loop
    return -0.25 * mod - 0.5j * arg


def _gil_pelaez_terms(w: np.ndarray, end: float):
    """(u_k, |phi(u_k)| / (k + 1/2), arg phi(u_k)) for the terms Davies' sum needs,
    or None if that is more than _GP_TERMS."""
    u = (np.arange(_GP_TERMS) + 0.5) * (np.pi / end)
    log_phi = _log_phi(w, -1j * u)
    slope = -np.diff(log_phi.real) / np.diff(np.log(u))
    done = np.flatnonzero(np.exp(log_phi.real[1:]) <= np.pi * _GP_TAIL * slope)
    if done.size == 0:
        return None
    k = done[0] + 2
    return u[:k], np.exp(log_phi.real[:k]) / (np.arange(k) + 0.5), log_phi.imag[:k]


def _gil_pelaez(terms, xs: np.ndarray) -> np.ndarray:
    u, amp, phase = terms
    out, step = np.empty(xs.size), max(1, _CHUNK // u.size)
    for lo in range(0, xs.size, step):
        arg = phase - np.multiply.outer(xs[lo:lo + step], u)
        out[lo:lo + step] = 0.5 - (np.sin(arg, out=arg) * amp).sum(axis=1) / np.pi
    return out


def _talbot(w: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # s_k = r u_k, so x s_k = (2M/5) u_k and F(x) = Re sum_k c_k Phi(r u_k), the k = 0
    # node, s_0 = r, with half weight
    m, out, step = _TALBOT_NODES, np.empty(xs.size), _CHUNK // _TALBOT_NODES
    theta = np.pi * np.arange(1, m) / m
    cot = 1.0 / np.tan(theta)
    u = np.concatenate(([1.0], theta * cot + 1j * theta))
    c = np.exp(0.4 * m * u) * np.r_[0.5, 1.0 + 1j * (theta + (theta * cot - 1.0) * cot)] / (m * u)
    for lo in range(0, xs.size, step):
        r = 0.4 * m / xs[lo:lo + step]
        out[lo:lo + step] = (np.exp(_log_phi(w, np.multiply.outer(r, u))) * c).sum(axis=1).real
    return out


@dataclass(frozen=True, eq=False)
class WeightedChiSq:
    """Law of sum_r weights[r] * xi_r with xi_r iid chi-square(1).

    Weights are canonicalized on construction: values in [-1e-8, 0) * max|w|
    clamp to zero, anything lower is rejected as not PSD, order is descending.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a nonempty finite vector")
        if w.min() < -_WEIGHT_FLOOR_RTOL * np.abs(w).max():
            raise linalg.NotPsdError("covariance has a significantly negative eigenvalue")
        w = np.ascontiguousarray(np.sort(np.maximum(w, 0.0))[::-1])
        object.__setattr__(self, "weights", w)

    @cached_property
    def _kept(self) -> np.ndarray:
        """The weights from 1e-8 times the largest up: the law that `cdf` describes."""
        return self.weights[self.weights > _WEIGHT_FLOOR_RTOL * self.weights[0]]

    @property
    def mean(self) -> float:
        return float(self._kept.sum())

    @property
    def variance(self) -> float:
        return float(2.0 * np.sum(self._kept**2))

    def _scaled(self) -> tuple:
        """(e, weights * 2^-e), the largest scaled weight in [1/2, 1) unless all are zero:
        sums of the scaled weights' squares and products with them do not overflow."""
        e = int(np.frexp(self.weights[0])[1])
        return e, np.ldexp(self.weights, -e)

    def unit(self) -> WeightedChiSq:
        """The same law with weights scaled so their squares sum to one."""
        w = self._scaled()[1]
        norm = float(np.sqrt(np.sum(w**2)))
        if norm == 0.0:
            raise ValueError("unit scaling needs a nonzero weight")
        return WeightedChiSq(w / norm)

    @cached_property
    def _inversion(self) -> tuple:
        """(e, the kept weights * 2^-e, tail_end * 2^-e, Davies' terms or None)
        with tail_end = sum w + 2 sqrt(40 sum w^2) + 80 max w (Laurent and Massart 2000,
        Ann. Statist. 28, Lemma 1)."""
        if self._kept.size == 0:
            raise ValueError("a law of zero weights is a point mass at 0")
        e = self._scaled()[0]
        w = np.ldexp(self._kept, -e)
        end = float(w.sum() + 2.0 * np.sqrt(_TAIL_T * np.sum(w**2)) + 2.0 * _TAIL_T * w[0])
        return e, w, end, _gil_pelaez_terms(w, end)

    @property
    def tail_end(self) -> float:
        """A point past which P(Q > x) <= e^-40."""
        return float(np.ldexp(self._inversion[2], self._inversion[0]))

    def cdf(self, x) -> np.ndarray:
        """P(Q <= x) for each x, absolute error at most 1e-10 (module docstring): exactly
        0 up to x = (pi / 4) 1e-20 2^e and 1 from tail_end on, weights below 1e-8 times
        the largest left out. The law is inverted scaled by 2^-e, its largest weight in
        [1/2, 1), at x * 2^-e, so no bracket or product overflows."""
        x = np.asarray(x, dtype=float)
        e, w, end, terms = self._inversion
        xs = np.ldexp(x.ravel(), -e)
        out, inside = (xs >= end).astype(float), (xs > _X_ZERO) & (xs < end)
        f = _talbot(w, xs[inside]) if terms is None else _gil_pelaez(terms, xs[inside])
        out[inside] = np.clip(f, 0.0, 1.0)
        return out.reshape(x.shape)

    def quantile(self, p) -> np.ndarray:
        """For each p, where F crosses p in [0, tail_end], by bisection for all p at once."""
        p = np.asarray(p, dtype=float)
        lo, hi = np.zeros_like(p), np.full_like(p, self.tail_end)
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < p
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return hi


def estimate_M(mdl: model.SpectralModel) -> np.ndarray:
    """Fourth-moment matrix of the law projected onto the complement frame.

    Computes E[(x . v1)^2 (P x)(P x)^T] exactly, where P maps to the
    complement coordinates. The model draws x = Sigma^{1/2} z with iid z
    coordinates of unit variance and fourth moment kappa, so the eigenbasis
    coordinates are y_j = sqrt(lam_j) (q_j . z), and the identity
    E[(a.z)^2 (b.z)(c.z)] = |a|^2 (b.c) + 2 (a.b)(a.c) + (kappa - 3) sum_k a_k^2 b_k c_k
    gives M = lam_1 L^{1/2} [I + (kappa - 3) Q_perp^T diag(v1 * v1) Q_perp] L^{1/2},
    L = diag(lam_2, ..., lam_d). The product runs in einsum's own loops, not
    BLAS, whose threaded product rounds differently with the thread count.
    """
    lam = np.clip(mdl.eigenvalues, 0.0, None)
    cross = np.einsum("ki,kj->ij", mdl.v_perp * np.square(mdl.v1)[:, None], mdl.v_perp)
    inner = np.eye(mdl.dim - 1) + (randgen.KAPPA - 3.0) * cross
    root = np.sqrt(lam[1:])
    return linalg.sym(lam[0] * (root[:, None] * inner * root))


def contraction_ratios(mdl: model.SpectralModel, eta_n: float, n: int) -> np.ndarray:
    """Per-direction decay of one deflated update step relative to the top direction.

    Entry i is (1 + eta_n*lam_{i+1}/n) / (1 + eta_n*lam_1/n), always in (0, 1].
    """
    a = eta_n / n
    lam = mdl.eigenvalues
    top = 1.0 + a * lam[0]
    if top <= 0.0:
        raise ValueError("top eigenvalue factor must stay positive")
    return (1.0 + a * lam[1:]) / top


def assemble_vbar(m_matrix, lambda_perp, eta_n: float, n: int, v_perp) -> np.ndarray:
    """Sum the geometrically damped conjugations of m_matrix in closed form.

    The (k, l) inner entry is m[k, l] * (1 - r^n) / (1 - r) with
    r = lambda_perp[k] * lambda_perp[l]; ties at r = 1 take the n-term
    limit. The result is scaled by eta_n/n and conjugated into the full
    frame by v_perp. The conjugation runs in einsum's own loops, not BLAS,
    whose threaded product rounds differently with the thread count.
    """
    m = np.asarray(m_matrix, dtype=float)
    lp = np.asarray(lambda_perp, dtype=float)
    v = np.asarray(v_perp, dtype=float)
    k = lp.shape[0]
    if m.shape != (k, k) or v.shape[1] != k:
        raise ValueError("shape mismatch between moment matrix, ratios, and frame")
    if np.any(lp <= 0.0) or np.any(lp > 1.0):
        raise ValueError("decay ratios must lie in (0, 1]")
    if n < 1:
        raise ValueError("need n >= 1")
    r = np.outer(lp, lp)
    geom = np.full_like(r, float(n))
    far = np.abs(1.0 - r) >= _TIE_TOL
    geom[far] = (1.0 - r[far] ** n) / (1.0 - r[far])
    inner = np.einsum("ik,kl->il", v, m * geom)
    return linalg.sym((eta_n / n) * np.einsum("il,jl->ij", inner, v))


def build_reference(mdl: model.SpectralModel, eta_n: float, n: int) -> np.ndarray:
    """The d x d reference covariance vbar of the projected error after n steps."""
    if not eta_n > 0.0:
        raise ValueError("need eta_n > 0")
    mdl.require_gap()
    return assemble_vbar(estimate_M(mdl), contraction_ratios(mdl, eta_n, n), eta_n, n,
                         mdl.v_perp)


def chisq_weights(vbar) -> WeightedChiSq:
    """Spectrum of the covariance, clamped at zero, as chi-square weights."""
    return WeightedChiSq(linalg.eigh(vbar)[0])


def window_bound(h: float) -> float:
    """sqrt(4h/pi), the anti-concentration bound on P(t < Q <= t + h) at unit weights."""
    return float(np.sqrt(4.0 * h / np.pi))


def max_window_prob(law: WeightedChiSq, h: float) -> float:
    """max_t F(t + h) - F(t) over t = 0, h, 2h, ... up to mean + 2 sd, which holds
    the mode; with one weight the maximum is at t = 0, erf(sqrt(h/2))."""
    if not h > 0.0:
        raise ValueError("window width must be positive")
    top = law.mean + 2.0 * np.sqrt(law.variance)
    return float(np.diff(law.cdf(h * np.arange(int(top / h) + 2))).max())
