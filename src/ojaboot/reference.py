"""Reference law for the scaled eigenvector error.

The projected error statistic is asymptotically a Gaussian quadratic form,
so its law is a weighted sum of independent chi-square(1) variables. The
weights are the eigenvalues of a covariance matrix assembled from two
ingredients: a fourth-moment matrix of the data law expressed in the
complement of the top eigenvector, and the geometric decay ratios of the
deflated one-step update. The moment matrix is exact: a sum over the
support for a discrete law, and a closed form in the eigenbasis and the
fourth moment of the sampling law for a continuous one. The covariance is a
plain d x d array (`build_reference`), and its spectrum is the weight vector
of a `WeightedChiSq`. Only the chi-square draws are Monte Carlo; they stream
through fixed row chunks, so their memory is O(chunk * d) rather than
O(n_mc * d). The anti-concentration check is a statistic of such a sample,
drawn from the law scaled to unit weights, so one sample can serve it and a
moment check alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, model, randgen, stats

_GRID_POINTS = 200

# |1 - r| below this switches the geometric sum to its n-term limit
_TIE_TOL = 1e-12
# a weight below -1e-8 * max|w| means the covariance is not PSD; one in
# [-1e-8, 0) * max|w| clamps to zero, and one below +1e-8 * the largest is
# roundoff that draws no chi-square column
_WEIGHT_FLOOR_RTOL = 1e-8
# chi-square rows drawn per chunk: 512 x d floats (400 KB at d = 100) stay in
# cache, and as a multiple of 4 the chunk keeps OpenBLAS's 4-row matrix-vector
# grouping, so chunked chi-square draws equal one-shot ones bit for bit
_MC_ROWS = 512


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

    @property
    def mean(self) -> float:
        return float(self.weights.sum())

    @property
    def variance(self) -> float:
        return float(2.0 * np.sum(self.weights**2))

    def unit(self) -> WeightedChiSq:
        """The same law with weights scaled so their squares sum to one."""
        norm = float(np.sqrt(np.sum(self.weights**2)))
        if norm == 0.0:
            raise ValueError("unit scaling needs a nonzero weight")
        return WeightedChiSq(self.weights / norm)


def estimate_M(mdl: model.SpectralModel) -> np.ndarray:
    """Fourth-moment matrix of the law projected onto the complement frame.

    Computes E[(x . v1)^2 (P x)(P x)^T] exactly, where P maps to the
    complement coordinates. Discrete laws are summed over their support.
    Continuous laws draw x = Sigma^{1/2} z with iid z coordinates of unit
    variance and fourth moment kappa, so the eigenbasis coordinates are
    y_j = sqrt(lam_j) (q_j . z), and the identity
    E[(a.z)^2 (b.z)(c.z)] = |a|^2 (b.c) + 2 (a.b)(a.c) + (kappa - 3) sum_k a_k^2 b_k c_k
    gives M = lam_1 L^{1/2} [I + (kappa - 3) Q_perp^T diag(v1 * v1) Q_perp] L^{1/2},
    L = diag(lam_2, ..., lam_d). The product runs in einsum's own loops, not
    BLAS, whose threaded product rounds differently with the thread count.
    """
    law = mdl.sampling_law
    if isinstance(law, model.DiscreteSpec):
        s = law.support @ mdl.v1
        y = law.support @ mdl.v_perp
        return linalg.sym((y * (law.probs * s * s)[:, None]).T @ y)
    lam = np.clip(mdl.eig.eigenvalues, 0.0, None)
    cross = np.einsum("ki,kj->ij", mdl.v_perp * np.square(mdl.v1)[:, None], mdl.v_perp)
    inner = np.eye(mdl.dim - 1) + (randgen.KAPPA - 3.0) * cross
    root = np.sqrt(lam[1:])
    return linalg.sym(lam[0] * (root[:, None] * inner * root))


def contraction_ratios(mdl: model.SpectralModel, eta_n: float, n: int) -> np.ndarray:
    """Per-direction decay of one deflated update step relative to the top direction.

    Entry i is (1 + eta_n*lam_{i+1}/n) / (1 + eta_n*lam_1/n), always in (0, 1].
    """
    a = eta_n / n
    lam = mdl.eig.eigenvalues
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
    return WeightedChiSq(linalg.eigh(vbar).eigenvalues)


def sample_weighted_chisq(w: WeightedChiSq, stream, n_mc: int) -> np.ndarray:
    """n_mc independent draws of the weighted chi-square law.

    Rows of chi-square(1) draws come _MC_ROWS at a time; the values equal those of
    one (n_mc, k) draw times the weights, bit for bit.
    """
    if n_mc < 1:
        raise ValueError("need n_mc >= 1")
    pos = w.weights[w.weights > _WEIGHT_FLOOR_RTOL * w.weights[0]]
    out = np.zeros(n_mc)
    if pos.size == 0:
        return out
    for first in range(0, n_mc, _MC_ROWS):
        last = min(first + _MC_ROWS, n_mc)
        np.matmul(stream.chisq1((last - first, pos.size)), pos, out=out[first:last])
    return out


def anticoncentration_check(draws, h: float) -> dict:
    """Empirically test the window-probability bound sqrt(4h/pi).

    draws is a sample of a weighted chi-square law with unit weights
    (WeightedChiSq.unit()), the scale the bound is stated at. The max window
    probability is taken over a uniform grid spanning the empirical
    [0.1%, 99.9%] quantile range, and passing allows a three-sigma Monte
    Carlo slack on top of the bound.
    """
    if h <= 0.0:
        raise ValueError("window width must be positive")
    draws = np.sort(draws)
    n_mc = draws.size
    cdf = stats.EmpiricalCdf(draws)
    grid = np.linspace(cdf.quantile(0.001), cdf.quantile(0.999), _GRID_POINTS)
    counts = (np.searchsorted(draws, grid + h, side="right")
              - np.searchsorted(draws, grid, side="left"))
    max_prob = float(counts.max() / n_mc)
    bound = float(np.sqrt(4.0 * h / np.pi))
    slack = 3.0 * np.sqrt(0.25 / n_mc)
    return {"max_window_prob": max_prob, "bound": bound,
            "pass": bool(max_prob <= bound + slack)}
