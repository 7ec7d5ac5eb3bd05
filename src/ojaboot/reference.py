"""Reference law for the scaled eigenvector error.

The projected error statistic is asymptotically a Gaussian quadratic form,
so its law is a weighted sum of independent chi-square(1) variables. The
weights are the eigenvalues of a covariance matrix assembled from two
ingredients: a fourth-moment matrix of the data law expressed in the
complement of the top eigenvector, and the geometric decay ratios of the
deflated one-step update. Everything here is a closed form in the
eigenbasis or a plain Monte Carlo average over a caller-supplied stream.

Both Monte Carlo stages (the moment matrix and the chi-square draws) stream
through fixed row chunks, so their memory is O(chunk * d) rather than
O(n_mc * d), and their sums run in a fixed order that does not depend on the
BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, model, stats

MC_DEFAULT = 10**5
GRID_POINTS_DEFAULT = 200

# |1 - r| below this switches the geometric sum to its n-term limit
_TIE_TOL = 1e-12
# an eigenvalue below -1e-8 * op-norm means the matrix is not PSD, and a
# weight below +1e-8 * the largest is roundoff that draws no chi-square column
_WEIGHT_FLOOR_RTOL = 1e-8
# constructor clamps weights in [-1e-12, 0) to zero, rejects below
_WEIGHT_CLAMP = 1e-12
# Monte Carlo rows drawn per chunk: 512 x d floats (400 KB at d = 100) stay in
# cache, and as a multiple of 4 the chunk keeps OpenBLAS's 4-row matrix-vector
# grouping, so chunked chi-square draws equal one-shot ones bit for bit
_MC_ROWS = 512
# the moment sum adds one 64-row product at a time, in order; OpenBLAS splits
# longer reductions over threads, which moves the last digits with the count
_REDUCE_ROWS = 64


@dataclass(frozen=True, eq=False)
class ReferenceCovariance:
    """Closed-form covariance of the projected error after n steps.

    m_matrix lives in the (d-1)-dimensional complement coordinates where
    the geometric sum diagonalizes; vbar is the same object conjugated
    back to the full d-dimensional frame.
    """

    m_matrix: np.ndarray
    lambda_perp: np.ndarray
    vbar: np.ndarray
    eta_n: float
    n: int

    def __post_init__(self):
        m = np.asarray(self.m_matrix, dtype=float)
        lp = np.asarray(self.lambda_perp, dtype=float)
        vb = np.asarray(self.vbar, dtype=float)
        k = lp.shape[0] if lp.ndim == 1 else -1
        if lp.ndim != 1 or m.shape != (k, k) or vb.shape != (k + 1, k + 1):
            raise ValueError("inconsistent reference shapes")
        if np.any(lp <= 0.0) or np.any(lp > 1.0):
            raise ValueError("decay ratios must lie in (0, 1]")
        if np.any(np.diff(lp) > 1e-15):
            raise ValueError("decay ratios must be nonincreasing")
        scale = max(1.0, float(np.abs(vb).max()))
        if np.abs(vb - vb.T).max() > 1e-10 * scale:
            raise ValueError("vbar must be symmetric")
        if not (self.eta_n > 0.0) or self.n < 1:
            raise ValueError("need eta_n > 0 and n >= 1")
        object.__setattr__(self, "m_matrix", m)
        object.__setattr__(self, "lambda_perp", lp)
        object.__setattr__(self, "vbar", vb)

    @property
    def dim(self) -> int:
        return self.vbar.shape[0]

    def summary(self, w: WeightedChiSq) -> dict:
        """Scalars the experiment harness serializes: spectrum, trace, Frobenius norm.
        w is chisq_weights(self.vbar), passed in so vbar is decomposed only once."""
        return {
            "weights": [float(x) for x in w.weights],
            "trace": float(np.trace(self.vbar)),
            "frobenius": linalg.frobenius_norm(self.vbar),
        }


@dataclass(frozen=True, eq=False)
class WeightedChiSq:
    """Law of sum_r weights[r] * xi_r with xi_r iid chi-square(1).

    Weights are canonicalized on construction: values in [-1e-12, 0)
    clamp to zero, anything lower is rejected, order is descending.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size == 0 or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a nonempty finite vector")
        if w.min() < -_WEIGHT_CLAMP:
            raise ValueError("weights must be nonnegative up to clamping tolerance")
        w = np.sort(np.maximum(w, 0.0))[::-1]
        object.__setattr__(self, "weights", w)

    @property
    def mean(self) -> float:
        return float(self.weights.sum())

    @property
    def variance(self) -> float:
        return float(2.0 * np.sum(self.weights**2))


def estimate_M(mdl: model.SpectralModel, stream, n_mc: int = MC_DEFAULT) -> np.ndarray:
    """Fourth-moment matrix of the law projected onto the complement frame.

    Estimates E[(x . v1)^2 (P x)(P x)^T] where P maps to the complement
    coordinates. Discrete laws are summed exactly over their support and
    n_mc is ignored; continuous laws use an n_mc-sample Monte Carlo average
    drawn from `stream`, the same draws as model.sample_x(mdl, stream, n_mc).

    Since x = Sigma^{1/2} z, the eigenbasis coordinates x Q are z Q Lambda^{1/2}:
    one product per chunk gives s = x . v1 (column 0) and y = x V_perp (the rest).
    """
    law = mdl.sampling_law
    if isinstance(law, model.DiscreteSpec):
        s = law.support @ mdl.v1
        y = law.support @ mdl.v_perp
        return linalg.sym((y * (law.probs * s * s)[:, None]).T @ y)
    if n_mc < 1:
        raise ValueError("Monte Carlo estimation needs n_mc >= 1")
    d = mdl.dim
    root = mdl.eig.eigenvectors * np.sqrt(np.clip(mdl.eig.eigenvalues, 0.0, None))
    z = np.empty((min(n_mc, _MC_ROWS), d))
    acc = np.zeros((d - 1, d - 1))
    for first in range(0, n_mc, _MC_ROWS):
        zc = stream.uniform_sym(out=z[:min(_MC_ROWS, n_mc - first)])
        coords = zc @ root
        y = coords[:, 1:]
        ys = y * np.square(coords[:, :1])
        for k in range(0, zc.shape[0], _REDUCE_ROWS):
            acc += ys[k:k + _REDUCE_ROWS].T @ y[k:k + _REDUCE_ROWS]
    return linalg.sym(acc / n_mc)


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


def build_reference(mdl: model.SpectralModel, stream, eta_n: float, n: int,
                    n_mc: int = MC_DEFAULT) -> ReferenceCovariance:
    """Estimate the moment matrix and assemble the full reference covariance."""
    mdl.require_gap()
    m = estimate_M(mdl, stream, n_mc)
    lp = contraction_ratios(mdl, eta_n, n)
    vbar = assemble_vbar(m, lp, eta_n, n, mdl.v_perp)
    return ReferenceCovariance(m_matrix=m, lambda_perp=lp, vbar=vbar,
                               eta_n=float(eta_n), n=int(n))


def chisq_weights(vbar) -> WeightedChiSq:
    """Spectrum of the covariance, clamped at zero, as chi-square weights."""
    dec = linalg.eigh(linalg.sym(np.asarray(vbar, dtype=float)))
    vals = dec.eigenvalues
    op = float(np.abs(vals).max())
    if vals.min() < -_WEIGHT_FLOOR_RTOL * op:
        raise linalg.NotPsdError("covariance has a significantly negative eigenvalue")
    return WeightedChiSq(weights=vals)


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


def anticoncentration_check(w: WeightedChiSq, h: float, stream,
                            n_mc: int = MC_DEFAULT,
                            grid_points: int = GRID_POINTS_DEFAULT) -> dict:
    """Empirically test the window-probability bound sqrt(4h/pi).

    Weights are first normalized so their squares sum to one, which is the
    scale the bound is stated at. The max window probability is taken over
    a uniform grid spanning the empirical [0.1%, 99.9%] quantile range, and
    passing allows a three-sigma Monte Carlo slack on top of the bound.
    """
    if h <= 0.0:
        raise ValueError("window width must be positive")
    if grid_points < 1:
        raise ValueError("need at least one grid point")
    norm = float(np.sqrt(np.sum(w.weights**2)))
    if norm == 0.0:
        raise ValueError("anticoncentration needs a nonzero weight")
    draws = np.sort(sample_weighted_chisq(WeightedChiSq(w.weights / norm), stream, n_mc))
    cdf = stats.EmpiricalCdf(draws)
    grid = np.linspace(cdf.quantile(0.001), cdf.quantile(0.999), grid_points)
    counts = (np.searchsorted(draws, grid + h, side="right")
              - np.searchsorted(draws, grid, side="left"))
    max_prob = float(counts.max() / n_mc)
    bound = float(np.sqrt(4.0 * h / np.pi))
    slack = 3.0 * np.sqrt(0.25 / n_mc)
    return {"max_window_prob": max_prob, "bound": bound,
            "pass": bool(max_prob <= bound + slack)}


def spectral_discrepancy(a, b) -> dict:
    """Trace gap, Frobenius gap, operator gap, and the scale of the first input."""
    a = linalg.sym(np.asarray(a, dtype=float))
    b = linalg.sym(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    diff = a - b
    return {
        "delta1": float(np.trace(diff)),
        "frob": linalg.frobenius_norm(diff),
        "op": linalg.operator_norm(diff),
        "f": linalg.frobenius_norm(a),
    }
