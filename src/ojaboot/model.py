"""Covariance models and their streaming samplers.

Three covariance families are supported: the exponential-kernel family with
power-decay scales (sigma_ij = exp(-|i-j| c) * s_i s_j, s_i = scale * i^-beta
with 1-based i), explicitly supplied symmetric matrices, and finite discrete
laws given by mean-zero support points with probabilities. Discrete laws exist
so that expectations can be computed exactly by outcome enumeration; they are
enumerated, never sampled.

Continuous samples are X = Sigma^{1/2} Z with Z having iid Uniform(-sqrt 3,
sqrt 3) coordinates (mean zero, identity second moment), so E[X X^T] = Sigma.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .randgen import RngStream, to_symmetric

ENUMERATION_CAP = 10**6

# Relative eigengap below which the reference distribution is undefined.
DEGENERATE_GAP_RTOL = 1e-10


class DegenerateGapError(ValueError):
    """Top eigengap too small for reference-distribution operations."""


@dataclass(frozen=True)
class KernelSpec:
    d: int
    c: float
    beta: float
    scale: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("kernel covariance needs d >= 2")
        if self.c < 0:
            raise ValueError("kernel decay c must be >= 0")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    @property
    def sigma(self) -> np.ndarray:
        """Sigma_ij = exp(-|i-j| c) * s_i s_j with s_i = scale * i^-beta, i 1-based."""
        idx = np.arange(1, self.d + 1, dtype=float)
        scales = self.scale * idx**(-self.beta)
        kernel = np.exp(-self.c * np.abs(idx[:, None] - idx[None, :]))
        return linalg.sym(kernel * np.outer(scales, scales))


@dataclass(frozen=True, eq=False)
class ExplicitSpec:
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", linalg.sym(self.sigma))


@dataclass(frozen=True, eq=False)
class DiscreteSpec:
    """Finite mean-zero law: support[k] drawn with probability probs[k]."""

    support: np.ndarray  # (s, d)
    probs: np.ndarray  # (s,)

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 2 or support.shape[0] != probs.shape[0]:
            raise ValueError("support must be (s, d) with one probability per point")
        if np.any(probs <= 0):
            raise ValueError("probabilities must be positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        mean = probs @ support
        if np.linalg.norm(mean) > 1e-10:
            raise ValueError(f"support must be mean zero (got mean norm {np.linalg.norm(mean):.3e})")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def sigma(self) -> np.ndarray:
        return linalg.sym((self.support.T * self.probs) @ self.support)


CovarianceSpec = KernelSpec | ExplicitSpec | DiscreteSpec


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Covariance with its spectral data and the sampling law that produced it."""

    sigma: np.ndarray
    sqrt_sigma: np.ndarray
    eig: linalg.EigenDecomposition
    v1: np.ndarray
    v_perp: np.ndarray  # (d, d-1), orthonormal, orthogonal to v1
    lambda1: float
    lambda2: float
    sampling_law: CovarianceSpec
    degenerate_gap: bool

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    @property
    def eigengap(self) -> float:
        return self.lambda1 - self.lambda2

    def require_gap(self):
        if self.degenerate_gap:
            raise DegenerateGapError(
                f"eigengap {self.eigengap:.3e} is degenerate relative to lambda1 "
                f"{self.lambda1:.3e}; reference distribution undefined"
            )


def spectral_decompose(spec: CovarianceSpec) -> SpectralModel:
    """Eigensystem of the described covariance; a degenerate eigengap is a soft flag."""
    sigma = spec.sigma
    eig = linalg.eigh(sigma)
    sqrt_sigma = linalg.sqrt_psd(sigma, dec=eig)
    lambda1 = float(eig.eigenvalues[0])
    lambda2 = float(eig.eigenvalues[1]) if eig.dim > 1 else 0.0
    degenerate = eig.dim > 1 and (lambda1 - lambda2) <= DEGENERATE_GAP_RTOL * abs(lambda1)
    return SpectralModel(
        sigma=sigma,
        sqrt_sigma=sqrt_sigma,
        eig=eig,
        v1=eig.eigenvectors[:, 0].copy(),
        v_perp=eig.eigenvectors[:, 1:].copy(),
        lambda1=lambda1,
        lambda2=lambda2,
        sampling_law=spec,
        degenerate_gap=degenerate,
    )


def sample_x(model: SpectralModel, stream: RngStream, size: int) -> np.ndarray:
    """Draw a (size, d) matrix of rows from the model's continuous law."""
    if isinstance(model.sampling_law, DiscreteSpec):
        raise ValueError("sample_x draws continuous laws; a discrete one is enumerated")
    return stream.uniform_sym((size, model.dim)) @ model.sqrt_sigma


def sample_paths(model: SpectralModel, streams, out: np.ndarray):
    """Fill out, a C-contiguous (m, T, d) array that can be reused from call to call,
    with the coordinates Z of the next T samples of each of m streams: row i holds
    streams[i].uniform_sym((T, d)), and Z[i] @ Sigma^{1/2} is what
    sample_x(model, streams[i], T) returns, up to the rounding of that product.
    `oja.advance` forms the product one step at a time."""
    if isinstance(model.sampling_law, DiscreteSpec):
        raise ValueError("sample_paths draws continuous laws; a discrete one is enumerated")
    if (out.ndim != 3 or out.shape[0] != len(streams) or out.shape[2] != model.dim
            or not out.flags.c_contiguous):
        raise ValueError(f"a buffer of shape {out.shape} is not a C-contiguous (m, T, d) "
                         f"array with m = {len(streams)} streams and d = {model.dim}")
    for row, stream in zip(out, streams):
        stream.uniform01(out=row)
    return to_symmetric(out)  # each stream's uniform_sym values, mapped in one pass


def enumerate_outcomes(spec: DiscreteSpec, n: int):
    """Yield ((n, d) outcome, joint probability) over the full product law."""
    if not isinstance(spec, DiscreteSpec):
        raise TypeError("enumeration needs a discrete law")
    s = spec.probs.size
    if s**n > ENUMERATION_CAP:
        raise ValueError(f"support^n = {s}^{n} exceeds enumeration cap {ENUMERATION_CAP}")
    for combo in itertools.product(range(s), repeat=n):
        idx = np.fromiter(combo, dtype=int, count=n)
        yield spec.support[idx], float(np.prod(spec.probs[idx]))
