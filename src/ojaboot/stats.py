"""Empirical CDFs, quantiles, and the two-sample Kolmogorov distance.

The Kolmogorov distance between step functions is attained at a jump point of
one of them, possibly as a left limit, so `kolmogorov_distance` evaluates both
one-sided limits at every pooled jump rather than sampling a grid.
"""

from __future__ import annotations

import numpy as np


class EmpiricalCdf:
    """Right-continuous empirical CDF of a finite sample (ties allowed)."""

    def __init__(self, samples):
        x = np.asarray(samples, dtype=float).ravel()
        if x.size == 0:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples must be finite")
        self.sorted_samples = np.sort(x)
        self.count = int(x.size)

    def __call__(self, t):
        """F(t) = (#samples <= t) / count."""
        return np.searchsorted(self.sorted_samples, t, side="right") / self.count

    def left_limit(self, t):
        """F(t-) = (#samples < t) / count."""
        return np.searchsorted(self.sorted_samples, t, side="left") / self.count

    def quantile(self, p: float) -> float:
        """Left-continuous inverse: the smallest sample with F >= p; p=0 gives the min."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if p == 0.0:
            return float(self.sorted_samples[0])
        k = int(np.ceil(p * self.count)) - 1
        return float(self.sorted_samples[min(k, self.count - 1)])


def ecdf(samples) -> EmpiricalCdf:
    return EmpiricalCdf(samples)


def median(samples) -> float:
    """The middle sample, or the mean of the middle two: numpy.median's value."""
    s, k = np.sort(samples), len(samples) // 2
    return float(s[k] if len(samples) % 2 else (s[k - 1] + s[k]) / 2)


def kolmogorov_distance(f: EmpiricalCdf, g: EmpiricalCdf) -> float:
    """sup_t |F(t) - G(t)| over the pooled jump points, both one-sided limits."""
    points = np.concatenate((f.sorted_samples, g.sorted_samples))
    d_right = np.max(np.abs(f(points) - g(points)))
    d_left = np.max(np.abs(f.left_limit(points) - g.left_limit(points)))
    return float(max(d_right, d_left))
