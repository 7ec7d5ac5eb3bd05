"""The streaming Oja iteration with fixed step size, and the sin^2 error.

One pass over n samples with learning rate eta = eta_n / n:

    w <- normalize(w + eta * (w . x) * x)

The update is linear in w (it is (I + eta x x^T) w), so normalizing every step
only rescales and never changes the direction; we renormalize every step to
keep ‖w‖ = 1 and avoid the (1 + eta_n lambda1 / n)^n growth of the raw
product. The default rate rule is eta_n = log n, overridable everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import check_vector


def default_eta_n(n: int) -> float:
    return math.log(n)


def normalize(v: np.ndarray) -> np.ndarray:
    v = check_vector(v)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / nrm


def run(source, n: int, eta_n: float, u0) -> np.ndarray:
    """Consume n samples from `source` (an (n, d) array or iterable of vectors)."""
    w = normalize(u0)
    if n == 0:
        return w
    eta = eta_n / n
    if isinstance(source, np.ndarray):
        if source.shape[0] < n:
            raise ValueError(f"source has {source.shape[0]} rows, need {n}")
        rows = source
    else:
        rows = list(source)
        if len(rows) < n:
            raise ValueError(f"source yielded {len(rows)} vectors, need {n}")
    for i in range(n):
        x = rows[i]
        w = w + eta * (w @ x) * x
        w /= np.linalg.norm(w)
    return w


def sin2(u, v) -> float:
    """1 - cos^2 of the angle between u and v; scale- and sign-invariant."""
    u = check_vector(u)
    v = check_vector(v)
    uu = float(u @ u)
    vv = float(v @ v)
    if uu == 0.0 or vv == 0.0:
        raise ValueError("sin2 needs nonzero vectors")
    # cos^2 as a single quotient (no square roots), so identical inputs give 0 exactly
    c2 = float(u @ v) ** 2 / (uu * vv)
    return float(min(1.0, max(0.0, 1.0 - c2)))
