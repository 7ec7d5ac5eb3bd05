"""Online Gaussian multiplier bootstrap for the Oja iterate.

All m replicates share the data pass. At step t with sample x and previous
sample p, replicate v moves by

    v <- v + eta * (h + W (h - g)),  h = (x.v) x,  g = (p.v) p,

with W ~ N(0, 1/2) drawn per (replicate, step) from that replicate's own
stream, so the values do not depend on how replicates are grouped. The first
sample stands in for its missing predecessor, so every replicate takes the plain
Oja step there and the multiplier starts at t = 2. The update itself is the kernel
`oja.advance`; this module draws its multipliers chunk by chunk (zero rows step plain).

The update is linear in v: it applies I + eta (x x^T + W (x x^T - p p^T)), so
a replicate's path is the ordered product of those factors applied to u0 (the
subset oracles in the hoeffding module decompose exactly this product). Only
its direction is the replicate: `oja.advance` keeps each row in range by exact
powers of two, and `oja.unit_rows` divides by the norm once, at the end.

Also here: the closed-form conditional covariance of the linearized bootstrap
statistic around v1, a single O(n d^2) pass in the eigenbasis.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .model import SpectralModel
from .reference import contraction_ratios

W_VARIANCE = 0.5


def draw_multipliers(streams, start: int, stop: int, rows: int | None = None) -> np.ndarray:
    """The (rows, stop - start) multipliers of 0-based steps start..stop-1: a row per
    stream, then zero rows. Step 0 draws none (its column is zero), so any chunking
    yields the values of one scalar draw per step from t = 2 on."""
    first = 1 if start == 0 else 0
    mult = np.zeros((len(streams) if rows is None else rows, stop - start))
    for row, stream in zip(mult, streams):
        stream.standard_normal(out=row[first:])
    mult *= np.sqrt(W_VARIANCE)
    return mult


def bootstrap_covariance(data, model: SpectralModel, eta_n: float) -> np.ndarray:
    """Conditional covariance of the linearized bootstrap statistic, closed form.

    (eta_n / 2n) sum_{i>=2} D_{i-1} Delta_i v1 v1^T Delta_i D_{i-1} with
    Delta_i the consecutive outer-product increments and D_k the diagonal
    ratio powers in the eigenbasis; computed without materializing any D.
    The 1/2 is the multiplier variance.
    """
    model.require_gap()
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    if n < 2:
        return np.zeros((model.dim, model.dim))
    a = eta_n / n
    ratios = contraction_ratios(model, eta_n, n)  # (d-1,)
    coef = data @ model.v1
    proj = data @ model.v_perp
    cp = coef[:, None] * proj  # row i: V_perp^T X_i X_i^T v1
    c = cp[1:] - cp[:-1]  # row k: V_perp^T Delta_{k+2} v1, 1-based i = k+2
    powers = ratios[None, :] ** np.arange(1, n)[:, None]
    s = powers * c
    inner = (a * W_VARIANCE) * (s.T @ s)
    return linalg.sym(model.v_perp @ inner @ model.v_perp.T)
