"""Online Gaussian multiplier bootstrap for the Oja iterate.

All m replicates share the data pass. At step t with sample x and previous
sample p, replicate v moves by

    v <- normalize(v + eta * (h + W (h - g))),  h = (x.v) x,  g = (p.v) p,

with W ~ N(0, 1/2) drawn per (replicate, step) from that replicate's own
stream, so replicate-parallel execution is deterministic. The very first step
has no previous sample; every replicate takes the plain Oja step there and the
multiplier starts at t = 2. The plain Oja track itself consumes all n samples,
which keeps the returned v_hat identical to a standalone run on the same data.

The update is linear in v: it applies I + eta (x x^T + W (x x^T - p p^T)), so
a replicate's path is the ordered product of those factors applied to u0 (the
subset oracles in the hoeffding module decompose exactly this product).

Also here: the closed-form conditional covariance of the linearized bootstrap
statistic around v1, a single O(n d^2) pass in the eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, oja
from .model import SpectralModel

W_VARIANCE = 0.5


@dataclass(eq=False)
class BootstrapEnsemble:
    """m unit-norm replicate rows plus the retained previous sample."""

    replicates: np.ndarray  # (m, d)
    prev_x: np.ndarray | None
    t: int
    eta_n: float
    n: int

    @property
    def m(self) -> int:
        return self.replicates.shape[0]


def ensemble_init(u0, m: int, eta_n: float, n: int) -> BootstrapEnsemble:
    if m < 1:
        raise ValueError("need at least one replicate")
    w = oja.normalize(u0)
    return BootstrapEnsemble(
        replicates=np.tile(w, (m, 1)), prev_x=None, t=0, eta_n=float(eta_n), n=int(n))


def ensemble_step(ens: BootstrapEnsemble, x_t, streams) -> BootstrapEnsemble:
    """Advance every replicate by one sample; streams has one entry per replicate."""
    x = np.asarray(x_t, dtype=float)
    if x.shape != (ens.replicates.shape[1],):
        raise ValueError(f"sample dim {x.shape} does not match ensemble dim")
    if len(streams) != ens.m:
        raise ValueError("need exactly one stream per replicate")
    eta = ens.eta_n / ens.n
    r = ens.replicates
    h_coef = r @ x
    if ens.prev_x is None:
        new = r + eta * h_coef[:, None] * x[None, :]
    else:
        w = np.array([s.normal(0.0, W_VARIANCE) for s in streams])
        g_coef = r @ ens.prev_x
        new = (r
               + eta * ((1.0 + w) * h_coef)[:, None] * x[None, :]
               - eta * (w * g_coef)[:, None] * ens.prev_x[None, :])
    new /= np.linalg.norm(new, axis=1, keepdims=True)
    return BootstrapEnsemble(replicates=new, prev_x=x.copy(), t=ens.t + 1,
                             eta_n=ens.eta_n, n=ens.n)


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
    lam = model.eig.eigenvalues
    ratios = (1.0 + a * lam[1:]) / (1.0 + a * lam[0])  # (d-1,)
    coef = data @ model.v1
    proj = data @ model.v_perp
    cp = coef[:, None] * proj  # row i: V_perp^T X_i X_i^T v1
    c = cp[1:] - cp[:-1]  # row k: V_perp^T Delta_{k+2} v1, 1-based i = k+2
    powers = ratios[None, :] ** np.arange(1, n)[:, None]
    s = powers * c
    inner = (a * W_VARIANCE) * (s.T @ s)
    return linalg.sym(model.v_perp @ inner @ model.v_perp.T)
