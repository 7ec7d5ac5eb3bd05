"""The streaming Oja iteration with fixed step size, and the sin^2 error.

One pass over n samples with learning rate eta = eta_n / n applies

    w <- (I + eta x x^T) w

sample by sample, and the estimate is the direction of the result. The update is
linear in w, so `advance`, the one streaming kernel, divides by no norm: it rescales
rows by exact powers of two, which change no mantissa and so no bit of the direction,
at the end of every call and before any step where a growth bound says a row could
leave [2^-256, 2^256] (the raw product grows like (1 + eta_n lambda1 / n)^n).
`unit_rows` divides by the norm once, at the end of a pass. The default rate rule is
eta_n = log n, overridable everywhere.

`advance` has the runners' two modes: per-row coordinates z with a root (sampling),
each step's z_t Sigma^{1/2} formed just in time, and shared samples with multipliers
(the bootstrap, whose v_hat is a row of zeros): [p; x_t] @ w^T gives both dots and,
scaled in place by the rows' (-eta W, eta (1 + W)), its transpose adds both outer products.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_vector

# Between two rescales a row's norm moves at most this many bits away from [1/2, 1),
# so the squares behind the next rescale neither overflow nor underflow.
_WINDOW_BITS = 255.0


def normalize(v: np.ndarray) -> np.ndarray:
    v = check_vector(v)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / nrm


def unit_rows(w) -> np.ndarray:
    """The rows of the (m, d) block w, each divided by its norm: `advance` leaves
    rows that are right only up to scale."""
    w = np.asarray(w, dtype=float)
    norms = np.sqrt((w * w).sum(axis=1))
    bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
    if bad.size:
        raise ValueError(f"row {bad[0]} has norm {float(norms[bad[0]])!r}: the pass left "
                         "the finite range")
    return w / norms[:, None]


def start(u0, m: int) -> np.ndarray:
    """An (m, d) block of m copies of the normalized u0."""
    if m < 1:
        raise ValueError("need at least one iterate")
    return np.tile(normalize(u0), (m, 1))


def _rescale(w) -> None:
    """Scale each row of w in place by the power of two that puts its norm in [1/2, 1)."""
    _, exponents = np.frexp(np.sqrt((w * w).sum(axis=1)))
    np.ldexp(w, -exponents[:, None], out=w)


def advance(w, x, eta: float, mult=None, prev=None, root=None) -> np.ndarray:
    """The (m, d) block w (left unmodified) after one time chunk of samples x, given
    exactly one of mult and root. Either x is (T, d), shared by all rows, with the
    rows' (m, T) multipliers mult (a zero row steps plain Oja) and prev, the sample
    before the chunk, or None at the start of the pass, whose first step is plain Oja;
    or x is (m, T, d) coordinates z per row with a (d, d) root: row i steps plain Oja
    on z[i, t] @ root, formed a step at a time in one (m, d) slab per call. Each row
    comes back scaled by a power of two to a norm in [1/2, 1)."""
    w = np.array(w, dtype=float)
    x = np.asarray(x, dtype=float)
    shared = x.ndim == 2
    if (w.ndim != 2 or w.shape[0] < 1 or x.ndim not in (2, 3) or x.shape[-1] != w.shape[1]
            or not shared and x.shape[0] != w.shape[0]):
        raise ValueError(f"samples of shape {x.shape} do not fit a block of shape {w.shape}")
    m, steps = w.shape[0], x.shape[-2]
    mult = None if mult is None else np.asarray(mult, dtype=float)
    prev = None if prev is None else np.asarray(prev, dtype=float)
    if mult is not None and mult.shape != (m, steps):
        raise ValueError(f"multipliers of shape {mult.shape}, expected {(m, steps)}")
    if shared != (mult is not None) or shared != (root is None):
        raise ValueError("shared samples need multipliers, per-row ones a root; never both")

    # Step t applies I + E_t with ||E_t|| <= e_t: it moves a row's norm by at most
    # -log2(1 - e_t) bits, any amount once e_t >= 1, and as a per-row step with eta > 0
    # only grows it, by at most log2(1 + e_t) bits. The bootstrap step has E = eta
    # ((1 + W) x x^T - W p p^T); ||z_t @ root|| <= ||z_t|| max_i sum_j |root_ij|.
    xx = (x[..., None, :] @ x[..., None])[..., 0, 0]  # squared norms, no buffer of x's size
    if not shared:
        xx = xx.max(axis=0) * np.abs(root).sum(axis=1).max() ** 2
    e = abs(eta) * xx
    if shared and steps:
        wmax = np.maximum(mult.max(axis=0), -mult.min(axis=0))  # no (m, T) temporary
        pp = np.concatenate(([0.0 if prev is None else prev @ prev], xx[:-1]))
        if prev is None:
            wmax[0] = 0.0  # the first step is plain Oja and reads no multiplier
        e += abs(eta) * wmax * (xx + pp)
    if eta > 0.0 and not shared:
        bits = np.log2(1.0 + e)
    else:
        bits = np.full(steps, np.inf)
        bits[e < 1.0] = -np.log2(1.0 - e[e < 1.0])
    bits = bits.tolist()

    if not shared:  # the step's slab of samples z_t @ root and its rows' dots, as views
        slab, dots = np.empty_like(w), np.empty((m, 1, 1))
        rows, cols, scale = w[:, None, :], slab[:, :, None], dots[:, 0]
    else:
        # a multiplier step's (2, m) coefficients (-eta W, eta (1 + W)), first a plain step's
        coef, sign = np.repeat([[0.0], [eta]], m, axis=1), np.array([[-eta], [eta]])
    moved = np.inf  # the input's norms are unknown: rescale before the first step
    # a step too large for any rescale leaves inf or nan, which unit_rows reports
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            if moved + bits[t] > _WINDOW_BITS:
                _rescale(w)
                moved = 0.0
            moved += bits[t]
            if not shared:  # w_i += (w_i @ x_it) eta x_it, with x_it = z_it @ root
                np.matmul(x[:, t], root, out=slab)
                np.matmul(rows, cols, out=dots)
                scale *= eta
                slab *= scale
                w += slab
            else:
                pair = x[t - 1:t + 1] if t else np.stack((x[0] if prev is None else prev, x[0]))
                if t or prev is not None:
                    np.multiply(sign, mult[:, t], out=coef)
                    coef[1] += eta
                dots = pair @ w.T
                dots *= coef
                w += dots.T @ pair
        _rescale(w)
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
