"""The streaming Oja iteration with fixed step size, and the sin^2 error.

One pass over n samples with learning rate eta = eta_n / n:

    w <- normalize(w + eta * (w . x) * x)

The update is linear in w (it is (I + eta x x^T) w), so normalizing every step
only rescales and never changes the direction; we renormalize every step to
keep ‖w‖ = 1 and avoid the (1 + eta_n lambda1 / n)^n growth of the raw
product. The default rate rule is eta_n = log n, overridable everywhere.
`advance`, the one streaming kernel, moves a block of iterates through a chunk
of samples, with the `bootstrap` multiplier update when given multipliers; the
experiment runners call it directly, chunk by chunk. `run` is the library's
one-row call over a whole dataset, not the runners' path.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_vector


def normalize(v: np.ndarray) -> np.ndarray:
    v = check_vector(v)
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / nrm


def start(u0, m: int) -> np.ndarray:
    """An (m, d) block of m copies of the normalized u0."""
    if m < 1:
        raise ValueError("need at least one iterate")
    return np.tile(normalize(u0), (m, 1))


def advance(w, x, eta: float, mult=None, prev=None) -> np.ndarray:
    """The (m, d) block w (left unmodified) after one time chunk of samples x:
    (T, d) shared by all rows or (m, T, d) per row. mult is the rows' (m, T)
    multipliers or None for plain Oja; prev is the sample before the chunk, or
    None at the start of the pass, whose first step is plain Oja."""
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

    def dots(a, b):
        # a shared sample: one matrix-vector product; per row: vector dots a_i @ b_i
        return a @ b if b.ndim == 1 else (a[:, None, :] @ b[:, :, None])[:, 0, 0]

    for t in range(steps):
        xt = x[..., t, :]
        h = dots(w, xt)
        if mult is None or prev is None:
            w += eta * h[:, None] * xt
        else:
            wt = mult[:, t]
            g = dots(w, prev)
            w += eta * ((1.0 + wt) * h)[:, None] * xt
            w -= eta * (wt * g)[:, None] * prev
        w /= np.sqrt((w * w).sum(axis=1))[:, None]
        prev = xt
    return w


def run(source, n: int, eta_n: float, u0) -> np.ndarray:
    """Consume n samples from `source` (an (n, d) array or iterable of vectors)."""
    w = normalize(u0)
    if n == 0:
        return w
    rows = source if isinstance(source, np.ndarray) else list(source)
    if len(rows) < n:
        raise ValueError(f"source has {len(rows)} rows, need {n}")
    for i, row in enumerate(rows[:n]):
        if np.shape(row) != w.shape:
            raise ValueError(f"row {i} has dimension {np.shape(row)}, u0 has dimension {w.size}")
    return advance(w[None, :], np.asarray(rows[:n], dtype=float), eta_n / n)[0]


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
