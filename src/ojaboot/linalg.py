"""Dense symmetric linear algebra: eigendecomposition, the PSD root of an eigensystem, norms.

Everything downstream (covariance models, the reference distribution, the
bootstrap covariance) takes its spectra from `eigh` here, the package's one
eigen path: LAPACK through numpy.linalg.eigh. The conventions are pinned once:
symmetric matrices are symmetrized by averaging on construction, eigenvalues
come back sorted descending, and eigenvector signs follow a fixed convention
(the entry of largest absolute value is nonnegative, ties broken by lowest
index). A decomposition is therefore a pure function of the input for a fixed
LAPACK build and BLAS thread count; the thread count can move the last digits
of large problems. It is the plain pair (eigenvalues, eigenvectors), as
numpy.linalg.eigh returns it.
"""

from __future__ import annotations

import numpy as np


class NotPsdError(ValueError):
    """A matrix or spectrum has an eigenvalue below the PSD tolerance."""


def sym(a) -> np.ndarray:
    """Return `a` as a float symmetric matrix, averaging away any asymmetry."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return (a + a.T) / 2.0


def check_vector(x) -> np.ndarray:
    """Return `x` as a finite 1-D float array of dimension >= 1."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def _fix_signs(q: np.ndarray) -> np.ndarray:
    # Largest-|entry| component of each column made nonnegative; argmax takes
    # the lowest index on ties, which is the tie rule we promise.
    for k in range(q.shape[1]):
        col = q[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            q[:, k] = -col
    return q


def eigh(a) -> tuple:
    """(eigenvalues, eigenvectors) of a symmetric matrix by LAPACK (numpy.linalg.eigh):
    eigenvalues sorted descending, eigenvectors[:, k] the k-th unit eigenvector.

    The ascending LAPACK order is reversed by a stable sort, so equal
    eigenvalues keep LAPACK's relative order, and the signs are then fixed.
    """
    vals, q = np.linalg.eigh(sym(a))
    order = np.argsort(-vals, kind="stable")
    return vals[order], _fix_signs(q[:, order])


def frobenius_norm(a) -> float:
    """Computed on a scaled by a power of two to max |a_ij| in [1/2, 1): no square overflows."""
    a = np.asarray(a, dtype=float)
    _, k = np.frexp(np.abs(a).max(initial=0.0))
    return float(np.ldexp(np.linalg.norm(np.ldexp(a, -k)), k))


def sqrt_psd(vals: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root S of A = q diag(vals) q^T, S @ S ~ A, from the pair
    that `eigh(A)` returns.

    Eigenvalues are allowed to dip to -1e-10 times the operator norm (roundoff
    from covariance assembly) and are clamped to zero; anything lower raises
    NotPsdError.
    """
    opn = float(np.max(np.abs(vals))) if vals.size else 0.0
    if np.min(vals) < -1e-10 * opn:
        raise NotPsdError(
            f"matrix is not PSD within tolerance (min eigenvalue {np.min(vals):.3e}, "
            f"operator norm {opn:.3e})"
        )
    root = q * np.sqrt(np.clip(vals, 0.0, None))
    return sym(root @ q.T)
