"""Deterministic splittable random streams and the sampling primitives.

Every random consumer in the package (a sampling trial, a bootstrap replicate,
a Monte Carlo estimator) owns a stream derived from (master_seed, path), where
path is a tuple of labels such as ("trial", 3) or ("w", 17). Derivation is a
keyed hash, so the draw sequence of any consumer is a pure function of its
path and never depends on thread scheduling or evaluation order.

Streams are backed by Philox (counter-based) generators keyed through
numpy.random.SeedSequence. A stream is single-consumer: build one
`RngStream(master_seed, path)` per consumer rather than sharing one. `chisq1`
draws arrays only, of a given shape.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

ROOT3 = math.sqrt(3.0)

_INT_TAG = 0
_STR_TAG = 1
_MASK64 = (1 << 64) - 1

# E z^4 of one to_symmetric coordinate: the fourth moment (sqrt 3)^4 / 5 of
# Uniform(-sqrt(3), sqrt(3)), against 3 for a standard normal
KAPPA = 9.0 / 5.0


def to_symmetric(u):
    """Map Uniform [0, 1) draws u to Uniform(-sqrt(3), sqrt(3)) (mean 0, variance 1),
    in place for an array. numpy's uniform(low, high) computes low + (high - low) U
    from the same U, so these are its values bit for bit, at a lower cost per value."""
    u *= 2.0 * ROOT3
    u -= ROOT3
    return u


def _label_words(label) -> tuple[int, int, int]:
    # Encode one path label as (type tag, low 32 bits, high 32 bits) so that
    # e.g. 5 and "5" key different substreams.
    if isinstance(label, bool):
        raise TypeError("path labels must be ints or strings, not bool")
    if isinstance(label, (int, np.integer)):
        v = int(label) & _MASK64
        return (_INT_TAG, v & 0xFFFFFFFF, v >> 32)
    if isinstance(label, str):
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        v = int.from_bytes(digest, "little")
        return (_STR_TAG, v & 0xFFFFFFFF, v >> 32)
    raise TypeError(f"path labels must be ints or strings, got {type(label).__name__}")


class RngStream:
    """Single-consumer random stream addressed by (master_seed, path)."""

    def __init__(self, master_seed: int, path: tuple = ()):
        if not isinstance(master_seed, (int, np.integer)):
            raise TypeError("master_seed must be an integer")
        self.master_seed = int(master_seed) & _MASK64
        self.path = tuple(path)
        spawn_key = tuple(w for label in self.path for w in _label_words(label))
        seq = np.random.SeedSequence(self.master_seed, spawn_key=spawn_key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    # -- sampling primitives ------------------------------------------------

    def normal(self, mean: float = 0.0, variance: float = 1.0, size=None):
        """N(mean, variance) draw(s); variance 0 degenerates to the mean."""
        if variance < 0:
            raise ValueError(f"variance must be >= 0, got {variance}")
        return mean + math.sqrt(variance) * self._gen.standard_normal(size)

    def standard_normal(self, out):
        """N(0, 1) draws into `out`: the values that normal(0, v) scales by sqrt(v)."""
        return self._gen.standard_normal(out=out)

    def uniform_sym(self, size=None):
        """Uniform(-sqrt(3), sqrt(3)): mean 0, variance 1."""
        return to_symmetric(self._gen.random(size))

    def chisq1(self, size):
        """chi^2(1) draws of shape `size`: standard normals, squared in place. No package
        code draws them; `perfbench/tracer.py` wraps the method by name."""
        z = self._gen.standard_normal(size)
        return np.square(z, out=z)

    def uniform01(self, size=None, out=None):
        """Uniform [0, 1) draw(s), into `out` when given: indices into finite supports,
        and the raw draws that `to_symmetric` maps for many streams at once."""
        return self._gen.random(size, out=out)
