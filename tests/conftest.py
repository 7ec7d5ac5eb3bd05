"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def rounded():
    """f(numerators, den): the hoeffding oracles' exact integer numerators over den,
    each correctly rounded to a float by one int true division."""
    def f(numerators, den):
        assert all(isinstance(v, int) for v in numerators.flat)
        return np.array([v / den for v in numerators.flat]).reshape(numerators.shape)
    return f
