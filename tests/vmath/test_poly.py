"""Horner polynomial evaluation tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.vmath import horner


class TestHorner:
    def test_constant(self):
        assert horner(np.array([5.0]), [3.0])[0] == 3.0

    def test_quadratic(self):
        # 1 + 2x + 3x^2 at x=2 -> 17
        assert horner(np.array([2.0]), [1, 2, 3])[0] == 17.0

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 2.0])
        assert np.allclose(horner(x, [1, 1]), [1, 2, 3])

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ConfigurationError):
            horner(np.array([1.0]), [])

