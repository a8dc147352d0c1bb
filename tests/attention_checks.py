"""The attention matrix invariant that decoding and training both keep."""

import numpy as np


def assert_attention_rows(weights, n_target, n_source, tol=1e-6):
    """weights is (n_target, n_source), every entry lies in [0, 1] and every
    row sums to 1, all within tol."""
    assert weights.shape == (n_target, n_source)
    assert np.all(weights >= -tol) and np.all(weights <= 1 + tol)
    assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= tol)
