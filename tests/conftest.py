import numpy as np
import pytest

import rsfilt as rf


def random_scalar_model(rng, T, mean_scale=1.0, cov_scale=0.6):
    """Random well-conditioned scalar model."""
    L = rng.normal(size=(T, T)) * cov_scale
    K = np.tril(L @ L.T + 0.4 * np.eye(T))
    m = rng.normal(size=T) * mean_scale
    A = rng.normal(size=T)
    return rf.build_general(m, K, A)


def fgn_kernel(T, hurst):
    """Covariance of unit-variance fractional Gaussian noise (non-Markov for hurst != 1/2)."""
    k = np.arange(T, dtype=float)
    r = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst))
    return r[np.abs(np.subtract.outer(np.arange(T), np.arange(T)))]


def random_causal_h(rng, Y):
    """A random causal affine rule evaluated on the realized path."""
    T = Y.shape[-1]
    G = np.tril(rng.normal(size=(T, T)) * 0.4)
    c = rng.normal(size=T) * 0.3
    return c + Y @ G.T


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
