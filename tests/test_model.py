import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsfilt as rf
from rsfilt.errors import (
    DimensionMismatch,
    NegativeVariance,
    NotPositiveSemidefinite,
)

from conftest import random_scalar_model


class TestBuildGeneral:
    def test_smallest_instance(self):
        model = rf.build_general([0.0], [[1.0]], [1.0])
        assert model.horizon == 1
        assert model.dims == (1, 1)
        assert model.cov2[0, 0] == 1.0

    def test_negative_variance_rejected(self):
        K = np.array([[1.0, 0.0], [0.3, -1.0]])
        with pytest.raises(NotPositiveSemidefinite) as exc:
            rf.build_general([0.0, 0.0], K, [1.0, 1.0])
        assert exc.value.worst_eigenvalue is not None

    def test_factor_product_round_trip(self, rng):
        T = 3
        L = np.tril(rng.normal(size=(T, T)) + 2 * np.eye(T))
        K = L @ L.T
        model = rf.build_general(np.zeros(T), np.tril(K), np.ones(T))
        assert_allclose(model.cov2, K, atol=1e-14)

    def test_mirror_keeps_the_bits_of_the_three_table_sum(self, rng):
        # The sum it replaced: a -0.0 off the diagonal and on it reads +0.0, subnormals stay.
        for T in (1, 2, 7, 40):
            K = rng.normal(size=(T, T))
            K[rng.random((T, T)) < 0.3] = -0.0
            K.flat[rng.integers(T * T, size=3)] = [5e-324, -5e-324, 8e307]
            L = np.tril(K)
            assert rf.model._mirror_lower(K[:, :, None, None]).tobytes() == (L + L.T - np.diag(np.diag(K))).tobytes()

    def test_mirror_holds_at_most_three_tables(self, rng):
        K = rng.normal(size=(800, 800))
        tracemalloc.start()
        try:
            rf.model._mirror_lower(K[:, :, None, None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * K.nbytes  # one table and a boolean mask: 1.1 tables

    @pytest.mark.parametrize("d, message", [
        (1.7e308, "signal covariance table has entries that are not finite in double precision"),
        (-1.7e308, "a diagonal block of cov has a negative variance (-inf)"),
        (np.inf, "signal covariance table has entries that are not finite in double precision"),
    ])
    def test_diagonal_that_doubles_past_dbl_max(self, d, message):
        # The mirror forms the diagonal as (d + d) / 2, so validation sees +-inf, without a warning.
        with pytest.raises(NotPositiveSemidefinite) as exc:
            rf.build_general([0.0, 0.0], [[d, 0.0], [0.5, 1.0]], [1.0, 1.0])
        assert str(exc.value) == message

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rf.build_general([0.0, 0.0], [[1.0]], [1.0, 1.0])


class TestBuildAr1:
    def test_random_walk_kernel(self):
        model = rf.build_ar1(1.0, 1.0, 0.0, 1.0, 3)
        expect = np.fromfunction(lambda i, j: np.minimum(i, j) + 1.0, (3, 3))
        assert_allclose(model.cov2, expect, atol=1e-14)
        assert_allclose(model.mean1, 0.0, atol=1e-14)

    def test_iid_signal(self):
        model = rf.build_ar1(0.0, 1.0, 0.7, 1.0, 4)
        assert_allclose(model.cov2, np.eye(4), atol=1e-14)

    def test_matches_unrolled_recursion(self):
        # X_t = sum_{u<=t} (prod_{u<v<=t} a_v) sqrt(D_u) e_u gives the kernel directly.
        T, a, D = 4, 0.5, 1.0
        model = rf.build_ar1(a, D, 0.0, 1.0, T)
        K = np.zeros((T, T))
        for t in range(1, T + 1):
            for s in range(1, T + 1):
                K[t - 1, s - 1] = sum(
                    a ** (t - u) * a ** (s - u) * D for u in range(1, min(t, s) + 1)
                )
        assert_allclose(model.cov2, K, atol=1e-13)

    def test_zero_coefficient_mid_sequence(self):
        # per-step zero is allowed; covariance across the zero step vanishes
        model = rf.build_ar1([0.8, 0.0, 0.8], 1.0, 1.0, 1.0, 3)
        assert model.cov2[2, 0] == 0.0
        assert model.cov2[1, 0] == 0.0
        assert model.mean1[1] == 0.0

    def test_negative_D_rejected(self):
        with pytest.raises(NegativeVariance):
            rf.build_ar1(0.5, -0.1, 0.0, 1.0, 3)

    def test_overflowing_coefficient_rejected_without_warnings(self):
        # a^2 overflows and 0 * inf is nan; check_psd refuses the table, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveSemidefinite):
                rf.build_ar1(1e200, 1.0, 0.0, 1.0, 4)


class TestBuildMa1:
    def test_lambda_zero_identity(self):
        model = rf.build_ma1(0.0, 1.0, 4)
        assert_allclose(model.cov2, np.eye(4), atol=1e-14)

    def test_lambda_one(self):
        model = rf.build_ma1(1.0, 1.0, 3)
        expect = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert_allclose(model.cov2, expect, atol=1e-14)

    def test_empirical_covariance(self):
        lam, T, n = 0.7, 3, 10**6
        model = rf.build_ma1(lam, 1.0, T)
        X, _ = rf.sample_paths(model, 2024, n)
        X = X[:, :, 0]
        emp = X.T @ X / n
        K = model.cov2
        se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / n)
        assert np.all(np.abs(emp - K) <= 3.0 * se + 1e-12)


class TestBuildVectorModel:
    def test_scalar_reduction_identical(self, rng):
        scalar = random_scalar_model(rng, 3)
        vec = rf.build_vector_model(scalar.mean1, np.tril(scalar.cov2), scalar.gains1)
        assert np.array_equal(vec.mean, scalar.mean)
        assert np.array_equal(vec.cov, scalar.cov)
        assert np.array_equal(vec.gains, scalar.gains)

    def test_ma1_observation_preset_blocks(self):
        lam, alpha, beta, T = 0.6, 1.2, 0.5, 4
        model = rf.build_ma1_observations(lam, alpha, beta, T)
        assert model.dims == (2, 1)
        assert_allclose(model.cov[2, 2], np.diag([1 + lam**2, 1.0]), atol=1e-14)
        assert_allclose(model.cov[2, 1], [[lam, 0.0], [0.0, 0.0]], atol=1e-14)
        assert_allclose(model.cov[3, 1], 0.0, atol=1e-14)
        assert_allclose(model.gains[1], [[alpha, beta]], atol=1e-14)
        assert_allclose(model.cross_cov[2, 1], [[0.0], [1.0]], atol=1e-14)
        assert_allclose(model.cross_cov[2, 2], 0.0, atol=1e-14)

    def test_ar1_noise_preset_blocks(self):
        a, b, alpha, beta, T = 0.7, 0.4, 1.1, 0.4, 4
        model = rf.build_ar1_noise(a, b, alpha, beta, T)
        # signal block is the AR(1) kernel with unit innovations
        ar = rf.build_ar1(a, 1.0, 0.0, 1.0, T)
        assert_allclose(model.cov[:, :, 0, 0], ar.cov2, atol=1e-14)
        # noise-state block: eps_{t-1} with eps_0 = 0
        assert model.cov[0, 0, 1, 1] == 0.0
        assert_allclose(model.cov[2, 2, 1, 1], b**2 + 1.0, atol=1e-14)
        assert_allclose(model.cross_cov[2, 1, 1, 0], 1.0, atol=1e-14)
        assert_allclose(model.cross_cov[3, 1, 1, 0], b, atol=1e-14)

    def test_cross_cov_upper_triangle_rejected(self):
        C = np.zeros((2, 2, 1, 1))
        C[0, 1, 0, 0] = 0.5  # noise at step 2 correlating with signal at step 1
        with pytest.raises(DimensionMismatch):
            rf.build_vector_model(np.zeros(2), np.eye(2), np.ones(2), C)

    def test_cross_cov_rejection_names_first_pair_by_signal_step(self):
        T = 6
        C = np.zeros((T, T, 1, 1))
        C[1, 2, 0, 0] = 0.1  # first in column order
        C[0, 4, 0, 0] = 0.1  # first in (signal step, then noise step) order
        with pytest.raises(DimensionMismatch, match="noise at step 5 may not correlate with the signal at earlier step 1"):
            rf.build_vector_model(np.zeros(T), np.eye(T), np.ones(T), C)

    @pytest.mark.parametrize("d, message", [
        (1.7e308, "signal covariance table has entries that are not finite in double precision"),
        (-1.7e308, "a diagonal block of cov has a negative variance (-inf)"),
        (np.inf, "signal covariance table has entries that are not finite in double precision"),
    ])
    @pytest.mark.parametrize("entries", [[(0, 0)], [(1, 1)], [(0, 1), (1, 0)]])
    def test_diagonal_block_that_doubles_past_dbl_max(self, d, message, entries):
        # (B + B') / 2 of a diagonal block reads +-inf past DBL_MAX / 2, without a warning; an
        # off-diagonal pair of a block is not a variance, so it fails as a non-finite entry.
        K = np.zeros((2, 2, 2, 2))
        K[0, 0] = K[1, 1] = np.eye(2)
        for i, j in entries:
            K[1, 1, i, j] = d
        if len(entries) == 2:
            message = "signal covariance table has entries that are not finite in double precision"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveSemidefinite) as exc:
                rf.build_vector_model(np.zeros((2, 2)), K, np.ones((2, 1, 2)))
        assert str(exc.value) == message

    def test_upper_blocks_mirror_lower_blocks(self, rng):
        T, n = 30, 2
        F = rng.normal(size=(T * n, T * n))
        full = (F @ F.T).reshape(T, n, T, n).transpose(0, 2, 1, 3)
        upper = np.triu(np.ones((T, T), dtype=bool), 1)[:, :, None, None]
        K = np.where(upper, rng.normal(size=full.shape), full)  # blocks above the diagonal are never read
        model = rf.build_vector_model(np.zeros((T, n)), K, np.ones((T, 1, n)))
        for t in range(T):
            for s in range(t):
                assert not np.array_equal(K[t, s], K[t, s].T)
                assert np.array_equal(model.cov[t, s], K[t, s])
                assert np.array_equal(model.cov[s, t], K[t, s].T)
            assert np.array_equal(model.cov[t, t], (K[t, t] + K[t, t].T) / 2.0)


def assert_rel_close(actual, expected, rtol=1e-14):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


class TestPresetTablesClosedForm:
    """The preset builders' tables, entry by entry, against their closed forms."""

    T = 30

    def test_ar1_noise(self, rng):
        T = self.T
        a, alpha = rng.uniform(-0.95, 0.95, T), rng.uniform(0.5, 1.5, T)
        b, beta = -0.7, 0.3
        model = rf.build_ar1_noise(a, b, alpha, beta, T)
        k, v = np.zeros(T), np.zeros(T)  # k_s = Var X_s, v_s = Var eps_{s-1}
        for s in range(T):
            k[s] = a[s] ** 2 * (k[s - 1] if s else 0.0) + 1.0
            v[s] = b**2 * v[s - 1] + 1.0 if s else 0.0
        K, C = np.zeros((T, T, 2, 2)), np.zeros((T, T, 2, 1))
        for t in range(T):
            for s in range(t + 1):
                K[t, s, 0, 0] = np.prod(a[s + 1 : t + 1]) * k[s]
                K[t, s, 1, 1] = b ** (t - s) * v[s]
                K[s, t] = K[t, s].T
                if s < t:
                    C[t, s, 1, 0] = b ** (t - 1 - s)
        assert_rel_close(model.cov, K)
        assert_rel_close(model.cross_cov, C)
        assert np.array_equal(model.gains[:, 0], np.stack([alpha, np.full(T, beta)], axis=1))

    def test_ma1_observations(self):
        T, lam, beta = self.T, -0.6, 0.4
        model = rf.build_ma1_observations(lam, 1.3, beta, T)
        K, C = np.zeros((T, T, 2, 2)), np.zeros((T, T, 2, 1))
        for t in range(T):
            K[t, t] = np.diag([1.0 + lam**2, 1.0])
            if t:
                K[t, t - 1, 0, 0] = K[t - 1, t, 0, 0] = lam
                C[t, t - 1, 1, 0] = 1.0
        assert_rel_close(model.cov, K)
        assert_rel_close(model.cross_cov, C)


class TestLagTables:
    """The presets index one power per lag, b ** k for k = 0, ..., T: their tables are the ones built from
    b ** lag entry by entry, bit for bit."""

    RANDOM_B = np.random.default_rng(30).uniform(-1, 1, 6).tolist()

    @staticmethod
    def _legacy(K_signal, K_noise, alpha, beta, b):
        T = len(alpha)
        K, A, C = np.zeros((T, T, 2, 2)), np.zeros((T, 1, 2)), np.zeros((T, T, 2, 1))
        K[:, :, 0, 0], K[:, :, 1, 1] = K_signal, K_noise
        A[:, 0, 0], A[:, 0, 1] = alpha, beta
        C[:, :, 1, 0] = np.tril(b ** np.abs(np.subtract.outer(np.arange(T), np.arange(T)) - 1), -1)
        return rf.build_vector_model(np.zeros((T, 2)), K, A, C)

    @staticmethod
    def _assert_same_bits(got, want):
        for name in ("mean", "cov", "gains", "cross_cov"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("b", [-0.8, -0.5, -0.0, 0.0, 0.3, 0.8, *RANDOM_B])
    @pytest.mark.parametrize("T", [1, 2, 100])
    def test_ar1_noise(self, T, b):
        a, alpha, beta = np.linspace(-0.9, 0.9, T), np.linspace(0.5, 1.5, T), 0.4
        v = np.zeros(T + 1)
        for t in range(1, T + 1):
            v[t] = b**2 * v[t - 1] + 1.0
        lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        want = self._legacy(rf.model._ar1_table(a, np.ones(T)), np.tril(b**lag * v[:T]), alpha, beta, b)
        self._assert_same_bits(rf.build_ar1_noise(a, b, alpha, beta, T), want)

    @pytest.mark.parametrize("T", [1, 2, 100])
    def test_ma1_observations(self, T):
        alpha = np.linspace(0.5, 1.5, T)
        want = self._legacy(rf.model._ma1_table(-0.6, T), np.eye(T), alpha, 0.4, 0.0)
        self._assert_same_bits(rf.build_ma1_observations(-0.6, alpha, 0.4, T), want)


class TestRiskSpec:
    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeVariance):
            rf.RiskSpec(mu=-1.0, Q=np.array([0.5, -0.1]))

    def test_s_values_scalar(self):
        risk = rf.RiskSpec(mu=-2.0, Q=np.array([1.0, 0.5]))
        assert_allclose(risk.s_values(np.array([1.0, 2.0])), [3.0, 5.0])

    def test_s_values_matrix(self):
        risk = rf.RiskSpec(mu=-1.0, Q=np.array([1.0]))
        A = np.array([[[1.0, 0.5]]])  # 1x2 gain
        S = risk.s_values(A)
        assert_allclose(S[0], A[0].T @ A[0] + np.eye(2), atol=1e-14)


    def test_weight_blocks_name_the_first_failing_step(self):
        Q = np.tile(np.eye(2), (5, 1, 1))
        Q[3] = [[1.0, 0.0], [0.0, -0.5]]
        Q[4, 0, 1] = np.nan
        with pytest.raises(NotPositiveSemidefinite, match=r"^weight matrix Q at step 4 is not positive "
                                                          r"semidefinite \(worst eigenvalue -5\.000e-01\)$"):
            rf.RiskSpec(mu=-1.0, Q=Q)
        Q[3] = np.eye(2)
        with pytest.raises(NotPositiveSemidefinite,
                           match=r"^weight matrix Q at step 5 has entries that are not finite in double precision$"):
            rf.RiskSpec(mu=-1.0, Q=Q)


def _with_floor(factor, N=12, seed=5):
    """A symmetric matrix whose smallest eigenvalue is factor * PSD_TOL * trace."""
    rng = np.random.default_rng(seed)
    vecs = np.linalg.qr(rng.normal(size=(N, N)))[0]
    rest = rng.uniform(0.5, 2.0, N - 1)
    low = factor * rf.model.PSD_TOL * rest.sum() / (1.0 - factor * rf.model.PSD_TOL)
    return (vecs * np.concatenate([[low], rest])) @ vecs.T


class TestCheckPsd:
    """The Cholesky certificate keeps the eigenvalue test's verdicts and messages."""

    @pytest.mark.parametrize("factor", [-0.4, -0.99, 0.0])
    def test_inside_the_floor_passes(self, factor):
        rf.model.check_psd(_with_floor(factor), "table")

    def test_below_the_floor_fails_with_the_worst_eigenvalue(self):
        mat = _with_floor(-1.01)
        worst = float(np.linalg.eigvalsh((mat + mat.T) / 2.0)[0])
        assert worst < -rf.model.PSD_TOL * np.trace(mat)
        with pytest.raises(NotPositiveSemidefinite) as info:
            rf.model.check_psd(mat, "table")
        assert str(info.value) == f"table is not positive semidefinite (worst eigenvalue {worst:.3e})"
        assert info.value.worst_eigenvalue == worst

    def test_singular_psd_passes(self):
        v = np.arange(1.0, 7.0)
        rf.model.check_psd(np.outer(v, v), "rank one")
        rf.model.check_psd(np.zeros((4, 4)), "zero")

    def test_mirrored_entries_past_half_dbl_max_fail(self):
        # (K + K') / 2 overflowed to inf here, and the inf table passed; halves first sum to -1.7e308 exactly.
        mat = np.array([[1.0, 1.7e308], [1.7e308, 1.0]])
        with pytest.raises(NotPositiveSemidefinite) as info:
            rf.model.check_psd(mat, "table")
        assert info.value.worst_eigenvalue == -1.7e308

    def test_nan_worst_eigenvalue_fails(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[:-1], np.nan))
        with pytest.raises(NotPositiveSemidefinite, match=r"^table is not positive semidefinite \(worst eigenvalue nan\)$"):
            rf.model.check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), "table")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_table_fails(self, bad):
        mat = np.eye(3)
        mat[1, 2] = bad
        with pytest.raises(NotPositiveSemidefinite, match="^table has entries that are not finite"):
            rf.model.check_psd(mat, "table")


def _build_flat(K, n):
    """A vector model from a flat (Tn, Tn) signal table, gains of ones."""
    T = len(K) // n
    return rf.build_vector_model(np.zeros((T, n)), K.reshape(T, n, T, n).transpose(0, 2, 1, 3), np.ones((T, 1, n)))


def _traced_peak(build):
    build()  # first-use set-up outside the trace
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSignalTableInPlace:
    """The build factors its own flat table; verdicts and messages are check_psd's on its symmetrized copy."""

    @staticmethod
    def outcome(check):
        try:
            check()
        except NotPositiveSemidefinite as exc:
            return str(exc), exc.worst_eigenvalue
        return "ok", None

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("factor", [0.5, 0.0, -0.4, -0.99, -1.01, -2.0, -1e3, -1e9])
    def test_same_verdict_as_check_psd(self, n, factor):
        K = _with_floor(factor)
        K = (K + K.T) / 2.0  # exactly symmetric, as the mirror is
        got = self.outcome(lambda: _build_flat(K, n))
        assert got == self.outcome(lambda: rf.model.check_psd(K, "signal covariance table"))
        assert got[0] == "ok" if factor > -1 else got[0].startswith("signal covariance table is not positive")
        if got[0] == "ok":  # the shifted diagonal is restored
            assert _build_flat(K, n).flat_cov().tobytes() == K.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables(self, n, seed):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(12, 12))
        for K in (G @ G.T, G @ np.diag(rng.uniform(-0.2, 1.0, 12)) @ G.T + 3.0 * np.eye(12)):
            K = (K + K.T) / 2.0
            got = self.outcome(lambda: _build_flat(K, n))
            assert got == self.outcome(lambda: rf.model.check_psd(K, "signal covariance table"))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad, where", [(np.nan, (5, 0)), (np.inf, (5, 0)), (-np.inf, (7, 2)), (np.inf, (3, 3))])
    def test_non_finite_entries(self, n, bad, where):
        K = _with_floor(0.5)
        K = (K + K.T) / 2.0
        K[where] = K[where[::-1]] = bad
        got = self.outcome(lambda: _build_flat(K, n))
        assert got == self.outcome(lambda: rf.model.check_psd(K, "signal covariance table"))
        assert got[0] == "signal covariance table has entries that are not finite in double precision"

    def test_build_general_holds_two_tables(self, rng):
        # The mirror (1.14 tables, its mask freed) and the Cholesky factor; check_psd's symmetrized copy
        # made this 3.02 tables.
        T = 800
        G = rng.normal(size=(T, T))
        K = G @ G.T / T + np.eye(T)
        assert _traced_peak(lambda: rf.build_general(np.zeros(T), K, np.ones(T))) <= 2.05 * K.nbytes

    def test_vector_build_holds_three_tables(self, rng):
        # The mirror, its flat copy and the Cholesky factor; check_psd's copy made this 4.02 tables.
        T, n = 400, 2
        G = rng.normal(size=(T * n, T * n))
        K = G @ G.T / T + np.eye(T * n)
        blocks = np.ascontiguousarray(K.reshape(T, n, T, n).transpose(0, 2, 1, 3))
        assert _traced_peak(lambda: rf.build_vector_model(np.zeros((T, n)), blocks, np.ones((T, 1, n)))) <= (
            3.05 * K.nbytes)


def _build_correlated(K, C):
    """A vector model from flat (Tn, Tn) signal and (Tn, Tm) cross tables, n = 2, m = 1."""
    T = len(K) // 2
    return rf.build_vector_model(np.zeros((T, 2)), K.reshape(T, 2, T, 2).transpose(0, 2, 1, 3), np.ones((T, 1, 2)),
                                 C.reshape(T, 2, T, 1).transpose(0, 2, 1, 3))


def _cross_table(rng, T):
    """A random (2T, T) cross table with noise at step s correlated with the signal at steps t >= s only."""
    causal = np.arange(2 * T)[:, None] // 2 >= np.arange(T)[None, :]
    return rng.normal(size=(2 * T, T)) * 0.4 * causal


def _with_schur_floor(rng, factor, T=6, off_noise=False):
    """(K, C) with K - CC' = P, whose smallest eigenvalue is factor * PSD_TOL * tr K.

    ``off_noise`` puts that eigenvector orthogonal to the columns of C, where K has the same eigenvalue.
    """
    C = _cross_table(rng, T)
    first = np.linalg.svd(C)[0][:, -1:] if off_noise else rng.normal(size=(2 * T, 1))
    vecs = np.linalg.qr(np.hstack([first, rng.normal(size=(2 * T, 2 * T - 1))]))[0]
    lam = rng.uniform(0.5, 2.0, 2 * T)
    lam[0] = factor * rf.model.PSD_TOL * (lam[1:].sum() + np.sum(C**2)) / (1.0 - factor * rf.model.PSD_TOL)
    K = (vecs * lam) @ vecs.T + C @ C.T
    return (K + K.T) / 2.0, C


def _outcome(K, C):
    try:
        _build_correlated(K, C)
    except (NotPositiveSemidefinite, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "worst_eigenvalue", None)
    return "ok", None, None


class TestSchurCertificate:
    """One Cholesky of K - CC' keeps the verdicts and messages of the signal-table and joint checks."""

    @staticmethod
    def same_verdict(monkeypatch, K, C):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(K, C)
            with monkeypatch.context() as patch:
                patch.setattr(rf.model, "_schur_certificate", lambda model: False)
                want = _outcome(K, C)
        assert got == want
        return got

    @pytest.mark.parametrize("seed", range(5))
    def test_random_psd_joint_is_certified(self, monkeypatch, seed):
        K, C = _with_schur_floor(np.random.default_rng(seed), 0.5)
        assert self.same_verdict(monkeypatch, K, C)[0] == "ok"
        assert rf.model._schur_certificate(_build_correlated(K, C))

    def test_failure_in_the_signal_table(self, monkeypatch, rng):
        K, C = _with_schur_floor(rng, 0.5)
        lam, vecs = np.linalg.eigh(K)
        K -= (lam[0] + 0.1) * np.outer(vecs[:, 0], vecs[:, 0])  # smallest eigenvalue -0.1, diagonal still positive
        got = self.same_verdict(monkeypatch, K, C)
        assert got[1].startswith("signal covariance table is not positive semidefinite")

    def test_failure_only_in_the_schur_complement(self, monkeypatch, rng):
        T = 6
        G = rng.normal(size=(2 * T, 2 * T))
        K = G @ G.T / (2 * T) + np.eye(2 * T)
        C0 = _cross_table(rng, T)
        rho = np.linalg.norm(np.linalg.solve(np.linalg.cholesky(K), C0), 2) ** 2  # K - a^2 C0 C0' is PSD iff a^2 rho <= 1
        for a2, verdict in ((0.9, "ok"), (1.5, "joint signal/noise covariance is not positive semidefinite")):
            got = self.same_verdict(monkeypatch, K, np.sqrt(a2 / rho) * C0)
            assert (got[1] or "ok").startswith(verdict)

    @pytest.mark.parametrize("factor", [-0.3, -0.49, -0.51, -0.99, -1.01, -2.0, -1e3])
    def test_within_tolerance_of_the_floor(self, monkeypatch, rng, factor):
        K, C = _with_schur_floor(rng, factor)
        self.same_verdict(monkeypatch, K, C)
        if factor > -0.5:
            assert rf.model._schur_certificate(_build_correlated(K, C))
        # Off the noise, K itself sits at the floor: the signal-table check decides at -1.
        got = self.same_verdict(monkeypatch, *_with_schur_floor(rng, factor, off_noise=True))
        assert (got[1] or "ok").startswith("ok" if factor > -1 else "signal covariance table is not positive")

    def test_traced_peak_two_and_a_half_tables(self, rng):
        # K's flat copy, C (half a table at m = 1) and the one working buffer; then that buffer and
        # its Cholesky factor.
        K, C = _with_schur_floor(rng, 0.5, T=400)
        model = _build_correlated(K, C)
        assert rf.model._schur_certificate(model)
        tracemalloc.start()
        try:
            rf.model._schur_certificate(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * K.nbytes

    def test_schur_complement_that_overflows(self, monkeypatch):
        # Finite K and C, but CC' = 1e400 overflows: the certificate declines and the checks decide (the joint
        # check's trace-scaled shift, about 1e290, passes it).
        K, C = np.diag([1e300, 1e300]), np.diag([1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = rf.build_vector_model(np.zeros(2), K, np.ones(2), C)
            assert rf.model._schur_certificate(model) is False
            monkeypatch.setattr(rf.model, "_schur_certificate", lambda model: False)
            want = rf.build_vector_model(np.zeros(2), K, np.ones(2), C)
        assert [m.cov.tobytes() + m.cross_cov.tobytes() for m in (model, want)] == [K.tobytes() + C.tobytes()] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["K", "C"])
    def test_non_finite_entries(self, monkeypatch, rng, bad, where):
        K, C = _with_schur_floor(rng, 0.5)
        if where == "K":
            K[5, 0] = K[0, 5] = bad
        else:
            C[5, 1] = bad
        got = self.same_verdict(monkeypatch, K, C)
        table = "signal covariance table" if where == "K" else "joint signal/noise covariance"
        assert got[1] == f"{table} has entries that are not finite in double precision"


def _toeplitz_outcome(K, route=True):
    """(type, message, worst eigenvalue) of ``build_general`` on K, and whether the Levinson route certified it;
    ``route=False`` builds with the route's helper patched to decline, so the dense Cholesky decides."""
    calls = []
    helper = rf.model._levinson_certifies

    def spy(r, shift):
        calls.append(helper(r, shift) if route else False)
        return calls[-1]

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(rf.model, "_levinson_certifies", spy)
        try:
            rf.build_general(np.zeros(len(K)), K, np.ones(len(K)))
            got = ("ok", None, None)
        except NotPositiveSemidefinite as exc:
            got = (type(exc).__name__, str(exc), exc.worst_eigenvalue)
    return got, calls == [True]


def _autocovariance(kind, T):
    """First row of a stationary autocovariance table: fGn, AR(1) or MA(q)."""
    k = np.arange(T, dtype=float)
    if kind == "fgn":
        return 0.5 * ((k + 1) ** 1.5 - 2 * k**1.5 + np.abs(k - 1) ** 1.5)
    if kind == "ar1":
        return 0.95**k / (1.0 - 0.95**2)
    theta = np.array([1.0, 0.9, -0.5, 0.3])  # MA(3)
    r = np.zeros(T)
    r[:4] = [theta[: 4 - j] @ theta[j:] for j in range(4)]
    return r


def _toeplitz_at_floor(kind, T, factor):
    """The kind's Toeplitz table with r_0 lowered so that its smallest eigenvalue is factor * PSD_TOL * trace;
    ``factor=None`` leaves it as it is. Every diagonal entry is the same r_0, so the table stays exactly Toeplitz."""
    r, lag = _autocovariance(kind, T), np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
    if factor is not None:
        tol = factor * rf.model.PSD_TOL
        r[0] -= (np.linalg.eigvalsh(r[lag])[0] - tol * T * r[0]) / (1.0 - tol * T)
    return r[lag]


class TestLevinsonRoute:
    """Exactly Toeplitz scalar tables from _LEVINSON_MIN_T steps on are certified by Levinson-Durbin, or fall
    back to the dense Cholesky; either way the build's verdict, message and worst eigenvalue are the dense route's."""

    @pytest.mark.parametrize("T", [rf.model._LEVINSON_MIN_T, 400])
    @pytest.mark.parametrize("kind", ["fgn", "ar1", "ma"])
    @pytest.mark.parametrize("factor", [None, 3.0, 0.5, -0.49, -0.99, -1.01, -3.0])
    def test_same_verdict_as_the_dense_certificate(self, kind, T, factor):
        K = _toeplitz_at_floor(kind, T, factor)
        got, certified = _toeplitz_outcome(K)
        assert got == _toeplitz_outcome(K, route=False)[0]
        assert got[0] == ("ok" if factor is None or factor > -1 else "NotPositiveSemidefinite")
        if factor is None or factor >= 0.5:  # every pivot of K + sI is then at least its smallest eigenvalue, > s
            assert certified

    def test_other_tables_never_reach_the_recursion(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rf.model, "_levinson_certifies", lambda r, shift: calls.append(len(r)) or False)
        T = rf.model._LEVINSON_MIN_T
        short = _toeplitz_at_floor("fgn", T - 1, None)
        rf.build_general(np.zeros(T - 1), short, np.ones(T - 1))
        bent = _toeplitz_at_floor("fgn", T + 44, None)
        bent[-1, -1] += 1e-9  # one diagonal entry off: no longer Toeplitz
        rf.build_general(np.zeros(T + 44), bent, np.ones(T + 44))
        K = _toeplitz_at_floor("ar1", T, None)
        rf.build_vector_model(np.zeros(T), K, np.ones(T), 0.1 * np.eye(T))  # a cross table
        rf.build_vector_model(np.zeros((T, 2)), K[:, :, None, None] * np.eye(2), np.ones((T, 1, 2)))  # n = 2
        assert calls == []
        rf.build_general(np.zeros(T), K, np.ones(T))
        assert calls == [T]

    def test_build_general_holds_one_table(self):
        # The mirror and the 1/8-table boolean masks of the mirror, the finiteness and the Toeplitz tests; the dense
        # certificate's Cholesky factor made this 2.01 tables.
        T = 800
        K = _toeplitz_at_floor("fgn", T, None)
        assert _traced_peak(lambda: rf.build_general(np.zeros(T), K, np.ones(T))) <= 1.2 * K.nbytes


class TestSampling:
    def test_zero_paths(self):
        model = rf.build_ma1(0.3, 1.0, 3)
        assert rf.sample(model, 1, 0) == []

    def test_determinism(self):
        model = rf.build_ar1(0.8, 1.0, 0.0, 1.0, 4)
        a = rf.sample(model, 99, 3)
        b = rf.sample(model, 99, 3)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.X, tb.X)
            assert np.array_equal(ta.Y, tb.Y)
            assert ta.seed == 99

    def test_observation_equation(self):
        model = rf.build_ar1(0.8, 1.0, 0.5, 2.0, 4)
        paths = rf.sample(model, 5, 100)
        eps = np.stack([p.Y - 2.0 * p.X for p in paths])
        # residuals are standard normal: crude 5-sigma moment checks
        assert abs(eps.mean()) < 5 / np.sqrt(eps.size)
        assert abs(eps.var() - 1.0) < 5 * np.sqrt(2.0 / eps.size)

    def test_ar1_lag_autocorrelation(self):
        a, T, n = 0.9, 5, 10**5
        model = rf.build_ar1(a, 1.0, 0.0, 1.0, T)
        X, _ = rf.sample_paths(model, 77, n)
        X = X[:, :, 0]
        k = np.diag(model.cov2)
        t = T - 1  # 0-based: correlation of steps T and T-1
        rho = a * k[t - 1] / np.sqrt(k[t] * k[t - 1])
        emp = np.corrcoef(X[:, t], X[:, t - 1])[0, 1]
        se = (1 - rho**2) / np.sqrt(n)
        assert abs(emp - rho) < 3 * se

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: rf.build_ar1(0.7, 0.8, 0.3, 1.0, 4),
            lambda: rf.build_ma1(0.5, 1.0, 4),
            lambda: rf.build_ma1_observations(0.6, 1.1, 0.4, 3),
            lambda: rf.build_ar1_noise(0.7, 0.4, 1.0, 0.4, 3),
        ],
    )
    def test_realized_covariance_matches(self, maker):
        model = maker()
        n = 10**5
        X, _ = rf.sample_paths(model, 31, n)
        Xc = X - model.mean[None]
        emp = np.einsum("pti,psj->tsij", Xc, Xc) / n
        K = model.cov
        dK = np.array([np.diag(K[t, t]) for t in range(model.horizon)])
        for t in range(model.horizon):
            for s in range(model.horizon):
                se = np.sqrt((np.outer(dK[t], dK[s]) + K[t, s] ** 2) / n)
                # the additive floor absorbs factorization jitter on
                # exactly-degenerate coordinates
                assert np.all(np.abs(emp[t, s] - K[t, s]) <= 4 * se + 1e-5)


class TestConfig:
    def test_model_from_config_kinds(self):
        cfg = {"kind": "ar1", "a": 0.5, "D": 1.0, "x0": 0.0, "A": 1.0, "T": 3}
        model = rf.model_from_config(cfg)
        assert model.horizon == 3
        cfg2 = {"kind": "ma1", "lambda": 0.3, "A": 1.0, "T": 2}
        assert rf.model_from_config(cfg2).horizon == 2

    def test_unknown_kind(self):
        with pytest.raises(rf.ConfigError):
            rf.model_from_config({"kind": "arma"})

    def test_missing_parameter_names_field(self):
        with pytest.raises(rf.ConfigError) as exc:
            rf.model_from_config({"kind": "ar1", "a": 0.5})
        assert exc.value.field is not None

    def test_large_seed(self):
        model = rf.build_ma1(0.2, 1.0, 2)
        paths = rf.sample(model, 2**63 + 11, 2)
        assert len(paths) == 2

    def test_risk_from_config_scalar_broadcast(self):
        risk = rf.risk_from_config({"mu": -1.0, "Q": 2.0}, horizon=3)
        assert_allclose(risk.Q, [2.0, 2.0, 2.0])


def test_unfactorizable_covariance_raises():
    # construct a corrupt model directly, bypassing builder validation
    T = 2
    cov = np.full((T, T, 1, 1), np.nan)
    model = rf.GaussianModel(
        mean=np.zeros((T, 1)), cov=cov, gains=np.ones((T, 1, 1))
    )
    with pytest.raises(rf.FactorizationFailure):
        rf.sample(model, 1, 1)
