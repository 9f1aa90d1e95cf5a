import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsfilt as rf
from rsfilt.errors import InfeasibleCondition, SingularInnovationMatrix
from rsfilt.volterra import CLAUSE_DENOM, CLAUSE_DIAG

from conftest import fgn_kernel, random_scalar_model


def oracle_prediction_table(model, risk, h=None):
    """gbar(t, s) = Cov(X_t, X_s | augmented history to s-1) by conditioning.

    With Q = 0 this is plain conditioning on past observations; the h values
    only shift means and never enter covariances, so zeros are used.
    """
    T = model.horizon
    joint = rf.assemble_joint(model)
    Qp = -risk.mu * risk.Q
    if np.any(Qp != 0):
        joint = rf.oracle.augment_with_aux(joint, Qp, np.zeros(T))
    out = np.zeros((T, T))
    for s in range(1, T + 1):
        idx = [joint.index(("y", r, 0)) for r in range(1, s)]
        if np.any(Qp != 0):
            idx += [joint.index(("aux", r, 0)) for r in range(1, s)]
        cond = rf.condition(joint, idx, np.zeros(len(idx)))
        for t in range(s, T + 1):
            out[t - 1, s - 1] = cond.cov[cond.index(("x", t, 0)), cond.index(("x", s, 0))]
    return out


def dense_verdict(model, risk):
    """(feasible, first_violation, clause) and the gbar table from the dense
    (X, Y, aux) joint of a model with independent observation noise.

    aux_t = Qp_t X_t + N(0, Qp_t) with Qp = -mu Q, a negative "variance" for
    mu > 0, so the joint is indefinite and is conditioned by raw Schur
    complements (``rf.condition`` drops observations of negative variance).
    By inertia additivity the steps through s are feasible exactly when the
    observation block of steps 1..s has as many negative eigenvalues as the
    Qp_t blocks of those steps. Columns after the first violation stay zero.
    """
    T, n, m = model.horizon, model.n, model.m
    K = model.flat_cov()
    Qp = -risk.mu * risk.q_blocks(n)

    def blocks(B):  # block diagonal of the (T, p, q) stack B
        return (np.eye(T)[:, None, :, None] * B[:, :, None, :]).reshape(T * B.shape[1], T * B.shape[2])

    O = np.vstack([blocks(model.gains), blocks(Qp)])  # rows: Y_1..Y_T, then aux_1..aux_T
    noise = np.zeros((T * (m + n),) * 2)
    noise[: T * m, : T * m] = np.eye(T * m)
    noise[T * m :, T * m :] = blocks(Qp)
    cov_xo, cov_oo = K @ O.T, O @ K @ O.T + noise
    obs, negative, table = [], 0, np.zeros((T, T, n, n))
    for s in range(T):
        x = slice(s * n, (s + 1) * n)
        col = K[:, x] - cov_xo[:, obs] @ np.linalg.solve(cov_oo[np.ix_(obs, obs)], cov_xo[x, obs].T)
        table[s:, s] = col[s * n :].reshape(T - s, n, n)
        if np.linalg.eigvalsh(table[s, s])[0] < -1e-12 * max(np.trace(table[s, s]), 1.0):
            return (False, s + 1, CLAUSE_DIAG), table
        obs += [*range(s * m, (s + 1) * m), *range(T * m + s * n, T * m + (s + 1) * n)]
        negative += np.count_nonzero(np.linalg.eigvalsh(Qp[s]) < 0)
        if np.count_nonzero(np.linalg.eigvalsh(cov_oo[np.ix_(obs, obs)]) < 0) != negative:
            return (False, s + 1, CLAUSE_DENOM), table
    return (True, None, None), table


class TestScalarSolver:
    def test_base_case(self, rng):
        model = random_scalar_model(rng, 3)
        sol = rf.solve_volterra(model, rf.RiskSpec(mu=-1.0, Q=np.ones(3)))
        assert sol.gamma_bar[0, 0] == model.cov2[0, 0]

    def test_mu_zero_is_prediction_error_table(self, rng):
        model = random_scalar_model(rng, 4)
        risk0 = rf.RiskSpec(mu=0.0, Q=np.zeros(4))
        sol = rf.solve_volterra(model, risk0)
        table = oracle_prediction_table(model, risk0)
        assert_allclose(np.tril(sol.gamma_bar), table, atol=1e-10)

    def test_negative_mu_matches_augmented_oracle(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.2, 4))
        sol = rf.solve_volterra(model, risk)
        table = oracle_prediction_table(model, risk)
        assert_allclose(np.tril(sol.gamma_bar), table, atol=1e-8)

    def test_ar1_table_structure(self):
        a, T = 0.7, 5
        model = rf.build_ar1(a, 1.0, 0.0, 1.3, T)
        risk = rf.RiskSpec(mu=-0.8, Q=np.ones(T))
        sol = rf.solve_volterra(model, risk)
        diag = sol.diag
        for t in range(T):
            for s in range(t):
                assert_allclose(sol.gamma_bar[t, s], a ** (t - s) * diag[s], atol=1e-12)

    def test_determinism(self, rng):
        model = random_scalar_model(rng, 5)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(5))
        a = rf.solve_volterra(model, risk)
        b = rf.solve_volterra(model, risk)
        assert np.array_equal(a.gamma_bar, b.gamma_bar)

    def test_monotonicity_in_mu(self):
        T = 5
        model = rf.build_ar1(0.9, 1.0, 0.0, 1.0, T)
        mus = [-3.0, -2.0, -1.0, -0.5, 0.0]
        diags = [
            rf.solve_volterra(model, rf.RiskSpec(mu=mu, Q=np.ones(T))).diag for mu in mus
        ]
        for lo, hi in zip(diags, diags[1:]):
            assert np.all(lo <= hi + 1e-12)

    def test_mu_negative_always_feasible(self, rng):
        for _ in range(10):
            model = random_scalar_model(rng, 4)
            risk = rf.RiskSpec(mu=-float(rng.uniform(0.1, 5.0)), Q=rng.uniform(0, 2, 4))
            assert rf.solve_volterra(model, risk).feasible

    def test_infeasible_large_positive_mu(self):
        T = 4
        model = rf.build_ar1(1.0, 1.0, 0.0, 1.0, T)
        sol = rf.solve_volterra(model, rf.RiskSpec(mu=10.0, Q=np.ones(T)))
        assert not sol.feasible
        assert sol.first_violation == 1
        assert "1 + S_t" in sol.violated_clause
        with pytest.raises(InfeasibleCondition) as exc:
            sol.require_feasible()
        assert exc.value.first_violation == 1
        # no NaN anywhere in the partial table
        assert not np.any(np.isnan(sol.gamma_bar))

    def test_sufficient_condition_predicate(self):
        T = 3
        model = rf.build_ar1(0.5, 1.0, 0.0, 1.0, T)
        assert rf.sufficient_condition_positive_mu(model, rf.RiskSpec(mu=0.5, Q=np.ones(T)))
        assert not rf.sufficient_condition_positive_mu(model, rf.RiskSpec(mu=2.0, Q=np.ones(T)))

    def test_json_round_trip(self, rng):
        model = random_scalar_model(rng, 3)
        sol = rf.solve_volterra(model, rf.RiskSpec(mu=-1.0, Q=np.ones(3)))
        doc = json.loads(json.dumps(sol.to_dict()))
        assert_allclose(np.array(doc["gamma_bar"]), sol.gamma_bar)
        assert doc["feasible"] is True


def ldl_pivots(M):
    """Pivots d of the unpivoted factorization M = L diag(d) L'; M may be indefinite."""
    A = np.array(M, dtype=float)
    d = np.empty(len(A))
    for k in range(len(A)):
        d[k] = A[k, k]
        A[k + 1 :, k + 1 :] -= np.outer(A[k + 1 :, k], A[k, k + 1 :]) / d[k]
    return d


class TestLongHorizonScalar:
    """The scalar table is the Schur-complement table of K + diag(1/S), so
    gbar_t = d_t - 1/S_t with d the LDL' pivots; S_t < 0 is allowed."""

    T = 300

    def _solve(self, mu):
        rng = np.random.default_rng(300)
        K = fgn_kernel(self.T, 0.8)
        A = rng.uniform(0.5, 1.5, self.T)
        Q = rng.uniform(0.5, 1.5, self.T)
        S = A**2 - mu * Q
        model = rf.build_general(rng.normal(size=self.T), np.tril(K), A)
        return rf.solve_volterra(model, rf.RiskSpec(mu=mu, Q=Q)), S, ldl_pivots(K + np.diag(1.0 / S)) - 1.0 / S

    @pytest.mark.parametrize("mu", [-1.0, 0.5])
    def test_diag_matches_ldl_pivots(self, mu):
        sol, S, g = self._solve(mu)
        assert sol.feasible
        if mu > 0:
            assert np.any(S < 0)
        assert_allclose(sol.diag, g, rtol=1e-10, atol=1e-10)

    def test_first_violation_matches_ldl_pivots(self):
        sol, S, g = self._solve(0.8)
        step = next(s for s in range(self.T) if g[s] < -1e-12 or 1.0 + S[s] * g[s] <= 1e-12)
        clause = CLAUSE_DIAG if g[step] < -1e-12 else CLAUSE_DENOM
        assert step > 0
        assert (sol.first_violation, sol.violated_clause) == (step + 1, clause)
        assert_allclose(sol.diag[: step + 1], g[: step + 1], rtol=1e-10, atol=1e-10)
        assert not np.any(sol.gamma_bar[:, step + 1 :])


class TestMatrixSolver:
    def test_scalar_reduction(self, rng):
        for _ in range(5):
            model = random_scalar_model(rng, 4)
            vec = rf.build_vector_model(model.mean1, np.tril(model.cov2), model.gains1)
            risk = rf.RiskSpec(mu=float(rng.uniform(-2, 0.05)), Q=rng.uniform(0, 1.5, 4))
            s_sc = rf.solve_volterra(model, risk)
            s_mx = rf.solve_volterra_matrix(vec, risk)
            assert s_sc.feasible == s_mx.feasible
            if s_sc.feasible:
                err = np.abs(s_mx.gamma_bar[:, :, 0, 0] - s_sc.gamma_bar)
                assert np.max(err) <= 1e-14 * max(1.0, np.max(np.abs(s_sc.gamma_bar)))

    def test_block_diagonal_two_signals(self, rng):
        T = 3
        m1 = random_scalar_model(rng, T)
        m2 = random_scalar_model(rng, T)
        K = np.zeros((T, T, 2, 2))
        K[:, :, 0, 0] = np.tril(m1.cov2)
        K[:, :, 1, 1] = np.tril(m2.cov2)
        A = np.zeros((T, 2, 2))
        A[:, 0, 0] = m1.gains1
        A[:, 1, 1] = m2.gains1
        mm = np.stack([m1.mean1, m2.mean1], axis=1)
        vec = rf.build_vector_model(mm, K, A)
        Q = np.zeros((T, 2, 2))
        q1, q2 = rng.uniform(0.2, 1.0, T), rng.uniform(0.2, 1.0, T)
        Q[:, 0, 0], Q[:, 1, 1] = q1, q2
        risk = rf.RiskSpec(mu=-1.0, Q=Q)
        sol = rf.solve_volterra_matrix(vec, risk)
        sol1 = rf.solve_volterra(m1, rf.RiskSpec(mu=-1.0, Q=q1))
        sol2 = rf.solve_volterra(m2, rf.RiskSpec(mu=-1.0, Q=q2))
        assert_allclose(sol.gamma_bar[:, :, 0, 0], sol1.gamma_bar, atol=1e-13)
        assert_allclose(sol.gamma_bar[:, :, 1, 1], sol2.gamma_bar, atol=1e-13)
        assert_allclose(sol.gamma_bar[:, :, 0, 1], 0.0, atol=1e-13)

    def test_rejects_correlated_model(self):
        model = rf.build_ma1_observations(0.5, 1.0, 0.3, 3)
        with pytest.raises(SingularInnovationMatrix):
            rf.solve_volterra_matrix(model, rf.RiskSpec(mu=-1.0, Q=np.ones(3)))


class TestVectorSolversLongHorizon:
    """n = 1 vector models: the block solve (no cross-covariance) and the
    correlated solve (all-zero cross-covariance) reproduce the scalar table."""

    T = 60

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 0.5, 0.8, 2.0])
    @pytest.mark.parametrize("solver", ["matrix", "correlated"])
    def test_matches_scalar_solve(self, mu, solver):
        T = self.T
        rng = np.random.default_rng(60)
        K = np.tril(fgn_kernel(T, 0.8))
        m, A, Q = rng.normal(size=T), rng.uniform(0.5, 1.5, T), rng.uniform(0.5, 1.5, T)
        risk = rf.RiskSpec(mu=mu, Q=Q)
        ref = rf.solve_volterra(rf.build_general(m, K, A), risk)
        assert ref.feasible == (mu <= 0.5)  # the grid reaches both outcomes
        if solver == "matrix":
            sol = rf.solve_volterra_matrix(rf.build_vector_model(m, K, A), risk)
        else:
            sol = rf.solve_volterra_correlated(rf.build_vector_model(m, K, A, np.zeros((T, T))), risk)
        assert (sol.first_violation, sol.violated_clause) == (ref.first_violation, ref.violated_clause)
        assert np.max(np.abs(sol.gamma_bar[:, :, 0, 0] - ref.gamma_bar)) <= 1e-12 * np.max(np.abs(ref.gamma_bar))
        assert not np.any(sol.gamma_bar[np.triu_indices(T, 1)])
        if not sol.feasible:
            assert not np.any(sol.gamma_bar[:, sol.first_violation :])


def first_component_weights(T, q=1.0, n=2):
    Q = np.zeros((T, n, n))
    Q[:, 0, 0] = q
    return Q


class TestCorrelatedSolver:
    def test_zero_cross_reduction(self, rng):
        T = 3
        model = random_scalar_model(rng, T)
        vec0 = rf.build_vector_model(
            model.mean1, np.tril(model.cov2), model.gains1, np.zeros((T, T))
        )
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.2, 1.0, T))
        s_cr = rf.solve_volterra_correlated(vec0, risk)
        s_sc = rf.solve_volterra(model, risk)
        err = np.abs(s_cr.gamma_bar[:, :, 0, 0] - s_sc.gamma_bar)
        assert np.max(err) <= 1e-14 * max(1.0, float(np.max(np.abs(s_sc.gamma_bar))))

    def test_positive_mu_scalar_reduction(self, rng):
        T = 3
        model = random_scalar_model(rng, T)
        vec0 = rf.build_vector_model(
            model.mean1, np.tril(model.cov2), model.gains1, np.zeros((T, T))
        )
        risk = rf.RiskSpec(mu=0.05, Q=rng.uniform(0.2, 0.6, T))
        s_sc = rf.solve_volterra(model, risk)
        s_cr = rf.solve_volterra_correlated(vec0, risk)
        assert s_sc.feasible == s_cr.feasible
        if s_sc.feasible:
            assert_allclose(s_cr.gamma_bar[:, :, 0, 0], s_sc.gamma_bar, atol=1e-13)

    def test_ma1_observation_structure(self):
        lam, T = 0.6, 5
        model = rf.build_ma1_observations(lam, 1.1, 0.5, T)
        risk = rf.RiskSpec(mu=-1.0, Q=first_component_weights(T))
        sol = rf.solve_volterra_correlated(model, risk)
        assert sol.feasible
        for t in range(T):
            for s in range(t - 1):
                assert_allclose(sol.gamma_bar[t, s], 0.0, atol=1e-13)
            if t >= 1:
                assert_allclose(
                    sol.gamma_bar[t, t - 1], [[lam, 0.0], [0.0, 0.0]], atol=1e-13
                )

    def test_matches_augmented_conditioning(self):
        # gbar(t,s) equals the conditional covariance given the augmented
        # history, computed by direct Schur complements on the joint law.
        T, q = 3, 0.9
        model = rf.build_ar1_noise(0.7, 0.4, 1.0, 0.4, T)
        risk = rf.RiskSpec(mu=-1.0, Q=first_component_weights(T, q))
        sol = rf.solve_volterra_correlated(model, risk)

        joint = rf.assemble_joint(model)
        N = joint.dim
        xi = lambda t, i: joint.index(("x", t, i))
        yi = lambda t: joint.index(("y", t, 0))
        cov = np.zeros((N + T, N + T))
        cov[:N, :N] = joint.cov
        for t in range(1, T + 1):
            cov[:N, N + t - 1] = q * joint.cov[:, xi(t, 0)]
            cov[N + t - 1, :N] = cov[:N, N + t - 1]
        for t in range(1, T + 1):
            for s in range(1, T + 1):
                cov[N + t - 1, N + s - 1] = q * q * joint.cov[xi(t, 0), xi(s, 0)] + (
                    q if t == s else 0.0
                )
        for s in range(1, T + 1):
            obs = [yi(r) for r in range(1, s)] + [N + r - 1 for r in range(1, s)]
            rest = [i for i in range(N + T) if i not in obs]
            if obs:
                So = cov[np.ix_(obs, obs)]
                Sro = cov[np.ix_(rest, obs)]
                sub = cov[np.ix_(rest, rest)] - Sro @ np.linalg.solve(So, Sro.T)
            else:
                sub = cov
            pos = {i: a for a, i in enumerate(rest)}
            for t in range(s, T + 1):
                blk = np.array(
                    [[sub[pos[xi(t, i)], pos[xi(s, j)]] for j in range(2)] for i in range(2)]
                )
                assert_allclose(sol.gamma_bar[t - 1, s - 1], blk, atol=1e-10)

    @pytest.mark.parametrize("builder", ["ar1_noise", "ma1_observations"])
    def test_presets_match_conditioning_long_horizon(self, builder):
        T, mu = 40, -0.5
        rng = np.random.default_rng(40)
        if builder == "ar1_noise":
            model = rf.build_ar1_noise(rng.uniform(0.5, 0.95, T), 0.6, rng.uniform(0.5, 1.5, T), -0.4, T)
        else:
            model = rf.build_ma1_observations(0.7, rng.uniform(0.5, 1.5, T), 0.5, T)
        q = rng.uniform(0.5, 1.5, T)
        sol = rf.solve_volterra_correlated(model, rf.RiskSpec(mu=mu, Q=q[:, None, None] * np.diag([1.0, 0.0])))
        assert sol.feasible
        # aux rows of the second component have zero weight; condition() drops them
        Qp = np.stack([-mu * q, np.zeros(T)], axis=1).reshape(-1)
        joint = rf.oracle.augment_with_aux(rf.assemble_joint(model), Qp, np.zeros(2 * T))
        for t in (1, 2, 20, 40):
            obs = [joint.index(("y", s, 0)) for s in range(1, t)]
            obs += [joint.index(("aux", 2 * (s - 1) + i + 1, 0)) for s in range(1, t) for i in range(2)]
            cond = rf.condition(joint, obs, np.zeros(len(obs)))
            idx = [cond.index(("x", t, i)) for i in range(2)]
            assert_allclose(sol.gamma_bar[t - 1, t - 1], cond.cov[np.ix_(idx, idx)], rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 0.3])
    @pytest.mark.parametrize("step", [1, 2, 5])
    def test_singular_innovation_reported_at_its_step(self, step, mu):
        # Y_t = X_t + eps_t with Cov(X_t, eps_t) = -Var X_t = -1: a noiseless zero at that step
        T = 6
        C = np.zeros((T, T))
        C[step - 1, step - 1] = -1.0
        model = rf.build_vector_model(np.zeros(T), np.eye(T), np.ones(T), C)
        with pytest.raises(SingularInnovationMatrix) as info:
            rf.solve_volterra_correlated(model, rf.RiskSpec(mu=mu, Q=np.ones(T)))
        assert info.value.step == step

    @pytest.mark.parametrize("seed", range(6))
    def test_positive_mu_verdict_matches_matrix_solve(self, seed):
        # Two signal components with fGn and geometric kernels. For mu > 0
        # two eigenvalues of I + S_t gbar_t can turn negative at one step,
        # which leaves the sign of det V_s unchanged; the verdict must still
        # be the dense joint's.
        T = 20
        rng = np.random.default_rng(seed)
        c = rng.normal(size=2)
        lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        K = (fgn_kernel(T, rng.uniform(0.6, 0.9))[:, :, None, None] * (np.outer(c, c) + 0.1 * np.eye(2))
             + (rng.uniform(0.3, 0.9) ** lag)[:, :, None, None] * np.diag(rng.uniform(0.2, 1.0, 2)))
        model = rf.build_vector_model(rng.normal(size=(T, 2)) * 0.3, K, rng.uniform(0.5, 1.5, (T, 1, 2)))
        q = rng.uniform(0.5, 1.5, T)
        for mu in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            risk = rf.RiskSpec(mu=mu, Q=q[:, None, None] * np.eye(2))
            want, table = dense_verdict(model, risk)
            got = rf.solve_volterra_matrix(model, risk)
            assert (got.feasible, got.first_violation, got.violated_clause) == want, mu
            assert_allclose(got.gamma_bar, table, rtol=1e-9, atol=1e-9)

    def test_scalar_correlated_toy_matches_oracle(self):
        T = 2
        K = np.tril(np.array([[1.3, 0.0], [0.6, 1.1]]))
        C = np.array([[0.4, 0.0], [0.3, -0.2]])
        model = rf.build_vector_model([0.2, -0.1], K, [1.0, 0.8], C)
        risk = rf.RiskSpec(mu=-1.0, Q=np.array([0.9, 1.4]))
        sol = rf.solve_volterra_correlated(model, risk)
        joint = rf.assemble_joint(model)
        aug = rf.oracle.augment_with_aux(joint, -risk.mu * risk.Q, np.zeros(T))
        for t in range(1, T + 1):
            idx = [aug.index(("y", s, 0)) for s in range(1, t)]
            idx += [aug.index(("aux", s, 0)) for s in range(1, t)]
            cond = rf.condition(aug, idx, np.zeros(len(idx)))
            i = cond.index(("x", t, 0))
            assert_allclose(sol.gamma_bar[t - 1, t - 1, 0, 0], cond.cov[i, i], atol=1e-10)


class TestAr1Riccati:
    def test_base_case(self):
        assert_allclose(rf.ar1_riccati(0.7, 1.3, 1.0, 1.0, -1.0, 1), [1.3])

    def test_matches_general_solver(self, rng):
        T = 5
        a = rng.uniform(-1, 1, T)
        D = rng.uniform(0.2, 1.5, T)
        A = rng.uniform(-2, 2, T)
        Q = rng.uniform(0, 1.5, T)
        mu = -0.7
        model = rf.build_ar1(a, D, 0.4, A, T)
        sol = rf.solve_volterra(model, rf.RiskSpec(mu=mu, Q=Q))
        g = rf.ar1_riccati(a, D, A, Q, mu, T)
        assert_allclose(g, sol.diag, atol=1e-12)

    def test_fixed_point_monotone(self):
        # constant map g -> 1 + g/(1+2g) climbs monotonically to (1+sqrt(3))/2
        T = 40
        g = rf.ar1_riccati(1.0, 1.0, 1.0, 1.0, -1.0, T)
        target = (1.0 + np.sqrt(3.0)) / 2.0
        assert np.all(np.diff(g) >= -1e-15)
        assert abs(g[-1] - target) < 1e-12

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleCondition):
            rf.ar1_riccati(1.0, 1.0, 1.0, 1.0, 10.0, 4)


class TestMa1Gamma:
    def test_lambda_zero(self):
        assert_allclose(rf.ma1_gamma(0.0, 1.0, 1.0, -1.0, 4), np.ones(4))

    def test_matches_general_solver(self, rng):
        T = 5
        lam = 0.8
        A = rng.uniform(-1.5, 1.5, T)
        Q = rng.uniform(0, 1.2, T)
        mu = -1.3
        model = rf.build_ma1(lam, A, T)
        sol = rf.solve_volterra(model, rf.RiskSpec(mu=mu, Q=Q))
        g = rf.ma1_gamma(lam, A, Q, mu, T)
        assert_allclose(g, sol.diag, atol=1e-12)

    def test_hand_iteration(self):
        # mu=0, lam=1, A=1: g1 = 2, g2 = 2 - 1/(1+2) = 5/3
        g = rf.ma1_gamma(1.0, 1.0, 1.0, 0.0, 2)
        assert_allclose(g, [2.0, 5.0 / 3.0], atol=1e-15)


class TestGoldenFiles:
    """Frozen solver outputs guarding against silent numeric regressions."""

    def test_scalar_ar1_golden(self):
        import json
        from pathlib import Path

        doc = json.loads((Path(__file__).parent / "data" / "golden_ar1_t5.json").read_text())
        model = rf.build_ar1(0.9, 1.2, 0.3, 1.1, 5)
        risk = rf.RiskSpec(mu=-1.0, Q=np.full(5, 0.8))
        sol = rf.solve_volterra(model, risk)
        assert_allclose(sol.gamma_bar, np.array(doc["gamma_bar"]), rtol=1e-15, atol=1e-15)
        Y = np.array(doc["filter"]["Y"])
        run = rf.leg_filter(model, risk, Y, solution=sol)
        assert_allclose(run.h_bar, np.array(doc["filter"]["h_bar"]), rtol=1e-15, atol=1e-15)
        assert_allclose(run.risk, doc["filter"]["risk"], rtol=1e-15)

    def test_correlated_preset_golden(self):
        import json
        from pathlib import Path

        doc = json.loads((Path(__file__).parent / "data" / "golden_ma1_obs_t4.json").read_text())
        model = rf.build_ma1_observations(0.6, 1.1, 0.5, 4)
        Qb = np.zeros((4, 2, 2))
        Qb[:, 0, 0] = 1.0
        sol = rf.solve_volterra_correlated(model, rf.RiskSpec(mu=-1.0, Q=Qb))
        assert_allclose(sol.gamma_bar, np.array(doc["gamma_bar"]), rtol=1e-15, atol=1e-15)


def test_ma1_squared_factor_is_the_consistent_reading():
    # the single-power variant of the moving-average diagonal recursion is
    # inconsistent with the two-index recursion whenever lam^2 != lam
    T, lam, mu = 4, 0.8, -1.0
    A = np.full(T, 1.1)
    Q = np.full(T, 0.9)
    S = A**2 - mu * Q
    single = np.zeros(T)
    single[0] = 1 + lam**2
    for t in range(1, T):
        single[t] = 1 + lam**2 - lam * S[t - 1] / (1 + S[t - 1] * single[t - 1])
    model = rf.build_ma1(lam, A, T)
    general = rf.solve_volterra(model, rf.RiskSpec(mu=mu, Q=Q)).diag
    squared = rf.ma1_gamma(lam, A, Q, mu, T)
    assert_allclose(squared, general, atol=1e-13)
    assert np.max(np.abs(single - general)) > 1e-2
