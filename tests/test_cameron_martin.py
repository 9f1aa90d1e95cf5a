import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsfilt as rf
from rsfilt.errors import DimensionMismatch, DomainError, InconsistentRecursion
from rsfilt.filtering import _centering

from conftest import random_causal_h, random_scalar_model


class TestCmDecompose:
    def test_zero_weights_trivial(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=np.zeros(4))
        Y = rng.normal(size=4)
        dec = rf.cm_decompose(model, risk, Y, random_causal_h(rng, Y))
        assert_allclose(dec.I, 1.0, atol=1e-12)
        assert_allclose(dec.M, 1.0, atol=1e-12)
        assert_allclose(dec.step_exponent, 0.0, atol=1e-14)

    def test_oracle_equivalence(self, rng):
        for _ in range(8):
            T = int(rng.integers(1, 5))
            model = random_scalar_model(rng, T)
            mu = float(rng.choice([-2.0, -1.0, -0.25]))
            risk = rf.RiskSpec(mu=mu, Q=rng.uniform(0.2, 1.4, T))
            Y = rng.normal(size=T)
            h = random_causal_h(rng, Y)
            dec = rf.cm_decompose(model, risk, Y, h)
            exact = rf.conditional_exp_quadratic(rf.assemble_joint(model), Y, risk, h)
            assert abs(dec.I[-1] - exact) <= 1e-8 * max(1.0, exact)

    def test_no_observations_reduces_to_plain_transform(self, rng):
        # all gains zero and h = 0: the conditional transform is the
        # unconditional Gaussian integral of the squared-signal exponential
        T = 3
        K = np.tril(rng.normal(size=(T, T)))
        K = np.tril(K @ K.T + 0.5 * np.eye(T))
        model = rf.build_general(rng.normal(size=T), K, np.zeros(T))
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.2, T))
        Y = rng.normal(size=T)
        dec = rf.cm_decompose(model, risk, Y, np.zeros(T))
        expect = rf.expected_exp_quadratic(
            model.mean1, model.cov2, np.diag(-risk.mu * risk.Q)
        )
        assert_allclose(dec.I[-1], expect, rtol=1e-10)
        assert_allclose(dec.M, 1.0, atol=1e-12)

    def test_positive_mu(self, rng):
        T = 3
        model = random_scalar_model(rng, T)
        risk = rf.RiskSpec(mu=0.08, Q=rng.uniform(0.1, 0.5, T))
        sol = rf.solve_volterra(model, risk)
        if not sol.feasible:
            pytest.skip("random instance infeasible")
        Y = rng.normal(size=T)
        h = random_causal_h(rng, Y)
        dec = rf.cm_decompose(model, risk, Y, h, solution=sol)
        exact = rf.conditional_exp_quadratic(rf.assemble_joint(model), Y, risk, h)
        assert abs(dec.I[-1] - exact) <= 1e-9 * max(1.0, exact)

    def test_transform_bounded_for_negative_mu(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.5, Q=rng.uniform(0.2, 1.0, 4))
        Y = rng.normal(size=4)
        dec = rf.cm_decompose(model, risk, Y, random_causal_h(rng, Y))
        assert np.all(dec.I > 0)
        assert np.all(dec.I <= 1.0 + 1e-12)
        assert np.all(dec.M > 0)

    def test_martingale_steps_telescope(self, rng):
        model = random_scalar_model(rng, 5)
        risk = rf.RiskSpec(mu=-0.7, Q=rng.uniform(0.2, 1.0, 5))
        Y = rng.normal(size=5)
        dec = rf.cm_decompose(model, risk, Y, random_causal_h(rng, Y))
        ratios = np.exp(dec.step_log_M)
        assert_allclose(np.cumprod(ratios), dec.M, rtol=1e-12)

    def test_optimal_estimates_kill_exponents(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.0, 4))
        Y = rng.normal(size=4)
        hbar = rf.leg_filter(model, risk, Y).h_bar
        dec = rf.cm_decompose(model, risk, Y, hbar)
        assert_allclose(dec.step_exponent, 0.0, atol=1e-14)


class TestMartingaleExpectation:
    def test_zero_weights_exact(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.zeros(3))
        est, se = rf.martingale_expectation_check(model, risk, 500, seed=3)
        assert est == 1.0
        assert se == 0.0

    def test_monte_carlo_t4(self):
        model = rf.build_ar1(0.85, 1.0, 0.0, 1.0, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(4))
        est, se = rf.martingale_expectation_check(model, risk, 10**5, seed=42)
        assert abs(est - 1.0) <= 4 * se

    def test_exact_t2(self, rng):
        model = random_scalar_model(rng, 2)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.4, 1.2, 2))
        filt = rf.AffineFilter(
            intercept=rng.normal(size=2) * 0.3,
            gains=np.tril(rng.normal(size=(2, 2)) * 0.4),
        )
        val = rf.exact_martingale_expectation(model, risk, filt)
        assert abs(val - 1.0) < 1e-9


class TestInfoState:
    def test_first_step_center_and_weight(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.0, 3))
        Y = rng.normal(size=3)
        h = random_causal_h(rng, Y)
        sol = rf.solve_volterra(model, risk)
        state = rf.info_state(model, risk, Y, h, 1)
        A1, m1, g1 = model.gains1[0], model.mean1[0], sol.diag[0]
        assert_allclose(state.center, (m1 + A1 * g1 * Y[0]) / (1 + A1**2 * g1), atol=1e-12)
        dec = rf.cm_decompose(model, risk, Y, h)
        assert_allclose(state.weight, dec.M[0], rtol=1e-12)

    def test_density_integrates_to_truncated_transform(self, rng):
        T = 3
        model = random_scalar_model(rng, T)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.2, T))
        Y = rng.normal(size=T)
        h = random_causal_h(rng, Y)
        for t in range(1, T + 1):
            state = rf.info_state(model, risk, Y, h, t)
            sd = np.sqrt(state.variance)
            xs = np.linspace(state.center - 6 * sd, state.center + 6 * sd, 10001)
            vals = state.density(xs)
            integral = float(np.trapezoid(vals, xs))
            Qtr = np.where(np.arange(T) < t - 1, risk.Q, 0.0)
            dec = rf.cm_decompose(model, rf.RiskSpec(mu=risk.mu, Q=Qtr), Y, h)
            assert abs(integral - dec.I[t - 1]) < 1e-6 * max(1.0, dec.I[t - 1])

    def test_first_moment_is_center(self, rng):
        model = random_scalar_model(rng, 2)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(2))
        Y = rng.normal(size=2)
        state = rf.info_state(model, risk, Y, np.zeros(2), 2)
        sd = np.sqrt(state.variance)
        xs = np.linspace(state.center - 8 * sd, state.center + 8 * sd, 20001)
        vals = state.density(xs)
        mean = np.trapezoid(xs * vals, xs) / np.trapezoid(vals, xs)
        assert_allclose(mean, state.center, atol=1e-9)


class TestCmGeneral:
    def test_agrees_with_structural(self, rng):
        for _ in range(4):
            T = int(rng.integers(1, 4))
            model = random_scalar_model(rng, T)
            risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.3, T))
            Y = rng.normal(size=T)
            h = random_causal_h(rng, Y)
            gen = rf.cm_general(model, risk, Y, h)
            dec = rf.cm_decompose(model, risk, Y, h)
            assert abs(gen.I[-1] - dec.I[-1]) <= 1e-9 * max(1.0, dec.I[-1])

    def test_independent_pair_gives_unit_martingale(self, rng):
        T = 2
        KX = np.array([[1.2, 0.3], [0.3, 0.9]])
        KY = np.array([[1.5, 0.2], [0.2, 1.1]])
        cov = np.zeros((4, 4))
        cov[:2, :2] = KX
        cov[2:, 2:] = KY
        labels = {("x", 1, 0): 0, ("x", 2, 0): 1, ("y", 1, 0): 2, ("y", 2, 0): 3}
        joint = rf.JointGaussian(mean=np.zeros(4), cov=cov, labels=labels)
        risk = rf.RiskSpec(mu=-1.0, Q=np.array([0.8, 1.1]))
        Y = rng.normal(size=2)
        gen = rf.cm_general(joint, risk, Y, np.zeros(2))
        assert_allclose(gen.M, 1.0, atol=1e-10)
        expect = rf.expected_exp_quadratic(np.zeros(2), KX, np.diag(risk.Q))
        assert_allclose(gen.I[-1], expect, rtol=1e-9)

    def test_non_structural_observations(self, rng):
        # Y_t mixes several signal steps plus noise: no per-step gain exists
        T = 2
        KX = np.array([[1.0, 0.4], [0.4, 1.3]])
        B = np.array([[0.7, 0.5], [0.3, -0.6]])  # Y = B X + noise
        cov = np.zeros((4, 4))
        cov[:2, :2] = KX
        cov[:2, 2:] = KX @ B.T
        cov[2:, :2] = B @ KX
        cov[2:, 2:] = B @ KX @ B.T + np.eye(2)
        labels = {("x", 1, 0): 0, ("x", 2, 0): 1, ("y", 1, 0): 2, ("y", 2, 0): 3}
        joint = rf.JointGaussian(mean=np.zeros(4), cov=cov, labels=labels)
        risk = rf.RiskSpec(mu=-1.0, Q=np.array([0.9, 0.7]))
        Y = rng.normal(size=2)
        h = np.array([0.2 * Y[0], -0.1 * Y[0] + 0.3 * Y[1]])
        gen = rf.cm_general(joint, risk, Y, h)
        exact = rf.conditional_exp_quadratic(joint, Y, risk, h)
        assert abs(gen.I[-1] - exact) <= 1e-8 * max(1.0, exact)

    def test_independent_of_auxiliary_values(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.4, 1.0, 3))
        Y = rng.normal(size=3)
        h = random_causal_h(rng, Y)
        a = rf.cm_general(model, risk, Y, h)
        b = rf.cm_general(model, risk, Y, h, aux_values=rng.normal(size=3) * 3)
        assert_allclose(a.I, b.I, rtol=1e-9)
        assert_allclose(a.z_tilde, b.z_tilde, atol=1e-9)


class TestZTildeConsistencyGuard:
    def test_dual_routes_agree_tightly(self, rng):
        for _ in range(10):
            model = random_scalar_model(rng, 4)
            risk = rf.RiskSpec(mu=float(rng.uniform(-2, 0)), Q=rng.uniform(0, 1.5, 4))
            Y = rng.normal(size=4)
            # would raise above 1e-9; passing at all certifies 1e-12-level code
            rf.z_tilde(model, risk, Y, random_causal_h(rng, Y))

    def test_mismatched_wiring_detected(self, rng):
        # a solution whose S disagrees with (A, mu, Q) is the failure class
        # the dual computation exists to catch
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(3))
        sol = rf.solve_volterra(model, risk)
        corrupted = rf.VolterraSolution(
            gamma_bar=sol.gamma_bar, S=sol.S + 0.8, mu=sol.mu, feasible=True
        )
        Y = rng.normal(size=3)
        with pytest.raises(InconsistentRecursion):
            rf.z_tilde(model, risk, Y, rng.normal(size=3), solution=corrupted)
        with pytest.raises(InconsistentRecursion):
            rf.cm_decompose(model, risk, Y, rng.normal(size=3), solution=corrupted)

    def test_dual_routes_catch_weights_that_do_not_fit(self, rng):
        # the gate rejects such a solution before either route runs, so the routes' own check is called directly
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(3))
        sol = rf.solve_volterra(model, risk)
        corrupted = rf.VolterraSolution(gamma_bar=sol.gamma_bar, S=sol.S + 0.8, mu=sol.mu, feasible=True)
        Y = rng.normal(size=3)
        with pytest.raises(InconsistentRecursion, match="direct and algebraic centering sequences disagree"):
            _centering(model, risk, Y, rng.normal(size=3), corrupted)

    def test_dual_routes_agree_on_any_table_with_fitting_weights(self, rng):
        # the identity between the routes holds for every lower-triangular table once S = A^2 - mu Q
        model = random_scalar_model(rng, 5)
        risk = rf.RiskSpec(mu=-0.8, Q=rng.uniform(0.2, 1.0, 5))
        sol = rf.solve_volterra(model, risk)
        G = sol.gamma_bar
        for table in (G + np.tril(np.full((5, 5), 0.3), -1), G * 1.1, G + np.diag(np.diag(G))):
            Y = rng.normal(size=5)
            twisted = rf.VolterraSolution(gamma_bar=np.tril(table), S=sol.S, mu=sol.mu, feasible=True)
            Z, Zt, one = _centering(model, risk, Y, random_causal_h(rng, Y), twisted)
            assert np.array_equal(one, 1.0 + model.gains1**2 * twisted.diag)

    def test_cm_decompose_carries_the_public_sequences(self, rng):
        model = random_scalar_model(rng, 5)
        risk = rf.RiskSpec(mu=-0.7, Q=rng.uniform(0.5, 1.5, 5))
        Y = rng.normal(size=5)
        h = random_causal_h(rng, Y)
        dec = rf.cm_decompose(model, risk, Y, h)
        assert np.array_equal(dec.z, rf.z_h(model, risk, Y, h))
        assert np.array_equal(dec.z_tilde, rf.z_tilde(model, risk, Y, h)[0])


    def test_positive_mu_continuation(self, rng):
        # the augmented law is indefinite for mu > 0; the factorization must
        # still continue analytically and match the exact transform
        T = 3
        model = random_scalar_model(rng, T)
        risk = rf.RiskSpec(mu=0.07, Q=rng.uniform(0.1, 0.6, T))
        if not rf.solve_volterra(model, risk).feasible:
            pytest.skip("random instance infeasible")
        Y = rng.normal(size=T)
        h = random_causal_h(rng, Y)
        gen = rf.cm_general(model, risk, Y, h)
        exact = rf.conditional_exp_quadratic(rf.assemble_joint(model), Y, risk, h)
        assert abs(gen.I[-1] - exact) <= 1e-9 * max(1.0, exact)


def interleaved(joint):
    """The same law with coordinates reordered as (x1, y1, x2, y2, ...)."""
    T = len(joint.indices("x"))
    perm = [i for t in range(T) for i in (joint.index(("x", t + 1, 0)), joint.index(("y", t + 1, 0)))]
    labels = {(kind, t + 1, 0): 2 * t + k for t in range(T) for k, kind in enumerate("xy")}
    return rf.JointGaussian(mean=joint.mean[perm], cov=joint.cov[np.ix_(perm, perm)], labels=labels)


class TestCmGeneralConditioning:
    def setup_method(self):
        self.model = rf.build_ar1(0.8, 1.0, 0.0, 1.0, 3)
        self.risk = rf.RiskSpec(mu=-1.0, Q=np.ones(3))
        self.Y = np.array([0.3, -0.4, 1.1])
        self.h = np.array([0.1, 0.0, 0.5])

    def test_risk_horizon_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rf.cm_general(self.model, rf.RiskSpec(mu=-1.0, Q=np.ones(4)), self.Y, self.h)

    def test_short_aux_values(self):
        with pytest.raises(DimensionMismatch):
            rf.cm_general(self.model, self.risk, self.Y, self.h, aux_values=np.zeros(2))

    def test_long_aux_values(self):
        with pytest.raises(DimensionMismatch):
            rf.cm_general(self.model, self.risk, self.Y, self.h, aux_values=np.zeros(6))

    def test_non_finite_aux_values(self):
        with pytest.raises(DomainError):
            rf.cm_general(self.model, self.risk, self.Y, self.h, aux_values=np.full(3, np.nan))

    def test_keeps_zero_variance_auxiliary_with_live_row(self):
        # at mu > 0 aux_1 has variance Qp (Qp K11 + 1) = 0 but covaries with
        # X_2 and Y_2: the whole-row rule conditions on it, and only that
        # matches the exact transform (the diagonal rule reads 1.4466560)
        model = rf.build_general(np.zeros(2), np.array([[1.0, 0.3], [0.3, 1.0]]), np.ones(2))
        risk = rf.RiskSpec(mu=0.5, Q=np.array([2.0, 0.1]))
        Y, h = np.array([0.4, -0.7]), np.array([0.1, -0.2])
        Qp = -risk.mu * risk.Q
        assert Qp[0] * (Qp[0] * 1.0 + 1.0) == 0.0
        gen = rf.cm_general(model, risk, Y, h)
        exact = rf.conditional_exp_quadratic(rf.assemble_joint(model), Y, risk, h)
        assert abs(gen.I[-1] - exact) <= 1e-9
        assert abs(gen.I[-1] - 1.4188341) <= 1e-7

    def test_independent_of_joint_layout(self, rng):
        T = 4
        models = [
            rf.build_ar1(0.9, 1.0, 0.5, rng.normal(size=T), T),
            rf.build_ma1(0.6, rng.normal(size=T), T),
            random_scalar_model(rng, T),
        ]
        for model in models:
            joint = rf.assemble_joint(model)
            Y = rng.normal(size=T)
            h = random_causal_h(rng, Y)
            for mu in (-1.0, 0.05):
                risk = rf.RiskSpec(mu=mu, Q=rng.uniform(0.2, 1.0, T))
                aux = rng.normal(size=T)
                a = rf.cm_general(joint, risk, Y, h, aux_values=aux)
                b = rf.cm_general(interleaved(joint), risk, Y, h, aux_values=aux)
                for field in ("log_I", "log_M", "z_tilde"):
                    assert_allclose(getattr(b, field), getattr(a, field), rtol=0, atol=1e-12)
