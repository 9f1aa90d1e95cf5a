import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsfilt as rf
from rsfilt.errors import DomainError, InfeasibleCondition, SingularInnovationMatrix

from conftest import fgn_kernel, random_causal_h, random_scalar_model


def oracle_filtered_mean(model, Y):
    joint = rf.assemble_joint(model)
    T = model.horizon
    out = np.zeros(T)
    for t in range(1, T + 1):
        idx = [joint.index(("y", s, 0)) for s in range(1, t + 1)]
        cond = rf.condition(joint, idx, Y[:t])
        out[t - 1] = cond.mean[cond.index(("x", t, 0))]
    return out


class TestLegFilter:
    def test_mu_zero_is_conditional_expectation(self, rng):
        for _ in range(5):
            model = random_scalar_model(rng, 5)
            Y = rng.normal(size=5)
            h = rf.leg_filter(model, rf.RiskSpec(mu=0.0, Q=np.zeros(5)), Y).h_bar
            assert_allclose(h, oracle_filtered_mean(model, Y), atol=1e-10)

    def test_iid_signal_reduces_to_risk_neutral(self, rng):
        T = 4
        model = rf.build_ar1(0.0, 1.0, 0.0, 1.3, T)
        Y = rng.normal(size=T)
        for mu in (-2.0, -0.5, 0.4):
            run = rf.leg_filter(model, rf.RiskSpec(mu=mu, Q=np.ones(T)), Y)
            assert_allclose(run.h_bar, rf.risk_neutral_filter(model, Y), atol=1e-12)

    def test_matches_bruteforce_optimum(self, rng):
        T = 2
        model = random_scalar_model(rng, T)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.5, 1.5, T))
        sol = rf.solve_volterra(model, risk)
        fit, value = rf.minimize_affine_risk(model, risk)
        ref = rf.oracle.affine_from_filter(
            lambda y: rf.leg_filter(model, risk, y, solution=sol).h_bar, T
        )
        assert_allclose(fit.intercept, ref.intercept, atol=1e-6)
        assert_allclose(fit.gains, ref.gains, atol=1e-6)

    def test_fixed_point_property(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-0.8, Q=rng.uniform(0.2, 1.0, 4))
        Y = rng.normal(size=4)
        run = rf.leg_filter(model, risk, Y)
        Zt, _ = rf.z_tilde(model, risk, Y, run.h_bar)
        assert_allclose(Zt, run.h_bar, atol=1e-12)

    def test_causality(self, rng):
        model = random_scalar_model(rng, 5)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(5))
        Y = rng.normal(size=5)
        full = rf.leg_filter(model, risk, Y).h_bar
        for t in range(1, 5):
            tail = Y.copy()
            tail[t:] = rng.normal(size=5 - t) * 10
            trunc = rf.leg_filter(model, risk, tail).h_bar
            assert_allclose(trunc[:t], full[:t], atol=1e-12)

    def test_affinity_in_observations(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(4))
        sol = rf.solve_volterra(model, risk)
        Y = rng.normal(size=4)
        c = rf.leg_filter(model, risk, np.zeros(4), solution=sol).h_bar
        h1 = rf.leg_filter(model, risk, Y, solution=sol).h_bar
        h2 = rf.leg_filter(model, risk, 2 * Y, solution=sol).h_bar
        assert_allclose(h2 - c, 2.0 * (h1 - c), atol=1e-11)

    def test_affine_map_matches_probed_coefficients(self, rng):
        models = [random_scalar_model(rng, 5) for _ in range(3)]
        models.append(rf.build_ar1(0.8, 1.0, 0.2, [1.0, 0.0, 1.3, 0.0], 4))  # zero-gain steps
        for model in models:
            T = model.horizon
            for mu in (-1.0, 0.0, 0.05):
                risk = rf.RiskSpec(mu=mu, Q=rng.uniform(0.3, 1.0, T))
                sol = rf.solve_volterra(model, risk)
                if not sol.feasible:
                    continue
                fit = rf.leg_affine(model, risk)
                ref = rf.oracle.affine_from_filter(
                    lambda y: rf.leg_filter(model, risk, y, solution=sol).h_bar, T
                )
                assert_allclose(fit.intercept, ref.intercept, rtol=0, atol=1e-13)
                assert_allclose(fit.gains, ref.gains, rtol=0, atol=1e-13)

    def test_batched_paths(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(3))
        Yb = rng.normal(size=(7, 3))
        run = rf.leg_filter(model, risk, Yb)
        for p in range(7):
            single = rf.leg_filter(model, risk, Yb[p])
            assert_allclose(run.h_bar[p], single.h_bar, atol=1e-14)

    def test_first_order_optimality(self, rng):
        T = 3
        for mu in (-0.5, 0.5):
            model = rf.build_ar1(0.8, 1.0, 0.1, 1.0, T)
            risk = rf.RiskSpec(mu=mu, Q=np.ones(T))
            sol = rf.solve_volterra(model, risk)
            if not sol.feasible:
                continue
            base = rf.oracle.affine_from_filter(
                lambda y: rf.leg_filter(model, risk, y, solution=sol).h_bar, T
            )
            r0 = rf.oracle.exact_affine_risk(model, risk, base)
            theta0 = rf.oracle._pack(base)
            for _ in range(10):
                d = rng.normal(size=theta0.shape)
                d *= 1e-4 / np.linalg.norm(d)
                pert = rf.oracle._unpack(theta0 + d, T)
                assert rf.oracle.exact_affine_risk(model, risk, pert) >= r0 - 1e-10

    def test_stepwise_reoptimization_recovers_filter(self, rng):
        # minimizing the conditional criterion truncated at t, with the
        # optimal history frozen, returns the same step-t estimate
        T = 3
        model = random_scalar_model(rng, T)
        risk = rf.RiskSpec(mu=-0.9, Q=rng.uniform(0.4, 1.2, T))
        Y = rng.normal(size=T)
        hbar = rf.leg_filter(model, risk, Y).h_bar
        joint = rf.assemble_joint(model)
        for t in range(1, T + 1):
            idx = [joint.index(("y", s, 0)) for s in range(1, t + 1)]
            cond = rf.condition(joint, idx, Y[:t])
            xs = [cond.index(("x", s, 0)) for s in range(1, T + 1)]
            mc = cond.mean[xs]
            Sc = cond.cov[np.ix_(xs, xs)]
            Qtr = np.where(np.arange(T) < t, risk.Q, 0.0)
            P = -risk.mu * np.diag(Qtr)

            def crit(g):
                hv = np.concatenate([hbar[: t - 1], [g], np.zeros(T - t)])
                return risk.mu * rf.expected_exp_quadratic(mc - hv, Sc, P)

            gs = np.linspace(hbar[t - 1] - 0.5, hbar[t - 1] + 0.5, 41)
            g = gs[np.argmin([crit(g) for g in gs])]
            for width in (0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6):
                gs = np.linspace(g - width, g + width, 21)
                g = gs[np.argmin([crit(x) for x in gs])]
            assert abs(g - hbar[t - 1]) < 1e-6


def test_one_path_matches_its_row_of_a_batch(rng):
    # One path runs one dot product per step, a batch one matrix product: equal up to rounding.
    T = 800
    K = np.tril(fgn_kernel(T, 0.75))
    model = rf.build_general(rng.normal(size=T) * 0.5, K, rng.uniform(0.5, 1.5, T))
    risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.5, 1.5, T))
    sol = rf.solve_volterra(model, risk)
    Y = rng.normal(size=(3, T))
    H = rf.leg_filter(model, risk, Y, solution=sol).h_bar
    hc = random_causal_h(rng, Y)
    batch = (H, rf.z_h(model, risk, Y, hc, solution=sol), rf.z_tilde(model, risk, Y, hc, solution=sol)[0])
    for row in range(3):
        one = (rf.leg_filter(model, risk, Y[row], solution=sol).h_bar,
               rf.z_h(model, risk, Y[row], hc[row], solution=sol),
               rf.z_tilde(model, risk, Y[row], hc[row], solution=sol)[0])
        for got, want in zip(one, batch):
            assert got.shape == (T,)
            assert_allclose(got, want[row], rtol=1e-14, atol=1e-14 * np.max(np.abs(want[row])))


def numpy_scalar_lower_solve(gbar, w, d, R, B):
    """The one-path loop in numpy scalars on a dense table, kept as the reference of the one-path solve."""
    X = np.array(R, dtype=float)
    E = np.array(B, dtype=float)
    for t in range(len(d)):
        X[t] = (X[t] + gbar[t, :t] @ E[:t]) / d[t]
        E[t] -= w[t] * X[t]
    return X


@pytest.mark.parametrize("T", [1, 2, 33, 800])
@pytest.mark.parametrize("edge", ["none", "signed zeros and subnormals", "overflow", "zero d"])
def test_one_path_python_floats_match_numpy_scalars(rng, T, edge):
    gbar = np.tril(rng.normal(size=(T, T))) * 0.1
    w, d, R, B = rng.uniform(-1.5, 1.5, T), rng.uniform(0.5, 2.0, T), rng.normal(size=T), rng.normal(size=T)
    if edge == "signed zeros and subnormals":
        R[::2], B[1::3], gbar[T // 2 :, 0] = -0.0, 5e-324, -0.0
    elif edge == "overflow":
        R[0], w[T // 2] = 1e308, -1e308
    elif edge == "zero d":
        d[T // 2] = 0.0
    with np.errstate(all="ignore"):
        want = numpy_scalar_lower_solve(gbar, w, d, R, B)
        got = rf.filtering._lower_solve((row[:t] for t, row in enumerate(gbar)), w, d, R, B)
    if edge in ("none", "signed zeros and subnormals"):
        assert got.tobytes() == want.tobytes()
    else:
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("T", [1, 33, 800])
def test_packed_rows_solve_as_the_table(rng, T):
    # The filters read each row from the solution's packed buffer in place of the padded table: same bits,
    # for one path (a dot product per step) and for a batch (a matrix-vector product per step).
    K = np.tril(fgn_kernel(T, 0.75))
    model = rf.build_general(rng.normal(size=T) * 0.5, K, rng.uniform(0.5, 1.5, T))
    sol = rf.solve_volterra(model, rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.5, 1.5, T)))
    A, g = model.gains1, sol.diag
    for Y in (rng.normal(size=T), rng.normal(size=(4, T))):
        args = (A**2, 1.0 + A**2 * g, model.mean1 + A * g * Y, A * Y)
        table_rows = (row[:t] for t, row in enumerate(sol.gamma_bar))
        got, want = rf.filtering._lower_solve(sol._rows(), *args), rf.filtering._lower_solve(table_rows, *args)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
class TestVanishingInnovation:
    """gbar_2 = -1e-12 passes the solve's -FEAS_TOL floor and 1 + S_2 gbar_2 = 2e-12 its denominator
    check, but 1 + A_2^2 gbar_2 = 0 with A_2 = 1e6: a numerical failure at step 2, before any division."""

    @staticmethod
    def _case():
        model = rf.build_general([0.0, 0.0], np.diag([1.0, -1e-12]), [1.0, 1e6])
        risk = rf.RiskSpec(mu=2.0, Q=np.array([0.0, 1.0]))
        return model, risk, rf.solve_volterra(model, risk)

    @pytest.mark.parametrize("call", ["optimal_risk", "leg_filter", "leg_affine", "z_tilde"])
    def test_raises_at_the_step(self, call):
        model, risk, sol = self._case()
        assert sol.feasible
        run = {
            "optimal_risk": lambda: rf.optimal_risk(sol, risk, model.gains1),
            "leg_filter": lambda: rf.leg_filter(model, risk, np.ones(2), solution=sol),
            "leg_affine": lambda: rf.leg_affine(model, risk, solution=sol),
            "z_tilde": lambda: rf.z_tilde(model, risk, np.ones(2), np.zeros(2), solution=sol),
        }[call]
        with pytest.raises(SingularInnovationMatrix, match="at step 2 is not positive") as exc:
            run()
        assert exc.value.step == 2


class TestOptimalRisk:
    def test_mu_zero_errors(self, rng):
        model = random_scalar_model(rng, 3)
        risk0 = rf.RiskSpec(mu=0.0, Q=np.zeros(3))
        sol = rf.solve_volterra(model, risk0)
        with pytest.raises(DomainError):
            rf.optimal_risk(sol, risk0, model.gains1)

    def test_zero_weights_give_mu(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.7, Q=np.zeros(3))
        sol = rf.solve_volterra(model, risk)
        assert_allclose(rf.optimal_risk(sol, risk, model.gains1), -1.7, atol=1e-14)

    def test_monte_carlo_agreement(self):
        T = 3
        model = rf.build_ar1(0.9, 1.0, 0.0, 1.0, T)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(T))
        sol = rf.solve_volterra(model, risk)
        closed = rf.optimal_risk(sol, risk, model.gains1)
        config = rf.ExperimentConfig(model=model, risk=risk, filter_kind="leg",
                                     n_paths=10**5, seed=11)
        est = rf.estimate_risk(config)
        assert abs(est.mean - closed) <= 3 * est.stderr


class TestCenteringSequences:
    def test_first_step_is_mean(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(3))
        Y = rng.normal(size=3)
        h = random_causal_h(rng, Y)
        Z = rf.z_h(model, risk, Y, h)
        assert_allclose(Z[0], model.mean1[0], atol=1e-14)

    def test_zero_weights_give_one_step_predictor(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=np.zeros(4))
        Y = rng.normal(size=4)
        Z = rf.z_h(model, risk, Y, random_causal_h(rng, Y))
        joint = rf.assemble_joint(model)
        for t in range(1, 5):
            idx = [joint.index(("y", s, 0)) for s in range(1, t)]
            cond = rf.condition(joint, idx, Y[: t - 1])
            assert_allclose(Z[t - 1], cond.mean[cond.index(("x", t, 0))], atol=1e-10)

    def test_matches_augmented_oracle(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.2, 4))
        Y = rng.normal(size=4)
        h = random_causal_h(rng, Y)
        Z = rf.z_h(model, risk, Y, h)
        aug = rf.augmented_system(model, risk, h, Y, aux_seed=5)
        for t in range(1, 5):
            pibar, _, corr = aug.predictor_moments(t)
            assert abs(Z[t - 1] - (pibar - corr)) < 1e-8

    def test_no_observation_collapse(self, rng):
        T = 3
        K = np.tril(rng.normal(size=(T, T)))
        K = np.tril(K @ K.T + 0.5 * np.eye(T))
        model = rf.build_general(rng.normal(size=T), K, np.zeros(T))
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.0, T))
        Y = rng.normal(size=T)
        h = rng.normal(size=T)
        Z = rf.z_h(model, risk, Y, h)
        Zt, gt = rf.z_tilde(model, risk, Y, h)
        sol = rf.solve_volterra(model, risk)
        assert_allclose(Zt, Z, atol=1e-13)
        assert_allclose(gt, sol.diag, atol=1e-13)

    def test_z_tilde_matches_augmented_filtered_moments(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-0.6, Q=rng.uniform(0.3, 1.0, 3))
        Y = rng.normal(size=3)
        h = random_causal_h(rng, Y)
        Zt, gt = rf.z_tilde(model, risk, Y, h)
        aug = rf.augmented_system(model, risk, h, Y, aux_seed=3)
        for t in range(1, 4):
            c, v = aug.filtered_moments(t)
            assert abs(c - Zt[t - 1]) < 1e-8
            assert abs(v - gt[t - 1]) < 1e-8


class TestSpecializedFilters:
    def test_ar1_matches_general(self, rng):
        for _ in range(5):
            T = 5
            a = rng.uniform(-1.0, 1.0, T)
            D = rng.uniform(0.3, 1.5, T)
            A = rng.uniform(-1.5, 1.5, T)
            Q = rng.uniform(0.0, 1.2, T)
            x0 = rng.normal()
            mu = float(rng.uniform(-2.0, 0.0))
            Y = rng.normal(size=T)
            model = rf.build_ar1(a, D, x0, A, T)
            general = rf.leg_filter(model, rf.RiskSpec(mu=mu, Q=Q), Y)
            fast = rf.ar1_filter(a, D, x0, A, Q, mu, Y)
            assert_allclose(fast.h_bar, general.h_bar, atol=1e-12)
            assert_allclose(fast.risk, general.risk, atol=1e-12)

    def test_ar1_iid_case(self, rng):
        T = 4
        A = rng.uniform(0.5, 1.5, T)
        Y = rng.normal(size=T)
        run = rf.ar1_filter(0.0, 1.0, 0.0, A, 1.0, -1.0, Y)
        g = rf.ar1_riccati(0.0, 1.0, A, 1.0, -1.0, T)
        assert_allclose(run.h_bar, A * g * Y / (1 + A**2 * g), atol=1e-14)

    def test_ar1_gain_form_equivalent(self, rng):
        # h_t = a h_{t-1} + A g_t/(1+A^2 g_t) (Y_t - a A h_{t-1})
        T = 5
        a, A, Q, mu = 0.8, 1.2, 1.0, -1.0
        Y = rng.normal(size=T)
        g = rf.ar1_riccati(a, 1.0, A, Q, mu, T)
        h = np.zeros(T)
        prev = 0.0
        for t in range(T):
            gain = A * g[t] / (1 + A**2 * g[t])
            h[t] = a * prev + gain * (Y[t] - a * A * prev)
            prev = h[t]
        run = rf.ar1_filter(a, 1.0, 0.0, A, Q, mu, Y)
        assert_allclose(run.h_bar, h, atol=1e-13)

    def test_ma1_matches_general(self, rng):
        for _ in range(5):
            T = 5
            lam = float(rng.uniform(-1.0, 1.0))
            A = rng.uniform(-1.5, 1.5, T)
            Q = rng.uniform(0.0, 1.2, T)
            mu = float(rng.uniform(-2.0, 0.0))
            Y = rng.normal(size=T)
            model = rf.build_ma1(lam, A, T)
            general = rf.leg_filter(model, rf.RiskSpec(mu=mu, Q=Q), Y)
            fast = rf.ma1_filter(lam, A, Q, mu, Y)
            assert_allclose(fast.h_bar, general.h_bar, atol=1e-12)

    def test_ma1_lambda_zero_risk_neutral(self, rng):
        T = 4
        A = rng.uniform(0.5, 1.5, T)
        Y = rng.normal(size=T)
        run = rf.ma1_filter(0.0, A, 1.0, -1.0, Y)
        model = rf.build_ma1(0.0, A, T)
        assert_allclose(run.h_bar, rf.risk_neutral_filter(model, Y), atol=1e-12)

    def test_steps_divide_by_the_innovation_variance(self, rng):
        # Each step divides by the same 1 + A_t^2 g_t array that Z_h and gamma_tilde use; numpy's scalar
        # square differs from the array square in the last bit for about 1 gain in 1,100.
        for _ in range(1500):
            T = int(rng.integers(1, 9))
            a, D, A, Q = (rng.uniform(lo, hi, T) for lo, hi in ((-1.0, 1.0), (0.3, 1.5), (-1.5, 1.5), (0.0, 1.2)))
            lam, x0, mu = rng.uniform(-1.0, 1.0), rng.normal(), float(rng.uniform(-2.0, 0.0))
            Y = rng.normal(size=T)
            g = rf.ar1_riccati(a, D, A, Q, mu, T)
            one = 1.0 + A**2 * g
            h = rf.ar1_filter(a, D, x0, A, Q, mu, Y).h_bar
            for t in range(T):
                prev = h[t - 1] if t else x0
                assert h[t] == (a[t] * prev + A[t] * g[t] * Y[t]) / one[t]
            g = rf.ma1_gamma(lam, A, Q, mu, T)
            one = 1.0 + A**2 * g
            h = rf.ma1_filter(lam, A, Q, mu, Y).h_bar
            for t in range(T):
                lag = lam * A[t - 1] * (Y[t - 1] - A[t - 1] * h[t - 1]) if t else 0.0
                assert h[t] == (lag + A[t] * g[t] * Y[t]) / one[t]

    def test_ma1_single_step(self):
        Y = np.array([0.7])
        run = rf.ma1_filter(0.5, 2.0, 1.0, -1.0, Y)
        g = 1.25
        assert_allclose(run.h_bar, [2.0 * g * 0.7 / (1 + 4.0 * g)], atol=1e-14)


class TestCorrelatedFilter:
    def test_scalar_reduction(self, rng):
        T = 4
        model = random_scalar_model(rng, T)
        vec = rf.build_vector_model(model.mean1, np.tril(model.cov2), model.gains1)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.0, T))
        Y = rng.normal(size=T)
        a = rf.leg_filter(model, risk, Y).h_bar
        b = rf.filter_correlated(vec, risk, Y).h_bar
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, float(np.max(np.abs(a))))

    def test_ar1_noise_preset_first_component(self):
        T = 3
        model = rf.build_ar1_noise(0.7, 0.4, 1.0, 0.4, T)
        Qb = np.zeros((T, 2, 2))
        Qb[:, 0, 0] = 1.0
        risk = rf.RiskSpec(mu=-1.0, Q=Qb)
        sol = rf.solve_volterra_correlated(model, risk)
        fit, _ = rf.minimize_affine_risk(model, rf.RiskSpec(mu=-1.0, Q=np.ones(T)))
        ref = rf.oracle.affine_from_filter(
            lambda y: rf.filter_correlated(model, risk, y, solution=sol).h_bar[:, 0], T
        )
        assert_allclose(fit.intercept, ref.intercept, atol=1e-6)
        assert_allclose(fit.gains, ref.gains, atol=1e-6)

    def test_singular_gain_denominator_names_its_step(self):
        # 1 + A_2 C(2,2) = 0, while the innovation covariance of step 2 is 1
        model = rf.build_vector_model(np.zeros(3), np.diag([1.0, 2.0, 1.0]), np.ones(3), np.diag([0.0, -1.0, 0.0]))
        risk0 = rf.RiskSpec(mu=0.0, Q=np.zeros(3))
        for call in (lambda: rf.filter_correlated(model, risk0, np.ones((4, 3))), lambda: rf.leg_affine(model, risk0)):
            with pytest.raises(SingularInnovationMatrix) as info:
                call()
            assert info.value.step == 2

    def test_correlated_toy_is_optimal(self):
        T = 2
        K = np.tril(np.array([[1.3, 0.0], [0.6, 1.1]]))
        C = np.array([[0.4, 0.0], [0.3, -0.2]])
        model = rf.build_vector_model([0.2, -0.1], K, [1.0, 0.8], C)
        risk = rf.RiskSpec(mu=-1.0, Q=np.array([0.9, 1.4]))
        sol = rf.solve_volterra_correlated(model, risk)
        fit, _ = rf.minimize_affine_risk(model, risk)
        ref = rf.oracle.affine_from_filter(
            lambda y: rf.filter_correlated(model, risk, y, solution=sol).h_bar, T
        )
        assert_allclose(fit.intercept, ref.intercept, atol=1e-6)
        assert_allclose(fit.gains, ref.gains, atol=1e-6)


def correlated_model(builder, T, rng):
    if builder == "vector":
        c = rng.normal(size=2)
        lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        K = (fgn_kernel(T, 0.75)[:, :, None, None] * (np.outer(c, c) + 0.1 * np.eye(2))
             + (0.6**lag)[:, :, None, None] * np.diag([0.5, 0.8]))
        return rf.build_vector_model(rng.normal(size=(T, 2)) * 0.3, K, rng.uniform(0.5, 1.5, (T, 1, 2)))
    if builder == "ar1_noise":
        return rf.build_ar1_noise(rng.uniform(0.5, 0.95, T), 0.6, rng.uniform(0.5, 1.5, T), -0.3, T)
    return rf.build_ma1_observations(0.7, rng.uniform(0.5, 1.5, T), 0.4, T)


@pytest.mark.parametrize("builder", ["vector", "ar1_noise", "ma1_observations"])
def test_filter_correlated_long_horizon_is_conditional_mean(builder, rng):
    T = 40
    model = correlated_model(builder, T, rng)
    Y = rng.normal(size=(T, 1)) * 1.5
    h = rf.filter_correlated(model, rf.RiskSpec(mu=0.0, Q=np.zeros(T)), Y).h_bar.reshape(T, model.n)
    joint = rf.assemble_joint(model)
    for t in range(1, T + 1):
        cond = rf.condition(joint, [joint.index(("y", s, 0)) for s in range(1, t + 1)], Y[:t, 0])
        expect = cond.mean[[cond.index(("x", t, i)) for i in range(model.n)]]
        assert_allclose(h[t - 1], expect, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("builder", ["vector", "ar1_noise", "ma1_observations"])
@pytest.mark.parametrize("mu", [0.0, -0.5])
def test_leg_affine_matches_filter_correlated_probe(builder, mu, rng):
    T = 12
    model = correlated_model(builder, T, rng)
    risk = rf.RiskSpec(mu=mu, Q=rng.uniform(0.5, 1.5, T))
    filt = rf.leg_affine(model, risk)
    probe = rf.oracle.affine_from_filter(lambda y: rf.filter_correlated(model, risk, y).h_bar, T)
    assert filt.intercept.shape == (T * model.n,) and filt.gains.shape == (T * model.n, T)
    assert_allclose(filt.intercept, probe.intercept, rtol=0, atol=1e-12)
    assert_allclose(filt.gains, probe.gains, rtol=0, atol=1e-12)


@pytest.mark.parametrize("builder", ["vector", "ar1_noise", "ma1_observations"])
def test_filter_correlated_batch_equals_one_path_calls(builder, rng):
    T, P = 15, 6
    model = correlated_model(builder, T, rng)
    risk = rf.RiskSpec(mu=-0.5, Q=rng.uniform(0.5, 1.5, T))
    Y = rng.normal(size=(P, T, 1)) * 1.5
    one = np.stack([rf.filter_correlated(model, risk, y).h_bar for y in Y])
    assert np.array_equal(rf.filter_correlated(model, risk, Y).h_bar, one)
    assert np.array_equal(rf.filter_correlated(model, risk, Y[:, :, 0]).h_bar, one)


def right_looking_block_solve(model, solution, M, Y):
    """The right-looking loop ``_block_solve`` replaced, kept as its reference.

    Step l solves for the gains of every target t >= l at once, solves its own
    step implicitly per column, and adds its innovation to every later
    right-hand side.
    """
    T, n, m = model.horizon, model.n, model.m
    gam, A = solution.gamma_bar, model.gains
    C = model.cross_cov if model.cross_cov is not None else np.zeros((T, T, n, m))
    D = np.eye(m) + A @ C.diagonal().transpose(2, 0, 1)
    singular = np.flatnonzero(np.linalg.cond(D) > rf.volterra.COND_LIMIT)
    if singular.size:
        step = int(singular[0]) + 1
        raise SingularInnovationMatrix(f"observation gain denominator at step {step} is singular", step=step)
    h = np.zeros((len(Y), T, n))
    acc = np.array(np.broadcast_to(M, h.shape)).reshape(len(Y), T * n)
    for l in range(T):
        N = C[l:, l] + gam[l:, l] @ A[l].T
        G = np.linalg.solve(D[l].T, N.reshape(-1, m).T)
        rhs = acc[:, l * n : (l + 1) * n] + Y[:, l] @ G[:, :n]
        h[:, l] = np.linalg.solve(np.eye(n) + G[:, :n].T @ A[l], rhs[:, :, None])[:, :, 0]
        acc[:, (l + 1) * n :] += (Y[:, l] - (A[l] @ h[:, l, :, None])[:, :, 0]) @ G[:, n:]
    return h


@pytest.mark.parametrize("builder", ["vector", "ar1_noise", "ma1_observations"])
@pytest.mark.parametrize("mu", [0.0, -0.5, 0.05])
def test_block_solve_matches_right_looking_reference(builder, mu, rng):
    T, P = 40, 64
    model = correlated_model(builder, T, rng)
    n = model.n
    risk = rf.RiskSpec(mu=mu, Q=rng.uniform(0.5, 1.5, T))
    sol = rf.solve_volterra_correlated(model, risk)
    assert sol.feasible
    Y = rng.normal(size=(P, T, 1)) * 1.5
    M = np.zeros((1 + T, T, n))
    M[0] = model.mean
    affine = rf.leg_affine(model, risk, solution=sol)
    pairs = [
        (rf.filter_correlated(model, risk, Y, solution=sol).h_bar.reshape(P, T, n),
         right_looking_block_solve(model, sol, model.mean, Y)),
        (rf.filter_correlated(model, risk, Y[0], solution=sol).h_bar.reshape(T, n),
         right_looking_block_solve(model, sol, model.mean, Y[:1])[0]),
        (np.column_stack([affine.intercept, affine.gains]),
         right_looking_block_solve(model, sol, M, np.eye(1 + T, T, k=-1).reshape(-1, T, 1)).reshape(-1, T * n).T),
    ]
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_block_solve_singular_denominator_step_matches_reference():
    model = rf.build_vector_model(np.zeros(3), np.diag([1.0, 2.0, 1.0]), np.ones(3), np.diag([0.0, -1.0, 0.0]))
    sol = rf.solve_volterra_correlated(model, rf.RiskSpec(mu=0.0, Q=np.zeros(3)))
    for solve in (right_looking_block_solve, rf.filtering._block_solve):
        with pytest.raises(SingularInnovationMatrix, match="observation gain denominator at step 2 is singular") as info:
            solve(model, sol, model.mean, np.ones((4, 3, 1)))
        assert info.value.step == 2


class TestRiskNeutralFilter:
    def test_deterministic_signal(self):
        T = 3
        model = rf.build_general([0.4, -0.2, 1.0], np.zeros((T, T)), np.ones(T))
        Y = np.array([5.0, -3.0, 2.0])
        assert_allclose(rf.risk_neutral_filter(model, Y), model.mean1, atol=1e-12)

    def test_random_walk_first_step(self):
        model = rf.build_ar1(1.0, 1.0, 0.0, 1.0, 2)
        Y = np.array([0.8, 0.0])
        pi = rf.risk_neutral_filter(model, Y)
        assert_allclose(pi[0], 0.4, atol=1e-14)

    def test_correlated_scalar_model_takes_a_batch(self, rng):
        T = 3
        K = np.tril([[1.3, 0.0, 0.0], [0.6, 1.1, 0.0], [0.3, 0.5, 1.0]])
        C = np.array([[0.4, 0.0, 0.0], [0.3, -0.2, 0.0], [0.1, 0.0, 0.2]])
        model = rf.build_vector_model([0.2, -0.1, 0.0], K, [1.0, 0.8, 1.2], C)
        Y = rng.normal(size=(2, 4, T))
        h = rf.risk_neutral_filter(model, Y)
        assert h.shape == (2, 4, T)
        assert np.array_equal(h[1, 2], rf.risk_neutral_filter(model, Y[1, 2]))

    def test_infeasibility_propagates(self):
        T = 3
        model = rf.build_ar1(1.0, 1.0, 0.0, 1.0, T)
        risk = rf.RiskSpec(mu=10.0, Q=np.ones(T))
        with pytest.raises(InfeasibleCondition):
            rf.leg_filter(model, risk, np.zeros(T))


class TestZeroGainSteps:
    def test_intermittent_observations(self, rng):
        # steps with zero gain carry no information but must flow through
        # every recursion unharmed
        T = 4
        model = rf.build_ar1(0.8, 1.0, 0.2, [1.0, 0.0, 1.3, 0.0], T)
        Y = rng.normal(size=T)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.0, T))
        run = rf.leg_filter(model, risk, Y)
        fit, _ = rf.minimize_affine_risk(model, risk)
        sol = rf.solve_volterra(model, risk)
        ref = rf.oracle.affine_from_filter(
            lambda y: rf.leg_filter(model, risk, y, solution=sol).h_bar, T
        )
        assert_allclose(fit.intercept, ref.intercept, atol=1e-6)
        assert_allclose(fit.gains, ref.gains, atol=1e-6)
        # zero-gain steps contribute no observation term
        assert_allclose(ref.gains[:, 1], 0.0, atol=1e-7)
        assert_allclose(ref.gains[:, 3], 0.0, atol=1e-7)
        assert np.all(np.isfinite(run.h_bar))
