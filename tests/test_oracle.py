import ast
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsfilt as rf
from rsfilt.errors import DomainError, NoConvergence, SingularConditioning, TransformDiverges

from conftest import fgn_kernel, random_scalar_model
from test_acceptance import feasible_instance


def hermite_expectation_2d(mU, mV, gU, gV, gUV, D, l1, l2, order=80):
    """E exp(-D U^2/2 + l1 U - l2 V) by tensorized Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    cov = np.array([[gU, gUV], [gUV, gV]])
    vals, vecs = np.linalg.eigh(cov)
    L = vecs * np.sqrt(np.clip(vals, 0, None))
    total = 0.0
    for i, (xi, wi) in enumerate(zip(nodes, weights)):
        u = mU + L[0, 0] * nodes + L[0, 1] * xi
        v = mV + L[1, 0] * nodes + L[1, 1] * xi
        f = np.exp(-0.5 * D * u**2 + l1 * u - l2 * v)
        total += wi * np.sum(weights * f)
    return total / (2 * np.pi)


class TestExpQuadratic:
    def test_matches_quadrature(self, rng):
        mean = rng.normal(size=2)
        L = rng.normal(size=(2, 2)) * 0.6
        cov = L @ L.T + 0.3 * np.eye(2)
        P = np.array([[0.8, 0.2], [0.2, 0.5]])
        q = rng.normal(size=2) * 0.4
        val = rf.expected_exp_quadratic(mean, cov, P, q)
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        F = np.linalg.cholesky(cov)
        total = 0.0
        for xi, wi in zip(nodes, weights):
            z = mean[:, None] + F @ np.stack([np.full_like(nodes, xi), nodes])
            f = np.exp(-0.5 * np.einsum("in,ij,jn->n", z, P, z) + q @ z)
            total += wi * np.sum(weights * f)
        assert_allclose(val, total / (2 * np.pi), rtol=1e-8)

    def test_divergence_detected(self):
        with pytest.raises(TransformDiverges):
            rf.expected_exp_quadratic([0.0], [[1.0]], [[-1.5]])

    def test_zero_exponent(self):
        assert rf.expected_exp_quadratic([1.0, 2.0], np.eye(2), np.zeros((2, 2))) == 1.0


class TestGaussianPairExp:
    def test_unit_value(self):
        assert rf.gaussian_pair_exp(0.3, -0.2, 1.0, 2.0, 0.5, 0.0, 0.0, 0.0) == 1.0

    def test_bivariate_mgf(self, rng):
        # D = 0 reduces to E exp(l1 U - l2 V), the bivariate normal mgf
        for _ in range(10):
            mU, mV = rng.normal(size=2)
            gU, gV = rng.uniform(0.2, 2.0, size=2)
            gUV = rng.uniform(-1, 1) * np.sqrt(gU * gV)
            l1, l2 = rng.normal(size=2)
            got = rf.gaussian_pair_exp(mU, mV, gU, gV, gUV, 0.0, l1, l2)
            expect = np.exp(
                l1 * mU - l2 * mV + 0.5 * (l1**2 * gU + l2**2 * gV) - l1 * l2 * gUV
            )
            assert_allclose(got, expect, rtol=1e-12)

    def test_matches_quadrature(self, rng):
        for _ in range(5):
            gU, gV = rng.uniform(0.3, 1.5, size=2)
            gUV = rng.uniform(-0.9, 0.9) * np.sqrt(gU * gV)
            args = (
                rng.normal(), rng.normal(), gU, gV, gUV,
                rng.uniform(0, 2), rng.normal() * 0.5, rng.normal() * 0.5,
            )
            assert_allclose(
                rf.gaussian_pair_exp(*args), hermite_expectation_2d(*args), rtol=1e-8
            )

    def test_sign_flip_symmetry(self, rng):
        gU, gV = 1.2, 0.7
        gUV = 0.0
        a = rf.gaussian_pair_exp(0.4, 0.0, gU, gV, gUV, 0.9, 0.3, 0.0)
        b = rf.gaussian_pair_exp(-0.4, 0.0, gU, gV, gUV, 0.9, -0.3, 0.0)
        assert_allclose(a, b, rtol=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rf.gaussian_pair_exp(0.0, 0.0, 1.0, 1.0, 0.0, -2.0, 0.0, 0.0)


class TestAssembleAndCondition:
    def test_single_step_blocks(self):
        model = rf.build_general([0.0], [[1.7]], [1.3])
        joint = rf.assemble_joint(model)
        expect = np.array([[1.7, 1.3 * 1.7], [1.3 * 1.7, 1.3**2 * 1.7 + 1.0]])
        assert_allclose(joint.cov, expect, atol=1e-14)

    def test_sampled_covariance(self, rng):
        model = random_scalar_model(rng, 3)
        joint = rf.assemble_joint(model)
        n = 10**5
        X, Y = rf.sample_paths(model, 17, n)
        Z = np.concatenate([X[:, :, 0], Y[:, :, 0]], axis=1)
        Zc = Z - joint.mean
        emp = Zc.T @ Zc / n
        d = np.diag(joint.cov)
        se = np.sqrt((np.outer(d, d) + joint.cov**2) / n)
        assert np.all(np.abs(emp - joint.cov) <= 4 * se + 1e-5)

    def test_correlated_cross_block(self):
        T = 2
        C = np.array([[0.4, 0.0], [0.2, -0.3]])
        model = rf.build_vector_model(np.zeros(T), np.eye(T), np.ones(T), C)
        joint = rf.assemble_joint(model)
        # Cov(X_t, Y_s) = K(t,s) A_s + C(t,s)
        for t in range(T):
            for s in range(T):
                got = joint.cov[joint.index(("x", t + 1, 0)), joint.index(("y", s + 1, 0))]
                expect = (1.0 if t == s else 0.0) + C[t, s]
                assert_allclose(got, expect, atol=1e-14)

    def test_condition_on_nothing(self, rng):
        model = random_scalar_model(rng, 2)
        joint = rf.assemble_joint(model)
        same = rf.condition(joint, [], [])
        assert np.array_equal(same.cov, joint.cov)

    def test_condition_on_everything(self, rng):
        model = random_scalar_model(rng, 2)
        joint = rf.assemble_joint(model)
        vals = rng.normal(size=4)
        out = rf.condition(joint, list(range(4)), vals)
        assert out.dim == 0

    def test_condition_mean_and_zero_cov_when_observed(self, rng):
        model = random_scalar_model(rng, 2)
        joint = rf.assemble_joint(model)
        y_idx = joint.indices("y")
        vals = rng.normal(size=2)
        out = rf.condition(joint, y_idx, vals)
        again = rf.condition(out, list(range(out.dim)), out.mean)
        assert again.dim == 0

    def test_tower_property(self, rng):
        model = random_scalar_model(rng, 3)
        joint = rf.assemble_joint(model)
        Y = rng.normal(size=3)
        y = [joint.index(("y", t, 0)) for t in (1, 2)]
        seq = rf.condition(joint, [y[0]], [Y[0]])
        seq = rf.condition(seq, [seq.index(("y", 2, 0))], [Y[1]])
        jointly = rf.condition(joint, y, Y[:2])
        assert_allclose(seq.mean, jointly.mean, atol=1e-10)
        assert_allclose(seq.cov, jointly.cov, atol=1e-10)

    def test_singular_conditioning_detected(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # duplicated coordinate
        joint = rf.JointGaussian(mean=np.zeros(2), cov=cov, labels={("y", 1, 0): 0, ("y", 2, 0): 1})
        with pytest.raises(SingularConditioning):
            rf.condition(joint, [0, 1], [0.0, 0.0])

    def test_degenerate_coordinate_dropped(self):
        cov = np.diag([1.0, 0.0])
        joint = rf.JointGaussian(mean=np.zeros(2), cov=cov,
                                 labels={("x", 1, 0): 0, ("y", 1, 0): 1})
        out = rf.condition(joint, [1], [0.0])
        assert out.dropped == (1,)
        assert_allclose(out.cov, [[1.0]])


class TestConditionalExpQuadratic:
    def test_zero_weights(self, rng):
        model = random_scalar_model(rng, 3)
        joint = rf.assemble_joint(model)
        risk = rf.RiskSpec(mu=-1.0, Q=np.zeros(3))
        val = rf.conditional_exp_quadratic(joint, rng.normal(size=3), risk, np.zeros(3))
        assert_allclose(val, 1.0, atol=1e-14)

    def test_single_step_reduces_to_pair_formula(self, rng):
        model = random_scalar_model(rng, 1)
        joint = rf.assemble_joint(model)
        Y = rng.normal(size=1)
        h = rng.normal(size=1)
        risk = rf.RiskSpec(mu=-1.3, Q=np.array([0.8]))
        cond = rf.condition(joint, [joint.index(("y", 1, 0))], Y)
        mc = cond.mean[0]
        vc = cond.cov[0, 0]
        expect = rf.gaussian_pair_exp(mc - h[0], 0.0, vc, 0.0, 0.0, 1.3 * 0.8, 0.0, 0.0)
        got = rf.conditional_exp_quadratic(joint, Y, risk, h)
        assert_allclose(got, expect, rtol=1e-12)

    def test_single_nonzero_weight_reduces_to_pair_formula(self, rng):
        model = random_scalar_model(rng, 3)
        joint = rf.assemble_joint(model)
        Y = rng.normal(size=3)
        h = rng.normal(size=3)
        Q = np.array([0.0, 1.1, 0.0])
        risk = rf.RiskSpec(mu=-0.9, Q=Q)
        cond = rf.condition(joint, joint.indices("y"), Y)
        i = cond.index(("x", 2, 0))
        expect = rf.gaussian_pair_exp(
            cond.mean[i] - h[1], 0.0, cond.cov[i, i], 0.0, 0.0, 0.9 * 1.1, 0.0, 0.0
        )
        assert_allclose(rf.conditional_exp_quadratic(joint, Y, risk, h), expect, rtol=1e-12)

    def test_monte_carlo_cross_check(self, rng):
        model = random_scalar_model(rng, 3)
        joint = rf.assemble_joint(model)
        Y = rng.normal(size=3)
        h = rng.normal(size=3) * 0.5
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.0, 3))
        exact = rf.conditional_exp_quadratic(joint, Y, risk, h)
        cond = rf.condition(joint, joint.indices("y"), Y)
        xs = [cond.index(("x", t, 0)) for t in (1, 2, 3)]
        mc = cond.mean[xs]
        Sc = cond.cov[np.ix_(xs, xs)]
        L = np.linalg.cholesky(Sc + 1e-12 * np.eye(3))
        n = 10**6
        draws = mc + rng.normal(size=(n, 3)) @ L.T
        vals = np.exp(0.5 * risk.mu * ((draws - h) ** 2 @ risk.Q))
        est = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(est - exact) <= 4 * se

    def test_divergence_for_large_positive_mu(self, rng):
        model = random_scalar_model(rng, 2)
        joint = rf.assemble_joint(model)
        risk = rf.RiskSpec(mu=50.0, Q=np.ones(2))
        with pytest.raises(TransformDiverges):
            rf.conditional_exp_quadratic(joint, np.zeros(2), risk, np.zeros(2))


class TestAugmentedSystem:
    def test_requires_negative_mu(self, rng):
        model = random_scalar_model(rng, 2)
        with pytest.raises(DomainError):
            rf.augmented_system(model, rf.RiskSpec(mu=0.5, Q=np.ones(2)), np.zeros(2), np.zeros(2))

    def test_zero_weights_noop(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.zeros(3))
        Y = rng.normal(size=3)
        aug = rf.augmented_system(model, risk, np.zeros(3), Y, aux_seed=1)
        # degenerate auxiliaries are dropped: moments equal pure-Y conditioning
        joint = rf.assemble_joint(model)
        for t in range(1, 4):
            pibar, var, corr = aug.predictor_moments(t)
            idx = [joint.index(("y", s, 0)) for s in range(1, t)]
            cond = rf.condition(joint, idx, Y[: t - 1])
            i = cond.index(("x", t, 0))
            assert_allclose(pibar, cond.mean[i], atol=1e-12)
            assert_allclose(var, cond.cov[i, i], atol=1e-12)
            assert corr == 0.0

    def test_variance_matches_volterra(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=rng.uniform(0.3, 1.5, 4))
        Y = rng.normal(size=4)
        sol = rf.solve_volterra(model, risk)
        aug = rf.augmented_system(model, risk, np.zeros(4), Y, aux_seed=2)
        for t in range(1, 5):
            _, var, _ = aug.predictor_moments(t)
            assert abs(var - sol.diag[t - 1]) < 1e-8

    def test_information_monotonicity(self, rng):
        model = random_scalar_model(rng, 4)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(4))
        Y = rng.normal(size=4)
        aug = rf.augmented_system(model, risk, np.zeros(4), Y, aux_seed=3)
        t = 4
        variances = []
        for k in range(t):
            idx = [aug.joint.index(("y", s + 1, 0)) for s in range(k)]
            idx += [aug.joint.index(("aux", s + 1, 0)) for s in range(k)]
            cond = rf.condition(aug.joint, idx, np.concatenate([Y[:k], aug.aux_values[:k]]))
            i = cond.index(("x", t, 0))
            variances.append(cond.cov[i, i])
        assert np.all(np.diff(variances) <= 1e-12)


    def test_steps_outside_horizon_rejected(self, rng):
        model = random_scalar_model(rng, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(3))
        aug = rf.augmented_system(model, risk, np.zeros(3), rng.normal(size=3), aux_seed=4)
        for t in (0, 4):
            with pytest.raises(DomainError, match=r"step t must lie in \[1, 3\]"):
                aug.predictor_moments(t)
            with pytest.raises(DomainError, match=r"step t must lie in \[1, 3\]"):
                aug.filtered_moments(t)


class TestConditionDegeneracyRule:
    def test_drops_coordinate_with_tiny_variance(self):
        # the diagonal rule drops coordinate 1 (variance 1e-20); the whole-row
        # rule of cm_general would keep it, its covariance 1e-10 being live
        joint = rf.JointGaussian(mean=np.zeros(2), cov=np.array([[1.0, 1e-10], [1e-10, 1e-20]]))
        cond = rf.condition(joint, [1], [3.0])
        assert cond.dropped == (1,)
        assert cond.cov.tolist() == [[1.0]]
        assert cond.mean.tolist() == [0.0]


def reference_affine_risk(model, risk, filt, extra_x_weight=None):
    """The affine-filter criterion as one integral over the whole (X, Y) joint.

    The quadratic form, its linear term and its constant are built on every
    signal and observation coordinate, one filter row at a time, and handed
    to ``log_expected_exp_quadratic``; an independent route to
    ``exact_affine_risk``.
    """
    joint = rf.assemble_joint(model)
    Q, mu, N = risk.q_vector(), risk.mu, joint.dim
    P, q, r = np.zeros((N, N)), np.zeros(N), 0.0
    for t in range(model.horizon):
        row = np.zeros(N)
        row[joint.index(("x", t + 1, 0))] = 1.0
        for l in range(t + 1):
            row[joint.index(("y", l + 1, 0))] = -filt.gains[t, l]
        c = filt.intercept[t]
        P += (-mu * Q[t]) * np.outer(row, row)
        q += (-mu * Q[t] * c) * row
        r += 0.5 * mu * Q[t] * c**2
        if extra_x_weight is not None:
            e = np.zeros(N)
            e[joint.index(("x", t + 1, 0))] = 1.0
            P += (-mu * float(extra_x_weight[t])) * np.outer(e, e)
    return mu * np.exp(rf.oracle.log_expected_exp_quadratic(joint.mean, joint.cov, P, q, r))


def random_affine_filter(rng, T):
    return rf.AffineFilter(intercept=rng.normal(size=T) * 0.3, gains=np.tril(rng.normal(size=(T, T)) * 0.3))


def both_routes(model, risk, filt, extra=None):
    """(reference, exact_affine_risk), each a float or the string 'diverges'."""
    out = []
    for fn in (reference_affine_risk, rf.oracle.exact_affine_risk):
        try:
            out.append(fn(model, risk, filt, extra))
        except TransformDiverges:
            out.append("diverges")
    return out


def reference_models(rng):
    T = 6
    c = rng.normal(size=2)
    K2 = fgn_kernel(T, 0.7)[:, :, None, None] * (np.outer(c, c) + 0.2 * np.eye(2))
    return {
        "ar1": rf.build_ar1(0.8, 0.6, 0.4, 1.2, 4),
        "fgn": rf.build_general(rng.normal(size=T) * 0.3, np.tril(fgn_kernel(T, 0.7)),
                                rng.uniform(0.5, 1.5, T)),
        "vector": rf.build_vector_model(rng.normal(size=(T, 2)) * 0.3, K2,
                                        rng.uniform(0.5, 1.5, (T, 1, 2))),
    }


class TestAffineCriterionReference:
    @pytest.mark.parametrize("name", ["ar1", "fgn", "vector"])
    @pytest.mark.parametrize("extra", [False, True])
    def test_matches_full_joint_integral(self, rng, name, extra):
        model = reference_models(rng)[name]
        T = model.horizon
        for mu in (-1.0, -0.5, 0.1, 0.5):
            # Smaller weights for mu > 0 keep most draws short of divergence.
            scale = 1.0 if mu < 0 else 0.15
            compared = 0
            for _ in range(4):
                risk = rf.RiskSpec(mu=mu, Q=rng.uniform(0.3, 1.5, T) * scale)
                weight = rng.uniform(0.2, 1.0, T) * scale if extra else None
                ref, got = both_routes(model, risk, random_affine_filter(rng, T), weight)
                if ref == "diverges" or got == "diverges":
                    assert ref == got, (mu, ref, got)
                    continue
                assert abs(got - ref) <= 1e-12 * abs(ref), (mu, got, ref)
                compared += 1
            assert compared >= 2, mu

    @pytest.mark.parametrize("extra", [False, True])
    def test_divergence_boundary_agrees(self, rng, extra):
        model = rf.build_ar1(0.9, 0.8, 0.2, 1.1, 4)
        filt = random_affine_filter(rng, 4)
        weight = np.full(4, 0.5) if extra else None
        verdicts = []
        for mu in np.linspace(0.05, 3.0, 60):
            ref, got = both_routes(model, rf.RiskSpec(mu=mu, Q=np.ones(4)), filt, weight)
            assert (ref == "diverges") == (got == "diverges"), (mu, ref, got)
            if got != "diverges":
                assert np.isfinite(got) and np.isfinite(ref)
            verdicts.append(got == "diverges")
        assert any(verdicts) and not all(verdicts)

    def test_upper_triangle_of_gains_is_ignored(self, rng):
        model = reference_models(rng)["fgn"]
        risk = rf.RiskSpec(mu=-0.7, Q=np.ones(6))
        filt = random_affine_filter(rng, 6)
        noisy = rf.AffineFilter(intercept=filt.intercept, gains=filt.gains + np.triu(np.ones((6, 6)), 1))
        assert rf.oracle.exact_affine_risk(model, risk, noisy) == rf.oracle.exact_affine_risk(model, risk, filt)

    def test_pack_round_trip(self, rng):
        filt = random_affine_filter(rng, 5)
        theta = rf.oracle._pack(filt)
        assert theta.shape == (5 + 15,)
        back = rf.oracle._unpack(theta, 5)
        assert np.array_equal(back.intercept, filt.intercept)
        assert np.array_equal(back.gains, filt.gains)


class TestMinimizeAffineRisk:
    def test_flat_objective_returns_start(self, rng):
        model = random_scalar_model(rng, 2)
        risk = rf.RiskSpec(mu=-1.0, Q=np.zeros(2))
        fit, value = rf.minimize_affine_risk(model, risk)
        assert value == -1.0
        start = rf.oracle.affine_from_filter(lambda y: rf.risk_neutral_filter(model, y), 2)
        assert_allclose(fit.gains, start.gains, atol=1e-14)

    def test_single_step_closed_form(self, rng):
        model = random_scalar_model(rng, 1)
        risk = rf.RiskSpec(mu=-1.0, Q=np.array([1.2]))
        fit, _ = rf.minimize_affine_risk(model, risk)
        sol = rf.solve_volterra(model, risk)
        A = model.gains1[0]
        g = sol.diag[0]
        assert_allclose(fit.intercept[0], model.mean1[0] / (1 + A**2 * g), atol=1e-6)
        assert_allclose(fit.gains[0, 0], A * g / (1 + A**2 * g), atol=1e-6)

    def test_never_beats_risk_neutral_start_backwards(self, rng):
        model = random_scalar_model(rng, 2)
        risk = rf.RiskSpec(mu=-0.8, Q=rng.uniform(0.5, 1.5, 2))
        start = rf.oracle.affine_from_filter(lambda y: rf.risk_neutral_filter(model, y), 2)
        start_risk = rf.oracle.exact_affine_risk(model, risk, start)
        _, best = rf.minimize_affine_risk(model, risk)
        assert best <= start_risk + 1e-12


class TestBackwardRiccati:
    def test_terminal_and_first_step(self):
        br = rf.backward_riccati(5)
        assert br.gamma[-1] == 0.0
        assert_allclose(br.gamma[-2], 1.0, atol=1e-15)

    def test_closed_form_matches_recursion(self):
        br = rf.backward_riccati(20)
        assert br.max_discrepancy < 1e-12

    def test_limit_is_golden_ratio(self):
        br = rf.backward_riccati(200)
        assert_allclose(br.gamma[0], (1 + np.sqrt(5)) / 2, atol=1e-12)


class TestLegVsRsExample:
    def test_report_contains_quoted_values(self):
        rep = rf.leg_vs_rs_example(4, bruteforce=False)
        g1 = rep["gamma_first"]
        assert_allclose(rep["quoted"]["hbar1_coeff"], (1 + g1) / (2 + g1), atol=1e-14)
        assert rep["quoted"]["hhat1_coeff"] == 0.25

    def test_adjudication_t2(self):
        rep = rf.leg_vs_rs_example(2)
        assert rep["adjudicated"]["differ"]
        assert_allclose(rep["bruteforce"]["hbar1_coeff"], 2.0 / 7.0, atol=1e-5)
        assert_allclose(rep["bruteforce"]["hhat1_coeff"], 1.0 / 3.0, atol=1e-5)
        assert_allclose(rep["computed"]["hbar1_coeff_exact_tilt"], 2.0 / 7.0, atol=1e-12)

    def test_single_step_coincide(self):
        # with no future coupling the two minimizers agree
        rep = rf.leg_vs_rs_example(1, bruteforce=False)
        assert_allclose(
            rep["computed"]["hbar1_coeff_exact_tilt"],
            rep["computed"]["hhat1_coeff"],
            atol=1e-12,
        )

    def test_differ_for_larger_horizons(self):
        for T in (3, 6):
            rep = rf.leg_vs_rs_example(T, bruteforce=False)
            hbar = rep["computed"]["hbar1_coeff_exact_tilt"]
            hhat = rep["computed"]["hhat1_coeff"]
            assert abs(hbar - hhat) > 0.02


# --- the stacked compass search against the one-trial-at-a-time search -------
#
# legacy_criterion and legacy_pattern_search are the one-point criterion and
# compass search that the stacked, lockstep search replaced, kept verbatim as
# the reference it must reproduce bit for bit.

def legacy_criterion(model, risk, extra_x_weight=None):
    T, n, mu = model.horizon, model.n, risk.mu
    joint = rf.assemble_joint(model)
    keep = np.concatenate([np.arange(T) * n, T * n + np.arange(T)])
    mean, cov = joint.mean[keep], joint.cov[np.ix_(keep, keep)]
    weights = risk.q_vector()
    if extra_x_weight is not None:
        weights = np.concatenate([weights, np.asarray(extra_x_weight, dtype=float)])
    sign = -np.sign(mu)
    root = np.sqrt(abs(mu) * weights)
    M = root[:, None] * np.tile(np.eye(T, 2 * T), (weights.shape[0] // T, 1))
    rows, cols = np.tril_indices(T)

    def criterion(theta) -> float:
        M[rows, T + cols] = -root[rows] * theta[T:]
        d = M @ mean
        d[:T] -= root[:T] * theta[:T]
        beta, V = np.linalg.eigh(M @ cov @ M.T)
        lam = sign * beta
        if 1.0 + lam.min() <= rf.oracle.DIVERGE_TOL:
            raise TransformDiverges(f"affine-filter criterion diverges (min eigenvalue 1+{lam.min():.3e})")
        v = d @ V
        return mu * float(np.exp(-0.5 * (np.log1p(lam).sum() + sign * (v * v / (1.0 + lam)).sum())))

    return criterion


def legacy_pattern_search(f, x0, step0=0.25, tol=1e-9, budget=100000):
    x = np.asarray(x0, dtype=float).copy()
    fx = f(x)
    n_eval = 1
    step = float(step0)
    dim = x.shape[0]
    while step > tol and n_eval < budget:
        improved = False
        for i in range(dim):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] += sign * step
                ft = f(trial)
                n_eval += 1
                if ft < fx - 1e-18:
                    x, fx = trial, ft
                    improved = True
                    break
            if n_eval >= budget:
                break
        if improved:
            step = min(step * 2.0, 1.0)
        else:
            step *= 0.5
    converged = step <= tol
    return x, fx, n_eval, converged


def search_starts(model, starts=5):
    """The packed risk-neutral start and its perturbed restarts, as minimize_affine_risk draws them."""
    T = model.horizon
    neutral = rf.leg_affine(model, rf.RiskSpec(mu=0.0, Q=np.zeros(T)))
    first = np.arange(T) * model.n
    x0 = rf.oracle._pack(rf.AffineFilter(intercept=neutral.intercept[first], gains=neutral.gains[first]))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20240117)))
    return [x0 if k == 0 else x0 + rng.normal(scale=0.05, size=x0.shape) for k in range(starts)]


def assert_same_search(model, risk, extra=None, budget=100000, starts=5):
    """minimize_affine_risk's per-start searches and its outcome equal the legacy search's.

    Returns the number of legacy trials that diverged.
    """
    legacy, diverged = legacy_criterion(model, risk, extra), []

    def objective(theta):
        try:
            return legacy(theta)
        except TransformDiverges:
            diverged.append(theta)
            return np.inf

    old = [legacy_pattern_search(objective, x, budget=budget // starts) for x in search_starts(model, starts)]
    best = None  # the legacy minimize_affine_risk's choice and convergence rule
    for x, fx, _, conv in old:
        if best is None or fx < best[1]:
            best = (x, fx, conv)

    new, search = [], rf.oracle._pattern_search

    def spy(*args, **kwargs):
        new.extend(search(*args, **kwargs))
        return new

    with mock.patch.object(rf.oracle, "_pattern_search", spy):
        if not best[2] and sum(run[2] for run in old) >= budget:
            with pytest.raises(NoConvergence, match=f"within {budget} evaluations"):
                rf.minimize_affine_risk(model, risk, extra_x_weight=extra, budget=budget, starts=starts)
        else:
            fit, value = rf.minimize_affine_risk(model, risk, extra_x_weight=extra, budget=budget, starts=starts)
            expect = rf.oracle._unpack(best[0], model.horizon)
            assert value == best[1]
            assert np.array_equal(fit.intercept, expect.intercept) and np.array_equal(fit.gains, expect.gains)
    for (x, fx, n, conv), (x2, fx2, n2, conv2) in zip(old, new, strict=True):
        assert np.array_equal(x, x2) and fx == fx2 and n == n2 and conv == conv2, (fx, fx2, n, n2)
    return len(diverged)


class TestStackedSearch:
    @pytest.mark.parametrize("T", [2, 3])
    def test_tilted_walk_example(self, T):
        walk = rf.build_ar1(np.ones(T), np.ones(T), 0.0, np.ones(T), T)
        assert_same_search(walk, rf.RiskSpec(mu=-1.0, Q=np.ones(T)), extra=np.ones(T))
        first = np.concatenate([[1.0], np.zeros(T - 1)])
        assert_same_search(walk, rf.RiskSpec(mu=-1.0, Q=first), extra=first)

    def test_criterion_2_instances(self):
        rng = np.random.default_rng(202)
        mus = [-1.0, -0.5, -1.0, 0.1]
        for i in range(20):
            T = int(rng.integers(1, 4))
            model, risk = feasible_instance(rng, T, mus[i % len(mus)])
            assert_same_search(model, risk)

    def test_diverging_trials(self):
        model = rf.build_ar1(0.8, 0.6, 0.4, 1.2, 3)
        assert assert_same_search(model, rf.RiskSpec(mu=2.0, Q=np.ones(3))) > 0

    @pytest.mark.parametrize("budget", [50, 307])
    def test_budget_exhausted(self, budget):
        model = rf.build_ar1(0.8, 0.6, 0.4, 1.2, 3)
        with pytest.raises(NoConvergence):
            rf.minimize_affine_risk(model, rf.RiskSpec(mu=-1.0, Q=np.ones(3)), budget=budget)
        assert_same_search(model, rf.RiskSpec(mu=-1.0, Q=np.ones(3)), budget=budget)


class TestStackedCriterion:
    @pytest.mark.parametrize("name", ["ar1", "fgn", "vector"])
    @pytest.mark.parametrize("extra", [False, True])
    def test_rows_are_independent(self, rng, name, extra):
        """A k-row call equals k one-row calls and the legacy one-point criterion, bit for bit."""
        model = reference_models(rng)[name]
        T = model.horizon
        for mu in (-1.0, 0.5):
            # For mu > 0, small weights and filters scaled 0x to 4x mix finite and diverging rows.
            scale = 1.0 if mu < 0 else 0.15
            risk = rf.RiskSpec(mu=mu, Q=rng.uniform(0.3, 1.5, T) * scale)
            weight = rng.uniform(0.2, 1.0, T) * scale if extra else None
            thetas = np.stack([rf.oracle._pack(random_affine_filter(rng, T)) * s for s in np.linspace(0.0, 4.0, 12)])
            criterion, legacy = rf.oracle._affine_criterion(model, risk, weight), legacy_criterion(model, risk, weight)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values, lam_min = criterion(thetas)
                for k, theta in enumerate(thetas):
                    (one,), (one_min,) = criterion(theta[None])
                    assert one == values[k] and one_min == lam_min[k]
                    try:
                        assert legacy(theta) == one
                    except TransformDiverges:
                        assert one == np.inf and 1.0 + one_min <= rf.oracle.DIVERGE_TOL
            if mu > 0:
                assert np.isinf(values).any() and np.isfinite(values).any()

    def test_divergence_message_unchanged(self, rng):
        model = rf.build_ar1(0.9, 0.8, 0.2, 1.1, 4)
        filt = random_affine_filter(rng, 4)
        raised = 0
        for mu in np.linspace(0.05, 3.0, 60):
            risk = rf.RiskSpec(mu=mu, Q=np.ones(4))
            try:
                legacy_criterion(model, risk)(rf.oracle._pack(filt))
            except TransformDiverges as exc:
                with pytest.raises(TransformDiverges) as got:
                    rf.oracle.exact_affine_risk(model, risk, filt)
                assert str(got.value) == str(exc)
                raised += 1
        assert raised > 0


def test_oracle_imports_no_recursive_kernel():
    # The oracle is the reference the recursions are tested against: from their modules it may take the
    # filter's affine form, to evaluate a given filter, and one conditioning limit, nothing else.
    taken = set()  # "module.name" per imported name, the module's last component; "module." per import
    for node in ast.walk(ast.parse(Path(rf.oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            taken |= {f"{(node.module or '').rsplit('.', 1)[-1]}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            taken |= {alias.name.rsplit(".", 1)[-1] + "." for alias in node.names}
    kernels = {name for name in taken if {"volterra", "filtering"} & set(name.split("."))}
    assert kernels == {"volterra.COND_LIMIT", "filtering.AffineFilter", "filtering.leg_affine"}
