import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsfilt as rf
from rsfilt import sim
from rsfilt.errors import ConfigError, OverflowDominated


def ar1_config(T=3, a=0.9, mu=-1.0, n_paths=10**4, seed=5, kind="leg", **kw):
    model = rf.build_ar1(a, 1.0, 0.0, 1.0, T)
    risk = rf.RiskSpec(mu=mu, Q=np.ones(T))
    return rf.ExperimentConfig(model=model, risk=risk, filter_kind=kind,
                               n_paths=n_paths, seed=seed, **kw)


class TestEstimateRisk:
    def test_zero_weights(self):
        model = rf.build_ar1(0.5, 1.0, 0.0, 1.0, 3)
        risk = rf.RiskSpec(mu=-1.4, Q=np.zeros(3))
        config = rf.ExperimentConfig(model=model, risk=risk, n_paths=1000, seed=1)
        est = rf.estimate_risk(config)
        assert est.mean == -1.4
        assert est.stderr == 0.0

    def test_matches_closed_form(self):
        config = ar1_config(n_paths=10**5)
        est = rf.estimate_risk(config)
        sol = rf.solve_volterra(config.model, config.risk)
        closed = rf.optimal_risk(sol, config.risk, config.model.gains1)
        assert abs(est.mean - closed) <= 4 * est.stderr

    def test_risk_neutral_never_better(self):
        leg = rf.estimate_risk(ar1_config(n_paths=10**5))
        rn = rf.estimate_risk(ar1_config(n_paths=10**5, kind="risk_neutral"))
        combined = np.hypot(leg.stderr, rn.stderr)
        assert rn.mean >= leg.mean - 4 * combined

    def test_determinism(self):
        a = rf.estimate_risk(ar1_config(seed=123))
        b = rf.estimate_risk(ar1_config(seed=123))
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_stderr_scaling(self):
        sizes = [10**4, 10**5]
        errs = [rf.estimate_risk(ar1_config(n_paths=n, seed=9)).stderr for n in sizes]
        ratio = errs[0] / errs[1]
        assert abs(ratio - np.sqrt(10)) < 0.2 * np.sqrt(10)

    def test_batch_partials_recombine_exactly(self):
        est = rf.estimate_risk(ar1_config(n_paths=4096, seed=3, batch_size=512))
        assert len(est.batch_sums) == 8
        assert abs(sum(est.batch_sums) / 4096 - est.mean) < 1e-12

    def test_positive_mu_logspace(self):
        T = 2
        model = rf.build_ar1(0.5, 1.0, 0.0, 1.0, T)
        risk = rf.RiskSpec(mu=0.3, Q=np.ones(T))
        config = rf.ExperimentConfig(model=model, risk=risk, filter_kind="leg",
                                     n_paths=10**5, seed=4)
        est = rf.estimate_risk(config)
        sol = rf.solve_volterra(model, risk)
        closed = rf.optimal_risk(sol, risk, model.gains1)
        assert abs(est.mean - closed) <= 4 * est.stderr
        assert est.n_overflow == 0

    def test_overflow_dominated(self):
        # custom filter bypasses the feasibility gate: enormous mu overflows
        T = 1
        model = rf.build_general([0.0], [[1.0]], [0.0])
        risk = rf.RiskSpec(mu=2000.0, Q=np.ones(T))
        filt = rf.AffineFilter(intercept=np.zeros(T), gains=np.zeros((T, T)))
        config = rf.ExperimentConfig(model=model, risk=risk, filter_kind="custom",
                                     custom=filt, n_paths=10**4, seed=8)
        with pytest.raises(OverflowDominated):
            rf.estimate_risk(config)

    def test_positive_mu_large_exponents_below_cap(self):
        # exponents near 500 are under the cap but their squares overflow
        # linear space; both moments must still come out finite
        T = 5
        model = rf.build_ar1(0.5, 1.0, 0.0, 1.0, T)
        risk = rf.RiskSpec(mu=0.1, Q=np.ones(T))
        filt = rf.AffineFilter(intercept=np.full(T, 45.0), gains=np.zeros((T, T)))
        custom = rf.ExperimentConfig(model=model, risk=risk, filter_kind="custom",
                                     custom=filt, n_paths=4096, seed=3)
        leg = rf.ExperimentConfig(model=model, risk=risk, filter_kind="leg", n_paths=4096, seed=3)
        est = rf.estimate_risk(custom)
        assert est.n_overflow == 0
        assert np.isfinite(est.mean) and np.isfinite(est.stderr) and est.stderr > 0
        rep = rf.compare_filters(custom, leg)
        assert np.isfinite(rep.diff_mean) and np.isfinite(rep.diff_stderr)
        assert rep.diff_mean > 0

    def test_non_finite_mean_raises(self):
        # a handful of paths over the cap (under 0.1%) still overflow the mean
        T = 1
        model = rf.build_general([0.0], [[1.0]], [0.0])
        risk = rf.RiskSpec(mu=114.0, Q=np.ones(T))
        filt = rf.AffineFilter(intercept=np.zeros(T), gains=np.zeros((T, T)))
        config = rf.ExperimentConfig(model=model, risk=risk, filter_kind="custom",
                                     custom=filt, n_paths=10**4, seed=8)
        with pytest.raises(OverflowDominated):
            rf.estimate_risk(config)

    def test_no_nan_outputs(self):
        est = rf.estimate_risk(ar1_config(n_paths=2000))
        assert np.isfinite(est.mean)
        assert np.isfinite(est.stderr)
        assert all(np.isfinite(s) for s in est.batch_sums)

    def test_mean_square_criterion(self):
        config = ar1_config(n_paths=10**5, criterion="mean_square", kind="risk_neutral")
        est = rf.estimate_risk(config)
        # risk-neutral filter attains sum of filtered variances
        sol0 = rf.solve_volterra(config.model, rf.RiskSpec(mu=0.0, Q=np.zeros(3)))
        g = sol0.diag
        A = config.model.gains1
        expect = float(np.sum(g / (1 + A**2 * g)))
        assert abs(est.mean - expect) <= 4 * est.stderr


class TestCompareFilters:
    def test_identical_filters_zero(self):
        rep = rf.compare_filters(ar1_config(seed=2), ar1_config(seed=2))
        assert rep.diff_mean == 0.0
        assert rep.diff_stderr == 0.0

    def test_iid_signal_equal_pathwise(self):
        a = ar1_config(a=0.0, seed=6, n_paths=5000)
        b = ar1_config(a=0.0, seed=6, n_paths=5000, kind="risk_neutral")
        rep = rf.compare_filters(a, b)
        assert abs(rep.diff_mean) < 1e-14
        assert rep.diff_stderr < 1e-14

    def test_leg_beats_risk_neutral_significantly(self):
        a = ar1_config(seed=13, n_paths=10**6)
        b = ar1_config(seed=13, n_paths=10**6, kind="risk_neutral")
        rep = rf.compare_filters(a, b)
        assert rep.diff_mean < 0
        assert rep.diff_mean / rep.diff_stderr < -4

    @pytest.mark.parametrize("kind, mu", [("leg", -1.0), ("leg", 0.2), ("risk_neutral", 0.2)])
    def test_each_side_equals_estimate_risk(self, kind, mu):
        config = ar1_config(mu=mu, kind=kind, seed=17, n_paths=3000, batch_size=1024)
        other = ar1_config(mu=mu, kind="risk_neutral" if kind == "leg" else "leg",
                           seed=17, n_paths=3000, batch_size=1024)
        rep = rf.compare_filters(config, other)
        assert rep.estimate_a == rf.estimate_risk(config)
        assert rep.estimate_b == rf.estimate_risk(other)

    def test_shared_batch_size_required(self):
        with pytest.raises(ConfigError):
            rf.compare_filters(ar1_config(seed=1, batch_size=512), ar1_config(seed=1))

    def test_risk_neutral_with_correlated_noise(self):
        T = 3
        K = np.tril([[1.3, 0.0, 0.0], [0.6, 1.1, 0.0], [0.3, 0.5, 1.0]])
        C = np.array([[0.4, 0.0, 0.0], [0.3, -0.2, 0.0], [0.1, 0.0, 0.2]])
        model = rf.build_vector_model([0.2, -0.1, 0.0], K, [1.0, 0.8, 1.2], C)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(T))
        rn = rf.ExperimentConfig(model=model, risk=risk, filter_kind="risk_neutral",
                                 n_paths=20000, seed=3, batch_size=4096)
        est = rf.estimate_risk(rn)
        risk0 = rf.RiskSpec(mu=0.0, Q=np.zeros(T))
        probe = rf.oracle.affine_from_filter(
            lambda y: rf.filter_correlated(model, risk0, y).h_bar, T)
        assert abs(est.mean - rf.oracle.exact_affine_risk(model, risk, probe)) <= 4 * est.stderr
        resolved = sim._resolve_filter(rn)
        assert_allclose(resolved.intercept, probe.intercept, rtol=0, atol=1e-12)
        assert_allclose(resolved.gains, probe.gains, rtol=0, atol=1e-12)

    def test_shared_seed_required(self):
        with pytest.raises(ConfigError):
            rf.compare_filters(ar1_config(seed=1), ar1_config(seed=2))

    def test_shared_criterion_required(self):
        a = ar1_config(seed=1)
        b = ar1_config(seed=1, mu=-2.0)
        with pytest.raises(ConfigError):
            rf.compare_filters(a, b)


class TestExperimentConfig:
    def test_from_dict(self):
        cfg = {
            "model": {"kind": "ar1", "a": 0.9, "D": 1.0, "x0": 0.0, "A": 1.0, "T": 3},
            "risk": {"mu": -1.0, "Q": 1.0},
            "filter": {"kind": "leg"},
            "paths": 500,
            "seed": 11,
        }
        config = rf.ExperimentConfig.from_dict(cfg)
        assert config.n_paths == 500
        assert config.model.horizon == 3

    def test_custom_filter_requires_coefficients(self):
        cfg = {
            "model": {"kind": "ma1", "lambda": 0.2, "A": 1.0, "T": 2},
            "risk": {"mu": -1.0, "Q": 1.0},
            "filter": {"kind": "custom"},
        }
        with pytest.raises(ConfigError):
            rf.ExperimentConfig.from_dict(cfg)

    def test_custom_filter_round_trip(self):
        model = rf.build_ar1(0.8, 1.0, 0.0, 1.0, 3)
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(3))
        sol = rf.solve_volterra(model, risk)
        affine = rf.oracle.affine_from_filter(
            lambda y: rf.leg_filter(model, risk, y, solution=sol).h_bar, 3
        )
        leg = rf.ExperimentConfig(model=model, risk=risk, filter_kind="leg",
                                  n_paths=20000, seed=21)
        custom = rf.ExperimentConfig(model=model, risk=risk, filter_kind="custom",
                                     custom=affine, n_paths=20000, seed=21)
        ea = rf.estimate_risk(leg)
        eb = rf.estimate_risk(custom)
        assert_allclose(ea.mean, eb.mean, rtol=1e-12)


def _correlated_model():
    T = 3
    K = np.tril([[1.3, 0.0, 0.0], [0.6, 1.1, 0.0], [0.3, 0.5, 1.0]])
    C = np.array([[0.4, 0.0, 0.0], [0.3, -0.2, 0.0], [0.1, 0.0, 0.2]])
    return rf.build_vector_model([0.2, -0.1, 0.0], K, [1.0, 0.8, 1.2], C)


def test_leg_on_correlated_model_matches_exact_risk():
    model = _correlated_model()
    risk = rf.RiskSpec(mu=-1.0, Q=np.ones(model.horizon))
    est = rf.estimate_risk(rf.ExperimentConfig(model=model, risk=risk, filter_kind="leg",
                                               n_paths=20000, seed=7, batch_size=4096))
    exact = rf.oracle.exact_affine_risk(model, risk, rf.leg_affine(model, risk))
    assert abs(est.mean - exact) <= 6 * est.stderr


class TestResidualMap:
    @pytest.mark.parametrize("model_kind, kind", [
        ("ar1", "leg"), ("ar1", "risk_neutral"), ("ar1", "custom"),
        ("correlated", "leg"), ("correlated", "risk_neutral"), ("correlated", "custom"),
    ])
    def test_matches_sampled_residual(self, model_kind, kind):
        # L of the correlated model is not block-diagonal: eps loads on the signal's normals.
        model = rf.build_ar1(0.8, 1.0, 0.5, [1.0, 0.7, 1.3], 3) if model_kind == "ar1" else _correlated_model()
        T = model.horizon
        rng = np.random.default_rng(3)
        custom = rf.AffineFilter(intercept=rng.normal(size=T), gains=np.tril(rng.normal(size=(T, T))))
        config = rf.ExperimentConfig(model=model, risk=rf.RiskSpec(mu=-1.0, Q=np.ones(T)),
                                     filter_kind=kind, custom=custom if kind == "custom" else None)
        filt = sim._resolve_filter(config)
        L = sim._joint_factor(model)
        z = rng.standard_normal((512, 2 * T))
        draws = z @ L.T
        X = draws[:, :T] + model.flat_mean()
        Y = model.gains1 * X + draws[:, T:]
        r, R = sim._residual_map(model, L, filt)
        assert_allclose(r + z @ R.T, X - filt.apply(Y), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mu", [-1.0, 0.2])
    def test_results_do_not_depend_on_the_draw_threads(self, monkeypatch, mu):
        leg = ar1_config(mu=mu, n_paths=5000, seed=29, batch_size=1024)
        rn = ar1_config(mu=mu, n_paths=5000, seed=29, batch_size=1024, kind="risk_neutral")
        default = rf.estimate_risk(leg), rf.compare_filters(leg, rn)
        monkeypatch.setattr(sim, "DRAW_WORKERS", 1)
        assert (rf.estimate_risk(leg), rf.compare_filters(leg, rn)) == default

    def test_more_draw_threads_than_cores_under_fast_switching(self, monkeypatch):
        # A draw landing in a buffer the batch loop still reads would change the estimate.
        config = ar1_config(mu=0.2, n_paths=6000, seed=31, batch_size=256)
        monkeypatch.setattr(sim, "DRAW_WORKERS", 1)
        serial = rf.estimate_risk(config)
        monkeypatch.setattr(sim, "DRAW_WORKERS", 6)
        monkeypatch.setattr(sim, "_available_cpus", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = rf.estimate_risk(config)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
