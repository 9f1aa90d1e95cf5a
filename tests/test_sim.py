import contextlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
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

    def test_shared_cross_table_required(self):
        # Models differing only in K_Xeps: side b simulated under model a read -0.3270, estimate_risk(b) -0.4754.
        T = 4
        risk = rf.RiskSpec(mu=-1.0, Q=np.ones(T))
        filt = rf.AffineFilter(intercept=np.zeros(T), gains=0.5 * np.eye(T))
        a, b = (rf.ExperimentConfig(model=rf.build_vector_model(np.zeros(T), 2 * np.eye(T), np.ones(T), c * np.eye(T)),
                                    risk=risk, filter_kind="custom", custom=filt, n_paths=20000, seed=1)
                for c in (0.0, 0.6))
        with pytest.raises(ConfigError):
            rf.compare_filters(a, b)

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

    @pytest.mark.parametrize("batch_size", [0, -4096, 2.5, 1024.0, True, "1024", None])
    def test_batch_size_must_be_a_positive_integer(self, batch_size):
        # Only constructed: a size below 1 made the batch generator endless, so no estimate may run with one.
        with pytest.raises(ConfigError) as caught:
            ar1_config(batch_size=batch_size)
        assert caught.value.field == "batch_size"

    @pytest.mark.parametrize("field, value", [
        ("n_paths", 2.5), ("n_paths", "10"), ("n_paths", 0), ("n_paths", True), ("n_paths", None),
        ("seed", -1), ("seed", 2.5), ("seed", 2**64), ("seed", "7"), ("seed", None),
    ])
    def test_paths_and_seed_follow_the_config_rules(self, field, value):
        # Only constructed: no estimate may run with a path count or seed that a config would refuse.
        with pytest.raises(ConfigError) as caught:
            ar1_config(**{field: value})
        assert caught.value.field == field

    def test_integral_float_paths_and_seed_read_as_integers(self):
        config = ar1_config(n_paths=1000.0, seed=5.0)
        assert (type(config.n_paths), type(config.seed)) == (int, int)
        assert rf.estimate_risk(config) == rf.estimate_risk(ar1_config(n_paths=1000, seed=5))
        assert ar1_config(seed=2**64 - 1).seed == 2**64 - 1

    def test_custom_kind_needs_an_affine_filter(self):
        with pytest.raises(ConfigError) as caught:
            ar1_config(kind="custom")
        assert (caught.value.field, str(caught.value)) == ("filter", "custom filter requires coefficients")

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


# --- the batch loop before Monte Carlo batches moved onto the workers ---------
# Kept verbatim (module names qualified) as the reference the worker pipeline
# must match: draws ahead on threads, every product and sum on the calling thread.


def legacy_normals(seeds, sizes, width: int):
    from concurrent.futures import ThreadPoolExecutor

    workers = min(len(sizes), sim._available_cpus(), sim.DRAW_WORKERS)
    ring = [np.empty((sizes[0], width)) for _ in range(workers + 1)]

    def draw(b):
        out = ring[b % len(ring)][: sizes[b]]
        np.random.Generator(np.random.Philox(seeds[b])).standard_normal(out=out)
        return out

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        ahead = deque(pool.submit(draw, b) for b in range(workers))
        for b in range(len(sizes)):
            z = ahead.popleft().result()
            if b + workers < len(sizes):
                ahead.append(pool.submit(draw, b + workers))
            yield z
    finally:
        pool.shutdown(cancel_futures=True)


def legacy_monte_carlo(configs):
    first = configs[0]
    model, risk, n = first.model, first.risk, first.n_paths
    model._require_scalar()
    L = sim._joint_factor(model)
    maps = [sim._residual_map(model, L, sim._resolve_filter(c)) for c in configs]
    Q = risk.q_vector()
    exponential = first.criterion == "exponential"
    log_space = exponential and risk.mu > 0

    sizes = list(sim._batches(n, first.batch_size))
    batch_seeds = np.random.SeedSequence(first.seed).spawn(len(sizes))
    parts = [[] for _ in maps]
    diff_parts = []
    n_overflow = [0] * len(maps)
    with contextlib.closing(legacy_normals(batch_seeds, sizes, L.shape[0])) as batches, \
            np.errstate(over="ignore", invalid="ignore"):
        for z in batches:
            scaled = []
            for i, (r, R) in enumerate(maps):
                e = z @ R.T
                e += r
                np.square(e, out=e)
                u = e @ Q
                shift = 0.0
                if exponential:
                    expo = 0.5 * risk.mu * u
                    if log_space:
                        n_overflow[i] += int(np.count_nonzero(expo > sim.EXP_CAP))
                        shift = float(np.max(expo))
                    u = risk.mu * np.exp(expo - shift)
                parts[i].append((shift, math.fsum(u), math.fsum(u * u)))
                scaled.append((u, shift))
            if len(maps) == 2:
                (ua, sa), (ub, sb) = scaled
                top = max(sa, sb)
                d = ua * math.exp(sa - top) - ub * math.exp(sb - top)
                diff_parts.append((top, math.fsum(d), math.fsum(d * d)))

    if max(n_overflow) > sim.OVERFLOW_FRACTION * n:
        raise OverflowDominated(
            f"{max(n_overflow)} of {n} path exponents exceeded the exponent cap {sim.EXP_CAP:.0f}"
        )
    estimates = []
    for config, filt_parts, capped in zip(configs, parts, n_overflow):
        mean, stderr = sim._finish(filt_parts, n, "risk estimate")
        if log_space:
            batch_sums = tuple(shift + math.log(s1 / risk.mu) for shift, s1, _ in filt_parts)
        else:
            batch_sums = tuple(s1 for _, s1, _ in filt_parts)
        estimates.append(rf.RiskEstimate(mean=mean, stderr=stderr, n_paths=n, criterion=config.criterion,
                                         n_overflow=capped, batch_sums=batch_sums))
    diff = sim._finish(diff_parts, n, "paired difference") if diff_parts else None
    return estimates, diff


def assert_matches_legacy(configs):
    (new, new_diff), (old, old_diff) = sim._monte_carlo(configs), legacy_monte_carlo(configs)
    if len(old[0].batch_sums) == 1:
        assert (new, new_diff) == (old, old_diff)
        return
    scale = max(max(abs(a.mean), abs(b.mean)) for a, b in zip(new, old))
    for a, b in zip(new, old):
        assert (a.n_paths, a.criterion, a.n_overflow) == (b.n_paths, b.criterion, b.n_overflow)
        assert abs(a.mean - b.mean) <= 1e-12 * scale
        assert abs(a.stderr - b.stderr) <= 1e-12 * scale
        assert len(a.batch_sums) == len(b.batch_sums)
        for x, y in zip(a.batch_sums, b.batch_sums):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y))
    assert (new_diff is None) == (old_diff is None)
    if old_diff is not None:
        assert all(abs(x - y) <= 1e-12 * scale for x, y in zip(new_diff, old_diff))


class TestMatchesLegacyLoop:
    # T = 25 makes tiles of 2**18 // (25 * 50) = 209 paths: 1024-path batches end in a part tile.
    @pytest.mark.parametrize("mu", [-1.0, 0.2])
    @pytest.mark.parametrize("n_paths, batch_size", [
        (4096, 1024),  # full batches, rows not a multiple of the tile
        (5000, 1024),  # ragged last batch
        (150, 64),  # every batch below one tile
        (3000, 1 << 15),  # one batch: bitwise
    ])
    def test_estimate_and_comparison(self, mu, n_paths, batch_size):
        leg = ar1_config(T=25, mu=mu, n_paths=n_paths, seed=41, batch_size=batch_size)
        rn = ar1_config(T=25, mu=mu, n_paths=n_paths, seed=41, batch_size=batch_size, kind="risk_neutral")
        assert_matches_legacy([leg])
        assert_matches_legacy([leg, rn])

    @pytest.mark.parametrize("n_paths", [5000, 1000])
    def test_mean_square(self, n_paths):
        leg = ar1_config(T=25, n_paths=n_paths, seed=43, batch_size=1024, criterion="mean_square")
        rn = ar1_config(T=25, n_paths=n_paths, seed=43, batch_size=1024, criterion="mean_square",
                        kind="risk_neutral")
        assert_matches_legacy([leg, rn])

    @pytest.mark.parametrize("workers", [2, 6])
    def test_nine_batches(self, monkeypatch, workers):
        monkeypatch.setattr(sim, "DRAW_WORKERS", workers)
        monkeypatch.setattr(sim, "_available_cpus", lambda: workers)
        leg = ar1_config(T=25, mu=0.2, n_paths=9 * 512 - 100, seed=47, batch_size=512)
        rn = ar1_config(T=25, mu=0.2, n_paths=9 * 512 - 100, seed=47, batch_size=512, kind="risk_neutral")
        assert len(rf.estimate_risk(leg).batch_sums) == 9
        assert_matches_legacy([leg, rn])

    @pytest.mark.parametrize("mu, batch_size", [(-1.0, 4096), (0.2, 4096), (-1.0, 1 << 15)])
    def test_correlated_model_and_custom_filter(self, mu, batch_size):
        model = _correlated_model()
        T = model.horizon
        risk = rf.RiskSpec(mu=mu, Q=np.ones(T))
        rng = np.random.default_rng(3)
        filt = rf.AffineFilter(intercept=rng.normal(size=T), gains=np.tril(rng.normal(size=(T, T))) / T)
        leg = rf.ExperimentConfig(model=model, risk=risk, n_paths=20000, seed=7, batch_size=batch_size)
        custom = rf.ExperimentConfig(model=model, risk=risk, filter_kind="custom", custom=filt,
                                     n_paths=20000, seed=7, batch_size=batch_size)
        assert_matches_legacy([custom])
        assert_matches_legacy([leg, custom])

    def test_overflow_dominated_abort(self):
        model = rf.build_general([0.0], [[1.0]], [0.0])
        config = rf.ExperimentConfig(model=model, risk=rf.RiskSpec(mu=2000.0, Q=np.ones(1)), filter_kind="custom",
                                     custom=rf.AffineFilter(intercept=np.zeros(1), gains=np.zeros((1, 1))),
                                     n_paths=10**4, seed=8, batch_size=1024)
        with pytest.raises(OverflowDominated) as old:
            legacy_monte_carlo([config])
        with pytest.raises(OverflowDominated) as new:
            rf.estimate_risk(config)
        assert str(new.value) == str(old.value)


class TestChunkedBatches:
    # T = 25 makes tiles of 209 paths. Batches of 4096 run as chunks of 1 tile (209 paths), of 3 tiles (627) or
    # of the default 8 (1,672), each ending in a ragged chunk: by default 1,672, 1,672 and 752 paths, the last
    # 3 tiles and 125 paths. The last batch, 1000 paths, is shorter than one chunk. One batch of 3000 paths
    # runs on the calling thread as two chunks by default, 1,672 and 1,328 paths.
    @pytest.mark.parametrize("criterion, mu, n_paths, batch_size", [
        pytest.param("exponential", -1.0, 3 * 4096 + 1000, 4096, id="exponential--1.0"),
        pytest.param("exponential", 0.2, 3 * 4096 + 1000, 4096, id="exponential-0.2"),
        pytest.param("mean_square", -1.0, 3 * 4096 + 1000, 4096, id="mean_square--1.0"),
        pytest.param("exponential", 0.2, 3000, 1 << 15, id="one-batch-exponential-0.2"),
        pytest.param("mean_square", -1.0, 3000, 1 << 15, id="one-batch-mean_square--1.0"),
    ])
    def test_chunk_size_moves_no_bit(self, monkeypatch, criterion, mu, n_paths, batch_size):
        leg, rn = (ar1_config(T=25, mu=mu, n_paths=n_paths, seed=59, batch_size=batch_size, criterion=criterion,
                              kind=kind) for kind in ("leg", "risk_neutral"))

        def results():  # repr tells -0.0 from 0.0 and spells every float exactly
            return repr((rf.estimate_risk(leg), rf.compare_filters(leg, rn)))

        default = results()
        for tiles in (1, 3, 1 << 30):  # 1 << 30 tiles: each batch is one chunk
            monkeypatch.setattr(sim, "CHUNK_TILES", tiles)
            assert results() == default, tiles

    @pytest.mark.parametrize("width", [50, 51])
    def test_chunked_draws_equal_one_draw(self, width):
        # Chunked batches rest on this: standard_normal(out=...) calls on one generator continue one stream.
        seed = np.random.SeedSequence(61).spawn(2)[1]
        whole = np.empty((2000, width))
        np.random.Generator(np.random.Philox(seed)).standard_normal(out=whole)
        chunked = np.empty_like(whole)
        draw = np.random.Generator(np.random.Philox(seed)).standard_normal
        for start, rows in zip(np.cumsum([0, 627, 1, 3, 627]), [627, 1, 3, 627, 742]):
            draw(out=chunked[start: start + rows])
        assert chunked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n_paths", [pytest.param(4 << 15, id="4-batches"), pytest.param(1 << 15, id="1-batch")])
    def test_comparison_holds_chunks_not_batches(self, n_paths):
        # Whole-batch buffers made this 154 MB on two workers and 82 MB for one batch on the calling
        # thread: 2**15 paths of z (200 floats) and e (100) each.
        leg, rn = (ar1_config(T=100, mu=0.2, n_paths=n_paths, seed=67, kind=kind) for kind in ("leg", "risk_neutral"))
        tracemalloc.start()
        try:
            rf.compare_filters(leg, rn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def _outcome(total):
    """repr of total() (repr tells -0.0 from 0.0), or of the error it raises."""
    try:
        with np.errstate(over="ignore"):
            return repr(total())
    except (OverflowError, ValueError) as exc:
        return repr(exc)


def assert_is_fsum(values, block, square):
    expected = _outcome(lambda: math.fsum((values * values if square else values).tolist()))
    assert _outcome(lambda: sim._exact_sum(values, np.empty(block), square)) == expected


_N = 2048
_WEIGHTS = -0.7 * np.exp(np.random.default_rng(71).normal(scale=20.0, size=_N))  # mu exp(...), mu < 0


class TestExactSum:
    """sim._exact_sum is math.fsum of the list, bit for bit, for every block size."""

    @given(
        values=hnp.arrays(np.float64, st.integers(1, 200), elements=st.one_of(
            st.floats(-1e3, 1e3),
            st.floats(width=64),  # subnormals, +-0.0, 1e+-300, nan, +-inf, near DBL_MAX
            st.sampled_from([0.0, -0.0, 5e-324, -2.0**-1022, 1.7e308, -1e300, 1e-300]),
        )),
        block=st.integers(1, 64),
        square=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_arrays(self, values, block, square):
        assert_is_fsum(values, block, square)

    @pytest.mark.parametrize("values", [
        pytest.param(np.full(100, -0.0), id="all-negative-zero"),
        pytest.param(np.array([-0.0, 0.0, -0.0]), id="mixed-zeros"),
        pytest.param(np.array([1.0, -1.0, 2.0**-60, -(2.0**-60)]), id="cancelling"),
        pytest.param(np.random.default_rng(72).integers(-(1 << 52), 1 << 52, _N) * 5e-324, id="subnormals"),
        pytest.param(np.random.default_rng(73).normal(size=_N) * 10.0 ** np.linspace(-300, 300, _N), id="1e+-300"),
        pytest.param(_WEIGHTS, id="mu-exp-weights"),
        pytest.param(np.exp(np.random.default_rng(74).normal(size=1 << 15)), id="one-batch-of-weights"),
        pytest.param(np.concatenate([_WEIGHTS, [np.nan]]), id="nan"),
        pytest.param(np.concatenate([_WEIGHTS, [np.inf]]), id="inf"),
        pytest.param(np.array([np.inf, -np.inf]), id="inf-minus-inf"),
        pytest.param(np.full(8, 1.7e308), id="intermediate-overflow"),
        pytest.param(np.array([np.finfo(float).max / 8.0, 1.0, -1e-300]), id="near-overflow"),
    ])
    @pytest.mark.parametrize("block", [1, 3, 209, 3344, 1 << 16])
    @pytest.mark.parametrize("square", [False, True])
    def test_edge_arrays(self, values, block, square):
        assert_is_fsum(values, block, square)


@pytest.mark.parametrize("n_paths", [pytest.param(4 << 15, id="4-batches"), pytest.param(1 << 15, id="1-batch")])
def test_reduction_holds_no_batch_sized_temporary(n_paths):
    # A worker may hold its chunk-sized z and e and one n-float array per filter, plus 10% for the
    # rest; the out-of-place reduction's batch-sized temporaries made this 4.9 and 9.6 MB on two workers.
    T, width = 25, 50
    leg, rn = (ar1_config(T=T, mu=0.2, n_paths=n_paths, seed=67, kind=kind) for kind in ("leg", "risk_neutral"))
    chunk = min(sim.CHUNK_TILES * max(1, sim.TILE_MADDS // (T * width)), 1 << 15)
    workers = min(n_paths >> 15, sim._available_cpus(), sim.DRAW_WORKERS)
    rf.compare_filters(leg, rn)  # imports and first-use set-up outside the trace
    tracemalloc.start()
    try:
        rf.compare_filters(leg, rn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * workers * 8 * (chunk * (width + T) + 2 * (1 << 15))


@pytest.mark.parametrize("n_paths, bound", [
    # Two workers, each with 1 MB of z and e for 1,672 paths and 0.5 MB of weights.
    pytest.param(4 << 15, 3.5e6, id="4-batches"),
    pytest.param(1 << 15, 1.8e6, id="1-batch"),
])
def test_traced_peak_of_a_comparison(monkeypatch, n_paths, bound):
    # A thread pool whose workers held 16-tile chunks beside the idle calling thread peaked at 5.3 and 2.7 MB.
    monkeypatch.setattr(sim, "_available_cpus", lambda: 2)
    leg, rn = (ar1_config(T=25, mu=0.2, n_paths=n_paths, seed=67, kind=kind) for kind in ("leg", "risk_neutral"))
    rf.compare_filters(leg, rn)  # imports and first-use set-up outside the trace
    tracemalloc.start()
    try:
        rf.compare_filters(leg, rn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_several_batches_start_one_thread_besides_the_caller(monkeypatch):
    monkeypatch.setattr(sim, "_available_cpus", lambda: 2)
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    estimate = rf.estimate_risk(ar1_config(T=25, mu=0.2, n_paths=4 << 15, seed=67))
    assert len(estimate.batch_sums) == 4
    assert len(started) == 1


def test_several_batches_import_no_executor():
    # concurrent.futures also imports logging; plain threads import neither.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import rsfilt as rf\n"
        "from rsfilt import sim\n"
        "sim._available_cpus = lambda: 2\n"
        "model = rf.build_ar1(0.9, 1.0, 0.0, 1.0, 25)\n"
        "config = rf.ExperimentConfig(model=model, risk=rf.RiskSpec(mu=0.2, Q=np.ones(25)), n_paths=4 << 15)\n"
        "assert len(rf.estimate_risk(config).batch_sums) == 4\n"
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(rf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("compare, workers", [
    pytest.param(False, 2, id="False"),
    pytest.param(True, 2, id="True"),
    pytest.param(False, 1, id="one-worker-False"),
    pytest.param(True, 1, id="one-worker-True"),
])
def test_failure_in_a_job_cancels_the_rest(monkeypatch, compare, workers):
    monkeypatch.setattr(sim, "DRAW_WORKERS", workers)
    monkeypatch.setattr(sim, "_available_cpus", lambda: 2)
    boom = RuntimeError("batch 3 failed")
    started = []
    batch = sim._batch

    def failing(seed, *args):
        (b,) = seed.spawn_key
        started.append(b)
        if b == 3:
            raise boom
        if b > 3:  # hold the workers so the queued batches are still queued when the caller shuts down
            time.sleep(0.2)
        return batch(seed, *args)

    monkeypatch.setattr(sim, "_batch", failing)
    leg = ar1_config(T=25, n_paths=8 * 256, seed=53, batch_size=256)
    rn = ar1_config(T=25, n_paths=8 * 256, seed=53, batch_size=256, kind="risk_neutral")
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        rf.compare_filters(leg, rn) if compare else rf.estimate_risk(leg)
    assert caught.value is boom
    assert threading.active_count() == threads
    assert 3 in started and not {6, 7} & set(started)
    assert workers > 1 or started == [0, 1, 2, 3]  # one worker runs the batches in order and stops at the failure
