import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import rsfilt as rf
from rsfilt.errors import DimensionMismatch, InfeasibleCondition, SingularInnovationMatrix
from rsfilt.volterra import CLAUSE_DENOM, CLAUSE_DIAG, FEAS_TOL, OVERFLOW, PANEL, _weights

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
    An auxiliary coordinate whose row of Qp_t is zero observes nothing and is
    left out, so mu = 0 and zero weights work (Qp_t's nonzero rows must be
    independent, as for diagonal Q).
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
        obs += [*range(s * m, (s + 1) * m), *(T * m + s * n + i for i in range(n) if np.any(Qp[s, i]))]
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

    def test_sufficient_condition_vector_model(self):
        # S_t = I - mu Q_t; at step 4 Q_t = R diag(0.1, 5) R' gives S_4 one negative eigenvalue (-1.5).
        T, mu = 6, 0.5
        K = np.tril(fgn_kernel(T, 0.7))[:, :, None, None] * np.eye(2)
        model = rf.build_vector_model(np.zeros((T, 2)), K, np.tile(np.eye(2), (T, 1, 1)))
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        Q = np.tile(0.1 * np.eye(2), (T, 1, 1))
        assert rf.sufficient_condition_positive_mu(model, rf.RiskSpec(mu=mu, Q=Q))
        Q[3] = R @ np.diag([0.1, 5.0]) @ R.T
        assert not rf.sufficient_condition_positive_mu(model, rf.RiskSpec(mu=mu, Q=Q))

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


def legacy_solve_volterra(model, risk):
    """The column-by-column scalar solve the panel kernel replaced, kept verbatim as its reference."""
    model._require_scalar()
    if model.cross_cov is not None:
        raise SingularInnovationMatrix(
            "scalar solver requires independent observation noise; use solve_volterra_correlated"
        )
    K = model.cov2
    T = model.horizon
    S = _weights(risk, model.gains1)
    if S.shape != (T,):
        raise DimensionMismatch(f"risk weights have horizon {S.shape[0]}, model has {T}")

    gam = np.zeros((T, T))
    w = np.zeros(T)  # S_l / (1 + S_l * gbar_l)
    feasible, violation, clause = True, None, None
    for s in range(T):
        gam[s:, s] = K[s:, s] - gam[s:, :s] @ (gam[s, :s] * w[:s])
        g = gam[s, s]
        denom = 1.0 + float(S[s]) * float(g)  # Python floats overflow to inf without a warning
        if g < -FEAS_TOL:
            feasible, violation, clause = False, s + 1, CLAUSE_DIAG
        elif not math.isfinite(denom):
            raise SingularInnovationMatrix(f"innovation covariance at step {s + 1} {OVERFLOW}", step=s + 1)
        elif denom <= FEAS_TOL:
            feasible, violation, clause = False, s + 1, CLAUSE_DENOM
        if not feasible:
            gam[:, s + 1 :] = 0.0
            break
        w[s] = S[s] / denom
    return rf.VolterraSolution(
        gamma_bar=gam, S=S, mu=risk.mu, feasible=feasible,
        first_violation=violation, violated_clause=clause,
    )


def verdict(sol):
    return sol.feasible, sol.first_violation, sol.violated_clause


def test_negative_pivot_inside_the_psd_floor():
    # K's worst eigenvalue, about -1e-10, is inside check_psd's -2e-10 floor; at mu = -1e12 the step-2 pivot
    # 1 - 2e-10 - (1 - 1/(1 + S_1)) is about -2e-10, below -FEAS_TOL.
    model = rf.build_general([0.0, 0.0], [[1.0, 0.0], [1.0, 1.0 - 2e-10]], [1.0, 1.0])
    risk = rf.RiskSpec(mu=-1e12, Q=np.ones(2))
    assert verdict(rf.solve_volterra(model, risk)) == verdict(legacy_solve_volterra(model, risk)) == (False, 2, CLAUSE_DIAG)


class TestPanelKernel:
    """The panel-blocked scalar solve against the column loop it replaced:
    same verdicts and exception steps, tables equal up to rounding."""

    @staticmethod
    def _model(T, scale=1.0, seed=13):
        rng = np.random.default_rng(seed)
        K = scale * fgn_kernel(T, 0.8)
        model = rf.build_general(rng.normal(size=T), np.tril(K), rng.uniform(0.5, 1.5, T))
        return model, K, rng.uniform(0.5, 1.5, T)

    def _assert_matches_legacy(self, model, risk):
        T = model.horizon
        sol, ref = rf.solve_volterra(model, risk), legacy_solve_volterra(model, risk)
        assert verdict(sol) == verdict(ref)
        if T <= PANEL:
            assert np.array_equal(sol.gamma_bar, ref.gamma_bar)
        assert_allclose(sol.gamma_bar, ref.gamma_bar, rtol=1e-14, atol=1e-14 * np.max(np.abs(ref.gamma_bar)))
        assert not np.any(sol.gamma_bar[np.triu_indices(T, 1)])
        if not sol.feasible:
            assert not np.any(sol.gamma_bar[:, sol.first_violation :])
        return sol

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("T", [1, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 1, 100, 800])
    def test_matches_legacy(self, T, mu):
        model, _, Q = self._model(T)
        self._assert_matches_legacy(model, rf.RiskSpec(mu=mu, Q=Q))

    @pytest.mark.parametrize("step", [PANEL, PANEL + 1, 2 * PANEL + 7, 100])
    def test_violation_at_a_panel_edge_or_inside(self, step):
        # A weight spike at one step: S_step = A^2 - 1e4 makes 1 + S gbar negative there and nowhere before.
        T = 100
        model, K, Q = self._model(T)
        Q = np.full(T, 0.1)
        Q[step - 1] = 1e4
        risk = rf.RiskSpec(mu=1.0, Q=Q)
        sol = self._assert_matches_legacy(model, risk)
        assert verdict(sol) == (False, step, CLAUSE_DENOM)
        S = model.gains1**2 - Q
        g = ldl_pivots(K + np.diag(1.0 / S)) - 1.0 / S
        want = next(s for s in range(T) if g[s] < -1e-12 or 1.0 + S[s] * g[s] <= 1e-12)
        assert want + 1 == step
        assert_allclose(sol.diag[:step], g[:step], rtol=1e-10, atol=1e-10)

    def test_overflow_in_a_later_panel_raises_at_its_step(self):
        # 1 + S_70 gbar_70 with S_70 = 1e308 and gbar_70 > 2 overflows; earlier steps are ordinary.
        T, step = 100, 2 * PANEL + 6
        model, _, Q = self._model(T, scale=4.0)
        Q[step - 1] = 1e308
        risk = rf.RiskSpec(mu=-1.0, Q=Q)
        for solve in (legacy_solve_volterra, rf.solve_volterra):
            with pytest.raises(SingularInnovationMatrix, match=f"step {step} {OVERFLOW}") as exc:
                solve(model, risk)
            assert exc.value.step == step


def held_after(solve, model, risk):
    """The solution and the traced bytes still held once ``solve`` has returned."""
    solve(model, risk)  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        sol = solve(model, risk)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return sol, held


class TestInfeasibleColumns:
    """An infeasible solve keeps the k columns its recursion reached, and S: (k + 1) T floats, or
    (k + 1) T n^2 blockwise, against a T^2-float table. Its ``gamma_bar`` reads as the padded table."""

    HEADERS = 4096  # array and solution headers, and Python's free list of the floats the solve used

    @staticmethod
    def _spiked(T, step):
        # A weight spike at one step makes 1 + S gbar negative there and nowhere before.
        Q = np.full(T, 0.1)
        Q[step - 1] = 1e4
        return rf.RiskSpec(mu=1.0, Q=Q)

    @pytest.mark.parametrize("step", [1, 20])
    def test_scalar_solve_holds_the_columns_reached(self, step):
        T = 800
        model, _, _ = TestPanelKernel._model(T)
        sol, held = held_after(rf.solve_volterra, model, self._spiked(T, step))
        assert verdict(sol) == (False, step, CLAUSE_DENOM)
        assert held <= (step + 1) * T * 8 + self.HEADERS

    @pytest.mark.parametrize("step", [1, 45])
    def test_correlated_solve_holds_the_columns_reached(self, step):
        T, n = 200, 2
        K = np.eye(T)[:, :, None, None] * np.eye(n) + 0.3
        model = rf.build_vector_model(np.zeros((T, n)), K, np.ones((T, 1, n)))
        Q = np.tile(0.05 * np.eye(n), (T, 1, 1))
        Q[step - 1] = 50.0 * np.eye(n)
        sol, held = held_after(rf.solve_volterra_correlated, model, rf.RiskSpec(mu=1.0, Q=Q))
        assert verdict(sol) == (False, step, CLAUSE_DENOM)
        assert held <= (step + 1) * T * n * n * 8 + self.HEADERS
        assert sol.gamma_bar.shape == (T, T, n, n) and not np.any(sol.gamma_bar[:, step:])
        assert sol.diag.shape == (T, n, n) and not np.any(sol.diag[step:]) and np.all(sol.diag[:step])

    def test_mu_scan_holds_a_table_per_feasible_point(self):
        T = 400
        model, _, Q = TestPanelKernel._model(T)
        risks = [rf.RiskSpec(mu=mu, Q=Q) for mu in (-2.0, -0.5, 0.1, 0.5, 1.2, 2.0)]
        [rf.solve_volterra(model, risk) for risk in risks]
        tracemalloc.start()
        try:
            sols = [rf.solve_volterra(model, risk) for risk in risks]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        feasible = sum(sol.feasible for sol in sols)
        assert 0 < feasible < len(sols)
        assert held <= (feasible + 0.1) * T * T * 8

    @pytest.mark.parametrize("step", [1, 2, PANEL - 1, PANEL])
    @pytest.mark.parametrize("T", [PANEL, 100, 800])
    def test_padded_reads_match_legacy_bitwise(self, T, step):
        # Within the first panel the kernel's arithmetic is the column loop's, so every read is bitwise equal.
        model, _, _ = TestPanelKernel._model(T)
        risk = self._spiked(T, step)
        sol, ref = rf.solve_volterra(model, risk), legacy_solve_volterra(model, risk)
        assert verdict(sol) == verdict(ref) == (False, step, CLAUSE_DENOM)
        assert sol.horizon == T
        for got, want in ((sol.gamma_bar, ref.gamma_bar), (sol.diag, ref.diag)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert sol.to_dict() == ref.to_dict()


class TestPackedRows:
    """Every solution stores the row-packed lower triangle of the columns it reached: about half
    the table a feasible solve held before. Its reads are the working table's, bit for bit."""

    HEADERS = TestInfeasibleColumns.HEADERS

    @staticmethod
    def _correlated(T, step=None, n=2):
        K = np.eye(T)[:, :, None, None] * np.eye(n) + 0.3
        model = rf.build_vector_model(np.zeros((T, n)), K, np.ones((T, 1, n)))
        Q = np.tile(0.05 * np.eye(n), (T, 1, 1))
        if step:
            Q[step - 1] = 50.0 * np.eye(n)
        return model, rf.RiskSpec(mu=1.0, Q=Q)

    def _solve(self, kernel, T, step):
        if kernel == "scalar":
            model, _, Q = TestPanelKernel._model(T)
            risk = TestInfeasibleColumns._spiked(T, step) if step else rf.RiskSpec(mu=-0.5, Q=Q)
            return rf.solve_volterra(model, risk)
        return rf.solve_volterra_correlated(*self._correlated(T, step))

    def test_scalar_solve_holds_its_packed_rows(self):
        # The packed rows, T(T + 1) / 2 floats, and S, T floats; the full table would be T^2 floats.
        T = 800
        model, _, Q = TestPanelKernel._model(T)
        sol, held = held_after(rf.solve_volterra, model, rf.RiskSpec(mu=-0.5, Q=Q))
        assert sol.feasible
        assert held <= (T * (T + 1) // 2 + T) * 8 + self.HEADERS

    def test_correlated_solve_holds_its_packed_rows(self):
        T, n = 200, 2
        sol, held = held_after(rf.solve_volterra_correlated, *self._correlated(T))
        assert sol.feasible
        assert held <= (T * (T + 1) // 2 + T) * n * n * 8 + self.HEADERS

    def test_mu_scan_holds_half_a_table_per_feasible_point(self):
        T = 400
        model, _, Q = TestPanelKernel._model(T)
        risks = [rf.RiskSpec(mu=mu, Q=Q) for mu in (-2.0, -0.5, 0.1, 0.5, 1.2, 2.0)]
        [rf.solve_volterra(model, risk) for risk in risks]
        tracemalloc.start()
        try:
            sols = [rf.solve_volterra(model, risk) for risk in risks]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        feasible = sum(sol.feasible for sol in sols)
        assert 0 < feasible < len(sols)
        assert held <= ((T + 1) / (2 * T) * feasible + 0.1) * T * T * 8

    def test_traced_peak_of_a_feasible_solve(self):
        # The working table and the packed rows are alive together while the rows are copied.
        T = 800
        model, _, Q = TestPanelKernel._model(T)
        risk = rf.RiskSpec(mu=-0.5, Q=Q)
        rf.solve_volterra(model, risk)
        tracemalloc.start()
        try:
            sol = rf.solve_volterra(model, risk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.feasible
        assert peak <= 1.55 * T * T * 8

    @pytest.mark.parametrize("T, step", [(1, None), (1, 1), (16, None), (16, 15), (17, None), (17, 1), (17, 17),
                                         (40, None), (40, 16), (40, 33)])
    @pytest.mark.parametrize("kernel", ["scalar", "correlated"])
    def test_reads_are_the_working_tables(self, kernel, T, step, monkeypatch):
        # Packing only copies: gamma_bar, diag and to_dict() are the kernel's own table with the
        # entries above the diagonal and after the columns reached zeroed, bit for bit.
        tables = []
        pack = rf.volterra._pack
        monkeypatch.setattr(rf.volterra, "_pack", lambda table, k: tables.append(table.copy()) or pack(table, k))
        sol = self._solve(kernel, T, step)
        assert (sol.feasible, sol.first_violation) == (step is None, step)
        k = step or T
        (table,) = tables
        kept = np.tri(T, dtype=bool) & (np.arange(T) < k)
        want = np.where(kept.reshape(kept.shape + (1,) * (table.ndim - 2)), table, 0.0)
        got = sol.gamma_bar
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert sol.diag.tobytes() == want[np.arange(T), np.arange(T)].tobytes()
        assert json.dumps(sol.to_dict()) == json.dumps({**sol.to_dict(), "gamma_bar": want.tolist()})
        built = rf.VolterraSolution(want[:, :k], sol.S, sol.mu, sol.feasible, sol.first_violation, sol.violated_clause)
        assert json.dumps(built.to_dict()) == json.dumps(sol.to_dict())

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 0.5])
    @pytest.mark.parametrize("T", [1, 16, 17, PANEL])
    def test_feasible_reads_match_legacy_bitwise(self, T, mu):
        model, _, Q = TestPanelKernel._model(T)
        risk = rf.RiskSpec(mu=mu, Q=Q)
        sol, ref = rf.solve_volterra(model, risk), legacy_solve_volterra(model, risk)
        assert verdict(sol) == verdict(ref) == (True, None, None)
        for got, want in ((sol.gamma_bar, ref.gamma_bar), (sol.diag, ref.diag)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert sol.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("T, n", [(100, 2), (800, None)])
    @pytest.mark.parametrize("reached", ["all", "some"])
    def test_pack_is_the_row_major_lower_triangle(self, T, n, reached):
        # The correlated kernel packs a strided view of (T, T) blocks; the scalar kernel a (T, T) table.
        rng = np.random.default_rng(T)
        k = T if reached == "all" else T // 3
        if n:
            table = rng.normal(size=(T * n, T * n)).reshape(T, n, T, n).transpose(0, 2, 1, 3)
        else:
            table = rng.normal(size=(T, T))
        want = table[:, :k][np.tri(T, k, dtype=bool)]
        for given in (table, table[:, :k]):
            got = rf.volterra._pack(given, k)
            assert got.shape == want.shape == ((k * (k + 1) // 2 + (T - k) * k),) + table.shape[2:]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("step", [None, 5])
    @pytest.mark.parametrize("kernel", ["scalar", "correlated"])
    def test_writing_into_a_read_leaves_the_solution(self, kernel, step):
        sol = self._solve(kernel, 40, step)
        table, diag = sol.gamma_bar, sol.diag
        before = table.tobytes(), diag.tobytes()
        table += 1.0
        diag += 1.0
        assert (sol.gamma_bar.tobytes(), sol.diag.tobytes()) == before


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

    @pytest.mark.parametrize("mu", [1e300, -1e300, 1e160])
    def test_overflowing_innovation_covariance_reported(self, mu):
        model = rf.build_ar1_noise(0.7, 0.4, 1.0, 0.4, 4)
        with pytest.raises(SingularInnovationMatrix, match="step 1 overflows") as info:
            rf.solve_volterra_correlated(model, rf.RiskSpec(mu=mu, Q=np.ones(4)))
        assert info.value.step == 1

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


def vector_corr_models(seed, op, T=100):
    """The models of the vector_corr benchmark's op ``op``: every op's generator
    built as a vector model, and a preset op's also as its preset, each with its
    (T, 2, 2) weight blocks."""
    kinds = ("vector", "ar1_noise", "ma1_observations")
    kind = kinds[op % 3]

    def draw():
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(op,)))

    g = draw()
    c = g.normal(size=2)
    lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
    K = fgn_kernel(T, float(g.uniform(0.6, 0.9)))[:, :, None, None] * (np.outer(c, c) + 0.1 * np.eye(2))
    K = K + (float(g.uniform(0.3, 0.9)) ** lag)[:, :, None, None] * np.diag(g.uniform(0.2, 1.0, 2))
    model = rf.build_vector_model(g.normal(size=(T, 2)) * 0.3, K, g.uniform(0.5, 1.5, (T, 1, 2)))
    out = [("vector", model, g.uniform(0.5, 1.5, T)[:, None, None] * np.eye(2))]
    if kind == "vector":
        return out
    g = draw()
    if kind == "ar1_noise":
        a, b, alpha, beta = g.uniform(0.5, 0.95, T), g.uniform(-0.8, 0.8), g.uniform(0.5, 1.5, T), g.uniform(-0.8, 0.8)
        preset = rf.build_ar1_noise(a, b, alpha, beta, T)
    else:
        lam, alpha, beta = g.uniform(-0.8, 0.8), g.uniform(0.5, 1.5, T), g.uniform(-0.8, 0.8)
        preset = rf.build_ma1_observations(lam, alpha, beta, T)
    # the presets penalize X_t only, not eps_{t-1}
    return out + [(kind, preset, g.uniform(0.5, 1.5, T)[:, None, None] * np.diag([1.0, 0.0]))]


class TestLeftLookingKernel:
    """Step checks run a panel late; the verdict is still the step-by-step one."""

    @pytest.mark.parametrize("later", ["singular", "overflow"])
    def test_violation_before_a_failing_step_is_reported(self, later):
        # Step 2 is infeasible (1 + S_2 gbar_2 = -8); step 3, in the same panel, fails on its own.
        T = 6
        C = np.zeros((T, T))
        Q = np.full(T, 0.1)
        if later == "singular":
            C[2, 2] = -1.0  # Y_3 = X_3 + eps_3 with Cov(X_3, eps_3) = -Var X_3: a noiseless zero
        else:
            Q[2] = 1e300  # V_3 overflows
        model = rf.build_vector_model(np.zeros(T), np.eye(T), np.ones(T), C)
        with pytest.raises(SingularInnovationMatrix, match=f"step 3 {'is singular' if later == 'singular' else 'overflows'}"):
            rf.solve_volterra_correlated(model, rf.RiskSpec(mu=1.0, Q=Q))
        Q[1] = 10.0
        sol = rf.solve_volterra_correlated(model, rf.RiskSpec(mu=1.0, Q=Q))
        assert (sol.feasible, sol.first_violation, sol.violated_clause) == (False, 2, CLAUSE_DENOM)
        assert np.all(np.isfinite(sol.gamma_bar))
        assert not np.any(sol.gamma_bar[:, 2:])
        assert_allclose(sol.gamma_bar[:, :2, 0, 0], np.eye(T)[:, :2], atol=1e-15)

    def test_step_failing_two_checks_reports_the_first(self):
        # gbar_1 = diag(1, -1) is not PSD and V_1 = 1 + A_1 gbar_1 A_1' = 0 is singular.
        T = 3
        cov = np.zeros((T, T, 2, 2))
        cov[np.arange(T), np.arange(T)] = np.eye(2)
        cov[0, 0] = np.diag([1.0, -1.0])
        model = rf.GaussianModel(mean=np.zeros((T, 2)), cov=cov, gains=np.tile([[0.0, 1.0]], (T, 1, 1)))
        sol = rf.solve_volterra_matrix(model, rf.RiskSpec(mu=0.0, Q=np.zeros(T)))
        assert (sol.feasible, sol.first_violation, sol.violated_clause) == (False, 1, CLAUSE_DIAG)
        assert not np.any(sol.gamma_bar[:, 1:])

    def test_violation_inside_a_panel(self):
        T, step = 80, 45
        assert 1 < (step - 1) % PANEL < PANEL - 1
        rng = np.random.default_rng(45)
        lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        K = (fgn_kernel(T, 0.7)[:, :, None, None] * np.array([[1.0, 0.3], [0.3, 0.5]])
             + (0.6 ** lag)[:, :, None, None] * np.diag([0.4, 0.8]))
        model = rf.build_vector_model(np.zeros((T, 2)), K, rng.uniform(0.5, 1.5, (T, 1, 2)))
        Q = np.tile(0.05 * np.eye(2), (T, 1, 1))
        Q[step - 1] = 50.0 * np.eye(2)
        risk = rf.RiskSpec(mu=1.0, Q=Q)
        want, table = dense_verdict(model, risk)
        assert want == (False, step, CLAUSE_DENOM)
        sol = rf.solve_volterra_matrix(model, risk)
        assert (sol.feasible, sol.first_violation, sol.violated_clause) == want
        assert_allclose(sol.gamma_bar, table, rtol=1e-9, atol=1e-9)
        assert not np.any(sol.gamma_bar[:, step:])

    @pytest.mark.parametrize("mu", [-1.0, 0.0, 0.5, 1.0])
    def test_weights_of_varying_rank(self, mu):
        # Q_t has rank 0, 1 (either component) or 2, so steps observe 1, 2 or 3 rows.
        T = 40
        rng = np.random.default_rng(41)
        lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
        K = (fgn_kernel(T, 0.8)[:, :, None, None] * np.array([[1.0, -0.4], [-0.4, 0.6]])
             + (0.5 ** lag)[:, :, None, None] * np.diag([0.3, 0.7]))
        model = rf.build_vector_model(rng.normal(size=(T, 2)), K, rng.uniform(0.5, 1.5, (T, 1, 2)))
        pattern = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])[rng.integers(0, 4, T)]
        Q = rng.uniform(0.2, 1.0, (T, 2))[:, :, None] * pattern[:, :, None] * np.eye(2)
        risk = rf.RiskSpec(mu=mu, Q=Q)
        want, table = dense_verdict(model, risk)
        sol = rf.solve_volterra_matrix(model, risk)
        assert (sol.feasible, sol.first_violation, sol.violated_clause) == want
        assert_allclose(sol.gamma_bar, table, rtol=1e-9, atol=1e-9)
        if mu == 0.0:  # zero weights everywhere: the plain prediction-error table
            assert_allclose(sol.gamma_bar, rf.solve_volterra_matrix(model, rf.RiskSpec(mu=0.0, Q=np.zeros(T))).gamma_bar,
                            rtol=0, atol=0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_vector_corr_grid_verdicts(self, seed):
        # 320 of the 960 recorded solves per seed; the vector models' positive-mu
        # verdicts are also checked against the dense joint.
        doc = json.loads((Path(__file__).parent / "data" / "vector_corr_verdicts.json").read_text())
        recorded = {tuple(row[:4]): tuple(row[4:]) for row in doc["verdicts"] if row[0] == seed}
        assert len(recorded) == 320
        mus = sorted({key[3] for key in recorded})
        for op in range(24):
            for name, model, Q in vector_corr_models(seed, op):
                for mu in mus:
                    risk = rf.RiskSpec(mu=mu, Q=Q)
                    sol = (rf.solve_volterra_matrix if name == "vector" else rf.solve_volterra_correlated)(model, risk)
                    got = (sol.feasible, sol.first_violation, sol.violated_clause)
                    assert got == recorded.pop((seed, op, name, mu)), (op, name, mu)
                    if name == "vector" and op % 3 == 0 and mu > 0:
                        assert got == dense_verdict(model, risk)[0], (op, mu)
        assert not recorded

    @pytest.mark.parametrize("builder", ["vector", "ar1_noise"])
    def test_traced_peak_below_three_tables(self, builder):
        # The kernel's own arrays (U, W and the flat cross-covariance, each half a table here)
        # are released before the transposed copy of the table, so that copy adds no third table.
        T = 200
        if builder == "vector":
            K = np.eye(T)[:, :, None, None] * np.eye(2) + 0.3
            model = rf.build_vector_model(np.zeros((T, 2)), K, np.ones((T, 1, 2)))
        else:
            model = rf.build_ar1_noise(0.8, 0.6, 1.0, -0.3, T)
        risk = rf.RiskSpec(mu=0.0, Q=np.ones(T))
        rf.solve_volterra_correlated(model, risk)  # first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            sol = rf.solve_volterra_correlated(model, risk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sol.gamma_bar.nbytes


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
