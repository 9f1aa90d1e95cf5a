"""Optimal filters for the weighted exponential criterion.

``leg_filter`` computes the estimate sequence minimizing
``E mu exp{(mu/2) sum_t Q_t (X_t - h_t)^2}`` over causal filters, together
with the auxiliary processes that factorize the conditional Laplace
transform. All scalar routines accept a batch of observation paths: ``Y``
may have any leading shape as long as its last axis is the horizon;
``filter_correlated`` takes batches of (T, m) paths the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InconsistentRecursion, SingularInnovationMatrix
from .model import GaussianModel, RiskSpec, _as_sequence
from .volterra import (
    COND_LIMIT,
    VolterraSolution,
    ar1_riccati,
    ma1_gamma,
    solve_volterra,
    solve_volterra_correlated,
)

ZTILDE_RAISE_TOL = 1e-9


@dataclass(frozen=True)
class FilterRun:
    """Filter output along one path (or a batch of paths on leading axes).

    ``Z_h``, ``Z_tilde``, ``gamma_tilde`` and ``risk`` are populated by the
    scalar routines; vector-valued runs carry the estimate sequence only.
    """

    h_bar: np.ndarray
    Z_h: np.ndarray | None = None
    Z_tilde: np.ndarray | None = None
    gamma_tilde: np.ndarray | None = None
    gamma_bar_diag: np.ndarray | None = None
    risk: float | None = None

    def rows(self, Y):
        """Per-step rows (t, Y, h_bar, Z_h, Z_tilde, gamma_bar, gamma_tilde) for CSV output."""
        T = self.h_bar.shape[-1]
        out = []
        for t in range(T):
            out.append(
                (
                    t + 1,
                    float(Y[t]),
                    float(self.h_bar[t]),
                    float(self.Z_h[t]) if self.Z_h is not None else None,
                    float(self.Z_tilde[t]) if self.Z_tilde is not None else None,
                    float(self.gamma_bar_diag[t]) if self.gamma_bar_diag is not None else None,
                    float(self.gamma_tilde[t]) if self.gamma_tilde is not None else None,
                )
            )
        return out

    def to_dict(self, Y=None) -> dict:
        out = {
            "h_bar": np.asarray(self.h_bar).tolist(),
            "Z_h": None if self.Z_h is None else np.asarray(self.Z_h).tolist(),
            "Z_tilde": None if self.Z_tilde is None else np.asarray(self.Z_tilde).tolist(),
            "gamma_tilde": None if self.gamma_tilde is None else np.asarray(self.gamma_tilde).tolist(),
            "gamma_bar": None if self.gamma_bar_diag is None else np.asarray(self.gamma_bar_diag).tolist(),
            "risk": self.risk,
        }
        if Y is not None:
            out["Y"] = np.asarray(Y).tolist()
        return out


def _check_horizon(Y, T):
    Y = np.asarray(Y, dtype=float)
    if Y.shape[-1] != T:
        raise DimensionMismatch(f"observation path has {Y.shape[-1]} steps, model has {T}")
    return Y


def _scalar_solution(model, risk, solution) -> VolterraSolution:
    if solution is None:
        solution = solve_volterra(model, risk)
    return solution.require_feasible()


@dataclass(frozen=True)
class AffineFilter:
    """Causal affine filter h_t = intercept_t + sum_{l<=t} gains[t, l] Y_l."""

    intercept: np.ndarray
    gains: np.ndarray

    def apply(self, Y):
        Y = np.asarray(Y, dtype=float)
        return self.intercept + Y @ self.gains.T

    def to_dict(self):
        return {"intercept": self.intercept.tolist(), "gains": self.gains.tolist()}


def _lower_solve(gbar, w, d, R, B):
    """Forward substitution for X_t = (R_t + sum_{l<t} gbar(t,l) (B_l - w_l X_l)) / d_t.

    This is the lower-triangular system (diag(d) + Gs diag(w)) X = R + Gs B,
    Gs the strict lower triangle of gbar. Rows of gbar are read one at a time,
    so no (T, T) matrix is formed. R and B are (T,) or (T, k).
    """
    X = np.array(R, dtype=float, order="C")
    E = np.array(B, dtype=float, order="C")  # rows l < t hold B_l - w_l X_l
    for t in range(len(d)):
        X[t] = (X[t] + gbar[t, :t] @ E[:t]) / d[t]
        E[t] -= w[t] * X[t]
    return X


def _solve_paths(gbar, w, d, R, B):
    """``_lower_solve`` for R and B with the horizon on the last axis and paths on leading axes."""
    shape = np.broadcast_shapes(np.shape(R), np.shape(B))
    T = len(d)

    def columns(a):
        return np.broadcast_to(a, shape).reshape(-1, T).T

    return _lower_solve(gbar, w, d, columns(R), columns(B)).T.reshape(shape)


def _risk_value(mu, S, A, g) -> float:
    log_prod = -0.5 * (np.log1p(S * g) - np.log1p(A**2 * g)).sum()
    return mu * float(np.exp(log_prod))


def optimal_risk(solution: VolterraSolution, risk: RiskSpec, A) -> float:
    """Closed-form optimal value mu * prod_t [(1+S_t g_t)/(1+A_t^2 g_t)]^(-1/2)."""
    if risk.mu == 0.0:
        raise DomainError("the exponential criterion degenerates at mu = 0; no risk value is defined")
    solution.require_feasible()
    return _risk_value(risk.mu, solution.S, np.asarray(A, dtype=float), solution.diag)


def leg_affine(model: GaussianModel, risk: RiskSpec, solution: VolterraSolution | None = None) -> AffineFilter:
    """The optimal filter as its causal affine map h = c + F Y, for every model kind.

    On a scalar model without cross-covariance, with G = tril(gbar), the filter
    solves (I + G diag(A^2)) h = m + G diag(A) Y, and [c | F] comes from one
    forward substitution with right-hand side [m | G diag(A)]. Any other model
    runs ``_block_solve`` on the columns [m | I_{Tm}]; rows and columns of the
    map are then in (t, component) order, as in ``flat_mean()``.
    """
    if not model.is_scalar or model.cross_cov is not None:
        sol = (solve_volterra_correlated(model, risk) if solution is None else solution).require_feasible()
        T, n, m = model.horizon, model.n, model.m
        M = np.zeros((1 + T * m, T, n))
        M[0] = model.mean
        Y = np.eye(1 + T * m, T * m, k=-1).reshape(-1, T, m)
        cF = _block_solve(model, sol, M, Y).reshape(-1, T * n).T
        return AffineFilter(intercept=cF[:, 0], gains=cF[:, 1:])
    sol = _scalar_solution(model, risk, solution)
    A, g = model.gains1, sol.diag
    R = np.column_stack([model.mean1, np.diag(A * g)])
    B = np.column_stack([np.zeros(model.horizon), np.diag(A)])
    cF = _lower_solve(sol.gamma_bar, A**2, 1.0 + A**2 * g, R, B)
    return AffineFilter(intercept=cF[:, 0], gains=cF[:, 1:])


def leg_filter(model: GaussianModel, risk: RiskSpec, Y, solution: VolterraSolution | None = None) -> FilterRun:
    """Optimal filter for the exponential criterion on a scalar model.

    Solves the system of ``leg_affine`` for the given paths. Pass a
    precomputed feasible ``solution`` to amortize the covariance recursion
    across many paths.
    """
    model._require_scalar()
    sol = _scalar_solution(model, risk, solution)
    Y = _check_horizon(Y, model.horizon)
    A, g = model.gains1, sol.diag
    h = _solve_paths(sol.gamma_bar, A**2, 1.0 + A**2 * g, model.mean1 + A * g * Y, A * Y)
    return _filter_run(h, A, g, sol.S, risk.mu, Y)


def z_h(model: GaussianModel, risk: RiskSpec, Y, h, solution: VolterraSolution | None = None) -> np.ndarray:
    """Auxiliary centering sequence of the conditional factorization.

    Z_t = m_t - sum_{l<t} g(t,l) mu Q_l / (1+S_l g_l) (h_l - Z_l)
        + sum_{l<t} g(t,l) A_l / (1+S_l g_l) (Y_l - A_l Z_l)
    for the realized estimate sequence ``h``, solved as one unit
    lower-triangular system in Z.
    """
    model._require_scalar()
    sol = _scalar_solution(model, risk, solution)
    T = model.horizon
    Y = _check_horizon(Y, T)
    h = _check_horizon(h, T)
    A, m = model.gains1, model.mean1
    denom = 1.0 + sol.S * sol.diag
    wq = risk.mu * risk.q_vector() / denom
    wa = A / denom
    return _solve_paths(sol.gamma_bar, A * wa - wq, np.ones(T), m, wa * Y - wq * h)


def z_tilde(model: GaussianModel, risk: RiskSpec, Y, h, solution: VolterraSolution | None = None):
    """Filtered variant of the centering sequence plus its variance sequence.

    Solves the direct recursion (its l = t term is implicit) and also maps
    ``z_h`` algebraically, and checks that the two agree; persistent
    disagreement signals an indexing bug in the covariance table, not bad
    data.
    """
    model._require_scalar()
    sol = _scalar_solution(model, risk, solution)
    T = model.horizon
    Y = _check_horizon(Y, T)
    h = _check_horizon(h, T)
    A, m = model.gains1, model.mean1
    g = sol.diag
    gamma_tilde = g / (1.0 + A**2 * g)

    wq = risk.mu * risk.q_vector() / (1.0 + sol.S * g)
    Zt = _solve_paths(sol.gamma_bar, A**2 - wq, 1.0 + A**2 * g, m + A * g * Y, A * Y - wq * h)

    Z = z_h(model, risk, Y, h, solution=sol)
    Zt_alg = (Z + A * g * Y) / (1.0 + A**2 * g)
    err = float(np.max(np.abs(Zt - Zt_alg) / np.maximum(1.0, np.abs(Zt_alg))))
    if err > ZTILDE_RAISE_TOL:
        raise InconsistentRecursion(
            f"direct and algebraic centering sequences disagree by {err:.3e}"
        )
    return Zt_alg, np.broadcast_to(gamma_tilde, Zt_alg.shape).copy()


def risk_neutral_filter(model: GaussianModel, Y) -> np.ndarray:
    """Conditional expectation of X_t given observations up to t (mu = 0)."""
    risk0 = RiskSpec(mu=0.0, Q=np.zeros(model.horizon))
    if model.is_scalar and model.cross_cov is None:
        return leg_filter(model, risk0, Y).h_bar
    return filter_correlated(model, risk0, Y).h_bar


def ar1_filter(a, D, x0, A, Q, mu, Y) -> FilterRun:
    """One-pass filter for the AR(1) signal.

    h_t = a_t h_{t-1} / (1 + A_t^2 g_t) + A_t g_t Y_t / (1 + A_t^2 g_t) with
    h_0 = x0, where g is the one-dimensional Riccati sequence.
    """
    Y = np.asarray(Y, dtype=float)
    T = Y.shape[-1]
    a = _as_sequence(a, T, "a")
    A = _as_sequence(A, T, "A")
    Q = _as_sequence(Q, T, "Q")
    g = ar1_riccati(a, D, A, Q, mu, T)
    h = np.zeros(Y.shape)
    prev = np.full(Y.shape[:-1], float(x0))
    for t in range(T):
        c = 1.0 + A[t] ** 2 * g[t]
        h[..., t] = (a[t] * prev + A[t] * g[t] * Y[..., t]) / c
        prev = h[..., t]
    return _filter_run(h, A, g, A**2 - mu * Q, mu, Y)


def ma1_filter(lam, A, Q, mu, Y) -> FilterRun:
    """One-pass filter for the first-order moving-average signal."""
    Y = np.asarray(Y, dtype=float)
    T = Y.shape[-1]
    lam = float(lam)
    A = _as_sequence(A, T, "A")
    Q = _as_sequence(Q, T, "Q")
    g = ma1_gamma(lam, A, Q, mu, T)
    h = np.zeros(Y.shape)
    for t in range(T):
        c = 1.0 + A[t] ** 2 * g[t]
        lag = 0.0
        if t > 0:
            lag = lam * A[t - 1] * (Y[..., t - 1] - A[t - 1] * h[..., t - 1])
        h[..., t] = (lag + A[t] * g[t] * Y[..., t]) / c
    return _filter_run(h, A, g, A**2 - mu * Q, mu, Y)


def _filter_run(h, A, g, S, mu, Y) -> FilterRun:
    """FilterRun of an optimal estimate h; at the optimum Z~ = h, so Z_h follows algebraically."""
    gamma_tilde = g / (1.0 + A**2 * g)
    return FilterRun(
        h_bar=h,
        Z_h=h * (1.0 + A**2 * g) - A * g * Y,
        Z_tilde=h,
        gamma_tilde=np.broadcast_to(gamma_tilde, h.shape).copy(),
        gamma_bar_diag=np.broadcast_to(g, h.shape).copy(),
        risk=_risk_value(mu, S, A, g) if mu != 0.0 else None,
    )


def _block_solve(model: GaussianModel, solution: VolterraSolution, M, Y) -> np.ndarray:
    """Forward substitution of the vector filter for k right-hand-side columns.

    h_t = M_t + sum_{l<=t} [C(t,l) + g(t,l) A_l'] [I + A_l C(l,l)]^{-1}
    (Y_l - A_l h_l) for mean columns M (k, T, n), or (T, n) shared by all, and
    observation columns Y (k, T, m); returns h (k, T, n). The l = t term is
    solved implicitly, per column, so for m = 1 no column's result depends on
    the others. The gains of step l to every target t >= l come from one solve.
    """
    T, n, m = model.horizon, model.n, model.m
    gam = solution.gamma_bar
    A = model.gains
    C = model.cross_cov if model.cross_cov is not None else np.zeros((T, T, n, m))
    D = np.eye(m) + A @ C.diagonal().transpose(2, 0, 1)  # D_l = I + A_l C(l,l), the gain denominators
    singular = np.flatnonzero(np.linalg.cond(D) > COND_LIMIT)
    if singular.size:
        step = int(singular[0]) + 1
        raise SingularInnovationMatrix(f"observation gain denominator at step {step} is singular", step=step)

    eye_n = np.eye(n)
    h = np.zeros((len(Y), T, n))
    # columns (t, component): m_t plus the innovation terms of the steps l < t done so far
    acc = np.array(np.broadcast_to(M, h.shape)).reshape(len(Y), T * n)
    for l in range(T):
        # Gains [C(t,l) + g(t,l) A_l'] D_l^{-1} of every target t >= l, from one
        # solve, transposed to (m, (T - l) * n).
        N = C[l:, l] + gam[l:, l] @ A[l].T
        G = np.linalg.solve(D[l].T, N.reshape(-1, m).T)
        rhs = acc[:, l * n : (l + 1) * n] + Y[:, l] @ G[:, :n]
        h[:, l] = np.linalg.solve(eye_n + G[:, :n].T @ A[l], rhs[:, :, None])[:, :, 0]
        acc[:, (l + 1) * n :] += (Y[:, l] - (A[l] @ h[:, l, :, None])[:, :, 0]) @ G[:, n:]
    return h


def filter_correlated(model: GaussianModel, risk: RiskSpec, Y, solution: VolterraSolution | None = None) -> FilterRun:
    """Optimal filter for vector-valued models, correlated noise allowed.

    ``Y`` is one path of shape (T, m), or (T,) for m = 1, or a batch of
    them on leading axes; each path is one column of ``_block_solve``.
    ``h_bar`` has shape (..., T, n), or (..., T) for n = 1.
    """
    sol = (solve_volterra_correlated(model, risk) if solution is None else solution).require_feasible()
    T, n, m = model.horizon, model.n, model.m
    Y = np.asarray(Y, dtype=float)
    if Y.shape[-2:] != (T, m) and m == 1 and Y.shape[-1:] == (T,):
        Y = Y[..., None]
    if Y.shape[-2:] != (T, m):
        raise DimensionMismatch(f"observations must have shape (..., {T}, {m}), got {Y.shape}")
    h = _block_solve(model, sol, model.mean, Y.reshape(-1, T, m)).reshape(Y.shape[:-2] + (T, n))
    return FilterRun(h_bar=h[..., 0] if n == 1 else h, gamma_bar_diag=sol.diag[:, 0, 0] if n == 1 else sol.diag)
