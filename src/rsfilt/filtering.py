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
    FEAS_TOL,
    OVERFLOW,
    VolterraSolution,
    ar1_riccati,
    ma1_gamma,
    solve_volterra,
    solve_volterra_correlated,
)

ZTILDE_RAISE_TOL = 1e-9
MU_ZERO = "the exponential criterion degenerates at mu = 0; no risk value is defined"


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


def _lower_solve(rows, w, d, R, B):
    """Forward substitution for X_t = (R_t + sum_{l<t} gbar(t,l) (B_l - w_l X_l)) / d_t.

    This is the lower-triangular system (diag(d) + Gs diag(w)) X = R + Gs B, Gs the strict lower
    triangle of gbar, whose rows gbar(t, :t) ``rows`` yields in order, as a solution's ``_rows()``
    does; each is read once. R and B have the horizon on the last axis and paths on leading axes,
    broadcast together. A batch is solved as (T, k) columns; one path as (T,) vectors, one dot
    product per step. An overflow propagates as inf or nan, as IEEE arithmetic has it.
    """
    paths = np.broadcast_shapes(np.shape(R), np.shape(B))
    X, E = (np.array(np.broadcast_to(a, paths).reshape(-1, len(d)).T, dtype=float, order="C") for a in (R, B))
    if len(paths) == 1:
        X, E = X[:, 0], E[:, 0]
    w, d = np.asarray(w, dtype=float).tolist(), np.asarray(d, dtype=float).tolist()
    for t, g in enumerate(rows):  # rows l < t of E hold B_l - w_l X_l
        X[t] = x = (X[t] + g @ E[:t]) / d[t]
        E[t] -= w[t] * x
    return X.T.reshape(paths)


def _finite_steps(X, what):
    """X, after raising at the first step where some path's X_t is not finite: a solve that overflowed,
    run under ``np.errstate`` so that it fails here, at its step, and without a warning."""
    for step in np.flatnonzero(~np.isfinite(X).reshape(-1, X.shape[-1]).all(axis=0))[:1] + 1:
        raise SingularInnovationMatrix(f"{what} at step {step} {OVERFLOW}", step=int(step))
    return X


def _innovation(A, g):
    """1 + A_t^2 gbar_t, after raising at the first step where it is not above ``FEAS_TOL``.

    A feasible solve bounds gbar_t below by -FEAS_TOL only, so a gain A_t^2 of order 1/FEAS_TOL can
    still make the term vanish; every division by it and every logarithm of it comes after this check.
    """
    one = 1.0 + A**2 * g
    for step in np.flatnonzero(~(one > FEAS_TOL))[:1] + 1:
        raise SingularInnovationMatrix(f"innovation variance 1 + A_t^2 gamma_bar_t at step {step} is not positive",
                                       step=int(step))
    return one


def _risk_value(mu, S, A, g) -> float:
    """mu * prod_t [(1+S_t g_t)/(1+A_t^2 g_t)]^(-1/2), once ``_innovation`` has checked its denominators."""
    log_prod = -0.5 * (np.log1p(S * g) - np.log1p(A**2 * g)).sum()
    return mu * float(np.exp(log_prod))


def optimal_risk(solution: VolterraSolution, risk: RiskSpec, A) -> float:
    """Closed-form optimal value mu * prod_t [(1+S_t g_t)/(1+A_t^2 g_t)]^(-1/2)."""
    if risk.mu == 0.0:
        raise DomainError(MU_ZERO)
    solution.require_feasible()
    A, g = np.asarray(A, dtype=float), solution.diag
    _innovation(A, g)
    return _risk_value(risk.mu, solution.S, A, g)


def leg_affine(model: GaussianModel, risk: RiskSpec, solution: VolterraSolution | None = None) -> AffineFilter:
    """The optimal filter as its causal affine map h = c + F Y, for every model kind.

    On a scalar model without cross-covariance, with G = tril(gbar), the filter
    solves (I + G diag(A^2)) h = m + G diag(A) Y, and [c | F] comes from one
    forward substitution with right-hand side [m | G diag(A)]. Any other model
    runs ``_block_solve`` on the 1 + Tm columns [m | I_{Tm}], its gains formed
    once before its step loop; rows and columns of the map are then in
    (t, component) order, as in ``flat_mean()``.
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
    R = np.vstack([model.mean1, np.diag(A * g)])  # the intercept's path, then one path per gain column
    B = np.vstack([np.zeros(model.horizon), np.diag(A)])
    cF = _lower_solve(sol._rows(), A**2, _innovation(A, g), R, B).T
    return AffineFilter(intercept=cF[:, 0], gains=cF[:, 1:])


def leg_filter(model: GaussianModel, risk: RiskSpec, Y, solution: VolterraSolution | None = None) -> FilterRun:
    """Optimal filter for the exponential criterion on a scalar model.

    Solves the system of ``leg_affine`` for the given paths. Pass a
    precomputed feasible ``solution`` to amortize the covariance recursion
    across many paths. An estimate that overflows raises ``SingularInnovationMatrix`` at its step.
    """
    model._require_scalar()
    sol = _scalar_solution(model, risk, solution)
    Y = _check_horizon(Y, model.horizon)
    A, g = model.gains1, sol.diag
    one = _innovation(A, g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails at its step, below
        h = _lower_solve(sol._rows(), A**2, one, model.mean1 + A * g * Y, A * Y)
    return _filter_run(_finite_steps(h, "filter estimate h_t"), A, g, one, sol.S, risk.mu, Y)


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails at its step, below
        Z = _lower_solve(sol._rows(), A * wa - wq, np.ones(T), m, wa * Y - wq * h)
    return _finite_steps(Z, "centering sequence Z_t")


def _centering(model: GaussianModel, risk: RiskSpec, Y, h, solution: VolterraSolution):
    """(Z_h, Z~) from one solve of each recursion.

    Z~ solves the direct recursion (its l = t term is implicit) and is
    checked against its algebraic map from Z_h; persistent disagreement
    signals an indexing bug in the covariance table, not bad data.
    """
    T = model.horizon
    Z = z_h(model, risk, Y, h, solution=solution)
    Y = _check_horizon(Y, T)
    h = _check_horizon(h, T)
    A, m = model.gains1, model.mean1
    g = solution.diag
    wq = risk.mu * risk.q_vector() / (1.0 + solution.S * g)
    one = _innovation(A, g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails at its step, below
        Zt = _lower_solve(solution._rows(), A**2 - wq, one, m + A * g * Y, A * Y - wq * h)
        Zt_alg = (Z + A * g * Y) / one
        err = float(np.max(np.abs(Zt - Zt_alg) / np.maximum(1.0, np.abs(Zt_alg))))
    _finite_steps(Zt, "filtered centering sequence Z~_t")
    if not err <= ZTILDE_RAISE_TOL:  # a nan residual fails too
        raise InconsistentRecursion(
            f"direct and algebraic centering sequences disagree by {err:.3e}"
        )
    return Z, Zt_alg


def z_tilde(model: GaussianModel, risk: RiskSpec, Y, h, solution: VolterraSolution | None = None):
    """Filtered variant of the centering sequence plus its variance sequence.

    Raises ``InconsistentRecursion`` when its two routes (see ``_centering``) disagree or their residual
    is not finite, and ``SingularInnovationMatrix`` at the first step where a solve overflows.
    """
    model._require_scalar()
    sol = _scalar_solution(model, risk, solution)
    _, Zt = _centering(model, risk, Y, h, sol)
    A, g = model.gains1, sol.diag
    return Zt, np.broadcast_to(g / _innovation(A, g), Zt.shape).copy()


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
    one = _innovation(A, g)
    h = np.zeros(Y.shape)
    prev = np.full(Y.shape[:-1], float(x0))
    for t in range(T):
        h[..., t] = (a[t] * prev + A[t] * g[t] * Y[..., t]) / one[t]
        prev = h[..., t]
    return _filter_run(h, A, g, one, A**2 - mu * Q, mu, Y)


def ma1_filter(lam, A, Q, mu, Y) -> FilterRun:
    """One-pass filter for the first-order moving-average signal."""
    Y = np.asarray(Y, dtype=float)
    T = Y.shape[-1]
    lam = float(lam)
    A = _as_sequence(A, T, "A")
    Q = _as_sequence(Q, T, "Q")
    g = ma1_gamma(lam, A, Q, mu, T)
    one = _innovation(A, g)
    h = np.zeros(Y.shape)
    for t in range(T):
        lag = 0.0
        if t > 0:
            lag = lam * A[t - 1] * (Y[..., t - 1] - A[t - 1] * h[..., t - 1])
        h[..., t] = (lag + A[t] * g[t] * Y[..., t]) / one[t]
    return _filter_run(h, A, g, one, A**2 - mu * Q, mu, Y)


def _filter_run(h, A, g, one, S, mu, Y) -> FilterRun:
    """FilterRun of an optimal estimate h, with ``one`` = 1 + A^2 g from ``_innovation``; at the optimum
    Z~ = h, so Z_h follows algebraically."""
    return FilterRun(
        h_bar=h,
        Z_h=h * one - A * g * Y,
        Z_tilde=h,
        gamma_tilde=np.broadcast_to(g / one, h.shape).copy(),
        gamma_bar_diag=np.broadcast_to(g, h.shape).copy(),
        risk=_risk_value(mu, S, A, g) if mu != 0.0 else None,
    )


def _block_solve(model: GaussianModel, solution: VolterraSolution, M, Y) -> np.ndarray:
    """Left-looking forward substitution of the vector filter for k right-hand-side columns.

    h_t = P_t (M_t + G(t,t) Y_t + sum_{l<t} G(t,l) eps_l) with eps_l = Y_l - A_l h_l, the gains
    G(t,l) = [C(t,l) + g(t,l) A_l'] D_l^{-1}, D_l = I + A_l C(l,l), and P_t = (I + G(t,t) A_t)^{-1},
    for mean columns M (k, T, n), or (T, n) shared by all, and observation columns Y (k, T, m);
    returns h (k, T, n). Every gain is formed before the loop, premultiplied by [P_t; -A_t P_t],
    so that step t is one reduction of the stored Y_t and eps_l, l < t, giving h_t and eps_t. The
    reduction is an elementwise product summed along a contiguous axis: no column's result depends
    on the others, which a matrix product does not promise (GEMV and GEMM round differently).
    """
    T, n, m = model.horizon, model.n, model.m
    A, C = model.gains, model.cross_cov
    idx = np.arange(T)
    D = np.eye(m) + (A @ C[idx, idx] if C is not None else np.zeros((T, m, m)))  # D_l = I + A_l C(l,l)
    singular = np.flatnonzero(np.linalg.cond(D) > COND_LIMIT)
    if singular.size:
        step = int(singular[0]) + 1
        raise SingularInnovationMatrix(f"observation gain denominator at step {step} is singular", step=step)

    Dinv = np.linalg.inv(D)
    gains = _by_block(solution._packed, np.take(A.transpose(0, 2, 1) @ Dinv, solution._cols(), 0))  # G(t,l), l <= t
    G = solution._padded(gains)
    if C is not None:
        G += _by_block(C, Dinv)
    G = np.ascontiguousarray(G.transpose(0, 2, 1, 3))  # G[t, :, l, :] = G(t,l)
    P = np.linalg.inv(np.eye(n) + G[idx, :, idx] @ A)
    Z = np.concatenate([P, -A @ P], axis=1)  # h_t and eps_t - Y_t are Z_t (M_t + G(t,t) Y_t + ...)
    W = Z @ G.reshape(T, n, T * m)
    ZM = np.add.reduce(Z * np.expand_dims(M, -2), axis=-1)
    E = np.array(Y, dtype=float, order="C").reshape(len(Y), T * m)  # Y_l, and eps_l from step l on
    YM = E + ZM[..., n:].reshape(-1, T * m)  # Y_t - A_t P_t M_t
    R = np.empty((len(Y), T, n + m))
    for t in range(T):
        b = (t + 1) * m
        np.add.reduce(W[t, :, :b] * E[:, None, :b], axis=-1, out=R[:, t])
        np.add(YM[:, b - m : b], R[:, t, n:], out=E[:, b - m : b])
    return ZM[..., :n] + R[..., :n]


def _by_block(X, B):
    """The products of (..., p, q) blocks X and (..., q, r) blocks B, broadcast together: one elementwise
    sum over q, in order, so each block's result depends on its own factors only."""
    return sum(X[..., k, None] * B[..., None, k, :] for k in range(B.shape[-2]))


def filter_correlated(model: GaussianModel, risk: RiskSpec, Y, solution: VolterraSolution | None = None) -> FilterRun:
    """Optimal filter for vector-valued models, correlated noise allowed.

    ``Y`` is one path of shape (T, m), or (T,) for m = 1, or a batch of
    them on leading axes; each path is one column of ``_block_solve``, with
    the same bits in a batch as alone. ``h_bar`` has shape (..., T, n), or
    (..., T) for n = 1.
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
