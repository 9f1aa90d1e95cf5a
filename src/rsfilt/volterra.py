"""Two-index Riccati recursions for prediction-error covariance tables.

``solve_volterra`` fills the lower-triangular table gbar(t, s) for a scalar
model under the weighted exponential criterion; ``solve_volterra_matrix`` and
``solve_volterra_correlated`` are the vector-valued and correlated-noise
generalizations. For mu = 0 the table reduces to the risk-neutral one-step
prediction-error covariances, and for mu < 0 the recursion is always feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleCondition,
    NegativeVariance,
    SingularInnovationMatrix,
)
from .model import GaussianModel, RiskSpec, _as_sequence

FEAS_TOL = 1e-12
COND_LIMIT = 1e12

CLAUSE_DIAG = "gamma_bar_t >= 0"
CLAUSE_DENOM = "1 + S_t * gamma_bar_t > 0"


@dataclass(frozen=True)
class VolterraSolution:
    """Solution table of the covariance recursion.

    ``gamma_bar`` is (T, T) in the scalar case or (T, T, n, n) blockwise; only
    entries with t >= s are meaningful. ``first_violation`` is the 1-based
    step at which feasibility first failed (columns from there on are zero).
    """

    gamma_bar: np.ndarray
    S: np.ndarray
    mu: float
    feasible: bool
    first_violation: int | None = None
    violated_clause: str | None = None

    @property
    def horizon(self) -> int:
        return self.gamma_bar.shape[0]

    @property
    def diag(self) -> np.ndarray:
        T = self.horizon
        idx = np.arange(T)
        return self.gamma_bar[idx, idx]

    def require_feasible(self) -> "VolterraSolution":
        if not self.feasible:
            raise InfeasibleCondition(
                f"covariance recursion infeasible at step {self.first_violation}"
                f" (violated: {self.violated_clause})",
                first_violation=self.first_violation,
                clause=self.violated_clause,
            )
        return self

    def to_dict(self) -> dict:
        return {
            "gamma_bar": self.gamma_bar.tolist(),
            "S": self.S.tolist(),
            "mu": self.mu,
            "feasible": self.feasible,
            "first_violation": self.first_violation,
            "violated_clause": self.violated_clause,
        }


def sufficient_condition_positive_mu(model: GaussianModel, risk: RiskSpec) -> bool:
    """Advisory predicate: S_t >= 0 at every step guarantees feasibility."""
    S = risk.s_values(model.gains1 if model.is_scalar else model.gains)
    if S.ndim == 1:
        return bool(np.all(S >= 0))
    return bool(all(np.linalg.eigvalsh((St + St.T) / 2)[0] >= 0 for St in S))


def solve_volterra(model: GaussianModel, risk: RiskSpec) -> VolterraSolution:
    """Scalar covariance recursion.

    Fills gbar column by column: gbar(t, s) = K(t, s) minus the accumulated
    corrections gbar(t, l) gbar(s, l) S_l / (1 + S_l gbar_l) over l < s, which
    for all t >= s are one matrix-vector product. On the
    first step where gbar_t < -tol or 1 + S_t gbar_t <= tol the solution is
    marked infeasible and the remaining columns are left unfilled.
    """
    model._require_scalar()
    if model.cross_cov is not None:
        raise SingularInnovationMatrix(
            "scalar solver requires independent observation noise; use solve_volterra_correlated"
        )
    K = model.cov2
    T = model.horizon
    S = risk.s_values(model.gains1)
    if S.shape != (T,):
        raise DimensionMismatch(f"risk weights have horizon {S.shape[0]}, model has {T}")

    gam = np.zeros((T, T))
    w = np.zeros(T)  # S_l / (1 + S_l * gbar_l)
    feasible, violation, clause = True, None, None
    for s in range(T):
        gam[s:, s] = K[s:, s] - gam[s:, :s] @ (gam[s, :s] * w[:s])
        g = gam[s, s]
        denom = 1.0 + S[s] * g
        if g < -FEAS_TOL:
            feasible, violation, clause = False, s + 1, CLAUSE_DIAG
        elif denom <= FEAS_TOL:
            feasible, violation, clause = False, s + 1, CLAUSE_DENOM
        if not feasible:
            gam[:, s + 1 :] = 0.0
            break
        w[s] = S[s] / denom
    return VolterraSolution(
        gamma_bar=gam, S=S, mu=risk.mu, feasible=feasible,
        first_violation=violation, violated_clause=clause,
    )


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _feasibility_matrix(g: np.ndarray, S: np.ndarray):
    """Check gbar_t PSD and the positive spectrum of I + S gbar_t.

    Returns the violated clause name, or None when the step is feasible.
    """
    scale = max(float(np.trace(g)), 1.0)
    if np.linalg.eigvalsh((g + g.T) / 2)[0] < -FEAS_TOL * scale:
        return CLAUSE_DIAG
    rt = _psd_sqrt(g)
    M = np.eye(g.shape[0]) + rt @ S @ rt
    if np.linalg.eigvalsh((M + M.T) / 2)[0] <= FEAS_TOL:
        return CLAUSE_DENOM
    return None


def _innovation_weight(g: np.ndarray, S: np.ndarray, step: int) -> np.ndarray:
    """W = S (I + gbar S)^{-1}, the symmetric correction weight of one step."""
    n = g.shape[0]
    M = np.eye(n) + g @ S
    if np.linalg.cond(M) > COND_LIMIT:
        raise SingularInnovationMatrix(
            f"innovation block at step {step} is singular (condition number > {COND_LIMIT:.0e})",
            step=step,
        )
    W = np.linalg.solve(M.T, S.T).T
    return (W + W.T) / 2


def _lower_blocks(work: np.ndarray, T: int, n: int, filled: int) -> np.ndarray:
    """The flat (T*n, T*n) table as (T, T, n, n) blocks, zero above the diagonal
    and in every column from ``filled`` on."""
    gam = np.ascontiguousarray(work.reshape(T, n, T, n).transpose(0, 2, 1, 3))
    gam[np.triu_indices(T, 1)] = 0.0
    gam[:, filled:] = 0.0
    return gam


def solve_volterra_matrix(model: GaussianModel, risk: RiskSpec) -> VolterraSolution:
    """Vector-valued covariance recursion with independent observation noise.

    The per-step correction weight is W_l = S_l (I + gbar_l S_l)^{-1} with
    S_l = A_l'A_l - mu Q_l, which reduces entrywise to the scalar recursion
    when n = m = 1. Right-looking elimination on the flat (T*n, T*n) table:
    once column s is final and its step is checked, every later entry gets
    that step's correction U W_s U' in one matrix product.
    """
    if model.cross_cov is not None:
        raise SingularInnovationMatrix(
            "model has correlated noise; use solve_volterra_correlated"
        )
    T, n = model.horizon, model.n
    S = risk.s_values(model.gains)

    work = model.flat_cov().copy()
    feasible, violation, clause = True, None, None
    for s in range(T):
        a, b = s * n, (s + 1) * n
        g = work[a:b, a:b]
        clause = _feasibility_matrix(g, S[s])
        if clause is not None:
            feasible, violation = False, s + 1
            break
        U = work[b:, a:b]
        work[b:, b:] -= U @ _innovation_weight(g, S[s], s + 1) @ U.T
    return VolterraSolution(
        gamma_bar=_lower_blocks(work, T, n, violation or T), S=S, mu=risk.mu, feasible=feasible,
        first_violation=violation, violated_clause=clause if not feasible else None,
    )


def _aux_rows(Qp):
    """Nondegenerate directions of the auxiliary (squared-error) observations.

    Diagonalizing the weight block Qp = sum_i lam_i u_i u_i' turns the
    auxiliary observations into one row lam_i u_i' per nonzero eigenvalue,
    with independent noises of variance lam_i; zero directions carry no
    information and are dropped.
    """
    vals, vecs = np.linalg.eigh((Qp + Qp.T) / 2)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    keep = np.abs(vals) > FEAS_TOL * scale
    R = vals[keep][:, None] * vecs[:, keep].T
    return R, np.diag(vals[keep])


def _innovation_cov(A, Css, R, Naux, g):
    """Covariance V_s of step s's innovation: the observation row A (noise
    cross-covariance Css) stacked over the auxiliary rows R (noise Naux)."""
    m = A.shape[0]
    V = np.zeros((m + R.shape[0],) * 2)
    V[:m, :m] = np.eye(m) + A @ g @ A.T + A @ Css + Css.T @ A.T
    V[:m, m:] = (A @ g + Css.T) @ R.T
    V[m:, :m] = V[:m, m:].T
    V[m:, m:] = R @ g @ R.T + Naux
    return V


def solve_volterra_correlated(model: GaussianModel, risk: RiskSpec) -> VolterraSolution:
    """Covariance recursion with signal/observation-noise correlation.

    Uses the exact conditioning update with per-step innovation covariance
    built from the observation row and the eigen-reduced auxiliary rows of
    the weight block -mu Q_l; with zero cross-covariance this agrees with
    ``solve_volterra_matrix``. Right-looking elimination on the flat
    (T*n, T*n) table: once column s is final and its step is checked, every
    later entry gets that step's correction U V_s^{-1} U' from one solve and
    one matrix product.
    """
    T, n, m = model.horizon, model.n, model.m
    Qp = -risk.mu * risk.q_blocks(n)
    S = risk.s_values(model.gains)

    work = model.flat_cov().copy()
    C = model.flat_cross()
    feasible, violation, clause = True, None, None
    for s in range(T):
        a, b = s * n, (s + 1) * n
        g = work[a:b, a:b]
        gscale = max(float(np.trace(g)), 1.0)
        if np.linalg.eigvalsh((g + g.T) / 2)[0] < -FEAS_TOL * gscale:
            feasible, violation, clause = False, s + 1, CLAUSE_DIAG
            break
        A, Cs = model.gains[s], C[:, s * m : (s + 1) * m]
        R, Naux = _aux_rows(Qp[s])
        V = _innovation_cov(A, Cs[a:b], R, Naux, g)
        if np.linalg.cond(V) > COND_LIMIT:
            raise SingularInnovationMatrix(
                f"innovation covariance at step {s + 1} is singular", step=s + 1
            )
        # Analytic continuation, counted by inertia (Haynsworth inertia
        # additivity): the step is feasible when V_s has exactly as many
        # nonpositive eigenvalues as the auxiliary noise has negative
        # variances, none for mu <= 0. This is 1 + S gbar > 0 in the scalar
        # case; unlike the sign of det V_s it sees two eigenvalues of
        # I + S gbar turning negative at one step.
        nonpositive = np.count_nonzero(np.linalg.eigvalsh((V + V.T) / 2) <= FEAS_TOL)
        if nonpositive != np.count_nonzero(Naux < 0):  # Naux is diagonal
            feasible, violation, clause = False, s + 1, CLAUSE_DENOM
            break
        col = work[b:, a:b]
        U = np.concatenate([col @ A.T + Cs[b:], col @ R.T], axis=1)
        work[b:, b:] -= U @ np.linalg.solve(V, U.T)

    return VolterraSolution(
        gamma_bar=_lower_blocks(work, T, n, violation or T), S=S, mu=risk.mu, feasible=feasible,
        first_violation=violation, violated_clause=clause if not feasible else None,
    )


def ar1_riccati(a, D, A, Q, mu, T) -> np.ndarray:
    """One-dimensional Riccati recursion for the AR(1) signal.

    gbar_s = D_s + a_s^2 gbar_{s-1} / (1 + S_{s-1} gbar_{s-1}), gbar_0 = 0.
    Returns the diagonal sequence (gbar_1, ..., gbar_T).
    """
    a = _as_sequence(a, T, "a")
    D = _as_sequence(D, T, "D")
    A = _as_sequence(A, T, "A")
    Q = _as_sequence(Q, T, "Q")
    if np.any(D < 0):
        raise NegativeVariance("innovation variances D must be nonnegative")
    S = A**2 - mu * Q
    out = np.zeros(T)
    prev = 0.0
    for s in range(T):
        denom = 1.0 + (S[s - 1] * prev if s > 0 else 0.0)
        if denom <= FEAS_TOL:
            raise InfeasibleCondition(
                f"AR(1) recursion denominator vanished at step {s + 1}",
                first_violation=s + 1, clause=CLAUSE_DENOM,
            )
        prev = D[s] + a[s] ** 2 * prev / denom
        if prev < -FEAS_TOL:
            raise InfeasibleCondition(
                f"AR(1) recursion produced a negative variance at step {s + 1}",
                first_violation=s + 1, clause=CLAUSE_DIAG,
            )
        out[s] = prev
    if 1.0 + S[T - 1] * out[T - 1] <= FEAS_TOL:
        raise InfeasibleCondition(
            f"AR(1) recursion denominator vanished at step {T}",
            first_violation=T, clause=CLAUSE_DENOM,
        )
    return out


def ma1_gamma(lam, A, Q, mu, T) -> np.ndarray:
    """Diagonal recursion for the first-order moving-average signal.

    gbar_1 = 1 + lam^2 and gbar_t = 1 + lam^2 - lam^2 S_{t-1} / (1 + S_{t-1}
    gbar_{t-1}); the squared factor lam^2 is what direct substitution of the
    off-diagonal entry gbar(t, t-1) = lam into the two-index recursion gives.
    """
    lam = float(lam)
    A = _as_sequence(A, T, "A")
    Q = _as_sequence(Q, T, "Q")
    S = A**2 - mu * Q
    out = np.zeros(T)
    out[0] = 1.0 + lam**2
    for t in range(1, T):
        denom = 1.0 + S[t - 1] * out[t - 1]
        if denom <= FEAS_TOL:
            raise InfeasibleCondition(
                f"MA(1) recursion denominator vanished at step {t + 1}",
                first_violation=t + 1, clause=CLAUSE_DENOM,
            )
        out[t] = 1.0 + lam**2 - lam**2 * S[t - 1] / denom
        if out[t] < -FEAS_TOL:
            raise InfeasibleCondition(
                f"MA(1) recursion produced a negative variance at step {t + 1}",
                first_violation=t + 1, clause=CLAUSE_DIAG,
            )
    if 1.0 + S[T - 1] * out[T - 1] <= FEAS_TOL:
        raise InfeasibleCondition(
            f"MA(1) recursion denominator vanished at step {T}",
            first_violation=T, clause=CLAUSE_DENOM,
        )
    return out
