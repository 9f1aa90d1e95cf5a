"""Two-index Riccati recursions for prediction-error covariance tables.

``solve_volterra`` fills the lower-triangular table gbar(t, s) for a scalar
model under the weighted exponential criterion. ``solve_volterra_correlated``
is the one vector-valued kernel: it conditions on the observations and on the
auxiliary rows of the weight -mu Q, correlated noise allowed.
``solve_volterra_matrix`` is its entry point for models without a
cross-covariance. For mu = 0 the table reduces to the risk-neutral one-step
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


def _lower_blocks(work: np.ndarray, T: int, n: int, filled: int) -> np.ndarray:
    """The flat (T*n, T*n) table as (T, T, n, n) blocks, zero above the diagonal
    and in every column from ``filled`` on."""
    gam = np.ascontiguousarray(work.reshape(T, n, T, n).transpose(0, 2, 1, 3))
    gam[np.triu_indices(T, 1)] = 0.0
    gam[:, filled:] = 0.0
    return gam


def solve_volterra_matrix(model: GaussianModel, risk: RiskSpec) -> VolterraSolution:
    """Vector-valued covariance recursion with independent observation noise.

    The no-cross-covariance entry point of ``solve_volterra_correlated``, whose
    step correction with C = 0 is U W_l U' with W_l = S_l (I + gbar_l S_l)^{-1},
    S_l = A_l'A_l - mu Q_l; for n = m = 1 this is the scalar recursion.
    """
    if model.cross_cov is not None:
        raise SingularInnovationMatrix(
            "model has correlated noise; use solve_volterra_correlated"
        )
    return solve_volterra_correlated(model, risk)


def solve_volterra_correlated(model: GaussianModel, risk: RiskSpec) -> VolterraSolution:
    """Covariance recursion with signal/observation-noise correlation.

    gbar(t, s) is the covariance of X_t and X_s given the observations and the
    auxiliary (squared-error) observations before step s. Diagonalizing the
    weight block -mu Q_s = sum_i lam_i u_i u_i' gives one auxiliary row
    lam_i u_i' per nonzero lam_i, with independent noise of variance lam_i.
    Step s observes the stacked rows H_s = [A_s; R_s], whose innovation
    covariance is V_s = H g H' + E + E' + diag(1, lam) with E = H [C_ss | 0].
    Right-looking elimination on the flat (T*n, T*n) table: once column s is
    final and its step is checked, every later entry gets that step's
    correction U V_s^{-1} U', U = col H' + [C_s | 0], from one solve and one
    matrix product.
    """
    T, n, m = model.horizon, model.n, model.m
    Qp = -risk.mu * risk.q_blocks(n)
    S = risk.s_values(model.gains)
    lam, vecs = np.linalg.eigh((Qp + Qp.transpose(0, 2, 1)) / 2)
    keep = np.abs(lam) > FEAS_TOL * np.maximum(np.abs(lam).max(axis=1, keepdims=True), 1.0)

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
        aux = lam[s, keep[s]]
        H = np.concatenate([model.gains[s], aux[:, None] * vecs[s][:, keep[s]].T])
        Cs = C[:, s * m : (s + 1) * m]
        E = np.zeros((len(H),) * 2)
        E[:, :m] = H @ Cs[a:b]
        with np.errstate(over="ignore", invalid="ignore"):  # |mu| above about 1e154 overflows V_s
            V = np.diag(np.concatenate([np.ones(m), aux])) + H @ g @ H.T + E + E.T
        if not np.isfinite(V).all():
            raise SingularInnovationMatrix(
                f"innovation covariance at step {s + 1} overflows double precision", step=s + 1
            )
        eig = np.linalg.eigvalsh((V + V.T) / 2)
        # cond(V_s) = |eig|max / |eig|min, written so that V_s = 0 is caught too
        if np.abs(eig).max() >= COND_LIMIT * np.abs(eig).min():
            raise SingularInnovationMatrix(
                f"innovation covariance at step {s + 1} is singular", step=s + 1
            )
        # Analytic continuation, counted by inertia (Haynsworth inertia
        # additivity): the step is feasible when V_s has exactly as many
        # nonpositive eigenvalues as the auxiliary noise has negative
        # variances, none for mu <= 0. This is 1 + S gbar > 0 in the scalar
        # case; unlike the sign of det V_s it sees two eigenvalues of
        # I + S gbar turning negative at one step.
        if np.count_nonzero(eig <= FEAS_TOL) != np.count_nonzero(aux < 0):
            feasible, violation, clause = False, s + 1, CLAUSE_DENOM
            break
        U = work[b:, a:b] @ H.T
        U[:, :m] += Cs[b:]
        # np.dot, not @: numpy's @ skips BLAS when the inner dimension is 1 (mu = 0).
        work[b:, b:] -= np.dot(U, np.linalg.solve(V, U.T))

    return VolterraSolution(
        gamma_bar=_lower_blocks(work, T, n, violation or T), S=S, mu=risk.mu, feasible=feasible,
        first_violation=violation, violated_clause=clause if not feasible else None,
    )


def _denominator(name, Sg, step):
    """1 + S gbar of one step, which must be positive."""
    denom = 1.0 + Sg
    if denom <= FEAS_TOL:
        raise InfeasibleCondition(
            f"{name} recursion denominator vanished at step {step}",
            first_violation=step, clause=CLAUSE_DENOM,
        )
    return denom


def _diagonal_recursion(name, S, first, update) -> np.ndarray:
    """out[0] = first and out[t] = update(t, out[t-1], 1 + S[t-1] out[t-1]) for t >= 1 (0-based).

    Raises ``InfeasibleCondition`` at the first step whose denominator is not
    positive or whose variance is negative, and when 1 + S_T gbar_T is not
    positive.
    """
    T = S.shape[0]
    out = np.zeros(T)
    g = first
    for t in range(T):
        if t > 0:
            g = update(t, g, _denominator(name, S[t - 1] * g, t + 1))
        if g < -FEAS_TOL:
            raise InfeasibleCondition(
                f"{name} recursion produced a negative variance at step {t + 1}",
                first_violation=t + 1, clause=CLAUSE_DIAG,
            )
        out[t] = g
    _denominator(name, S[T - 1] * g, T)
    return out


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
    return _diagonal_recursion("AR(1)", S, D[0], lambda t, g, denom: D[t] + a[t] ** 2 * g / denom)


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
    return _diagonal_recursion(
        "MA(1)", S, 1.0 + lam**2, lambda t, g, denom: 1.0 + lam**2 - lam**2 * S[t - 1] / denom
    )
