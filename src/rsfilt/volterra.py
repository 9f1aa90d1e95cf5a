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

import math
from dataclasses import dataclass, fields

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
PANEL = 32  # columns per matrix product of the scalar kernel; steps per batch of checks of the correlated kernel
OVERFLOW = "overflows double precision"


@dataclass(frozen=True, init=False)
class VolterraSolution:
    """Solution table of the covariance recursion.

    ``gamma_bar`` is (T, T) in the scalar case or (T, T, n, n) blockwise; only
    entries with t >= s are meaningful. ``first_violation`` is the 1-based
    step at which feasibility first failed (columns from there on are zero).

    A solution stores the lower triangle of the k columns its recursion
    reached (k = T if feasible, else ``first_violation``), packed by rows:
    row t holds gbar(t, 0..min(t, k - 1)), as scalars or as n x n blocks,
    from offset t (t + 1) / 2 up to row k, then k further per row. The
    constructor takes the table or its k leading columns. Each read of
    ``gamma_bar`` builds a fresh zero-padded table; ``horizon``, ``diag`` and
    the rows read the packed buffer.
    """

    _packed: np.ndarray
    S: np.ndarray
    mu: float
    feasible: bool
    first_violation: int | None
    violated_clause: str | None

    def __init__(self, gamma_bar, S, mu, feasible, first_violation=None, violated_clause=None):
        table = np.asarray(gamma_bar)
        values = (_pack(table, first_violation or len(table)), S, mu, feasible, first_violation, violated_clause)
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)

    @property
    def gamma_bar(self) -> np.ndarray:
        return self._padded(self._packed)

    def _padded(self, values) -> np.ndarray:
        """The zero-padded (T, T, ...) table of ``values``, one entry or block per packed entry, in their order."""
        T, k, size = self.horizon, self._reached, values[0].size
        table = np.zeros((T, T) + values.shape[1:])
        kept = np.tri(T, k, dtype=bool)  # row t's first size min(t + 1, k) floats are its packed row's
        table.reshape(T, -1)[:, : k * size][kept.repeat(size, axis=1) if size > 1 else kept] = values.ravel()
        return table

    def _cols(self) -> np.ndarray:
        """The column l of each packed entry gbar(t, l), in their order."""
        T, k = self.horizon, self._reached
        return np.broadcast_to(np.arange(k), (T, k))[np.tri(T, k, dtype=bool)]

    @property
    def horizon(self) -> int:
        return len(self.S)

    @property
    def _reached(self) -> int:
        return self.first_violation or self.horizon

    @property
    def diag(self) -> np.ndarray:
        t = np.arange(self._reached)
        out = np.zeros((self.horizon,) + self._packed.shape[1:])
        out[t] = self._packed[t * (t + 3) // 2]
        return out

    def _rows(self):
        """Row t's stored entries left of the diagonal, gbar(t, :min(t, k)), for t = 0, ..., T - 1: views of
        the packed buffer."""
        packed, k, start = self._packed, self._reached, 0
        for t in range(self.horizon):
            left = t if t < k else k
            yield packed[start : start + left]
            start += left + (t < k)

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
    return bool(np.all(np.linalg.eigvalsh((S + S.transpose(0, 2, 1)) / 2)[:, 0] >= 0))


def solve_volterra(model: GaussianModel, risk: RiskSpec) -> VolterraSolution:
    """Scalar covariance recursion.

    gbar(t, s) = K(t, s) minus the accumulated corrections gbar(t, l) gbar(s, l)
    S_l / (1 + S_l gbar_l) over l < s: the left-looking LDL' elimination of
    K + diag(1/S), by panels of ``PANEL`` columns (the panel that
    ``solve_volterra_correlated`` checks its steps in). A panel's corrections
    from earlier panels, for all t, are one matrix product; its own columns are
    then finished and checked step by step, one matrix-vector product each. On
    the first step where gbar_t < -tol or 1 + S_t gbar_t <= tol the solution is
    marked infeasible and only the columns through it are kept.
    """
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

    gam = np.empty((T, T))  # nothing above the diagonal is read or packed, so it is never cleared
    w = np.zeros(T)  # S_l / (1 + S_l * gbar_l)
    Sf = S.tolist()
    feasible, violation, clause = True, None, None
    for s in range(T):
        p = s - s % PANEL
        if s == p:  # a new panel: one product brings its columns up to date with every earlier panel
            q = min(p + PANEL, T)
            panel = gam[p:, p:q]
            panel[:] = K[p:, p:q]
            if p:
                panel -= gam[p:, :p] @ (gam[p:q, :p] * w[:p]).T
        col = gam[s:, s]
        if s > p:  # a panel's first column has nothing to subtract
            col -= gam[s:, p:s] @ (gam[s, p:s] * w[p:s])
        g = col.item(0)
        denom = 1.0 + Sf[s] * g  # Python floats overflow to inf without a warning
        if g < -FEAS_TOL:
            feasible, violation, clause = False, s + 1, CLAUSE_DIAG
        elif not math.isfinite(denom):
            raise SingularInnovationMatrix(f"innovation covariance at step {s + 1} {OVERFLOW}", step=s + 1)
        elif denom <= FEAS_TOL:
            feasible, violation, clause = False, s + 1, CLAUSE_DENOM
        if not feasible:
            break
        w[s] = Sf[s] / denom
    return VolterraSolution(gam, S, risk.mu, feasible, violation, clause)


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
    Left-looking: column s of the flat table is K minus one product of the
    stored U_l V_l^{-1} and U_l = col_l H_l' + [C_l | 0], l < s.
    """
    T, n, m = model.horizon, model.n, model.m
    S = _weights(risk, model.gains)
    Qp = -risk.mu * risk.q_blocks(n)  # finite where S is
    lam, vecs = np.linalg.eigh(0.5 * Qp + 0.5 * Qp.transpose(0, 2, 1))
    keep = np.abs(lam) > FEAS_TOL * np.maximum(np.abs(lam).max(axis=1, keepdims=True), 1.0)
    r, negative = (m + keep.sum(axis=1)).tolist(), np.count_nonzero(keep & (lam < 0), axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")  # kept rows first, still ascending: H_s = H[s, :r_s]
    lam, vecs = np.take_along_axis(lam, order, 1), np.take_along_axis(vecs, order[:, None, :], 2)
    H = np.concatenate([model.gains, lam[:, :, None] * vecs.transpose(0, 2, 1)], axis=1)
    C = model.flat_cross()
    E = H @ np.concatenate([C.reshape(T, n, T, m)[np.arange(T), :, np.arange(T)], np.zeros((T, n, n))], 2)
    D = E + E.transpose(0, 2, 1) + np.eye(m + n) * np.concatenate([np.ones((T, m)), lam], axis=1)[:, None, :]

    gam = model.flat_cov().copy()  # column s becomes gbar's at step s; the blocks above it are not read
    U = np.zeros((T * n, sum(r)))  # U_l, l < s
    W = np.zeros_like(U)  # U_l V_l^{-1}
    violation, clause, first, gs, Vs, off = None, None, 0, [], [], 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked panel by panel
        for s in range(T):
            a, b, rs, Hs = s * n, (s + 1) * n, r[s], H[s, : r[s]]
            col = gam[a:, a:b]
            col -= W[a:, :off] @ U[a:b, :off].T
            gs.append(col[:n])
            Vs.append(D[s, :rs, :rs] + Hs @ col[:n] @ Hs.T)
            try:
                Vinv = np.linalg.inv(Vs[-1])
            except np.linalg.LinAlgError:  # exactly singular: zeroed (nan if not finite), it fails now
                Vs[-1], Vinv = 0.0 * Vs[-1], None
            else:
                np.matmul(col[n:], Hs.T, out=U[b:, off : off + rs])
                U[b:, off : off + m] += C[b:, s * m : (s + 1) * m]
                np.matmul(U[b:, off : off + rs], Vinv, out=W[b:, off : off + rs])
            off += rs
            if Vinv is None or len(gs) == PANEL or s == T - 1:
                violation, clause = _check_panel(first, np.array(gs), Vs, r[first : s + 1], negative[first : s + 1])
                if violation:
                    break
                first, gs, Vs = s + 1, [], []

    del U, W, C  # released before the rows are packed
    blocks = gam.reshape(T, n, T, n).transpose(0, 2, 1, 3)  # blocks[t, l] = gbar(t, l)
    return VolterraSolution(blocks, S, risk.mu, violation is None, violation, clause)


def _pack(table, k):
    """Rows of the lower triangle of a (T, T) table's or (T, T, n, n) blocks' k leading columns, packed in
    row order: row t, gbar(t, 0..min(t, k - 1)). One concatenation of the row views, so the copy allocates
    nothing beside the packed rows."""
    return np.concatenate([table[t, : min(t + 1, k)] for t in range(len(table))], dtype=float)


def _weights(risk: RiskSpec, gains: np.ndarray) -> np.ndarray:
    """S_t = A_t'A_t - mu Q_t, after raising at the first step where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        S = risk.s_values(gains)
    for step in np.flatnonzero(~np.isfinite(S).reshape(len(S), -1).all(axis=1))[:1] + 1:
        raise SingularInnovationMatrix(f"S_t at step {step} {OVERFLOW}", step=int(step))
    return S


def _check_panel(first, G, Vs, r, negative):
    """(step, clause) of the panel's first infeasible step (0-based ``first`` starts it), or (None, None); raises
    there if V_s is not finite or singular. Checks run in step order, one stacked ``eigvalsh`` per row count r_s."""
    # Zeros for the non-finite steps after a failure; a non-finite gbar_s fails V_s's finiteness check.
    G = 0.5 * G + 0.5 * G.transpose(0, 2, 1)  # halved first: a finite block stays finite
    G[~np.isfinite(G).all(axis=(1, 2))] = 0.0
    codes = np.zeros(len(G), dtype=int)
    for rs in set(r):
        idx = [i for i, ri in enumerate(r) if ri == rs]
        V = np.array([Vs[i] for i in idx])
        V = 0.5 * V + 0.5 * V.transpose(0, 2, 1)
        finite = np.isfinite(V).all(axis=(1, 2))
        V[~finite] = 0.0
        eig = np.linalg.eigvalsh(V)
        # cond(V_s) = |eig|max / |eig|min catches V_s = 0 too. Feasibility counts inertia (Haynsworth):
        # V_s has as many nonpositive eigenvalues as the aux noise has negative variances, 1 + S gbar > 0
        # if scalar; unlike the sign of det V_s it sees two eigenvalues of I + S gbar turn negative at once.
        codes[idx] = np.select([~finite, np.abs(eig).max(axis=1) >= COND_LIMIT * np.abs(eig).min(axis=1),
                                np.count_nonzero(eig <= FEAS_TOL, axis=1) != negative[idx]], [2, 3, 4])
    codes[np.linalg.eigvalsh(G)[:, 0] < -FEAS_TOL * np.maximum(np.trace(G, axis1=1, axis2=2), 1.0)] = 1
    for i in np.flatnonzero(codes)[:1]:
        step, what = first + int(i) + 1, (CLAUSE_DIAG, OVERFLOW, "is singular", CLAUSE_DENOM)[codes[i] - 1]
        if codes[i] in (2, 3):
            raise SingularInnovationMatrix(f"innovation covariance at step {step} {what}", step=step)
        return step, what
    return None, None


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
