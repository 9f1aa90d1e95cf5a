"""Independent references the workloads check their outputs against.

Each is computed outside the timed region and shares no code path with
the routine it checks: the scalar Riccati table against an unpivoted
LDL' factorization, the vector tables against exact Gaussian
conditioning in the augmented observation system.
"""

from __future__ import annotations

import numpy as np

from rsfilt import oracle

# Same thresholds as the library's feasibility checks (1-based steps).
FEAS_TOL = 1e-12
CLAUSE_DIAG = "gamma_bar_t >= 0"
CLAUSE_DENOM = "1 + S_t * gamma_bar_t > 0"


def ldl_pivots(M: np.ndarray, block: int = 64) -> np.ndarray:
    """Pivots d of the unpivoted factorization M = L diag(d) L'.

    Right-looking and blocked: each panel is eliminated column by column,
    the trailing matrix gets one rank-``block`` update. M may be indefinite.
    """
    A = np.array(M, dtype=float)
    n = A.shape[0]
    d = np.empty(n)
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        P = A[j0:, j0:j1]
        for k in range(j1 - j0):
            d[j0 + k] = P[k, k]
            col = P[k + 1 :, k] / P[k, k]
            P[k + 1 :, k + 1 :] -= np.outer(P[k + 1 :, k], col[: j1 - j0 - k - 1])
            P[k + 1 :, k] = col
        L = A[j1:, j0:j1]
        A[j1:, j1:] -= (L * d[j0:j1]) @ L.T
    return d


def scalar_diag(K: np.ndarray, S: np.ndarray, steps: int) -> np.ndarray:
    """gbar_s = d_s - 1/S_s for s < steps, d the pivots of K + diag(1/S).

    The scalar recursion is the Schur-complement table of K + diag(1/S),
    so its diagonal follows from the pivots of the leading block alone.
    """
    M = K[:steps, :steps] + np.diag(1.0 / S[:steps])
    return ldl_pivots(M) - 1.0 / S[:steps]


def scalar_violation(K: np.ndarray, S: np.ndarray):
    """(first_violation, clause) of the scalar recursion, or (None, None)."""
    T = K.shape[0]
    steps = min(128, T)
    while True:
        g = scalar_diag(K, S, steps)
        for s in range(steps):
            if g[s] < -FEAS_TOL:
                return s + 1, CLAUSE_DIAG
            if 1.0 + S[s] * g[s] <= FEAS_TOL:
                return s + 1, CLAUSE_DENOM
        if steps == T:
            return None, None
        steps = T


def augmented_joint(model, Qp: np.ndarray):
    """Joint law of (X, Y, aux) with aux_t = Qp_t X_t + N(0, Qp_t).

    ``Qp`` holds the (T, n, n) weight blocks -mu Q_t (mu <= 0); the
    prediction-error table gbar(t, t) is Cov(X_t | Y_<t, aux_<t).
    """
    base = oracle.assemble_joint(model)
    T, n = model.horizon, model.n
    Tn, N = T * n, base.dim
    Qbig = np.zeros((Tn, Tn))
    for t in range(T):
        Qbig[t * n : (t + 1) * n, t * n : (t + 1) * n] = Qp[t]
    cov = np.empty((N + Tn, N + Tn))
    cov[:N, :N] = base.cov
    cov[:N, N:] = base.cov[:, :Tn] @ Qbig
    cov[N:, :N] = cov[:N, N:].T
    aux = Qbig @ base.cov[:Tn, :Tn] @ Qbig + Qbig
    cov[N:, N:] = (aux + aux.T) / 2
    mean = np.concatenate([base.mean, Qbig @ base.mean[:Tn]])
    labels = dict(base.labels)
    for t in range(T):
        for i in range(n):
            labels[("aux", t + 1, i)] = N + t * n + i
    return oracle.JointGaussian(mean=mean, cov=cov, labels=labels)


def predictor_cov(joint, model, t: int) -> np.ndarray:
    """Cov(X_t | Y_<t, aux_<t) from exact conditioning (t is 1-based)."""
    obs = [i for k, i in joint.labels.items() if k[0] in ("y", "aux") and k[1] < t]
    cond = oracle.condition(joint, obs, np.zeros(len(obs)))
    idx = [cond.index(("x", t, i)) for i in range(model.n)]
    return cond.cov[np.ix_(idx, idx)]


def filtered_mean(joint, model, Y: np.ndarray, t: int) -> np.ndarray:
    """E[X_t | Y_1..Y_t] from exact conditioning (t is 1-based, Y is (T, m))."""
    obs = [joint.index(("y", s, j)) for s in range(1, t + 1) for j in range(model.m)]
    cond = oracle.condition(joint, obs, Y[:t].reshape(-1))
    return cond.mean[[cond.index(("x", t, i)) for i in range(model.n)]]


def close(a, b, rtol: float) -> bool:
    """Elementwise |a - b| <= rtol * max(1, |b|), all finite."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.isfinite(a)) and np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))
