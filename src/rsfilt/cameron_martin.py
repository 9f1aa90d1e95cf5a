"""Conditional factorization of the exponential-quadratic transform.

``cm_decompose`` evaluates, step by step, the closed-form factorization of

    I_T = E[ exp((mu/2) sum_t Q_t (X_t - h_t)^2) | Y_1..Y_T ]

into per-step scale factors, per-step quadratic exponents and a positive
martingale driven by the innovations of the risk-neutral filter. All
exponents are assembled in log space; plain values are exposed as
properties. ``cm_general`` evaluates the same object for an arbitrary
jointly Gaussian signal-observation pair through the oracle's conditioning
on the law augmented with the auxiliary observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, SingularConditioning, TransformDiverges
from .filtering import _centering, leg_filter, z_h
from .model import GaussianModel, RiskSpec, sample_paths
from .oracle import _augment, _aux_correction, _schur, assemble_joint, log_expected_exp_quadratic
from .volterra import VolterraSolution, solve_volterra

SIGMA_FLOOR = 1e-14


@dataclass(frozen=True)
class CMDecomposition:
    """Stepwise factorization along one path (batched on leading axes).

    All ``log_*`` fields are natural logarithms; ``I`` and ``M`` are their
    exponentials, always positive for a feasible instance.
    """

    log_I: np.ndarray
    log_M: np.ndarray
    nu: np.ndarray
    gamma: np.ndarray
    gamma_bar: np.ndarray
    z: np.ndarray
    z_tilde: np.ndarray
    step_log_scale: np.ndarray
    step_exponent: np.ndarray
    step_log_M: np.ndarray

    @property
    def I(self) -> np.ndarray:  # noqa: E743 - single-letter name mirrors the math
        return np.exp(self.log_I)

    @property
    def M(self) -> np.ndarray:
        return np.exp(self.log_M)


def _risk_neutral_pass(model: GaussianModel, Y):
    """One-step predictor, innovations and prediction-error variances (mu = 0)."""
    T = model.horizon
    risk0 = RiskSpec(mu=0.0, Q=np.zeros(T))
    sol0 = solve_volterra(model, risk0)
    predictor = z_h(model, risk0, Y, np.zeros_like(Y), solution=sol0)
    A = model.gains1
    nu = Y - A * predictor
    return sol0, predictor, nu


def cm_decompose(model: GaussianModel, risk: RiskSpec, Y, h,
                 solution: VolterraSolution | None = None) -> CMDecomposition:
    """Evaluate the stepwise factorization for realized observations and estimates."""
    model._require_scalar()
    T = model.horizon
    Y = np.asarray(Y, dtype=float)
    h = np.asarray(h, dtype=float)
    if solution is None:
        solution = solve_volterra(model, risk)
    solution.require_feasible()

    A = model.gains1
    Q = risk.q_vector()
    mu = risk.mu
    gbar = solution.diag
    S = solution.S

    sol0, predictor, nu = _risk_neutral_pass(model, Y)
    gamma = sol0.diag

    Z, Zt = _centering(model, risk, Y, h, solution)

    one_bar = 1.0 + A**2 * gbar
    one_rn = 1.0 + A**2 * gamma
    step_log_scale = -0.5 * (np.log1p(S * gbar) - np.log(one_bar))
    step_exponent = 0.5 * mu * Q * one_bar / (1.0 + S * gbar) * (h - Zt) ** 2

    diff = Z - predictor
    step_log_M = (
        0.5 * (np.log(one_rn) - np.log(one_bar))
        + A / one_bar * diff * nu
        - 0.5 * A**2 / one_bar * diff**2
        - 0.5 * A**2 * (gamma - gbar) * nu**2 / (one_bar * one_rn)
    )

    log_M = np.cumsum(step_log_M, axis=-1)
    log_I = np.cumsum(step_log_scale + step_exponent, axis=-1) + log_M
    return CMDecomposition(
        log_I=log_I,
        log_M=log_M,
        nu=nu,
        gamma=np.broadcast_to(gamma, Y.shape).copy(),
        gamma_bar=np.broadcast_to(gbar, Y.shape).copy(),
        z=Z,
        z_tilde=Zt,
        step_log_scale=np.broadcast_to(step_log_scale, Y.shape).copy(),
        step_exponent=step_exponent,
        step_log_M=step_log_M,
    )


def martingale_expectation_check(model: GaussianModel, risk: RiskSpec,
                                 n_paths: int, seed: int):
    """Monte Carlo estimate of E[M_T]; returns (estimate, stderr).

    The estimate sequence fed to the factorization is the optimal filter,
    which exercises every term of the martingale.
    """
    model._require_scalar()
    solution = solve_volterra(model, risk).require_feasible()
    _, Yb = sample_paths(model, seed, n_paths)
    Yb = Yb[:, :, 0]
    h = leg_filter(model, risk, Yb, solution=solution).h_bar
    dec = cm_decompose(model, risk, Yb, h, solution=solution)
    M = np.exp(dec.log_M[:, -1])
    est = float(np.mean(M))
    stderr = float(np.std(M, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return est, stderr


def exact_martingale_expectation(model: GaussianModel, risk: RiskSpec, filt) -> float:
    """E[M_T] as one exact Gaussian integral, for an affine causal filter.

    Once the filter is affine, so are the steps' pairs w_t = (Z_t - predictor_t,
    nu_t) in Y, and log M_T = r0 - w'Dw/2 is a quadratic form in Y. The affine
    coefficients come from one batched pass over the paths [0; I_T].
    """
    model._require_scalar()
    T = model.horizon
    solution = solve_volterra(model, risk).require_feasible()
    A = model.gains1
    gbar = solution.diag

    # Row 0 of the batch gives w(0), row 1 + j gives w(0) + W e_j.
    B = np.vstack([np.zeros(T), np.eye(T)])
    sol0, predictor, nu = _risk_neutral_pass(model, B)
    gamma = sol0.diag
    w = np.hstack([z_h(model, risk, B, filt.apply(B), solution=solution) - predictor, nu])
    w0, W = w[0], (w[1:] - w[0]).T

    one_bar = 1.0 + A**2 * gbar
    one_rn = 1.0 + A**2 * gamma
    beta = np.diag(A / one_bar)
    D = np.block([[np.diag(A**2 / one_bar), -beta],
                  [-beta, np.diag(A**2 * (gamma - gbar) / (one_bar * one_rn))]])
    r = float(np.sum(0.5 * (np.log(one_rn) - np.log(one_bar)))) - 0.5 * w0 @ D @ w0

    joint = assemble_joint(model)
    y_idx = joint.indices("y")
    meanY = joint.mean[y_idx]
    covY = joint.cov[np.ix_(y_idx, y_idx)]
    return float(np.exp(log_expected_exp_quadratic(meanY, covY, W.T @ D @ W, -W.T @ D @ w0, r)))


@dataclass(frozen=True)
class InfoStateDensity:
    """Gaussian kernel with an accumulated positive weight.

    The unnormalized conditional density at step t is
    weight * N(center, variance) evaluated pointwise.
    """

    center: float
    variance: float
    log_weight: float

    @property
    def weight(self) -> float:
        return float(np.exp(self.log_weight))

    def density(self, x):
        x = np.asarray(x, dtype=float)
        kernel = np.exp(-((x - self.center) ** 2) / (2.0 * self.variance))
        return self.weight * kernel / np.sqrt(2.0 * np.pi * self.variance)


def info_state(model: GaussianModel, risk: RiskSpec, Y, h, t: int,
               solution: VolterraSolution | None = None) -> InfoStateDensity:
    """Parameters of the unnormalized conditional density at step t (1-based).

    The weight accumulates the per-step factors up to t-1 and the martingale
    at t, so integrating the density recovers the conditional transform of
    the criterion truncated before step t.
    """
    T = model.horizon
    if not 1 <= t <= T:
        raise DomainError(f"step t must lie in [1, {T}], got {t}")
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 1:
        raise DimensionMismatch("info_state evaluates a single path")
    dec = cm_decompose(model, risk, Y, h, solution=solution)
    partial = float(np.sum(dec.step_log_scale[: t - 1] + dec.step_exponent[: t - 1]))
    log_weight = partial + float(dec.log_M[t - 1])
    center = float(dec.z_tilde[t - 1])
    g, A = dec.gamma_bar[t - 1], model.gains1[t - 1]
    variance = float(g / (1.0 + A**2 * g))
    if variance <= 0:
        raise DomainError(f"filtered variance at step {t} is not positive")
    return InfoStateDensity(center=center, variance=variance, log_weight=log_weight)


@dataclass(frozen=True)
class CMGeneralResult:
    """Factorization of the conditional transform for a general Gaussian pair."""

    log_I: np.ndarray
    log_M: np.ndarray
    z_tilde: np.ndarray
    gamma_tilde: np.ndarray
    sigma2: np.ndarray
    sigma2_bar: np.ndarray
    v_bar: np.ndarray

    @property
    def I(self) -> np.ndarray:  # noqa: E743
        return np.exp(self.log_I)

    @property
    def M(self) -> np.ndarray:
        return np.exp(self.log_M)


def cm_general(joint_or_model, risk: RiskSpec, Y, h, aux_values=None) -> CMGeneralResult:
    """Conditional transform factorization without structural assumptions.

    Works from the joint law of the signal and observation coordinates
    alone: the filtered moments, innovation variances and martingale factors
    are produced by exact Gaussian conditioning on the law augmented with
    squared-error auxiliary observations (mu > 0 proceeds as the analytic
    continuation with negative auxiliary noise weights). The auxiliary
    observation values cancel out of the result; ``aux_values`` (default
    zeros) only needs to be a finite vector of the right length.

    An observed coordinate is dropped only when its whole covariance row
    vanishes: at mu > 0 a zero-variance auxiliary can still be informative.
    """
    joint = assemble_joint(joint_or_model) if isinstance(joint_or_model, GaussianModel) else joint_or_model
    Y = np.asarray(Y, dtype=float)
    h = np.asarray(h, dtype=float)
    x_idx, y_idx = joint.indices("x"), joint.indices("y")
    T, N = len(y_idx), joint.dim
    if len(x_idx) != T:
        raise DimensionMismatch("general factorization requires one signal coordinate per step")
    if Y.shape != (T,) or h.shape != (T,):
        raise DimensionMismatch(f"Y and h must have length {T}")
    aux = np.zeros(T) if aux_values is None else np.asarray(aux_values, dtype=float)
    if aux.shape != (T,):
        raise DimensionMismatch(f"aux_values must have length {T}")
    if not np.all(np.isfinite(aux)):
        raise DomainError("aux_values must be finite")

    mu, Q = risk.mu, risk.q_vector()
    Qp = -mu * Q
    # aux_t sits at N + t - 1, after the joint's own coordinates
    mean, cov = _augment(joint.mean, joint.cov, x_idx, Qp, h)
    row_max = np.max(np.abs(cov), axis=1)
    live = row_max > 1e-14 * max(float(np.max(row_max)), 1.0)

    def moments(i, obs, vals):
        """Conditional mean, variance and auxiliary correction of coordinate i."""
        obs_set = set(obs)
        keep = [k for k, j in enumerate(obs) if live[j]]
        rest = [j for j in range(len(mean)) if j not in obs_set]
        mc, Sc = _schur(mean, cov, [obs[k] for k in keep], vals[keep], rest)
        pos = {j: k for k, j in enumerate(rest)}
        k = pos[i]
        steps = [j - N for j in obs if j >= N]  # observed auxiliaries, 0-based steps
        return mc[k], Sc[k, k], _aux_correction(aux[steps], Sc[k], [pos[x_idx[s]] for s in steps])

    log_steps, log_m_steps, z_t, g_t, s2, s2b, vb = np.zeros((7, T))
    for t in range(1, T + 1):
        y_hist = y_idx[: t - 1]
        hist = y_hist + list(range(N, N + t - 1))
        hist_vals = np.concatenate([Y[: t - 1], aux[: t - 1]])

        # plain innovation moments of Y_t
        piY, s2[t - 1], _ = moments(y_idx[t - 1], y_hist, Y[: t - 1])
        if s2[t - 1] <= SIGMA_FLOOR:
            raise SingularConditioning(f"innovation variance at step {t} is not positive")

        # augmented-history innovation moments of Y_t
        v, s2b[t - 1], corr = moments(y_idx[t - 1], hist, hist_vals)
        if s2b[t - 1] <= SIGMA_FLOOR:
            raise SingularConditioning(f"augmented innovation variance at step {t} is not positive")
        vb[t - 1] = v - corr

        # filtered moments of X_t given observations to t, auxiliaries to t-1
        z, g_t[t - 1], zcorr = moments(x_idx[t - 1], hist + [y_idx[t - 1]], np.append(hist_vals, Y[t - 1]))
        z_t[t - 1] = z - zcorr

        denom = 1.0 + Qp[t - 1] * g_t[t - 1]
        if denom <= SIGMA_FLOOR:
            raise TransformDiverges(
                f"the conditional transform diverges at step {t} (1 - mu Q gamma = {denom:.3e})"
            )
        log_steps[t - 1] = (
            -0.5 * np.log(denom)
            + 0.5 * mu * Q[t - 1] / denom * (h[t - 1] - z_t[t - 1]) ** 2
        )
        log_m_steps[t - 1] = (
            0.5 * (np.log(s2[t - 1]) - np.log(s2b[t - 1]))
            + (Y[t - 1] - piY) ** 2 / (2.0 * s2[t - 1])
            - (Y[t - 1] - vb[t - 1]) ** 2 / (2.0 * s2b[t - 1])
        )

    log_M = np.cumsum(log_m_steps)
    return CMGeneralResult(
        log_I=np.cumsum(log_steps) + log_M,
        log_M=log_M,
        z_tilde=z_t,
        gamma_tilde=g_t,
        sigma2=s2,
        sigma2_bar=s2b,
        v_bar=vb,
    )
