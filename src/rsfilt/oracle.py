"""Exact ground truth: joint-Gaussian conditioning, exponential-quadratic
expectations, the augmented observation system, and brute-force risk
minimization over affine causal filters.

Everything here goes through symmetric factorizations with explicit
condition-number guards; a failure raises instead of regularizing, because
these routines act as the reference the recursive solvers are tested against.
The Schur complement and the augmented-law builder run on raw arrays, so
``cameron_martin.cm_general`` uses them on its indefinite law too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    DimensionMismatch,
    NoConvergence,
    NotPositiveSemidefinite,
    SingularConditioning,
    TransformDiverges,
)
from .filtering import AffineFilter, leg_affine
from .model import GaussianModel, RiskSpec, build_ar1, check_psd
from .volterra import COND_LIMIT

DIVERGE_TOL = 1e-12
DEGENERATE_VAR = 1e-14


# --- exponential-quadratic expectations --------------------------------------

def log_expected_exp_quadratic(mean, cov, P, q=None, r=0.0) -> float:
    """log E exp(-z'Pz/2 + q'z + r) for z ~ N(mean, cov).

    Diverges (raises TransformDiverges) unless every eigenvalue of
    cov^(1/2) P cov^(1/2) exceeds -1.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    P = np.asarray(P, dtype=float)
    N = mean.shape[0]
    q = np.zeros(N) if q is None else np.asarray(q, dtype=float)

    vals, vecs = np.linalg.eigh((cov + cov.T) / 2)
    L = vecs * np.sqrt(np.clip(vals, 0.0, None))
    B = L.T @ P @ L
    lam, E = np.linalg.eigh((B + B.T) / 2)
    if np.min(1.0 + lam) <= DIVERGE_TOL:
        raise TransformDiverges(
            f"exponential-quadratic expectation diverges (min eigenvalue 1+{lam.min():.3e})"
        )
    u = q - P @ mean
    v = E.T @ (L.T @ u)
    return float(
        -0.5 * mean @ P @ mean
        + q @ mean
        + r
        - 0.5 * np.sum(np.log1p(lam))
        + 0.5 * np.sum(v * v / (1.0 + lam))
    )


def expected_exp_quadratic(mean, cov, P, q=None, r=0.0) -> float:
    return float(np.exp(log_expected_exp_quadratic(mean, cov, P, q, r)))


def gaussian_pair_exp(mU, mV, gU, gV, gUV, D, l1, l2) -> float:
    """E exp(-D U^2 / 2 + l1 U - l2 V) for a Gaussian pair (U, V).

    Closed form; requires 1 + D gU > 0 and a valid covariance
    (gUV^2 <= gU gV).
    """
    if gU < 0 or gV < 0 or gUV**2 > gU * gV * (1 + 1e-12) + 1e-300:
        raise DomainError("(gU, gV, gUV) is not a covariance")
    c = 1.0 + D * gU
    if c <= DIVERGE_TOL:
        raise DomainError(f"1 + D*gU = {c:.3e} is not positive; the expectation diverges")
    shifted = mU - l2 * gUV
    expo = (
        -l2 * mV
        + 0.5 * l2**2 * gV
        - 0.5 * (D / c) * shifted**2
        + (l1**2 * gU + 2.0 * l1 * shifted) / (2.0 * c)
    )
    return float(c ** (-0.5) * np.exp(expo))


# --- joint Gaussian laws ------------------------------------------------------

@dataclass(frozen=True)
class JointGaussian:
    """A labeled joint Gaussian law.

    ``labels`` maps coordinate names — tuples like ("x", t, i), ("y", t, j) or
    ("aux", t, 0) with 1-based step t — to positions in ``mean``/``cov``.
    """

    mean: np.ndarray
    cov: np.ndarray
    labels: dict = field(default_factory=dict)
    dropped: tuple = ()

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionMismatch("cov must be square and match the mean length")
        if mean.shape[0] == 0:
            return
        if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, float(np.max(np.abs(cov)))):
            raise NotPositiveSemidefinite("cov is not symmetric")
        check_psd(cov, "joint covariance")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def index(self, label) -> int:
        return self.labels[label]

    def indices(self, kind: str) -> list[int]:
        """All coordinate positions of one kind ('x', 'y', 'aux'), step-ordered."""
        keys = sorted(k for k in self.labels if k[0] == kind)
        return [self.labels[k] for k in keys]


def _schur(mean, cov, obs, vals, rest):
    """Conditional (mean, cov) of coordinates ``rest`` given ``obs`` = ``vals``.

    Unvalidated Schur complement: the caller picks the observed coordinates
    it keeps, and the law may be indefinite. Only the condition number of
    the observed block is guarded.
    """
    if not obs:
        return mean[rest], cov[np.ix_(rest, rest)]
    Soo = cov[np.ix_(obs, obs)]
    if np.linalg.cond(Soo) > COND_LIMIT:
        raise SingularConditioning(f"observed block is numerically singular (cond > {COND_LIMIT:.0e})")
    Sro = cov[np.ix_(rest, obs)]
    sol = np.linalg.solve(Soo, vals - mean[obs])
    Sc = cov[np.ix_(rest, rest)] - Sro @ np.linalg.solve(Soo, Sro.T)
    return mean[rest] + Sro @ sol, (Sc + Sc.T) / 2


def condition(joint: JointGaussian, observed_indices, observed_values) -> JointGaussian:
    """Condition on coordinates taking exact values.

    An observed coordinate whose variance is already ~0 is dropped from the
    conditioning set (and listed in ``dropped``) rather than regularized.
    """
    observed_indices = list(observed_indices)
    observed_values = np.asarray(observed_values, dtype=float)
    if len(observed_indices) != observed_values.shape[0]:
        raise DimensionMismatch("observed indices and values differ in length")
    if len(observed_indices) == 0:
        return joint

    scale = max(float(np.max(np.diag(joint.cov))), 1.0)
    keep = [k for k, i in enumerate(observed_indices) if joint.cov[i, i] > DEGENERATE_VAR * scale]
    obs = [observed_indices[k] for k in keep]
    obs_set, observed_set = set(obs), set(observed_indices)
    dropped = tuple(i for i in observed_indices if i not in obs_set)
    rest = [i for i in range(joint.dim) if i not in observed_set]
    mean, cov = _schur(joint.mean, joint.cov, obs, observed_values[keep], rest)

    remap = {old: new for new, old in enumerate(rest)}
    labels = {k: remap[i] for k, i in joint.labels.items() if i in remap}
    return JointGaussian(mean=mean, cov=cov, labels=labels, dropped=dropped)


def assemble_joint(model: GaussianModel) -> JointGaussian:
    """Joint law of all signal and observation coordinates."""
    T, n, m = model.horizon, model.n, model.m
    Kf = model.flat_cov()
    Cf = model.flat_cross()
    Af = np.zeros((T * m, T * n))
    for t in range(T):
        Af[t * m : (t + 1) * m, t * n : (t + 1) * n] = model.gains[t]

    N = T * n + T * m
    mean = np.empty(N)
    mean[: T * n] = model.flat_mean()
    mean[T * n :] = Af @ model.flat_mean()

    cov = np.empty((N, N))
    cov[: T * n, : T * n] = Kf
    cov[: T * n, T * n :] = Kf @ Af.T + Cf
    cov[T * n :, : T * n] = cov[: T * n, T * n :].T
    cov[T * n :, T * n :] = Af @ Kf @ Af.T + np.eye(T * m) + Af @ Cf + Cf.T @ Af.T

    labels = {("x", t + 1, i): t * n + i for t in range(T) for i in range(n)}
    labels.update({("y", t + 1, j): T * n + t * m + j for t in range(T) for j in range(m)})
    return JointGaussian(mean=mean, cov=cov, labels=labels)


def _augment(mean, cov, x_idx, Qp, h):
    """Unvalidated (mean, cov) of ``augment_with_aux`` on raw arrays, aux_t at
    len(mean) + t - 1; a negative Qp (mu > 0) gives an indefinite law."""
    Qp = np.asarray(Qp, dtype=float)
    h = np.asarray(h, dtype=float)
    T, N = len(x_idx), mean.shape[0]
    if Qp.shape != (T,) or h.shape != (T,):
        raise DimensionMismatch("Qp and h must be scalar sequences matching the signal horizon")
    out = np.zeros((N + T, N + T))
    out[:N, :N] = cov
    out[:N, N:] = cov[:, x_idx] * Qp[None, :]
    out[N:, :N] = out[:N, N:].T
    out[N:, N:] = Qp[:, None] * cov[np.ix_(x_idx, x_idx)] * Qp[None, :] + np.diag(Qp)
    return np.concatenate([mean, Qp * (mean[x_idx] - h)]), out


def augment_with_aux(joint: JointGaussian, Qp, h) -> JointGaussian:
    """Extend an (x, y) joint with the squared-error auxiliary observations.

    aux_t = Qp_t (X_t - h_t) + sqrt(Qp_t) e_t with independent standard
    noise e and the realized estimates ``h`` treated as constants. Scalar
    signal coordinates only; the result is validated.
    """
    x_idx = joint.indices("x")
    mean, cov = _augment(joint.mean, joint.cov, x_idx, Qp, h)
    labels = dict(joint.labels)
    labels.update({("aux", t + 1, 0): joint.dim + t for t in range(len(x_idx))})
    return JointGaussian(mean=mean, cov=cov, labels=labels)


def _aux_correction(aux, row, x_pos):
    """sum_s aux_s Cov(., X_s | history), from a conditional covariance row
    and the positions of X_1, X_2, ... in it, summed in step order."""
    return sum(a * row[j] for a, j in zip(aux, x_pos))


@dataclass(frozen=True)
class AugmentedSystem:
    """Augmented observation system with one realized trajectory.

    ``aux_values`` were drawn consistently with ``y_values`` (signal sampled
    from its conditional law, then independent auxiliary noise).
    """

    joint: JointGaussian
    y_values: np.ndarray
    aux_values: np.ndarray
    h: np.ndarray
    mu: float

    @property
    def horizon(self) -> int:
        return len(self.y_values)

    def _moments(self, t: int, n_y: int):
        """(mean, variance, auxiliary correction) of X_t given Y_1..Y_{n_y}, aux_1..aux_{t-1}."""
        T = self.horizon
        if not 1 <= t <= T:
            raise DomainError(f"step t must lie in [1, {T}], got {t}")
        idx = [self.joint.index(("y", s + 1, 0)) for s in range(n_y)]
        idx += [self.joint.index(("aux", s, 0)) for s in range(1, t)]
        vals = np.concatenate([self.y_values[:n_y], self.aux_values[: t - 1]])
        cond = condition(self.joint, idx, vals)
        i = cond.index(("x", t, 0))
        x_pos = [cond.index(("x", s, 0)) for s in range(1, t)]
        return cond.mean[i], cond.cov[i, i], _aux_correction(self.aux_values[: t - 1], cond.cov[i], x_pos)

    def predictor_moments(self, t: int):
        """(mean, variance, error-accumulator covariance) of X_t given the
        augmented history up to t-1.

        The third value is sum_{s<t} aux_s Cov(X_t, X_s | history), the
        correction that turns the predictor into the centering sequence.
        """
        mean, var, acc = self._moments(t, t - 1)
        return float(mean), float(var), float(acc)

    def filtered_moments(self, t: int):
        """(center, variance) of X_t given observations to t and auxiliaries to t-1."""
        mean, var, acc = self._moments(t, t)
        return float(mean - acc), float(var)


def augmented_system(model: GaussianModel, risk: RiskSpec, h, Y_values, aux_seed: int = 0) -> AugmentedSystem:
    """Build the augmented system and draw auxiliary observations.

    The signal is sampled from its conditional law given ``Y_values``; the
    auxiliary observations are formed from it with fresh independent noise,
    all driven by ``aux_seed``. Requires mu < 0 (the construction realizes
    the weights -mu Q as auxiliary noise variances).
    """
    model._require_scalar()
    if risk.mu >= 0:
        raise DomainError("the augmented observation system requires mu < 0")
    T = model.horizon
    h = np.asarray(h, dtype=float)
    Y_values = np.asarray(Y_values, dtype=float)
    Qp = -risk.mu * risk.q_vector()

    base = assemble_joint(model)
    joint = augment_with_aux(base, Qp, h)

    y_idx = [base.index(("y", t + 1, 0)) for t in range(T)]
    cond = condition(base, y_idx, Y_values)
    x_idx = [cond.index(("x", t + 1, 0)) for t in range(T)]
    mc = cond.mean[x_idx]
    Sc = cond.cov[np.ix_(x_idx, x_idx)]
    vals, vecs = np.linalg.eigh((Sc + Sc.T) / 2)
    L = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(aux_seed)))
    x_draw = mc + L @ rng.standard_normal(T)
    aux = Qp * (x_draw - h) + np.sqrt(Qp) * rng.standard_normal(T)
    return AugmentedSystem(joint=joint, y_values=Y_values, aux_values=aux, h=h, mu=risk.mu)


def conditional_exp_quadratic(joint: JointGaussian, Y_values, risk: RiskSpec, h) -> float:
    """E[ exp((mu/2) sum_t Q_t (X_t - h_t)^2) | Y = Y_values ], exactly."""
    Y_values = np.asarray(Y_values, dtype=float)
    h = np.asarray(h, dtype=float)
    y_idx = joint.indices("y")
    cond = condition(joint, y_idx, Y_values)
    x_idx = cond.indices("x")
    T = len(x_idx)
    if h.shape != (T,):
        raise DimensionMismatch(f"h must have length {T}")
    mc = cond.mean[x_idx]
    Sc = cond.cov[np.ix_(x_idx, x_idx)]
    P = -risk.mu * np.diag(risk.q_vector())
    return expected_exp_quadratic(mc - h, Sc, P)


# --- brute-force affine-filter optimization ----------------------------------

def affine_from_filter(apply_fn, T: int) -> AffineFilter:
    """Extract affine coefficients by evaluating a filter on basis paths.

    A filter output of shape (T,) or (T, n) is flattened in (t, component)
    order and the gains of step t on observations after t are zeroed, so the
    map has ``leg_affine``'s layout: intercept (T n,), gains (T n, T).
    """
    def probe(y):
        return np.asarray(apply_fn(y), dtype=float).reshape(T, -1)

    base = probe(np.zeros(T))
    G = np.stack([probe(e) - base for e in np.eye(T)], axis=-1)  # (t, component, l)
    G = np.where(np.tri(T, dtype=bool)[:, None, :], G, 0.0)
    return AffineFilter(intercept=base.reshape(-1), gains=G.reshape(-1, T))


def _pack(filt: AffineFilter) -> np.ndarray:
    T = filt.intercept.shape[0]
    return np.concatenate([filt.intercept, filt.gains[np.tril_indices(T)]])


def _unpack(theta: np.ndarray, T: int) -> AffineFilter:
    G = np.zeros((T, T))
    G[np.tril_indices(T)] = theta[T:]
    return AffineFilter(intercept=theta[:T].copy(), gains=G)


def _affine_criterion(model: GaussianModel, risk: RiskSpec, extra_x_weight=None):
    """(k, dim) stack of packed affine filters -> (values, min eigenvalues) of
    E mu exp((mu/2) [sum_t Q_t e_t^2 + sum_t R_t X_t^2]), k each.

    The (X, Y) joint is assembled and validated once. A filter (c, G) gives
    w = M (X, Y) - (c, 0), M = [I, -G] stacked over [I, 0] when R is given;
    with P = -mu diag(Q, R) = +-D and D^(1/2) folded into M's rows, a row is
    one symmetric eigensolve of D^(1/2) Cov(w) D^(1/2) in the T or 2T dims of w,
    and the stack is one batched eigensolve. A row whose 1 + min eigenvalue is
    at most DIVERGE_TOL diverges and has value inf; every row's value depends
    on that row alone.
    """
    if risk.mu == 0.0:
        raise DomainError("criterion value is undefined at mu = 0")
    if model.m != 1:
        raise DimensionMismatch("affine-risk evaluation requires scalar observations")
    T, n, mu = model.horizon, model.n, risk.mu
    joint = assemble_joint(model)
    keep = np.concatenate([np.arange(T) * n, T * n + np.arange(T)])
    mean, cov = joint.mean[keep], joint.cov[np.ix_(keep, keep)]
    weights = risk.q_vector()
    if extra_x_weight is not None:
        weights = np.concatenate([weights, np.asarray(extra_x_weight, dtype=float)])
    if np.any(weights < 0):
        raise DomainError("extra_x_weight must be nonnegative")
    sign = -np.sign(mu)  # P = sign * D
    root = np.sqrt(abs(mu) * weights)
    M = root[:, None] * np.tile(np.eye(T, 2 * T), (weights.shape[0] // T, 1))
    rows, cols = np.tril_indices(T)

    def criterion(thetas):
        Ms = np.repeat(M[None], thetas.shape[0], axis=0)
        Ms[:, rows, T + cols] = -root[rows] * thetas[:, T:]
        d = Ms @ mean
        d[:, :T] -= root[:T] * thetas[:, :T]
        beta, V = np.linalg.eigh(Ms @ cov @ Ms.transpose(0, 2, 1))
        lam = sign * beta
        lam_min = lam.min(axis=1)
        ok = 1.0 + lam_min > DIVERGE_TOL
        lam, v = lam[ok], (d[ok, None, :] @ V[ok])[:, 0]
        values = np.full(thetas.shape[0], np.inf)
        values[ok] = mu * np.exp(-0.5 * (np.log1p(lam).sum(axis=1) + sign * (v * v / (1.0 + lam)).sum(axis=1)))
        return values, lam_min

    return criterion


def exact_affine_risk(model: GaussianModel, risk: RiskSpec, filt: AffineFilter, extra_x_weight=None) -> float:
    """E mu exp((mu/2) [sum_t Q_t (X_t - h_t)^2 + sum_t R_t X_t^2]) for affine h.

    The optional nonnegative sequence ``extra_x_weight`` adds the pure
    signal-quadratic term; the value is computed as one unconditional
    exponential-quadratic Gaussian integral. Vector-valued signals are
    allowed with scalar observations; the criterion then weighs the first
    signal component.
    """
    (value,), (lam_min,) = _affine_criterion(model, risk, extra_x_weight)(_pack(filt)[None])
    if 1.0 + lam_min <= DIVERGE_TOL:
        raise TransformDiverges(f"affine-filter criterion diverges (min eigenvalue 1+{lam_min:.3e})")
    return float(value)


def _compass(x, step, tol, budget):
    """One compass search as a coroutine: yields (k, dim) trial stacks, is sent their values.

    A round yields both signs of every coordinate left in the sweep, at the
    current point, and replays their values in sweep order (+ before -) up to
    the first improvement; later values are dropped uncounted. The iterates
    and the evaluation count are those of the one-trial-at-a-time loop.
    Returns (x, fx, n_eval, converged).
    """
    (fx,) = yield x[None]
    n_eval, dim = 1, x.shape[0]
    coords, signs = np.arange(dim).repeat(2), np.tile([1.0, -1.0], dim)
    while step > tol and n_eval < budget:
        improved, i = False, 0
        while i < dim:
            trials = np.repeat(x[None], 2 * (dim - i), axis=0)
            trials[np.arange(trials.shape[0]), coords[2 * i :]] += signs[2 * i :] * step
            values = yield trials
            first, i = i, dim  # the sweep ends with this round unless an improvement resumes it
            for j, ft in enumerate(values):
                n_eval += 1
                if ft < fx - 1e-18:
                    x, fx, improved = trials[j], ft, True
                    if n_eval < budget:
                        i = first + j // 2 + 1  # the sweep goes on from the new point
                    break
                if j % 2 and n_eval >= budget:  # the budget is checked after each coordinate
                    break
        step = min(step * 2.0, 1.0) if improved else step * 0.5
    return x, fx, n_eval, step <= tol


def _pattern_search(f, starts, step0=0.25, tol=1e-9, budget=100000):
    """Compass searches (step doubling on success, halving on failure) from
    each of ``starts``, each with its own ``budget``, run in lockstep: a round
    concatenates the running searches' trial stacks into one call of ``f``,
    which maps a (k, dim) stack to k values, each depending on its row alone,
    so every search takes the path it takes by itself. Returns one
    (x, fx, n_eval, converged) per start.
    """
    searches = [_compass(np.asarray(x, dtype=float), float(step0), tol, budget) for x in starts]
    pending = {k: next(s) for k, s in enumerate(searches)}
    results = [None] * len(searches)
    while pending:
        values = f(np.concatenate(list(pending.values()))).tolist()
        for k, trials in list(pending.items()):
            part, values = values[: trials.shape[0]], values[trials.shape[0] :]
            try:
                pending[k] = searches[k].send(part)
            except StopIteration as done:
                results[k] = done.value
                del pending[k]
    return results


def minimize_affine_risk(model: GaussianModel, risk: RiskSpec, extra_x_weight=None,
                         starts: int = 5, budget: int = 100000, tol: float = 1e-9):
    """Brute-force minimization of the exponential criterion over causal affine filters.

    Starts the compass search from the risk-neutral filter's coefficients
    for the first signal component and from ``starts - 1`` perturbed
    restarts, each with ``budget // starts`` evaluations; the restarts run
    in lockstep, one batched eigensolve per round. Returns the best
    (AffineFilter, risk value); raises NoConvergence when the best search
    did not converge and the searches spent the whole budget.
    """
    if model.m != 1:
        raise DimensionMismatch("affine-risk minimization requires scalar observations")
    T = model.horizon
    neutral = leg_affine(model, RiskSpec(mu=0.0, Q=np.zeros(T)))
    first = np.arange(T) * model.n
    start = AffineFilter(intercept=neutral.intercept[first], gains=neutral.gains[first])
    if extra_x_weight is None and not np.any(risk.q_vector()):
        return start, risk.mu  # flat objective

    criterion = _affine_criterion(model, risk, extra_x_weight)
    x0 = _pack(start)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20240117)))
    xs = [x0 if k == 0 else x0 + rng.normal(scale=0.05, size=x0.shape) for k in range(starts)]
    runs = _pattern_search(lambda thetas: criterion(thetas)[0], xs, tol=tol, budget=budget // starts)
    x, fx, _, converged = min(runs, key=lambda run: run[1])  # the first of equal values
    if not converged and sum(run[2] for run in runs) >= budget:
        raise NoConvergence(f"affine risk minimization did not converge within {budget} evaluations")
    return _unpack(x, T), float(fx)

# --- backward Riccati example -------------------------------------------------

LAMBDA_RATIO = (3.0 - np.sqrt(5.0)) / (3.0 + np.sqrt(5.0))


@dataclass(frozen=True)
class BackwardRiccati:
    """Backward recursion G(T,t) = 1 + G(T,t+1)/(1+G(T,t+1)), G(T,T) = 0.

    ``gamma`` holds (G(T,1), ..., G(T,T)); ``closed_form`` the matching
    eigen-ratio closed form; ``max_discrepancy`` their largest difference.
    """

    gamma: np.ndarray
    closed_form: np.ndarray
    lambda_const: float
    max_discrepancy: float


def _backward_gamma(T: int, terminal: float) -> np.ndarray:
    """(G(T,1), ..., G(T,T)) of G(T,t) = 1 + G(T,t+1)/(1+G(T,t+1)) from G(T,T) = terminal."""
    g = np.full(T, float(terminal))
    for t in range(T - 2, -1, -1):
        g[t] = 1.0 + g[t + 1] / (1.0 + g[t + 1])
    return g


def backward_riccati(T: int) -> BackwardRiccati:
    if T < 1:
        raise DomainError("T must be at least 1")
    rec = _backward_gamma(T, 0.0)

    s5 = np.sqrt(5.0)
    k = T - np.arange(1, T + 1)
    lk = LAMBDA_RATIO**k
    closed = 2.0 * (1.0 - lk) / ((s5 - 1.0) + (s5 + 1.0) * lk)
    return BackwardRiccati(
        gamma=rec,
        closed_form=closed,
        lambda_const=float(LAMBDA_RATIO),
        max_discrepancy=float(np.max(np.abs(rec - closed))),
    )


def _tilted_random_walk(T: int, terminal: float):
    """AR(1) model with a_t = D_t = 1/(1+G(T,t)) for a chosen terminal value of G."""
    coeff = 1.0 / (1.0 + _backward_gamma(T, terminal))
    return build_ar1(coeff, coeff, 0.0, np.ones(T), T), coeff


def leg_vs_rs_example(T: int, bruteforce: bool | None = None) -> dict:
    """Horizon-coupled versus stepwise minimization on the tilted random walk.

    A random-walk signal observed in unit noise, penalized through the
    coupled quadratic 2 X_t^2 - 2 X_t h_t + h_t^2 = (X_t - h_t)^2 + X_t^2 at
    mu = -1, is equivalent to the plain exponential criterion on a tilted
    AR(1) model. The report compares the first-step coefficient of the
    horizon-coupled optimum (hbar1) with the stepwise one (hhat1) and
    adjudicates the closed-form candidates against brute-force minimization.
    """
    if T < 1:
        raise DomainError("T must be at least 1")
    if bruteforce is None:
        bruteforce = T <= 3
    br = backward_riccati(T)
    g1 = float(br.gamma[0])  # G(T,1) under the zero terminal condition

    # Candidate closed forms for the first-step coefficient of hbar.
    printed = (1.0 + g1) / (2.0 + g1)
    recursion_convention = 1.0 / (2.0 + g1)

    # Exact tilt: integrating exp(-sum X^2/2) against the walk shifts the
    # terminal condition to G(T,T) = 1.
    model_zero, coeff_zero = _tilted_random_walk(T, 0.0)
    model_exact, coeff_exact = _tilted_random_walk(T, 1.0)
    risk = RiskSpec(mu=-1.0, Q=np.ones(T))

    def first_coeff(model):
        return float(leg_affine(model, risk).gains[0, 0])

    hbar1_zero_terminal = first_coeff(model_zero)
    hbar1_exact_model = first_coeff(model_exact)

    # Stepwise minimizer at t = 1: argmin over g of
    # E[-exp(-((X1-g)^2 + X1^2)/2) | Y1] = pi_1(X1) / (1 + Var(X1 | Y1)).
    hhat1_exact = 0.5 / (1.0 + 0.5)

    report = {
        "T": T,
        "lambda": br.lambda_const,
        "gamma_first": g1,
        "gamma_max_discrepancy": br.max_discrepancy,
        "quoted": {"hbar1_coeff": printed, "hhat1_coeff": 0.25},
        "computed": {
            "hbar1_coeff_zero_terminal_model": hbar1_zero_terminal,
            "hbar1_coeff_recursion_convention": recursion_convention,
            "hbar1_coeff_exact_tilt": hbar1_exact_model,
            "hhat1_coeff": hhat1_exact,
            "tilted_coefficients_zero_terminal": coeff_zero.tolist(),
            "tilted_coefficients_exact": coeff_exact.tolist(),
        },
    }

    if bruteforce:
        walk = build_ar1(np.ones(T), np.ones(T), 0.0, np.ones(T), T)
        filt, value = minimize_affine_risk(walk, risk, extra_x_weight=np.ones(T))
        report["bruteforce"] = {
            "hbar1_coeff": float(filt.gains[0, 0]),
            "risk_value": value,
        }
        t1_risk = RiskSpec(mu=-1.0, Q=np.concatenate([[1.0], np.zeros(T - 1)]))
        extra1 = np.concatenate([[1.0], np.zeros(T - 1)])
        filt1, _ = minimize_affine_risk(walk, t1_risk, extra_x_weight=extra1)
        report["bruteforce"]["hhat1_coeff"] = float(filt1.gains[0, 0])

    hbar1 = report.get("bruteforce", {}).get("hbar1_coeff", hbar1_exact_model)
    report["adjudicated"] = {
        "hbar1_coeff": hbar1,
        "hhat1_coeff": hhat1_exact,
        "differ": bool(abs(hbar1 - hhat1_exact) > 1e-6),
        "gap": float(hbar1 - hhat1_exact),
    }
    return report
