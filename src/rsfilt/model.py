"""Signal-observation models: general Gaussian signals observed in white noise.

A model consists of a Gaussian signal X with mean sequence ``mean`` and
two-index covariance table ``cov``, observed through per-step gain matrices
``gains`` as ``Y_t = A_t X_t + eps_t`` with i.i.d. standard Gaussian noise.
An optional ``cross_cov`` table correlates the signal with the observation
noise (noise at step s may correlate with the signal at steps t >= s only).

Steps are 1-based in all user-facing documentation and error messages; the
underlying arrays are 0-based, so row/column ``t-1`` of a table holds step t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    FactorizationFailure,
    NegativeVariance,
    NotPositiveSemidefinite,
)

# Relative tolerances, scaled by the trace of the table they guard.
PSD_TOL = 1e-10
JITTER = 1e-12
# Shortest Toeplitz table certified by Levinson-Durbin: the measured crossover with one Cholesky (2-vCPU Xeon,
# OpenBLAS, fGn H = 0.75: 1.1 vs 1.1 ms at T = 256, 1.2 vs 1.5 ms at T = 300, 4.2 vs 16 ms at T = 800).
_LEVINSON_MIN_T = 256


def _as_sequence(x, T, name):
    """Broadcast a scalar to length T or validate a length-T sequence."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return np.full(T, float(arr))
    if arr.shape != (T,):
        raise DimensionMismatch(f"{name} must be scalar or length {T}, got shape {arr.shape}", param=name)
    return arr


def _mirror_lower(K):
    """The symmetric (T, T, n, n) table read from K's blocks at t >= s, in one table and a boolean
    mask: block (s, t) is K[t, s]' for s < t, diagonal block t is (K[t, t] + K[t, t]') / 2, and a
    -0.0 reads +0.0. Blocks above the diagonal are never read. A diagonal-block sum past DBL_MAX
    reads +-inf, without a warning, and fails validation."""
    idx = np.arange(K.shape[0])
    Kt = K.transpose(1, 0, 3, 2)
    full = np.where((idx[:, None] > idx[None, :])[:, :, None, None], K, Kt)
    with np.errstate(over="ignore", invalid="ignore"):
        full[idx, idx] = (K[idx, idx] + Kt[idx, idx]) / 2.0
    full += 0.0
    return full


def _factors_above_floor(sym, scale) -> bool:
    """Whether Cholesky of the symmetric sym + 0.5 PSD_TOL scale I succeeds, for one matrix or a
    stack with one scale per block. The diagonal is shifted in place, to hold one table fewer, and
    restored from a saved copy, so sym reads as before."""
    diag = np.einsum("...ii->...i", sym)
    saved = diag.copy()
    diag += 0.5 * PSD_TOL * scale[..., None]
    try:
        np.linalg.cholesky(sym)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        diag[...] = saved


def _levinson_certifies(r, shift) -> bool:
    """Whether Levinson-Durbin on the symmetric Toeplitz matrix with first row r, r_0 raised by shift, keeps every
    prediction-error variance (its LDL' pivots) at least shift, in O(T^2) time and O(T) memory. A step that
    overflows reads inf or nan, without a warning, and fails."""
    a = np.zeros(len(r))  # a[:k], the order-k predictor's coefficients
    E = r.item(0) + shift
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(r) - 1):
            if not E >= shift:
                return False
            rho = -(r.item(k + 1) + float(a[:k] @ r[k:0:-1])) / E  # the reflection coefficient
            a[:k] += rho * a[:k][::-1]
            a[k] = rho
            E *= 1.0 - rho * rho
    return E >= shift


def check_psd(mat, what):
    """Eigenvalue floor check with tolerance -PSD_TOL * trace, of one matrix or of each block of
    a (T, N, N) stack, ``what`` naming block t by ``{}``. Cholesky of sym + 0.5 PSD_TOL scale I
    certifies the floor: its backward error, at most (N + 1) u trace (about 1e-13 scale at N = 800),
    is far below the 0.5 PSD_TOL scale margin. Without a certificate the eigenvalues decide."""
    finite = np.isfinite(mat).all(axis=(-2, -1))
    # Halved before the sum, so a finite table cannot overflow. A block that is not finite reads
    # zero here and fails below.
    sym = 0.5 * (mat if finite.all() else np.where(finite[..., None, None], mat, 0.0))
    sym = sym + np.swapaxes(sym, -1, -2)
    scale = np.maximum(np.trace(sym, axis1=-2, axis2=-1), 1.0)
    worst = np.zeros_like(scale) if _factors_above_floor(sym, scale) else np.linalg.eigvalsh(sym)[..., 0]
    for t in np.flatnonzero(~finite | ~(worst >= -PSD_TOL * scale))[:1]:  # a nan worst fails
        name = what.format(t + 1)
        if not finite.flat[t]:
            raise NotPositiveSemidefinite(f"{name} has entries that are not finite in double precision")
        raise NotPositiveSemidefinite(
            f"{name} is not positive semidefinite (worst eigenvalue {worst.flat[t]:.3e})",
            worst_eigenvalue=float(worst.flat[t]),
        )


@dataclass(frozen=True)
class GaussianModel:
    """Validated signal-observation model.

    Attributes:
        mean: (T, n) signal mean.
        cov: (T, T, n, n) covariance table, ``cov[t, s] = E (X_t-m_t)(X_s-m_s)'``.
        gains: (T, m, n) observation gain matrices.
        cross_cov: optional (T, T, n, m) table ``E (X_t-m_t) eps_s'``; zero for s > t.
    """

    mean: np.ndarray
    cov: np.ndarray
    gains: np.ndarray
    cross_cov: np.ndarray | None = None

    @property
    def horizon(self) -> int:
        return self.mean.shape[0]

    @property
    def n(self) -> int:
        return self.mean.shape[1]

    @property
    def m(self) -> int:
        return self.gains.shape[1]

    @property
    def dims(self) -> tuple[int, int]:
        return (self.n, self.m)

    @property
    def is_scalar(self) -> bool:
        return self.n == 1 and self.m == 1

    def _require_scalar(self):
        if not self.is_scalar:
            raise DimensionMismatch(f"operation requires a scalar model, dims are {self.dims}")

    # Squeezed views for the scalar (n = m = 1) code paths.
    @property
    def mean1(self) -> np.ndarray:
        self._require_scalar()
        return self.mean[:, 0]

    @property
    def cov2(self) -> np.ndarray:
        self._require_scalar()
        return self.cov[:, :, 0, 0]

    @property
    def gains1(self) -> np.ndarray:
        self._require_scalar()
        return self.gains[:, 0, 0]

    def flat_mean(self) -> np.ndarray:
        """Signal mean flattened to (T*n,), ordered (t, component)."""
        return self.mean.reshape(-1)

    def flat_cov(self) -> np.ndarray:
        """Signal covariance flattened to (T*n, T*n)."""
        T, n = self.horizon, self.n
        return self.cov.transpose(0, 2, 1, 3).reshape(T * n, T * n)

    def flat_cross(self) -> np.ndarray:
        """Signal/observation-noise covariance flattened to (T*n, T*m)."""
        T, n, m = self.horizon, self.n, self.m
        if self.cross_cov is None:
            return np.zeros((T * n, T * m))
        return self.cross_cov.transpose(0, 2, 1, 3).reshape(T * n, T * m)


@dataclass(frozen=True)
class RiskSpec:
    """Risk parameter and nonnegative weight sequence for the exponential criterion."""

    mu: float
    Q: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "mu", float(self.mu))
        if Q.ndim == 1:
            if np.any(Q < 0):
                raise NegativeVariance("weights Q must be nonnegative")
        elif Q.ndim == 3:
            check_psd(Q, "weight matrix Q at step {}")
        else:
            raise DimensionMismatch("Q must have shape (T,) or (T, n, n)")

    @property
    def horizon(self) -> int:
        return self.Q.shape[0]

    def q_vector(self) -> np.ndarray:
        if self.Q.ndim != 1:
            raise DimensionMismatch("scalar weights requested from a matrix-valued RiskSpec")
        return self.Q

    def q_blocks(self, n: int) -> np.ndarray:
        """Weights as (T, n, n) blocks, promoting scalars to Q_t * I."""
        if self.Q.ndim == 3:
            if self.Q.shape[1] != n:
                raise DimensionMismatch(f"Q blocks are {self.Q.shape[1]}x{self.Q.shape[1]}, signal dim is {n}")
            return self.Q
        return self.Q[:, None, None] * np.eye(n)[None, :, :]

    def s_values(self, gains: np.ndarray) -> np.ndarray:
        """Per-step S_t = A_t'A_t - mu Q_t (scalar: A_t^2 - mu Q_t)."""
        gains = np.asarray(gains, dtype=float)
        if gains.ndim == 1:
            return gains**2 - self.mu * self.q_vector()
        n = gains.shape[2]
        Q = self.q_blocks(n)
        return np.einsum("tji,tjk->tik", gains, gains) - self.mu * Q


@dataclass(frozen=True)
class Trajectory:
    """One sampled path; X is (T,) or (T, n), Y is (T,) or (T, m)."""

    X: np.ndarray
    Y: np.ndarray
    seed: int


def _schur_certificate(model: GaussianModel) -> bool:
    """Whether one Cholesky factorization passes every covariance check of the model's build.

    K is the flat signal table, exactly symmetric, C the flat cross-covariance (zero if absent) and
    s = 0.5 PSD_TOL max(tr K, 1). Cholesky of K - CC' + sI succeeds only if K - CC' has no eigenvalue
    below -s minus its backward error, at most (N + 1) u tr(K - CC' + sI), far below the other half of
    the tolerance, as in ``check_psd``. Then K, which is at least K - CC', passes the signal-table check;
    and the joint [[K, C], [C', I]] passes the joint check, its tolerance scale tr K + Tm being the
    larger: shifted by s, its Schur complement K + sI - CC'/(1 + s) is at least K - CC' + sI, so the
    shifted joint is PSD (Haynsworth inertia; Boyd & Vandenberghe, Convex Optimization, A.5.5). Neither
    needs C lower-triangular, which is checked on its own between the two. With no cross table K itself
    is shifted in place and restored. False when K or C is not finite or C is misshapen, or when the
    factorization fails; the checks then decide.

    A scalar table with no cross table, T >= ``_LEVINSON_MIN_T`` and exactly Toeplitz (K[1:, 1:] equal to
    K[:-1, :-1]) is certified without the factorization if Levinson-Durbin on its first row, r_0 raised by s,
    keeps every prediction-error variance E_k at least s. The E_k are the LDL' pivots of K + sI, so K has no
    eigenvalue below -s in exact arithmetic. On positive definite Toeplitz matrices the recursion's rounding
    errors are of the size of Cholesky's (Cybenko, SIAM J. Sci. Stat. Comput. 1(3), 1980), whose backward
    error stays far below s, as above; where Cholesky asks its shifted pivots only to stay positive, each E_k
    must clear zero by s. Otherwise the Cholesky runs, so this route never rejects a table or moves a message.
    """
    T, n, m = model.horizon, model.n, model.m
    C, K = model.cross_cov, model.flat_cov()
    if not np.isfinite(K).all() or C is not None and (C.shape != (T, T, n, m) or not np.isfinite(C).all()):
        return False
    scale = np.maximum(np.trace(K), 1.0)
    if C is None and n == 1 and T >= _LEVINSON_MIN_T and np.array_equal(K[1:, 1:], K[:-1, :-1]):
        if _levinson_certifies(K[0], 0.5 * PSD_TOL * float(scale)):
            return True
    if C is not None:
        Cf = model.flat_cross()
        with np.errstate(over="ignore", invalid="ignore"):  # finite entries can still overflow
            S = Cf @ Cf.T
            K = np.subtract(K, S, out=S)  # K may be a view of the model's table
        del Cf  # released before the Cholesky factor
        if not np.isfinite(K).all():
            return False
    return _factors_above_floor(K, scale)


def _joint_signal_noise_cov(model: GaussianModel) -> np.ndarray:
    Tn = model.horizon * model.n
    Tm = model.horizon * model.m
    C = model.flat_cross()
    out = np.empty((Tn + Tm, Tn + Tm))
    out[:Tn, :Tn] = model.flat_cov()
    out[:Tn, Tn:] = C
    out[Tn:, :Tn] = C.T
    out[Tn:, Tn:] = np.eye(Tm)
    return out


def _lag_products(a):
    """P[t, s] = prod(a[s+1 : t+1]) for t >= s (1 on the diagonal), zero above it.

    Each column is a running product of a[s+1], a[s+2], ... in that order.
    """
    idx = np.arange(a.shape[0])
    factors = np.where(idx[None, :] > idx[:, None], a[None, :], 1.0)  # row s: a[u] for u > s
    return np.tril(np.cumprod(factors, axis=1).T)


def _ar1_table(a, D):
    """Lower triangle of the AR(1) kernel K(t, s) = (prod_{s<u<=t} a_u) k_s, k_t = a_t^2 k_{t-1} + D_t
    from k_0 = 0. An overflow gives inf or nan entries, without a warning, which fail validation."""
    k = np.zeros(len(a))
    prev = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(a)):
            prev = a[t] ** 2 * prev + D[t]
            k[t] = prev
        return _lag_products(a) * k


def _ma1_table(lam, T):
    """Lower triangle of the MA(1) kernel: 1 + lam^2 on the diagonal, lam one step below it."""
    with np.errstate(over="ignore"):  # an inf variance fails validation
        K = np.diag(np.full(T, 1.0 + np.float64(lam) ** 2))
    idx = np.arange(T - 1)
    K[idx + 1, idx] = lam
    return K


def build_general(m, K, A) -> GaussianModel:
    """Scalar model from a mean sequence, covariance table and gain sequence: the 1x1 case of
    ``build_vector_model``, so only the lower triangle of K is read."""
    m = np.asarray(m, dtype=float)
    K = np.asarray(K, dtype=float)
    if m.ndim != 1:
        raise DimensionMismatch(f"mean must be 1-d, got shape {m.shape}", param="m")
    T = m.shape[0]
    if K.shape != (T, T):
        raise DimensionMismatch(f"K must be {T}x{T}, got {K.shape}", param="K")
    return build_vector_model(m, K, _as_sequence(A, T, "A"))


def build_ar1(a, D, x0, A, T) -> GaussianModel:
    """AR(1) signal ``X_t = a_t X_{t-1} + sqrt(D_t) e_t`` with X_0 = x0 fixed.

    The mean is m_t = (prod_{u<=t} a_u) x0 and the covariance table is
    K(t, s) = (prod_{s<u<=t} a_u) k_s with k_t = a_t^2 k_{t-1} + D_t.
    """
    a = _as_sequence(a, T, "a")
    D = _as_sequence(D, T, "D")
    A = _as_sequence(A, T, "A")
    if np.any(D < 0):
        raise NegativeVariance("innovation variances D must be nonnegative", param="D")
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan entries fail validation
        m = np.cumprod(a) * float(x0)
    return build_general(m, _ar1_table(a, D), A)


def build_ma1(lam, A, T) -> GaussianModel:
    """First-order moving-average signal ``X_t = e_t + lam * e_{t-1}``."""
    return build_general(np.zeros(T), _ma1_table(float(lam), T), A)


def build_vector_model(m, K, A, K_Xeps=None) -> GaussianModel:
    """Vector-valued model from block tables; every builder ends here.

    Args:
        m: (T, n) mean (a 1-d sequence is treated as n = 1).
        K: (T, T, n, n) covariance blocks; only blocks with t >= s are read
           (a (T, T) array is treated as 1x1 blocks).
        A: (T, m, n) gain matrices (a 1-d sequence is treated as 1x1).
        K_Xeps: optional (T, T, n, m) signal/noise covariance blocks,
           zero for s > t.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise DimensionMismatch(f"mean must be (T,) or (T, n), got shape {m.shape}", param="m")
    T, n = m.shape

    K = np.asarray(K, dtype=float)
    if K.shape == (T, T) and n == 1:
        K = K[:, :, None, None]
    if K.shape != (T, T, n, n):
        raise DimensionMismatch(f"K must have shape {(T, T, n, n)}, got {K.shape}", param="K")
    cov = _mirror_lower(K)

    A = np.asarray(A, dtype=float)
    if A.ndim == 1 and n == 1:
        A = A[:, None, None]
    if A.ndim != 3 or A.shape[0] != T or A.shape[2] != n:
        raise DimensionMismatch(f"gains must have shape (T, m, {n}), got {A.shape}", param="A")
    m_obs = A.shape[1]

    C = None
    if K_Xeps is not None:
        C = np.asarray(K_Xeps, dtype=float)
        if C.shape == (T, T) and n == 1 and m_obs == 1:
            C = C[:, :, None, None]

    idx = np.arange(T)
    diag_vars = np.diagonal(cov[idx, idx], axis1=1, axis2=2)
    if np.any(diag_vars < -PSD_TOL * max(float(diag_vars.max(initial=0.0)), 1.0)):
        raise NotPositiveSemidefinite(
            f"a diagonal block of cov has a negative variance ({float(diag_vars.min()):.3e})",
            worst_eigenvalue=float(diag_vars.min()),
        )
    model = GaussianModel(mean=m, cov=cov, gains=A, cross_cov=C)
    certified = _schur_certificate(model)  # else check_psd gives the verdict and message
    if not certified:
        check_psd(model.flat_cov(), "signal covariance table")
    if C is not None:
        if C.shape != (T, T, n, m_obs):
            raise DimensionMismatch(
                f"cross_cov must have shape {(T, T, n, m_obs)}, got {C.shape}", param="K_Xeps"
            )
        upper = np.any(C != 0.0, axis=(2, 3)) & (idx[:, None] < idx[None, :])
        if upper.any():
            t, s = np.argwhere(upper)[0]  # row-major: the first (t, then s) pair
            raise DimensionMismatch(
                "cross_cov must be lower-triangular: noise at step "
                f"{s + 1} may not correlate with the signal at earlier step {t + 1}",
                param="K_Xeps",
            )
        if not certified:  # the (signal, noise) joint must itself be a covariance
            check_psd(_joint_signal_noise_cov(model), "joint signal/noise covariance")
    return model


def _lagged_noise_model(K_signal, K_noise, alpha, beta, b) -> GaussianModel:
    """Correlated vector model over the state (X_t, eps_{t-1}) observed as
    Y_t = alpha_t X_t + beta eps_{t-1} + w_t, where eps_t = b eps_{t-1} + w_t: the signal
    and lagged-noise tables (lower triangles) on the block diagonal, and the lagged-noise
    state's covariance E eps_{t-1} w_s = b^(t-1-s) (s <= t-1) with the observation noise."""
    T = len(alpha)
    K = np.zeros((T, T, 2, 2))
    K[:, :, 0, 0] = K_signal
    K[:, :, 1, 1] = K_noise
    A = np.zeros((T, 1, 2))
    A[:, 0, 0] = alpha
    A[:, 0, 1] = beta
    C = np.zeros((T, T, 2, 1))
    lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)) - 1)  # |t - 1 - s|
    C[:, :, 1, 0] = np.tril((b ** np.arange(T + 1))[lag], -1)  # one power per lag
    return build_vector_model(np.zeros((T, 2)), K, A, C)


def build_ma1_observations(lam, alpha, beta, T) -> GaussianModel:
    """Moving-average signal observed through noise with one-step memory.

    The state is the pair (X_t, eps_{t-1}) where X_t = e_t + lam e_{t-1} and
    Y_t = alpha_t X_t + beta eps_{t-1} + eps_t, so the observation noise is
    itself a first-order moving average (the b = 0 case of ``build_ar1_noise``'s
    noise, with eps_0 a unit-variance draw). Returned as a correlated vector model.
    """
    lam = float(lam)
    beta = float(beta)
    alpha = _as_sequence(alpha, T, "alpha")
    return _lagged_noise_model(_ma1_table(lam, T), np.eye(T), alpha, beta, 0.0)


def build_ar1_noise(a, b, alpha, beta, T) -> GaussianModel:
    """AR(1) signal observed through autoregressive noise.

    The state is (X_t, eps_{t-1}) with X_t = a_t X_{t-1} + e_t (X_0 = 0) and
    eps_t = b eps_{t-1} + w_t (eps_0 = 0); the observation is
    Y_t = alpha_t X_t + beta eps_{t-1} + w_t. With beta = b this realizes
    Y_t = alpha_t X_t + eps_t.
    """
    a = _as_sequence(a, T, "a")
    alpha = _as_sequence(alpha, T, "alpha")
    b = float(b)
    beta = float(beta)
    v = np.zeros(T + 1)  # v[t] = Var(eps_t), eps_0 = 0
    for t in range(1, T + 1):
        v[t] = b**2 * v[t - 1] + 1.0
    lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))  # |t - s|
    noise = np.tril((b ** np.arange(T))[lag] * v[:T])  # Cov(eps_{t-1}, eps_{s-1}); one power per lag
    return _lagged_noise_model(_ar1_table(a, np.ones(T)), noise, alpha, beta, b)


def _joint_factor(model: GaussianModel) -> np.ndarray:
    joint = _joint_signal_noise_cov(model)
    if not np.all(np.isfinite(joint)):
        raise FactorizationFailure("joint covariance contains non-finite entries")
    scale = max(float(np.trace(joint)), 1.0)
    try:
        L = np.linalg.cholesky(joint + JITTER * scale * np.eye(joint.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(f"joint covariance could not be factorized: {exc}") from exc
    if not np.all(np.isfinite(L)):
        raise FactorizationFailure("covariance factorization produced non-finite entries")
    return L


def sample_paths(model: GaussianModel, rng_seed: int, n_paths: int):
    """Draw paths; returns (X, Y) with shapes (n_paths, T, n) and (n_paths, T, m)."""
    T, n, m = model.horizon, model.n, model.m
    L = _joint_factor(model)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_seed)))
    z = rng.standard_normal((n_paths, L.shape[0]))
    draws = z @ L.T
    X = draws[:, : T * n].reshape(n_paths, T, n) + model.mean[None, :, :]
    eps = draws[:, T * n :].reshape(n_paths, T, m)
    Y = np.einsum("tmn,ptn->ptm", model.gains, X) + eps
    return X, Y


def sample(model: GaussianModel, rng_seed: int, n_paths: int) -> list[Trajectory]:
    """Sample trajectories; deterministic given the seed."""
    if n_paths < 0:
        raise ConfigError("n_paths must be nonnegative")
    if n_paths == 0:
        return []
    X, Y = sample_paths(model, rng_seed, n_paths)
    if model.is_scalar:
        X, Y = X[:, :, 0], Y[:, :, 0]
    return [Trajectory(X=X[p], Y=Y[p], seed=rng_seed) for p in range(n_paths)]


# --- JSON configuration -----------------------------------------------------

def _integer(value, field, low, high=None) -> int:
    """An integer config entry with low <= value < high; integral floats are accepted."""
    name = field.rsplit(".", 1)[-1]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}", field=field)
    if value < low or (high is not None and value >= high):
        bounds = f"at least {low}" if high is None else f"in [{low}, {high})"
        raise ConfigError(f"{name} must be {bounds}, got {value}", field=field)
    return int(value)


def _horizon(cfg: dict) -> int:
    return _integer(cfg["T"], "model.T", 1)


def seed_from_config(value) -> int:
    """A random seed from a config or flag: an unsigned 64-bit integer."""
    return _integer(value, "seed", 0, 1 << 64)


def _finite(value, field) -> np.ndarray:
    """A config entry as a float array whose entries are all finite."""
    name = field.rsplit(".", 1)[-1]
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numeric: {exc}", field=field) from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite", field=field)
    return arr


def model_from_config(cfg: dict) -> GaussianModel:
    """Build a model from a configuration mapping (see README for the schema)."""
    if not isinstance(cfg, dict):
        raise ConfigError("model config must be an object", field="model")
    kind = cfg.get("kind")

    def num(name, default=None, scalar=False):
        """A finite numeric model parameter; a single number where ``scalar``."""
        value = _finite(cfg[name] if default is None else cfg.get(name, default), f"model.{name}")
        if scalar and value.ndim:
            raise ConfigError(f"{name} must be a number, got shape {value.shape}", field=f"model.{name}")
        return value

    try:
        if kind == "general":
            return build_general(num("m"), num("K"), num("A"))
        if kind == "ar1":
            return build_ar1(num("a"), num("D"), num("x0", 0.0, scalar=True), num("A"), _horizon(cfg))
        if kind == "ma1":
            return build_ma1(num("lambda", scalar=True), num("A"), _horizon(cfg))
        if kind == "vector":
            cross = None if cfg.get("K_Xeps") is None else num("K_Xeps")
            return build_vector_model(num("m"), num("K"), num("A"), cross)
        if kind == "ma1_observations":
            return build_ma1_observations(
                num("lambda", scalar=True), num("alpha"), num("beta", scalar=True), _horizon(cfg)
            )
        if kind == "ar1_noise":
            return build_ar1_noise(
                num("a"), num("b", scalar=True), num("alpha"), num("beta", scalar=True), _horizon(cfg)
            )
    except KeyError as exc:
        raise ConfigError(f"missing model parameter {exc.args[0]!r}", field=f"model.{exc.args[0]}") from exc
    except (DimensionMismatch, NegativeVariance) as exc:  # builder arguments carry their config names
        raise ConfigError(str(exc), field="model" if exc.param is None else f"model.{exc.param}") from exc
    except NotPositiveSemidefinite as exc:
        raise ConfigError(str(exc), field="model") from exc
    raise ConfigError(f"unknown model kind {kind!r}", field="model.kind")


def risk_from_config(cfg: dict, horizon: int) -> RiskSpec:
    """Build a RiskSpec from a configuration mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError("risk config must be an object", field="risk")
    try:
        mu = _finite(cfg["mu"], "risk.mu")
        Q = _finite(cfg["Q"], "risk.Q")
    except KeyError as exc:
        raise ConfigError(f"missing risk parameter {exc.args[0]!r}", field=f"risk.{exc.args[0]}") from exc
    if mu.ndim != 0:
        raise ConfigError(f"mu must be a number, got {cfg['mu']!r}", field="risk.mu")
    if Q.ndim == 0:
        Q = np.full(horizon, float(Q))
    if Q.ndim == 1 and Q.shape[0] != horizon:
        raise ConfigError(f"Q has length {Q.shape[0]}, model horizon is {horizon}", field="risk.Q")
    try:
        return RiskSpec(mu=mu, Q=Q)
    except (DimensionMismatch, NegativeVariance, NotPositiveSemidefinite) as exc:
        raise ConfigError(str(exc), field="risk.Q") from exc
