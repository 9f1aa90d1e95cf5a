"""Monte Carlo estimation of filter risks.

Every filter is resolved to its causal affine map once, and with the joint
factor of (X, eps) that map becomes one residual map from a path's standard
normals z to its estimation error, so each batch costs one matrix product
per filter. Each batch draws its normals from its own counter-based stream;
a few threads draw them ahead of the batch loop, which changes no number.
Per-batch partial sums are combined with ``math.fsum`` so results are
reproducible independent of the batching. Filter comparisons reuse the same
paths (common random numbers).
"""

from __future__ import annotations

import contextlib
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OverflowDominated
from .filtering import AffineFilter, leg_affine
from .model import (
    GaussianModel, RiskSpec, _finite, _integer, _joint_factor, model_from_config, risk_from_config, seed_from_config,
)

EXP_CAP = 700.0
OVERFLOW_FRACTION = 1e-3
DRAW_WORKERS = 3  # most threads drawing normals ahead of the batch loop


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: model, risk, filter choice, path budget."""

    model: GaussianModel
    risk: RiskSpec
    filter_kind: str = "leg"  # 'leg' | 'risk_neutral' | 'custom'
    custom: AffineFilter | None = None
    n_paths: int = 10000
    seed: int = 0
    criterion: str = "exponential"  # 'exponential' | 'mean_square'
    batch_size: int = 1 << 15

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError("n_paths must be at least 1", field="n_paths")
        if self.filter_kind not in ("leg", "risk_neutral", "custom"):
            raise ConfigError(f"unknown filter kind {self.filter_kind!r}", field="filter.kind")
        if self.filter_kind == "custom" and self.custom is None:
            raise ConfigError("custom filter requires coefficients", field="filter")
        if self.criterion not in ("exponential", "mean_square"):
            raise ConfigError(f"unknown criterion {self.criterion!r}", field="criterion")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        model = model_from_config(cfg.get("model", {}))
        risk = risk_from_config(cfg.get("risk", {}), model.horizon)
        filt_cfg = cfg.get("filter", {"kind": "leg"})
        if not isinstance(filt_cfg, dict):
            raise ConfigError(f"filter must be an object, got {filt_cfg!r}", field="filter")
        kind = filt_cfg.get("kind", "leg")
        custom = None
        if kind == "custom":
            T = model.horizon
            try:
                custom = AffineFilter(
                    intercept=_finite(filt_cfg["intercept"], "filter.intercept"),
                    gains=_finite(filt_cfg["gains"], "filter.gains"),
                )
            except KeyError as exc:
                raise ConfigError(
                    f"custom filter needs {exc.args[0]!r}", field=f"filter.{exc.args[0]}"
                ) from exc
            if custom.intercept.shape != (T,) or custom.gains.shape != (T, T):
                raise ConfigError(f"custom filter needs a length-{T} intercept and {T}x{T} gains", field="filter")
        return cls(
            model=model,
            risk=risk,
            filter_kind=kind,
            custom=custom,
            n_paths=_integer(cfg.get("paths", cfg.get("n_paths", 10000)), "paths", 1),
            seed=seed_from_config(cfg.get("seed", 0)),
            criterion=cfg.get("criterion", "exponential"),
        )


@dataclass(frozen=True)
class RiskEstimate:
    """Sample mean and standard error of the criterion over the simulated paths."""

    mean: float
    stderr: float
    n_paths: int
    criterion: str
    n_overflow: int = 0
    batch_sums: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n_paths": self.n_paths,
            "criterion": self.criterion,
            "n_overflow": self.n_overflow,
        }


def _resolve_filter(config: ExperimentConfig) -> AffineFilter:
    if config.filter_kind == "custom":
        return config.custom
    model = config.model
    risk = config.risk if config.filter_kind == "leg" else RiskSpec(mu=0.0, Q=np.zeros(model.horizon))
    return leg_affine(model, risk)


def _batches(n_paths: int, batch_size: int):
    start = 0
    while start < n_paths:
        yield min(batch_size, n_paths - start)
        start += batch_size


def _residual_map(model: GaussianModel, L: np.ndarray, filt: AffineFilter):
    """(r, R) with X - filt.apply(Y) = r + z @ R.T for a path drawn as (X - m, eps) = L z.

    With Y = diag(A) X + eps and P = I - F diag(A), the error is
    P m - c + (P L_X - F L_eps) z, where L_X and L_eps are the first and last
    T rows of L.
    """
    T = model.horizon
    F = filt.gains
    P = np.eye(T) - F * model.gains1[None, :]
    return P @ model.flat_mean() - filt.intercept, P @ L[:T] - F @ L[T:]


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _normals(seeds, sizes, width: int):
    """Each batch's (size, width) standard normals, in batch order, drawn ahead on worker threads.

    Batch b comes from its own Philox stream, so its numbers do not depend on
    the thread that draws it. The draws fill a ring of workers + 1 buffers;
    batch b + workers is submitted once batch b is taken, into the buffer of
    batch b - 1, which the caller has finished with by then. A yielded array
    is overwritten after the next one is requested.
    """
    from concurrent.futures import ThreadPoolExecutor  # on first use: it imports logging

    workers = min(len(sizes), _available_cpus(), DRAW_WORKERS)
    ring = [np.empty((sizes[0], width)) for _ in range(workers + 1)]

    def draw(b):
        out = ring[b % len(ring)][: sizes[b]]
        np.random.Generator(np.random.Philox(seeds[b])).standard_normal(out=out)
        return out

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        ahead = deque(pool.submit(draw, b) for b in range(workers))
        for b in range(len(sizes)):
            z = ahead.popleft().result()
            if b + workers < len(sizes):
                ahead.append(pool.submit(draw, b + workers))
            yield z
    finally:
        pool.shutdown(cancel_futures=True)


def _times_exp(x: float, shift: float) -> float:
    """x * exp(shift), formed in log space so that exp(shift) alone cannot overflow; exact at shift 0."""
    if x == 0.0 or shift == 0.0:
        return x
    try:
        return math.copysign(math.exp(shift + math.log(abs(x))), x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _finish(parts, n: int, what: str):
    """Mean and standard error from per-batch (shift, sum u, sum u^2), value = exp(shift) u."""
    top = max(shift for shift, _, _ in parts)
    m1 = math.fsum(math.exp(shift - top) * s1 for shift, s1, _ in parts) / n
    m2 = math.fsum(math.exp(2.0 * (shift - top)) * s2 for shift, _, s2 in parts) / n
    mean = _times_exp(m1, top)
    stderr = _times_exp(math.sqrt(max(m2 - m1 * m1, 0.0) / n), top) if n > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise OverflowDominated(f"the {what} over {n} paths is not finite in double precision")
    return mean, stderr


def _monte_carlo(configs):
    """One pass over shared paths for one or two filters.

    Each path value is held as exp(shift_b) * u with one shift per batch and
    filter: zero for the mean-square criterion and for mu <= 0, the batch's
    largest exponent for mu > 0. Returns one RiskEstimate per config and, for
    two configs, the mean and standard error of the paired difference.
    """
    first = configs[0]
    model, risk, n = first.model, first.risk, first.n_paths
    model._require_scalar()
    L = _joint_factor(model)
    maps = [_residual_map(model, L, _resolve_filter(c)) for c in configs]
    Q = risk.q_vector()
    exponential = first.criterion == "exponential"
    log_space = exponential and risk.mu > 0

    sizes = list(_batches(n, first.batch_size))
    batch_seeds = np.random.SeedSequence(first.seed).spawn(len(sizes))
    parts = [[] for _ in maps]
    diff_parts = []
    n_overflow = [0] * len(maps)
    with contextlib.closing(_normals(batch_seeds, sizes, L.shape[0])) as batches:
        for z in batches:
            scaled = []
            for i, (r, R) in enumerate(maps):
                e = z @ R.T
                e += r
                np.square(e, out=e)
                u = e @ Q
                shift = 0.0
                if exponential:
                    expo = 0.5 * risk.mu * u
                    if log_space:
                        n_overflow[i] += int(np.count_nonzero(expo > EXP_CAP))
                        shift = float(np.max(expo))
                    u = risk.mu * np.exp(expo - shift)
                parts[i].append((shift, math.fsum(u), math.fsum(u * u)))
                scaled.append((u, shift))
            if len(maps) == 2:
                (ua, sa), (ub, sb) = scaled
                top = max(sa, sb)
                d = ua * math.exp(sa - top) - ub * math.exp(sb - top)
                diff_parts.append((top, math.fsum(d), math.fsum(d * d)))

    if max(n_overflow) > OVERFLOW_FRACTION * n:
        raise OverflowDominated(
            f"{max(n_overflow)} of {n} path exponents exceeded the exponent cap {EXP_CAP:.0f}"
        )
    estimates = []
    for config, filt_parts, capped in zip(configs, parts, n_overflow):
        mean, stderr = _finish(filt_parts, n, "risk estimate")
        if log_space:  # per-batch log sum_paths exp(exponent)
            batch_sums = tuple(shift + math.log(s1 / risk.mu) for shift, s1, _ in filt_parts)
        else:
            batch_sums = tuple(s1 for _, s1, _ in filt_parts)
        estimates.append(RiskEstimate(mean=mean, stderr=stderr, n_paths=n, criterion=config.criterion,
                                      n_overflow=capped, batch_sums=batch_sums))
    diff = _finish(diff_parts, n, "paired difference") if diff_parts else None
    return estimates, diff


def estimate_risk(config: ExperimentConfig) -> RiskEstimate:
    """Monte Carlo estimate of the configured criterion.

    For mu > 0 the per-path values are accumulated in log space and paths
    with exponents over the cap are counted; more than 0.1% of them aborts
    the estimate, and so does a mean or standard error that is not finite.
    The estimate is deterministic given the seed.
    """
    (estimate,), _ = _monte_carlo([config])
    return estimate


@dataclass(frozen=True)
class ComparisonReport:
    """Paired-path risk difference between two filters on shared trajectories."""

    diff_mean: float
    diff_stderr: float
    estimate_a: RiskEstimate
    estimate_b: RiskEstimate

    def to_dict(self) -> dict:
        return {
            "diff_mean": self.diff_mean,
            "diff_stderr": self.diff_stderr,
            "a": self.estimate_a.to_dict(),
            "b": self.estimate_b.to_dict(),
        }


def compare_filters(config_a: ExperimentConfig, config_b: ExperimentConfig) -> ComparisonReport:
    """Common-random-number comparison; both configs must share model, risk and paths.

    Each side's estimate equals ``estimate_risk`` of its config, and the
    comparison aborts if either side would; it also raises
    ``OverflowDominated`` if the paired difference is not finite.
    """
    if (config_a.seed, config_a.n_paths, config_a.batch_size) != (
        config_b.seed, config_b.n_paths, config_b.batch_size
    ):
        raise ConfigError("paired comparison requires a shared seed, path count and batch size")
    if config_a.model is not config_b.model and not (
        np.array_equal(config_a.model.mean, config_b.model.mean)
        and np.array_equal(config_a.model.cov, config_b.model.cov)
        and np.array_equal(config_a.model.gains, config_b.model.gains)
    ):
        raise ConfigError("paired comparison requires a shared model")
    if config_a.criterion != config_b.criterion or config_a.risk.mu != config_b.risk.mu or not np.array_equal(
        config_a.risk.Q, config_b.risk.Q
    ):
        raise ConfigError("paired comparison requires a shared criterion (mu, Q)")

    (ea, eb), (dm, ds) = _monte_carlo([config_a, config_b])
    return ComparisonReport(diff_mean=dm, diff_stderr=ds, estimate_a=ea, estimate_b=eb)
