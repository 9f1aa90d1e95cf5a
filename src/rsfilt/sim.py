"""Monte Carlo estimation of filter risks.

Every filter is resolved to its causal affine map once, and with the joint
factor of (X, eps) that map becomes one residual map from a path's standard
normals z to its estimation error, so each batch costs one matrix product
per filter. Each batch draws its normals from its own counter-based stream.
Each batch goes to one of a few workers (the calling thread is one), which
draws it and applies every residual map over tiles of paths, a chunk of
eight tiles at a time: a worker holds a chunk of z and of
the errors plus n weights per filter per batch, and returns only the batch's
partial sums; the calling thread folds them in batch order, so no number
depends on the threads. A batch's values are reduced in place in those n
weights, and each of its sums is exact: per-binade partials, formed a chunk
of rows at a time, are rounded once with ``math.fsum``, so every sum equals
``math.fsum`` of the batch's values whatever the chunk size or thread count.
Filter comparisons reuse the same paths (common random numbers).
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OverflowDominated
from .filtering import MU_ZERO, AffineFilter, leg_affine
from .model import (
    GaussianModel, RiskSpec, _finite, _integer, _joint_factor, model_from_config, risk_from_config, seed_from_config,
)

EXP_CAP = 700.0
OVERFLOW_FRACTION = 1e-3
DRAW_WORKERS = 3  # most threads running Monte Carlo batches at once
# Multiply-adds per tile of a batch's residual product: tiles of
# max(1, TILE_MADDS // R.size) paths stay under the size at which OpenBLAS's
# dgemm starts its own threads (about twice this), so on a run of several
# batches only the batch workers compete for the cores.
TILE_MADDS = 1 << 18
CHUNK_TILES = 8  # tiles per chunk a batch worker holds at once; fewer mean more GIL-holding Python calls


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

    def __post_init__(self):  # n_paths and seed follow the config rules, integral floats read as int
        object.__setattr__(self, "n_paths", _integer(self.n_paths, "n_paths", 1))
        object.__setattr__(self, "seed", seed_from_config(self.seed))
        size = self.batch_size
        if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
            raise ConfigError(f"batch_size must be an integer of at least 1, got {size!r}", field="batch_size")
        if self.filter_kind not in ("leg", "risk_neutral", "custom"):
            raise ConfigError(f"unknown filter kind {self.filter_kind!r}", field="filter.kind")
        if self.filter_kind == "custom" and self.custom is None:
            raise ConfigError("custom filter requires coefficients", field="filter")
        if self.criterion not in ("exponential", "mean_square"):
            raise ConfigError(f"unknown criterion {self.criterion!r}", field="criterion")
        if self.criterion == "exponential" and self.risk.mu == 0.0:
            raise ConfigError(MU_ZERO, field="risk.mu")
        if self.risk.horizon != self.model.horizon:
            raise ConfigError(f"risk weights have horizon {self.risk.horizon}, model has {self.model.horizon}",
                              field="risk.Q")

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


def _exact_sum(x: np.ndarray, scratch: np.ndarray, square: bool = False) -> float:
    """``math.fsum`` of the values of x, or of their squares, bit for bit, without a per-value list.

    x is walked in blocks of len(scratch) values, squared into scratch when asked. Each value
    splits exactly into the float of its high 26 significand bits and the remainder, and
    ``np.bincount`` sums each half per binary exponent: for up to 2**26 values a binade's sum
    stays a multiple of its unit below 2**53 units, so every partial is exact. One ``math.fsum``
    over the nonzero partials, a few per binade and block, rounds the exact total once, as
    ``math.fsum`` of the values does (a small superaccumulator, Neal 2015, arXiv:1505.05571).
    Values that are not finite, or so large that partials could overflow (max |value| over
    DBL_MAX / (4 len x)), take ``math.fsum`` of their list, which defines the result there.
    """
    top = max(float(x.max()), -float(x.min()))  # nan if x holds a nan
    if square:
        top *= top
    if not top <= sys.float_info.max / (4 * len(x)):
        return math.fsum((x * x if square else x).tolist())
    partials = []
    step = min(len(scratch), 1 << 26)
    for start in range(0, len(x), step):
        v = x[start: start + step]
        if square:
            v = np.square(v, out=scratch[: len(v)])
        bits = v.view(np.int64)
        binade = bits >> 52
        binade &= 0x7FF
        high = (bits & -(1 << 26)).view(np.float64)
        # The exact remainder v - high overwrites high once high's sums are taken.
        for sums in (np.bincount(binade, high), np.bincount(binade, np.subtract(v, high, out=high))):
            partials += sums[sums != 0].tolist()
    return math.fsum(partials)


def _batch(seed, n: int, z: np.ndarray, e: np.ndarray, maps, Q: np.ndarray, risk: RiskSpec, exponential: bool,
           tile: int):
    """Draw a batch of n paths into z one chunk of its rows at a time, and reduce them to partial sums.

    Returns per filter (shift, sum u, sum u^2) and its exponent-cap count, and
    for two filters the paired difference's (shift, sum d, sum d^2). A chunk
    continues the batch's one normal stream and its products run stacked over
    tiles of ``tile`` paths, a part tile at a chunk's end as one more product;
    z's rows are whole tiles or the whole batch, so no number depends on the
    chunk size. e is scratch.

    A worker holds z and e and one n-float array u per filter. Each chunk's
    weighted squared errors land in u; once the batch is drawn, u is scaled to
    the exponent and capped exponents are counted, then the shift, exp and mu
    scaling, and for two filters the paired difference (in the first filter's
    u), are formed in place, and every sum is ``_exact_sum`` over blocks of a
    chunk's rows, squares in e's memory: the reduction allocates nothing of
    batch size.
    """
    draw = np.random.Generator(np.random.Philox(seed)).standard_normal
    width = z.shape[1]
    log_space = exponential and risk.mu > 0
    us = [np.empty(n) for _ in maps]
    # A huge |mu| overflows path values to inf or nan; the exponent-cap count and _finish report it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, len(z)):
            zc, ec = z[: n - start], e[: n - start]  # the buffers, or the batch's last rows
            draw(out=zc)
            full = len(zc) - len(zc) % tile
            for (r, R), u in zip(maps, us):
                uc = u[start: start + len(zc)]
                np.matmul(zc[:full].reshape(-1, tile, width), R.T, out=ec[:full].reshape(-1, tile, len(r)))
                if full < len(zc):
                    np.matmul(zc[full:], R.T, out=ec[full:])
                ec += r
                np.square(ec, out=ec)
                np.matmul(ec[:full].reshape(-1, tile, len(r)), Q, out=uc[:full].reshape(-1, tile))
                if full < len(zc):
                    np.matmul(ec[full:], Q, out=uc[full:])
        scratch = e.reshape(-1)[: len(e)]
        parts, capped = [], [0] * len(maps)
        for i, u in enumerate(us):
            shift = 0.0
            if exponential:
                u *= 0.5 * risk.mu  # the path's exponent
                if log_space:
                    capped[i] = int(np.count_nonzero(u > EXP_CAP))
                    shift = float(np.max(u))
                u -= shift
                np.exp(u, out=u)
                u *= risk.mu
            parts.append((shift, _exact_sum(u, scratch), _exact_sum(u, scratch, square=True)))
        diff = None
        if len(maps) == 2:
            ua, ub = us
            sa, sb = (shift for shift, _, _ in parts)
            top = max(sa, sb)
            ua *= math.exp(sa - top)
            ub *= math.exp(sb - top)
            ua -= ub
            diff = (top, _exact_sum(ua, scratch), _exact_sum(ua, scratch, square=True))
    return parts, capped, diff


def _batch_results(seeds, sizes, width: int, maps, Q, risk, exponential: bool):
    """Each batch's ``_batch`` result, in batch order.

    The calling thread and workers - 1 more threads, workers = min(batches,
    cpus, DRAW_WORKERS), take batch indices from one shared iterator, so with
    one worker the batches run in order on the calling thread; which thread
    runs a batch moves no bit. Each worker allocates its own chunk-sized (z, e)
    pair. The first failure stops every worker before its next batch, and once
    all have stopped the calling thread raises it.
    """
    T = len(Q)
    workers = min(len(sizes), _available_cpus(), DRAW_WORKERS)
    tile = max(1, TILE_MADDS // (T * width))
    chunk = min(CHUNK_TILES * tile, sizes[0])
    batches = iter(range(len(sizes)))
    results = [None] * len(sizes)
    failed = []

    def work():
        z, e = np.empty((chunk, width)), np.empty((chunk, T))
        for b in batches:
            if failed:
                return
            try:
                results[b] = _batch(seeds[b], sizes[b], z, e, maps, Q, risk, exponential, tile)
            except BaseException as exc:  # raised again on the calling thread
                failed.append(exc)
                return

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return results


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
    filter: zero for the mean-square criterion and for mu < 0, the batch's
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
    batch_parts, capped, diffs = zip(*_batch_results(batch_seeds, sizes, L.shape[0], maps, Q, risk, exponential))
    parts = list(zip(*batch_parts))  # per filter, its batches' partials in batch order
    n_overflow = [sum(counts) for counts in zip(*capped)]
    diff_parts = [d for d in diffs if d is not None]

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
        and np.array_equal(config_a.model.flat_cross(), config_b.model.flat_cross())  # a missing table is a zero one
    ):
        raise ConfigError("paired comparison requires a shared model")
    if config_a.criterion != config_b.criterion or config_a.risk.mu != config_b.risk.mu or not np.array_equal(
        config_a.risk.Q, config_b.risk.Q
    ):
        raise ConfigError("paired comparison requires a shared criterion (mu, Q)")

    (ea, eb), (dm, ds) = _monte_carlo([config_a, config_b])
    return ComparisonReport(diff_mean=dm, diff_stderr=ds, estimate_a=ea, estimate_b=eb)
