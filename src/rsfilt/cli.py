"""Command-line interface.

Subcommands: validate, filter, risk, cm, simulate, compare, example-5-2.
Exit codes: 0 success, 1 configuration error (with a field diagnostic),
2 numerical infeasibility (reports the first violating step and clause).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import cameron_martin, filtering, oracle, sim
from .errors import (
    ConfigError,
    DomainError,
    FilteringError,
    InfeasibleCondition,
    OverflowDominated,
    SingularInnovationMatrix,
    TransformDiverges,
)
from .model import _finite, model_from_config, risk_from_config, sample_paths, seed_from_config
from .volterra import solve_volterra

FILTER_CSV_COLUMNS = ("t", "Y", "h_bar", "Z_h", "Z_tilde", "gamma_bar", "gamma_tilde")
CM_CSV_COLUMNS = (
    "t", "Y", "h", "I", "log_I", "M", "log_M", "innovation",
    "gamma", "gamma_bar", "step_log_scale", "step_exponent", "step_log_M",
)


def _load_config(path: str) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command", field="config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}", field="config") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}", field="config") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object", field="config")
    return cfg


def _scalar_only(model, args):
    """Every verb but validate takes scalar models (n = m = 1) only."""
    if args.verb != "validate" and not model.is_scalar:
        raise ConfigError(
            f"{args.verb} needs a scalar model, this one has signal and observation dims {model.dims}",
            field="model.kind",
        )
    return model


def _resolve(cfg: dict, args):
    """Model, risk and seed of a config with the --mu and --seed overrides applied."""
    model = _scalar_only(model_from_config(cfg.get("model", {})), args)
    risk_cfg = cfg.get("risk", {"mu": 0.0, "Q": 0.0})
    if args.mu is not None and isinstance(risk_cfg, dict):
        risk_cfg = {**risk_cfg, "mu": args.mu}
    risk = risk_from_config(risk_cfg, model.horizon)
    seed = seed_from_config(args.seed if args.seed is not None else cfg.get("seed", 0))
    return model, risk, seed


def _observations(cfg: dict, model, seed):
    """Realized path from the config, or one sampled from the logged seed."""
    if "Y" in cfg:
        Y = _finite(cfg["Y"], "Y")
        if Y.shape != (model.horizon,):
            raise ConfigError(f"Y must have length {model.horizon}", field="Y")
        return Y, None
    _, Yb = sample_paths(model, seed, 1)
    return Yb[0, :, 0], seed


def _emit(args, payload_rows=None, columns=None, payload_json=None):
    """Write CSV rows or a JSON document to --out (default stdout).

    Verbs without a tabular form render csv output as key,value rows.
    """
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if payload_rows is not None:
            writer.writerow(columns)
            for row in payload_rows:
                writer.writerow(["" if v is None else v for v in row])
        else:
            writer.writerow(("key", "value"))
            for key, value in sorted(payload_json.items()):
                writer.writerow((key, json.dumps(value)))
        text = buf.getvalue()
    else:
        text = json.dumps(payload_json, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    model, risk, _ = _resolve(cfg, args)
    summary = {
        "horizon": model.horizon,
        "dims": list(model.dims),
        "mu": risk.mu,
        "Q": risk.Q.tolist(),
        "correlated_noise": model.cross_cov is not None,
    }
    if model.is_scalar:
        summary["S"] = risk.s_values(model.gains1).tolist()
    _emit(args, payload_json={"valid": True, "resolved": summary})
    return 0


def _cmd_filter(args) -> int:
    cfg = _load_config(args.config)
    model, risk, seed = _resolve(cfg, args)
    Y, seed = _observations(cfg, model, seed)
    solution = solve_volterra(model, risk).require_feasible()
    run = filtering.leg_filter(model, risk, Y, solution=solution)
    if args.format == "csv":
        _emit(args, payload_rows=run.rows(Y), columns=FILTER_CSV_COLUMNS)
    else:
        doc = run.to_dict(Y)
        if seed is not None:
            doc["seed"] = seed
        doc["affine"] = filtering.leg_affine(model, risk, solution=solution).to_dict()
        _emit(args, payload_json=doc)
    return 0


def _cmd_risk(args) -> int:
    cfg = _load_config(args.config)
    model, risk, _ = _resolve(cfg, args)
    solution = solve_volterra(model, risk).require_feasible()
    try:
        value = filtering.optimal_risk(solution, risk, model.gains1)
    except DomainError as exc:  # mu = 0
        raise ConfigError(str(exc), field="risk.mu") from exc
    doc = {
        "optimal_risk": value,
        "mu": risk.mu,
        "gamma_bar": solution.diag.tolist(),
        "S": solution.S.tolist(),
    }
    _emit(args, payload_json=doc)
    return 0


def _cmd_cm(args) -> int:
    cfg = _load_config(args.config)
    model, risk, seed = _resolve(cfg, args)
    Y, seed = _observations(cfg, model, seed)
    solution = solve_volterra(model, risk).require_feasible()
    if "h" in cfg:
        h = _finite(cfg["h"], "h")
        if h.shape != (model.horizon,):
            raise ConfigError(f"h must have length {model.horizon}", field="h")
    else:
        h = filtering.leg_filter(model, risk, Y, solution=solution).h_bar
    dec = cameron_martin.cm_decompose(model, risk, Y, h, solution=solution)
    if args.format == "csv":
        rows = []
        for t in range(model.horizon):
            rows.append((
                t + 1, float(Y[t]), float(h[t]),
                float(dec.I[t]), float(dec.log_I[t]),
                float(dec.M[t]), float(dec.log_M[t]),
                float(dec.nu[t]), float(dec.gamma[t]), float(dec.gamma_bar[t]),
                float(dec.step_log_scale[t]), float(dec.step_exponent[t]),
                float(dec.step_log_M[t]),
            ))
        _emit(args, payload_rows=rows, columns=CM_CSV_COLUMNS)
    else:
        doc = dec.to_dict()
        doc["Y"] = Y.tolist()
        doc["h"] = np.asarray(h).tolist()
        if seed is not None:
            doc["seed"] = seed
        _emit(args, payload_json=doc)
    return 0


def _experiment_dict(args) -> dict:
    """The Monte Carlo config with the --mu, --seed and --paths overrides applied."""
    cfg = _load_config(args.config)
    risk_cfg = cfg.get("risk", {})
    if args.mu is not None and isinstance(risk_cfg, dict):
        cfg["risk"] = {**risk_cfg, "mu": args.mu}
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.paths is not None:
        cfg["paths"] = args.paths
    return cfg


def _cmd_simulate(args) -> int:
    config = sim.ExperimentConfig.from_dict(_experiment_dict(args))
    _scalar_only(config.model, args)
    estimate = sim.estimate_risk(config)
    doc = estimate.to_dict()
    doc["seed"] = config.seed
    _emit(args, payload_json=doc)
    if args.batch_csv:
        with open(args.batch_csv, "w", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("batch", "partial_sum"))
            for i, s in enumerate(estimate.batch_sums):
                writer.writerow((i, s))
    return 0


def _cmd_compare(args) -> int:
    cfg = _experiment_dict(args)
    filters = cfg.get("filters")
    if not isinstance(filters, list) or len(filters) != 2:
        raise ConfigError("compare needs a 'filters' list with exactly two entries", field="filters")
    configs = []
    for f in filters:
        c = dict(cfg)
        c["filter"] = f
        configs.append(sim.ExperimentConfig.from_dict(c))
    _scalar_only(configs[0].model, args)
    report = sim.compare_filters(configs[0], configs[1])
    _emit(args, payload_json=report.to_dict())
    return 0


def _cmd_example_5_2(args) -> int:
    report = oracle.leg_vs_rs_example(args.T)
    _emit(args, payload_json=report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsfilt",
        description="Risk-sensitive filtering for general Gaussian signal models.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=False, help="path to a JSON configuration")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--seed", type=int, help="seed override (unsigned 64-bit)")
        p.add_argument("--paths", type=int, help="path-count override")
        p.add_argument("--mu", type=float, help="risk parameter override")

    for name, fn in (
        ("validate", _cmd_validate),
        ("filter", _cmd_filter),
        ("risk", _cmd_risk),
        ("cm", _cmd_cm),
        ("simulate", _cmd_simulate),
        ("compare", _cmd_compare),
    ):
        p = sub.add_parser(name)
        common(p)
        if name == "simulate":
            p.add_argument("--batch-csv", help="also write per-batch partial sums to this CSV")
        p.set_defaults(fn=fn)

    p = sub.add_parser("example-5-2")
    common(p, needs_config=False)
    p.add_argument("--T", type=int, default=10)
    p.set_defaults(fn=_cmd_example_5_2)
    return parser


def run(argv) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        where = f" at {exc.field}" if exc.field else ""
        print(f"config error{where}: {exc}", file=sys.stderr)
        return 1
    except InfeasibleCondition as exc:
        print(
            f"infeasible: step {exc.first_violation} violates {exc.clause}",
            file=sys.stderr,
        )
        return 2
    except (SingularInnovationMatrix, TransformDiverges, OverflowDominated) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except FilteringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
