"""Command-line interface.

Subcommands: validate, filter, risk, cm, simulate, compare, example-5-2.
Exit codes: 0 success, 1 configuration error (with a field diagnostic),
2 numerical failure (an infeasible recursion reports its first violating step and clause).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import cameron_martin, filtering, oracle, sim
from .errors import ConfigError, DomainError, FilteringError, InfeasibleCondition
from .model import _finite, model_from_config, risk_from_config, sample_paths, seed_from_config
from .volterra import _solution, _weights, solve_volterra

FILTER_CSV_COLUMNS = ("t", "Y", "h_bar", "Z_h", "Z_tilde", "gamma_bar", "gamma_tilde")


def _load_config(path: str) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command", field="config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}", field="config") from exc
    except OSError as exc:  # a directory, no permission
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}", field="config") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}", field="config") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc.reason} at byte {exc.start}", field="config") from exc
    except RecursionError as exc:
        raise ConfigError("config nests too deeply to parse", field="config") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object", field="config")
    return cfg


def _scalar_only(model, args):
    """Every verb but validate takes scalar models (n = m = 1) only; filter,
    risk and cm also need independent observation noise."""
    if args.verb != "validate" and not model.is_scalar:
        raise ConfigError(
            f"{args.verb} needs a scalar model, this one has signal and observation dims {model.dims}",
            field="model.kind",
        )
    if args.verb in ("filter", "risk", "cm") and model.cross_cov is not None:
        raise ConfigError(f"{args.verb} needs independent observation noise", field="model.K_Xeps")
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


def _json_text(o, pad=""):
    """``json.dumps(o, indent=2, sort_keys=True, default=np.ndarray.tolist)``,
    byte for byte, with the lines after the first indented by ``pad``.

    An ndarray is rendered as its ``tolist()``, a list or tuple of floats as
    one join over ``float.__repr__``, and a dict with string keys item by item;
    everything else goes through ``json.dumps``, which renders a number, a
    string or None the same with or without indent.
    """
    if type(o) is np.ndarray:
        o = o.tolist()
    if o is None or isinstance(o, (str, int, float)):
        return json.dumps(o)
    inner = pad + "  "
    sep = ",\n" + inner
    if type(o) in (list, tuple) and o:
        if all(type(x) is float for x in o):
            body = sep.join(map(float.__repr__, o))
            if "n" in body:  # a nan or an inf, which json spells NaN, Infinity: no finite repr has an n
                body = sep.join(map(json.dumps, o))
        else:
            body = sep.join(_json_text(x, inner) for x in o)
        return f"[\n{inner}{body}\n{pad}]"
    if type(o) is dict and o and all(type(k) is str for k in o):
        body = sep.join(f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(o.items()))
        return f"{{\n{inner}{body}\n{pad}}}"
    text = json.dumps(o, indent=2, sort_keys=True, default=np.ndarray.tolist)
    return text.replace("\n", "\n" + pad) if pad else text


def _write(path, text, field):
    """Write ``text`` to ``path``; a path that cannot be written is a config error at ``field``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a directory, a missing parent, no permission
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}", field=field) from exc


def _emit(args, doc, steps=None):
    """Write ``doc`` as JSON, or as CSV, to --out (default stdout).

    JSON is indent-2 with sorted keys: the bytes of ``json.dumps(doc,
    indent=2, sort_keys=True, default=np.ndarray.tolist)``, written by
    ``_json_text`` without the stdlib's per-element indent encoder. CSV has
    one row per step (t, then the columns of ``steps``, an absent column as
    empty cells) when ``steps`` is given, else key,value rows of ``doc``.
    An --out that cannot be written is a config error at --out.
    """
    if args.format == "json":
        text = _json_text(doc) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        if steps is None:
            writer.writerow(("key", "value"))
            for key, value in sorted(doc.items()):
                writer.writerow((key, json.dumps(value, default=np.ndarray.tolist)))
        else:
            T = len(next(col for col in steps.values() if col is not None))
            writer.writerow(("t", *steps))
            columns = [[None] * T if col is None else col.tolist() for col in steps.values()]
            writer.writerows(zip(range(1, T + 1), *columns))
        text = buf.getvalue()
    if args.out:
        _write(args.out, text, "--out")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    model, risk, _ = _resolve(cfg, args)
    summary = {
        "horizon": model.horizon,
        "dims": list(model.dims),
        "mu": risk.mu,
        "Q": risk.Q,
        "correlated_noise": model.cross_cov is not None,
    }
    if model.is_scalar:
        summary["S"] = _weights(risk, model.gains1)  # raises at a step where S_t overflows, as the solves do
    _emit(args, {"valid": True, "resolved": summary})
    return 0


def _cmd_filter(args) -> int:
    cfg = _load_config(args.config)
    model, risk, seed = _resolve(cfg, args)
    Y, seed = _observations(cfg, model, seed)
    solution = _solution(solve_volterra, model, risk)
    run = filtering.leg_filter(model, risk, Y, solution=solution)
    columns = (Y, run.h_bar, run.Z_h, run.Z_tilde, run.gamma_bar_diag, run.gamma_tilde)
    steps = dict(zip(FILTER_CSV_COLUMNS[1:], columns))
    doc = {**steps, "risk": run.risk}
    if seed is not None:
        doc["seed"] = seed
    if args.format == "json":
        doc["affine"] = filtering.leg_affine(model, risk, solution=solution).to_dict()
    _emit(args, doc, steps)
    return 0


def _cmd_risk(args) -> int:
    cfg = _load_config(args.config)
    model, risk, _ = _resolve(cfg, args)
    solution = _solution(solve_volterra, model, risk)
    try:
        value = filtering.optimal_risk(solution, risk, model.gains1)
    except DomainError as exc:  # mu = 0
        raise ConfigError(str(exc), field="risk.mu") from exc
    _emit(args, {"optimal_risk": value, "mu": risk.mu, "gamma_bar": solution.diag, "S": solution.S})
    return 0


def _cmd_cm(args) -> int:
    cfg = _load_config(args.config)
    model, risk, seed = _resolve(cfg, args)
    Y, seed = _observations(cfg, model, seed)
    solution = _solution(solve_volterra, model, risk)
    if "h" in cfg:
        h = _finite(cfg["h"], "h")
        if h.shape != (model.horizon,):
            raise ConfigError(f"h must have length {model.horizon}", field="h")
    else:
        h = filtering.leg_filter(model, risk, Y, solution=solution).h_bar
    dec = cameron_martin.cm_decompose(model, risk, Y, h, solution=solution)
    steps = {
        "Y": Y, "h": h, "I": dec.I, "log_I": dec.log_I, "M": dec.M, "log_M": dec.log_M, "innovation": dec.nu,
        "gamma": dec.gamma, "gamma_bar": dec.gamma_bar, "step_log_scale": dec.step_log_scale,
        "step_exponent": dec.step_exponent, "step_log_M": dec.step_log_M,
    }
    doc = {key: col for key, col in steps.items() if key != "innovation"}
    doc.update(innovations=dec.nu, z=dec.z, z_tilde=dec.z_tilde)
    if seed is not None:
        doc["seed"] = seed
    _emit(args, doc, steps)
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
    if args.batch_csv:  # emptied first, so a path that cannot be written stops the run before any output
        _write(args.batch_csv, "", "--batch-csv")
    _emit(args, doc)
    if args.batch_csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(("batch", "partial_sum"))
        writer.writerows(enumerate(estimate.batch_sums))
        _write(args.batch_csv, buf.getvalue(), "--batch-csv")
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
    _emit(args, report.to_dict())
    return 0


def _cmd_example_5_2(args) -> int:
    if args.T < 1:
        raise ConfigError("T must be at least 1", field="T")
    report = oracle.leg_vs_rs_example(args.T)
    _emit(args, report)
    return 0


def _flag_type(parse, flag, what):
    """An argparse ``type=`` that reports an unparsable value as a config error at ``flag``."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise ConfigError(f"{flag.lstrip('-')} must be {what}, got {text!r}", field=flag) from exc
    return convert


class _Parser(argparse.ArgumentParser):
    """argparse that raises its parse errors as config errors at the offending token."""

    def error(self, message):
        head, _, rest = message.partition(": ")
        if head.startswith("argument "):  # argument X: what is wrong with it
            raise ConfigError(rest, field=head[len("argument "):])
        token = (rest.split() or [head])[0]  # the first unrecognized or missing one
        raise ConfigError(message, field=token.split("=")[0].rstrip(","))


def build_parser() -> argparse.ArgumentParser:
    """The ``rsfilt`` argument parser, every verb a subparser.

    ``run`` builds it once per process, on its first call, and reuses it:
    parsing leaves the parser unchanged, each call gets a fresh namespace,
    and parse errors leave through ``_Parser.error``.
    """
    parser = _Parser(
        prog="rsfilt",
        description="Risk-sensitive filtering for general Gaussian signal models.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def outputs(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")

    for name, fn in (
        ("validate", _cmd_validate),
        ("filter", _cmd_filter),
        ("risk", _cmd_risk),
        ("cm", _cmd_cm),
        ("simulate", _cmd_simulate),
        ("compare", _cmd_compare),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="path to a JSON configuration")
        outputs(p)
        p.add_argument("--seed", type=_flag_type(int, "--seed", "an integer"), help="seed override (unsigned 64-bit)")
        if name in ("simulate", "compare"):  # the Monte Carlo verbs; the others draw at most one path
            p.add_argument("--paths", type=_flag_type(int, "--paths", "an integer"), help="path-count override")
        p.add_argument("--mu", type=_flag_type(float, "--mu", "a number"), help="risk parameter override")
        if name == "simulate":
            p.add_argument("--batch-csv", help="also write per-batch partial sums to this CSV")
        p.set_defaults(fn=fn)

    p = sub.add_parser("example-5-2")
    outputs(p)
    p.add_argument("--T", type=_flag_type(int, "--T", "an integer"), default=10)
    p.set_defaults(fn=_cmd_example_5_2)
    return parser


_parser = functools.cache(build_parser)


def run(argv) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help
        return 0
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
    except FilteringError as exc:  # once the config is accepted, any other library error is the computation's
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
