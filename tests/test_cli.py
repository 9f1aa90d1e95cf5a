import contextlib
import copy
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from rsfilt import cli
from rsfilt import errors as rf_errors
from rsfilt.cli import FILTER_CSV_COLUMNS, run


AR1_CONFIG = {
    "model": {"kind": "ar1", "a": 0.9, "D": 1.0, "x0": 0.0, "A": 1.0, "T": 4},
    "risk": {"mu": -1.0, "Q": 1.0},
    "seed": 7,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(AR1_CONFIG))
    return str(path)


def test_validate_ok(config_path, capsys):
    assert run(["validate", "--config", config_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True
    assert doc["resolved"]["horizon"] == 4
    assert doc["resolved"]["mu"] == -1.0


def test_validate_missing_file(capsys):
    assert run(["validate", "--config", "does-not-exist.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(["validate", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "line" in err


def test_filter_csv_columns(config_path, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert run(["filter", "--config", config_path, "--format", "csv", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == FILTER_CSV_COLUMNS
    assert len(rows) == 5
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    assert not np.any(np.isnan(values))


def test_filter_infeasible_exit_code(config_path, capsys):
    rc = run(["filter", "--config", config_path, "--mu", "10"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "step 1" in err
    assert "1 + S_t" in err


@pytest.mark.filterwarnings("error")
def test_vanishing_innovation_exits_2_at_its_step(tmp_path, capsys):
    # gbar_1 = K = -1e-12 is inside check_psd's tolerance and the solve's floors, but 1 + A_1^2 gbar_1 = 0.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kind": "general", "m": [0.0], "K": [[-1e-12]], "A": [1e6]},
                                "risk": {"mu": 2.0, "Q": 1.0}}))
    assert run(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    assert run(["risk", "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "step 1" in out.err and "1 + A_t^2 gamma_bar_t" in out.err


def test_negative_pivot_exits_2_at_its_step(tmp_path, capsys):
    # The table passes validation (worst eigenvalue about -1e-10, floor -2e-10); the solve's step-2 pivot is about -2e-10.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kind": "general", "m": [0.0, 0.0], "K": [[1.0, 0.0], [1.0, 1.0 - 2e-10]],
                                          "A": [1.0, 1.0]}, "risk": {"mu": -1e12, "Q": 1.0}}))
    assert run(["risk", "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "infeasible: step 2 violates gamma_bar_t >= 0\n"


@pytest.mark.filterwarnings("error")
def test_cm_with_an_overflowing_innovation_product(tmp_path, capsys):
    # 1 + A_t^2 gbar_t and 1 + A_t^2 gamma_t are both about 1e200: their product overflows, the CM term does not.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"kind": "ar1", "a": 1.0, "D": 1e200, "x0": 0.1, "A": 1.0, "T": 4},
                                "risk": {"mu": -1.0, "Q": 1.0}}))
    assert run(["cm", "--config", str(path)]) == 0
    out = capsys.readouterr()
    doc = json.loads(out.out)
    assert out.err == "" and doc["step_log_M"] == [0.0] * 4 and doc["M"] == [1.0] * 4
    assert all(math.isfinite(v) for key in ("log_I", "step_log_scale", "innovations") for v in doc[key])


OVERFLOWING_AR1 = {"model": {"kind": "ar1", "a": 2.0, "D": 1e300, "x0": 0.1, "A": 1.0, "T": 5},
                   "risk": {"mu": -1.0, "Q": 1.0}}


@pytest.mark.parametrize("cfg, argv, what", [
    # A_1 gbar_1 Y_1 is about 1e300 x 1e150: h_1 would read -inf and every later step nan. Then S_t = A_t^2 - mu Q_t
    # overflows at step 1, through mu Q_t or through A_t^2.
    *(pytest.param(OVERFLOWING_AR1, argv, "filter estimate h_t", id="-".join(argv)) for argv in (
        ["filter"], ["filter", "--format", "csv"], ["filter", "--mu", "0"], ["cm"], ["cm", "--format", "csv"])),
    pytest.param({**OVERFLOWING_AR1, "risk": {"mu": 1e308, "Q": 1e308}}, ["validate"], "S_t", id="validate-weight"),
    pytest.param({"model": {"kind": "general", "m": [0.0, 0.0], "K": [[1.0, 0.0], [0.5, 1.0]], "A": [1e160, 1e160]}},
                 ["validate"], "S_t", id="validate-gain"),
])
def test_overflow_exits_2_at_its_step(tmp_path, capsys, cfg, argv, what):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run([*argv, "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == f"numerical failure: {what} at step 1 overflows double precision\n"
    assert not re.search("nan|inf", out.out, re.IGNORECASE)


def test_filter_does_not_mutate_config(config_path):
    before = Path(config_path).read_text()
    run(["filter", "--config", config_path])
    assert Path(config_path).read_text() == before


def test_round_trip_filter_json_as_custom_spec(config_path, tmp_path, capsys):
    assert run(["filter", "--config", config_path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    affine = doc["affine"]

    sim_cfg = copy.deepcopy(AR1_CONFIG)
    sim_cfg["paths"] = 20000
    leg_path = tmp_path / "leg.json"
    leg_path.write_text(json.dumps(sim_cfg))
    assert run(["simulate", "--config", str(leg_path)]) == 0
    leg_est = json.loads(capsys.readouterr().out)

    sim_cfg["filter"] = {"kind": "custom", **affine}
    custom_path = tmp_path / "custom.json"
    custom_path.write_text(json.dumps(sim_cfg))
    assert run(["simulate", "--config", str(custom_path)]) == 0
    custom_est = json.loads(capsys.readouterr().out)
    assert leg_est == custom_est


def test_risk_verb(config_path, capsys):
    assert run(["risk", "--config", config_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimal_risk"] < 0
    assert len(doc["gamma_bar"]) == 4


def test_cm_verb_csv(config_path, capsys):
    assert run(["cm", "--config", config_path, "--format", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["t", "Y", "h", "I", "log_I", "M", "log_M", "innovation", "gamma",
                       "gamma_bar", "step_log_scale", "step_exponent", "step_log_M"]
    assert len(rows) == 5


def test_compare_verb(config_path, tmp_path, capsys):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg["paths"] = 5000
    cfg["filters"] = [{"kind": "leg"}, {"kind": "risk_neutral"}]
    p = tmp_path / "cmp.json"
    p.write_text(json.dumps(cfg))
    assert run(["compare", "--config", str(p)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diff_mean"] <= 0


def test_compare_mu_flag_overrides_config(tmp_path, capsys):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg["paths"] = 2000
    cfg["filters"] = [{"kind": "leg"}, {"kind": "risk_neutral"}]
    flagged, direct = tmp_path / "flagged.json", tmp_path / "direct.json"
    flagged.write_text(json.dumps(cfg))
    cfg["risk"]["mu"] = 0.3
    direct.write_text(json.dumps(cfg))
    outputs = []
    for argv in (["--config", str(flagged), "--mu", "0.3"], ["--config", str(direct)],
                 ["--config", str(flagged)]):
        assert run(["compare", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


def test_compare_needs_two_filters(config_path, capsys):
    assert run(["compare", "--config", config_path]) == 1
    assert "filters" in capsys.readouterr().err


def test_example_5_2(capsys):
    assert run(["example-5-2", "--T", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quoted"]["hhat1_coeff"] == 0.25
    assert doc["adjudicated"]["differ"] is True
    assert doc["gamma_max_discrepancy"] < 1e-12


@pytest.mark.parametrize("T", ["0", "-3"])
def test_example_5_2_names_T_below_one(T, capsys):
    assert run(["example-5-2", f"--T={T}"]) == 1
    assert "config error at T:" in capsys.readouterr().err


def test_simulate_batch_csv(config_path, tmp_path, capsys):
    out = tmp_path / "batches.csv"
    assert run([
        "simulate", "--config", config_path, "--paths", "4096", "--batch-csv", str(out)
    ]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["batch", "partial_sum"]
    assert len(rows) > 1


def test_filter_with_supplied_observations(tmp_path, capsys):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg["Y"] = [0.5, -1.0, 0.25, 1.5]
    p = tmp_path / "y.json"
    p.write_text(json.dumps(cfg))
    assert run(["filter", "--config", str(p), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"Y", "h_bar", "Z_h", "Z_tilde", "gamma_bar", "gamma_tilde", "risk", "affine"}
    assert doc["Y"] == cfg["Y"]

    import rsfilt as rf
    model = rf.model_from_config(cfg["model"])
    risk = rf.risk_from_config(cfg["risk"], 4)
    expect = rf.leg_filter(model, risk, np.array(cfg["Y"])).h_bar
    assert_allclose(doc["h_bar"], expect, atol=1e-14)


def test_cm_with_supplied_estimates(tmp_path, capsys):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg["Y"] = [0.5, -1.0, 0.25, 1.5]
    cfg["h"] = [0.1, 0.0, -0.2, 0.3]
    p = tmp_path / "h.json"
    p.write_text(json.dumps(cfg))
    assert run(["cm", "--config", str(p), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"Y", "h", "I", "log_I", "M", "log_M", "innovations", "gamma", "gamma_bar",
                        "z", "z_tilde", "step_log_scale", "step_exponent", "step_log_M"}
    assert doc["h"] == cfg["h"]
    assert len(doc["log_I"]) == 4


def test_wrong_length_observations_rejected(tmp_path, capsys):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg["Y"] = [1.0, 2.0]
    p = tmp_path / "bad_y.json"
    p.write_text(json.dumps(cfg))
    assert run(["filter", "--config", str(p)]) == 1
    assert "Y" in capsys.readouterr().err


def _with(section, **entries):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg[section].update(entries)
    return cfg


@pytest.mark.parametrize("cfg, flags, field", [
    (AR1_CONFIG, ["--mu", "nan"], "risk.mu"),
    (AR1_CONFIG, ["--mu", "inf"], "risk.mu"),
    (AR1_CONFIG, ["--mu=-inf"], "risk.mu"),
    (_with("risk", mu=float("nan")), [], "risk.mu"),
    (_with("risk", mu=float("inf")), [], "risk.mu"),
    (_with("risk", mu="x"), [], "risk.mu"),
    (_with("risk", Q="x"), [], "risk.Q"),
    (_with("risk", Q=[1.0, float("nan"), 1.0, 1.0]), [], "risk.Q"),
    (_with("risk", Q=float("inf")), [], "risk.Q"),
    (_with("model", T=0), [], "model.T"),
    (_with("model", T=-3), [], "model.T"),
    (_with("model", T=2.5), [], "model.T"),
    (_with("model", T="x"), [], "model.T"),
])
@pytest.mark.parametrize("verb", ["validate", "risk", "simulate"])
def test_bad_risk_and_horizon_rejected(cfg, flags, field, verb, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    paths = ["--paths", "100"] if verb == "simulate" else []
    assert run([verb, "--config", str(p), *paths, *flags]) == 1
    out = capsys.readouterr()
    assert f"config error at {field}:" in out.err
    assert "NaN" not in out.out and "Traceback" not in out.err


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("verb", ["filter", "cm", "simulate", "compare"])
def test_seed_outside_unsigned_64_bit_rejected(seed, where, verb, tmp_path, capsys):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg["filters"] = [{"kind": "leg"}, {"kind": "risk_neutral"}]
    flags = ["--seed", str(seed)] if where == "flag" else []
    if where == "config":
        cfg["seed"] = seed
    p = tmp_path / "seed.json"
    p.write_text(json.dumps(cfg))
    paths = ["--paths", "100"] if verb in ("simulate", "compare") else []
    assert run([verb, "--config", str(p), *paths, *flags]) == 1
    assert "config error at seed:" in capsys.readouterr().err


def test_largest_seed_accepted(config_path, capsys):
    assert run(["filter", "--config", config_path, "--seed", str(2**64 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1


def _top(**entries):
    cfg = copy.deepcopy(AR1_CONFIG)
    cfg.update(entries)
    return cfg


CONFIG_VERBS = ["validate", "filter", "risk", "cm", "simulate", "compare"]


@pytest.mark.parametrize("cfg, field, verbs", [
    (_top(paths="x"), "paths", ["simulate", "compare"]),
    (_top(filter="leg"), "filter", ["simulate"]),
    (_top(filters=["leg", "risk_neutral"]), "filter", ["compare"]),
    (_top(Y="x"), "Y", ["filter", "cm"]),
    (_top(Y=[0.5, "x", 0.25, 1.5]), "Y", ["filter", "cm"]),
    (_top(h="x"), "h", ["cm"]),
    (_with("model", a="x"), "model.a", CONFIG_VERBS),
    (_with("model", x0=[1.0, 2.0]), "model.x0", CONFIG_VERBS),
    (_with("model", a=[0.9, 0.5]), "model.a", CONFIG_VERBS),
    (_with("model", D=-1), "model.D", CONFIG_VERBS),
    (_with("model", a=1e200), "model", CONFIG_VERBS),
    (_with("risk", Q=-1), "risk.Q", CONFIG_VERBS),
    (_with("risk", mu=0), "risk.mu", ["risk", "simulate", "compare"]),
    (_top(model={"kind": "ma1_observations", "lambda": 0.5, "alpha": 1.0, "beta": 0.3, "T": 4}),
     "model.kind", ["filter", "risk", "cm", "simulate", "compare"]),
])
def test_malformed_entry_names_its_field(cfg, field, verbs, tmp_path, capsys):
    cfg = copy.deepcopy(cfg)
    cfg.setdefault("filters", [{"kind": "leg"}, {"kind": "risk_neutral"}])
    cfg.setdefault("paths", 100)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    for verb in verbs:
        assert run([verb, "--config", str(p)]) == 1, verb
        out = capsys.readouterr()
        assert f"config error at {field}:" in out.err, (verb, out.err)
        assert "NaN" not in out.out


FUZZ_T = 4
_fuzz_K = np.tril(0.5 + 0.5 * np.eye(FUZZ_T)).tolist()
FUZZ_MODELS = {
    "general": {"kind": "general", "m": [0.1] * FUZZ_T, "K": _fuzz_K, "A": [1.0] * FUZZ_T},
    "ar1": {"kind": "ar1", "a": 0.9, "D": 1.0, "x0": 0.5, "A": 1.0, "T": FUZZ_T},
    "ma1": {"kind": "ma1", "lambda": 0.5, "A": 1.0, "T": FUZZ_T},
    "vector": {"kind": "vector", "m": [0.0] * FUZZ_T, "K": _fuzz_K, "A": [1.0] * FUZZ_T,
               "K_Xeps": (0.1 * np.eye(FUZZ_T)).tolist()},
    "ma1_observations": {"kind": "ma1_observations", "lambda": 0.5, "alpha": 1.0, "beta": 0.3, "T": FUZZ_T},
    "ar1_noise": {"kind": "ar1_noise", "a": 0.7, "b": 0.4, "alpha": 1.0, "beta": 0.4, "T": FUZZ_T},
}
FUZZ_TOP = {
    "risk": {"mu": -0.5, "Q": 1.0},
    "seed": 3,
    "paths": 64,
    "Y": [0.5, -1.0, 0.25, 1.5],
    "h": [0.1, 0.0, -0.2, 0.3],
    "filter": {"kind": "custom", "intercept": [0.0] * FUZZ_T, "gains": (0.5 * np.eye(FUZZ_T)).tolist()},
    "filters": [{"kind": "leg"}, {"kind": "risk_neutral"}],
    "criterion": "exponential",
}
# (model kind, path of the replaced entry) for every entry of every base config.
FUZZ_SITES = [
    (kind, path)
    for kind, model in FUZZ_MODELS.items()
    for path in [("model",), *[("model", k) for k in model], *[(k,) for k in FUZZ_TOP],
                 ("risk", "mu"), ("risk", "Q"), ("filter", "kind"), ("filter", "intercept"), ("filter", "gains")]
]
MISSING = object()
FUZZ_VALUES = ["x", math.nan, math.inf, -1, 0, 2.5, [], {}, None, [0.5] * (FUZZ_T + 1), MISSING]
NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(site=st.sampled_from(FUZZ_SITES), value=st.sampled_from(FUZZ_VALUES),
       fmt=st.sampled_from(["json", "csv"]), to_file=st.booleans())
def test_fuzz_one_bad_entry(site, value, fmt, to_file):
    """Every verb ends in exit 0, 1 (naming the field) or 2, never raises, and writes no NaN or inf."""
    kind, path = site
    cfg = {"model": copy.deepcopy(FUZZ_MODELS[kind]), **copy.deepcopy(FUZZ_TOP)}
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as tmp:
        config = f"{tmp}/config.json"
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        for verb in CONFIG_VERBS:
            out_file = f"{tmp}/{verb}.out"
            flags = ["--out", out_file] if to_file else []
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = run([verb, "--config", config, "--format", fmt, *flags])
            assert rc in (0, 1, 2), (verb, rc)
            if rc == 1:
                assert "config error at " in stderr.getvalue(), (verb, stderr.getvalue())
            written = stdout.getvalue()
            if to_file and rc == 0:
                written += Path(out_file).read_text()
            assert not NON_FINITE.search(written), (verb, written)


def test_mean_square_criterion_takes_mu_zero(tmp_path, capsys):
    cfg = {**_with("risk", mu=0), "criterion": "mean_square", "paths": 100}
    p = tmp_path / "ms.json"
    p.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["mean"] > 0


UNPARSABLE = ["x", "", "1,5", "0x10", "inf", "nan"]
FUZZ_FLAGS = {
    "--mu": [*UNPARSABLE, "-inf", "0", "10", "1e300", "-1e300", "1.7e308", "-1.7e308", "1e-300", "-1e5"],
    "--seed": [*UNPARSABLE, "-1", "1.5", str(2**64), str(2**64 - 1)],
    "--paths": [*UNPARSABLE, "0", "-1", "1", "1.5", str(-(2**70))],
    "--T": [*UNPARSABLE, "0", "-1", "1.5", str(-(2**70))],
    "--format": ["xml", ""],
    "--bogus": ["1", ""],
}
# (verb, flag, value); --T is a flag of example-5-2 only. The unknown verb
# "bogus" and the missing verb (None) are argparse errors like --bogus.
FUZZ_FLAG_SITES = [
    (verb, flag, value)
    for verb in [*CONFIG_VERBS, "example-5-2"]
    for flag, values in FUZZ_FLAGS.items() if flag != "--T" or verb == "example-5-2"
    for value in values
] + [("bogus", "--mu", "1"), (None, "--mu", "1")]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(site=st.sampled_from(FUZZ_FLAG_SITES), kind=st.sampled_from(sorted(FUZZ_MODELS)),
       fmt=st.sampled_from(["json", "csv"]))
def test_fuzz_one_bad_flag(site, kind, fmt):
    """A bad flag value ends in exit 0, 1 (naming the field or flag) or 2, never raises, and writes no NaN or inf."""
    verb, flag, value = site
    with tempfile.TemporaryDirectory() as tmp:
        config = f"{tmp}/config.json"
        with open(config, "w") as fh:
            json.dump({"model": FUZZ_MODELS[kind], **FUZZ_TOP}, fh)
        head = [] if verb is None else [verb]
        source = [] if verb == "example-5-2" else ["--config", config]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = run([*head, *source, "--format", fmt, f"{flag}={value}"])
    assert rc in (0, 1, 2), (verb, rc)
    if rc == 1:
        err = stderr.getvalue()
        assert err.startswith("config error at ") and "usage:" not in err, (verb, err)
    assert not NON_FINITE.search(stdout.getvalue()), (verb, stdout.getvalue())


@pytest.mark.parametrize("mu", ["1.7e308", "-1.7e308"])
def test_mu_near_double_limit_same_outcome_for_every_verb(mu, tmp_path, capsys):
    """risk, cm, simulate and compare of the leg filter stop at the same step, without a warning."""
    p = tmp_path / "ma1.json"
    p.write_text(json.dumps({"model": FUZZ_MODELS["ma1"], **FUZZ_TOP, "filter": {"kind": "leg"}}))
    for verb in ("risk", "cm", "simulate", "compare"):
        assert run([verb, "--config", str(p), f"--mu={mu}"]) == 2, verb
        err = capsys.readouterr().err
        assert err == "numerical failure: innovation covariance at step 1 overflows double precision\n", (verb, err)


@pytest.mark.parametrize("flag", ["--mu", "--seed", "--paths"])
def test_unparsable_flag_names_the_flag(flag, config_path, capsys):
    assert run(["simulate", "--config", config_path, f"{flag}=x"]) == 1
    assert capsys.readouterr().err == f"config error at {flag}: {flag[2:]} must be " + (
        "a number" if flag == "--mu" else "an integer") + ", got 'x'\n"


@pytest.mark.parametrize("argv, err", [
    (["risk", "--bogus"], "config error at --bogus: unrecognized arguments: --bogus\n"),
    (["bogus"], "config error at verb: invalid choice: 'bogus' (choose from 'validate', 'filter', "
                "'risk', 'cm', 'simulate', 'compare', 'example-5-2')\n"),
    ([], "config error at verb: the following arguments are required: verb\n"),
    (["risk", "--format=xml"], "config error at --format: invalid choice: 'xml' (choose from 'csv', 'json')\n"),
    (["risk", "--mu"], "config error at --mu: expected one argument\n"),
])
def test_parse_errors_are_config_errors(argv, err, capsys):
    """Every argparse error exits 1 in the config-error format, with no usage block."""
    assert run(argv) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv", [["--help"], ["risk", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: rsfilt")


def test_correlated_scalar_model_verbs(tmp_path, capsys):
    """filter, risk and cm need independent noise and name K_Xeps; Monte Carlo takes the model."""
    cfg = {"model": FUZZ_MODELS["vector"], **FUZZ_TOP, "filter": {"kind": "leg"}}
    p = tmp_path / "correlated.json"
    p.write_text(json.dumps(cfg))
    for verb in ("filter", "risk", "cm"):
        assert run([verb, "--config", str(p)]) == 1, verb
        err = capsys.readouterr().err
        assert "config error at model.K_Xeps:" in err and verb in err, (verb, err)
    for verb in ("simulate", "compare"):
        assert run([verb, "--config", str(p)]) == 0, verb
        assert "NaN" not in capsys.readouterr().out


@pytest.mark.parametrize("argv, field", [
    (["validate", "--out", "{tmp}"], "--out"),
    (["simulate", "--out", "{tmp}"], "--out"),
    (["validate", "--out", "{tmp}/missing/out.json"], "--out"),
    (["simulate", "--out", "{tmp}/missing/out.json"], "--out"),
    (["simulate", "--batch-csv", "{tmp}/missing/batches.csv"], "--batch-csv"),
    (["simulate", "--batch-csv", "{tmp}"], "--batch-csv"),
])
def test_unwritable_output_names_its_flag(argv, field, config_path, tmp_path, capsys):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    paths = ["--paths", "100"] if argv[0] == "simulate" else []
    assert run([*argv, "--config", config_path, *paths]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {field}: cannot write ") and err.count("\n") == 1, err


@pytest.mark.parametrize("bad_flag, with_out", [("--batch-csv", True), ("--batch-csv", False), ("--out", False)])
def test_unwritable_output_leaves_no_other_output(bad_flag, with_out, config_path, tmp_path, capsys):
    """simulate opens --batch-csv before it writes --out or stdout: one unwritable path exits 1 with
    nothing on stdout and no document in the other file."""
    paths = {"--out": tmp_path / "out.json", "--batch-csv": tmp_path / "batches.csv"}
    paths[bad_flag] = tmp_path / "missing" / "file"
    flags = ["--batch-csv"] + (["--out"] if with_out or bad_flag == "--out" else [])
    argv = ["simulate", "--config", config_path, "--paths", "100"]
    for flag in flags:
        argv += [flag, str(paths[flag])]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error at {bad_flag}: cannot write "), err
    for flag in flags:
        assert not paths[flag].exists() or paths[flag].read_text() == "", flag


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                         ids=["directory", "not_utf8", "too_deep"])
def test_unreadable_config_names_config(content, tmp_path, capsys):
    """A directory, a file that is not UTF-8, or JSON nested past the parser's
    recursion limit is a config error at config."""
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for verb in CONFIG_VERBS:
        assert run([verb, "--config", str(path)]) == 1, verb
        err = capsys.readouterr().err
        assert err.startswith("config error at config: ") and err.count("\n") == 1, (verb, err)


def _stdlib_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist)


_json_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_json_arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
               elements=st.one_of(_json_floats, st.sampled_from([-0.0, 5e-324, -2.2e-308]))),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
)
_json_leaves = st.one_of(
    _json_floats, st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e-310]),
    _json_floats.map(np.float64), st.integers(), st.booleans(), st.none(), st.text(), _json_arrays,
)
_json_docs = st.recursive(_json_leaves, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(_json_floats, max_size=6),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(st.text(max_size=6), children, max_size=5),
    st.dictionaries(st.integers(), children, max_size=3),
), max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=_json_docs)
def test_json_writer_matches_stdlib(doc):
    """The CLI's JSON writer gives the stdlib's indent-2, sorted-key bytes for any document."""
    assert cli._json_text(doc) == _stdlib_json(doc)


@pytest.mark.parametrize("kind", ["ar1", "ma1", "general"])
def test_every_verb_writes_the_stdlib_json(kind, tmp_path, monkeypatch):
    """Each verb's --out file holds the stdlib rendering of the document it emitted."""
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, doc, steps=None: (emitted.append(doc), emit(args, doc, steps)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": FUZZ_MODELS[kind], **FUZZ_TOP}))
    out = tmp_path / "out.json"
    for argv in [[verb, "--config", str(config)] for verb in CONFIG_VERBS] + [["example-5-2", "--T", "2"]]:
        assert run([*argv, "--out", str(out)]) == 0, argv
        assert out.read_text() == _stdlib_json(emitted.pop()) + "\n", argv


def test_shared_parser_leaks_no_state(tmp_path):
    """A sequence of calls gives the same codes, stderr and bytes on one shared
    parser as with a parser built afresh for every call."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": FUZZ_MODELS["ar1"], **FUZZ_TOP, "filter": {"kind": "leg"}}))
    c = ["--config", str(config)]
    calls = [
        ["simulate", *c, "--mu", "-0.3", "--seed", "11", "--paths", "128"],
        ["simulate", *c],
        ["risk", *c, "--mu=x"],
        ["risk", *c, "--mu", "-0.2"],
        ["risk", *c],
        ["--help"],
        ["cm", "--help"],
        ["filter", *c, "--format", "csv", "--seed", "4"],
        ["filter", *c],
        ["example-5-2", "--T", "2"],
        ["example-5-2", "--T", "0"],
        ["compare", *c, "--paths", "64", "--seed", "9", "--mu", "-0.2"],
        ["compare", *c],
        ["bogus"],
        [],
        ["validate", *c, "--format=xml"],
        ["validate", *c, "--seed", "5", "--out", str(tmp_path / "validate.json")],
        ["validate", *c],
    ]

    def session(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = run(argv)
            results.append((rc, stdout.getvalue(), stderr.getvalue()))
        results.append((tmp_path / "validate.json").read_text())
        return results

    shared = session(fresh=False)
    assert shared == session(fresh=True)
    assert [r[0] for r in shared[:-1]] == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0]
    parsed = [vars(cli._parser().parse_args(argv)) for argv in (["example-5-2", "--T", "3"], ["example-5-2"])]
    assert parsed[1]["T"] == 10 and parsed[0]["T"] == 3


_BIG_DIAGONAL_BLOCKS = np.zeros((2, 2, 2, 2))
_BIG_DIAGONAL_BLOCKS[0, 0] = _BIG_DIAGONAL_BLOCKS[1, 1] = np.eye(2)
_BIG_DIAGONAL_BLOCKS[0, 0, 0, 0] = 1.7e308


@pytest.mark.parametrize("model", [
    {"kind": "vector", "m": np.zeros((2, 2)).tolist(), "K": _BIG_DIAGONAL_BLOCKS.tolist(), "A": np.ones((2, 1, 2)).tolist()},
    {"kind": "ma1", "lambda": 1e200, "A": 1.0, "T": 3},
    {"kind": "ma1_observations", "lambda": 1e200, "alpha": 1.0, "beta": 0.5, "T": 3},
    {"kind": "ar1_noise", "a": 1e200, "b": 0.5, "alpha": 1.0, "beta": 0.5, "T": 3},
], ids=["vector", "ma1", "ma1_observations", "ar1_noise"])
def test_table_that_overflows_is_one_config_error(model, tmp_path, capsys):
    """A finite parameter whose table overflows double precision writes one stderr line (no warning, no traceback)."""
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"model": model, "risk": {"mu": -1.0, "Q": 1.0}}))
    assert run(["validate", "--config", str(p)]) == 1
    assert capsys.readouterr() == (
        "", "config error at model: signal covariance table has entries that are not finite in double precision\n")


@pytest.mark.parametrize("verb", ["validate", "risk"])
def test_mirrored_entry_past_half_dbl_max_is_not_psd(verb, tmp_path, capsys):
    """A finite table whose symmetrized sum would overflow is refused with its worst eigenvalue (no warning)."""
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"model": {"kind": "general", "m": [0.0, 0.0], "K": [[1.0, 0.0], [1.7e308, 1.0]],
                                       "A": [1.0, 1.0]}, "risk": {"mu": -1.0, "Q": 1.0}}))
    assert run([verb, "--config", str(p)]) == 1
    assert capsys.readouterr() == (
        "", "config error at model: signal covariance table is not positive semidefinite (worst eigenvalue "
            "-1.700e+308)\n")


@pytest.mark.parametrize("argv, flag", [
    (["example-5-2", "--seed", "1"], "--seed"),
    (["example-5-2", "--mu", "-1"], "--mu"),
    (["example-5-2", "--paths", "10"], "--paths"),
    (["validate", "--paths", "10"], "--paths"),
    (["filter", "--paths", "10"], "--paths"),
    (["risk", "--paths", "10"], "--paths"),
    (["cm", "--paths", "10"], "--paths"),
])
def test_flags_a_verb_ignores_are_not_accepted(argv, flag, config_path, capsys):
    source = [] if argv[0] == "example-5-2" else ["--config", config_path]
    assert run([*argv, *source]) == 1
    assert capsys.readouterr().err == f"config error at {flag}: unrecognized arguments: {' '.join(argv[1:])}\n"


def test_integral_float_entries_write_the_integer_bytes(tmp_path, capsys):
    """T and paths given as integral floats are read as the integers they equal."""
    outputs = []
    for T, paths in ((25, 100), (25.0, 100.0)):
        cfg = {"model": {"kind": "ar1", "a": 0.9, "D": 1.0, "x0": 0.5, "A": 1.0, "T": T},
               "risk": {"mu": -0.5, "Q": 1.0}, "seed": 4, "paths": paths}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        assert run(["simulate", "--config", str(p)]) == 0
        outputs.append(capsys.readouterr())
    assert '"T": 25.0' in p.read_text() and '"n_paths": 100' in outputs[1].out
    assert outputs[0] == outputs[1]


# Validates (worst eigenvalue -5e-12, inside the -2e-10 PSD floor), but the sampler's joint factor fails.
UNSAMPLEABLE_CONFIG = {
    "model": {"kind": "general", "m": [0.0, 0.0], "K": [[1.0, 0.0], [1.0, 0.99999999999]], "A": 1.0},
    "risk": {"mu": -1.0, "Q": 1.0},
    "paths": 64,
    "filters": [{"kind": "leg"}, {"kind": "risk_neutral"}],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb, code", [("validate", 0), ("risk", 0), ("filter", 2), ("cm", 2), ("simulate", 2),
                                        ("compare", 2)])
def test_a_covariance_the_sampler_cannot_factorize_exits_2(verb, code, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(UNSAMPLEABLE_CONFIG))
    assert run([verb, "--config", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("numerical failure: joint covariance could not be factorized: "
                       "Matrix is not positive definite\n")


def _filtering_errors(cls=rf_errors.FilteringError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _filtering_errors(sub)


@pytest.mark.parametrize("error", list(_filtering_errors()), ids=lambda cls: cls.__name__)
def test_every_library_error_inside_a_verb_exits_with_its_class(error, config_path, monkeypatch, capsys):
    def fail(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "_resolve", fail)
    code = run(["risk", "--config", config_path])
    err = capsys.readouterr().err
    if error is rf_errors.ConfigError:
        assert (code, err) == (1, "config error: boom\n")
    elif error is rf_errors.InfeasibleCondition:
        assert (code, err) == (2, "infeasible: step None violates None\n")
    else:
        assert (code, err) == (2, "numerical failure: boom\n")
