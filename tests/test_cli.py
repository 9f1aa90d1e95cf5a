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
from numpy.testing import assert_allclose

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
    assert rows[0][0] == "t"
    assert "log_I" in rows[0]
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
    assert run([verb, "--config", str(p), "--paths", "100", *flags]) == 1
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
    assert run([verb, "--config", str(p), "--paths", "100", *flags]) == 1
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
    (_with("risk", mu=0), "risk.mu", ["risk"]),
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
