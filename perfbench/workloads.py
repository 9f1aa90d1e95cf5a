"""The four benchmark workloads.

Each workload turns (seed, op index) into inputs with its own generator,
runs one timed operation through the public API, and checks the output
against a reference computed outside the timed region. ``cycle`` lists
the op kinds in order; a run always completes whole cycles, so every run
has the same mix of kinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import rsfilt as rf
from rsfilt import cli, oracle

import reference as ref


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


def fgn_kernel(T: int, hurst: float) -> np.ndarray:
    """Covariance of unit-variance fractional Gaussian noise (non-Markov for H != 1/2)."""
    k = np.arange(T + 1, dtype=float)
    r = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst))
    i = np.arange(T)
    return r[np.abs(i[:, None] - i[None, :])]


def within(est, exact, z=6.0) -> bool:
    """A Monte Carlo mean lies within z standard errors of its exact value."""
    return abs(est.mean - exact) <= z * est.stderr + 1e-12 * abs(exact)


SETUP_KEY = 1 << 40


class Workload:
    cycle: tuple = ()

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir

    def rng(self, i: int):
        """Generator of op i's inputs; SETUP_KEY is reserved for set-up."""
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(i,)))

    def kind(self, i: int) -> str:
        return self.cycle[i % len(self.cycle)]

    def probe(self, i, inp, tr):
        """Extra traced calls made outside the op span (traced runs only)."""


# --- mc_ar1 -------------------------------------------------------------------

MC_T = 25
MC_BATCH = 1 << 15
MC_PATHS = 4 * MC_BATCH


@dataclass
class McInput:
    a: float
    D: float
    x0: float
    A: np.ndarray
    Q: np.ndarray
    mc_seed: int


class McAr1(Workload):
    """Monte Carlo experiments on AR(1) at T=25, four full batches of 2^15 paths."""

    cycle = ("leg_mu-1", "rn_mu0.2", "compare_mu0.2")

    def make_input(self, i):
        g = self.rng(i)
        return McInput(
            a=float(g.uniform(0.5, 0.95)), D=float(g.uniform(0.5, 1.5)), x0=float(g.normal()),
            A=g.uniform(0.5, 1.5, MC_T), Q=g.uniform(0.5, 1.0, MC_T),
            mc_seed=int(g.integers(1 << 62)),
        )

    def _config(self, model, inp, kind, mu):
        return rf.ExperimentConfig(
            model=model, risk=rf.RiskSpec(mu=mu, Q=inp.Q), filter_kind=kind,
            n_paths=MC_PATHS, seed=inp.mc_seed, batch_size=MC_BATCH,
        )

    def run(self, i, inp, tr):
        model = tr.call("model.build", rf.build_ar1, inp.a, inp.D, inp.x0, inp.A, MC_T)
        kind = self.kind(i)
        if kind == "leg_mu-1":
            return model, tr.call("sim.estimate_risk", rf.estimate_risk,
                                  self._config(model, inp, "leg", -1.0))
        if kind == "rn_mu0.2":
            return model, tr.call("sim.estimate_risk", rf.estimate_risk,
                                  self._config(model, inp, "risk_neutral", 0.2))
        return model, tr.call(
            "sim.compare_filters", rf.compare_filters,
            self._config(model, inp, "leg", 0.2), self._config(model, inp, "risk_neutral", 0.2),
        )

    def probe(self, i, inp, tr):
        """One sampling batch and the op's filters on it, timed per layer."""
        model = rf.build_ar1(inp.a, inp.D, inp.x0, inp.A, MC_T)
        _, Y = tr.call("model.sample_paths", rf.sample_paths, model, inp.mc_seed, MC_BATCH)
        Y = Y[:, :, 0]
        kind = self.kind(i)
        if kind != "rn_mu0.2":
            mu = -1.0 if kind == "leg_mu-1" else 0.2
            tr.call("filtering.leg_filter", rf.leg_filter, model, rf.RiskSpec(mu=mu, Q=inp.Q), Y)
        if kind != "leg_mu-1":
            tr.call("filtering.risk_neutral_filter", rf.risk_neutral_filter, model, Y)

    @staticmethod
    def _leg_exact(model, inp, mu):
        risk = rf.RiskSpec(mu=mu, Q=inp.Q)
        return rf.optimal_risk(rf.solve_volterra(model, risk), risk, model.gains1)

    @staticmethod
    def _rn_exact(model, inp, mu):
        coeffs = oracle.affine_from_filter(lambda y: rf.risk_neutral_filter(model, y), MC_T)
        return oracle.exact_affine_risk(model, rf.RiskSpec(mu=mu, Q=inp.Q), coeffs)

    def check(self, i, inp, out):
        model, res = out
        kind = self.kind(i)
        if kind == "leg_mu-1":
            require(within(res, self._leg_exact(model, inp, -1.0)), "leg estimate vs optimal_risk")
        elif kind == "rn_mu0.2":
            require(within(res, self._rn_exact(model, inp, 0.2)), "risk-neutral estimate vs exact_affine_risk")
        else:
            require(within(res.estimate_a, self._leg_exact(model, inp, 0.2)), "compare: leg vs optimal_risk")
            require(within(res.estimate_b, self._rn_exact(model, inp, 0.2)), "compare: rn vs exact_affine_risk")
            require(res.diff_mean <= 6.0 * res.diff_stderr + 1e-12, "compare favours risk-neutral")


# --- long_kernel --------------------------------------------------------------

LK_T = 800
# Risk-preferring to risk-averse. In a probe of 30 kernels drawn as below,
# every one was feasible at 0.5, and 1.2 and 2.0 failed within steps 1-31,
# so an op makes four full solves and two that stop early.
LK_MU_GRID = (-2.0, -0.5, 0.1, 0.5, 1.2, 2.0)


@dataclass
class LongInput:
    m: np.ndarray
    K: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    Y: np.ndarray


class LongKernel(Workload):
    """Certify one filter on a fresh fractional-Gaussian-noise kernel at T=800."""

    cycle = ("certify",)

    def make_input(self, i):
        g = self.rng(i)
        K = fgn_kernel(LK_T, float(g.uniform(0.6, 0.9)))
        m = g.normal(size=LK_T) * 0.5
        A = g.uniform(0.5, 1.5, LK_T)
        X = m + np.linalg.cholesky(K) @ g.normal(size=LK_T)
        Y = A * X + g.normal(size=LK_T)
        return LongInput(m=m, K=K, A=A, Q=g.uniform(0.5, 1.5, LK_T), Y=Y)

    def run(self, i, inp, tr):
        model = tr.call("model.build", rf.build_general, inp.m, inp.K, inp.A)
        sols = [tr.call("volterra.solve_volterra", rf.solve_volterra, model, rf.RiskSpec(mu=mu, Q=inp.Q))
                for mu in LK_MU_GRID]
        top = max((s for s in sols if s.feasible), key=lambda s: s.mu)
        risk = rf.RiskSpec(mu=top.mu, Q=inp.Q)
        run = tr.call("filtering.leg_filter", rf.leg_filter, model, risk, inp.Y, solution=top)
        value = tr.call("filtering.optimal_risk", rf.optimal_risk, top, risk, model.gains1)
        dec = tr.call("cameron_martin.cm_decompose", rf.cm_decompose, model, risk, inp.Y,
                      run.h_bar, solution=top)
        return sols, run, value, dec

    def check(self, i, inp, out):
        sols, run, value, dec = out
        for sol in sols:
            S = inp.A**2 - sol.mu * inp.Q
            if sol.feasible:
                require(ref.close(sol.diag, ref.scalar_diag(inp.K, S, LK_T), 1e-8),
                        f"gbar diag vs LDL' pivots at mu={sol.mu}")
            else:
                require((sol.first_violation, sol.violated_clause) == ref.scalar_violation(inp.K, S),
                        f"first violation at mu={sol.mu}")
        require(math.isfinite(value) and value * max(s.mu for s in sols if s.feasible) > 0,
                "optimal risk")
        # At the optimum the filtered centering sequence is the estimate itself.
        require(ref.close(dec.z_tilde, run.h_bar, 1e-8), "cm z_tilde vs leg estimate")
        require(bool(np.all(np.isfinite(dec.log_I))), "cm log_I finite")


# --- vector_corr --------------------------------------------------------------

VC_T = 100
VC_CHECK_STEPS = (1, 2, VC_T // 2, VC_T)


@dataclass
class VecInput:
    builder: str
    params: dict
    mu: float
    q: np.ndarray
    Y: np.ndarray


class VectorCorr(Workload):
    """Block and correlated-noise models at T=100, one path each."""

    cycle = tuple(f"{b}_mu{mu}" for mu in (0.0, -0.5)
                  for b in ("vector", "ar1_noise", "ma1_observations"))

    def make_input(self, i):
        g = self.rng(i)
        builder, mu = self.kind(i).split("_mu")
        T = VC_T
        if builder == "vector":
            c = g.normal(size=2)
            k1 = fgn_kernel(T, float(g.uniform(0.6, 0.9)))
            lag = np.abs(np.arange(T)[:, None] - np.arange(T)[None, :])
            k2 = float(g.uniform(0.3, 0.9)) ** lag
            K = (k1[:, :, None, None] * (np.outer(c, c) + 0.1 * np.eye(2))
                 + k2[:, :, None, None] * np.diag(g.uniform(0.2, 1.0, 2)))
            params = {"m": g.normal(size=(T, 2)) * 0.3, "K": K,
                      "A": g.uniform(0.5, 1.5, (T, 1, 2))}
        elif builder == "ar1_noise":
            params = {"a": g.uniform(0.5, 0.95, T), "b": float(g.uniform(-0.8, 0.8)),
                      "alpha": g.uniform(0.5, 1.5, T), "beta": float(g.uniform(-0.8, 0.8)), "T": T}
        else:
            params = {"lam": float(g.uniform(-0.8, 0.8)), "alpha": g.uniform(0.5, 1.5, T),
                      "beta": float(g.uniform(-0.8, 0.8)), "T": T}
        return VecInput(builder=builder, params=params, mu=float(mu),
                        q=g.uniform(0.5, 1.5, T), Y=g.normal(size=(T, 1)) * 1.5)

    @staticmethod
    def _q_blocks(inp):
        """q_t I for the vector model; the presets penalize only X_t, not eps_{t-1}."""
        if inp.builder == "vector":
            return inp.q[:, None, None] * np.eye(2)
        return inp.q[:, None, None] * np.diag([1.0, 0.0])

    def run(self, i, inp, tr):
        build = {"vector": rf.build_vector_model, "ar1_noise": rf.build_ar1_noise,
                 "ma1_observations": rf.build_ma1_observations}[inp.builder]
        model = tr.call("model.build", build, **inp.params)
        risk = rf.RiskSpec(mu=inp.mu, Q=self._q_blocks(inp))
        if model.cross_cov is None:
            sol = tr.call("volterra.solve_volterra_matrix", rf.solve_volterra_matrix, model, risk)
        else:
            sol = tr.call("volterra.solve_volterra_correlated", rf.solve_volterra_correlated, model, risk)
        run = tr.call("filtering.filter_correlated", rf.filter_correlated, model, risk, inp.Y, solution=sol)
        return model, risk, sol, run

    def check(self, i, inp, out):
        model, risk, sol, run = out
        require(sol.feasible, "risk-preferring solve is feasible")
        if model.cross_cov is None:
            other = rf.solve_volterra_correlated(model, risk)
            require(ref.close(sol.gamma_bar, other.gamma_bar, 1e-9), "matrix vs correlated solve")
        joint = ref.augmented_joint(model, -inp.mu * self._q_blocks(inp))
        for t in VC_CHECK_STEPS:
            require(ref.close(sol.gamma_bar[t - 1, t - 1], ref.predictor_cov(joint, model, t), 1e-8),
                    f"gbar block at step {t} vs conditioning")
        if inp.mu == 0.0:
            base = oracle.assemble_joint(model)
            h = run.h_bar.reshape(VC_T, model.n)
            for t in range(1, VC_T + 1, 9):
                require(ref.close(h[t - 1], ref.filtered_mean(base, model, inp.Y, t), 1e-8),
                        f"filter vs conditional mean at step {t}")


# --- cli_requests -------------------------------------------------------------

CLI_VERBS = ("validate", "risk", "filter", "cm", "simulate", "compare")
CLI_PATHS = 2048
CLI_INFEASIBLE_MU = "50"


class CliRequests(Workload):
    """In-process CLI sessions over three configs written at set-up."""

    # Every sixth session also runs example-5-2 (the oracle's brute force).
    cycle = ("ar1", "ma1", "general", "ar1", "ma1", "general+example")

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        g = self.rng(SETUP_KEY)
        T = 100
        K = fgn_kernel(T, float(g.uniform(0.6, 0.9)))
        common = {"paths": CLI_PATHS, "filters": [{"kind": "leg"}, {"kind": "risk_neutral"}]}
        configs = {
            "ar1": {"model": {"kind": "ar1", "a": float(g.uniform(0.5, 0.95)), "D": float(g.uniform(0.5, 1.5)),
                              "x0": float(g.normal()), "A": g.uniform(0.5, 1.5, 25).tolist(), "T": 25},
                    "risk": {"mu": -1.0, "Q": 1.0}},
            "ma1": {"model": {"kind": "ma1", "lambda": float(g.uniform(-0.8, 0.8)),
                              "A": g.uniform(0.5, 1.5, 50).tolist(), "T": 50},
                    "risk": {"mu": -1.0, "Q": g.uniform(0.5, 1.5, 50).tolist()}},
            "general": {"model": {"kind": "general", "m": (g.normal(size=T) * 0.5).tolist(),
                                  "K": np.tril(K).tolist(), "A": g.uniform(0.5, 1.5, T).tolist()},
                        "risk": {"mu": -0.5, "Q": 1.0}},
        }
        self.configs = {}
        for name, cfg in configs.items():
            path = f"{tmpdir}/{name}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**cfg, **common}, fh)
            self.configs[name] = path

    def make_input(self, i):
        return int(self.rng(i).integers(1 << 62))

    def _out(self, verb):
        return f"{self.tmpdir}/{verb}.json"

    def run(self, i, seed, tr):
        name = self.kind(i).split("+")[0]
        config = self.configs[name]
        codes = {}
        for verb in CLI_VERBS:
            argv = [verb, "--config", config, "--out", self._out(verb), "--seed", str(seed)]
            if verb == "filter":
                argv += ["--format", "json"]
            codes[verb] = tr.call(f"cli.{verb}", cli.run, argv, ok=lambda rc: rc == 0)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes["infeasible"] = tr.call(
                "cli.risk", cli.run,
                ["risk", "--config", config, "--mu", CLI_INFEASIBLE_MU, "--out", self._out("infeasible")],
                ok=lambda rc: rc == 2)
        if self.kind(i).endswith("+example"):
            codes["example-5-2"] = tr.call(
                "cli.example-5-2", cli.run,
                ["example-5-2", "--T", "3", "--out", self._out("example-5-2")], ok=lambda rc: rc == 0)
        return codes, err.getvalue()

    def _read(self, verb):
        with open(self._out(verb), encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, i, seed, out):
        codes, err = out
        require(codes.pop("infeasible") == 2 and "infeasible" in err, "infeasible risk exits 2")
        require(all(rc == 0 for rc in codes.values()), f"exit codes {codes}")
        require(self._read("validate")["valid"] is True, "validate")
        risk = self._read("risk")["optimal_risk"]
        require(math.isfinite(risk) and risk < 0, "optimal risk")
        doc = self._read("filter")
        affine = oracle.AffineFilter(intercept=np.array(doc["affine"]["intercept"]),
                                     gains=np.array(doc["affine"]["gains"]))
        require(ref.close(doc["h_bar"], affine.apply(np.array(doc["Y"])), 1e-9), "filter h_bar vs affine(Y)")
        require(bool(np.all(np.isfinite(self._read("cm")["log_I"]))), "cm log_I finite")
        sim = self._read("simulate")
        require(abs(sim["mean"] - risk) <= 6.0 * sim["stderr"] + 1e-12, "simulate vs optimal risk")
        cmp = self._read("compare")
        require(cmp["diff_mean"] <= 6.0 * cmp["diff_stderr"] + 1e-12, "compare favours risk-neutral")
        if "example-5-2" in codes:
            ex = self._read("example-5-2")
            require(ex["adjudicated"]["differ"] is True, "example: optima differ")
            require(abs(ex["bruteforce"]["hbar1_coeff"] - ex["computed"]["hbar1_coeff_exact_tilt"]) <= 1e-6,
                    "example: brute force vs exact tilt")


WORKLOADS = {
    "mc_ar1": McAr1,
    "long_kernel": LongKernel,
    "vector_corr": VectorCorr,
    "cli_requests": CliRequests,
}
