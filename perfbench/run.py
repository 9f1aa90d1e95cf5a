"""rsfilt benchmark: one workload, run as a single-client closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload mc_ar1 --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and defined in workloads.py. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the run's
metadata. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
runs half the time untraced and half traced and reports the per-layer
metrics, the tracing overhead and a growth ladder in T and batch size.
Every result, and the spans of a traced run, are also written under
.perfbench/results/.
"""

import time

T0 = time.perf_counter()  # workload start: before numpy and rsfilt are imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 7  # this process plus six fresh ones
WARMUP_CYCLES = 1 << 20  # the warm-up op is this many cycles in: first kind, unused inputs
LADDER_KEY = 1 << 41
LADDER_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args):
    """Set-up time of a fresh process: import rsfilt and generate the first inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure(wl, tr, seconds, first, between=None):
    """Closed loop over whole cycles (at least one) until ``seconds`` have passed.

    Input generation and the correctness check run outside the timed op.
    ``between(elapsed)`` runs after each op; its time does not count
    towards ``seconds``. Returns (latencies, failed, next op index).
    """
    latencies, failed = [], 0
    i, start = first, time.perf_counter()
    while i == first or (i - first) % len(wl.cycle) or time.perf_counter() - start < seconds:
        inp = wl.make_input(i)
        ok = True
        t = time.perf_counter()
        try:
            with tr.span("op." + wl.kind(i)):
                out = wl.run(i, inp, tr)
        except Exception:  # an op that raises is a failed op; the loop goes on
            ok = False
            print(f"op {i} ({wl.kind(i)}) raised:\n{traceback.format_exc()}", file=sys.stderr)
        latencies.append(time.perf_counter() - t)
        if ok:
            try:
                wl.check(i, inp, out)
            except Exception:  # a wrong or malformed output is a failed op
                ok = False
                print(f"op {i} ({wl.kind(i)}) failed its check:\n{traceback.format_exc()}", file=sys.stderr)
        if ok and tr.enabled:
            with tr.span("probe"):
                wl.probe(i, inp, tr)
        failed += not ok
        i += 1
        if between is not None:
            t = time.perf_counter()
            between(t - start)
            start += time.perf_counter() - t
    return latencies, failed, i


def ladder(tr, seed):
    """Growth in T of the scalar solve and in batch and T of the filter."""
    import numpy as np
    import rsfilt as rf
    from workloads import fgn_kernel

    g = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(LADDER_KEY,)))
    models = {}
    for T in (25, 100, 200, 400, 800):
        model = rf.build_general(np.zeros(T), fgn_kernel(T, 0.75), g.uniform(0.5, 1.5, T))
        models[T] = (model, rf.RiskSpec(mu=-1.0, Q=np.ones(T)))

    def timed(name, fn, reps):
        times = []
        for _ in range(reps):
            with tr.span("ladder." + name):
                t = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t)
        return statistics.median(times), "s"

    out = {}
    for T in (100, 200, 400, 800):
        out[f"volterra.solve_volterra.T{T}_s"] = timed(
            f"solve_T{T}", lambda: rf.solve_volterra(*models[T]), LADDER_REPS)
    for batch, T, reps in ((32768, 25, LADDER_REPS), (32768, 100, 1), (1, 800, LADDER_REPS)):
        model, risk = models[T]
        sol = rf.solve_volterra(model, risk)
        Y = g.normal(size=(batch, T)) if batch > 1 else g.normal(size=T)
        out[f"filtering.leg_filter.b{batch}_T{T}_s"] = timed(
            f"leg_b{batch}_T{T}", lambda: rf.leg_filter(model, risk, Y, solution=sol), reps)
    return out


def blas_threads():
    """OpenBLAS thread count, read from the loaded library when it exports it."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def read_first(path, prefix=""):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def metadata(args):
    import numpy as np

    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        level, kind = read_first(base / "level"), read_first(base / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read_first(base / "size")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for path in sorted((SRC / "rsfilt").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += sum(1 for ln in data.decode().splitlines() if ln.strip())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "cache": caches, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": blas_threads(),
        "commit": commit, "source_sha256": digest.hexdigest(), "src_nonblank_lines": lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rsfilt" / "__init__.py").is_file():
        print(f"perfbench: no rsfilt sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    tmpdir = WORK / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        wl = workloads.WORKLOADS[args.workload](args.seed, str(tmpdir))
        warm_i = WARMUP_CYCLES * len(wl.cycle)
        warm_inp = wl.make_input(warm_i)
        setup_own = time.perf_counter() - T0
        if args.setup_probe:
            print(f"setup_s {setup_own!r}")
            return 0
        return report(args, wl, setup_own, warm_i, warm_inp)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def report(args, wl, setup_own, warm_i, warm_inp) -> int:
    import rsfilt as rf
    from tracing import Tracer

    # Warm-up: one op of the cycle's first kind, excluded from every metric.
    wl.run(warm_i, warm_inp, Tracer(False))

    setups = [setup_own]
    if args.trace == 0:
        # Fresh-process set-ups are spread over the loop, so that they sample
        # the same stretch of machine time as the ops do.
        due = [args.seconds * k / (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES - 1)]

        def between(elapsed):
            if due and elapsed >= due[0]:
                due.pop(0)
                setups.append(setup_probe(args))

        lat, failed, _ = measure(wl, Tracer(False), args.seconds, 0, between)
        setups += [setup_probe(args) for _ in due]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        spans = None
    else:
        plain, f_plain, nxt = measure(wl, Tracer(False), args.seconds / 2, 0)
        tr = Tracer(True, expected=(rf.InfeasibleCondition,))
        traced, f_traced, _ = measure(wl, tr, args.seconds / 2, nxt)
        lat, failed = plain + traced, f_plain + f_traced
        metrics = tr.layer_metrics()
        metrics.update(ladder(tr, args.seed))
        untraced_rate, traced_rate = len(plain) / sum(plain), len(traced) / sum(traced)
        metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        # Positive when tracing slows the loop down.
        metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "1/s")
        spans = tr.dump()

    meta = metadata(args)
    meta.update({
        "op_latency_samples": len(lat), "error_rate": failed / len(lat),
        "setup_samples_s": setups, "cycle": list(wl.cycle),
    })
    result = {
        "correct": failed == 0,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "latencies_s": lat, "spans": spans}, fh)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
