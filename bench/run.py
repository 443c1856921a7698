"""The repository's benchmark: seeded workloads through the scanpath-diffusion CLI.

One workload per run, from the root of a checkout:

    python3 bench/run.py --workload desk-fit --seed 1 --seconds 30 --trace 0

The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. The line before it is
the run's record (environment, config, inputs, per-command numbers); both
are also written under `.bench_out/`.

    python3 bench/run.py --workload all     # every workload, one table
    python3 bench/run.py --smoke            # tiny sizes, both modes, checked
    python3 bench/run.py --write-spec       # regenerate BENCHMARK.json
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS runs one thread per process; this must precede the numpy import
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREADS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "scanpath_diffusion" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))
OUT.mkdir(exist_ok=True)
(OUT / "tmp").mkdir(exist_ok=True)
os.environ["TMPDIR"] = str(OUT / "tmp")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import scanpath_diffusion  # noqa: E402

if not Path(scanpath_diffusion.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported {scanpath_diffusion.__file__}, not the package under {SRC}")

import spec  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from spans import MAPS_TO, Tracer  # noqa: E402


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREADS},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def medians(rounds: list[dict]) -> dict:
    keys = [k for k, v in rounds[0].items() if isinstance(v, float)]
    return {k: statistics.median(r[k] for r in rounds) for k in keys}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    cfg = wl.CONFIGS[name][size]
    workers = 1 if trace else cfg.get("workers", 1)
    checks = wl.Checks()
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    log = wl.WarningLog(work / "warnings.log")
    pkg_log = logging.getLogger("scanpath_diffusion")
    pkg_log.addHandler(log)
    # the speedometer's probes would show up inside spans, so a traced run
    # reports raw wall times only
    meter = speed.Speedometer(wl.PROBE[name]) if not trace else None
    try:
        with meter or contextlib.nullcontext():
            setup = speed.Clock()
            for k in range(wl.SETUP_REPEATS):
                state, _ = setup.time(wl.setup, name, cfg, seed, work / f"setup{k}")
                if meter:  # set-up is short: sample next to every repeat
                    meter.sample()

            def one_round(tag: str) -> dict:
                return wl.run_round(name, cfg, seed, state, work / tag, checks, log, workers)

            rounds, traced, tracer = [], [], Tracer()
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                rounds.append(one_round(f"round{len(rounds)}"))
                if trace:
                    undo = tracer.install()
                    try:
                        traced.append(one_round(f"traced{len(traced)}"))
                    finally:
                        Tracer.uninstall(undo)
                now = time.perf_counter()
                if now - start + (now - t0) > seconds:
                    break
    finally:
        pkg_log.removeHandler(log)
        shutil.rmtree(work, ignore_errors=True)

    def scaled(intervals):
        return [meter.scaled(a, b) if meter else b - a for a, b in intervals]

    setup_s = scaled(setup.intervals)
    for r in rounds + traced:
        r["flow_s"] = sum(scaled(r.pop("intervals")))

    for key in wl.DETERMINISTIC:
        values = {repr(r[key]) for r in rounds + traced if key in r}
        checks.expect(len(values) <= 1, f"rounds disagree on {key}: {sorted(values)}")

    per_command = medians(rounds)
    if trace:
        flow = per_command["flow_wall_s"]
        flow_traced = statistics.median(r["flow_wall_s"] for r in traced)
        metrics = tracer.summary(rounds=len(traced))
        metrics["trace.overhead_ms"] = (flow_traced - flow) * 1e3
        metrics["trace.overhead_share"] = (flow_traced - flow) / flow
        for key in spec.STAGE_METRICS:
            metrics[key] = per_command.get(key, 0.0)
        units = {m["name"]: m["unit"] for m in spec.per_layer()}
        tracer.write(OUT / "traces" / f"{name}-seed{seed}.npz")
    else:
        metrics = {"setup_s": statistics.median(setup_s), "flow_s": per_command["flow_s"],
                   "peak_rss_mb": peak_rss_mb()}
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}

    record = {
        "workload": name, "why": wl.WHY[name], "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "config": {**cfg, "workers": workers},
        "speed_probe": None if trace else wl.PROBE[name],
        "load": "closed loop, one client, one CLI command at a time",
        "environment": environment(),
        "inputs": wl.inputs_record(cfg, state),
        "rounds": len(rounds), "traced_rounds": len(traced),
        "setup_s_each": setup_s, "setup_wall_s_each": [b - a for a, b in setup.intervals],
        "flow_s_each": [r["flow_s"] for r in rounds],
        "flow_wall_s_each": [r["flow_wall_s"] for r in rounds],
        "per_command_median": per_command,
        "failed_share": checks.failed / max(1, checks.attempted),
        "failures": checks.notes,
    }
    if trace:
        record["maps_to"] = {prefix: {"moves": m, "on": w}
                             for prefix, (m, w) in MAPS_TO.items()}
        record["note"] = ("traced rounds generate in-process (--workers 1): spans from "
                          "pool workers are not collected; the untraced rounds of this "
                          "run use the same setting, so the overhead compares like with like")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"record": record, "result": result}


# ---------------------------------------------------------------------------
# several workloads: the table and the smoke check

def run_child(name: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def run_all(seed: int, seconds: float, trace: int, size: str) -> int:
    ok = True
    print(f"{'workload':<12} {'metric':<32} {'value':>14}  unit")
    for name in wl.WHY:
        out = run_child(name, seed, seconds, trace, size)
        res, rec = out["result"], out["record"]
        ok &= res["correct"]
        rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        if not trace:
            rows += [(k, v, spec.STAGE_METRICS[k][0])
                     for k, v in rec["per_command_median"].items() if k in spec.STAGE_METRICS]
        rows.append(("failed_share", rec["failed_share"], "ratio"))
        for key, value, unit in rows:
            print(f"{name:<12} {key:<32} {value:>14.6g}  {unit}")
        for note in rec["failures"]:
            print(f"{name:<12} FAILED: {note}")
    return 0 if ok else 1


def smoke(seed: int) -> int:
    """Every workload at tiny size in both modes, against the spec."""
    want = spec.benchmark()
    problems = []
    committed = ROOT / "BENCHMARK.json"
    if not committed.is_file() or json.loads(committed.read_text()) != want:
        problems.append("BENCHMARK.json differs from spec.py (run --write-spec)")
    for trace, names in ((0, spec.END_TO_END), (1, want["per_layer"])):
        for name in wl.WHY:
            res = run_child(name, seed, 0, trace, "smoke")["result"]
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {res['failed']} checks failed")
            if set(res["metrics"]) != {m["name"] for m in names}:
                problems.append(f"{name} trace={trace}: metric names differ from the spec")
            if not trace and any(v["value"] <= 0 for v in res["metrics"].values()):
                problems.append(f"{name}: an end-to-end metric is not positive")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(wl.WHY) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--smoke", action="store_true", help="tiny self-check of every workload")
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = p.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark(), indent=2) + "\n")
        return 0
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.size)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
