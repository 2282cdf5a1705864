"""Benchmark of the ppmplan pipeline: end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a ppmplan checkout. Each workload runs in fresh child
processes (perfbench/worker.py) with the checkout's ``src/`` on PYTHONPATH
and BLAS/OpenMP threads pinned to 1. With ``--trace 0`` the workload is set
up at least SETUP_REPS times, each in its own process, and the last process
goes on to the timed passes; ``setup_s`` is the median set-up. Times of
``--trace 0`` runs are in reference seconds, corrected for the host's speed
as probe.py measures it. With ``--trace 1`` one
process alternates untraced and traced passes and reports per-layer metrics.
Without ``--trace`` both runs are made. Every metric is printed by name with
its unit; the last line is one JSON object with the metrics BENCHMARK.json
declares. The exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("n14-rejection-exact", "gabriel100-sweep-greedy", "gabriel30-place-exact")
SETUP_REPS = 3          # set-ups per run at least,
SETUP_SECONDS = 5.0     # and more while the set-up-only ones took less than this
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

UNITS = {
    "setup_s": "s", "wall_s": "s", "demands_per_s": "1/s", "instances_per_s": "1/s",
    "place_s.p50": "s", "place_s.p90": "s", "place_s.samples": "count", "host_speed": "ratio",
    "peak_rss_mb": "MB", "error_frac": "ratio", "exact_optimal_frac": "ratio",
    "greedy_gap_pct": "%", "provisioning.route_reuse": "ratio",
    "placement.delta_mb": "MB", "trace.coverage": "ratio", "trace.overhead_pct": "%",
}


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


class WorkerError(RuntimeError):
    """A worker process failed, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(args: list[str]) -> tuple[tuple[float, float], dict | None]:
    """Start one worker; returns ((seconds from start to 'ready', the same in
    reference seconds), final report)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    word, _, info = ready.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    info = json.loads(info)
    setup_ref = (setup_s - info["probe_s"]) * info["speed"] if info else setup_s
    lines = rest.strip().splitlines()
    return (setup_s, setup_ref), json.loads(lines[-1]) if lines else None


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    out = OUT / name
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--out", str(out), "--trace", str(trace)]
    if trace:
        return run_worker(common)[1]
    setups = []
    while len(setups) < SETUP_REPS - 1 or sum(raw for raw, _ in setups) < SETUP_SECONDS:
        setups.append(run_worker(common + ["--setup-only"])[0])
    last, report = run_worker(common)
    setups.append(last)
    report["metrics"]["setup_s"] = statistics.median(ref for _, ref in setups)
    report["metrics"]["setup_raw_s"] = statistics.median(raw for raw, _ in setups)
    return report


def commit() -> str:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the JSON line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset: workload seeds start at seed * 1000 (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per workload and run (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ppmplan" / "__init__.py").is_file():
        print(f"error: no ppmplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    machine = {"nproc": len(os.sched_getaffinity(0)), "commit": commit()}
    print(f"# perfbench seed={args.seed} seconds={args.seconds} "
          f"nproc={machine['nproc']} commit={machine['commit']}")

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        for trace in traces:
            try:
                report = run_workload(name, args.seed, args.seconds, trace)
            except (WorkerError, json.JSONDecodeError) as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return 1
            report.update(machine)
            OUT.mkdir(parents=True, exist_ok=True)
            (OUT / f"{name}-seed{args.seed}-trace{trace}.json").write_text(
                json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"# {name} trace={trace} passes={report['passes']} "
                  f"seeds={report['seeds'][0]}..{report['seeds'][-1]} "
                  + " ".join(f"{k}={v}" for k, v in report["versions"].items()))
            for missing in report["missing"]:
                print(f"# {name}: {missing} not found, its metrics are missing")
            for error in report["errors"]:
                print(f"# {name}: FAILED {error}")
            for key in sorted(report["metrics"]):
                print(f"{name:26s} {key:40s} {report['metrics'][key]:14.6g} {unit(key)}")
            correct = correct and report["failed"] == 0
            attempted += report["attempted"]
            failed += report["failed"]
            prefix = "" if len(names) == 1 and len(traces) == 1 else f"{name}/"
            for key, key_unit in declared(trace).items():
                if key in report["metrics"]:
                    metrics[prefix + key] = {"value": report["metrics"][key],
                                             "unit": key_unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
