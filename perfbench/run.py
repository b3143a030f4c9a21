"""kstensor benchmark: one workload per call, every metric printed with its unit.

    python3 perfbench/run.py --workload collapse64|heat64|analysis \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each workload runs in fresh child processes (child.py).

--trace 0 prints the end-to-end metrics: run_s (median wall time of the
timed phase), setup_s (median over several fresh processes) and
peak_rss_mb (median over the measuring processes). --trace 1 prints the
per-layer metrics of separate traced runs. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. See METRICS.md for
what each metric means and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("collapse64", "heat64", "analysis")
SETUP_SAMPLES = 5  # set-up-only children top up what the measuring children gave
DEADLINE_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def metric_units() -> dict[str, str]:
    """Units of every end-to-end and per-layer metric, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict:
    """Package from this checkout only; BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            cap = nproc
        env[var] = str(max(cap, 1))
    return env


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"child {args[0]} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q[0]:.6g}, q3 {q[2]:.6g}"


def repeat_child(args: list[str], seconds: float, deadline: float) -> list[dict]:
    """Start measuring children while another fits in `seconds`; at least one."""
    runs: list[dict] = []
    start = time.monotonic()
    while True:
        left = seconds - (time.monotonic() - start)
        res = run_child([*args, "--seconds", f"{max(left, 0.0):.3f}"], deadline)
        if not res["run_s"]:
            raise BenchError("the workload's operation raised: " + "; ".join(res["errors"]))
        runs.append(res)
        elapsed = time.monotonic() - start
        if elapsed * (len(runs) + 1) / len(runs) > seconds:
            return runs


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-run medians over the traced children, plus derived ratios."""
    metrics = {}
    for name in traced[0]["layers"]:
        for i, field in enumerate(("calls", "self_s", "ms_p50")):
            metrics[f"{name}.{field}"] = statistics.median(r["layers"][name][i] for r in traced)
    steps = traced[0]["steps"]
    solves = (
        metrics["potential.solve_potential_gradient.calls"]
        + metrics["potential.solve_potential_fast.calls"]
    )
    metrics["potential.solves_per_step"] = solves / steps if steps else 0.0
    untraced_s = statistics.median(t for r in untraced for t in r["run_s"])
    traced_s = statistics.median(t for r in traced for t in r["run_s"])
    metrics["solver.cell_updates_per_s"] = untraced[0]["cells_per_step"] * untraced[0]["steps"] / untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["trace.coverage"] = statistics.median(r["coverage"] for r in traced)
    metrics["trace.missing"] = float(len(traced[0]["missing"]))
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: int, workdir: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    # a traced call splits its time between untraced and traced runs
    phase = seconds / 2 if trace else seconds
    runs = repeat_child(["measure", *common, "--trace", "0"], phase, deadline)
    print("env " + json.dumps(runs[0]["env"], sort_keys=True))
    if trace:
        traced = repeat_child(["measure", *common, "--trace", "1"], phase, deadline)
        metrics = layer_metrics(runs, traced)
        runs = runs + traced
        count = sum(len(r["run_s"]) for r in traced)
        notes = dict.fromkeys(metrics, f"per run, {count} traced runs")
    else:
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(["setup", *common], deadline)["setup_s"])
        run_s = [t for r in runs for t in r["run_s"]]
        rss = [r["peak_rss_mb"] for r in runs]
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
        notes = {
            "run_s": f"median, {quartiles(run_s)}",
            "setup_s": f"median, {quartiles(setups)}",
            "peak_rss_mb": f"median ru_maxrss of the measuring processes, {quartiles(rss)}",
        }
        steps = runs[0]["steps"]
        if steps:
            rate = runs[0]["cells_per_step"] * steps / metrics["run_s"]
            print(f"info cell_updates_per_s = {rate:.6g} 1/s (n^3 x {steps} steps / run_s)")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for err in (e for r in runs for e in r["errors"]):
        print(f"check FAILED: {err}")
    count = sum(len(r["run_s"]) for r in runs)
    print(f"checks: {attempted} operations attempted in {count} runs, {failed} failed")
    units = metric_units()
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]} ({notes[name]})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [ROOT / "src" / "kstensor" / "__init__.py", ROOT / "presets" / "blowup.cfg"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a kstensor checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another benchmark process still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
