"""One workload in a fresh interpreter; started by run.py, not by hand.

    python3 perfbench/child.py setup   --workload W --seed N --workdir D
    python3 perfbench/child.py measure --workload W --seed N --workdir D \
        --seconds S --trace 0|1

`setup` times the user-visible set-up only. `measure` sets up, then times
the workload's operation for about S seconds and checks every output; with
--trace 1 the span tracer is installed first, for the per-layer metrics.
The analysis battery runs once per process: like `kstensor verify all`, it
builds its kernel tables in every fresh process. The last line of standard
output is one JSON object for run.py.

Only the standard library is imported before the set-up clock starts, so
set-up time includes importing the package and its numpy/scipy stack.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Public functions wrapped in a traced run, named relative to the package.
TRACED = (
    "solver.run",
    "solver.make_initial_data",
    "potential.solve_potential_gradient",
    "potential.solve_potential_fast",
    "potential.solve_potential_direct",
    "potential.save_field",
    "functionals.compute_record",
    "functionals.interaction_symmetrized_direct",
    "functionals.write_csv",
    "matrixflux.FluxTensor.from_matrix",
    "matrixflux.check_hypothesis",
    "thresholds.admissibility",
    "thresholds.calibrate_cn",
    "verify.run_suite",
)
MAX_REPORTED_ERRORS = 20


@dataclass
class Workload:
    """A timed operation and the check of its result.

    `check(result)` returns (operations attempted, failure messages).
    """

    op: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]
    repeat: bool = True  # False: one run per process
    cells_per_step: int = 0
    steps: Callable[[object], int] = lambda result: 0


def one_operation(errors: list[str]) -> tuple[int, list[str]]:
    """A simulation run is one operation, failed when any of its checks fail."""
    return 1, (["; ".join(errors)] if errors else [])


def setup_workload(name: str, seed: int, workdir: str) -> Workload | None:
    """Set up a simulation workload; all of it counts as set-up time.

    Returns None for analysis, whose set-up is the import alone.
    """
    import workloads as wl
    from kstensor import solver

    if name == "analysis":
        return None
    if name == "collapse64":
        config = wl.collapse64_config(seed)
        mass0 = wl.setup_simulation(config)
        check = lambda out: one_operation(wl.check_collapse(out, mass0))  # noqa: E731
    elif name == "heat64":
        out_dir = os.path.join(workdir, "heat64")
        os.makedirs(out_dir, exist_ok=True)
        config = wl.heat64_config(seed, out_dir)
        wl.setup_simulation(config)
        check = lambda out: one_operation(wl.check_heat(out, config))  # noqa: E731
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return Workload(
        op=lambda: solver.run(config),
        check=check,
        cells_per_step=config.n_cells**3,
        steps=lambda out: out.steps,
    )


def analysis_workload(seed: int) -> Workload:
    """Generate the analysis inputs, outside the set-up time."""
    import workloads as wl

    cases = wl.flux_batch(seed)
    return Workload(
        op=lambda: wl.run_analysis(cases),
        check=lambda res: wl.check_analysis(cases, res),
        repeat=False,
    )


def run_for(work: Workload, seconds: float, traced: bool) -> dict:
    """Time the operation, checking each output between runs.

    Simulations repeat while another run fits in `seconds` (at least one
    run); their kernel tables stay warm. The analysis battery runs once.
    """
    if traced:
        from tracer import Tracer, aggregate, install

        tracer = Tracer()
        missing = install(tracer, TRACED)
    out = {"run_s": [], "steps": 0, "attempted": 0, "failed": 0, "errors": []}
    start = time.perf_counter()
    while True:
        if traced:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = work.op()
        except Exception:  # a failed run is counted and reported, not timed
            traceback.print_exc()
            out["attempted"] += 1
            out["failed"] += 1
            out["errors"].append("operation raised; see stderr")
            break
        finally:
            if traced:
                tracer.enabled = False
        out["run_s"].append(time.perf_counter() - t0)
        out["steps"] = work.steps(result)
        attempted, errors = work.check(result)
        out["attempted"] += attempted
        out["failed"] += len(errors)
        out["errors"] = (out["errors"] + errors)[:MAX_REPORTED_ERRORS]
        runs = len(out["run_s"])
        if not work.repeat or (time.perf_counter() - start) * (runs + 1) / runs > seconds:
            break
    if traced and out["run_s"]:
        runs = len(out["run_s"])
        stats = aggregate(tracer.spans, TRACED)
        out["layers"] = {n: [st.calls / runs, st.self_s / runs, st.ms_p50] for n, st in stats.items()}
        out["coverage"] = sum(st.self_s for st in stats.values()) / sum(out["run_s"])
        out["missing"] = missing
    return out


def environment() -> dict:
    import numpy
    import scipy
    from kstensor import potential
    from run import BLAS_THREAD_VARS

    workers = getattr(potential, "_FFT_WORKERS", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_workers": os.cpu_count() if workers == -1 else workers,
        "thread_caps": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import kstensor
    import kstensor.verify  # noqa: F401  (not imported by the package itself)

    src = ROOT / "src"
    if not Path(kstensor.__file__).resolve().is_relative_to(src):
        print(f"kstensor imported from {kstensor.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = setup_workload(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if work is None:
        work = analysis_workload(args.seed)
    result.update(run_for(work, args.seconds, bool(args.trace)))
    result.update(
        cells_per_step=work.cells_per_step,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
