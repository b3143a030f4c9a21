"""Command-line interface.

Subcommands: check-matrix, thresholds, simulate, verify, calibrate-cn.
All numeric output is fixed-format (12 significant digits) so reports are
stable enough for golden-file comparison. Exit codes: 0 success, 1 error,
2 hypothesis rejected (check-matrix), 3 numerical blow-up (simulate) --
blow-up is a distinguishable success mode, not a failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import thresholds as th
from .errors import KSTensorError
from .matrixflux import FluxTensor, read_matrix
from .solver import load_config, run
from .verify import SUITES, run_suite


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _report(**fields) -> None:
    """Print `key=value` per field in order (floats by `_fmt`); a matrix prints `key:` and rows."""
    for key, val in fields.items():
        if isinstance(val, np.ndarray):
            print(key + ":" + "".join("\n  " + " ".join(map(_fmt, row)) for row in val))
        else:
            print(f"{key}={_fmt(val) if isinstance(val, float) else val}")


def cmd_check_matrix(args) -> int:
    flux = FluxTensor.from_matrix(read_matrix(args.inline, args.file))
    _report(
        n=flux.n, P=flux.p, U=flux.u_orth,
        angles=",".join(map(_fmt, flux.angles)) or "none",
        real_eigs=",".join(map(_fmt, flux.real_eigs)) or "none",
        kappa=flux.kappa, lam_min=flux.lam_min, lam_max=flux.lam_max, trace_pinv=flux.trace_pinv,
        hypothesis="true" if flux.hypothesis_ok else "false",
    )
    return 0 if flux.hypothesis_ok else 2


def cmd_thresholds(args) -> int:
    flux = FluxTensor.from_matrix(read_matrix(args.inline, args.file))
    verdict = th.admissibility(args.moment, args.mass, flux, args.chi, flux.n)
    _report(
        c_bl=verdict.c_bl, admissible="true" if verdict.admissible else "false",
        margin=verdict.margin,
        epsilon=th.rescale_epsilon(args.moment, args.mass, flux, args.chi, flux.n)
        if args.moment > 0.0 else float("inf"),
        t_upper="none" if verdict.t_upper is None else verdict.t_upper, f_w0=verdict.f_w0,
    )
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.output is not None:
        from dataclasses import replace

        config = replace(config, output_dir=args.output)
    outcome = run(config)
    _report(
        status=outcome.status, t_final=outcome.t_final, steps=outcome.steps,
        dt_at_stop=outcome.dt_at_stop, sup_growth_factor=outcome.sup_growth_factor,
    )
    if outcome.status == "CompletedToTEnd":
        return 0
    if outcome.status == "NumericalBlowup":
        return 3
    print(f"message={outcome.message}", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark} [{res.suite}] {res.name}: margin={_fmt(res.margin)}")
    passed = sum(res.passed for res in results)
    print(f"{passed}/{len(results)} cases passed")
    return 0 if passed == len(results) else 1


def cmd_calibrate_cn(args) -> int:
    inf_ratio, samples = th.calibrate_cn()
    for rho, ratio in samples:
        print(f"aspect={_fmt(rho)} ratio={_fmt(ratio)}")
    print(f"c_n={_fmt(inf_ratio)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstensor",
        description="Tensorial-flux chemotaxis: matrix checks, blow-up thresholds, simulation.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    matrix = argparse.ArgumentParser(add_help=False)  # the flux matrix; its size is the dimension n
    matrix.add_argument("--file", help="matrix text file (n lines of n numbers)")
    matrix.add_argument("--inline", help="row-major comma-separated entries "
                        "(use --inline=... when the first entry is negative)")

    p = sub.add_parser("check-matrix", parents=[matrix], help="polar-decompose a flux matrix and check the hypothesis")
    p.set_defaults(func=cmd_check_matrix)

    p = sub.add_parser("thresholds", parents=[matrix], help="blow-up admissibility report for given mass/moment")
    p.add_argument("--chi", type=float, required=True, help="chemotactic sensitivity (> 0)")
    p.add_argument("--mass", type=float, required=True, help="total mass M")
    p.add_argument("--moment", type=float, required=True, help="initial second moment m0")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("simulate", help="run a configured experiment")
    p.add_argument("config", help="key=value config file")
    p.add_argument("--output", help="override the config's output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("suite", choices=SUITES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("calibrate-cn", help="estimate the Gaussian-family norm/moment constant")
    p.set_defaults(func=cmd_calibrate_cn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (KSTensorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
