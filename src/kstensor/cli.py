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
from .matrixflux import FluxTensor, load_matrix, parse_matrix_inline
from .solver import load_config, run
from .verify import SUITES, run_suite

_FMT = "{:.12g}"


def _fmt(x) -> str:
    return _FMT.format(float(x))


def _matrix_rows(mat: np.ndarray) -> str:
    return "\n".join("  " + " ".join(_fmt(v) for v in row) for row in mat)


def _read_matrix(args) -> np.ndarray:
    if getattr(args, "inline", None):
        return parse_matrix_inline(args.inline)
    if getattr(args, "file", None):
        return load_matrix(args.file)
    raise ValueError("provide a matrix via --file or --inline")


def cmd_check_matrix(args) -> int:
    mat = _read_matrix(args)
    flux = FluxTensor.from_matrix(mat)
    print(f"n={flux.n}")
    print("P:")
    print(_matrix_rows(flux.p))
    print("U:")
    print(_matrix_rows(flux.u_orth))
    print("angles=" + (",".join(_fmt(a) for a in flux.angles) or "none"))
    print("real_eigs=" + (",".join(_fmt(e) for e in flux.real_eigs) or "none"))
    print(f"kappa={_fmt(flux.kappa)}")
    print(f"lam_min={_fmt(flux.lam_min)}")
    print(f"lam_max={_fmt(flux.lam_max)}")
    print(f"trace_pinv={_fmt(flux.trace_pinv)}")
    print(f"hypothesis={'true' if flux.hypothesis_ok else 'false'}")
    return 0 if flux.hypothesis_ok else 2


def cmd_thresholds(args) -> int:
    mat = _read_matrix(args)
    flux = FluxTensor.from_matrix(mat)
    dim = flux.n if args.dim is None else args.dim
    verdict = th.admissibility(args.moment, args.mass, flux, args.chi, dim)
    eps = (
        th.rescale_epsilon(args.moment, args.mass, flux, args.chi, dim)
        if args.moment > 0.0
        else float("inf")
    )
    print(f"c_bl={_fmt(verdict.c_bl)}")
    print(f"admissible={'true' if verdict.admissible else 'false'}")
    print(f"margin={_fmt(verdict.margin)}")
    print(f"epsilon={_fmt(eps)}")
    print("t_upper=" + (_fmt(verdict.t_upper) if verdict.t_upper is not None else "none"))
    print(f"f_w0={_fmt(verdict.f_w0)}")
    return 0


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    if args.output is not None:
        from dataclasses import replace

        config = replace(config, output_dir=args.output)
    outcome = run(config)
    print(f"status={outcome.status}")
    print(f"t_final={_fmt(outcome.t_final)}")
    print(f"steps={outcome.steps}")
    print(f"dt_at_stop={_fmt(outcome.dt_at_stop)}")
    print(f"sup_growth_factor={_fmt(outcome.sup_growth_factor)}")
    if outcome.status == "CompletedToTEnd":
        return 0
    if outcome.status == "NumericalBlowup":
        return 3
    print(f"message={outcome.message}", file=sys.stderr)
    return 1


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark} [{res.suite}] {res.name}: margin={_fmt(res.margin)}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} cases passed")
    return 0 if failed == 0 else 1


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

    p = sub.add_parser("check-matrix", help="polar-decompose a flux matrix and check the hypothesis")
    p.add_argument("--file", help="matrix text file (n lines of n numbers)")
    p.add_argument("--inline", help="row-major comma-separated entries "
                   "(use --inline=... when the first entry is negative)")
    p.set_defaults(func=cmd_check_matrix)

    p = sub.add_parser("thresholds", help="blow-up admissibility report for given mass/moment")
    p.add_argument("--file", help="matrix text file")
    p.add_argument("--inline", help="row-major comma-separated matrix")
    p.add_argument("--chi", type=float, required=True, help="chemotactic sensitivity (> 0)")
    p.add_argument("--dim", type=int, help="space dimension n >= 3 (default: the matrix size)")
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
