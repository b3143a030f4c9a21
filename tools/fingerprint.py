"""Bitwise fingerprint of a kstensor source tree, and the diff of two fingerprints.

    python3 tools/fingerprint.py TREE OUT.json     # fingerprint the tree's src/kstensor
    python3 tools/fingerprint.py --diff A.json B.json

A fingerprint holds, each under its own entry name:

* preset/<name>/...: every `SimOutcome` field of the three presets but `phase_s`
  (a wall time), and every record column; floats by `float.hex`;
* cli/...: the SHA-256 of the stdout of `kstensor verify all`, `kstensor verify --help`, and
  of `check-matrix`, `thresholds` (`--moment 0` too) and `calibrate-cn` on fixed matrices;
* collapse64/<seed>/...: the same for the bench's collapse64 configs, seeds 0-7;
* heat64/<seed>/<file>: the SHA-256 of each artifact of the bench's heat64 runs, seeds 0-1
  (`diagnostics.csv`, each snapshot and its `.meta`, and `outcome.txt` without its `phase_`
  lines);
* kernels/<n>/<blocks>/...: the potential-only solve, the full solve (`v`, `gx`, `gy` and
  `gz` in one hash) and the step kernels `_drift`, `_advect` and `_diffuse` on a fixed 16^3,
  32^3 and 64^3 state, cut into 1, 2 and 3 blocks with the block floor at one cell, and the
  64^3 state also into 8 and 16, the cuts of an 8- and a 16-CPU host;
* analysis/...: every `FluxTensor` field and both `check_hypothesis` outputs (`ok`, `kappa`)
  over the bench's `flux_batch(0)` matrices, every `BlowupVerdict` field of `admissibility` on
  each passing matrix at m0 = 0 and at the batch's m0, and the (aspect, ratio) samples of
  `calibrate_cn`. A field of floats is a list of hex strings; any other field (arrays, lists,
  ints, bools, a `t_upper` that may be None) is the SHA-256 of its encoding over the batch;
* analysis/edge/<case>/...: every `FluxTensor` field and the `check_hypothesis` outputs, each
  encoded alone, of matrices the batch never holds: random 1x1, 2x2, 7x7 and 8x8 matrices,
  each also shifted towards the identity (at 8x8 `np.sum` turns pairwise), reflections,
  rotations at 0, pi/2 and pi -+ `SNAP_TOL`, and the identity scaled by 1e200 and 1e-200;
* config/<case>: `ok`, or `<stage>: ExceptionName: message`, of `parse_config` of a fixed config
  text followed by `make_initial_data` of what it parsed: where each bad input is rejected, and how.

The tree's own `perfbench/workloads.py` gives the collapse64 and heat64 configs and the
flux batch. The file holds no wall time, so two runs on one tree give the same file; the
run's wall time goes to stderr. `--diff` names each entry that differs, with the largest relative difference of a
float entry, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

# (n, blocks) of the kernels/ part
KERNEL_CUTS = [(n, blocks) for n in (16, 32, 64) for blocks in (1, 2, 3)] + [(64, 8), (64, 16)]
# a non-normal flux matrix that fails the hypothesis: its drift fills every face speed
KERNEL_MATRIX = ((1.0, 0.5, 0.2), (-0.7, 1.0, 0.1), (0.05, -0.3, -0.9))
KERNEL_CHI = 5.0
ROTATION = "0.7071067811865476,-0.7071067811865476,0,0.7071067811865476,0.7071067811865476,0,0,0,1"
BLOCKS_4 = "1,-1,0,0,1,1,0,0,0,0,0.5,-0.2,0,0,0.2,0.5"  # two rotation blocks, both passing
CONFIG_BASE = (
    "matrix = 1,0,0,0,1,0,0,0,1\nchi = 1\nn_cells = 32\nhalf_width = 10\nt_end = 0.5\n"
    "dt_max = 0.01\ninit = gaussian\n"
)
CONFIG_CASES = {  # the lines each case adds to CONFIG_BASE; a later key overrides an earlier one
    "good": "",
    "mass=-1": "mass = -1",
    "mass=0": "mass = 0",
    "mass=nan": "mass = nan",
    "sigma=1,0,1": "sigma = 1,0,1",
    "sigma=-1": "sigma = -1",
    "sigma=1,1": "sigma = 1,1",
    "ball/radius=0": "init = ball\nradius = 0",
    "ball/radius=-2": "init = ball\nradius = -2",
    "ball/radius=inf": "init = ball\nradius = inf",
    "gaussian/radius=-1": "radius = -1",
    "file/no-init_file": "init = file",
    "file/epsilon=0.5": "init = file\ninit_file = missing.bin\nepsilon = 0.5",
    "epsilon=0": "epsilon = 0",
    "dt_min>dt_max": "dt_min = 0.02",
    "mass=-1,cfl=2": "mass = -1\ncfl = 2",
    "sigma=nan,chi=nan": "sigma = nan\nchi = nan",
}
CLI_CASES = (
    ["verify", "all"],
    ["verify", "--help"],
    ["check-matrix", "--inline", ROTATION],
    ["check-matrix", "--inline=" + ",".join(map(str, np.ravel(KERNEL_MATRIX)))],
    ["check-matrix", "--inline", BLOCKS_4],
    ["thresholds", "--inline", ROTATION, "--chi", "50", "--mass", "1", "--moment", "0.01"],
    ["thresholds", "--inline", ROTATION, "--chi", "50", "--mass", "1", "--moment", "0"],
    ["thresholds", "--inline", ROTATION, "--chi", "1", "--mass", "2", "--moment", "1"],
    ["thresholds", "--inline", BLOCKS_4, "--chi", "2", "--mass", "1.5", "--moment", "1e-3"],
    ["calibrate-cn"],
)


def _sha(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _encode(value):
    """A JSON value with each float as its hex string, so that equal entries are equal bits."""
    if isinstance(value, np.generic):  # a numpy scalar as the Python value it holds
        value = value.item()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_encode(val) for val in value]
    if isinstance(value, np.ndarray):
        return _encode(value.tolist())
    return value


def _outcome_entries(prefix: str, outcome) -> dict:
    entries = {}
    for f in dataclasses.fields(outcome):
        if f.name == "records":
            for col in (c.name for c in dataclasses.fields(outcome.records[0])):
                entries[f"{prefix}/record/{col}"] = _encode([getattr(r, col) for r in outcome.records])
        elif f.name == "phase_s":
            continue
        elif isinstance(value := getattr(outcome, f.name), dict):  # dt_limits, dt_stats
            entries.update({f"{prefix}/{f.name}/{key}": _encode(val) for key, val in value.items()})
        else:
            entries[f"{prefix}/{f.name}"] = _encode(value)
    return entries


def _load_workloads(tree: str):
    path = os.path.join(tree, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("fingerprint_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def preset_entries(tree: str) -> dict:
    from kstensor import solver

    entries = {}
    for name in ("blowup", "global", "diffusion"):
        config = solver.load_config(os.path.join(tree, "presets", f"{name}.cfg"))
        entries.update(_outcome_entries(f"preset/{name}", solver.run(config)))
    return entries


def cli_entries() -> dict:
    from kstensor.cli import main

    entries = {}
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    for argv in CLI_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            main(argv)
        entries["cli/" + " ".join(argv)] = _sha(out.getvalue().encode())
    return entries


def collapse64_entries(workloads, seeds=range(8)) -> dict:
    from kstensor import solver

    entries = {}
    for seed in seeds:
        outcome = solver.run(workloads.collapse64_config(seed))
        entries.update(_outcome_entries(f"collapse64/{seed}", outcome))
    return entries


def heat64_entries(workloads, seeds=range(2)) -> dict:
    from kstensor import solver

    entries = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as out:
            solver.run(workloads.heat64_config(seed, out))
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    data = fh.read()
                if name == "outcome.txt":
                    lines = data.splitlines(keepends=True)
                    data = b"".join(line for line in lines if not line.startswith(b"phase_"))
                entries[f"heat64/{seed}/{name}"] = _sha(data)
    return entries


def kernel_entries(n: int, blocks: int) -> dict:
    """Hashes of one potential-only solve, one full solve and one step's kernels on a fixed n^3
    state, with the grid cut into `blocks` row blocks (block floor one cell); keys name the
    kernel."""
    from kstensor import potential, solver
    from kstensor.matrixflux import FluxTensor

    saved = potential._BLOCKS, potential._MIN_BLOCK_CELLS
    potential._BLOCKS, potential._MIN_BLOCK_CELLS = blocks, 1
    potential._pool.cache_clear()
    try:
        grid = potential.Grid3(n, 2.0)
        noise = 1.0 + 0.1 * np.random.default_rng(n).random((n, n, n))
        vals = potential.gaussian_values(grid, 1.0, (0.3, 0.25, 0.35), (0.1, -0.05, 0.07)) * noise
        u = potential.DensityField(grid, vals)
        h = grid.h
        v = potential.solve_potential_v(u)
        pot = potential.solve_potential_fast(u)
        bfaces, rate = solver._drift(v, FluxTensor.from_matrix(np.array(KERNEL_MATRIX)), KERNEL_CHI, h)
        advected = solver._advect(u.values, bfaces, 0.4 * h / rate, h)
        diffused = solver._diffuse(advected, grid, 1.5 * h * h / 6.0)  # two sub-steps
        return {
            "v": _sha(v.tobytes()),
            "solve_potential_fast": _sha(b"".join(a.tobytes() for a in (pot.v, pot.gx, pot.gy, pot.gz))),
            "_drift/faces": _sha(b"".join(b.tobytes() for b in bfaces)),
            "_drift/rate": rate.hex(),
            "_advect": _sha(advected.tobytes()),
            "_diffuse": _sha(diffused.tobytes()),
        }
    finally:
        potential._BLOCKS, potential._MIN_BLOCK_CELLS = saved
        potential._pool.cache_clear()


def _batch(values: list):
    """A field over a batch: hex strings if every value is a float, else one SHA-256."""
    if all(isinstance(val, float) for val in values):
        return _encode(values)
    return _sha(json.dumps(_encode(values)).encode())


def edge_matrices() -> dict:
    """The `analysis/edge` cases: matrices whose paths through matrixflux the batch never takes."""
    from kstensor.matrixflux import SNAP_TOL, rotation_z

    rng = np.random.default_rng(8)
    cases = {}
    for n in (1, 2, 7, 8):  # each size failing and, shifted towards the identity, passing
        cases[f"{n}x{n}"] = rng.standard_normal((n, n))
        cases[f"{n}x{n}/shifted"] = cases[f"{n}x{n}"] + 2.0 * math.sqrt(n) * np.eye(n)
    cases["reflection/3"] = np.diag([1.0, 1.0, -1.0])
    cases["reflection/4"] = np.diag([1.0, -1.0, 1.0, -1.0])
    for label, angle in (("0", 0.0), ("pi/2", math.pi / 2), ("pi-snap", math.pi - SNAP_TOL),
                         ("pi+snap", math.pi + SNAP_TOL)):
        cases[f"rotation/{label}"] = rotation_z(angle)
    for scale in (1e200, 1e-200):
        cases[f"identity*{scale:.0e}"] = scale * np.eye(3)
    return cases


def edge_entries() -> dict:
    from kstensor.matrixflux import FluxTensor, check_hypothesis

    entries = {}
    for case, matrix in edge_matrices().items():
        flux = FluxTensor.from_matrix(matrix)
        for f in dataclasses.fields(FluxTensor):
            entries[f"analysis/edge/{case}/{f.name}"] = _encode(getattr(flux, f.name))
        ok, kappa = check_hypothesis(matrix)
        entries[f"analysis/edge/{case}/check_hypothesis"] = [ok, _encode(kappa)]
    return entries


def analysis_entries(workloads) -> dict:
    from kstensor import thresholds
    from kstensor.matrixflux import FluxTensor, check_hypothesis

    cases = workloads.flux_batch(0)
    fluxes = [FluxTensor.from_matrix(case.matrix) for case in cases]
    entries = {
        f"analysis/flux/{f.name}": _batch([getattr(flux, f.name) for flux in fluxes])
        for f in dataclasses.fields(FluxTensor)
    }
    verdicts = [check_hypothesis(case.matrix) for case in cases]
    entries["analysis/check_hypothesis/ok"] = _batch([ok for ok, _ in verdicts])
    entries["analysis/check_hypothesis/kappa"] = _batch([kappa for _, kappa in verdicts])
    passing = [(case, flux) for case, flux in zip(cases, fluxes) if flux.hypothesis_ok]
    for label in ("m0=0", "m0"):
        verdicts = [
            thresholds.admissibility(case.m0 if label == "m0" else 0.0, case.mass, flux, case.chi, flux.n)
            for case, flux in passing
        ]
        for f in dataclasses.fields(thresholds.BlowupVerdict):
            entries[f"analysis/verdict/{label}/{f.name}"] = _batch([getattr(v, f.name) for v in verdicts])
    inf_ratio, samples = thresholds.calibrate_cn()
    entries["analysis/calibrate_cn/infimum"] = _encode(inf_ratio)
    entries["analysis/calibrate_cn/aspect"] = _encode([rho for rho, _ in samples])
    entries["analysis/calibrate_cn/ratio"] = _encode([ratio for _, ratio in samples])
    return entries


def config_entries() -> dict:
    """Per case, `ok` or `<stage>: ExceptionName: message`, the stage that raised named."""
    from kstensor import solver

    entries = {}
    for case, lines in CONFIG_CASES.items():
        stage = "parse_config"
        try:
            config = solver.parse_config(CONFIG_BASE + lines)
            stage = "make_initial_data"
            solver.make_initial_data(config.initial, config.grid, config.epsilon)
            entries[f"config/{case}"] = "ok"
        except Exception as exc:  # the outcome recorded is the exception, whatever it is
            entries[f"config/{case}"] = f"{stage}: {type(exc).__name__}: {exc}"
    return entries


def fingerprint(tree: str) -> dict:
    workloads = _load_workloads(tree)
    entries = {}
    entries.update(preset_entries(tree))
    entries.update(cli_entries())
    entries.update(collapse64_entries(workloads))
    entries.update(heat64_entries(workloads))
    entries.update(analysis_entries(workloads))
    entries.update(edge_entries())
    entries.update(config_entries())
    for n, blocks in KERNEL_CUTS:
        kernels = kernel_entries(n, blocks)
        entries.update({f"kernels/{n}/{blocks}/{k}": e for k, e in kernels.items()})
    return entries


def _as_float(value):
    """The float of a hex-encoded entry, or None for any other entry."""
    if isinstance(value, str) and (value.lstrip("-").startswith("0x") or value in ("nan", "inf", "-inf")):
        return float.fromhex(value)
    return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    rel = abs(a - b) / max(abs(a), abs(b))  # NaN against a number reads inf
    return rel if math.isfinite(rel) else math.inf


def diff(a: dict, b: dict) -> list[str]:
    """One line per entry whose values differ or that only one side has."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'B' if key not in a else 'A'}")
            continue
        va, vb = a[key], b[key]
        if va == vb:
            continue
        columns = isinstance(va, list) and isinstance(vb, list) and len(va) == len(vb)
        pairs = list(zip(va, vb)) if columns else [(va, vb)]
        floats = [(_as_float(x), _as_float(y)) for x, y in pairs]
        if all(x is not None and y is not None for x, y in floats):
            count = sum(x != y for x, y in pairs)
            worst = max(_relative(x, y) for x, y in floats)
            lines.append(
                f"{key}: {count} of {len(pairs)} values differ, largest relative difference {worst:.3e}"
            )
        else:
            lines.append(f"{key}: {json.dumps(va)} != {json.dumps(vb)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs=2, metavar=("TREE|A", "OUT|B"))
    ap.add_argument("--diff", action="store_true", help="compare two fingerprint files A and B")
    args = ap.parse_args(argv)
    if args.diff:
        with open(args.paths[0], encoding="utf-8") as fa, open(args.paths[1], encoding="utf-8") as fb:
            lines = diff(json.load(fa), json.load(fb))
        print("\n".join(lines) if lines else "no entry differs")
        return 1 if lines else 0
    tree = os.path.abspath(args.paths[0])
    sys.path.insert(0, os.path.join(tree, "src"))
    import kstensor

    if os.path.commonpath([kstensor.__file__, tree]) != tree:
        print(f"kstensor is imported from {kstensor.__file__}, not from {tree}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    entries = fingerprint(tree)
    with open(args.paths[1], "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} entries in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
