import logging
import math
import multiprocessing
import os
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from grid_meshes import meshes
from kstensor import potential
from kstensor import solver as sv
from kstensor.errors import BadParameter, CflViolation, ConfigInvalid, SupportTooLarge
from kstensor.functionals import second_moment
from kstensor.matrixflux import FluxTensor, rotation_z
from kstensor.potential import DensityField, Grid3, gaussian_values, load_field, save_field
from kstensor.solver import (
    InitialData,
    SimConfig,
    load_config,
    make_initial_data,
    parse_config,
    run,
    step,
)
from traced_peak import traced_peak

IDENTITY = FluxTensor.from_matrix(np.eye(3))
PRESETS = Path(__file__).resolve().parent.parent / "presets"


def unit_gaussian(grid):
    return DensityField(grid, gaussian_values(grid, 1.0, 1.0))


def seven_point(values, nu):
    """One explicit heat sub-step with reflecting walls: per axis, the left then right neighbour."""
    n = values.shape[0]
    padded = np.pad(values, 1, mode="edge")
    lap = -6.0 * values
    for ax in range(3):
        for lo in (0, 2):
            window = [slice(1, n + 1)] * 3
            window[ax] = slice(lo, lo + n)
            lap += padded[tuple(window)]
    return values + nu * lap


def small_config(**overrides):
    base = dict(
        matrix=np.eye(3),
        chi=0.0,
        n_cells=32,
        half_width=10.0,
        initial=InitialData(kind="gaussian", mass=1.0, sigma=(1.0, 1.0, 1.0)),
        t_end=1.0,
        dt_max=0.02,
        diagnostics_every=10,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestMakeInitialData:
    def test_gaussian_mass_and_moment(self):
        grid = Grid3(64, 8.0)
        u = make_initial_data(InitialData(kind="gaussian", mass=1.0, sigma=(0.5,) * 3), grid)
        assert abs(u.mass - 1.0) < 1e-6
        assert second_moment(u) == pytest.approx(3 * 0.5**2, rel=1e-2)

    def test_ball_moment(self):
        grid = Grid3(64, 2.0)
        u = make_initial_data(InitialData(kind="ball", mass=1.0, radius=1.0), grid)
        assert second_moment(u) == pytest.approx(0.6, rel=2e-2)

    def test_epsilon_rescaling(self):
        grid = Grid3(64, 8.0)
        desc = InitialData(kind="gaussian", mass=1.0, sigma=(0.5,) * 3)
        u = make_initial_data(desc, grid)
        u_eps = make_initial_data(desc, grid, epsilon=0.5)
        assert abs(u_eps.mass - u.mass) < 1e-6
        assert second_moment(u_eps) == pytest.approx(0.25 * second_moment(u), rel=1e-5)

    def test_offcenter_ball_scales_center(self):
        grid = Grid3(64, 4.0)
        desc = InitialData(kind="ball", mass=1.0, radius=0.5, center=(1.0, 0.0, 0.0))
        u_full = make_initial_data(desc, grid)
        u_eps = make_initial_data(desc, grid, epsilon=0.5)
        x, _, _ = meshes(grid)
        com_full = grid.cell_volume * np.sum(u_full.values * x) / u_full.mass
        com_eps = grid.cell_volume * np.sum(u_eps.values * x) / u_eps.mass
        assert com_full == pytest.approx(1.0, abs=2e-3)
        assert com_eps == pytest.approx(0.5, abs=2e-3)

    def test_rejects_leaky_support(self):
        grid = Grid3(32, 4.0)
        with pytest.raises(SupportTooLarge):
            make_initial_data(InitialData(kind="gaussian", mass=1.0, sigma=(2.0,) * 3), grid)

    def test_file_roundtrip(self, tmp_path):
        grid = Grid3(32, 8.0)
        src = make_initial_data(InitialData(kind="gaussian", mass=1.0, sigma=(1.0,) * 3), grid)
        path = str(tmp_path / "init.bin")
        save_field(src.values, grid, path, 0.0)
        u = make_initial_data(InitialData(kind="file", path=path), grid)
        np.testing.assert_array_equal(u.values, src.values)

    def test_file_rejects_grid_mismatch(self, tmp_path):
        grid = Grid3(32, 8.0)
        src = make_initial_data(InitialData(kind="gaussian", mass=1.0, sigma=(1.0,) * 3), grid)
        path = str(tmp_path / "init.bin")
        save_field(src.values, grid, path, 0.0)
        with pytest.raises(ConfigInvalid):
            make_initial_data(InitialData(kind="file", path=path), Grid3(32, 4.0))

    def test_unknown_kind_rejected_when_built(self):
        # it used to pass as a ball until a SimConfig was validated
        with pytest.raises(ConfigInvalid, match=r"^unknown initial data kind 'bogus'$"):
            InitialData("bogus", radius=1.0)

    @pytest.mark.parametrize(
        "kind, values, message",
        [("file", {}, "init = file needs an init_file"),
         ("gaussian", {"mass": 0.0}, "mass must be positive, got 0.0"),
         ("ball", {"mass": -1.0}, "mass must be positive, got -1.0"),
         ("gaussian", {"sigma": (1.0, 0.0, 1.0)}, "sigma must be positive, got (1.0, 0.0, 1.0)"),
         ("gaussian", {"sigma": (1.0, 1.0, -2.0)}, "sigma must be positive, got (1.0, 1.0, -2.0)"),
         ("ball", {"radius": 0.0}, "radius must be positive, got 0.0"),
         ("ball", {"radius": -1.0}, "radius must be positive, got -1.0")],
        ids=["file-no-path", "mass-0", "mass-neg", "sigma-0", "sigma-neg", "radius-0", "radius-neg"],
    )
    def test_invalid_descriptor_rejected_when_built(self, kind, values, message):
        # make_initial_data used to fail on a file with no path with a TypeError, and on the
        # others only when it sampled them (test_rejects_nonfinite_entries and
        # test_rejects_vector_not_of_three cover a NaN or inf value and a short sigma)
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
            InitialData(kind, **values)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf])
    def test_rejects_epsilon_not_positive_and_finite(self, epsilon):
        desc = InitialData(kind="gaussian", sigma=(0.5,) * 3)
        with pytest.raises(ConfigInvalid, match=f"^epsilon must be positive and finite, got {epsilon}$"):
            make_initial_data(desc, Grid3(32, 8.0), epsilon=epsilon)

    def test_file_rejects_epsilon(self, tmp_path):
        grid = Grid3(32, 8.0)
        src = make_initial_data(InitialData(kind="gaussian", mass=1.0, sigma=(1.0,) * 3), grid)
        path = str(tmp_path / "init.bin")
        save_field(src.values, grid, path, 0.0)
        with pytest.raises(ConfigInvalid):
            make_initial_data(InitialData(kind="file", path=path), grid, epsilon=0.5)

    def test_rejects_ball_covering_no_cell_centre(self):
        # a valid descriptor can sample to all zeros: a ball between cell centres
        desc = InitialData("ball", radius=0.01, center=(0.1, 0.1, 0.1))
        with pytest.raises(ConfigInvalid, match=r"positive finite mass on the grid, got 0\.0$"):
            make_initial_data(desc, Grid3(16, 4.0))

    def test_rejects_mass_past_the_float_range(self):
        # finite values whose sum overflows: the leak fraction would be inf/inf = NaN, which
        # passes the leak check, and the sum must not raise numpy's overflow warning
        desc = InitialData("gaussian", mass=1e308, sigma=(0.5,) * 3)
        with pytest.raises(ConfigInvalid, match=r"positive finite mass on the grid, got inf$"):
            make_initial_data(desc, Grid3(16, 4.0))


class TestStep:
    def test_pure_diffusion_matches_heat_kernel(self):
        grid = Grid3(64, 10.0)
        r2 = grid.radius_squared()
        sig = 1.0
        u = unit_gaussian(grid)
        dt = 0.05  # above h^2/6: exercises the sub-cycled stencil
        for _ in range(4):
            u = step(u, IDENTITY, chi=0.0, dt=dt)
        s2 = sig**2 + 2 * 4 * dt
        exact = (2 * math.pi * s2) ** -1.5 * np.exp(-r2 / (2 * s2))
        assert np.max(np.abs(u.values - exact)) / exact.max() <= 5e-3

    def test_explicit_branch_moment_growth(self):
        grid = Grid3(32, 10.0)
        u = unit_gaussian(grid)
        dt = 0.01  # below h^2/6: explicit stencil
        m0 = second_moment(u)
        u = step(u, IDENTITY, chi=0.0, dt=dt)
        assert second_moment(u) - m0 == pytest.approx(6 * u.mass * dt, rel=1e-6)

    def test_subcycled_step_equals_two_small_steps(self):
        grid = Grid3(32, 10.0)
        u = unit_gaussian(grid).values
        dt0 = 0.9 * grid.h**2 / 6
        twice = sv._diffuse(sv._diffuse(u, grid, dt0), grid, dt0)
        np.testing.assert_array_equal(sv._diffuse(u, grid, 2 * dt0), twice)

    def test_subcycled_spike_conserves_mass_and_positivity(self):
        grid = Grid3(16, 2.0)
        u = np.zeros((16, 16, 16))
        u[5, 8, 11] = 1.0 / grid.cell_volume
        # dt/h^2 rounds to just above 10/6, so ten sub-steps would each
        # exceed 1/6 by an ulp and drive the emptied spike cell negative
        out = sv._diffuse(u, grid, 10 * grid.h**2 / 6)
        assert out.min() >= 0.0
        assert np.count_nonzero(out) > 1
        assert abs(out.sum() - u.sum()) / u.sum() <= 1e-14

    def test_subcycled_moment_growth(self):
        grid = Grid3(32, 10.0)
        u = unit_gaussian(grid)
        dt = 0.2  # about 3 h^2/6: four sub-steps
        m0 = second_moment(u)
        u = step(u, IDENTITY, chi=0.0, dt=dt)
        assert second_moment(u) - m0 == pytest.approx(6 * u.mass * dt, rel=1e-6)

    def test_zero_field_unchanged(self):
        grid = Grid3(16, 2.0)
        u = DensityField(grid, np.zeros((16, 16, 16)))
        out = step(u, IDENTITY, chi=1.0, dt=0.001)
        assert np.all(out.values == 0.0)

    def test_single_step_mass_drift(self):
        grid = Grid3(32, 6.0)
        u = unit_gaussian(grid)
        out = step(u, IDENTITY, chi=5.0, dt=0.001)
        assert abs(out.mass - u.mass) / u.mass <= 1e-13

    def test_positivity_with_strong_drift(self):
        grid = Grid3(32, 6.0)
        u = unit_gaussian(grid)
        out = step(u, IDENTITY, chi=100.0, dt=0.002)
        assert out.values.min() >= 0.0

    def test_cfl_violation(self):
        grid = Grid3(32, 6.0)
        u = unit_gaussian(grid)
        with pytest.raises(CflViolation):
            step(u, IDENTITY, chi=100.0, dt=10.0)
        with pytest.raises(CflViolation):
            step(u, IDENTITY, chi=1.0, dt=0.0)

    @pytest.mark.parametrize(
        "chi, dt, error",
        [
            (0.0, math.inf, CflViolation),
            (1.0, math.nan, CflViolation),
            (0.0, math.nan, CflViolation),
            (math.nan, 0.001, BadParameter),
            (math.inf, 0.001, BadParameter),
            (-math.inf, 0.001, BadParameter),
        ],
    )
    def test_rejects_non_finite(self, chi, dt, error):
        u = unit_gaussian(Grid3(16, 6.0))
        with pytest.raises(error, match=r"\bfinite"):
            step(u, IDENTITY, chi=chi, dt=dt)

    @pytest.mark.parametrize(
        "nu, substeps", [(1.0 / 6.0, 1), (np.nextafter(1.0 / 6.0, 1.0), 2)], ids=["one", "two"]
    )
    def test_diffuse_substeps_at_one_sixth(self, nu, substeps):
        grid = Grid3(16, 8.0)  # h = 1, so nu = dt
        u = np.random.default_rng(5).random((16, 16, 16))
        want = u
        for _ in range(substeps):
            want = seven_point(want, nu / substeps)
        np.testing.assert_array_equal(sv._diffuse(u, grid, nu), want)

    @pytest.mark.parametrize("n", [2, 4])
    def test_rejects_flux_not_3x3(self, n):
        u = unit_gaussian(Grid3(32, 6.0))
        with pytest.raises(BadParameter, match="3x3"):
            step(u, FluxTensor.from_matrix(np.eye(n)), chi=1.0, dt=0.001)

    @pytest.mark.parametrize("chi", [0.0, 5.0])
    def test_step_is_one_step_of_run(self, tmp_path, chi):
        # dt_max exceeds t_end and the CFL limit is far above it, so the run
        # takes a single step that lands on t_end and snapshots it there
        cfg = small_config(
            chi=chi, half_width=6.0, t_end=0.01, snapshot_times=(0.01,), output_dir=str(tmp_path)
        )
        out = run(cfg)
        assert out.steps == 1
        snap, _, _ = load_field(str(tmp_path / "u_t0.010000.bin"))
        u0 = make_initial_data(cfg.initial, cfg.grid)
        flux = FluxTensor.from_matrix(cfg.matrix)
        np.testing.assert_array_equal(step(u0, flux, chi, cfg.t_end).values, snap)

    def test_no_drift_solve_without_chemotaxis(self, monkeypatch):
        def no_solve(u):
            raise AssertionError("drift solved with chi = 0")

        monkeypatch.setattr(sv, "solve_potential_v", no_solve)
        u = unit_gaussian(Grid3(32, 10.0))
        assert step(u, IDENTITY, chi=0.0, dt=0.01).mass == pytest.approx(u.mass, rel=1e-14)


def gaussian_grad_exact(x, y, z, mass=1.0, sigma=1.0):
    """grad of the closed-form potential M erf(r/(sqrt(2) sigma)) / (4 pi r)."""
    r = np.sqrt(x * x + y * y + z * z)
    menc = mass * (
        erf(r / (math.sqrt(2) * sigma))
        - math.sqrt(2 / math.pi) * (r / sigma) * np.exp(-(r**2) / (2 * sigma**2))
    )
    g = -menc / (4 * math.pi * r**3)
    return g * x, g * y, g * z


FACE_MATRICES = pytest.mark.parametrize(
    "matrix",
    [rotation_z(math.pi / 4), [[1.0, 0.3, -0.2], [0.1, 0.8, 0.25], [-0.15, 0.2, 1.2]]],
    ids=["rotation", "full"],
)


class TestFaceDrift:
    @FACE_MATRICES
    def test_face_speeds_converge_to_closed_form(self, matrix):
        # chi A grad(v) at the face centres; the error falls at second order
        flux = FluxTensor.from_matrix(np.array(matrix))
        chi = 2.0
        errs = {}
        for n in (32, 64):
            grid = Grid3(n, 8.0)
            v = sv.solve_potential_v(unit_gaussian(grid))
            bfaces, _ = sv._drift(v, flux, chi, grid.h)
            c = grid.axis_centers()
            err = top = 0.0
            for ax in range(3):
                axes = [c, c, c]
                axes[ax] = c[:-1] + 0.5 * grid.h
                g = gaussian_grad_exact(*np.meshgrid(*axes, indexing="ij"))
                exact = np.moveaxis(chi * sum(flux.a[ax, o] * g[o] for o in range(3)), ax, 0)
                err = max(err, float(np.abs(bfaces[ax] - exact).max()))
                top = max(top, float(np.abs(exact).max()))
            errs[n] = err / top
        assert errs[64] <= 2e-2
        assert errs[32] / errs[64] >= 3.0

    @FACE_MATRICES
    @pytest.mark.parametrize("chi", [20.0, 200.0])
    def test_positive_at_exact_rate_limit(self, matrix, chi):
        # dt = h / rate (cfl 1) is the largest step the upwind update keeps positive
        flux = FluxTensor.from_matrix(np.array(matrix))
        u = unit_gaussian(Grid3(32, 6.0))
        h = u.grid.h
        _, rate = sv._drift(sv.solve_potential_v(u), flux, chi, h)
        out = step(u, flux, chi, h / rate)
        assert out.values.min() >= 0.0
        assert abs(out.mass - u.mass) / u.mass <= 1e-13
        with pytest.raises(CflViolation):
            step(u, flux, chi, 1.001 * h / rate)


class TestRun:
    def test_diffusion_moment_law(self):
        out = run(small_config())
        assert out.status == "CompletedToTEnd"
        assert out.t_final == pytest.approx(1.0, abs=1e-12)
        first, last = out.records[0], out.records[-1]
        slope = (last.m2 - first.m2) / (last.t - first.t)
        assert slope == pytest.approx(6.0 * first.mass, rel=1e-2)

    def test_records_strictly_increasing_and_conservative(self):
        out = run(small_config())
        times = [r.t for r in out.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        masses = np.array([r.mass for r in out.records])
        assert np.max(np.abs(masses - masses[0])) / masses[0] <= 1e-8

    def test_sup_trigger_reports_blowup_with_evidence(self):
        cfg = small_config(
            chi=300.0,
            half_width=6.0,
            t_end=2.0,
            blowup_factor=1.5,
            diagnostics_every=5,
        )
        out = run(cfg)
        assert out.status == "NumericalBlowup"
        assert out.sup_growth_factor >= 1.5
        assert "sup norm" in out.message
        assert out.t_final < 2.0

    def test_dt_floor_reports_blowup(self):
        cfg = small_config(chi=1e4, half_width=6.0, dt_min=1e-3, t_end=2.0)
        out = run(cfg)
        assert out.status == "NumericalBlowup"
        assert out.dt_at_stop < 1e-3
        assert "dt_min" in out.message

    def test_nonfinite_abort(self, monkeypatch):
        for bad in (np.nan, np.inf, -np.inf):
            def bad_diffuse(values, grid, dt):
                out = values.copy()
                out[0, 0, 0] = bad
                return out

            monkeypatch.setattr(sv, "_diffuse", bad_diffuse)
            out = run(small_config())
            assert out.status == "Aborted", bad
            assert "non-finite" in out.message
            # the run stops before the step: its last record is the state it started from
            assert out.steps == 0 and out.t_final == 0.0
            assert out.min_density >= 0.0 and all(math.isfinite(r.linf) for r in out.records)

    def test_stops_exactly_at_t_end(self):
        # t_end = 10 dt_max: accumulated round-off must not cost an extra,
        # vanishing step and a duplicate record
        out = run(small_config(t_end=0.05, dt_max=0.005))
        assert out.status == "CompletedToTEnd"
        assert out.steps == 10
        assert out.t_final == 0.05
        times = [r.t for r in out.records]
        assert times[-1] == 0.05
        assert min(b - a for a, b in zip(times, times[1:])) > 1e-12

    def test_snapshot_lands_on_multiple_of_dt(self, tmp_path):
        # 0.5 = 10 dt_max: the snapshot is written at 0.5, not one step late,
        # and landing on it costs no extra step
        cfg = small_config(dt_max=0.05, snapshot_times=(0.5, 1.0), output_dir=str(tmp_path))
        out = run(cfg)
        assert out.status == "CompletedToTEnd"
        assert out.steps == run(small_config(dt_max=0.05)).steps == 20
        names = sorted(p.name for p in tmp_path.glob("u_t*.bin"))
        assert names == ["u_t0.500000.bin", "u_t1.000000.bin"]
        assert "time=0.5\n" in (tmp_path / "u_t0.500000.bin.meta").read_text()

    def test_snapshot_off_the_step_grid_lands_exactly(self, tmp_path):
        cfg = small_config(
            t_end=0.2, dt_max=0.05, snapshot_times=(0.125,), output_dir=str(tmp_path)
        )
        out = run(cfg)
        assert out.t_final == 0.2
        # one short step to reach 0.125, then the usual steps to t_end
        assert out.steps == run(small_config(t_end=0.2, dt_max=0.05)).steps + 1 == 5
        meta = (tmp_path / "u_t0.125000.bin.meta").read_text()
        assert "time=0.125\n" in meta

    def test_artifacts_written(self, tmp_path):
        outdir = tmp_path / "artifacts"
        cfg = small_config(
            t_end=0.2,
            output_dir=str(outdir),
            snapshot_times=(0.1,),
        )
        out = run(cfg)
        assert (outdir / "diagnostics.csv").exists()
        assert (outdir / "outcome.txt").exists()
        snaps = list(outdir.glob("u_t*.bin"))
        assert len(snaps) == 1
        text = (outdir / "outcome.txt").read_text()
        assert "status=CompletedToTEnd" in text
        data = np.genfromtxt(str(outdir / "diagnostics.csv"), delimiter=",", names=True)
        assert data["t"].shape[0] == len(out.records)

    def test_dt_limits_when_dt_max_binds(self, tmp_path):
        # chi = 0: every step is dt_max, but for the two that land on the
        # snapshot time and on t_end
        out = run(small_config(t_end=0.2, snapshot_times=(0.1,), output_dir=str(tmp_path)))
        assert sum(out.dt_limits.values()) == out.steps
        assert out.dt_limits == {"dt_max": out.steps - 2, "rate": 0, "land": 2}
        text = (tmp_path / "outcome.txt").read_text()
        assert f"dt_limit_dt_max={out.steps - 2}\n" in text
        assert "dt_limit_land=2\n" in text

    def test_dt_stats_and_block_count_reported(self, tmp_path, caplog):
        cfg = small_config(
            chi=200.0,
            half_width=6.0,
            t_end=0.05,
            dt_max=1.0,
            initial=InitialData(kind="gaussian", mass=1.0, sigma=(0.5,) * 3),
            output_dir=str(tmp_path),
        )
        with caplog.at_level(logging.INFO, logger="kstensor.solver"):
            out = run(cfg)
        stats = out.dt_stats
        assert tuple(stats) == ("dt_min", "dt_median", "dt_max")
        assert 0.0 < stats["dt_min"] < stats["dt_median"] < stats["dt_max"] < 0.05
        text = (tmp_path / "outcome.txt").read_text()
        for key, dt in stats.items():
            assert f"{key}={dt:.12e}\n" in text
        messages = [r.getMessage() for r in caplog.records if r.name == "kstensor.solver"]
        assert f"{potential._step_blocks(cfg.n_cells ** 3)} row blocks" in messages[0]
        assert f"dt_median={stats['dt_median']:.3e}" in messages[-1]

    def test_verbose_logs_one_line_per_record(self, caplog):
        cfg = small_config(
            chi=200.0, n_cells=16, half_width=6.0, t_end=0.05, dt_max=1.0, diagnostics_every=1,
            initial=InitialData(kind="gaussian", mass=1.0, sigma=(0.5,) * 3),
        )
        with caplog.at_level(logging.INFO, logger="kstensor.solver"):
            out = run(cfg)
        pattern = re.compile(
            r"record (\d+): step (\d+), t=(\S+), dt=(\S+) \((dt_max|rate|land)\), growth (\S+)x, (\S+) s")
        lines = [pattern.fullmatch(r.getMessage()) for r in caplog.records
                 if r.name == "kstensor.solver" and r.getMessage().startswith("record ")]
        assert len(lines) == len(out.records) == 3 and all(lines)  # dt set by dt_max, rate, land
        for i, (line, rec) in enumerate(zip(lines, out.records)):
            assert int(line[1]) == i and line[3] == f"{rec.t:.6g}"
        # before a step the line shows dt_max, the cap; the last shows the outcome's figures
        assert lines[0].groups()[1:6] == ("0", "0", f"{cfg.dt_max:.3e}", "dt_max", "1.000")
        assert lines[1][2] == "1" and lines[1][5] == "rate"
        last = lines[-1].groups()
        assert last[1:6] == (str(out.steps), f"{out.t_final:.6g}", f"{out.dt_at_stop:.3e}", "land",
                             f"{out.sup_growth_factor:.3f}")
        walls = [float(line[7]) for line in lines]
        assert walls == sorted(walls) and last[6] == f"{sum(out.phase_s.values()):.3f}"

    def test_no_dt_stats_without_a_step(self, tmp_path):
        cfg = small_config(chi=1e4, half_width=6.0, dt_min=1e-3, output_dir=str(tmp_path))
        out = run(cfg)
        assert out.steps == 0 and out.dt_stats == {}
        assert "dt_median" not in (tmp_path / "outcome.txt").read_text()

    def test_run_peak_memory_below_25_grids(self):
        # a record's full solve (22.8 grids at 32^3) runs after the step's
        # face speeds are freed, not beside them
        cfg = small_config(chi=50.0, half_width=6.0, t_end=0.02, dt_max=0.005, diagnostics_every=2)
        run(cfg)  # the kernel tables are cached outside the measurement
        out, peak = traced_peak(lambda: run(cfg))
        assert out.steps == 4 and len(out.records) == 3
        assert peak <= 25 * 8 * 32**3

    @pytest.mark.parametrize("blocks", [4, 8, 16])
    def test_run_peak_memory_below_25_grids_for_any_cpu_count(self, cpus, blocks):
        cpus(blocks)
        self.test_run_peak_memory_below_25_grids()

    def test_dt_limits_when_cfl_binds(self):
        cfg = small_config(
            chi=200.0,
            half_width=6.0,
            t_end=0.05,
            dt_max=1.0,
            initial=InitialData(kind="gaussian", mass=1.0, sigma=(0.5,) * 3),
        )
        out = run(cfg)
        assert out.status == "CompletedToTEnd"
        assert sum(out.dt_limits.values()) == out.steps
        assert out.dt_limits["dt_max"] == 0
        assert out.dt_limits["rate"] >= out.steps - 1 >= 1

    def test_phase_times_reported(self, tmp_path):
        out = run(small_config(chi=5.0, t_end=0.1, snapshot_times=(0.05,), output_dir=str(tmp_path)))
        phases = ("potential", "drift", "advance", "record", "output")
        assert tuple(out.phase_s) == phases
        assert all(out.phase_s[p] > 0.0 for p in phases)
        text = (tmp_path / "outcome.txt").read_text()
        for p in phases:
            assert f"phase_{p}_s=" in text

    def test_first_untrusted_record_time_reported(self, tmp_path):
        # sigma = 0.5 on a 16^3 box of half width 4: diffusion carries mass
        # into the 2-cell shell, past BOUNDARY_VALID_LIMIT after a few records
        cfg = small_config(
            n_cells=16,
            half_width=4.0,
            initial=InitialData(kind="gaussian", mass=1.0, sigma=(0.5, 0.5, 0.5)),
            t_end=0.5,
            dt_max=0.05,
            diagnostics_every=1,
            output_dir=str(tmp_path),
        )
        out = run(cfg)
        invalid = [r.t for r in out.records if not r.moments_valid]
        assert out.records[0].moments_valid and invalid
        assert out.moments_invalid_t == invalid[0]
        assert out.moments_invalid_t < out.t_final
        text = (tmp_path / "outcome.txt").read_text()
        assert f"moments_invalid_t={invalid[0]:.12e}\n" in text

    def test_valid_moments_leave_no_key(self, tmp_path):
        out = run(small_config(t_end=0.2, output_dir=str(tmp_path)))
        assert all(r.moments_valid for r in out.records)
        assert out.moments_invalid_t is None
        assert "moments_invalid_t" not in (tmp_path / "outcome.txt").read_text()

    def test_record_potential_feeds_next_drift(self, monkeypatch):
        # a record's full solve also drives the next step, so every step
        # costs one solve and the trajectory does not depend on the cadence
        calls = {"solve_potential_fast": 0, "solve_potential_v": 0}

        def counted(name):
            fn = getattr(sv, name)

            def wrapper(u):
                calls[name] += 1
                return fn(u)

            return wrapper

        for name in calls:
            monkeypatch.setattr(sv, name, counted(name))
        finals = []
        for every in (1, 7):
            for name in calls:
                calls[name] = 0
            cfg = small_config(
                chi=50.0, half_width=6.0, t_end=0.05, dt_max=0.005, diagnostics_every=every
            )
            out = run(cfg)
            assert out.status == "CompletedToTEnd"
            assert out.steps > every
            assert sum(calls.values()) == out.steps + 1
            finals.append(out.records[-1])
        for attr in ("t", "mass", "m2", "w", "J", "linf", "gradv_sup"):
            assert getattr(finals[0], attr) == getattr(finals[1], attr), attr

    def test_quarter_turn_covariance(self):
        # rotating the initial data by 90 degrees about z commutes with the
        # discrete evolution exactly (stencil and kernel share that symmetry)
        cfg = small_config(
            chi=50.0,
            half_width=6.0,
            t_end=0.05,
            dt_max=0.005,
            initial=InitialData(kind="gaussian", mass=1.0, sigma=(0.8,) * 3, center=(0.6, 0.3, 0.0)),
        )
        out1 = run(cfg)
        cfg_rot = small_config(
            chi=50.0,
            half_width=6.0,
            t_end=0.05,
            dt_max=0.005,
            initial=InitialData(kind="gaussian", mass=1.0, sigma=(0.8,) * 3, center=(-0.3, 0.6, 0.0)),
        )
        out2 = run(cfg_rot)
        r1, r2 = out1.records[-1], out2.records[-1]
        for attr in ("mass", "m2", "J", "linf", "lq", "gradv_sup"):
            assert getattr(r1, attr) == pytest.approx(getattr(r2, attr), rel=1e-11)


class TestConfigParsing:
    GOOD = """
# demo config
matrix = 1,0,0,0,1,0,0,0,1
chi = 0.5
n_cells = 32
half_width = 10.0
init = gaussian
mass = 1.0
sigma = 1.0
t_end = 0.5
dt_max = 0.01
diagnostics_every = 5
"""

    def test_parse_good(self):
        cfg = parse_config(self.GOOD)
        assert cfg.chi == 0.5
        assert cfg.n_cells == 32
        assert cfg.initial.kind == "gaussian"
        assert cfg.initial.sigma == (1.0, 1.0, 1.0)

    def test_omitted_keys_take_dataclass_defaults(self):
        cfg = parse_config(
            "matrix = 1,0,0,0,1,0,0,0,1\ninit = ball\nchi = 2\nn_cells = 32\nhalf_width = 5\nt_end = 1"
        )
        want = SimConfig(
            matrix=np.eye(3), chi=2.0, n_cells=32, half_width=5.0,
            initial=InitialData(kind="ball"), t_end=1.0,
        )
        for name in (f.name for f in fields(SimConfig)):
            got, expected = getattr(cfg, name), getattr(want, name)
            if name == "matrix":
                np.testing.assert_array_equal(got, expected)
            else:
                assert got == expected and type(got) is type(expected), name
        for name in (f.name for f in fields(InitialData)):
            got, expected = getattr(cfg.initial, name), getattr(want.initial, name)
            assert got == expected and type(got) is type(expected), name

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigInvalid, match="unknown key"):
            parse_config(self.GOOD + "\nbogus = 1\n")

    def test_rejects_missing_required(self, no_matrix_message):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(no_matrix_message)}$"):
            parse_config("chi = 1\nn_cells = 32\nhalf_width = 1\ninit = gaussian\nt_end = 1")

    def test_empty_matrix_keys_give_no_matrix(self, no_matrix_message):
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(no_matrix_message)}$"):
            parse_config(self.GOOD.replace("1,0,0,0,1,0,0,0,1", "") + "matrix_file =\n")

    def test_rejects_bad_cfl(self):
        with pytest.raises(ConfigInvalid, match="cfl"):
            parse_config(self.GOOD + "\ncfl = 2.0\n")

    def test_rejects_bad_dt_ordering(self):
        with pytest.raises(ConfigInvalid, match="dt_min"):
            parse_config(self.GOOD + "\ndt_min = 1.0\n")

    @pytest.mark.parametrize(
        "dt_min, dt_max", [(-1.0, 0.0), (0.0, 0.01), (-1e-8, 0.01), (-2.0, -1.0)]
    )
    def test_rejects_nonpositive_dt(self, dt_min, dt_max):
        # dt_max = 0 used to run forever (t += 0 never reaches t_end), and a
        # negative dt_max ran time backwards into a false NumericalBlowup
        with pytest.raises(ConfigInvalid, match="0 < dt_min < dt_max"):
            parse_config(self.GOOD.replace("dt_max = 0.01", f"dt_max = {dt_max}\ndt_min = {dt_min}"))
        with pytest.raises(ConfigInvalid, match="0 < dt_min < dt_max"):
            small_config(dt_min=dt_min, dt_max=dt_max)

    def test_rejects_bad_blowup_factor(self):
        with pytest.raises(ConfigInvalid, match="blowup_factor"):
            parse_config(self.GOOD + "\nblowup_factor = 0.5\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["chi", "half_width", "t_end", "cfl", "dt_max", "dt_min", "blowup_factor", "epsilon"],
    )
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(ConfigInvalid, match=name):
            small_config(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("mass", math.nan), ("radius", math.inf), ("sigma", (1.0, math.nan, 1.0)),
         ("center", (0.0, 0.0, -math.inf)), ("snapshot_times", (0.5, math.nan)),
         ("matrix", np.diag([1.0, math.nan, 1.0]))],
    )
    def test_rejects_nonfinite_entries(self, name, value):
        with pytest.raises(ConfigInvalid, match=name):
            if name in ("mass", "radius", "sigma", "center"):
                InitialData(kind="gaussian", **{name: value})
            else:
                small_config(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("sigma", (1.0, 1.0)), ("sigma", (1.0,) * 4), ("sigma", 1.0),
         ("center", (0.0, 0.0)), ("center", (0.0, 0.0, 0.0, 0.5)), ("center", ())],
        ids=["sigma-2", "sigma-4", "sigma-scalar", "center-2", "center-4", "center-0"],
    )
    def test_rejects_vector_not_of_three(self, name, value):
        # when built: a short center used to fail mid-run with IndexError, a short
        # sigma with numpy's broadcast error, and a long center lost its last entry
        with pytest.raises(ConfigInvalid, match=f"{name} must have 3 components"):
            InitialData(kind="gaussian", **{name: value})

    @pytest.mark.parametrize(
        "text", ["sigma = 1,1", "sigma = 1,1,1,1", "center = 0,0", "center = 0,0,0,1"]
    )
    def test_parse_rejects_vector_not_of_three(self, text):
        name = text.split()[0]
        with pytest.raises(ConfigInvalid, match=f"{name} must have 3 components"):
            parse_config(self.GOOD.replace("sigma = 1.0", text))

    @pytest.mark.parametrize("times", ["-1", "0", "0.5,0.6"])
    def test_rejects_snapshot_outside_run(self, times):
        # GOOD runs to t_end = 0.5
        with pytest.raises(ConfigInvalid, match="snapshot"):
            parse_config(self.GOOD + f"\nsnapshot_times = {times}\n")

    @pytest.mark.parametrize("matrix", [np.eye(2), np.eye(4)])
    def test_rejects_matrix_not_3x3(self, matrix):
        with pytest.raises(ConfigInvalid, match="3x3"):
            small_config(matrix=matrix)

    def test_rejects_file_init_without_path(self):
        with pytest.raises(ConfigInvalid, match="init_file"):
            parse_config(self.GOOD.replace("init = gaussian", "init = file"))

    def test_rejects_nonpositive_mass_when_parsed(self):
        # it used to parse, and failed only when run sampled the initial data
        with pytest.raises(ConfigInvalid, match=r"^mass must be positive, got -1.0$"):
            parse_config(self.GOOD.replace("mass = 1.0", "mass = -1"))

    def test_replace_checks_the_new_value(self):
        cfg = parse_config(self.GOOD)
        with pytest.raises(ConfigInvalid, match="cfl"):
            replace(cfg, cfl=2.0)
        with pytest.raises(ConfigInvalid, match="radius"):
            replace(cfg.initial, radius=-1.0)

    @pytest.mark.parametrize(
        "n_cells, half_width, name",
        [(8, 10.0, "n_cells"), (24, 10.0, "n_cells"), (32, 0.0, "half_width"),
         (32, -1.0, "half_width"), (32, 1e200, "half_width")],
    )
    def test_rejects_grid_below_solver_minimum(self, n_cells, half_width, name):
        with pytest.raises(ConfigInvalid, match=name):
            small_config(n_cells=n_cells, half_width=half_width)

    def test_matrix_file_reference(self, tmp_path):
        mfile = tmp_path / "mat.txt"
        mfile.write_text("0 -1 0\n1 0 0\n0 0 1\n")
        cfile = tmp_path / "run.cfg"
        cfile.write_text(self.GOOD.replace("matrix = 1,0,0,0,1,0,0,0,1", "matrix_file = mat.txt"))
        cfg = load_config(str(cfile))
        np.testing.assert_array_equal(cfg.matrix, [[0, -1, 0], [1, 0, 0], [0, 0, 1]])

    def test_presets_parse(self):
        for name in ("blowup", "global", "diffusion"):
            cfg = load_config(str(PRESETS / f"{name}.cfg"))
            replace(cfg)  # built again, the value checks itself again


def perturbed_field(n):
    grid = Grid3(n, 6.0)
    noise = 1.0 + 0.1 * np.random.default_rng(n).random((n, n, n))
    return DensityField(grid, gaussian_values(grid, 1.0, 0.8, (0.3, -0.2, 0.1)) * noise)


def record_rows(out):
    return repr([astuple(r) for r in out.records])  # repr: NaN entries compare equal


def short_run(chi=30.0, matrix=np.eye(3)):
    return run(
        small_config(
            matrix=np.array(matrix), chi=chi, n_cells=16, half_width=6.0,
            initial=InitialData(kind="gaussian", mass=1.0, sigma=(0.8,) * 3),
            t_end=0.02, dt_max=0.005, diagnostics_every=2,
        )
    )


class TestRowBlocks:
    """The passes between the FFTs give the same bits for any block count.

    A solve's x pass takes as many lanes as the step kernels take blocks, at most 8. The size
    floor is one cell here, so 3 blocks cut a 16^3 grid's cells 5/5/6 and its x pass's 16
    slabs of 2 spectrum rows into lanes of 5/5/6 slabs; at 64^3 the 64 slabs into 21/21/22.
    40 blocks give the step kernels one row each, so that every row reads its halo rows across
    a cut.
    """

    @staticmethod
    def with_blocks(monkeypatch, blocks, compute):
        monkeypatch.setattr(potential, "_BLOCKS", blocks)
        monkeypatch.setattr(potential, "_MIN_BLOCK_CELLS", 1)
        return compute()

    @FACE_MATRICES
    @pytest.mark.parametrize("blocks", [2, 3, 40])  # 40: more blocks than the 16 rows
    def test_drift_and_advect(self, monkeypatch, matrix, blocks):
        flux = FluxTensor.from_matrix(np.array(matrix))
        u = perturbed_field(16)
        h = u.grid.h

        def passes():
            bfaces, rate = sv._drift(sv.solve_potential_v(u), flux, 30.0, h)
            return [*bfaces, rate, sv._advect(u.values, bfaces, 0.9 * h / rate, h)]

        want = self.with_blocks(monkeypatch, 1, passes)
        got = self.with_blocks(monkeypatch, blocks, passes)
        assert len(got) == 5
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("nu", [0.1, 2.0])  # one sub-step, then 12
    @pytest.mark.parametrize("blocks", [2, 3])
    def test_diffuse(self, monkeypatch, nu, blocks):
        u = perturbed_field(16)
        dt = nu * u.grid.h ** 2

        def diffuse():
            return sv._diffuse(u.values, u.grid, dt)

        want = self.with_blocks(monkeypatch, 1, diffuse)
        np.testing.assert_array_equal(self.with_blocks(monkeypatch, blocks, diffuse), want)

    # with the floor at one cell the x pass runs min(blocks, 8) lanes at every size: 2 in
    # slabs of 4 rows, 3 of 2, 5 and 8 of 1, against one lane in slabs of 8
    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("blocks", [2, 3, 5, 40])
    def test_solves(self, monkeypatch, n, blocks):
        u = perturbed_field(n)

        def solves():
            pot = sv.solve_potential_fast(u)
            return [sv.solve_potential_v(u), pot.v, pot.gx, pot.gy, pot.gz]

        want = self.with_blocks(monkeypatch, 1, solves)
        for g, w in zip(self.with_blocks(monkeypatch, blocks, solves), want):
            np.testing.assert_array_equal(g, w)

    @staticmethod
    def handoffs(monkeypatch, n, blocks):
        # (task, n, blocks) of each pool hand-off of a full and a potential-only solve at the
        # default floor
        handed, in_blocks = [], potential._in_blocks

        def recorder(task, *args):
            handed.append((task.__name__, args[0], args[1]))
            return in_blocks(task, *args)

        monkeypatch.setattr(potential, "_BLOCKS", blocks)
        monkeypatch.setattr(potential, "_in_blocks", recorder)
        u = perturbed_field(n)
        sv.solve_potential_fast(u)
        sv.solve_potential_v(u)
        return handed

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("blocks", [2, 4])
    def test_x_pass_takes_the_step_kernels_block_count(self, monkeypatch, n, blocks):
        # at the default floor: one lane at 16^3 and 32^3, one per CPU at 64^3
        lanes = [k for task, _, k in self.handoffs(monkeypatch, n, blocks) if task == "_x_pass"]
        want = min(potential._step_blocks(n ** 3), potential._SLAB_ROWS)
        assert lanes == [want, want] == [{16: 1, 32: 1, 64: blocks}[n]] * 2

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("blocks", [2, 4])
    def test_fft_passes_take_the_step_kernels_block_count(self, monkeypatch, n, blocks):
        # at the default floor: one block at 16^3 and 32^3, one per CPU at 64^3. The z/y forward
        # and each y/z inverse cut the n x rows, the x pass as many lanes; a full solve inverts
        # four spectra, a potential-only solve one
        handed = self.handoffs(monkeypatch, n, blocks)
        want = potential._step_blocks(n ** 3)
        assert want == {16: 1, 32: 1, 64: blocks}[n]
        forward, x, inverse = ("_forward_rows", n, want), ("_x_pass", want, want), ("_inverse_rows", n, want)
        assert handed == [forward, x, *[inverse] * 4, forward, x, inverse]

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("blocks", range(1, 9))
    def test_x_pass_hands_each_lane_whole_contiguous_slabs(self, monkeypatch, cpus, n, blocks):
        # each x-pass lane transforms its full (2n, 8 // lanes, n+1) slab buffer, never a short
        # view of it: 3 lanes take 2-row slabs, 10/10/12 rows at 16^3 and 42/42/44 at 64^3
        operands, fft = [], np.fft.fft

        def recorder(a, *args, axis=-1, **kwargs):
            if axis == 0:
                operands.append((a.shape, a.flags.c_contiguous))
            return fft(a, *args, axis=axis, **kwargs)

        cpus(blocks)
        monkeypatch.setattr(np.fft, "fft", recorder)
        sv.solve_potential_v(perturbed_field(n))
        w = potential._SLAB_ROWS // blocks
        assert operands == [((2 * n, w, n + 1), True)] * (2 * n // w)

    @FACE_MATRICES
    @pytest.mark.parametrize("blocks", [2, 3])
    def test_step_kernels_at_64_with_the_floor_on(self, monkeypatch, matrix, blocks):
        # above the floor: 2 blocks of 32 rows, 3 of 21/21/22, without forcing the floor off
        flux = FluxTensor.from_matrix(np.array(matrix))
        u = perturbed_field(64)
        h = u.grid.h
        v = sv.solve_potential_v(u)

        def kernels():
            bfaces, rate = sv._drift(v, flux, 30.0, h)
            dt = 0.9 * h / rate
            return [*bfaces, rate, sv._advect(u.values, bfaces, dt, h),
                    sv._diffuse(u.values, u.grid, 2.0 * h * h)]

        monkeypatch.setattr(potential, "_BLOCKS", 1)
        want = kernels()
        monkeypatch.setattr(potential, "_BLOCKS", blocks)
        assert potential._step_blocks(u.values.size) == blocks
        for g, w in zip(kernels(), want):
            np.testing.assert_array_equal(g, w)

    def test_below_the_floor_a_step_submits_nothing(self, monkeypatch):
        submitted, pool = [], ThreadPoolExecutor(1)

        class Recorder:
            def submit(self, *args):
                submitted.append(args)
                return pool.submit(*args)

        monkeypatch.setattr(potential, "_BLOCKS", 2)
        monkeypatch.setattr(potential, "_pool", lambda pid: Recorder())
        flux = FluxTensor.from_matrix(np.eye(3))
        try:
            sv.step(perturbed_field(16), flux, 30.0, 1e-3)
            assert not submitted
            u = perturbed_field(32)  # its solve and its kernels run one block each
            v = sv.solve_potential_v(u)
            bfaces, rate = sv._drift(v, flux, 30.0, u.grid.h)
            sv._diffuse(sv._advect(u.values, bfaces, 1e-3, u.grid.h), u.grid, 1e-3)
            assert not submitted
            monkeypatch.setattr(potential, "_MIN_BLOCK_CELLS", 1)  # the recorder sees a cut
            sv._diffuse(u.values, u.grid, 1e-3)
            assert len(submitted) == 1
        finally:
            pool.shutdown()

    @FACE_MATRICES
    @pytest.mark.parametrize("blocks", [2, 3])
    def test_run_records(self, monkeypatch, matrix, blocks):
        want = record_rows(self.with_blocks(monkeypatch, 1, lambda: short_run(matrix=matrix)))
        assert record_rows(self.with_blocks(monkeypatch, blocks, lambda: short_run(matrix=matrix))) == want

    def test_one_block_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(potential, "_BLOCKS", 1)
        potential._pool.cache_clear()
        before = set(threading.enumerate())
        short_run()
        assert potential._pool.cache_info().currsize == 0
        assert not set(threading.enumerate()) - before


class TestConcurrency:
    def test_runs_on_two_threads_match_serial_runs(self, monkeypatch):
        # 3 blocks from each of 2 runs: more workers than CPUs, switching often; a 1-cell floor
        monkeypatch.setattr(potential, "_BLOCKS", 3)
        monkeypatch.setattr(potential, "_MIN_BLOCK_CELLS", 1)
        chis = (30.0, 60.0)
        serial = [record_rows(short_run(chi)) for chi in chis]
        results = [None, None]

        def work(i):
            results[i] = record_rows(short_run(chis[i]))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_builds_its_own_pool(self, monkeypatch):
        monkeypatch.setattr(potential, "_BLOCKS", 2)
        monkeypatch.setattr(potential, "_MIN_BLOCK_CELLS", 1)
        u = perturbed_field(16)

        def work():  # the second x-pass lane and the diffusion's second block run on the pool
            return [sv.solve_potential_fast(u).v, sv._diffuse(u.values, u.grid, 1e-3)]

        want = work()  # the parent's pool has run

        def child():
            if not all(np.array_equal(g, w) for g, w in zip(work(), want)):
                raise SystemExit(1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("the forked child's solve did not finish in 60 s")
        assert proc.exitcode == 0
