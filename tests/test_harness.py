"""Configuration, pipeline staging, reporting, and CLI tests."""

import subprocess
import sys
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from modru import cli, config, harness, lqr, tempo
from modru.errors import ConfigError, EstimationError
from modru.plant import CarParams, PositionProfile, TruckParams, input_mass
from modru.tables import format_value, read_csv, read_keyvalues, write_csv


def nominal_scenario(sc):
    """Gentle haul where the plan's energy forecast should hold up."""
    return replace(
        sc, name="truck-nominal", path_length=3000.0, T_f=280.0, to_n=150,
        to_u_lim=600.0,
        slope=PositionProfile(np.array([0.0, 3000.0]),
                              np.array([0.0, 0.002]), "linear"),
        v_limit=PositionProfile(np.array([0.0, 3000.0]),
                                np.array([12.5, 12.5]), "constant"))


# (plant.type, key) of every float-valued config key and plant override.
FLOAT_KEYS = [("truck", key) for key in (
    "path.length", "to.T_f", "to.vdot_lim", "to.u_lim", "eff.gen", "eff.regen",
    "est.duration", "est.h", "est.noise", "est.hold", "est.slope_amp", "ctrl.rho_I",
    "ctrl.rho_u", "ctrl.u_lim", "sim.h")] + [
    (kind, f"plant.{f.name}") for kind, params in (("truck", TruckParams), ("car", CarParams))
    for f in fields(params)]


class TestConfigFiles:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            config.read_config_file("/nonexistent/conf")

    def test_parse_and_later_keys_win(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("# comment\n\nto.T_f = 900\nseed = 7\nto.T_f = 950\n")
        cfg = config.read_config_file(p)
        assert cfg == {"to.T_f": "950", "seed": "7"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("seed = 7\nto.T_f 900\n")
        with pytest.raises(ConfigError, match=r"run\.conf:2: expected 'key = value'"):
            config.read_config_file(p)

    def test_scenario_overrides(self):
        sc = config.scenario_from_config(
            {"to.T_f": "950", "to.N": "80", "est.mask": "1,1,1,1,1,1",
             "to.u_lim": "none", "plant.m": "38000"})
        assert sc.T_f == 950.0 and sc.to_n == 80
        assert sc.est_mask == (True,) * 6
        assert sc.to_u_lim is None
        assert sc.plant_params.m == 38000.0

    def test_car_profile_pairs(self):
        sc = config.scenario_from_config(
            {"plant.type": "car", "vlim.breakpoints": "0:10, 500:14",
             "slope.breakpoints": "0:0, 1000:0.01"})
        assert sc.plant_type == "car"
        assert sc.v_limit.value(600.0) == 14.0
        assert sc.slope.value(500.0) == pytest.approx(0.005)

    def test_rejects_unknown_and_bad_values(self):
        with pytest.raises(ConfigError):
            config.scenario_from_config({"nope.key": "1"})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"to.T_f": "abc"})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"to.T_f": "-5"})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"est.mask": "1,1"})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"plant.warp": "9"})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"plant.type": "hovercraft"})

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("plant_type, key", FLOAT_KEYS)
    def test_rejects_non_finite_floats(self, plant_type, key, bad):
        with pytest.raises(ConfigError, match=f"bad value for {key}: '{bad}'"):
            config.scenario_from_config({"plant.type": plant_type, key: bad})

    def test_environment_does_not_configure(self, monkeypatch):
        monkeypatch.setenv("MODRU_SEED", "42")
        monkeypatch.setenv("MODRU_to_T_f", "800")
        sc = config.load_scenario(None)
        assert sc.seed == 1234 and sc.T_f == 1000.0

    def test_load_scenario_seed_argument(self):
        sc = config.load_scenario(None, seed=99)
        assert sc.seed == 99 and sc.name == "truck-default"


class TestStaging:
    def test_true_theta_truck_values(self, truck_sc):
        th = harness.true_theta(truck_sc)
        np.testing.assert_allclose(
            th, [2.5e-4, -0.0588600, 0.0, -8.0625e-5, -9.81, 0.029430],
            rtol=1e-9)

    def test_excitation_slope_amplitude(self, truck_sc):
        prof = harness.excitation_slope(truck_sc)
        assert prof.values.max() == pytest.approx(truck_sc.est_slope_amp,
                                                  rel=1e-3)
        assert prof.values.min() == pytest.approx(-truck_sc.est_slope_amp,
                                                  rel=1e-3)

    def test_dataset_is_deterministic_per_seed(self, truck_sc):
        sc = replace(truck_sc, est_duration=300.0)
        d1 = harness.stage_dataset(sc)
        d2 = harness.stage_dataset(sc)
        np.testing.assert_array_equal(d1.v, d2.v)
        np.testing.assert_array_equal(d1.u, d2.u)
        d3 = harness.stage_dataset(replace(sc, seed=999))
        assert not np.array_equal(d1.u, d3.u)

    def test_steep_test_route_stalls_the_run(self, truck_sc):
        sc = replace(truck_sc, est_duration=400.0, est_slope_amp=0.3)
        with pytest.raises(EstimationError, match="stall"):
            harness.stage_dataset(sc)

    def test_replace_scenario_copies(self, truck_sc):
        sc2 = replace(truck_sc, T_f=123.0)
        assert sc2.T_f == 123.0
        assert truck_sc.T_f != 123.0


class TestReportIO:
    def test_round_trip(self, tmp_path):
        rep = harness.RunReport(
            name="x", plant_type="truck", seed=5, T_f=900.0,
            theta_hat=tuple(float(i) for i in range(1, 7)),
            theta_err=(0.1, 0.2, float("nan"), 0.4, 0.5, float("nan")),
            fit_nrmse=0.017, eff_gen_hat=1.1, eff_regen_hat=0.9,
            eff_gen_status="fitted", eff_regen_status="default",
            E_pred=1.5e6, E_realized=1.6e6,
            t_end_planned=899.4, t_terminal=899.5, tracking_rms=0.06,
            du_ratio=0.05, terminal_position_error=1.2, limit_overshoot=-2.0)
        path = tmp_path / "report.txt"
        rep.write(path)
        back = read_keyvalues(path)
        assert list(back) == list(rep.to_items())
        assert back["name"] == "x" and back["seed"] == "5"
        assert tuple(float(back[f"theta_hat{i}"]) for i in range(1, 7)) == rep.theta_hat
        assert float(back["E_pred"]) == rep.E_pred
        assert float(back["du_ratio"]) == rep.du_ratio
        assert (back["eff_gen_status"], back["eff_regen_status"]) == ("fitted", "default")
        assert np.isnan(float(back["theta_err3"]))
        assert float(back["theta_err4"]) == 0.4


@pytest.fixture(scope="module")
def nominal_run(truck_sc, truck_fit):
    _, model, eff, _ = truck_fit
    nom = nominal_scenario(truck_sc)
    schedule = harness.stage_schedule(nom, model)
    problem, sol, ref = harness.stage_plan(nom, model, eff)
    traj, metrics = harness.stage_track(nom, model, schedule, ref)
    return nom, sol, ref, metrics


class TestNominalPipeline:
    """On a gentle route, the realized energy must track the forecast."""

    def test_energy_forecast_holds(self, nominal_run):
        _, sol, _, metrics = nominal_run
        ratio = metrics["E_realized"] / sol.E
        assert 0.95 < ratio < 1.05

    def test_timing_and_tracking(self, nominal_run):
        nom, sol, ref, metrics = nominal_run
        assert sol.t[-1] <= nom.T_f * (1.0 + 1e-6)
        assert metrics["t_terminal"] <= nom.T_f * 1.01
        assert metrics["tracking_rms"] < 0.2
        assert metrics["limit_overshoot"] < 0.5

    def test_default_reference_density(self, nominal_run):
        nom, _, ref, _ = nominal_run
        # The reference is the plan's nodes, one row each.
        assert ref.t.size == nom.to_n + 1


class TestTrackThePlan:
    """The plan itself is the reference, and the plant starts on it."""

    def test_car_stays_under_the_speed_cap(self, car_sc, car_fit):
        _, model, eff, _ = car_fit
        _, _, ref = harness.stage_plan(car_sc, model, eff)
        _, metrics = harness.stage_track(car_sc, model,
                                         harness.stage_schedule(car_sc, model), ref)
        assert metrics["limit_overshoot"] < 0.05


class TestRunPipeline:
    def test_artifacts_and_report(self, car_sc, tmp_path):
        report, artifacts = harness.run_pipeline(car_sc, out_dir=tmp_path)
        for fname in ("dataset.csv", "theta.txt", "schedule.csv",
                      "to_solution.csv", "reference.csv", "closed_loop.csv",
                      "report.txt"):
            assert (tmp_path / fname).exists(), fname
        assert report.plant_type == "car"
        back = read_keyvalues(tmp_path / "report.txt")
        assert float(back["E_pred"]) == report.E_pred
        eff = artifacts["eff"]
        assert (back["eff_gen_status"], back["eff_regen_status"]) \
            == (eff.gen_status, eff.regen_status)
        sol = artifacts["solution"]
        assert back["plan_exit"] == sol.exit == "gap"
        assert float(back["plan_gap_rel"]) == sol.gap_rel <= 1e-8
        assert int(back["plan_newton_iters"]) == sol.n_newton > 0
        assert back["plan_boundary"] == tempo.BOUNDARY_RULE
        assert set(artifacts) >= {"data", "model", "eff", "schedule",
                                  "solution", "reference", "trajectory",
                                  "metrics"}

    def test_realized_energy_charges_the_boundary_kinetic_energy(self, car_sc, car_fit):
        # E_realized takes the boundary rule's kinetic energy, as E_pred
        # does; a zero mass gives the same run without that charge.
        _, model, eff, _ = car_fit
        schedule = harness.stage_schedule(car_sc, model)
        _, _, ref = harness.stage_plan(car_sc, model, eff)
        traj, full = harness.stage_track(car_sc, model, schedule, ref)
        with mock.patch.object(harness, "input_mass", lambda p: 0.0):
            _, bare = harness.stage_track(car_sc, model, schedule, ref)
        v_end = np.interp(car_sc.path_length, traj.s, traj.v)
        kinetic = 0.5 * input_mass(car_sc.plant_params) * (traj.v[0] ** 2 - v_end ** 2)
        assert full["E_realized"] - bare["E_realized"] == pytest.approx(kinetic, rel=1e-9)


class TestRobustnessCsv:
    def test_write_and_read(self, tmp_path):
        from modru.lqr import RobustnessRow
        rows = [RobustnessRow(0.1, "model-based", 1.5, 1.4, 1.1, 0.01),
                RobustnessRow(0.1, "model-free", 2.0, 1.6, 1.2, 0.02)]
        path = tmp_path / "rob.csv"
        harness.write_robustness_csv(path, rows)
        _, cols, _ = read_csv(path)
        np.testing.assert_allclose(cols["t_r"], [1.5, 2.0])
        assert list(cols["method"]) == ["model-based", "model-free"]

    def test_infeasible_row_and_evaluation_count(self, tmp_path):
        from modru.lqr import RobustnessRow
        rows = [RobustnessRow(0.2, "model-based", 2.5, 1.7, 1.2, 0.05,
                              trace=[(1e6, 9.0, True), (1.0, 2.5, True),
                                     (1e-3, float("inf"), False)]),
                RobustnessRow(0.2, "model-free", float("inf"), float("inf"),
                              float("inf"), 1e-6, feasible=False,
                              trace=[(1e6, float("inf"), False)])]
        path = tmp_path / "rob.csv"
        harness.write_robustness_csv(path, rows)
        header, cols, _ = read_csv(path)
        assert header[-2:] == ["feasible", "n_evals"]
        np.testing.assert_array_equal(cols["feasible"], [1.0, 0.0])
        np.testing.assert_array_equal(cols["n_evals"], [3.0, 1.0])
        assert cols["t_r"][1] == float("inf")


class TestWriteCsv:
    def test_columns_format_as_cells(self, tmp_path):
        # Whole float columns and per-cell formatting give the same bytes.
        floats = np.array([0.1, -0.0, 1e-300, np.inf, -np.inf, np.nan, 2.0 / 3.0])
        columns = [floats, floats.astype(np.float32), np.arange(7), list("abcdefg"),
                   [True, False, np.True_, 1, 2, 0.5, "x"]]
        header = ["f64", "f32", "int", "str", "mixed"]
        path = tmp_path / "t.csv"
        write_csv(path, header, columns, meta={"E": np.float64(1.5), "ok": True})
        rows = [",".join(format_value(c[i]) for c in columns) for i in range(7)]
        want = ["# E = 1.5", "# ok = 1", ",".join(header)] + rows
        assert path.read_text() == "\n".join(want) + "\n"


class TestCli:
    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("unknown.key = 1\n")
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("command, lines, flags", [
        ("plan", "to.T_f = nan", []),
        ("plan", "to.u_lim = -5", []),
        ("plan", "to.gamma = -1", []),
        ("plan", "eff.gen = 0.5", []),
        ("plan", "eff.regen = 1.2", []),
        ("plan", "eff.regen = 0", []),
        ("plan", "est.mask = 0,1,0,1,1,0", []),
        # resample.M is gone: both lines now fail as unknown keys.
        ("plan", "resample.M = 1", []),
        ("plan", "resample.M = -3", []),
        # The pipeline always plans with the fitted model and fitted
        # efficiency factors: these keys are gone too.
        ("plan", "to.mode = pseudo", []),
        ("plan", "est.fit_efficiency = 0", []),
        ("plan", "slope.breakpoints = 0:0, inf:0.01", []),
        ("plan", "vlim.breakpoints = 0:13.9, 300:nan", []),
        ("plan", "est.hold = nan", []),
        ("plan", "plant.m = nan", []),
        ("simulate", "est.noise = -1", []),
        ("simulate", "est.duration = 1", []),
        ("simulate", "seed = -1", []),
        ("simulate", "", ["--seed", "-1"]),
        ("pipeline", "", ["--seed", "-1"]),
        ("robustness", "", ["--seed", "-1", "--taus", "0"]),
    ], ids=["T_f_nan", "u_lim", "gamma", "gen", "regen_high", "regen_zero", "mask", "M_one",
            "M_negative", "mode_pseudo", "fit_efficiency", "slope_inf", "vlim_nan",
            "hold_nan", "plant_m_nan", "noise", "duration_short",
            "seed_key", "seed_flag_simulate", "seed_flag_pipeline", "seed_flag_robustness"])
    def test_bad_config_values_fail_before_any_work(self, tmp_path, capsys,
                                                    command, lines, flags):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("plant.type = car\n" + lines + "\n")
        out = tmp_path / "out"
        started = AssertionError("work started")
        with mock.patch.object(harness, "stage_dataset", side_effect=started), \
                mock.patch.object(lqr, "robustness_sweep", side_effect=started):
            rc = cli.main([command, "--config", str(cfg), *flags, "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_writes_dataset(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.duration = 120\n")
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _, cols, _ = read_csv(out / "dataset.csv")
        # 120 s at the car step of 0.2 s, grid inclusive of both ends
        assert cols["t"].size == 601

    def test_overflowing_warm_start_is_a_numerical_failure(self, tmp_path, capsys):
        # Noise this large overflows v * v in the warm-start regressors.
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.noise = 1e300\n")
        rc = cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_infeasible_budget_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.duration = 240\nto.T_f = 30\n")
        rc = cli.main(["plan", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--methods", "foo"],
                                       ["--methods", "model-based,"
                                        "model-freee"],
                                       ["--taus", "-0.1"], ["--taus", "abc"],
                                       ["--taus", "0.1,nan"], ["--taus", "inf"],
                                       ["--taus", ","]])
    def test_bad_robustness_arguments(self, tmp_path, capsys, flags):
        rc = cli.main(["robustness", *flags, "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "robustness.csv").exists()

    def test_robustness_smoke(self, tmp_path, capsys):
        rc = cli.main(["robustness", "--taus", "0", "--methods", "model-based",
                       "--out", str(tmp_path)])
        assert rc == 0
        _, cols, _ = read_csv(tmp_path / "robustness.csv")
        assert list(cols["method"]) == ["model-based"]
        np.testing.assert_array_equal(cols["feasible"], [1.0])
        n_evals = int(cols["n_evals"][0])
        line = capsys.readouterr().out.strip()
        assert line.startswith("tau=0 model-based:")
        assert line.endswith(f"feasible=1 n_evals={n_evals}")

    def test_robustness_tiny_tau_is_a_numerical_failure(self, tmp_path, capsys):
        rc = cli.main(["robustness", "--taus", "5e-324", "--methods", "model-based",
                       "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "h=0.1" in err

    def test_cli_import_loads_no_scipy(self):
        # Nor logging: the run reports its counts in its results instead.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, modru.cli, modru.harness, modru.lqr, modru.sysid; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'logging')))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script_smoke(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.duration = 120\n")
        proc = subprocess.run(
            [sys.executable, "-m", "modru.cli", "simulate",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "dataset.csv" in proc.stdout
