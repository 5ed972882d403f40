"""Configuration, pipeline staging, reporting, and CLI tests."""

import subprocess
import sys

import numpy as np
import pytest

from modru import cli, config, harness
from modru.errors import ConfigError, EstimationError
from modru.plant import PositionProfile
from modru.tables import read_csv


def nominal_scenario(sc):
    """Gentle haul where the plan's energy forecast should hold up."""
    return harness.replace_scenario(
        sc, name="truck-nominal", path_length=3000.0, T_f=280.0, to_n=150,
        to_u_lim=600.0,
        slope=PositionProfile(np.array([0.0, 3000.0]),
                              np.array([0.0, 0.002]), "linear"),
        v_limit=PositionProfile(np.array([0.0, 3000.0]),
                                np.array([12.5, 12.5]), "constant"))


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
        p.write_text("to.T_f 900\n")
        with pytest.raises(ConfigError):
            config.read_config_file(p)

    def test_scenario_overrides(self):
        sc = config.scenario_from_config(
            {"to.T_f": "950", "to.N": "80", "est.mask": "1,1,1,1,1,1",
             "to.u_lim": "none", "plant.m": "38000"}, environ={})
        assert sc.T_f == 950.0 and sc.to_n == 80
        assert sc.est_mask == (True,) * 6
        assert sc.to_u_lim is None
        assert sc.plant_params.m == 38000.0

    def test_car_profile_pairs(self):
        sc = config.scenario_from_config(
            {"plant.type": "car", "vlim.breakpoints": "0:10, 500:14",
             "slope.breakpoints": "0:0, 1000:0.01"}, environ={})
        assert sc.plant_type == "car"
        assert sc.v_limit.value(600.0) == 14.0
        assert sc.slope.value(500.0) == pytest.approx(0.005)

    def test_rejects_unknown_and_bad_values(self):
        with pytest.raises(ConfigError):
            config.scenario_from_config({"nope.key": "1"}, environ={})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"to.T_f": "abc"}, environ={})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"to.T_f": "-5"}, environ={})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"est.mask": "1,1"}, environ={})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"plant.warp": "9"}, environ={})
        with pytest.raises(ConfigError):
            config.scenario_from_config({"plant.type": "hovercraft"},
                                        environ={})

    def test_env_overrides_both_cases(self):
        sc = config.scenario_from_config(
            {"to.T_f": "900"},
            environ={"MODRU_to_T_f": "800", "MODRU_SEED": "42"})
        assert sc.T_f == 800.0   # env wins over the file
        assert sc.seed == 42

    def test_load_scenario_seed_argument(self):
        sc = config.load_scenario(None, environ={}, seed=99)
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
        sc = harness.replace_scenario(truck_sc, est_duration=300.0)
        d1 = harness.stage_dataset(sc)
        d2 = harness.stage_dataset(sc)
        np.testing.assert_array_equal(d1.v, d2.v)
        np.testing.assert_array_equal(d1.u, d2.u)
        d3 = harness.stage_dataset(harness.replace_scenario(sc, seed=999))
        assert not np.array_equal(d1.u, d3.u)

    def test_steep_test_route_stalls_the_run(self, truck_sc):
        sc = harness.replace_scenario(truck_sc, est_duration=400.0,
                                      est_slope_amp=0.3)
        with pytest.raises(EstimationError, match="stall"):
            harness.stage_dataset(sc)

    def test_replace_scenario_copies(self, truck_sc):
        sc2 = harness.replace_scenario(truck_sc, T_f=123.0)
        assert sc2.T_f == 123.0
        assert truck_sc.T_f != 123.0


class TestReportIO:
    def test_round_trip(self, tmp_path):
        rep = harness.RunReport(
            name="x", plant_type="truck", seed=5, T_f=900.0,
            theta_hat=tuple(float(i) for i in range(1, 7)),
            theta_err=(0.1, 0.2, float("nan"), 0.4, 0.5, float("nan")),
            fit_nrmse=0.017, eff_gen_hat=1.1, eff_regen_hat=0.9,
            E_pred=1.5e6, E_realized=1.6e6, E_hat=1.0,
            t_end_planned=899.4, t_terminal=899.5, tracking_rms=0.06,
            du_ratio=0.05, terminal_position_error=1.2, limit_overshoot=-2.0)
        path = tmp_path / "report.txt"
        rep.write(path)
        back = harness.RunReport.read(path)
        assert back.name == "x" and back.seed == 5
        assert back.theta_hat == rep.theta_hat
        assert back.E_pred == rep.E_pred and back.du_ratio == rep.du_ratio
        assert np.isnan(back.theta_err[2])
        assert back.theta_err[3] == 0.4


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
        # resample.M = 0 picks one sample per planning segment
        assert ref.t.size == nom.to_n + 1


class TestRunPipeline:
    def test_artifacts_and_report(self, car_sc, tmp_path):
        report, artifacts = harness.run_pipeline(car_sc, out_dir=tmp_path)
        for fname in ("dataset.csv", "theta.txt", "schedule.csv",
                      "to_solution.csv", "reference.csv", "closed_loop.csv",
                      "report.txt"):
            assert (tmp_path / fname).exists(), fname
        assert report.E_hat == 1.0
        assert report.plant_type == "car"
        back = harness.RunReport.read(tmp_path / "report.txt")
        assert back.E_pred == report.E_pred
        assert set(artifacts) >= {"data", "model", "eff", "schedule",
                                  "solution", "reference", "trajectory",
                                  "metrics"}


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


class TestCli:
    def test_bad_format_is_a_config_error(self, tmp_path, capsys):
        rc = cli.main(["pipeline", "--format", "json",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("unknown.key = 1\n")
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out", str(tmp_path)])
        assert rc == 2

    def test_simulate_writes_dataset(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.duration = 120\n")
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _, cols, _ = read_csv(out / "dataset.csv")
        # 120 s at the car step of 0.2 s, grid inclusive of both ends
        assert cols["t"].size == 601

    def test_infeasible_budget_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.duration = 240\nto.T_f = 30\n")
        rc = cli.main(["plan", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err

    def test_console_script_smoke(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.duration = 120\n")
        proc = subprocess.run(
            [sys.executable, "-m", "modru.cli", "simulate",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "dataset.csv" in proc.stdout
