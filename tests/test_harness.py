"""Configuration, pipeline staging, reporting, and CLI tests."""

import contextlib
import itertools
import math
import random
import re
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modru import cli, config, harness, lqr, plant, sysid, tempo
from modru.errors import ConfigError, EstimationError, NumericalError
from modru.plant import CarParams, PositionProfile, TruckParams, input_mass
from modru.tables import format_value, read_csv, read_keyvalues, write_csv, write_keyvalues


def nominal_scenario(sc):
    """Gentle haul where the plan's energy forecast should hold up."""
    return replace(
        sc, name="truck-nominal", path_length=3000.0, T_f=280.0, to_n=150,
        to_u_lim=600.0,
        slope=PositionProfile(np.array([0.0, 3000.0]),
                              np.array([0.0, 0.002]), "linear"),
        v_limit=PositionProfile(np.array([0.0, 3000.0]),
                                np.array([12.5, 12.5]), "constant"))


# (plant.type, key) of every plant override, and of every float-valued config key.
PLANT_KEYS = [(kind, f"plant.{f.name}") for kind, params in (("truck", TruckParams),
                                                             ("car", CarParams))
              for f in fields(params)]
FLOAT_KEYS = [("truck", key) for key in (
    "path.length", "to.T_f", "to.vdot_lim", "to.u_lim", "eff.gen", "eff.regen",
    "est.duration", "est.h", "est.noise", "est.hold", "est.slope_amp", "ctrl.rho_I",
    "ctrl.rho_u", "ctrl.u_lim", "sim.h")] + PLANT_KEYS


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
            {"to.T_f": "950", "to.N": "80", "est.mask": "1,1,0,1,1,1",
             "to.u_lim": "none", "plant.m": "38000"})
        assert sc.T_f == 950.0 and sc.to_n == 80
        assert sc.est_mask == (True, True, False, True, True, True)
        assert sc.to_u_lim is None
        assert sc.plant_params.m == 38000.0

    def test_mask_needs_th1_and_refuses_th3(self):
        accepted = []
        for flags in itertools.product("01", repeat=6):
            mask = tuple(f == "1" for f in flags)
            try:
                sc = config.scenario_from_config({"est.mask": ",".join(flags)})
            except ConfigError:
                with pytest.raises(ConfigError, match="th1 on and th3 off"):
                    replace(config.default_truck_scenario(), est_mask=mask)
                continue
            assert sc.est_mask == mask
            accepted.append(flags)
        assert len(accepted) == 16
        assert all(f[0] == "1" and f[2] == "0" for f in accepted)

    def test_car_profile_pairs(self):
        sc = config.scenario_from_config(
            {"plant.type": "car", "vlim.breakpoints": "0:10, 500:14",
             "slope.breakpoints": "0:0, 1000:0.01"})
        assert isinstance(sc.plant_params, CarParams)
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

    @pytest.mark.parametrize("limit", ["1e300", "1001"])
    def test_refuses_speed_limits_beyond_divergence(self, limit):
        # The simulator aborts above V_DIVERGED, and the excitation route
        # grows with the top limit.
        with pytest.raises(ConfigError, match="at most 1000 m/s"):
            config.scenario_from_config({"vlim.breakpoints": f"0:25, 100:{limit}"})
        sc = config.scenario_from_config({"vlim.breakpoints": "0:25, 100:1000"})
        assert sc.v_limit.values[-1] == plant.V_DIVERGED

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("plant_type, key", FLOAT_KEYS)
    def test_rejects_non_finite_floats(self, plant_type, key, bad):
        # The text parses; the scenario or the plant type refuses the value,
        # as each does when it is built directly.
        plant = key.startswith("plant.")
        name = key.removeprefix("plant.") if plant else config._KEYS[key][0]
        message = f"^{name} must be a finite number, got {bad}$"
        with pytest.raises(ConfigError, match=message):
            config.scenario_from_config({"plant.type": plant_type, key: bad})
        if plant:
            with pytest.raises(ValueError, match=message):
                {"truck": TruckParams, "car": CarParams}[plant_type](**{name: float(bad)})
        else:
            with pytest.raises(ConfigError, match=message):
                replace(DEFAULTS[plant_type](), **{name: float(bad)})

    # Each would let the vehicle earn energy by driving, or (a_lim) stop the
    # car from moving, or has no physical meaning (m, R, T_m); NaN fails too
    # when the parameters are built directly.
    @pytest.mark.parametrize("plant_type, key, bad", [
        (kind, f"plant.{key}", "-0.01") for kind in ("truck", "car")
        for key in ("rho_a", "c_d", "A_f", "c_r")] + [
        ("truck", "plant.g", "0"), ("car", "plant.g", "0"), ("car", "plant.a_lim", "0"),
        ("truck", "plant.m", "0"), ("truck", "plant.R", "0"), ("truck", "plant.T_m", "-0.01"),
        ("car", "plant.m", "0")])
    def test_rejects_impossible_plants(self, plant_type, key, bad):
        name = key.removeprefix("plant.")
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            config.scenario_from_config({"plant.type": plant_type, key: bad})
        params = {"truck": TruckParams, "car": CarParams}[plant_type]
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            params(**{name: math.nan})

    # The timing planner starts at the constant squared speed (L/T_f)^2; where
    # it rounds to 0 the pipeline used to die in the planner with a ValueError.
    @pytest.mark.parametrize("plant_type", ["truck", "car"])
    @pytest.mark.parametrize("key, bad", [("to.T_f", "1e300"), ("path.length", "1e-300")])
    def test_refuses_a_planner_start_that_squares_to_zero(self, plant_type, key, bad):
        with pytest.raises(ConfigError, match="timing planner starts"):
            config.scenario_from_config({"plant.type": plant_type, key: bad})

    def test_accepts_a_long_budget_whose_start_speed_squares_above_zero(self):
        assert config.scenario_from_config({"to.T_f": "1e150"}).T_f == 1e150

    def test_environment_does_not_configure(self, monkeypatch):
        monkeypatch.setenv("MODRU_SEED", "42")
        monkeypatch.setenv("MODRU_to_T_f", "800")
        sc = config.load_scenario(None)
        assert sc.seed == 1234 and sc.T_f == 1000.0

    def test_load_scenario_seed_argument(self):
        sc = config.load_scenario(None, seed=99)
        assert sc.seed == 99 and sc.name == "truck-default"


DEFAULTS = {"truck": config.default_truck_scenario, "car": config.default_car_scenario}
# (plant.type, key) of every config key and plant override.
CONFIG_KEYS = [(kind, key) for kind in DEFAULTS for key in config._KEYS] + PLANT_KEYS
# Edge values; 1e19 is written as an integer, so that the count keys parse it.
EDGE_TEXTS = ["0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", str(10 ** 19), "nan", "inf",
              "-inf"]


def config_text(sc, key):
    """The text of ``key``'s value in ``sc``, as a config file spells it."""
    if key.startswith("plant."):
        return format_value(getattr(sc.plant_params, key.removeprefix("plant.")))
    value = getattr(sc, config._KEYS[key][0])
    if isinstance(value, PositionProfile):
        return ", ".join(f"{b!r}:{v!r}" for b, v in zip(value.breakpoints.tolist(),
                                                         value.values.tolist()))
    if isinstance(value, tuple):
        return ",".join("1" if flag else "0" for flag in value)
    return "none" if value is None else format_value(value)


def assert_same_scenario(a, b):
    for f in fields(config.Scenario):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, PositionProfile):
            assert x.kind == y.kind, f.name
            np.testing.assert_array_equal(x.breakpoints, y.breakpoints)
            np.testing.assert_array_equal(x.values, y.values)
        else:
            assert x == y and type(x) is type(y), f.name


class TestOneValidatedScenario:
    """A config file and ``dataclasses.replace`` are checked in one place.

    Scenarios are built only: an accepted edge value such as
    est.duration = 1e300 would allocate if a stage ran on it."""

    @settings(max_examples=600, deadline=None)
    @given(case=st.sampled_from(CONFIG_KEYS), text=st.sampled_from(EDGE_TEXTS + [None]))
    def test_config_refuses_what_replace_refuses(self, case, text):
        kind, key = case
        default = DEFAULTS[kind]()
        text = config_text(default, key) if text is None else text
        try:
            from_config = config.scenario_from_config({"plant.type": kind, key: text})
        except ConfigError:
            from_config = None
        plant = key.startswith("plant.")
        name, parser = (key.removeprefix("plant."), float) if plant else config._KEYS[key]
        try:
            value = parser(text)
        except (ValueError, TypeError, ConfigError):
            assert from_config is None
            return
        try:
            if plant:   # the plant's parameters keep their own check, a ValueError
                name, value = "plant_params", replace(default.plant_params, **{name: value})
            replaced = replace(default, **{name: value})
        except (ConfigError, ValueError):
            replaced = None
        assert (from_config is None) == (replaced is None), (kind, key, text)
        if replaced is not None:
            assert_same_scenario(from_config, replaced)

    @pytest.mark.parametrize("kind", DEFAULTS)
    @pytest.mark.parametrize("name, value", [
        ("to_n", 50.0), ("grid_n", 11.0), ("sim_substeps", 2.0), ("seed", 1.5),
        ("slope", None), ("v_limit", None), ("est_mask", None), ("T_f", "1000"),
        ("to_u_lim", "none"), ("name", None), ("est_mask", (1, 1, 0, 1, 1, 0))])
    def test_replace_refuses_a_wrong_type(self, kind, name, value):
        # A config file parses counts with int, floats with float, masks to
        # six bools and profiles with parse_pairs, so only replace can hand
        # these over; a stage or the report would die on them.
        with pytest.raises(ConfigError, match=name.removeprefix("est_")):
            replace(DEFAULTS[kind](), **{name: value})


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

    def test_forward_pushing_drag_is_refused(self, truck_sc, truck_fit):
        data, model, _, fit = truck_fit
        theta = model.theta.copy()
        theta[3] = 4.19e-5
        pushed = sysid.GrayBoxModel(theta=theta, mask=model.mask)
        with mock.patch.object(sysid, "fit_graybox", return_value=(pushed, fit)), \
                pytest.raises(EstimationError, match="theta4 = 4.19e-05"):
            harness.stage_estimate(truck_sc, data)

    def test_balance_input_follows_the_plant_parameters(self, truck_sc, car_sc):
        # The plant's kind is its parameter type: a truck scenario given
        # car parameters balances as the car does.
        sc = replace(truck_sc, plant_params=CarParams())
        for v in (0.0, 5.0, 13.9, 25.0):
            assert harness._balance_input(sc, v) == harness._balance_input(car_sc, v)

    def test_replace_scenario_copies(self, truck_sc):
        sc2 = replace(truck_sc, T_f=123.0)
        assert sc2.T_f == 123.0
        assert truck_sc.T_f != 123.0


def excitation_bits(sc):
    """(samples per PRBS bit, bits drawn) of ``sc``'s excitation run."""
    bit = max(1, int(round(40.0 / sc.est_h)))
    return bit, int(round(sc.est_duration / sc.est_h)) // bit + 1


def staircase(sc):
    """The excitation's balance-level staircase, without the PRBS."""
    v_max = float(np.max(sc.v_limit.values))
    levels = [harness._balance_input(sc, f * v_max)
              for f in (0.5, 0.85, 0.35, 0.7, 0.95, 0.45)]
    n = int(round(sc.est_duration / sc.est_h))
    hold = min(int(round(sc.est_hold / sc.est_h)), n)
    return np.array([levels[k // hold % len(levels)] for k in range(n)])


class TestPrbsSigns:
    @pytest.mark.parametrize("kind", ["truck", "car"])
    @pytest.mark.parametrize("seed", [1234, 1, 2])
    def test_are_the_draws_of_random_random(self, kind, seed):
        sc = stock_scenario(kind, seed)
        data = harness.stage_dataset(sc)
        bit, n_bits = excitation_bits(sc)
        # One sample per bit: the first of its hold.
        perturbation = (data.u[:-1] - staircase(sc))[::bit]
        rng = random.Random(seed)
        draws = [-1.0 if rng.random() < 0.5 else 1.0 for _ in range(n_bits)]
        assert len(draws) - 1 <= perturbation.size <= len(draws)
        np.testing.assert_array_equal(np.sign(perturbation), draws[:perturbation.size])

    def test_refuses_a_negative_seed(self, truck_sc):
        # random.Random(-1) would draw what random.Random(1) draws.
        with pytest.raises(ConfigError, match="seed"):
            replace(truck_sc, seed=-1)
        # A scenario is not frozen: the excitation run keeps its own guard.
        sc = replace(truck_sc)
        sc.seed = -1
        with pytest.raises(ValueError, match="seed"):
            harness.stage_dataset(sc)


class TestPrbsWithoutNumpyRandom:
    @pytest.mark.parametrize("kind", ["truck", "car"])
    @pytest.mark.parametrize("seed", [1234, 1, 2])
    def test_noise_continues_the_sign_draws(self, kind, seed):
        sc = replace(stock_scenario(kind, seed), est_noise=0.05)
        clean = harness.stage_dataset(replace(sc, est_noise=0.0))
        noisy = harness.stage_dataset(sc)
        rng = random.Random(seed)
        for _ in range(excitation_bits(sc)[1]):
            rng.random()
        want = clean.v + [rng.gauss(0.0, 0.05) for _ in range(clean.v.size)]
        assert noisy.v.tobytes() == want.tobytes()
        for name in ("t", "alpha", "u", "P"):
            assert getattr(noisy, name).tobytes() == getattr(clean, name).tobytes(), name

    def test_noise_free_runs_import_nothing(self, tmp_path):
        # numpy does not load numpy.random, and the runs draw from the
        # standard library's random, with or without measurement noise.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from dataclasses import replace\n"
             "from modru import config, harness\n"
             "before = set(sys.modules)\n"
             "harness.run_pipeline(config.default_truck_scenario(), out_dir=sys.argv[1] + '/t')\n"
             "harness.run_pipeline(config.default_car_scenario(), out_dir=sys.argv[1] + '/c')\n"
             "print(sorted(set(sys.modules) - before))\n"
             "harness.run_pipeline(replace(config.default_car_scenario(), est_noise=0.05))\n"
             "print('numpy.random' in sys.modules)\n",
             str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "False"]


class TestNoDecompositionDriver:
    def test_pipelines_call_no_svd_or_eigenvalue_driver(self, truck_sc, car_sc):
        # The fit and the gain schedule solve 4 x 4 and 2 x 2 problems by
        # Cholesky factorizations and LU solves; a run that called an SVD
        # or eigenvalue driver would page in about 1 MB more of LAPACK.
        with contextlib.ExitStack() as stack:
            for name in ("lstsq", "svd", "pinv", "eig", "eigvals", "eigh", "eigvalsh"):
                stack.enter_context(mock.patch.object(
                    np.linalg, name, side_effect=AssertionError(f"np.linalg.{name} called")))
            for sc in (truck_sc, car_sc):
                report, _ = harness.run_pipeline(sc)
                assert math.isfinite(report.E_realized)


class TestExcitationHold:
    @pytest.mark.parametrize("kind", ["truck", "car"])
    def test_a_hold_past_the_record_is_one_level(self, kind):
        # Every hold of the whole record or more gives the one-level staircase.
        sc = stock_scenario(kind, 1234)
        want = harness.stage_dataset(replace(sc, est_hold=sc.est_duration))
        got = harness.stage_dataset(replace(sc, est_hold=1e300))
        for name in ("t", "v", "alpha", "u", "P"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestReportIO:
    def test_round_trip(self, tmp_path):
        rep = harness.RunReport(
            name="x", plant_type="truck", seed=5, T_f=900.0,
            theta_hat=tuple(float(i) for i in range(1, 7)),
            theta_err=(0.1, 0.2, float("nan"), 0.4, 0.5, float("nan")),
            fit_nrmse=0.017, fit_converged=False, eff_gen_hat=1.1, eff_regen_hat=0.9,
            eff_gen_status="fitted", eff_regen_status="default",
            E_pred=1.5e6, E_realized=1.6e6,
            t_end_planned=899.4, t_terminal=899.5, tracking_rms=0.06,
            du_ratio=0.05, terminal_position_error=1.2, limit_overshoot=-2.0,
            n_velocity_clamps=3)
        path = tmp_path / "report.txt"
        write_keyvalues(path, rep.to_items())
        back = read_keyvalues(path)
        assert list(back) == list(rep.to_items())
        assert back["name"] == "x" and back["seed"] == "5"
        assert tuple(float(back[f"theta_hat{i}"]) for i in range(1, 7)) == rep.theta_hat
        assert float(back["E_pred"]) == rep.E_pred
        assert float(back["du_ratio"]) == rep.du_ratio
        assert (back["eff_gen_status"], back["eff_regen_status"]) == ("fitted", "default")
        assert (back["fit_converged"], back["n_velocity_clamps"]) == ("0", "3")
        assert np.isnan(float(back["theta_err3"]))
        assert float(back["theta_err4"]) == 0.4


@pytest.fixture(scope="module")
def nominal_run(truck_sc, truck_fit):
    _, model, eff, _ = truck_fit
    nom = nominal_scenario(truck_sc)
    schedule = harness.stage_schedule(nom, model)
    _, sol = harness.stage_plan(nom, model, eff)
    _, metrics = harness.stage_track(nom, model, schedule, sol)
    return nom, sol, metrics


class TestNominalPipeline:
    """On a gentle route, the realized energy must track the forecast."""

    def test_energy_forecast_holds(self, nominal_run):
        _, sol, metrics = nominal_run
        ratio = metrics["E_realized"] / sol.E
        assert 0.95 < ratio < 1.05

    def test_timing_and_tracking(self, nominal_run):
        nom, sol, metrics = nominal_run
        assert sol.t[-1] <= nom.T_f * (1.0 + 1e-6)
        assert metrics["t_terminal"] <= nom.T_f * 1.01
        assert metrics["tracking_rms"] < 0.2
        assert metrics["limit_overshoot"] < 0.5

    def test_default_reference_density(self, nominal_run):
        nom, sol, _ = nominal_run
        # The reference is the plan's nodes, one row each.
        assert sol.t.size == sol.x.size == sol.z.size == nom.to_n + 1


class TestTrackThePlan:
    """The plan itself is the reference, and the plant starts on it."""

    def test_car_stays_under_the_speed_cap(self, car_sc, car_fit):
        _, model, eff, _ = car_fit
        _, sol = harness.stage_plan(car_sc, model, eff)
        _, metrics = harness.stage_track(car_sc, model,
                                         harness.stage_schedule(car_sc, model), sol)
        assert metrics["limit_overshoot"] < 0.05

    # The feedforward is the plan's mean acceleration over each hold, which
    # is continuous in the plan's times.  A 1e-12 change of the times, carried
    # through at most 2,100 closed-loop steps (the truck's), then moves
    # E_realized only at rounding level, near 1e-12.  The bound leaves about
    # three decades for that and still fails, 300 times over, the 3e-7 jump
    # of the former per-segment lookup, whose acceleration fell to 0 past the
    # plan's end: the car plans at seeds 1 and 2 end 1.8e-11 s before
    # T_f = 75.2 s, on a sim.h sample.
    @pytest.mark.parametrize("kind", ["truck", "car"])
    @pytest.mark.parametrize("seed", [1234, 1, 2])
    def test_realized_energy_ignores_a_rounding_of_the_plan_times(self, kind, seed):
        sc = stock_scenario(kind, seed)
        model, eff, _ = harness.stage_estimate(sc, harness.stage_dataset(sc))
        schedule = harness.stage_schedule(sc, model)
        _, sol = harness.stage_plan(sc, model, eff)
        _, metrics = harness.stage_track(sc, model, schedule, sol)
        for scale in (1.0 - 1e-12, 1.0 + 1e-12):
            _, moved = harness.stage_track(sc, model, schedule, replace(sol, t=sol.t * scale))
            assert moved["E_realized"] == pytest.approx(metrics["E_realized"], rel=1e-9, abs=0)

    def test_a_run_short_of_the_route_end_raises(self, truck_sc, truck_fit, truck_schedule):
        # With no control authority the truck coasts to a stop short of the
        # end; the run used to report energy over the whole horizon.
        _, model, eff, _ = truck_fit
        _, sol = harness.stage_plan(truck_sc, model, eff)
        stalled = replace(truck_sc, ctrl_u_lim=1e-300)
        with pytest.raises(NumericalError, match=r"reached [\d.]+ of 10000 m in [\d.]+ s"):
            harness.stage_track(stalled, model, truck_schedule, sol)


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
        assert back["fit_converged"] == "1" and artifacts["fit"].converged
        assert int(back["n_velocity_clamps"]) == artifacts["metrics"]["n_velocity_clamps"]
        sol = artifacts["solution"]
        assert back["plan_exit"] == sol.exit == "gap"
        assert float(back["plan_gap_rel"]) == sol.gap_rel <= 1e-8
        assert int(back["plan_newton_iters"]) == sol.n_newton > 0
        assert back["plan_boundary"] == tempo.BOUNDARY_RULE
        assert set(artifacts) >= {"data", "model", "eff", "schedule",
                                  "solution", "trajectory", "metrics"}
        assert "reference" not in artifacts

    def test_realized_energy_charges_the_boundary_kinetic_energy(self, car_sc, car_fit):
        # E_realized takes the boundary rule's kinetic energy, as E_pred
        # does; a zero mass gives the same run without that charge.
        _, model, eff, _ = car_fit
        schedule = harness.stage_schedule(car_sc, model)
        _, sol = harness.stage_plan(car_sc, model, eff)
        traj, full = harness.stage_track(car_sc, model, schedule, sol)
        with mock.patch.object(harness, "input_mass", lambda p: 0.0):
            _, bare = harness.stage_track(car_sc, model, schedule, sol)
        v_end = np.interp(car_sc.path_length, traj.s, traj.v)
        kinetic = 0.5 * input_mass(car_sc.plant_params) * (traj.v[0] ** 2 - v_end ** 2)
        assert full["E_realized"] - bare["E_realized"] == pytest.approx(kinetic, rel=1e-9)


class TestCompareSlope:
    def test_both_runs_share_one_excitation_record(self, truck_sc, tmp_path):
        # The former compare-slope ran the whole pipeline once per mask,
        # excitation run included; the files of each run are unchanged.
        sc = replace(truck_sc, seed=1234)
        with mock.patch.object(harness, "stage_dataset",
                               wraps=harness.stage_dataset) as stage_dataset:
            results = harness.compare_slope_knowledge(sc, out_dir=tmp_path / "now")
        assert stage_dataset.call_count == 1
        for tag in ("slope-aware", "slope-blind"):
            report, model = results[tag]["report"], results[tag]["artifacts"]["model"]
            former = replace(sc, est_mask=tuple(bool(b) for b in model.mask),
                             name=report.name)
            harness.run_pipeline(former, out_dir=tmp_path / "former" / tag)
            names = sorted(f.name for f in (tmp_path / "now" / tag).iterdir())
            assert names == sorted(f.name for f in (tmp_path / "former" / tag).iterdir())
            for name in names:
                assert ((tmp_path / "now" / tag / name).read_bytes()
                        == (tmp_path / "former" / tag / name).read_bytes()), (tag, name)


def former_simulate_theta(theta, v0, u, alpha, h):
    """The gray-box RK4 as it was: the input term formed in every step."""
    t1, t2, t3, t4, t5, t6 = (float(t) for t in theta)
    h, v = float(h), float(v0)
    us, alphas = u.tolist(), alpha.tolist()
    out = [v]
    for k in range(len(us) - 1):
        uk, ak = us[k], alphas[k]
        c = t1 * uk + t2 + t5 * ak + t6 * ak * ak
        k1 = c + t3 * v + t4 * v * v
        x = v + 0.5 * h * k1
        k2 = c + t3 * x + t4 * x * x
        x = v + 0.5 * h * k2
        k3 = c + t3 * x + t4 * x * x
        x = v + h * k3
        k4 = c + t3 * x + t4 * x * x
        v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(v) or abs(v) > 1e5:
            return None
        out.append(v)
    return np.array(out[:len(us)])


def stock_scenario(kind, seed):
    base = {"truck": config.default_truck_scenario, "car": config.default_car_scenario}[kind]
    return replace(base(), seed=seed)


class TestGrayBoxSimulatedOnce:
    @pytest.mark.parametrize("kind", ["truck", "car"])
    def test_no_simulation_after_the_fit(self, kind, tmp_path, monkeypatch):
        calls, simulate, estimate = [], sysid._simulate_theta, harness.stage_estimate
        at_fit = []

        def counted(*args):
            calls.append(args)
            return simulate(*args)

        def counted_estimate(sc, data):
            out = estimate(sc, data)
            at_fit.append(len(calls))
            return out

        monkeypatch.setattr(sysid, "_simulate_theta", counted)
        monkeypatch.setattr(harness, "stage_estimate", counted_estimate)
        harness.run_pipeline(stock_scenario(kind, 1234), out_dir=tmp_path)
        assert at_fit[0] > 0
        assert len(calls) == at_fit[0]

    @pytest.mark.parametrize("kind", ["truck", "car"])
    @pytest.mark.parametrize("seed", [1234, 1, 2])
    def test_artifacts_equal_former_simulation_and_report(self, kind, seed, tmp_path):
        # The former code formed the input term in the RK4 loop and
        # simulated the fitted model once more for the report's fit_nrmse.
        sc = stock_scenario(kind, seed)
        harness.run_pipeline(sc, out_dir=tmp_path / "now")
        datasets, stage_dataset, run_report = [], harness.stage_dataset, harness._run_report

        def kept_dataset(sc):
            datasets.append(stage_dataset(sc))
            return datasets[-1]

        def former_run_report(sc, fit, model, eff, sol, metrics):
            return replace(run_report(sc, fit, model, eff, sol, metrics),
                           fit_nrmse=sysid.validate(model, datasets[-1]))

        with mock.patch.object(sysid, "_simulate_theta", former_simulate_theta), \
                mock.patch.object(harness, "stage_dataset", kept_dataset), \
                mock.patch.object(harness, "_run_report", former_run_report):
            harness.run_pipeline(sc, out_dir=tmp_path / "former")
        names = sorted(f.name for f in (tmp_path / "now").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "former").iterdir())
        for name in names:
            assert ((tmp_path / "now" / name).read_bytes()
                    == (tmp_path / "former" / name).read_bytes()), name


def former_scalar_lookup(xp, fp, kind):
    """PositionProfile.at as it was: every linear lookup bisects."""
    if len(xp) == 1:
        f0 = fp[0]
        return lambda x: f0
    if kind == "constant":
        return lambda x: fp[max(bisect_right(xp, x) - 1, 0)]
    last = len(xp) - 1
    slopes = [(fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) for j in range(last)]

    def at(x):
        j = bisect_right(xp, x) - 1
        if j < 0:
            return fp[0]
        if j == last:
            return x if x != x else fp[last]
        if xp[j] == x:
            return fp[j]
        y = slopes[j] * (x - xp[j]) + fp[j]
        if y != y:
            y = slopes[j] * (x - xp[j + 1]) + fp[j + 1]
            if y != y and fp[j] == fp[j + 1]:
                y = fp[j]
        return y

    return at


class TestCachedLookup:
    @pytest.mark.parametrize("kind", ["truck", "car"])
    @pytest.mark.parametrize("seed", [1234, 1, 2])
    def test_artifacts_equal_former_lookup(self, kind, seed, tmp_path):
        # Every profile is built under the patch, so the excitation run and
        # the closed loop both bisect at each RK4 stage.
        harness.run_pipeline(stock_scenario(kind, seed), out_dir=tmp_path / "now")
        with mock.patch.object(plant, "_scalar_lookup", former_scalar_lookup):
            sc = stock_scenario(kind, seed)
            assert sc.slope.at.__qualname__.startswith("former_scalar_lookup")
            harness.run_pipeline(sc, out_dir=tmp_path / "former")
        names = sorted(f.name for f in (tmp_path / "now").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "former").iterdir())
        for name in names:
            assert ((tmp_path / "now" / name).read_bytes()
                    == (tmp_path / "former" / name).read_bytes()), name


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


# Zeros of both signs, infinities, NaN, subnormals and the normal edges.
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 2.0 / 3.0]


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 1100),
           pool=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                         min_size=1, max_size=16),
           seed=st.integers(0, 2**32 - 1))
    @example(n=0, pool=SPECIAL_FLOATS, seed=0)
    @example(n=1, pool=SPECIAL_FLOATS, seed=1)
    @example(n=511, pool=SPECIAL_FLOATS, seed=2)
    @example(n=512, pool=SPECIAL_FLOATS, seed=3)
    @example(n=513, pool=SPECIAL_FLOATS, seed=4)
    @example(n=1024, pool=SPECIAL_FLOATS, seed=5)
    @example(n=1025, pool=SPECIAL_FLOATS, seed=6)
    def test_columns_format_as_cells(self, tmp_path_factory, n, pool, seed):
        # Chunked float columns and per-cell formatting give the same bytes,
        # on both sides of every 512-row chunk boundary.
        rng = random.Random(seed)
        floats = np.array(rng.choices(pool, k=n))
        with np.errstate(over="ignore"):
            single = floats.astype(np.float32)
        mixed = [True, False, np.True_, 1, 2, 0.5, "x", *pool]
        columns = [floats, single, np.arange(n) - n // 2,
                   [chr(97 + rng.randrange(26)) for _ in range(n)], rng.choices(mixed, k=n)]
        header = ["f64", "f32", "int", "str", "mixed"]
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_csv(path, header, columns, meta={"E": np.float64(1.5), "ok": True})
        rows = [",".join(format_value(c[i]) for c in columns) for i in range(n)]
        want = ["# E = 1.5", "# ok = 1", ",".join(header)] + rows
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_write_memory_is_one_chunk(self, tmp_path):
        # Five float columns, as in dataset.csv: the traced peak of a write is
        # one chunk's, whatever the record's length.  Formatting whole columns
        # peaked at 0.5 MB for 2,000 rows and at 3.4 MB for 20,000.
        peaks = []
        for n in (2_000, 20_000):
            columns = [np.linspace(0.0, 1.0, n) + k for k in range(5)]
            tracemalloc.start()
            try:
                write_csv(tmp_path / "t.csv", list("abcde"), columns)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 100_000, peaks


def fitted_theta(entries):
    """Patch ``sysid.fit_graybox`` to return its fit with the given
    {index: value} entries of theta replaced."""
    fit_graybox = sysid.fit_graybox

    def fit(data, mask):
        model, result = fit_graybox(data, mask=mask)
        theta = model.theta.copy()
        for i, value in entries.items():
            theta[i] = value
        return sysid.GrayBoxModel(theta=theta, mask=model.mask), result

    return mock.patch.object(sysid, "fit_graybox", fit)


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
        ("plan", "vlim.breakpoints = 0:-5", []),
        ("plan", "vlim.breakpoints = 0:25, 100:0", []),
        ("plan", "vlim.breakpoints = 0:0", []),
        ("pipeline", "vlim.breakpoints = 0:1e300", []),
        ("simulate", "est.duration = 1e300\nest.h = 1e-300", []),
        # Profile kinds are fixed and to.u_lim spells "no bound" only as none.
        ("plan", "slope.kind = constant", []),
        ("plan", "vlim.kind = linear", []),
        ("plan", "to.u_lim = auto", []),
        ("estimate", "est.hold = 0", []),
        ("estimate", "est.hold = -60", []),
        # est.h is 0.2 s on the car.
        ("estimate", "est.hold = 0.1", []),
        ("simulate", "est.duration = 1e-9\nest.h = 1e-10\nest.hold = 1e300", []),
        # The planner is convex only without the velocity-linear term.
        ("pipeline", "est.mask = 1,1,1,1,1,1", []),
        # The planner's start speed L/T_f would square to 0.
        ("pipeline", "to.T_f = 1e300", []),
        ("pipeline", "path.length = 1e-300", []),
    ], ids=["T_f_nan", "u_lim", "gamma", "gen", "regen_high", "regen_zero", "mask", "M_one",
            "M_negative", "mode_pseudo", "fit_efficiency", "slope_inf", "vlim_nan",
            "hold_nan", "plant_m_nan", "noise", "duration_short",
            "seed_key", "seed_flag_simulate", "seed_flag_pipeline", "seed_flag_robustness",
            "vlim_negative", "vlim_zero_end", "vlim_zero", "vlim_huge", "duration_overflow",
            "slope_kind", "vlim_kind", "u_lim_auto", "hold_zero", "hold_negative",
            "hold_below_sample", "hold_overflow", "mask_th3", "T_f_huge", "length_tiny"])
    def test_bad_config_values_fail_before_any_work(self, tmp_path, capsys,
                                                    command, lines, flags):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("plant.type = car\n" + lines + "\n")
        # robustness reads no config file and takes no --config.
        config_args = [] if command == "robustness" else ["--config", str(cfg)]
        out = tmp_path / "out"
        started = AssertionError("work started")
        with mock.patch.object(harness, "stage_dataset", side_effect=started), \
                mock.patch.object(lqr, "robustness_sweep", side_effect=started):
            rc = cli.main([command, *config_args, *flags, "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_energy_earning_plant_fails_before_any_work(self, tmp_path, capsys):
        # A negative rolling resistance used to run to exit 0 with the truck
        # earning 3.1 MJ by driving.
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.c_r = -0.01\n")
        out = tmp_path / "out"
        with mock.patch.object(harness, "stage_dataset",
                               side_effect=AssertionError("work started")):
            rc = cli.main(["pipeline", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_robustness_refuses_a_config_file(self, tmp_path, capsys):
        # The sweep reads no scenario, so a config file is a bad argument.
        cfg = tmp_path / "bad.conf"
        cfg.write_text("to.T_f = nonsense\n")
        with mock.patch.object(lqr, "robustness_sweep",
                               side_effect=AssertionError("work started")), \
                pytest.raises(SystemExit) as exc:
            cli.main(["robustness", "--config", str(cfg), "--taus", "0",
                      "--methods", "model-based", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_unusable_path_fails_before_any_work(self, tmp_path, capsys, flag):
        # A directory given as the config file, or a file as the output
        # directory.
        taken = tmp_path / "taken"
        taken.write_text("")
        args = ["--config", str(tmp_path), "--out", str(tmp_path / "out")] \
            if flag == "--config" else ["--out", str(taken)]
        with mock.patch.object(harness, "stage_dataset",
                               side_effect=AssertionError("work started")):
            rc = cli.main(["simulate", *args])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_writes_dataset(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.duration = 120\n")
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _, cols, _ = read_csv(out / "dataset.csv")
        # 120 s at the car step of 0.2 s, grid inclusive of both ends
        assert cols["t"].size == 601

    def test_hold_longer_than_the_record_runs(self, tmp_path):
        # The hold of 2e300 samples used to overflow np.arange(n) // hold.
        cfg = tmp_path / "run.conf"
        cfg.write_text("est.hold = 1e300\n")
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report.txt").exists()

    def test_overflowing_warm_start_is_a_numerical_failure(self, tmp_path, capsys):
        # Noise this large overflows v * v in the warm-start regressors.
        cfg = tmp_path / "run.conf"
        cfg.write_text("plant.type = car\nest.noise = 1e300\n")
        rc = cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_flat_excitation_route_is_a_numerical_failure(self, tmp_path, capsys):
        # No slope on the excitation route leaves the active slope term
        # without a regressor.
        cfg = tmp_path / "run.conf"
        cfg.write_text("est.slope_amp = 0\n")
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: gray-box warm-start regression is rank deficient\n")
        assert not (out / "report.txt").exists()

    def test_forward_pushing_drag_is_a_numerical_failure(self, tmp_path, capsys):
        # theta4 = +4.19e-5 is what est.noise = 100 fitted on one excitation
        # draw; unrefused, it planned a 457 s trip of T_f = 1000 s and
        # realized 1.54 times its forecast.
        with fitted_theta({3: 4.19e-5}):
            rc = cli.main(["pipeline", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "drag term theta4" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_run_short_of_the_route_end_is_a_numerical_failure(self, tmp_path, capsys):
        # The truck stops at about 1.8 of 10 km; the run used to exit 0 with
        # E_realized a sixth of E_pred, t_terminal = inf and a report.
        cfg = tmp_path / "run.conf"
        cfg.write_text("ctrl.u_lim = 1e-300\n")
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert re.match(r"numerical failure: the closed loop reached [\d.]+ of 10000 m in ",
                        capsys.readouterr().err)
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("command, text, theta", [
        # A fitted input gain theta1 < 0 (-1.7e-7 on one excitation draw of
        # this lag, against 2.5e-4 true) gives the PI design at v = 0 a gain <= 0.
        ("pipeline", "plant.T_m = 1e5\n", {0: -1.7e-7}),
        ("plan", "eff.gen = 1e160\n", {}),   # the planner's Newton weight overflows
        ("plan", "eff.gen = 1e300\n", {}),   # the fitted generation factor is inf
    ], ids=["T_m", "gen_overflow", "gen_inf"])
    def test_failed_design_is_a_numerical_failure(self, tmp_path, capsys, command, text,
                                                 theta):
        cfg = tmp_path / "run.conf"
        cfg.write_text(text)
        with fitted_theta(theta):
            rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_budget_fails_without_runtime_warnings(self, tmp_path, capsys):
        # A budget of 1e150 s overflows the planner's Newton terms; the
        # loop's finiteness check reports that, and nothing else reaches stderr.
        cfg = tmp_path / "run.conf"
        cfg.write_text("to.T_f = 1e150\n")
        rc = cli.main(["pipeline", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: an interior-point Newton term is not finite\n")

    @pytest.mark.parametrize("command, text", [("pipeline", ""),
                                               ("pipeline", "plant.type = car\n"),
                                               ("estimate", "")],
                             ids=["truck", "car", "estimate"])
    def test_default_runs_write_nothing_to_stderr(self, tmp_path, command, text):
        # The report carries the fit's and the efficiency factors' statuses;
        # in a fresh process warnings would reach stderr.
        cfg = tmp_path / "run.conf"
        cfg.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "modru", command, "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr

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
