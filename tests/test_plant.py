"""Vehicle simulator tests: profiles, force balances, RK4/ZOH integration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modru.errors import SimulationDivergence
from modru.plant import (CarParams, PlantState, PositionProfile, TruckParams,
                         _car_rhs, _rk4, _truck_rhs, constant_profile,
                         simulate, step_efficiency)
from modru.tables import read_csv

FLAT = constant_profile(0.0)


def balance_torque(p: TruckParams, v: float) -> float:
    """Motor torque holding speed v on flat road."""
    force = p.c_r * p.m * p.g + 0.5 * p.rho_a * p.c_d * p.A_f * v * v
    return force * p.R


class TestPositionProfile:
    def test_constant_kind_holds_between_breakpoints(self):
        prof = PositionProfile(np.array([0.0, 100.0]), np.array([25.0, 7.0]),
                               "constant")
        assert prof.value(0.0) == 25.0
        assert prof.value(99.9) == 25.0
        assert prof.value(100.0) == 7.0
        assert prof.value(1e9) == 7.0

    def test_linear_kind_interpolates(self):
        prof = PositionProfile(np.array([0.0, 10.0]), np.array([0.0, 0.04]),
                               "linear")
        assert prof.value(5.0) == pytest.approx(0.02)
        # endpoint hold outside the breakpoint range
        assert prof.value(-5.0) == 0.0
        assert prof.value(50.0) == pytest.approx(0.04)

    def test_vectorized_evaluation(self):
        prof = PositionProfile(np.array([0.0, 1.0]), np.array([1.0, 3.0]),
                               "linear")
        np.testing.assert_allclose(prof.value(np.array([0.0, 0.5, 1.0])),
                                   [1.0, 2.0, 3.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PositionProfile(np.array([0.0, 1.0]), np.array([1.0]), "linear")
        with pytest.raises(ValueError):
            PositionProfile(np.array([1.0, 0.0]), np.array([1.0, 2.0]), "linear")
        with pytest.raises(ValueError):
            PositionProfile(np.array([0.0]), np.array([1.0]), "spline")


def test_step_efficiency_regimes():
    assert step_efficiency(5.0) == 1.1
    assert step_efficiency(0.0) == 1.1
    assert step_efficiency(-5.0) == 0.9
    np.testing.assert_allclose(step_efficiency(np.array([-1.0, 1.0]), 1.2, 0.8),
                               [0.8, 1.2])


class TestTruck:
    def test_zero_input_flat_road_stays_at_rest(self):
        traj = simulate(TruckParams(), np.zeros(50), FLAT,
                        PlantState(s=0.0, v=0.0, u_m=0.0), h=0.5)
        np.testing.assert_array_equal(traj.v, 0.0)
        np.testing.assert_array_equal(traj.s, 0.0)

    def test_balance_torque_holds_speed(self):
        p = TruckParams()
        u_bal = balance_torque(p, 20.0)
        assert u_bal == pytest.approx(364.44)
        traj = simulate(p, np.full(200, u_bal), FLAT,
                        PlantState(s=0.0, v=20.0, u_m=u_bal), h=0.5, substeps=2)
        np.testing.assert_allclose(traj.v, 20.0, atol=1e-9)

    def test_motor_lag_first_order(self):
        # With v pinned by a balance torque step, u_m approaches the
        # command as 1 - exp(-t / T_m).
        p = TruckParams(T_m=2.0)
        traj = simulate(p, np.full(100, 1000.0), FLAT,
                        PlantState(s=0.0, v=5.0, u_m=0.0), h=0.05, substeps=4)
        expect = 1000.0 * (1.0 - math.exp(-traj.t[40] / p.T_m))
        assert traj.u_m[40] == pytest.approx(expect, rel=1e-6)

    def test_lag_free_limit_tracks_command(self):
        # u_m[0] logs the initial state; tracking starts one sample in
        p = TruckParams(T_m=0.0)
        traj = simulate(p, np.full(10, 500.0), FLAT,
                        PlantState(s=0.0, v=10.0, u_m=0.0), h=0.5)
        np.testing.assert_allclose(traj.u_m[1:], 500.0)

    def test_gravity_decelerates_uphill(self):
        p = TruckParams()
        _, dv_flat, _ = _truck_rhs(0.0, 15.0, 300.0, 300.0, 0.0, p)
        _, dv_up, _ = _truck_rhs(0.0, 15.0, 300.0, 300.0, 0.02, p)
        assert dv_up < dv_flat
        assert dv_flat - dv_up == pytest.approx(
            p.g * (math.sin(0.02) + p.c_r * (math.cos(0.02) - 1.0)), rel=1e-12)


class TestCar:
    def test_power_clamp(self):
        p = CarParams()
        _, dv_capped, _ = _car_rhs(0.0, 10.0, 0.0, 1e9, 0.0, p)
        _, dv_at_max, _ = _car_rhs(0.0, 10.0, 0.0, p.u_max, 0.0, p)
        assert dv_capped == dv_at_max

    def test_acceleration_clamp(self):
        p = CarParams()
        _, dv, _ = _car_rhs(0.0, 1.0, 0.0, p.u_max, 0.0, p)
        assert dv == p.a_lim

    def test_force_command_drives_forward(self):
        # simulate() converts a traction-force command to power at the
        # interval-start velocity.
        traj = simulate(CarParams(), np.full(50, 500.0), FLAT,
                        PlantState(s=0.0, v=10.0), h=0.2)
        assert traj.v[-1] > 10.0
        assert np.all(np.diff(traj.s) > 0)


class TestSimulate:
    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate(TruckParams(), np.zeros(5), FLAT, h=0.0)
        with pytest.raises(ValueError):
            simulate(TruckParams(), lambda k, t, s, v: (0.0, 0.0, 0.0), FLAT)
        with pytest.raises(ValueError):
            simulate(TruckParams(), np.zeros(5), FLAT, n=10)

    def test_divergence_guard(self):
        # a sustained drive force this large settles above the velocity
        # guard, so the integrator bails out within a few steps
        with pytest.raises(SimulationDivergence):
            simulate(TruckParams(T_m=0.0), np.full(120, 1.3e6), FLAT,
                     PlantState(v=1.0), h=0.5)

    def test_callback_matches_open_loop(self):
        u = np.linspace(100.0, 400.0, 30)
        p = TruckParams()
        x0 = PlantState(v=12.0, u_m=u[0])
        a = simulate(p, u, FLAT, x0, h=0.5)
        b = simulate(p, lambda k, t, s, v: (float(u[k]), float(u[k]), 0.0),
                     FLAT, x0, h=0.5, n=30)
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.s, b.s)

    def test_substep_refinement_converges(self):
        slope = PositionProfile(np.array([0.0, 500.0, 1000.0]),
                                np.array([0.0, 0.03, -0.01]), "linear")
        u = np.full(60, 900.0)
        x0 = PlantState(v=15.0, u_m=900.0)
        coarse = simulate(TruckParams(), u, slope, x0, h=0.5, substeps=1)
        fine = simulate(TruckParams(), u, slope, x0, h=0.5, substeps=16)
        assert np.max(np.abs(coarse.v - fine.v)) < 1e-5

    def test_velocity_clamp_counted(self):
        traj = simulate(TruckParams(), np.zeros(40), FLAT,
                        PlantState(v=0.5, u_m=0.0), h=1.0)
        assert traj.n_velocity_clamps > 0
        assert traj.v.min() == 0.0

    def test_power_column_and_energy(self):
        p = TruckParams()
        u_bal = balance_torque(p, 20.0)
        traj = simulate(p, np.full(20, u_bal), FLAT,
                        PlantState(v=20.0, u_m=u_bal), h=0.5)
        # steady drive: P = gen * u * v
        np.testing.assert_allclose(traj.P[:-1], 1.1 * u_bal * 20.0, rtol=1e-9)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        traj = simulate(TruckParams(), np.linspace(200, 600, 25), FLAT,
                        PlantState(v=17.3, u_m=200.0), h=0.5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header, cols, _ = read_csv(path)
        assert header == ["t", "s", "v", "u", "u_s", "du", "P"]
        for name in header:
            np.testing.assert_array_equal(getattr(traj, name), cols[name],
                                          err_msg=name)


# The per-plant RK4 loops that the shared ``_rk4`` replaced, kept verbatim
# (the car's rhs call adapted to the shared signature) as its oracles.
def rk4_truck_oracle(s, v, um, u, slope, p, dt, substeps):
    for _ in range(substeps):
        a1 = slope.value(s)
        k1 = _truck_rhs(s, v, um, u, a1, p)
        s2, v2, um2 = s + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], um + 0.5 * dt * k1[2]
        k2 = _truck_rhs(s2, v2, um2, u, slope.value(s2), p)
        s3, v3, um3 = s + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], um + 0.5 * dt * k2[2]
        k3 = _truck_rhs(s3, v3, um3, u, slope.value(s3), p)
        s4, v4, um4 = s + dt * k3[0], v + dt * k3[1], um + dt * k3[2]
        k4 = _truck_rhs(s4, v4, um4, u, slope.value(s4), p)
        s += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        um += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return s, v, um


def rk4_car_oracle(s, v, u_power, slope, p, dt, substeps):
    def rhs(s, v, u_power, alpha, p):
        return _car_rhs(s, v, 0.0, u_power, alpha, p)

    for _ in range(substeps):
        k1 = rhs(s, v, u_power, slope.value(s), p)
        s2, v2 = s + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1]
        k2 = rhs(s2, v2, u_power, slope.value(s2), p)
        s3, v3 = s + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1]
        k3 = rhs(s3, v3, u_power, slope.value(s3), p)
        s4, v4 = s + dt * k3[0], v + dt * k3[1]
        k4 = rhs(s4, v4, u_power, slope.value(s4), p)
        s += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return s, v


@settings(max_examples=300, deadline=None)
@given(truck=st.booleans(), T_m=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
       s=st.floats(0.0, 150.0), v=st.floats(-1.0, 40.0),
       um=st.floats(-5000.0, 5000.0), u=st.floats(-1e5, 1e5),
       grades=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3),
       kind=st.sampled_from(["linear", "constant"]),
       dt=st.floats(1e-3, 1.0), substeps=st.integers(1, 4))
def test_shared_rk4_equals_per_plant_loops(truck, T_m, s, v, um, u, grades, kind,
                                           dt, substeps):
    slope = PositionProfile(np.array([0.0, 60.0, 140.0]), np.array(grades), kind)
    if truck:
        p = TruckParams(T_m=T_m)
        got = _rk4(_truck_rhs, s, v, um, u, slope, p, dt, substeps)
        assert got == rk4_truck_oracle(s, v, um, u, slope, p, dt, substeps)
    else:
        p = CarParams()
        got = _rk4(_car_rhs, s, v, 0.0, u, slope, p, dt, substeps)
        assert got == rk4_car_oracle(s, v, u, slope, p, dt, substeps) + (0.0,)
