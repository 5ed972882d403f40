"""Vehicle simulator tests: profiles, force balances, RK4/ZOH integration."""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modru.errors import SimulationDivergence
from modru.plant import (V_DIVERGED, V_EPS, CarParams, PlantState, PositionProfile,
                         Trajectory, TruckParams, _car_rhs, _rk4, _truck_rhs,
                         simulate, step_efficiency)
from modru.tables import read_csv

FLAT = PositionProfile([0.0], [0.0], "constant")


def open_loop(u):
    """Controller callback applying the commands ``u`` open loop."""
    u = np.asarray(u, dtype=float).tolist()
    return lambda k, s, v: (u[k], u[k], 0.0)


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

    @pytest.mark.parametrize("bp, fp", [
        ([math.nan], [0.0]), ([0.0, math.inf], [0.0, 1.0]), ([-math.inf, 0.0], [1.0, 1.0]),
        ([0.0, 300.0], [13.9, math.nan]), ([0.0, 1.0], [math.inf, 0.01])],
        ids=["nan_bp", "inf_bp", "neg_inf_bp", "nan_value", "inf_value"])
    def test_rejects_non_finite_data(self, bp, fp):
        with pytest.raises(ValueError, match="finite"):
            PositionProfile(np.array(bp), np.array(fp), "linear")

    def test_overflowing_offset_takes_the_nan_retry(self):
        # x - xp[0] overflows to inf and slope 0 times inf is NaN; like
        # np.interp, the lookup retries from the right end.
        prof = PositionProfile(np.array([-1.7e308, 1.7e308]), np.array([2.0, 2.0]))
        assert prof.at(1e308) == prof.value(1e308) == 2.0


def test_step_efficiency_regimes():
    assert step_efficiency(5.0) == 1.1
    assert step_efficiency(0.0) == 1.1
    assert step_efficiency(-5.0) == 0.9
    np.testing.assert_allclose(step_efficiency(np.array([-1.0, 1.0]), 1.2, 0.8),
                               [0.8, 1.2])


class TestTruck:
    def test_zero_input_flat_road_stays_at_rest(self):
        traj = simulate(TruckParams(), open_loop(np.zeros(50)), FLAT,
                        PlantState(s=0.0, v=0.0, u_m=0.0), h=0.5, n=50)
        np.testing.assert_array_equal(traj.v, 0.0)
        np.testing.assert_array_equal(traj.s, 0.0)

    def test_balance_torque_holds_speed(self):
        p = TruckParams()
        u_bal = balance_torque(p, 20.0)
        assert u_bal == pytest.approx(364.44)
        traj = simulate(p, open_loop(np.full(200, u_bal)), FLAT,
                        PlantState(s=0.0, v=20.0, u_m=u_bal), h=0.5, n=200, substeps=2)
        np.testing.assert_allclose(traj.v, 20.0, atol=1e-9)

    def test_motor_lag_first_order(self):
        # A torque step of 1000 N m from u_m = 0: u_m approaches the
        # command as 1 - exp(-t / T_m), over 40 intervals of h = 0.05 s with
        # four RK4 substeps each.
        p = TruckParams(T_m=2.0)
        _, _, u_m = _rk4(_truck_rhs(p, FLAT.at), 0.0, 5.0, 0.0, 1000.0, 0.0125, 160)
        assert u_m == pytest.approx(1000.0 * (1.0 - math.exp(-2.0 / p.T_m)), rel=1e-6)

    def test_lag_free_limit_tracks_command(self):
        # Without a lag the motor torque is the command from the first
        # interval on, whatever u_m the run starts from.
        p = TruckParams(T_m=0.0)
        traj = simulate(p, open_loop(np.full(10, 500.0)), FLAT,
                        PlantState(s=0.0, v=10.0, u_m=0.0), h=0.5, n=10)
        rhs = _truck_rhs(p, FLAT.at)
        for k in range(10):
            s, v, u_m = _rk4(rhs, float(traj.s[k]), float(traj.v[k]), 500.0, 500.0, 0.5, 1)
            assert (s, v, u_m) == (traj.s[k + 1], traj.v[k + 1], 500.0)

    def test_gravity_decelerates_uphill(self):
        p = TruckParams()
        _, dv_flat, _ = _truck_rhs(p, lambda s: 0.0)(0.0, 15.0, 300.0, 300.0)
        _, dv_up, _ = _truck_rhs(p, lambda s: 0.02)(0.0, 15.0, 300.0, 300.0)
        assert dv_up < dv_flat
        assert dv_flat - dv_up == pytest.approx(
            p.g * (math.sin(0.02) + p.c_r * (math.cos(0.02) - 1.0)), rel=1e-12)

    def test_nan_velocity_raises(self):
        # v clamped at zero in the force balance leaves s frozen at 0 and v
        # NaN; the divergence guard must still see it.
        with pytest.raises(SimulationDivergence):
            simulate(TruckParams(), open_loop(np.zeros(5)), FLAT, PlantState(v=math.nan),
                     n=5)


class TestCar:
    def test_power_clamp(self):
        p = CarParams()
        rhs = _car_rhs(p, FLAT.at)
        _, dv_capped, _ = rhs(0.0, 10.0, 0.0, 1e9)
        _, dv_at_max, _ = rhs(0.0, 10.0, 0.0, p.u_max)
        assert dv_capped == dv_at_max

    def test_acceleration_clamp(self):
        p = CarParams()
        _, dv, _ = _car_rhs(p, FLAT.at)(0.0, 1.0, 0.0, p.u_max)
        assert dv == p.a_lim

    def test_force_command_drives_forward(self):
        # simulate() converts a traction-force command to power at the
        # interval-start velocity.
        traj = simulate(CarParams(), open_loop(np.full(50, 500.0)), FLAT,
                        PlantState(s=0.0, v=10.0), h=0.2, n=50)
        assert traj.v[-1] > 10.0
        assert np.all(np.diff(traj.s) > 0)

    def test_nan_velocity_raises(self):
        # The velocity floor turns NaN into zero force velocity, so only the
        # divergence guard can catch it.
        with pytest.raises(SimulationDivergence):
            simulate(CarParams(), open_loop(np.zeros(5)), FLAT, PlantState(v=math.nan), n=5)


class TestSimulate:
    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate(TruckParams(), open_loop(np.zeros(5)), FLAT, h=0.0, n=5)

    def test_divergence_guard(self):
        # a sustained drive force this large settles above the velocity
        # guard, so the integrator bails out within a few steps
        with pytest.raises(SimulationDivergence):
            simulate(TruckParams(T_m=0.0), open_loop(np.full(120, 1.3e6)), FLAT,
                     PlantState(v=1.0), h=0.5, n=120)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_command_raises(self, u):
        # The tracker's control_step checks none of its inputs; a
        # non-finite command it passes on stops the run here.
        with pytest.raises(SimulationDivergence, match="non-finite command at step 2"):
            simulate(TruckParams(), open_loop([0.0, 0.0, u, 0.0, 0.0]), FLAT,
                     PlantState(v=10.0), n=5)

    def test_substep_refinement_converges(self):
        slope = PositionProfile(np.array([0.0, 500.0, 1000.0]),
                                np.array([0.0, 0.03, -0.01]), "linear")
        u = open_loop(np.full(60, 900.0))
        x0 = PlantState(v=15.0, u_m=900.0)
        coarse = simulate(TruckParams(), u, slope, x0, h=0.5, n=60, substeps=1)
        fine = simulate(TruckParams(), u, slope, x0, h=0.5, n=60, substeps=16)
        assert np.max(np.abs(coarse.v - fine.v)) < 1e-5

    def test_velocity_clamp_counted(self):
        traj = simulate(TruckParams(), open_loop(np.zeros(40)), FLAT,
                        PlantState(v=0.5, u_m=0.0), h=1.0, n=40)
        assert traj.n_velocity_clamps > 0
        assert traj.v.min() == 0.0

    def test_power_column_and_energy(self):
        p = TruckParams()
        u_bal = balance_torque(p, 20.0)
        traj = simulate(p, open_loop(np.full(20, u_bal)), FLAT,
                        PlantState(v=20.0, u_m=u_bal), h=0.5, n=20)
        # steady drive: P = gen * u * v
        np.testing.assert_allclose(traj.P[:-1], 1.1 * u_bal * 20.0, rtol=1e-9)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        traj = simulate(TruckParams(), open_loop(np.linspace(200, 600, 25)), FLAT,
                        PlantState(v=17.3, u_m=200.0), h=0.5, n=25)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header, cols, _ = read_csv(path)
        assert header == ["t", "s", "v", "u", "u_s", "du", "P"]
        for name in header:
            np.testing.assert_array_equal(getattr(traj, name), cols[name],
                                          err_msg=name)


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


# The plant code before the Python-float loop, kept verbatim (names
# prefixed oracle_) as the oracle of the hoisted closures, the one _rk4 and
# PositionProfile.at.
def oracle_truck_rhs(s, v, u_m, u, alpha, p: TruckParams):
    # v clamped at zero for force evaluation; the simulator enforces v >= 0.
    v_eff = v if v > 0.0 else 0.0
    f_air = 0.5 * p.rho_a * p.c_d * p.A_f * v_eff * v_eff
    f_grade = p.m * p.g * (math.sin(alpha) + p.c_r * math.cos(alpha))
    dv = (u_m / p.R - f_air - f_grade) / p.m
    if p.T_m > 0.0:
        du_m = (u - u_m) / p.T_m
    else:
        du_m = 0.0
    return v_eff, dv, du_m


def oracle_car_rhs(s, v, u_m, u_power, alpha, p: CarParams):
    # Same signature as _truck_rhs; the car has no motor state (u_m unused).
    v_eff = v if v > 0.0 else 0.0
    power = min(max(u_power, p.u_min), p.u_max)
    f_air = 0.5 * p.rho_a * p.c_d * p.A_f * v_eff * v_eff
    f_roll = p.c_r * p.m * p.g * math.cos(alpha)
    f_grade = p.m * p.g * math.sin(alpha)
    dv = (power / max(v_eff, V_EPS) - f_air - f_roll - f_grade) / p.m
    dv = min(max(dv, -p.a_lim), p.a_lim)
    return v_eff, dv, 0.0


def oracle_rk4(rhs, s, v, um, u, slope, p, dt, substeps):
    """``substeps`` classical RK4 steps of ``rhs(s, v, um, u, alpha, p)``."""
    for _ in range(substeps):
        k1 = rhs(s, v, um, u, slope.value(s), p)
        s2, v2, um2 = s + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1], um + 0.5 * dt * k1[2]
        k2 = rhs(s2, v2, um2, u, slope.value(s2), p)
        s3, v3, um3 = s + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1], um + 0.5 * dt * k2[2]
        k3 = rhs(s3, v3, um3, u, slope.value(s3), p)
        s4, v4, um4 = s + dt * k3[0], v + dt * k3[1], um + dt * k3[2]
        k4 = rhs(s4, v4, um4, u, slope.value(s4), p)
        s += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        um += dt / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return s, v, um


def oracle_simulate(params, controller, slope, x0, h, n, substeps, efficiency):
    is_truck = isinstance(params, TruckParams)
    gen, regen = efficiency
    dt = h / substeps
    t = np.arange(n + 1) * h
    s = np.empty(n + 1)
    v = np.empty(n + 1)
    u_arr = np.zeros(n + 1)
    us_arr = np.zeros(n + 1)
    du_arr = np.zeros(n + 1)
    clamps = 0

    sk, vk, umk = float(x0.s), float(x0.v), float(x0.u_m)
    for k in range(n + 1):
        s[k], v[k] = sk, vk
        if k == n:
            break
        u_raw, u_sat, du = controller(k, sk, vk)
        if not (math.isfinite(u_raw) and math.isfinite(u_sat)):
            raise SimulationDivergence(f"non-finite command at step {k}")
        u_arr[k], us_arr[k], du_arr[k] = u_raw, u_sat, du

        if is_truck:
            if params.T_m == 0.0:
                umk = u_sat
            sk, vk, umk = oracle_rk4(oracle_truck_rhs, sk, vk, umk, u_sat, slope, params,
                                     dt, substeps)
        else:
            u_power = min(max(u_sat * max(vk, V_EPS), params.u_min), params.u_max)
            sk, vk, _ = oracle_rk4(oracle_car_rhs, sk, vk, 0.0, u_power, slope, params,
                                   dt, substeps)
        if vk < 0.0:
            vk = 0.0
            clamps += 1
        if abs(vk) > V_DIVERGED or not math.isfinite(sk):
            raise SimulationDivergence(f"velocity diverged at t={t[k + 1]:.3f}")

    # Hold the last command in the terminal sample so columns stay aligned.
    if n > 0:
        u_arr[n], us_arr[n], du_arr[n] = u_arr[n - 1], us_arr[n - 1], du_arr[n - 1]
    P = step_efficiency(us_arr, gen, regen) * us_arr * v
    return Trajectory(t=t, s=s, v=v, u=u_arr, u_s=us_arr, du=du_arr, P=P,
                      n_velocity_clamps=clamps)


PLANTS = st.one_of(st.sampled_from([0.0, 0.3, 1.0, 4.0]).map(lambda T_m: TruckParams(T_m=T_m)),
                   st.just(CarParams()))


def command_scale(p) -> float:
    """Model-unit command that accelerates the plant by about 1 m/s^2."""
    return p.m * p.R if isinstance(p, TruckParams) else p.m


# Finite floats with the special values drawn often: a profile rejects
# non-finite breakpoints and values.
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.7e308, -1.7e308]),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def profile_and_queries(draw):
    """A linear profile's breakpoints and values from EDGE_FLOATS, and
    positions that walk, jump back and stop on its breakpoints."""
    bp = sorted(draw(st.lists(EDGE_FLOATS, min_size=1, max_size=6, unique=True)))
    fp = draw(st.lists(EDGE_FLOATS, min_size=len(bp), max_size=len(bp)))
    mids = [0.5 * a + 0.5 * b for a, b in zip(bp, bp[1:])]
    points = st.one_of(st.sampled_from(bp + mids), st.floats(),
                       st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1.7e308]))
    # A straight walk from a to b in n steps, forward or back; between a
    # breakpoint and a midpoint every step stays in one segment.
    walks = st.tuples(points, points, st.integers(1, 12)).map(
        lambda w: [w[0] * (1.0 - i / w[2]) + w[1] * (i / w[2]) for i in range(w[2] + 1)])
    chunks = draw(st.lists(st.one_of(points.map(lambda x: [x]), walks), max_size=8))
    return bp, fp, [x for chunk in chunks for x in chunk]


def assert_lookups_equal_value(prof, xs):
    with np.errstate(all="ignore"):
        for x in xs:
            assert bits(prof.at(x)) == bits(prof.value(x)), x


class TestBitEquality:
    """The Python-float loop against NumPy and the oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(bp=st.lists(EDGE_FLOATS, min_size=1, max_size=6, unique=True).map(sorted),
           kind=st.sampled_from(["linear", "constant"]), data=st.data())
    def test_scalar_lookup_equals_value(self, bp, kind, data):
        fp = data.draw(st.lists(EDGE_FLOATS, min_size=len(bp), max_size=len(bp)))
        prof = PositionProfile(np.array(bp), np.array(fp), kind)
        lo, hi = sorted(min(max(b, -1e308), 1e308) for b in (bp[0], bp[-1]))
        xs = (bp + [0.0, -0.0, math.nan, math.inf, -math.inf, bp[0] - 1.0, bp[-1] + 1.0]
              + [0.5 * a + 0.5 * b for a, b in zip(bp, bp[1:])]
              + data.draw(st.lists(st.floats(lo, hi), max_size=4))
              + data.draw(st.lists(st.floats(), max_size=4)))
        assert_lookups_equal_value(prof, xs)

    # PositionProfile.at caches the last segment it found; each query must
    # equal np.interp whatever the queries before it.
    @settings(max_examples=300, deadline=None)
    @given(case=profile_and_queries())
    # Warm on the segment, then x - lo overflows and slope 0 times inf is NaN.
    @example(case=([-1.7e308, 1.7e308], [1.0, 1.0], [0.0, 1.0e308]))
    # Warm, then the left breakpoint: 1.0 * 0.0 + -0.0 is +0.0, not fp[0].
    @example(case=([0.0, 1.0], [-0.0, 1.0], [0.5, 0.0]))
    # Warm, then the right breakpoint: the interpolant rounds to 0.09999...
    @example(case=([0.1, 0.2], [0.7, 0.1], [0.15, 0.2]))
    # Past the last breakpoint there is no segment to keep.
    @example(case=([0.0, 1.0], [1.0, -0.0], [2.0, 3.0]))
    def test_cached_lookup_sequence_equals_value(self, case):
        bp, fp, xs = case
        assert_lookups_equal_value(PositionProfile(np.array(bp), np.array(fp)), xs)

    @settings(max_examples=200, deadline=None)
    @given(first=profile_and_queries(), second=profile_and_queries())
    def test_alternating_lookups_equal_value(self, first, second):
        # stage_track looks the grade up from its callback and from the
        # plant's dynamics in turn; each profile keeps its own cache.
        (bp_a, fp_a, xs), (bp_b, fp_b, ys) = first, second
        a = PositionProfile(np.array(bp_a), np.array(fp_a))
        b = PositionProfile(np.array(bp_b), np.array(fp_b))
        for x, y in itertools.zip_longest(xs, ys, fillvalue=0.0):
            for prof, q in ((a, x), (b, y), (a, y), (b, x)):
                assert_lookups_equal_value(prof, [q])

    @settings(max_examples=300, deadline=None)
    @given(p=PLANTS, kind=st.sampled_from(["linear", "constant"]),
           grades=st.lists(st.floats(-0.08, 0.08), min_size=3, max_size=3),
           s=st.floats(-10.0, 150.0), v=st.floats(-1.0, 40.0),
           um=st.floats(-5000.0, 5000.0), u=st.floats(-1e5, 1e5))
    def test_rhs_equals_oracle(self, p, kind, grades, s, v, um, u):
        slope = PositionProfile(np.array([0.0, 60.0, 140.0]), np.array(grades), kind)
        truck = isinstance(p, TruckParams)
        want = (oracle_truck_rhs if truck else oracle_car_rhs)(s, v, um, u,
                                                              slope.value(s), p)
        got = (_truck_rhs if truck else _car_rhs)(p, slope.at)(s, v, um, u)
        assert [bits(x) for x in got] == [bits(x) for x in want]

    @settings(max_examples=200, deadline=None)
    @given(p=PLANTS, kind=st.sampled_from(["linear", "constant"]),
           grades=st.lists(st.floats(-0.08, 0.08), min_size=1, max_size=5),
           v0=st.floats(0.0, 30.0), um0=st.floats(-1.0, 1.0),
           h=st.floats(0.05, 1.0), substeps=st.integers(1, 4),
           levels=st.lists(st.floats(-1.5, 1.5), min_size=0, max_size=40),
           closed_loop=st.booleans())
    # Braking from walking pace: both runs clamp v at zero.
    @example(p=TruckParams(), kind="constant", grades=[0.0], v0=0.5, um0=0.0, h=1.0,
             substeps=1, levels=[-1.0] * 10, closed_loop=False)
    @example(p=CarParams(), kind="linear", grades=[0.0, 0.05], v0=0.5, um0=0.0, h=0.5,
             substeps=3, levels=[-1.0] * 10, closed_loop=False)
    def test_simulate_equals_oracle(self, p, kind, grades, v0, um0, h, substeps, levels,
                                    closed_loop):
        slope = PositionProfile(np.linspace(0.0, 200.0, len(grades)), np.array(grades),
                                kind)
        scale = command_scale(p)
        x0 = PlantState(s=0.0, v=v0, u_m=um0 * scale)
        n = len(levels)
        if closed_loop:
            u_lim = 1.2 * scale

            def inputs(k, s, v):
                # Proportional speed loop around a drifting target, saturated.
                u = scale * (levels[k] + 0.5 * (10.0 + math.sin(0.1 * (k * h)) - v))
                u_s = min(max(u, -u_lim), u_lim)
                return u, u_s, u_s - scale * levels[k]
        else:
            inputs = open_loop(scale * np.array(levels))
        args = (p, inputs, slope, x0, h)
        kw = dict(n=n, substeps=substeps, efficiency=(1.1, 0.9))
        try:
            want = oracle_simulate(*args, **kw)
        except SimulationDivergence:
            with pytest.raises(SimulationDivergence):
                simulate(*args, **kw)
            return
        got = simulate(*args, **kw)
        for name in ("t", "s", "v", "u", "u_s", "du", "P"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                          err_msg=name)
        assert got.n_velocity_clamps == want.n_velocity_clamps
