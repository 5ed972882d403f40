"""Tracking controller tests: schedule design, feedforward, anti-windup PI."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modru import controller as ctl
from modru.lqr import c2d_zoh
from modru.sysid import GrayBoxModel
from modru.tables import read_csv


# The truck's LQ weights (config.Scenario).
RHO = {"rho_I": 0.01, "rho_u": 2e-5}


def make_schedule(kp=2.0, ti=5.0, h=0.1):
    return ctl.GainSchedule(v_grid=np.array([0.0]), K_P=np.array([kp]),
                            T_I=np.array([ti]), h=h, **RHO)


class TestDiscretizeNode:
    # The schedule's scalar node dv/dt = a v + b u, discretized as
    # build_gain_schedule does it.
    def test_exact_scalar_zoh(self):
        a, b, h = -0.5, 2.0, 0.1
        A_d, B_d = c2d_zoh(np.array([[a]]), np.array([[b]]), h)
        assert A_d[0, 0] == pytest.approx(math.exp(a * h), rel=1e-13)
        assert B_d[0, 0] == pytest.approx(b * (math.exp(a * h) - 1.0) / a, rel=1e-13)

    def test_integrator_limit(self):
        A_d, B_d = c2d_zoh(np.array([[0.0]]), np.array([[2.0]]), 0.1)
        assert A_d[0, 0] == 1.0
        assert B_d[0, 0] == pytest.approx(0.2, rel=1e-13)


class TestGainSchedule:
    def test_interpolation_and_endpoint_hold(self):
        sched = ctl.GainSchedule(v_grid=np.array([0.0, 10.0]),
                                 K_P=np.array([1.0, 3.0]),
                                 T_I=np.array([2.0, 4.0]), h=0.5, **RHO)
        assert sched.gains(5.0) == pytest.approx((2.0, 3.0), rel=1e-12)
        assert sched.gains(-1.0) == (1.0, 2.0)
        assert sched.gains(99.0) == (3.0, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ctl.GainSchedule(np.array([0.0, 1.0]), np.array([1.0]),
                             np.array([1.0, 1.0]), h=0.5, **RHO)
        with pytest.raises(ValueError):
            ctl.GainSchedule(np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                             np.array([1.0, 1.0]), h=0.5, **RHO)
        with pytest.raises(ValueError):
            ctl.GainSchedule(np.array([0.0]), np.array([1.0]),
                             np.array([0.0]), h=0.5, **RHO)
        with pytest.raises(ValueError):
            make_schedule(h=0.0)
        # NaN fails too.
        with pytest.raises(ValueError, match="sample time"):
            make_schedule(h=math.nan)
        with pytest.raises(ValueError, match="integral times"):
            make_schedule(ti=math.nan)

    def test_csv_round_trip(self, tmp_path):
        sched = ctl.GainSchedule(v_grid=np.array([0.0, 7.5, 20.0]),
                                 K_P=np.array([1.25, 2.5, 3.75]),
                                 T_I=np.array([4.0, 5.5, 7.0]),
                                 h=0.5, rho_I=0.01, rho_u=2e-5)
        path = tmp_path / "sched.csv"
        sched.to_csv(path)
        header, cols, meta = read_csv(path)
        assert header == ["v_r", "K_P", "T_I"]
        np.testing.assert_array_equal(sched.v_grid, cols["v_r"])
        np.testing.assert_array_equal(sched.K_P, cols["K_P"])
        np.testing.assert_array_equal(sched.T_I, cols["T_I"])
        assert float(meta["h"]) == sched.h and float(meta["rho_I"]) == sched.rho_I
        assert float(meta["rho_u"]) == sched.rho_u

    def test_design_stabilizes_augmented_model(self):
        model = GrayBoxModel(theta=np.array([1.0, 0.0, -0.1, -0.002, 0.0, 0.0]))
        sched = ctl.build_gain_schedule(model, np.linspace(0.0, 20.0, 5),
                                        h=0.5, rho_I=0.01, rho_u=1.0)
        assert np.all(sched.K_P > 0) and np.all(sched.T_I > 0)
        # gains vary along the grid because the linearization does
        assert np.ptp(sched.K_P) > 0
        for v in sched.v_grid:
            a = -0.1 + 2.0 * (-0.002) * v
            A_d, B_d = c2d_zoh(np.array([[a]]), np.array([[1.0]]), 0.5)
            A = np.array([[A_d[0, 0], 0.0], [1.0, 1.0]])
            B = np.array([[B_d[0, 0]], [0.0]])
            kp, ti = sched.gains(v)
            K = np.array([[kp, kp / ti]])
            assert np.abs(np.linalg.eigvals(A - B @ K)).max() < 1.0


class TestFeedforward:
    def test_inverts_the_model(self):
        model = GrayBoxModel(theta=np.array([2.5e-4, -0.06, 0.0, -8e-5,
                                             -9.81, 0.03]))
        t1, t2, t3, t4, t5, t6 = model.theta
        for v, a, al in [(0.0, 0.0, 0.0), (18.0, 0.3, 0.02), (6.0, -0.5, -0.04)]:
            u = ctl.feedforward(v, a, al, model)
            dv = t1 * u + t2 + t3 * v + t4 * v * v + t5 * al + t6 * al * al
            assert dv == pytest.approx(a, abs=1e-12)

    def test_vectorized(self):
        model = GrayBoxModel(theta=np.array([1.0, 0.0, -0.1, 0.0, 0.0, 0.0]))
        v = np.array([0.0, 5.0, 10.0])
        u = ctl.feedforward(v, np.zeros(3), np.zeros(3), model)
        np.testing.assert_allclose(u, 0.1 * v, rtol=1e-12)


class TestControlStep:
    def test_matches_direct_pi_while_unsaturated(self, rng):
        kp, ti = 2.0, 5.0
        e_seq = rng.standard_normal(200)
        w = 0.0
        acc = 0.0
        for k, e in enumerate(e_seq):
            u, u_s, du, w = ctl.control_step(w, v_ref=0.0, v=-e, u_ff=0.0,
                                             kp=kp, ti=ti, u_lim=1e12)
            want = kp * e + (kp / ti) * acc
            assert du == pytest.approx(want, abs=1e-9)
            assert u == u_s
            acc += e

    def test_saturation_and_bounded_windup(self):
        w = 0.0
        for _ in range(500):
            u, u_s, du, w = ctl.control_step(w, v_ref=50.0, v=0.0, u_ff=0.0,
                                             kp=10.0, ti=4.0, u_lim=100.0)
        assert u_s == 100.0
        assert du == 100.0
        # the integral channel settles at the feedback share, not beyond
        assert w == pytest.approx(100.0, rel=1e-6)

    def test_feedback_share_excludes_feedforward(self):
        _, u_s, du, _ = ctl.control_step(0.0, v_ref=10.0, v=10.0, u_ff=340.0,
                                         kp=1.0, ti=10.0, u_lim=1e6)
        assert u_s == 340.0 and du == 0.0

    def test_non_finite_reference_gives_a_non_finite_command(self):
        # Nothing here checks the inputs: simulate refuses the command.
        u, u_s, _, _ = ctl.control_step(0.0, math.nan, 0.0, 0.0, 2.0, 5.0, 100.0)
        assert math.isnan(u) and math.isnan(u_s)


def bits(x) -> bytes:
    return struct.pack("<d", float(x))


def feedforward_oracle(v_ref, a_ref, alpha, model):
    # The NumPy-array feedforward the float one replaced, verbatim.
    t1, t2, t3, t4, t5, t6 = model.theta
    v = np.asarray(v_ref, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    return (np.asarray(a_ref, dtype=float) - t2 - t3 * v - t4 * v * v
            - t5 * alpha - t6 * alpha ** 2) / t1


class TestBitEquality:
    """The Python-float feedforward against NumPy, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(theta=st.lists(st.floats(-10.0, 10.0).filter(lambda x: abs(x) > 1e-6),
                          min_size=6, max_size=6),
           ops=st.lists(st.tuples(st.floats(0.0, 40.0), st.floats(-3.0, 3.0),
                                  st.floats(-0.1, 0.1)), min_size=1, max_size=8))
    def test_feedforward_equals_numpy_formula(self, theta, ops):
        model = GrayBoxModel(theta=np.array(theta))
        for v, a, al in ops:
            assert bits(ctl.feedforward(v, a, al, model)) == \
                bits(feedforward_oracle(v, a, al, model))
        v, a, al = (np.array(c) for c in zip(*ops))
        np.testing.assert_array_equal(ctl.feedforward(v, a, al, model),
                                      feedforward_oracle(v, a, al, model))
