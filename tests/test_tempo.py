"""Timing-optimization tests: objective algebra, solver, resampling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modru import tempo
from modru.errors import InfeasibleError
from modru.plant import PositionProfile
from modru.sysid import EfficiencyParams, GrayBoxModel

FLAT = PositionProfile(np.array([0.0, 10_000.0]), np.zeros(2), "linear")


def flat_limit(v):
    return PositionProfile(np.array([0.0, 10_000.0]), np.array([v, v]),
                           "constant")


def hand_model(t1=0.5):
    return GrayBoxModel(theta=np.array([t1, 0.0, 0.0, 0.0, 0.0, 0.0]))


def truck_like_model():
    return GrayBoxModel(theta=np.array([2.5e-4, -0.06, 0.0, -8e-5,
                                        -9.81, 0.03]))


class TestObjective:
    def test_hand_computed_drive_energy(self):
        # v = (10, 20), vdot = 1 everywhere, u = vdot/t1 = 2, eta = 1:
        # E = 2*10*10 + 2*20*5 = 400.
        p = tempo.TOProblem(x=np.array([0.0, 100.0, 200.0]),
                            alpha=np.zeros(2), v_lim=np.array([25.0, 25.0]),
                            T_f=15.0, vdot_lim=10.0, model=hand_model(),
                            eff=EfficiencyParams(1.0, 1.0), gamma=1.0)
        E, parts = tempo.evaluate_objective(p, np.array([10.0, 5.0]))
        assert E == pytest.approx(400.0, rel=1e-12)
        np.testing.assert_allclose(parts["v_r"], [10.0, 20.0], rtol=1e-12)
        np.testing.assert_allclose(parts["a_r"], [1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(parts["u_r"], [2.0, 2.0], rtol=1e-12)

    def test_regen_weight_on_braking(self):
        # v = (10, 5), vdot = -0.5, u = -1; with gamma huge eta = regen:
        # E = 0.8*(-1)*(10*10 + 5*20) = -160.
        p = tempo.TOProblem(x=np.array([0.0, 100.0, 200.0]),
                            alpha=np.zeros(2), v_lim=np.array([25.0, 25.0]),
                            T_f=40.0, vdot_lim=10.0, model=hand_model(),
                            eff=EfficiencyParams(1.2, 0.8), gamma=1e6)
        E, parts = tempo.evaluate_objective(p, np.array([10.0, 20.0]))
        assert E == pytest.approx(-160.0, rel=1e-12)
        np.testing.assert_allclose(parts["eta"], [0.8, 0.8], rtol=1e-12)

    def test_pseudo_mode_constant_speed_costs_nothing(self):
        p = tempo.TOProblem(x=np.array([0.0, 50.0, 100.0]), alpha=np.zeros(2),
                            v_lim=np.array([15.0, 15.0]), T_f=30.0,
                            vdot_lim=10.0, model=None,
                            eff=EfficiencyParams(), gamma=0.4, mode="pseudo")
        E, parts = tempo.evaluate_objective(p, np.array([5.0, 5.0]))
        assert E == 0.0
        np.testing.assert_array_equal(parts["u_r"], [0.0, 0.0])

    def test_rejects_bad_durations(self):
        p = tempo.TOProblem(x=np.array([0.0, 50.0, 100.0]), alpha=np.zeros(2),
                            v_lim=np.array([15.0, 15.0]), T_f=30.0,
                            vdot_lim=10.0, model=None,
                            eff=EfficiencyParams(), gamma=0.4, mode="pseudo")
        with pytest.raises(ValueError):
            tempo.evaluate_objective(p, np.array([5.0]))
        with pytest.raises(ValueError):
            tempo.evaluate_objective(p, np.array([5.0, -1.0]))


class TestBuildProblem:
    def test_grid_and_segment_caps(self):
        v_limit = PositionProfile(np.array([0.0, 450.0]),
                                  np.array([20.0, 10.0]), "constant")
        slope = PositionProfile(np.array([0.0, 1000.0]),
                                np.array([0.01, 0.03]), "linear")
        p = tempo.build_problem(1000.0, 10, 200.0, slope, v_limit,
                                None, mode="pseudo", vdot_lim=1.0)
        assert p.x.size == 11 and p.n_segments == 10
        np.testing.assert_allclose(p.x, np.linspace(0.0, 1000.0, 11))
        np.testing.assert_allclose(p.alpha, 0.01 + 0.02 * p.x[:-1] / 1000.0)
        # the cap drop at 450 m already binds the segment [400, 500]
        np.testing.assert_allclose(p.v_lim[:4], 20.0)
        np.testing.assert_allclose(p.v_lim[4:], 10.0)

    def test_auto_gamma(self):
        p = tempo.build_problem(100.0, 2, 20.0, FLAT, flat_limit(15.0), None,
                                mode="pseudo", vdot_lim=0.8)
        assert p.gamma == pytest.approx(4.0 / 0.8, rel=1e-12)
        model = GrayBoxModel(theta=np.array([2e-4, -0.06, 0.0, 0.0, 0.0, 0.0]))
        p = tempo.build_problem(1000.0, 4, 100.0, FLAT, flat_limit(15.0),
                                model, vdot_lim=1.0)
        # holding v = 10 takes u = 0.06/2e-4 = 300
        assert p.gamma == pytest.approx(4.0 / 300.0, rel=1e-12)

    def test_infeasible_budget_raises_upfront(self):
        with pytest.raises(InfeasibleError):
            tempo.build_problem(1000.0, 5, 60.0, FLAT, flat_limit(15.0),
                                None, mode="pseudo")

    def test_problem_is_frozen(self):
        p = tempo.build_problem(100.0, 2, 20.0, FLAT, flat_limit(15.0), None,
                                mode="pseudo")
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.T_f = 5.0

    def test_h_min(self):
        p = tempo.build_problem(100.0, 4, 20.0, FLAT, flat_limit(12.5), None,
                                mode="pseudo")
        np.testing.assert_allclose(p.h_min, 2.0)

    def test_dx_and_h_min_are_computed_once_and_read_only(self):
        p = tempo.build_problem(100.0, 4, 20.0, FLAT, flat_limit(12.5), None,
                                mode="pseudo")
        assert p.dx is p.dx and p.h_min is p.h_min
        np.testing.assert_array_equal(p.dx, np.diff(p.x))
        for arr in (p.dx, p.h_min):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestInit:
    def test_uniform_when_caps_are_loose(self):
        p = tempo.TOProblem(x=np.linspace(0.0, 100.0, 5), alpha=np.zeros(4),
                            v_lim=np.full(4, 100.0), T_f=8.0, vdot_lim=10.0,
                            model=None, eff=EfficiencyParams(), gamma=0.4,
                            mode="pseudo")
        np.testing.assert_allclose(tempo.default_h_init(p), 2.0, rtol=1e-12)

    def test_binding_caps_absorb_the_slack(self):
        p = tempo.TOProblem(x=np.array([0.0, 50.0, 100.0]), alpha=np.zeros(2),
                            v_lim=np.array([50.0 / 3.0, 5.0]), T_f=13.0,
                            vdot_lim=10.0, model=None, eff=EfficiencyParams(),
                            gamma=0.4, mode="pseudo")
        h0 = tempo.default_h_init(p)
        np.testing.assert_allclose(h0, [3.0, 10.0], rtol=1e-12)
        assert np.all(h0 >= p.h_min)


class TestSolve:
    def test_two_segment_optimum_races_then_coasts(self):
        p = tempo.build_problem(100.0, 2, 9.0, FLAT, flat_limit(15.0), None,
                                mode="pseudo", vdot_lim=10.0)
        sol = tempo.solve(p)
        assert sol.feasible
        # the energy-optimal split pins the first segment at the cap
        h_star = np.array([10.0 / 3.0, 17.0 / 3.0])
        np.testing.assert_allclose(sol.h, h_star, rtol=5e-4)
        E_star, _ = tempo.evaluate_objective(p, h_star)
        assert sol.E <= E_star + 1e-6 * abs(E_star)
        np.testing.assert_allclose(sol.t, [0.0, sol.h[0], sol.h.sum()],
                                   rtol=1e-12)

    def test_no_worse_than_uniform_on_flat_road(self):
        p = tempo.build_problem(2000.0, 20, 160.0, FLAT, flat_limit(25.0),
                                truck_like_model(), vdot_lim=0.7, u_lim=1500.0)
        sol = tempo.solve(p)
        assert sol.feasible
        E_uniform, _ = tempo.evaluate_objective(p, tempo.default_h_init(p))
        assert sol.E <= E_uniform + 1e-9 * abs(E_uniform)
        assert sol.h.sum() <= p.T_f * (1.0 + 2e-6)
        assert np.all(sol.v_r <= p.v_lim * (1.0 + 2e-6))

    def test_slopes_reshape_the_plan(self):
        slope = PositionProfile(np.array([0.0, 800.0, 1000.0, 1600.0,
                                          1800.0, 2400.0]),
                                np.array([0.0, 0.0, 0.03, 0.03, 0.0, 0.0]),
                                "linear")
        p = tempo.build_problem(2400.0, 24, 200.0, slope, flat_limit(25.0),
                                truck_like_model(), vdot_lim=0.7, u_lim=2000.0)
        sol = tempo.solve(p)
        assert sol.feasible
        E_uniform, _ = tempo.evaluate_objective(p, tempo.default_h_init(p))
        assert sol.E < E_uniform - 1e-3 * abs(E_uniform)
        assert np.ptp(sol.v_r) > 0.1

    def test_input_bound_is_respected(self):
        p = tempo.build_problem(2000.0, 20, 170.0, FLAT, flat_limit(25.0),
                                truck_like_model(), vdot_lim=0.7, u_lim=420.0)
        sol = tempo.solve(p)
        assert sol.feasible
        assert np.abs(sol.u_r).max() <= 420.0 * (1.0 + 2e-6)

    def test_tight_budget_pins_the_caps(self):
        p = tempo.build_problem(500.0, 10, 500.0 / 12.5, FLAT,
                                flat_limit(12.5), None, mode="pseudo",
                                vdot_lim=5.0)
        sol = tempo.solve(p)
        assert sol.feasible
        np.testing.assert_allclose(sol.h, p.h_min, rtol=1e-6)

    def test_unreachable_acceleration_bound_flags_infeasible(self):
        # cap drops mid-segment: 25 -> 2.5 needs |vdot| far above 0.5
        v_limit = PositionProfile(np.array([0.0, 75.0]),
                                  np.array([25.0, 2.5]), "constant")
        p = tempo.build_problem(100.0, 2, 22.4, FLAT, v_limit, None,
                                mode="pseudo", vdot_lim=0.5)
        sol = tempo.solve(p)
        assert not sol.feasible

    def test_scale_invariance_of_input_units(self):
        # dividing th1 by c rescales u by c; the auto gamma tracks it, so
        # per-sample energy terms scale by exactly c at matching durations.
        m1 = truck_like_model()
        theta2 = m1.theta.copy()
        theta2[0] /= 1000.0
        m2 = GrayBoxModel(theta=theta2)
        args = (1200.0, 12, 110.0, FLAT, flat_limit(25.0))
        p1 = tempo.build_problem(*args, m1, vdot_lim=0.7)
        p2 = tempo.build_problem(*args, m2, vdot_lim=0.7)
        h = tempo.default_h_init(p1) * np.linspace(0.9, 1.1, 12)
        E1, _ = tempo.evaluate_objective(p1, h)
        E2, _ = tempo.evaluate_objective(p2, h)
        assert E2 == pytest.approx(1000.0 * E1, rel=1e-9)
        # the solver normalizes internally, so a plan carried across the
        # unit change warm-starts to at least as good an objective
        s1 = tempo.solve(p1)
        s2 = tempo.solve(p2, h_init=s1.h)
        assert s2.feasible
        assert s2.E <= 1000.0 * s1.E + 1e-4 * abs(1000.0 * s1.E)

    def test_rejects_malformed_h_init(self):
        p = tempo.build_problem(600.0, 6, 60.0, FLAT, flat_limit(15.0), None,
                                mode="pseudo", vdot_lim=1.0)
        with pytest.raises(ValueError):
            tempo.solve(p, h_init=np.array([5.0]))
        with pytest.raises(ValueError):
            tempo.solve(p, h_init=np.full(6, np.nan))
        with pytest.raises(ValueError):
            tempo.solve(p, h_init=np.array([10.0, 10.0, np.inf, 10.0, 10.0, 10.0]))

    def test_objective_scale_constant_does_not_move_the_plan(self):
        # eff.scale is a reporting constant; it must leave the plan alone
        m1 = truck_like_model()
        args = (1200.0, 12, 110.0, FLAT, flat_limit(25.0))
        p1 = tempo.build_problem(*args, m1, vdot_lim=0.7)
        p2 = tempo.build_problem(*args, m1, eff=EfficiencyParams(scale=7.0),
                                 vdot_lim=0.7)
        s1 = tempo.solve(p1)
        s2 = tempo.solve(p2)
        assert np.array_equal(s1.h, s2.h)


def batched_merit_grad(p, H, lam, rho, e_scale):
    """Reference: central differences of the merit over 2N full perturbed rows."""
    n = H.size
    d = 1e-6 * np.maximum(H, 1e-6)
    idx = np.arange(n)
    Hp = np.tile(H, (n, 1))
    Hm = Hp.copy()
    Hp[idx, idx] += d
    Hm[idx, idx] -= d
    Hm = np.maximum(Hm, 1e-12)

    def merit(Hrows):
        v, _, vdot_ind, u, eta = tempo._kinematics(p, Hrows)
        E = tempo.energy_terms(eta, u, v, Hrows).sum(axis=-1) / e_scale
        g = tempo._constraints(p, Hrows.sum(axis=-1, keepdims=True), vdot_ind, u)
        t = np.maximum(0.0, lam + rho * g)
        return E + ((t * t).sum(axis=-1) - (lam * lam).sum()) / (2.0 * rho)

    return (merit(Hp) - merit(Hm)) / (d + (H - Hm[idx, idx]))


class TestMeritGradient:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 40), mode=st.sampled_from(["pseudo", "full"]),
           input_bound=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_band_local_equals_batched(self, n, mode, input_bound, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(20.0, 120.0, n))])
        v_lim = rng.uniform(8.0, 25.0, n)
        h_min = np.diff(x) / v_lim
        model = None
        if mode == "full":
            theta = truck_like_model().theta * rng.uniform(0.5, 1.5, 6)
            model = GrayBoxModel(theta=theta)
        u_lim = float(rng.uniform(100.0, 800.0)) if input_bound else None
        p = tempo.TOProblem(
            x=x, alpha=rng.uniform(-0.03, 0.03, n), v_lim=v_lim,
            T_f=float(h_min.sum() * rng.uniform(1.05, 2.0)),
            vdot_lim=float(rng.uniform(0.3, 2.0)), model=model,
            eff=EfficiencyParams(float(rng.uniform(1.0, 1.3)),
                                 float(rng.uniform(0.6, 1.0))),
            gamma=float(10.0 ** rng.uniform(-3.0, 1.0)), mode=mode,
            u_lim=u_lim)
        # Durations at the speed caps for some segments, above for others.
        H = h_min * np.where(rng.random(n) < 0.3, 1.0,
                             1.0 + rng.uniform(0.0, 1.5, n))
        n_con = tempo._residuals(p, H).size
        lam = np.where(rng.random(n_con) < 0.5, 0.0,
                       rng.uniform(0.0, 3.0, n_con))
        rho = float(10.0 ** rng.uniform(-1.0, 4.0))
        e_scale = float(10.0 ** rng.uniform(-3.0, 6.0))
        g = tempo._merit_grad(p, H, lam, rho, e_scale)
        assert np.array_equal(g, batched_merit_grad(p, H, lam, rho, e_scale))


@pytest.fixture(scope="module")
def taper_plan():
    # caps step up after a short entry, then taper down well before the
    # terminus, so the optimal plan ends in level cruise rather than a
    # last-segment brake.  A level tail keeps the forward-difference
    # energy bookkeeping stable under regridding.
    slope = PositionProfile(np.array([0.0, 2000.0]),
                            np.array([0.002, 0.002]), "linear")
    caps = PositionProfile(np.array([0.0, 200.0, 1800.0, 2000.0]),
                           np.array([7.0, 12.5, 6.5, 6.5]), "constant")
    p = tempo.build_problem(2000.0, 60, 218.3, slope, caps,
                            truck_like_model(), vdot_lim=0.7, u_lim=600.0)
    return p, tempo.solve(p)


class TestResample:
    def test_uniform_grid_and_terminal_position(self, taper_plan):
        p, sol = taper_plan
        ref = tempo.resample_equidistant(sol, p, 81)
        assert ref.t.size == 81
        assert ref.t[0] == 0.0 and ref.t[-1] == pytest.approx(sol.t[-1])
        np.testing.assert_allclose(np.diff(ref.t), ref.h, rtol=1e-9)
        assert ref.x[-1] == p.x[-1]
        assert np.all(np.diff(ref.x) > 0)

    def test_energy_survives_resampling(self, taper_plan):
        p, sol = taper_plan
        assert sol.feasible
        ref = tempo.resample_equidistant(sol, p, 4 * p.n_segments)
        E_ref = tempo.reference_energy(ref, p)
        assert E_ref == pytest.approx(sol.E, rel=0.02)

    def test_needs_two_samples(self, taper_plan):
        p, sol = taper_plan
        with pytest.raises(ValueError):
            tempo.resample_equidistant(sol, p, 1)


class TestSolutionIO:
    def test_csv_round_trip(self, tmp_path):
        p = tempo.build_problem(100.0, 2, 9.0, FLAT, flat_limit(15.0), None,
                                mode="pseudo", vdot_lim=10.0)
        sol = tempo.solve(p)
        path = tmp_path / "plan.csv"
        sol.to_csv(path, p)
        back = tempo.TOSolution.from_csv(path)
        np.testing.assert_array_equal(sol.h, back.h)
        np.testing.assert_array_equal(sol.t, back.t)
        np.testing.assert_array_equal(sol.v_r, back.v_r)
        np.testing.assert_array_equal(sol.u_r, back.u_r)
        assert back.E == sol.E and back.feasible == sol.feasible
