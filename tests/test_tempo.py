"""Timing-optimization tests: objective algebra, solver, oracle, reference."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modru import config, harness, tempo
from modru.errors import InfeasibleError, NumericalError
from modru.plant import PositionProfile, step_efficiency
from modru.sysid import EfficiencyParams, GrayBoxModel
from modru.tables import read_csv

FLAT = PositionProfile(np.array([0.0, 10_000.0]), np.zeros(2), "linear")


def flat_limit(v):
    return PositionProfile(np.array([0.0, 10_000.0]), np.array([v, v]),
                           "constant")


def hand_model(t1=0.5):
    return GrayBoxModel(theta=np.array([t1, 0.0, 0.0, 0.0, 0.0, 0.0]))


def unit_model():
    """The gray box u = a, of mass 1: it scores only the speed shape."""
    return hand_model(1.0)


def truck_like_model():
    return GrayBoxModel(theta=np.array([2.5e-4, -0.06, 0.0, -8e-5,
                                        -9.81, 0.03]))


def constant_speed(p, v):
    """Squared node speeds of driving the whole route at speed v."""
    return np.full(p.n_segments + 1, float(v) ** 2)


# -- reference formulation ---------------------------------------------------

def affine_input(p):
    """(al, be, ga) with u_k = al z_k + be z_{k+1} + ga (t3 = 0)."""
    s = 0.5 / p.dx
    t1, t2, t3, t4, t5, t6 = p.model.theta
    assert t3 == 0.0
    return ((-s - 0.5 * t4) / t1, (s - 0.5 * t4) / t1,
            -(t2 + t5 * p.alpha + t6 * p.alpha ** 2) / t1)


def node_caps(p):
    """Squared speed cap of each node: the smaller cap of its segments."""
    v = p.v_lim
    return np.minimum(np.append(v, np.inf), np.insert(v, 0, np.inf)) ** 2


def segment_time(p, z):
    """h_k of the plan z and its derivatives in z_k and z_{k+1}."""
    a, b = np.sqrt(z[:-1]), np.sqrt(z[1:])
    S = a + b
    return 2.0 * p.dx / S, -p.dx / (a * S * S), -p.dx / (b * S * S)


def violation(p, z):
    """Worst relative violation of the plan z's constraints (<= 0 if none)."""
    _, parts = tempo.evaluate_objective(p, z)
    worst = [parts["h"].sum() / p.T_f - 1.0,
             np.abs(parts["a_r"]).max() / p.vdot_lim - 1.0,
             (z / node_caps(p)).max() - 1.0]
    if p.u_lim is not None:
        worst.append(np.abs(parts["u_r"]).max() / p.u_lim - 1.0)
    return max(worst)


def energy_scale(p, E):
    return max(abs(E), 0.5 * p.mass * (p.x[-1] / p.T_f) ** 2)


def lp_oracle(p, cut_tol=1e-10, max_rounds=300):
    """Cutting-plane LP of the exact problem, solved by HiGHS.

    Variables z (N+1), q (N) and tau (N): q_k >= g u_k and q_k >= r u_k
    is the energy's epigraph, and tau_k >= h_k(z) is cut at every LP
    optimum (Kelley, *J. SIAM* 8, 1960), h_k being convex.  Returns
    (E_lp, z, price): E_lp bounds the optimum from below, and price is what
    the budget's multiplier charges for the last plan's time overrun, so
    the optimum lies within [E_lp, E_lp + price] up to the LP tolerances.
    Returns None once an LP is infeasible: the cuts only relax the budget,
    so then the problem is infeasible too.
    """
    from scipy.optimize import linprog

    n, nz = p.n_segments, p.n_segments + 1
    nv, k = nz + 2 * n, np.arange(p.n_segments)
    al, be, ga = affine_input(p)

    def seg_rows(c0, c1, cq=0.0, ct=0.0):
        rows = np.zeros((n, nv))
        rows[k, k], rows[k, k + 1], rows[k, nz + k], rows[k, nz + n + k] = c0, c1, cq, ct
        return rows

    s = 0.5 / p.dx
    A = [seg_rows(w * al, w * be, -1.0) for w in (p.eff.gen_factor, p.eff.regen_factor)]
    b = [-p.eff.gen_factor * ga, -p.eff.regen_factor * ga]
    A += [seg_rows(-s, s), seg_rows(s, -s)]
    b += [np.full(n, p.vdot_lim)] * 2
    if p.u_lim is not None:
        A += [seg_rows(al, be), seg_rows(-al, -be)]
        b += [p.u_lim - ga, p.u_lim + ga]
    budget = sum(len(r) for r in b)
    A.append(np.concatenate([np.zeros(nz + n), np.ones(n)])[None, :])
    b.append([p.T_f])
    c = np.concatenate([np.zeros(nz), p.dx, np.zeros(n)])
    c[0], c[n] = 0.5 * p.mass, -0.5 * p.mass
    # A floor on z keeps the cuts' slopes finite.  An optimum may coast
    # to a stop at the end, as the final kinetic energy is only credited at
    # par, so the floor can bind; it moves E by at most (1 + g) m/2 z_lo,
    # which the returned price includes.
    z_lo = 1e-8 * node_caps(p).min()
    bounds = [(z_lo, cap) for cap in node_caps(p)] + [(None, None)] * n + [(0.0, None)] * n
    z = constant_speed(p, p.x[-1] / p.T_f)
    for _ in range(max_rounds):
        h, d0, d1 = segment_time(p, z)
        A.append(seg_rows(d0, d1, 0.0, -1.0))
        b.append(d0 * z[:-1] + d1 * z[1:] - h)
        res = linprog(c, A_ub=np.vstack(A), b_ub=np.concatenate(b), bounds=bounds,
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
        if res.status == 2:
            return None
        assert res.status == 0, res.message
        z, tau = res.x[:nz], res.x[nz + n:]
        over = float(np.maximum(segment_time(p, z)[0] - tau, 0.0).sum())
        if over <= cut_tol * p.T_f:
            floor = (1.0 + p.eff.gen_factor) * 0.5 * p.mass * z_lo
            return res.fun, z, -res.ineqlin.marginals[budget] * over + floor
    raise AssertionError(f"cutting planes did not reach {cut_tol:g} in {max_rounds} rounds")


def fastest_plan(p):
    """The greatest z of the linear rows by HiGHS, maximising sum(z): the
    rows' greatest element maximises every increasing linear objective.
    None if no z >= 0 meets them."""
    from scipy.optimize import linprog

    n, k = p.n_segments, np.arange(p.n_segments)
    al, be, ga = affine_input(p)
    s = 0.5 / p.dx

    def seg_rows(c0, c1):
        rows = np.zeros((n, n + 1))
        rows[k, k], rows[k, k + 1] = c0, c1
        return rows

    A, b = [seg_rows(-s, s), seg_rows(s, -s)], [np.full(n, p.vdot_lim)] * 2
    if p.u_lim is not None:
        A += [seg_rows(al, be), seg_rows(-al, -be)]
        b += [p.u_lim - ga, p.u_lim + ga]
    res = linprog(-np.ones(n + 1), A_ub=np.vstack(A), b_ub=np.concatenate(b),
                  bounds=[(0.0, cap) for cap in node_caps(p)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    return res.x if res.status == 0 else None


def assert_exact_verdict(p, T_lp):
    """Just above the fastest time T_lp the barrier reaches the gap, at it (or
    within rounding above it) the fastest plan is returned, and just below
    solve raises with T_lp."""
    sol = tempo.solve(dataclasses.replace(p, T_f=T_lp * (1.0 + 1e-4)))
    assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= 1e-8
    for T_f in (T_lp, T_lp * (1.0 + 1e-15)):
        sol = tempo.solve(dataclasses.replace(p, T_f=T_f))
        assert sol.feasible and sol.exit == "time_pinned"
        assert sol.h.sum() <= T_f * (1.0 + tempo.VIOL_TOL)
    with pytest.raises(InfeasibleError, match="no plan meets") as exc:
        tempo.solve(dataclasses.replace(p, T_f=T_lp * (1.0 - 1e-6)))
    fastest = float(re.search(r"the fastest one takes (\S+) s", str(exc.value)).group(1))
    assert fastest == pytest.approx(T_lp, rel=1e-9, abs=0.0)


def random_route(rng, n, unit, bounded):
    """Random route: n segments of random length, cap and grade, with a
    budget that a constant speed below every cap meets strictly, for the
    unit gray box or a random truck-like one.  A bounded truck input may lie
    below what holding some constant speed on the steepest grade takes, so
    the route may need a varying plan, or be infeasible."""
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(20.0, 150.0, n))])
    v_lim = rng.uniform(8.0, 25.0, n)
    alpha = rng.uniform(-0.03, 0.03, n)
    model = unit_model()
    if not unit:
        model = GrayBoxModel(theta=truck_like_model().theta * rng.uniform(0.5, 1.5, 6))
    v_c = float(rng.uniform(0.3, 0.95)) * v_lim.min()
    u_lim = None
    if bounded and not unit:
        t1, t2, _, t4, t5, t6 = model.theta
        hold = [(-t2 - t4 * v * v - t5 * alpha - t6 * alpha ** 2) / t1
                for v in (0.0, v_lim.min())]
        u_lim = float(rng.uniform(0.4, 1.5)) * float(np.abs(hold).max())
    return tempo.TOProblem(
        x=x, alpha=alpha, v_lim=v_lim, T_f=x[-1] / v_c * float(rng.uniform(1.001, 1.5)),
        vdot_lim=float(rng.uniform(0.3, 2.0)), model=model,
        eff=EfficiencyParams(float(rng.uniform(1.0, 1.3)), float(rng.uniform(0.6, 1.0))),
        u_lim=u_lim)


def climb_route(u_lim, start, length, grade=0.05):
    """2 km at N = 40 under a 22 m/s cap, flat but for one grade: holding any
    speed on the default 5% climb takes u = (0.55 + 8e-5 v^2) / 2.5e-4 > 2200."""
    slope = PositionProfile(np.array([0.0, start, start + length]),
                            np.array([0.0, grade, 0.0]), "constant")
    return tempo.build_problem(2000.0, 40, 180.0, slope, flat_limit(22.0),
                               truck_like_model(), vdot_lim=0.7, u_lim=u_lim)


def solve_or_confirm_infeasible(p):
    """tempo.solve's plan, or None if it raises InfeasibleError and the LP
    oracle agrees once the bounds are tightened by 1e-9, past its tolerances."""
    try:
        return tempo.solve(p)
    except InfeasibleError:
        # A constant speed meets every bound but the input's.
        assert p.u_lim is not None
        tight = dataclasses.replace(p, u_lim=p.u_lim * (1.0 - 1e-9), T_f=p.T_f * (1.0 - 1e-9))
        assert lp_oracle(tight) is None
        return None


routes = st.builds(
    random_route, st.integers(0, 2**32 - 1).map(np.random.default_rng),
    st.integers(2, 40), st.booleans(), st.booleans())


# -- tests ---------------------------------------------------------------------

class TestObjective:
    def test_hand_computed_drive_energy(self):
        # v = (10, 20, 30): a = (1.5, 2.5), u = a / t1 = (3, 5), g = 1.2;
        # E = 1.2 * 100 * (3 + 5) + m/2 (100 - 900) with m = 1/t1 = 2.
        p = tempo.TOProblem(x=np.array([0.0, 100.0, 200.0]),
                            alpha=np.zeros(2), v_lim=np.array([35.0, 35.0]),
                            T_f=15.0, vdot_lim=10.0, model=hand_model(),
                            eff=EfficiencyParams(1.2, 0.8))
        E, parts = tempo.evaluate_objective(p, np.array([100.0, 400.0, 900.0]))
        assert E == pytest.approx(160.0, rel=1e-12)
        np.testing.assert_allclose(parts["h"], [200.0 / 30.0, 4.0], rtol=1e-12)
        np.testing.assert_allclose(parts["v_r"], [15.0, 25.0], rtol=1e-12)
        np.testing.assert_allclose(parts["a_r"], [1.5, 2.5], rtol=1e-12)
        np.testing.assert_allclose(parts["u_r"], [3.0, 5.0], rtol=1e-12)

    def test_regen_weight_on_braking(self):
        # The same speeds backwards: u = (-5, -3) at r = 0.8, so
        # E = 0.8 * 100 * (-8) + (900 - 100) = 160.
        p = tempo.TOProblem(x=np.array([0.0, 100.0, 200.0]),
                            alpha=np.zeros(2), v_lim=np.array([35.0, 35.0]),
                            T_f=40.0, vdot_lim=10.0, model=hand_model(),
                            eff=EfficiencyParams(1.2, 0.8))
        E, parts = tempo.evaluate_objective(p, np.array([900.0, 400.0, 100.0]))
        assert E == pytest.approx(160.0, rel=1e-12)
        np.testing.assert_allclose(parts["eta"], [0.8, 0.8], rtol=1e-12)

    def test_pseudo_mode_constant_speed_costs_nothing(self):
        # The unit gray box scores only speed changes.
        p = tempo.TOProblem(x=np.array([0.0, 50.0, 100.0]), alpha=np.zeros(2),
                            v_lim=np.array([15.0, 15.0]), T_f=30.0,
                            vdot_lim=10.0, model=unit_model(), eff=EfficiencyParams())
        E, parts = tempo.evaluate_objective(p, constant_speed(p, 10.0))
        assert E == 0.0
        np.testing.assert_array_equal(parts["u_r"], [0.0, 0.0])

    def test_rejects_bad_durations(self):
        p = tempo.TOProblem(x=np.array([0.0, 50.0, 100.0]), alpha=np.zeros(2),
                            v_lim=np.array([15.0, 15.0]), T_f=30.0,
                            vdot_lim=10.0, model=unit_model(), eff=EfficiencyParams())
        with pytest.raises(ValueError):
            tempo.evaluate_objective(p, np.array([25.0, 25.0]))
        with pytest.raises(ValueError):
            tempo.evaluate_objective(p, np.array([25.0, -1.0, 25.0]))

    def test_speed_up_and_brake_back_costs_the_efficiency_loss(self):
        # The unit gray box on a flat road: with the kinetic energy at the
        # ends charged at par, accelerating by dz and braking back costs
        # (g - 1) dz / 2 + (1 - r) dz / 2.
        p = tempo.TOProblem(x=np.array([0.0, 50.0, 100.0]), alpha=np.zeros(2),
                            v_lim=np.array([15.0, 15.0]), T_f=30.0,
                            vdot_lim=10.0, model=unit_model(),
                            eff=EfficiencyParams(1.1, 0.9))
        E, _ = tempo.evaluate_objective(p, np.array([100.0, 200.0, 100.0]))
        assert E == pytest.approx(0.1 * 50.0 + 0.1 * 50.0, rel=1e-12)


class TestBuildProblem:
    def test_grid_and_segment_caps(self):
        v_limit = PositionProfile(np.array([0.0, 450.0]),
                                  np.array([20.0, 10.0]), "constant")
        slope = PositionProfile(np.array([0.0, 1000.0]),
                                np.array([0.01, 0.03]), "linear")
        p = tempo.build_problem(1000.0, 10, 200.0, slope, v_limit,
                                unit_model(), vdot_lim=1.0)
        assert p.x.size == 11 and p.n_segments == 10
        np.testing.assert_allclose(p.x, np.linspace(0.0, 1000.0, 11))
        np.testing.assert_allclose(p.alpha, 0.01 + 0.02 * p.x[:-1] / 1000.0)
        # the cap drop at 450 m already binds the segment [400, 500]
        np.testing.assert_allclose(p.v_lim[:4], 20.0)
        np.testing.assert_allclose(p.v_lim[4:], 10.0)

    def test_infeasible_budget_raises_upfront(self):
        # 1 km at the 15 m/s cap takes 66.7 s: the fastest plan misses 60 s.
        p = tempo.build_problem(1000.0, 5, 60.0, FLAT, flat_limit(15.0), unit_model())
        with pytest.raises(InfeasibleError, match="no plan meets"):
            tempo.solve(p)

    @pytest.mark.parametrize("field", ["T_f", "vdot_lim", "u_lim", "v_lim", "alpha"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, field, bad):
        p = tempo.build_problem(2000.0, 20, 170.0, FLAT, flat_limit(25.0),
                                truck_like_model(), vdot_lim=0.7, u_lim=3000.0)
        value = np.full(p.n_segments, bad) if field in ("v_lim", "alpha") else bad
        with pytest.raises(ValueError, match="must be finite"):
            dataclasses.replace(p, **{field: value})
        with pytest.raises(ValueError, match="must be finite"):
            dataclasses.replace(p, model=unit_model(), **{field: value})

    def test_requires_a_model(self):
        p = tempo.build_problem(100.0, 2, 20.0, FLAT, flat_limit(15.0), unit_model())
        with pytest.raises(ValueError, match="model must be a GrayBoxModel"):
            dataclasses.replace(p, model=None)

    def test_problem_is_frozen(self):
        p = tempo.build_problem(100.0, 2, 20.0, FLAT, flat_limit(15.0), unit_model())
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.T_f = 5.0

    def test_dx_and_h_min_are_computed_once_and_read_only(self):
        p = tempo.build_problem(100.0, 4, 20.0, FLAT, flat_limit(12.5), unit_model())
        assert p.dx is p.dx
        np.testing.assert_array_equal(p.dx, np.diff(p.x))
        with pytest.raises(ValueError):
            p.dx[0] = 1.0


class TestInit:
    def test_uniform_when_caps_are_loose(self):
        # The barrier starts from one constant speed strictly inside every
        # row and the budget; the unit gray box on a flat road then keeps
        # the durations uniform, as every constant speed costs nothing.
        p = tempo.TOProblem(x=np.linspace(0.0, 100.0, 5), alpha=np.zeros(4),
                            v_lim=np.full(4, 100.0), T_f=8.0, vdot_lim=10.0,
                            model=unit_model(), eff=EfficiencyParams())
        bar = tempo._Barrier(p, constant_speed(p, 12.5))
        z0 = bar.start()
        assert np.ptp(z0) == 0.0 and bar.slack(z0).min() > 0.0
        assert bar.time(z0) < p.T_f
        sol = tempo.solve(p)
        np.testing.assert_allclose(sol.h, sol.h.mean(), rtol=1e-6)
        assert sol.h.sum() <= p.T_f


class TestSolve:
    def test_two_segment_optimum_races_then_coasts(self):
        # Rolling resistance only: u = (a + 1/2) / t1 with t1 = 1/2, so
        # E = m |t2| L + sum dx (eta(u) - 1) u, and coasting (u = 0) costs
        # nothing beyond the resistance.  The start's kinetic energy is
        # bought at par, so the optimum starts at the cap; coasting from
        # there misses the budget, and traction on the first segment saves
        # more time than on the second, so it drives there, then coasts.
        model = GrayBoxModel(theta=np.array([0.5, -0.5, 0.0, 0.0, 0.0, 0.0]))
        p = tempo.build_problem(100.0, 2, 7.2, FLAT, flat_limit(15.0), model,
                                vdot_lim=10.0)
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap"
        # z_1 closes the budget with z_0 = 15^2 and z_2 = z_1 - 50 (coasting).
        lo, hi = 175.0, 225.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            late = segment_time(p, np.array([225.0, mid, mid - 50.0]))[0].sum() > p.T_f
            lo, hi = (mid, hi) if late else (lo, mid)
        z_star = np.array([225.0, hi, hi - 50.0])
        h_star = segment_time(p, z_star)[0]
        np.testing.assert_allclose(sol.h, h_star, rtol=5e-4)
        np.testing.assert_allclose(sol.z, z_star, rtol=1e-6)
        assert sol.u_r[0] > 0.1 and abs(sol.u_r[1]) <= 1e-6
        E_star, _ = tempo.evaluate_objective(p, z_star)
        assert sol.E <= E_star + 1e-6 * abs(E_star)
        np.testing.assert_allclose(sol.t, [0.0, sol.h[0], sol.h.sum()],
                                   rtol=1e-12)

    def test_two_segment_optimum_keeps_constant_speed(self):
        # The unit gray box scores only speed changes, so every constant
        # speed within the budget is optimal and costs nothing.
        p = tempo.build_problem(100.0, 2, 9.0, FLAT, flat_limit(15.0), unit_model(),
                                vdot_lim=10.0)
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= 1e-8
        assert 0.0 <= sol.E <= sol.gap
        np.testing.assert_allclose(sol.h[0], sol.h[1], rtol=1e-6)
        assert sol.h.sum() <= 9.0
        np.testing.assert_allclose(sol.t, [0.0, sol.h[0], sol.h.sum()],
                                   rtol=1e-12)

    def test_no_worse_than_uniform_on_flat_road(self):
        p = tempo.build_problem(2000.0, 20, 160.0, FLAT, flat_limit(25.0),
                                truck_like_model(), vdot_lim=0.7, u_lim=1500.0)
        sol = tempo.solve(p)
        assert sol.feasible
        E_uniform, _ = tempo.evaluate_objective(p, constant_speed(p, 2000.0 / 160.0))
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
        E_uniform, _ = tempo.evaluate_objective(p, constant_speed(p, 12.0))
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
                                flat_limit(12.5), unit_model(), vdot_lim=5.0)
        sol = tempo.solve(p)
        assert sol.feasible
        np.testing.assert_allclose(sol.h, p.dx / p.v_lim, rtol=1e-6)

    def test_unreachable_acceleration_bound_flags_infeasible(self):
        # cap drops mid-segment: 25 -> 2.5 needs |vdot| far above 0.5
        v_limit = PositionProfile(np.array([0.0, 75.0]),
                                  np.array([25.0, 2.5]), "constant")
        p = tempo.build_problem(100.0, 2, 22.4, FLAT, v_limit, unit_model(),
                                vdot_lim=0.5)
        with pytest.raises(InfeasibleError, match="no plan meets"):
            tempo.solve(p)

    def test_scale_invariance_of_input_units(self):
        # Dividing th1 by c rescales u and the model-unit mass by c, so the
        # energy of every plan, and the optimum, scale by exactly c.
        m1 = truck_like_model()
        theta2 = m1.theta.copy()
        theta2[0] /= 1000.0
        m2 = GrayBoxModel(theta=theta2)
        args = (1200.0, 12, 110.0, FLAT, flat_limit(25.0))
        p1 = tempo.build_problem(*args, m1, vdot_lim=0.7)
        p2 = tempo.build_problem(*args, m2, vdot_lim=0.7)
        z = np.linspace(100.0, 150.0, 13)
        E1, _ = tempo.evaluate_objective(p1, z)
        E2, _ = tempo.evaluate_objective(p2, z)
        assert E2 == pytest.approx(1000.0 * E1, rel=1e-9)
        s1, s2 = tempo.solve(p1), tempo.solve(p2)
        assert s2.feasible
        assert s2.E == pytest.approx(1000.0 * s1.E, rel=1e-8)
        np.testing.assert_allclose(s2.z, s1.z, rtol=1e-5)

    def test_stock_routes_reach_the_gap(self, truck_sc, truck_fit, car_sc, car_fit):
        for sc, fit in ((truck_sc, truck_fit), (car_sc, car_fit)):
            _, model, eff, _ = fit
            problem, sol, _ = harness.stage_plan(sc, model, eff)
            assert sol.feasible and sol.exit == "gap"
            assert sol.gap_rel <= 1e-8
            assert violation(problem, sol.z) <= 1e-9
            E_lp, _, price = lp_oracle(problem)
            tol = sol.gap + price + 1e-9 * energy_scale(problem, sol.E)
            assert E_lp - tol <= sol.E <= E_lp + tol

    def test_varying_plan_meets_an_input_bound_no_constant_speed_can(self):
        # u_lim = 2000 is below the climb's hold force at every speed, so
        # the barrier must start from a plan that loses speed on the climb.
        p = climb_route(2000.0, 1000.0, 400.0)
        for v in np.linspace(0.5, 22.0, 44):
            _, parts = tempo.evaluate_objective(p, constant_speed(p, v))
            assert np.abs(parts["u_r"]).max() > p.u_lim
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= 1e-8
        assert violation(p, sol.z) <= 1e-9
        assert np.all(np.diff(sol.z[22:29]) < 0.0)   # slowing on the climb
        E_lp, _, price = lp_oracle(p)
        tol = sol.gap + price + 1e-9 * energy_scale(p, sol.E)
        assert E_lp - tol <= sol.E <= E_lp + tol

    def test_input_bound_no_plan_can_meet_raises(self):
        # At u_lim = 1000 a 1 km climb costs more speed than the cap holds:
        # z falls by 2 (0.55 - 0.25) 1000 = 600 > 22^2 on it at the least.
        p = climb_route(1000.0, 500.0, 1000.0)
        with pytest.raises(InfeasibleError, match="below u_lim=1000"):
            tempo.solve(p)
        assert lp_oracle(p) is None

    def test_short_steep_climb_caps_the_full_throttle_loop(self):
        # Full throttle at u_lim = 1050 loses speed on a 9% climb over one 50 m
        # segment, z_21 <= c + g z_20 with g = (s - |t4|/2) / (s + |t4|/2)
        # ~ 0.992, while vdot_lim bounds braking into it, z_20 <= z_21 + 70:
        # the rows meet at z_20 = 283, far below the cap of 484.  Sweeping
        # them alone would close in on that only by a factor g per pass.
        p = climb_route(1050.0, 1000.0, 50.0, grade=0.09)
        z_lp = fastest_plan(p)
        assert z_lp[20] == pytest.approx(283.04, abs=0.01)
        T_lp = segment_time(p, z_lp)[0].sum()
        pinned = tempo.solve(dataclasses.replace(p, T_f=T_lp))
        np.testing.assert_allclose(pinned.z, z_lp, rtol=1e-12)
        assert_exact_verdict(p, T_lp)
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= 1e-8
        assert violation(p, sol.z) <= 1e-9
        E_lp, _, price = lp_oracle(p)
        tol = sol.gap + price + 1e-9 * energy_scale(p, sol.E)
        assert E_lp - tol <= sol.E <= E_lp + tol

    def test_steep_descent_past_the_brake_raises(self):
        # Braking at u_lim = 300 on a 9% descent still speeds up by
        # 0.748 - 8e-5 v^2 > vdot_lim = 0.7 below the 22 m/s cap: no plan
        # fits, though the rows' upper bound keeps every node positive.
        p = climb_route(300.0, 1000.0, 50.0, grade=-0.09)
        with pytest.raises(InfeasibleError, match="below u_lim=300"):
            tempo.solve(p)
        assert lp_oracle(p) is None and fastest_plan(p) is None

    def test_default_truck_verdict_is_exact(self, truck_sc, truck_fit):
        _, model, eff, _ = truck_fit
        problem, _, _ = harness.stage_plan(truck_sc, model, eff)
        T_lp = segment_time(problem, fastest_plan(problem))[0].sum()
        assert T_lp == pytest.approx(432.44180711702654, rel=1e-9)
        assert_exact_verdict(problem, T_lp)

    def test_input_row_bounding_both_nodes_raises(self):
        # A 13 km segment has 1/dx < |t4| = 8e-5, so its input row bounds
        # both of its nodes from above; without u_lim there is no such row.
        p = tempo.TOProblem(x=np.array([0.0, 1000.0, 14_000.0]), alpha=np.zeros(2),
                            v_lim=np.full(2, 25.0), T_f=1000.0, vdot_lim=0.7,
                            model=truck_like_model(), eff=EfficiencyParams(), u_lim=3000.0)
        with pytest.raises(NumericalError, match="segment 1's input rows"):
            tempo.solve(p)
        sol = tempo.solve(dataclasses.replace(p, u_lim=None))
        assert sol.feasible and sol.exit == "gap"

    def test_unmasked_t3_runs_sequential_convex_steps(self, monkeypatch):
        # A linear drag term makes u concave in z; the convex steps either
        # settle on a plan that meets every exact constraint, or raise.
        theta = truck_like_model().theta.copy()
        theta[2] = -0.004
        slope = PositionProfile(np.array([0.0, 600.0, 900.0, 2000.0]),
                                np.array([0.0, 0.03, 0.0, 0.0]), "linear")
        p = tempo.build_problem(2000.0, 40, 170.0, slope, flat_limit(22.0),
                                GrayBoxModel(theta=theta), vdot_lim=0.7, u_lim=3000.0)
        with monkeypatch.context() as mp:
            mp.setattr(tempo, "SCP_MAX", 1)
            with pytest.raises(NumericalError, match="did not settle"):
                tempo.solve(p)
        sol = tempo.solve(p)
        assert sol.feasible and violation(p, sol.z) <= 1e-9
        E, parts = tempo.evaluate_objective(p, sol.z)
        assert sol.E == E
        np.testing.assert_array_equal(sol.u_r, parts["u_r"])

    def test_full_estimation_mask_converges_or_raises(self):
        sc = config.scenario_from_config({"est.mask": "1,1,1,1,1,1", "est.duration": "600",
                                          "to.N": "40"})
        model, eff, _ = harness.stage_estimate(sc, harness.stage_dataset(sc))
        assert model.theta[2] != 0.0
        try:
            problem, sol, _ = harness.stage_plan(sc, model, eff)
        except NumericalError as exc:
            assert "did not settle" in str(exc)
        else:
            assert sol.feasible and violation(problem, sol.z) <= 1e-9
            assert sol.gap_rel <= 1e-8


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(p=routes)
    def test_random_routes_stay_feasible_and_keep_the_gap(self, p):
        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= 1e-8
        assert violation(p, sol.z) <= 1e-9
        np.testing.assert_allclose(sol.h, segment_time(p, sol.z)[0], rtol=1e-12)
        assert sol.E == tempo.evaluate_objective(p, sol.z)[0]

    # The unit gray box is left out: any constant speed within the budget
    # is optimal there, and Kelley's cuts crawl along that flat optimum.
    @settings(max_examples=15, deadline=None)
    @given(p=routes.filter(lambda p: p.n_segments <= 15 and p.model.theta[0] != 1.0))
    def test_energy_agrees_with_the_cutting_plane_oracle(self, p):
        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        E_lp, _, price = lp_oracle(p)
        tol = sol.gap + price + 1e-9 * energy_scale(p, sol.E)
        assert E_lp - tol <= sol.E <= E_lp + tol

    @settings(max_examples=10, deadline=None)
    @given(p=routes.filter(lambda p: p.n_segments <= 8), seed=st.integers(0, 2**32 - 1))
    def test_multistart_never_beats_the_optimum(self, p, seed):
        from scipy.optimize import minimize

        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        rng = np.random.default_rng(seed)
        al, be, ga = affine_input(p)
        s = 0.5 / p.dx
        cons = [{"type": "ineq", "fun": lambda z: p.T_f - segment_time(p, z)[0].sum()},
                {"type": "ineq", "fun": lambda z: p.vdot_lim - np.abs(s * np.diff(z))}]
        if p.u_lim is not None:
            cons.append({"type": "ineq",
                         "fun": lambda z: p.u_lim - np.abs(al * z[:-1] + be * z[1:] + ga)})
        caps = node_caps(p)
        floor = sol.E - sol.gap - 1e-9 * energy_scale(p, sol.E)
        for _ in range(4):
            # A random start, pulled toward the optimum until it fits.
            z0 = rng.uniform(0.05, 1.0, caps.size) * caps
            for _ in range(40):
                if violation(p, z0) <= 0.0:
                    break
                z0 = 0.5 * (z0 + sol.z)
            else:
                continue
            assert tempo.evaluate_objective(p, z0)[0] >= floor
            res = minimize(lambda z: tempo.evaluate_objective(p, z)[0], z0, method="SLSQP",
                           bounds=[(1e-6, c) for c in caps], constraints=cons,
                           options={"maxiter": 200, "ftol": 1e-12})
            if np.all(res.x > 0.0) and violation(p, res.x) <= 1e-12:
                assert tempo.evaluate_objective(p, res.x)[0] >= floor

    @settings(max_examples=20, deadline=None)
    @given(p=routes)
    def test_verdict_is_exact_at_the_fastest_plan(self, p):
        z = fastest_plan(p)
        if z is None or z.min() <= 0.0:
            with pytest.raises(InfeasibleError, match="below u_lim="):
                tempo.solve(p)
            return
        assert_exact_verdict(p, segment_time(p, z)[0].sum())

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_unit_model_scores_the_acceleration(self, seed, n):
        # The unit gray box plans the acceleration itself at mass 1: u = a
        # bit for bit, at any z, and so the energy of the acceleration.
        rng = np.random.default_rng(seed)
        p = random_route(rng, n, True, False)
        z = rng.uniform(0.01, 1.0, n + 1) * node_caps(p)
        for k in np.flatnonzero(rng.random(n) < 0.3):
            z[k + 1] = z[k]
        E, parts = tempo.evaluate_objective(p, z)
        a = np.diff(z) / (2.0 * p.dx)
        assert p.mass == 1.0
        assert parts["u_r"].tobytes() == parts["a_r"].tobytes() == a.tobytes()
        eta = step_efficiency(a, p.eff.gen_factor, p.eff.regen_factor)
        assert E == float(np.sum(p.dx * eta * a)) + 0.5 * float(z[0] - z[-1])

    @settings(max_examples=30, deadline=None)
    @given(p=routes)
    def test_reference_runs_the_plan_through_its_nodes(self, p):
        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        ref = tempo.reference(sol, p)
        v, a = ref.sample(sol.t)
        np.testing.assert_array_equal(v, np.sqrt(sol.z))
        np.testing.assert_array_equal(a, np.append(sol.a_r, 0.0))
        # Speed linear in time between nodes: the trapezoid rule is exact.
        x = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * np.diff(ref.t))])
        np.testing.assert_allclose(x, p.x, rtol=1e-12, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(p=routes)
    def test_reference_keeps_the_caps_and_holds_past_the_end(self, p):
        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        ref = tempo.reference(sol, p)
        t = np.linspace(0.0, ref.t[-1], 20 * p.n_segments + 1)
        k = np.minimum(np.searchsorted(ref.t, t, side="right") - 1, p.n_segments - 1)
        assert np.all(ref.sample(t)[0] <= p.v_lim[k] * (1.0 + 2e-6))
        v, a = ref.sample(ref.t[-1] + np.array([0.0, 0.5, 1e3]))
        assert np.all(v == ref.v_r[-1]) and np.all(a == 0.0)


class TestSolutionIO:
    def test_csv_round_trip(self, tmp_path):
        p = tempo.build_problem(100.0, 2, 9.0, FLAT, flat_limit(15.0), unit_model(),
                                vdot_lim=10.0)
        sol = tempo.solve(p)
        path = tmp_path / "plan.csv"
        sol.to_csv(path, p)
        header, cols, meta = read_csv(path)
        assert header == ["k", "t", "x", "v_r", "a_r", "u_r", "eta", "h"]
        for name in header[1:]:
            want = p.x[:-1] if name == "x" else getattr(sol, name)[:sol.h.size]
            np.testing.assert_array_equal(want, cols[name], err_msg=name)
        assert float(meta["t_end"]) == sol.t[-1]
        assert float(meta["E"]) == sol.E and meta["feasible"] == "1"
        assert float(meta["gap_rel"]) == sol.gap_rel

    def test_reference_csv_holds_the_node_rows(self, tmp_path):
        p = tempo.build_problem(100.0, 2, 9.0, FLAT, flat_limit(15.0), unit_model(),
                                vdot_lim=10.0)
        ref = tempo.reference(tempo.solve(p), p)
        path = tmp_path / "reference.csv"
        ref.to_csv(path)
        header, cols, _ = read_csv(path)
        assert header == ["t", "x", "v_r", "a_r"]
        for name in header:
            np.testing.assert_array_equal(getattr(ref, name), cols[name], err_msg=name)
