"""Timing-optimization tests: objective algebra, solver, oracle, the plan as reference."""

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
from modru.tables import read_csv, write_csv

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
    """Just above the fastest time T_lp the solver reaches the gap, at it (or
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


def true_model_problem(sc, length, n):
    """``sc``'s timing problem over its first ``length`` metres, with the
    plant's true coefficients as the model."""
    return tempo.build_problem(length, n, sc.T_f, sc.slope, sc.v_limit,
                               GrayBoxModel(theta=harness.true_theta(sc)),
                               EfficiencyParams(sc.eff_gen, sc.eff_regen),
                               vdot_lim=sc.vdot_lim, u_lim=sc.to_u_lim)


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


# -- the former second record of the plan, kept as an oracle ------------------

@dataclasses.dataclass(frozen=True)
class FormerReference:
    """tempo.ReferenceTrajectory as it was, without its acceleration column:
    the plan's nodes copied out."""

    t: np.ndarray
    x: np.ndarray
    v_r: np.ndarray

    def sample(self, t):
        return np.interp(t, self.t, self.v_r)

    def to_csv(self, path):
        write_csv(path, ["t", "x", "v_r"], [self.t, self.x, self.v_r])


def former_reference(sol, p):
    """tempo.reference(sol, p) as it was, without the acceleration."""
    return FormerReference(t=sol.t, x=p.x, v_r=np.sqrt(sol.z))


def former_solution_csv(sol, path, p):
    """TOSolution.to_csv(path, p) as it was."""
    write_csv(path, ["k", "t", "x", "v_r", "a_r", "u_r", "eta", "h"],
              [np.arange(sol.h.size), sol.t[:-1], p.x[:-1], sol.v_r,
               sol.a_r, sol.u_r, sol.eta, sol.h],
              meta={"E": sol.E, "feasible": sol.feasible, "t_end": sol.t[-1],
                    "gap_rel": sol.gap_rel})


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

    def test_unit_model_constant_speed_costs_nothing(self):
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

    def test_dx_is_computed_once_and_read_only(self):
        p = tempo.build_problem(100.0, 4, 20.0, FLAT, flat_limit(12.5), unit_model())
        assert p.dx is p.dx
        np.testing.assert_array_equal(p.dx, np.diff(p.x))
        with pytest.raises(ValueError):
            p.dx[0] = 1.0


class TestInit:
    def test_uniform_when_caps_are_loose(self):
        # The unit gray box on a flat road keeps the durations uniform, as
        # every constant speed costs nothing.
        p = tempo.TOProblem(x=np.linspace(0.0, 100.0, 5), alpha=np.zeros(4),
                            v_lim=np.full(4, 100.0), T_f=8.0, vdot_lim=10.0,
                            model=unit_model(), eff=EfficiencyParams())
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
            problem, sol = harness.stage_plan(sc, model, eff)
            assert sol.feasible and sol.exit == "gap"
            assert sol.gap_rel <= 1e-8
            assert violation(problem, sol.z) <= 1e-9
            E_lp, _, price = lp_oracle(problem)
            tol = sol.gap + price + 1e-9 * energy_scale(problem, sol.E)
            assert E_lp - tol <= sol.E <= E_lp + tol

    def test_varying_plan_meets_an_input_bound_no_constant_speed_can(self):
        # u_lim = 2000 is below the climb's hold force at every speed, so
        # the plan must lose speed on the climb.
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
        problem, _ = harness.stage_plan(truck_sc, model, eff)
        T_lp = segment_time(problem, fastest_plan(problem))[0].sum()
        assert T_lp == pytest.approx(432.44180711702654, rel=1e-9)
        assert_exact_verdict(problem, T_lp)

    @pytest.mark.parametrize("scenario, n", [(config.default_truck_scenario, 1600),
                                             (config.default_car_scenario, 800)],
                             ids=["truck-1600", "car-800"])
    def test_fine_grids_reach_the_gap_with_the_true_model(self, scenario, n):
        sc = scenario()
        p = true_model_problem(sc, sc.path_length, n)
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= tempo.GAP_TOL
        assert violation(p, sol.z) <= 1e-9

    @pytest.mark.xfail(strict=True, raises=NumericalError, reason=(
        "CHANGES.md FOUND 183: a budget far above L / v_lim makes the optimum end "
        "at rest on the positivity row, and the iterations grow as L shrinks "
        "(11 at 10 km, 93 at 10 m); at 5 m the method does not stop within 100"))
    def test_a_plan_that_ends_at_rest_reaches_the_gap(self):
        sc = config.default_truck_scenario()
        p = true_model_problem(sc, 5.0, sc.to_n)
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= tempo.GAP_TOL

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

    def test_velocity_linear_term_is_refused(self):
        # A linear drag term t3 makes u concave in z, and the program is
        # convex only without it; the same route without it plans.
        theta = truck_like_model().theta.copy()
        theta[2] = -0.004
        slope = PositionProfile(np.array([0.0, 600.0, 900.0, 2000.0]),
                                np.array([0.0, 0.03, 0.0, 0.0]), "linear")
        route = (2000.0, 40, 170.0, slope, flat_limit(22.0))
        with pytest.raises(ValueError, match="velocity-linear term t3"):
            tempo.build_problem(*route, GrayBoxModel(theta=theta), vdot_lim=0.7, u_lim=3000.0)
        theta[2] = 0.0
        p = tempo.build_problem(*route, GrayBoxModel(theta=theta), vdot_lim=0.7, u_lim=3000.0)
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap" and violation(p, sol.z) <= 1e-9


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

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(50, 3200), unit=st.booleans())
    def test_grids_from_50_to_3200_segments_reach_the_gap(self, seed, n, unit):
        # Without an input bound a random route is feasible and not pinned.
        p = random_route(np.random.default_rng(seed), n, unit, False)
        sol = tempo.solve(p)
        assert sol.feasible and sol.exit == "gap" and sol.gap_rel <= tempo.GAP_TOL
        assert violation(p, sol.z) <= 1e-9

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
        v = sol.sample(sol.t)
        np.testing.assert_array_equal(v, np.sqrt(sol.z))
        assert sol.x is p.x
        # Speed linear in time between nodes: the trapezoid rule is exact.
        x = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * np.diff(sol.t))])
        np.testing.assert_allclose(x, p.x, rtol=1e-12, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(p=routes)
    def test_reference_keeps_the_caps_and_holds_past_the_end(self, p):
        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        t = np.linspace(0.0, sol.t[-1], 20 * p.n_segments + 1)
        k = np.minimum(np.searchsorted(sol.t, t, side="right") - 1, p.n_segments - 1)
        assert np.all(sol.sample(t) <= p.v_lim[k] * (1.0 + 2e-6))
        v = sol.sample(sol.t[-1] + np.array([0.0, 0.5, 1e3]))
        assert np.all(v == np.sqrt(sol.z[-1]))

    @settings(max_examples=30, deadline=None)
    @given(p=routes, frac=st.floats(0.0, 1.0))
    def test_sampling_equals_the_former_reference(self, p, frac):
        # Before the start, on every node, between nodes and past the end,
        # bit for bit.
        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        t = np.concatenate([[-1e3, -1.0, -1e-12], sol.t, sol.t[:-1] + frac * sol.h,
                            0.5 * (sol.t[:-1] + sol.t[1:]),
                            sol.t[-1] + np.array([1e-12, 0.5, 1e3])])
        assert sol.sample(t).tobytes() == former_reference(sol, p).sample(t).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(p=routes, frac=st.floats(-0.2, 1.2), span=st.floats(1e-6, 1.5))
    def test_mean_acceleration_over_a_hold_is_the_planned_one(self, p, frac, span):
        # The tracker's feedforward (sample(t + h) - sample(t)) / h is the
        # mean over [t, t + h] of the plan's acceleration: a_r[k] on
        # [t_k, t_{k+1}), as (v_{k+1} - v_k) / h_k = (z_{k+1} - z_k) / (2 dx_k),
        # and 0 outside [0, t_N], where the end speeds hold.
        sol = solve_or_confirm_infeasible(p)
        if sol is None:
            return
        t = sol.t[-1] * np.concatenate([[frac], np.linspace(-0.1, 1.1, 61)])
        h = span * sol.t[-1]
        overlap = np.clip(np.minimum(t[:, None] + h, sol.t[1:])
                          - np.maximum(t[:, None], sol.t[:-1]), 0.0, None)
        # A few ulps of the speeds, and of the speed that the largest
        # acceleration gains over the plan: the node times carry the
        # rounding of their cumulative sum.
        tol = 4.0 * np.finfo(float).eps * (np.sqrt(sol.z).max()
                                           + np.abs(sol.a_r).max() * sol.t[-1])
        np.testing.assert_allclose((sol.sample(t + h) - sol.sample(t)) / h,
                                   overlap @ sol.a_r / h, rtol=0.0, atol=tol / h)


def small_plan():
    p = tempo.build_problem(100.0, 2, 9.0, FLAT, flat_limit(15.0), unit_model(),
                            vdot_lim=10.0)
    return p, tempo.solve(p)


class TestSolutionIO:
    def test_csv_round_trip(self, tmp_path):
        p, sol = small_plan()
        sol.write(tmp_path)
        header, cols, meta = read_csv(tmp_path / "to_solution.csv")
        assert header == ["k", "t", "x", "v_r", "a_r", "u_r", "eta", "h"]
        for name in header[1:]:
            want = p.x[:-1] if name == "x" else getattr(sol, name)[:sol.h.size]
            np.testing.assert_array_equal(want, cols[name], err_msg=name)
        assert float(meta["t_end"]) == sol.t[-1]
        assert float(meta["E"]) == sol.E and meta["feasible"] == "1"
        assert float(meta["gap_rel"]) == sol.gap_rel

    def test_reference_csv_holds_the_node_rows(self, tmp_path):
        p, sol = small_plan()
        sol.write(tmp_path)
        header, cols, _ = read_csv(tmp_path / "reference.csv")
        assert header == ["t", "x", "v_r"]
        for name, want in zip(header, (sol.t, p.x, np.sqrt(sol.z))):
            np.testing.assert_array_equal(want, cols[name], err_msg=name)

    def test_files_equal_the_former_writers(self, tmp_path, truck_sc, truck_fit):
        _, model, eff, _ = truck_fit
        for tag, (p, sol) in (("small", small_plan()),
                              ("truck", harness.stage_plan(truck_sc, model, eff))):
            now, was = tmp_path / tag / "now", tmp_path / tag / "was"
            now.mkdir(parents=True)
            was.mkdir()
            sol.write(now)
            former_solution_csv(sol, was / "to_solution.csv", p)
            former_reference(sol, p).to_csv(was / "reference.csv")
            for name in ("to_solution.csv", "reference.csv"):
                assert (now / name).read_bytes() == (was / name).read_bytes(), (tag, name)
            assert sorted(f.name for f in now.iterdir()) == ["reference.csv", "to_solution.csv"]
