"""End-to-end experiment harness.

Composable stages: excitation-data generation, gray-box + efficiency
estimation, gain-schedule design, timing optimization, and closed-loop
tracking of the plan on the simulated plant.  The plan (tempo.TOSolution)
is the reference: it samples its speed, linear in time between nodes, and
writes its files; the plant starts on it, at its first speed and feedforward
input.  Stages run standalone (CLI subcommands) or composed (``run_pipeline``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace, asdict
from pathlib import Path

import numpy as np

from . import controller as ctl
from . import lqr, sysid, tempo
from .config import Scenario
from .errors import EstimationError, InfeasibleError, NumericalError
from .plant import PlantState, PositionProfile, TruckParams, input_mass, simulate
from .tables import write_csv, write_keyvalues


def true_theta(sc: Scenario) -> np.ndarray:
    """Reduced-model coefficients implied by the plant parameters.

    Valid for small slope angles (sin a ~ a, cos a ~ 1 - a^2/2); the
    velocity-linear term is structurally absent for both plants.
    """
    p = sc.plant_params
    return np.array([
        1.0 / input_mass(p),
        -p.g * p.c_r,
        0.0,
        -0.5 * p.rho_a * p.c_d * p.A_f / p.m,
        -p.g,
        0.5 * p.g * p.c_r,
    ])


def _balance_input(sc: Scenario, v: float) -> float:
    """Input holding velocity v on flat road (for excitation level design)."""
    p = sc.plant_params
    force = p.c_r * p.m * p.g + 0.5 * p.rho_a * p.c_d * p.A_f * v * v
    return force * p.R if isinstance(p, TruckParams) else force


def excitation_slope(sc: Scenario) -> PositionProfile:
    """Gently rolling test route for identification runs (sinusoid grade).

    The amplitude comes from the scenario: open-loop balance levels only
    hold their target on flat road, so the grade must stay small enough
    that one staircase hold cannot stall the vehicle.
    """
    v_max = float(np.max(sc.v_limit.values))
    length = 1.2 * v_max * sc.est_duration + 1000.0
    s = np.linspace(0.0, length, max(64, int(length // 50)))
    return PositionProfile(s, sc.est_slope_amp * np.sin(2.0 * math.pi * s / 800.0),
                           "linear")


def stage_dataset(sc: Scenario) -> sysid.Dataset:
    """Drive a staircase-plus-PRBS excitation run and record it.

    One ``random.Random(seed)`` (:func:`lqr.seeded_random`, which refuses
    a negative seed) draws the PRBS signs and then any measurement noise;
    ``numpy.random`` is never loaded."""
    rng = lqr.seeded_random(sc.seed)
    v_max = float(np.max(sc.v_limit.values))
    targets = v_max * np.array([0.5, 0.85, 0.35, 0.7, 0.95, 0.45])
    levels = np.array([_balance_input(sc, v) for v in targets])
    n = int(round(sc.est_duration / sc.est_h))
    hold = min(int(round(sc.est_hold / sc.est_h)), n)
    u = levels[(np.arange(n) // hold) % levels.size].astype(float)
    # Random binary perturbation.  Long bits keep the excitation slow
    # against a ~1 s actuator lag so the reduced (lag-free) model stays
    # identifiable without bias; 5% of the mean level keeps it gentle.
    bit = max(1, int(round(40.0 / sc.est_h)))
    n_bits = n // bit + 1
    prbs = [-1.0 if rng.random() < 0.5 else 1.0 for _ in range(n_bits)]
    u = (u + 0.05 * float(levels.mean()) * np.repeat(prbs, bit)[:n]).tolist()

    slope = excitation_slope(sc)
    x0 = PlantState(s=0.0, v=0.5 * v_max, u_m=u[0])
    traj = simulate(sc.plant_params, lambda k, s, v: (u[k], u[k], 0.0),
                    slope, x0, h=sc.est_h, n=n, substeps=2,
                    efficiency=(sc.eff_gen, sc.eff_regen))
    if traj.n_velocity_clamps > 0.1 * traj.v.size:
        raise EstimationError(
            "excitation run stalls on the test route; the balance levels for "
            f"v_max={v_max:g} m/s cannot hold the grades (raise speed limits)")
    v_meas = traj.v.copy()
    if sc.est_noise > 0:
        v_meas += [rng.gauss(0.0, sc.est_noise) for _ in range(v_meas.size)]
    return sysid.Dataset(t=traj.t, v=v_meas, alpha=slope.value(traj.s),
                         u=traj.u_s, P=traj.P)


def stage_estimate(sc: Scenario, data: sysid.Dataset
                   ) -> tuple[sysid.GrayBoxModel, sysid.EfficiencyParams, sysid.GrayBoxFit]:
    """Fit the gray box (with the scenario's term mask) and the efficiency factors."""
    model, fit = sysid.fit_graybox(data, mask=sc.est_mask)
    for i in (2, 3):
        # A positive drag term pushes the vehicle forward; the planner and
        # the feedforward would spend it as free thrust.
        if model.theta[i] > 0.0:
            raise EstimationError(f"fitted drag term theta{i + 1} = "
                                  f"{model.theta[i]:.3g} > 0 does not oppose motion")
    eff = sysid.fit_efficiency(data.P, data.u, data.v)
    return model, eff, fit


def stage_schedule(sc: Scenario, model: sysid.GrayBoxModel) -> ctl.GainSchedule:
    v_max = float(np.max(sc.v_limit.values))
    grid = np.linspace(0.0, v_max, sc.grid_n)
    return ctl.build_gain_schedule(model, grid, h=sc.sim_h,
                                   rho_I=sc.rho_I, rho_u=sc.rho_u)


def stage_plan(sc: Scenario, model: sysid.GrayBoxModel, eff: sysid.EfficiencyParams
               ) -> tuple[tempo.TOProblem, tempo.TOSolution]:
    """Solve the timing problem; returns (problem, plan), the tracking reference."""
    problem = tempo.build_problem(
        sc.path_length, sc.to_n, sc.T_f, sc.slope, sc.v_limit, model, eff,
        vdot_lim=sc.vdot_lim, u_lim=sc.to_u_lim)
    sol = tempo.solve(problem)
    if not sol.feasible:
        raise InfeasibleError("timing optimization did not reach feasibility")
    return problem, sol


def stage_track(sc: Scenario, model: sysid.GrayBoxModel,
                schedule: ctl.GainSchedule,
                plan: tempo.TOSolution) -> tuple:
    """Track the plan's speed, sampled every sim.h, on the true plant;
    returns (trajectory, metrics), the metrics keyed by their RunReport
    fields.  The feedforward takes the speed's mean acceleration over each
    hold, which is 0 past the end, where it holds.  The run's deadline is
    the plan's end plus max(20 samples, 5%); a run that has not reached
    the route's end by then raises NumericalError."""
    h = sc.sim_h
    t_end = float(plan.t[-1])
    n = int(math.ceil(t_end / h)) + max(20, int(0.05 * t_end / h))
    v_ref = plan.sample(np.arange(n + 2) * h)
    a_ref = np.diff(v_ref) / h
    kps, tis = (g.tolist() for g in schedule.gains(v_ref))

    w = 0.0   # the controller's anti-windup channel
    v_refs, a_refs, slope_at = v_ref.tolist(), a_ref.tolist(), sc.slope.at

    def callback(k, s, v):
        nonlocal w
        # Feedforward re-inverted on line: reference speed now, its mean
        # acceleration to the next sample, grade at the measured position.
        u_ff = ctl.feedforward(v_refs[k], a_refs[k], slope_at(s), model)
        u, u_s, du, w = ctl.control_step(
            w, v_refs[k], v, u_ff, kps[k], tis[k], sc.ctrl_u_lim)
        return u, u_s, du

    # The truck's lagged motor starts at the first feedforward input, so
    # the plant starts on the plan; the car has no motor state.
    u_m = ctl.feedforward(v_refs[0], a_refs[0], slope_at(0.0), model)
    x0 = PlantState(s=0.0, v=v_refs[0], u_m=u_m)
    traj = simulate(sc.plant_params, callback, sc.slope, x0, h=h, n=n,
                    substeps=sc.sim_substeps,
                    efficiency=(sc.eff_gen, sc.eff_regen))

    k_end = int(round(t_end / h))
    track_err = traj.v[:k_end + 1] - v_ref[:k_end + 1]
    rms = lambda x: float(np.sqrt(np.mean(np.square(x)))) if len(x) else math.nan

    cross = np.nonzero(traj.s >= sc.path_length)[0]
    if not cross.size:
        raise NumericalError(f"the closed loop reached {traj.s[-1]:.2f} of {sc.path_length:g}"
                             f" m in {traj.t[-1]:g} s; the plan ends at {t_end:g} s")
    k_c = int(cross[0])   # >= 1: the run starts at s = 0 < path_length
    frac = (sc.path_length - traj.s[k_c - 1]) / (traj.s[k_c] - traj.s[k_c - 1])
    t_cross = traj.t[k_c - 1] + frac * h
    # Energy up to the crossing: whole intervals plus the fraction.
    e_real = float(np.sum(traj.P[:k_c - 1] * h)) + float(traj.P[k_c - 1]) * frac * h
    v_end = float(traj.v[k_c - 1] + frac * (traj.v[k_c] - traj.v[k_c - 1]))
    # The planner's boundary rule (tempo.BOUNDARY_RULE): the kinetic energy the
    # plant starts with is charged, and the one it ends with credited, at par.
    e_real += 0.5 * input_mass(sc.plant_params) * (float(traj.v[0]) ** 2 - v_end ** 2)

    v_lim_at = sc.v_limit.value(traj.s[:k_end + 1])
    metrics = {
        "tracking_rms": rms(track_err),
        "du_ratio": rms(traj.du[:k_end]) / max(rms(traj.u_s[:k_end]), 1e-12),
        "t_terminal": t_cross,
        "E_realized": e_real,
        "terminal_position_error": float(traj.s[k_end] - sc.path_length),
        "limit_overshoot": float(np.max(traj.v[:k_end + 1] - v_lim_at)),
        "n_velocity_clamps": traj.n_velocity_clamps,
    }
    return traj, metrics


@dataclass
class RunReport:
    """Flat summary of one pipeline run (serializes to key = value text)."""

    name: str
    plant_type: str
    seed: int
    T_f: float
    theta_hat: tuple
    theta_err: tuple
    fit_nrmse: float
    # False when the gray-box fit stopped at its iteration limit.
    fit_converged: bool
    eff_gen_hat: float
    eff_regen_hat: float
    # "fitted", "default" or "clipped" (see sysid.EfficiencyParams).
    eff_gen_status: str
    eff_regen_status: str
    E_pred: float
    E_realized: float
    t_end_planned: float
    t_terminal: float
    tracking_rms: float
    du_ratio: float
    terminal_position_error: float
    limit_overshoot: float
    n_velocity_clamps: int
    # Timing planner: relative duality gap, interior-point iterations, exit
    # reason, and the boundary-speed rule that E_pred and E_realized both follow.
    plan_gap_rel: float = math.nan
    plan_newton_iters: int = 0
    plan_exit: str = ""
    plan_boundary: str = tempo.BOUNDARY_RULE

    def to_items(self) -> dict:
        items = {}
        for key, val in asdict(self).items():
            if isinstance(val, tuple):
                for i, x in enumerate(val):
                    items[f"{key}{i + 1}"] = x
            else:
                items[key] = val
        return items


def _theta_errors(sc: Scenario, model: sysid.GrayBoxModel) -> np.ndarray:
    truth = true_theta(sc)
    err = np.full(6, math.nan)
    for i in range(6):
        if model.mask[i] and truth[i] != 0.0:
            err[i] = abs(model.theta[i] - truth[i]) / abs(truth[i])
    return err


def _run_report(sc: Scenario, fit: sysid.GrayBoxFit, model: sysid.GrayBoxModel,
                eff: sysid.EfficiencyParams, sol: tempo.TOSolution,
                metrics: dict) -> RunReport:
    """Report of one planned and tracked run; ``fit_nrmse`` is the fit's own."""
    return RunReport(
        name=sc.name,
        plant_type="truck" if isinstance(sc.plant_params, TruckParams) else "car",
        seed=sc.seed, T_f=sc.T_f,
        theta_hat=tuple(float(x) for x in model.theta),
        theta_err=tuple(float(x) for x in _theta_errors(sc, model)),
        fit_nrmse=fit.nrmse, fit_converged=fit.converged,
        eff_gen_hat=eff.gen_factor, eff_regen_hat=eff.regen_factor,
        eff_gen_status=eff.gen_status, eff_regen_status=eff.regen_status,
        E_pred=sol.E, t_end_planned=float(sol.t[-1]), **metrics,
        plan_gap_rel=sol.gap_rel, plan_newton_iters=sol.n_newton, plan_exit=sol.exit)


def run_pipeline(sc: Scenario, out_dir=None) -> tuple[RunReport, dict]:
    """Full chain: excite, estimate, design, plan, track, report."""
    return _run_on_record(sc, stage_dataset(sc), out_dir)


def _run_on_record(sc: Scenario, data: sysid.Dataset, out_dir) -> tuple[RunReport, dict]:
    """The chain after excitation, on the record ``data`` of ``sc``."""
    model, eff, fit = stage_estimate(sc, data)
    schedule = stage_schedule(sc, model)
    problem, sol = stage_plan(sc, model, eff)
    traj, metrics = stage_track(sc, model, schedule, sol)

    report = _run_report(sc, fit, model, eff, sol, metrics)

    artifacts = {"data": data, "model": model, "eff": eff, "fit": fit,
                 "schedule": schedule, "problem": problem, "solution": sol,
                 "trajectory": traj, "metrics": metrics}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        data.to_csv(out / "dataset.csv")
        sysid.save_theta(out / "theta.txt", model, eff)
        schedule.to_csv(out / "schedule.csv")
        sol.write(out)
        traj.to_csv(out / "closed_loop.csv")
        write_keyvalues(out / "report.txt", report.to_items())
    return report, artifacts


def compare_slope_knowledge(sc: Scenario, out_dir=None) -> dict:
    """Run the pipeline with and without the slope term in the model.

    With the slope term masked out, both the feedforward and the planned
    reference are blind to the grade, so the feedback loop has to carry
    the grade disturbance.  The two runs differ only in the mask and the
    name, which the excitation run does not read, so they share one record.
    """
    data = stage_dataset(sc)
    mask_with = sc.est_mask[:4] + (True, sc.est_mask[5])
    mask_without = sc.est_mask[:4] + (False, False)
    results = {}
    for tag, mask in (("slope-aware", mask_with), ("slope-blind", mask_without)):
        sci = replace(sc, est_mask=mask, name=f"{sc.name}-{tag}")
        sub = Path(out_dir) / tag if out_dir is not None else None
        report, artifacts = _run_on_record(sci, data, sub)
        results[tag] = {"report": report, "artifacts": artifacts}
    summary = {f"{metric}_{tag.split('-')[1]}": getattr(results[tag]["report"], metric)
               for metric in ("du_ratio", "tracking_rms", "E_realized")
               for tag in ("slope-aware", "slope-blind")}
    results["summary"] = summary
    if out_dir is not None:
        write_keyvalues(Path(out_dir) / "comparison.txt", summary)
    return results


def write_robustness_csv(path, rows: list[lqr.RobustnessRow]) -> None:
    """Write sweep rows; ``feasible`` is 1/0 and ``n_evals`` counts the
    designs evaluated for the row (decade walk-down and Brent boundary
    search on Q_u), so an infeasible row is not read as a design."""
    write_csv(path, ["tau", "method", "t_r", "M_S", "M_T", "Q_u", "feasible",
                     "n_evals"],
              [[r.tau for r in rows], [r.method for r in rows],
               [r.t_r for r in rows], [r.M_S for r in rows],
               [r.M_T for r in rows], [r.Q_u for r in rows],
               [r.feasible for r in rows], [len(r.trace) for r in rows]])
