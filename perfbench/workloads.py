"""Benchmark workloads: inputs made from a seed, one timed operation, gates.

Each workload builds the inputs of its operations from the workload seed,
runs one operation through the public ``modru`` API, and checks the
outputs afterwards (outside the timed region).  An operation is one
pipeline run (``truck``, ``car``), one robustness sweep (``servo``) or
one round of three fits (``identify``); failures are counted per pipeline
run, sweep row or fit.

Why these workloads:

- ``truck``: the default truck pipeline on a fixed panel of scenario
  seeds; ``tempo.solve`` at N = 100 does almost all of the work, so a
  timing-optimiser change shows at full size.
- ``car``: the default car pipeline; the same layers at N = 50 with the
  power-input plant and closed loop at h = 0.2 s.
- ``servo``: the LQR robustness sweep, model-based at tau = 0.2 and 0 and
  model-free at tau = 0, where both routes must agree; only ``lqr`` works.
- ``identify``: excitation, gray-box fit and a file round trip for truck
  T_m = 1, truck T_m = 10 and car; only ``plant``, ``sysid`` and
  ``tables`` work, which are a few percent of the pipelines.

BENCHMARK.json lists only ``truck`` and ``servo``.  ``car`` and
``identify`` fail their gates at some seeds: the car's tracking exceeds
the speed limit by more than 0.5 m/s (0.76 m/s at seed 4), and the
T_m = 10 fit can show less lag bias than 0.05 (0.0465 at seed 1490961094).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from modru import config, harness, lqr, sysid
from modru.plant import TruckParams

# Rise-time targets of the servo benchmark (acceptance criterion c02) [s].
T_R_TARGET = {0.2: 2.15, 0.0: 0.22}
# (taus, methods) of the servo sweeps.  The model-free row at tau = 0.2 is
# left out: its cost ranges from 5 s to over 150 s with the seed, because
# each non-settling rise-time evaluation steps 500,000 times in Python.
SERVO_SWEEPS = (((0.0,), ("model-based", "model-free")),
                ((0.2,), ("model-based",)))
SERVO_ROWS = sum(len(taus) * len(methods) for taus, methods in SERVO_SWEEPS)


@dataclass
class OpResult:
    """Checked outcome of one operation."""

    attempted: int
    # Failure unit (pipeline run, sweep row or fit; "*" for all) -> reasons.
    failures: dict = field(default_factory=dict)
    # Answers of the program; bit-identical whether traced or not.
    quality: dict = field(default_factory=dict)
    # Work counts read from the outputs.
    counters: dict = field(default_factory=dict)

    def fail(self, unit: str, reason: str) -> None:
        self.failures.setdefault(unit, []).append(reason)

    @property
    def failed(self) -> int:
        return self.attempted if "*" in self.failures else len(self.failures)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object        # (seed, fast) -> inputs of one operation
    run: object          # (inputs, workdir) -> outputs
    check: object        # (inputs, outputs) -> OpResult
    attempted: int       # failure units per operation
    ops: int             # operations a 60-second run averages
    # Fixed scenario seeds of the operations; the run seed only sets the
    # order.  Empty: operation seeds are derived from the run seed.
    panel: tuple = ()


def _rel_errors(sc, model) -> np.ndarray:
    """Relative coefficient errors over the fitted terms the plant has."""
    truth = harness.true_theta(sc)
    sel = np.asarray(model.mask, dtype=bool) & (truth != 0.0)
    return np.abs(model.theta[sel] - truth[sel]) / np.abs(truth[sel])


# -- truck, car -------------------------------------------------------------

def _pipeline_build(plant_type):
    def build(seed, fast):
        sc = (config.default_truck_scenario() if plant_type == "truck"
              else config.default_car_scenario())
        sc.seed = seed
        if fast:
            # The fewest segments with which the fast run still passes the gates.
            sc.to_n = 10 if plant_type == "truck" else 20
        return sc
    return build


def _pipeline_run(sc, workdir):
    return harness.run_pipeline(sc, out_dir=workdir)


def _pipeline_check(sc, out) -> OpResult:
    report, art = out
    sol, problem = art["solution"], art["problem"]
    res = OpResult(attempted=1)
    if not sol.feasible:
        res.fail(sc.name, "timing solution not feasible")
    if not report.t_terminal <= 1.005 * sc.T_f:
        res.fail(sc.name, f"t_terminal {report.t_terminal:.6g} > 1.005 T_f")
    if not report.limit_overshoot <= 0.5:
        res.fail(sc.name, f"limit overshoot {report.limit_overshoot:.6g} > 0.5 m/s")
    if not (math.isfinite(report.E_pred) and math.isfinite(report.E_realized)):
        res.fail(sc.name, "non-finite energy")
    if res.failures:
        return res
    res.quality = {
        "E_realized_MJ": report.E_realized / 1e6,
        "forecast_gap": abs(report.E_realized / report.E_pred - 1.0),
        "tracking_rms": report.tracking_rms,
        "theta_err_max": float(_rel_errors(sc, art["model"]).max()),
        "tempo.E_pred": sol.E,
        "tempo.max_violation": _max_violation(problem, sol),
        "sysid.fit_nrmse": report.fit_nrmse,
    }
    res.counters = {"tempo.N": problem.n_segments,
                    "sysid.gn_iters": art["fit"].n_iter}
    return res


def _max_violation(problem, sol) -> float:
    """Worst normalised constraint violation of a timing solution (0 if none)."""
    parts = [(float(sol.h.sum()) - problem.T_f) / problem.T_f,
             float(np.max(np.abs(sol.a_r) - problem.vdot_lim)) / problem.vdot_lim,
             float(np.max((sol.v_r - problem.v_lim) / problem.v_lim))]
    if problem.u_lim is not None and problem.mode == "full":
        parts.append(float(np.max(np.abs(sol.u_r) - problem.u_lim)) / problem.u_lim)
    return max(0.0, *parts)


# -- servo ------------------------------------------------------------------

def _servo_build(seed, fast):
    kwargs = {"bisect_steps": 4, "log_qu_range": (-3.0, 3.0)} if fast else {}
    return {"seed": seed, "kwargs": kwargs}


def _servo_run(inp, workdir):
    return [row for taus, methods in SERVO_SWEEPS
            for row in lqr.robustness_sweep(taus, methods=methods, seed=inp["seed"],
                                            **inp["kwargs"])]


def _servo_check(inp, rows) -> OpResult:
    res = OpResult(attempted=SERVO_ROWS)
    by = {(r.tau, r.method): r for r in rows}
    if len(rows) != res.attempted or len(by) != res.attempted:
        res.fail("*", f"sweep returned {len(rows)} rows, expected {res.attempted}")
        return res
    for r in rows:
        unit = f"tau={r.tau:g} {r.method}"
        if not (r.feasible and r.M_S <= lqr.MS_MAX + 1e-9 and r.M_T <= lqr.MT_MAX + 1e-9):
            res.fail(unit, f"feasible={r.feasible} M_S={r.M_S:.4g} M_T={r.M_T:.4g}")
        if r.method == "model-based" and not (math.isfinite(r.t_r) and r.t_r > 0.0):
            res.fail(unit, f"rise time {r.t_r} not finite")
    mb = [r for r in rows if r.method == "model-based"]
    t_mb, t_mf = by[(0.0, "model-based")].t_r, by[(0.0, "model-free")].t_r
    if not abs(t_mf - t_mb) <= 0.15 * abs(t_mb):
        res.fail("tau=0 model-free", f"t_r {t_mf:.6g} not within 15% of "
                 f"model-based {t_mb:.6g}")
    if res.failures:
        return res
    evals = [e for r in rows for e in r.trace]
    res.quality = {
        "t_r_ratio_mb": max(r.t_r / T_R_TARGET[r.tau] for r in mb),
        "lqr.t_r_mf_s": t_mf,
    }
    res.counters = {
        "lqr.bisection_evals": len(evals),
        "lqr.feasible_eval_frac": sum(1 for e in evals if e[2]) / len(evals),
        # A design inside the margins whose step response never reaches
        # 90%: the sweep keeps it as feasible with t_r = inf.
        "lqr.rise_time_nonsettling": sum(1 for e in evals
                                         if e[2] and not math.isfinite(e[1])),
    }
    return res


# -- identify ---------------------------------------------------------------

def _identify_build(seed, fast):
    truck = config.default_truck_scenario()
    return [dataclasses.replace(truck, name=f"truck-lag-{t_m:g}", seed=seed,
                                plant_params=TruckParams(T_m=t_m))
            for t_m in (1.0, 10.0)] \
        + [dataclasses.replace(config.default_car_scenario(), seed=seed)]


def _identify_run(scs, workdir):
    out = []
    for j, sc in enumerate(scs):
        data = harness.stage_dataset(sc)
        model, eff, fit = harness.stage_estimate(sc, data)
        d = Path(workdir) / f"fit{j}"
        d.mkdir()
        data.to_csv(d / "dataset.csv")
        sysid.save_theta(d / "theta.txt", model, eff)
        back = (sysid.Dataset.from_csv(d / "dataset.csv"),
                *sysid.load_theta(d / "theta.txt"))
        out.append((data, model, eff, fit, back))
    return out


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _identify_check(scs, fits) -> OpResult:
    res = OpResult(attempted=len(scs))
    errs = []
    for sc, (data, model, eff, fit, back) in zip(scs, fits):
        data_b, model_b, eff_b = back
        cols = ("t", "v", "alpha", "u", "P")
        if not (all(_same_bits(getattr(data, c), getattr(data_b, c)) for c in cols)
                and _same_bits(model.theta, model_b.theta)
                and _same_bits(model.mask, model_b.mask)
                and eff_b is not None
                and (eff.gen_factor, eff.regen_factor)
                == (eff_b.gen_factor, eff_b.regen_factor)):
            res.fail(sc.name, "dataset.csv / theta.txt round trip not bit-exact")
        errs.append(_rel_errors(sc, model))
    # Acceptance criterion c04: an accurate fit without motor lag, and a
    # visible bias from the unmodelled lag at T_m = 10 s.
    lag1, lag10, car = errs
    if not np.all(lag1 < 0.005):
        res.fail(scs[0].name, f"coefficient error {lag1.max():.4g} >= 0.005")
    if not np.any((lag10 >= 0.05) & (lag10 <= 0.20)):
        res.fail(scs[1].name, "no coefficient error in [0.05, 0.20]")
    if res.failures:
        return res
    res.quality = {
        "theta_err_max": float(max(lag1.max(), car.max())),
        "sysid.fit_nrmse": max(sysid.validate(f[1], f[0]) for f in fits),
    }
    res.counters = {"sysid.gn_iters": sum(f[3].n_iter for f in fits)}
    return res


# One truck pipeline's cost varies 2.2x with its scenario seed (the timing
# solver's iteration count: 10.6 s at seed 4, 23.4 s at seed 1234 on the
# reference machine), and a 60-second run holds only three pipelines, so
# runs on drawn seeds differ by their draw.  Truck runs therefore time the
# same three scenarios, the default (seed 1234) and seeds 1 and 2, whatever
# the run seed; a servo sweep's cost varies by a few percent.
TRUCK_PANEL = (1234, 1, 2)

WORKLOADS = {w.name: w for w in (
    Workload("truck", _pipeline_build("truck"), _pipeline_run, _pipeline_check, 1,
             len(TRUCK_PANEL), TRUCK_PANEL),
    Workload("car", _pipeline_build("car"), _pipeline_run, _pipeline_check, 1, 10),
    Workload("servo", _servo_build, _servo_run, _servo_check, SERVO_ROWS, 1),
    Workload("identify", _identify_build, _identify_run, _identify_check, 3, 20),
)}
