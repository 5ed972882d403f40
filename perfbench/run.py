"""Benchmark of the modru toolchain.

Run from the root of a checkout:

    python3 perfbench/run.py --workload truck --seed 7 --seconds 60 --trace 0

The seed makes the inputs: operation 0 uses it as the scenario or sweep
seed, further operations use seeds derived from it.  A workload with a
fixed panel of scenario seeds (``truck``) runs the panel instead, in an
order set by the seed.  A run makes the workload's operations per minute
times ``--seconds`` / 60 operations, at least one, so a seed always means
the same work.  Each operation runs in a fresh process of this script
(``--op-seed``), and its outputs are checked there, outside the timed
region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; their times are scaled to the
reference machine's idle speed by a host probe (see ``hostspeed.py``).
With ``--trace 1`` every public layer function is wrapped from outside
(see ``tracing.py``) and the metrics are the per-layer ones, unscaled.
The lines before it hold the run context and the per-operation details,
raw times included.  ``run_s`` and ``cpu_s`` are means over the run's
operations, ``setup_s`` a median over fresh processes, and every per-layer
metric a median over the run's operations.
BLAS is pinned to one thread so a run stays on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

# The workloads' answers come first; a metric a workload does not produce
# (a layer it leaves idle, an answer it does not give) reads 0.
PER_LAYER = {
    "E_realized_MJ": "MJ",
    "forecast_gap": "ratio",
    "tracking_rms": "m/s",
    "theta_err_max": "ratio",
    "t_r_ratio_mb": "ratio",
    "harness.stage_dataset_s": "s",
    "harness.stage_estimate_s": "s",
    "harness.stage_schedule_s": "s",
    "harness.stage_plan_s": "s",
    "harness.stage_track_s": "s",
    "tempo.solve_s": "s",
    "tempo.N": "count",
    "tempo.merit_rows": "count",
    "tempo.merit_rows_per_s": "1/s",
    "tempo.max_violation": "ratio",
    "tempo.E_pred": "J",
    "tempo.resample_s": "s",
    "lqr.dare_solve_s": "s",
    "lqr.dare_solve_calls": "count",
    "lqr.policy_iteration_s": "s",
    "lqr.policy_iteration_calls": "count",
    "lqr.rollout_s": "s",
    "lqr.rollout_calls": "count",
    "lqr.rise_time_s": "s",
    "lqr.rise_time_calls": "count",
    "lqr.sensitivity_s": "s",
    "lqr.sensitivity_calls": "count",
    "lqr.rise_time_nonsettling": "count",
    "lqr.bisection_evals": "count",
    "lqr.feasible_eval_frac": "fraction",
    "lqr.t_r_mf_s": "s",
    "plant.simulate_s": "s",
    "plant.simulate_calls": "count",
    "plant.steps": "count",
    "plant.steps_per_s": "1/s",
    "plant.velocity_clamps": "count",
    "sysid.fit_graybox_s": "s",
    "sysid.gn_iters": "count",
    "sysid.sim_theta_calls": "count",
    "sysid.sim_theta_s": "s",
    "sysid.fit_efficiency_s": "s",
    "sysid.eff_defaulted": "count",
    "sysid.fit_nrmse": "ratio",
    "controller.build_gain_schedule_s": "s",
    "controller.control_step_calls": "count",
    "controller.control_step_s": "s",
    "tables.write_s": "s",
    "tables.read_s": "s",
    "tables.bytes_written": "count",
    "bench.traced_run_s": "s",
    "bench.trace_overhead_s": "s",
}

# Fallback warnings the program emits, counted instead of printed.
FALLBACKS = {"sysid.eff_defaulted": "using default"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fast", action="store_true",
                   help="one small operation (for the self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up time and exit")
    p.add_argument("--op-seed", type=int, default=None,
                   help="run only the operation with this seed and print its record")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def op_seeds(np, wl, seed: int, n: int) -> list[int]:
    if wl.panel:
        k = len(wl.panel)
        return [wl.panel[(seed + i) % k] for i in range(n)]
    return [seed] + [int(x) for x in np.random.SeedSequence(seed).generate_state(n - 1)]


def run_op(wl, inp, tracer):
    """Run and check one operation.

    Returns (OpResult, wall s, cpu s, host scale, warning messages).  The
    host is probed only in untraced runs; in traced ones the scale is None.
    """
    import hostspeed
    from workloads import OpResult

    WORK_ROOT.mkdir(exist_ok=True)
    clock = hostspeed.Sampler() if tracer is None else None
    res = None
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if clock is not None:
            clock.start()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                out = wl.run(inp, tmp)
        except Exception as exc:  # a failing operation is counted, not fatal
            res = OpResult(attempted=wl.attempted)
            res.fail("*", f"{type(exc).__name__}: {exc}")
        finally:
            if clock is not None:
                clock.stop()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if res is None:
            try:
                res = wl.check(inp, out)
            except Exception as exc:  # outputs the check cannot read fail it
                res = OpResult(attempted=wl.attempted)
                res.fail("*", f"check: {type(exc).__name__}: {exc}")
    scale = None
    if clock is not None:
        wall, cpu, scale = wall - clock.wall, cpu - clock.cpu, clock.scale()
    messages = [str(w.message) for w in caught]
    for name, text in FALLBACKS.items():
        res.counters[name] = sum(text in m for m in messages)
    return res, wall, cpu, scale, messages


def git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(np, args, seeds, overhead_s) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fast": args.fast, "op_seeds": seeds,
        "git": git_state(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "trace_overhead_s": overhead_s,
    }


def bench_cmd(args, *extra) -> list[str]:
    """This script's command line for a child process of this run."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *(["--fast"] if args.fast else []), *extra]


def child_line(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(args) -> list[list[float]]:
    """[set-up s, host scale] of fresh processes; set-up is imports plus
    building the first inputs."""
    return [child_line(bench_cmd(args, "--setup-only")) for _ in range(SETUP_SAMPLES)]


def measure_op(wl, seed, args) -> dict:
    """Record of one operation: raw and host-scaled times, answers, layer values."""
    tracer = None
    if args.trace:
        import tracing
        call_cost = tracing.wrapper_cost_s()
        tracer = tracing.Tracer()
    res, wall, cpu, scale, messages = run_op(wl, wl.build(seed, args.fast), tracer)
    values = {**res.quality, **res.counters}
    if tracer is not None:
        values.update(tracer.layer_metrics())
        values["bench.traced_run_s"] = wall
        values["bench.trace_overhead_s"] = call_cost * sum(tracer.calls.values())
        for rate, count, secs in (("tempo.merit_rows_per_s", "tempo.merit_rows", "tempo.solve_s"),
                                  ("plant.steps_per_s", "plant.steps", "plant.simulate_s")):
            if values.get(secs, 0.0) > 0.0:
                values[rate] = values.get(count, 0.0) / values[secs]
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "host_scale": scale,
            "attempted": res.attempted, "failed": res.failed, "failures": res.failures,
            "warnings": len(messages), "quality": res.quality, "counters": res.counters,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "values": values}


def median_of(values) -> float:
    finite = [float(v) for v in values if v is not None and math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modru" / "__init__.py").is_file():
        print(f"perfbench: no modru package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np
    import hostspeed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.op_seed is not None:
        print(json.dumps(measure_op(wl, args.op_seed, args)))
        return 0
    n_ops = 1 if args.fast else max(1, round(wl.ops * args.seconds / 60.0))
    seeds = op_seeds(np, wl, args.seed, n_ops)
    if args.setup_only:
        wl.build(seeds[0], args.fast)
        setup_s = time.perf_counter() - t0
        print(json.dumps([setup_s, hostspeed.scale_of(hostspeed.probes())]))
        return 0

    # Each operation runs in a fresh process: a process can run the same
    # pipeline 20-30% faster or slower than the next one for its whole
    # life, which the host probe does not see, so a run averages over
    # independent processes rather than over one.
    ops = [child_line(bench_cmd(args, "--op-seed", str(seed))) for seed in seeds]
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    for op in ops:
        for unit, reasons in op["failures"].items():
            for reason in reasons:
                print(f"perfbench: {args.workload} seed {op['seed']} {unit}: {reason}",
                      file=sys.stderr)

    setups = []
    if args.trace:
        metrics = {name: {"value": median_of(op["values"].get(name) for op in ops),
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        setups = setup_samples(args)
        values = {
            "setup_s": statistics.median(secs * scale for secs, scale in setups),
            "run_s": statistics.fmean(op["wall_s"] * op["host_scale"] for op in ops),
            "cpu_s": statistics.fmean(op["cpu_s"] * op["host_scale"] for op in ops),
            "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    overhead = median_of(op["values"].get("bench.trace_overhead_s") for op in ops) \
        if args.trace else 0.0
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()

    print(json.dumps({"context": run_context(np, args, seeds, overhead)}))
    print(json.dumps({"detail": {"setup_samples_s": setups, "ops": [
        {k: v for k, v in op.items() if k != "values"} for op in ops]}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
