"""Per-layer tracing of the modru package, applied from outside.

A :class:`Tracer` replaces public functions of the modru modules with
timing wrappers for the duration of a ``with`` block and puts the
originals back on exit.  A function is rebound in every modru module that
holds it, because ``from .plant import simulate`` binds a second name
that the caller looks up.  The program code is not changed, so a traced
run computes bit-identical numbers; only the wrappers' own cost is added.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

from modru import controller, harness, lqr, plant, sysid, tables, tempo


def _rows(out, args, kwargs):
    # energy_terms(eta, u, v, h): a 2-D h holds one merit row per line.
    h = args[3] if len(args) > 3 else kwargs["h"]
    return {"tempo.merit_rows": h.shape[0] if h.ndim == 2 else 1}


def _plant_steps(traj, args, kwargs):
    return {"plant.steps": traj.t.size - 1,
            "plant.velocity_clamps": traj.n_velocity_clamps}


def _bytes_written(out, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"tables.bytes_written": Path(path).stat().st_size}


# (module, function, key, counter): the key names the layer metrics <key>_s
# and <key>_calls, and functions that share a key add up.  A function the
# program no longer has is skipped, so its metrics read 0.
TIMED = [
    (harness, "stage_dataset", "harness.stage_dataset", None),
    (harness, "stage_estimate", "harness.stage_estimate", None),
    (harness, "stage_schedule", "harness.stage_schedule", None),
    (harness, "stage_plan", "harness.stage_plan", None),
    (harness, "stage_track", "harness.stage_track", None),
    (tempo, "solve", "tempo.solve", None),
    (tempo, "resample_equidistant", "tempo.resample", None),
    (tempo, "energy_terms", "tempo.energy_terms", _rows),
    (lqr, "dare_solve", "lqr.dare_solve", None),
    (lqr, "lqrl_policy_iteration", "lqr.policy_iteration", None),
    (lqr, "rise_time", "lqr.rise_time", None),
    (lqr, "sensitivity_metrics", "lqr.sensitivity", None),
    (plant, "simulate", "plant.simulate", _plant_steps),
    (sysid, "fit_graybox", "sysid.fit_graybox", None),
    (sysid, "_simulate_theta", "sysid.sim_theta", None),
    (sysid, "fit_efficiency", "sysid.fit_efficiency", None),
    (controller, "build_gain_schedule", "controller.build_gain_schedule", None),
    (controller, "control_step", "controller.control_step", None),
    (tables, "write_csv", "tables.write", _bytes_written),
    (tables, "write_keyvalues", "tables.write", _bytes_written),
    (tables, "read_csv", "tables.read", None),
    (tables, "read_keyvalues", "tables.read", None),
]


class Tracer:
    """Accumulates wall time, calls and counters per layer key."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list = []

    def timed(self, fn, key, count=None):
        """Return ``fn`` wrapped to add its time, calls and counts to ``key``."""
        seconds, calls, counts = self.seconds, self.calls, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - t0
                calls[key] += 1
            if count is not None:
                for name, n in count(out, args, kwargs).items():
                    counts[name] += n
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, name, replacement) -> None:
        """Rebind ``module.name`` in every modru module that holds it."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "modru" or mod_name.startswith("modru.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def __enter__(self) -> "Tracer":
        for module, name, key, count in TIMED:
            if hasattr(module, name):
                self.patch(module, name, self.timed(getattr(module, name), key, count))
        # linear_rollouts builds a sampler closure; time the closure's calls.
        make_source = getattr(lqr, "linear_rollouts", None)
        if make_source is not None:
            self.patch(lqr, "linear_rollouts",
                       lambda *a, **k: self.timed(make_source(*a, **k), "lqr.rollout"))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}_s"] = self.seconds[key]
            out[f"{key}_calls"] = float(self.calls[key])
        out.update(self.counts)
        return out


def wrapper_cost_s(n: int = 20000) -> float:
    """Measured extra cost of one traced call over a plain call, in seconds."""
    def noop(*args):
        return args

    tracer = Tracer()
    wrapped = tracer.timed(noop, "noop")
    clock = time.perf_counter
    elapsed = []
    for fn in (noop, wrapped):
        t0 = clock()
        for _ in range(n):
            fn(1)
        elapsed.append(clock() - t0)
    return max(elapsed[1] - elapsed[0], 0.0) / n
