"""Longitudinal vehicle dynamics and a fixed-step closed-loop simulator.

Two plants are provided:

* heavy truck, torque input ``u`` [N m] with a first-order motor lag::

      ds/dt = v
      m dv/dt = u_m / R - F_air(v) - F_grade(s)
      T_m du_m/dt = u - u_m

  with ``F_air = rho_a c_d A_f v^2 / 2`` and
  ``F_grade = m g (sin(alpha) + c_r cos(alpha))``.

* passenger car, power input ``u`` [W]::

      m dv/dt = u / v - rho_a c_d A_f v^2 / 2 - c_r m g cos(alpha)
                - m g sin(alpha)

  where the power is clamped to ``[u_min, u_max]`` and the acceleration
  to ``[-a_lim, a_lim]``.  The division uses ``max(v, v_eps)``.

A controller callback issues one command per sampling interval, held
constant over it (zero-order hold); the continuous dynamics are
integrated with classical RK4 inside each interval.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .errors import SimulationDivergence
from .tables import write_csv

# Velocity magnitude beyond which the integration is considered diverged.
V_DIVERGED = 1.0e3

# Velocity floor used in the car's power-to-force division.
V_EPS = 0.1


def _check_params(p) -> None:
    """Raise ``ValueError`` unless every parameter is a finite real and the
    road loads are physical."""
    for f in fields(p):
        value = getattr(p, f.name)
        if not (isinstance(value, Real) and math.isfinite(value)):
            raise ValueError(f"{f.name} must be a finite number, got {value!r}")
    # A negative load would pay for driving.
    if not (p.rho_a >= 0 and p.c_d >= 0 and p.A_f >= 0 and p.c_r >= 0 and p.g > 0):
        raise ValueError("rho_a, c_d, A_f and c_r must be non-negative and g positive")


@dataclass(frozen=True)
class TruckParams:
    """Heavy-duty truck parameters (40 t tractor-trailer defaults)."""

    m: float = 40_000.0    # vehicle mass [kg]
    R: float = 0.1         # torque-to-wheel-force ratio [m]
    rho_a: float = 1.29    # air density [kg/m^3]
    c_d: float = 0.5       # drag coefficient [-]
    A_f: float = 10.0      # frontal area [m^2]
    g: float = 9.81        # gravity [m/s^2]
    c_r: float = 0.006     # rolling resistance [-]
    T_m: float = 1.0       # motor torque time constant [s]

    def __post_init__(self):
        _check_params(self)
        if not (self.m > 0 and self.R > 0 and self.T_m >= 0):
            raise ValueError("m, R must be positive and T_m non-negative")


@dataclass(frozen=True)
class CarParams:
    """Mid-size passenger car parameters, power-input model."""

    m: float = 1443.0      # vehicle mass [kg]
    rho_a: float = 1.2     # air density [kg/m^3]
    c_d: float = 0.29      # drag coefficient [-]
    A_f: float = 2.38      # frontal area [m^2]
    g: float = 9.81        # gravity [m/s^2]
    c_r: float = 0.015     # rolling resistance [-]
    u_min: float = -50_000.0   # power lower bound [W]
    u_max: float = 75_000.0    # power upper bound [W]
    a_lim: float = 3.0         # acceleration magnitude bound [m/s^2]

    def __post_init__(self):
        _check_params(self)
        if not self.m > 0:
            raise ValueError("m must be positive")
        if self.u_min >= self.u_max:
            raise ValueError("u_min must be below u_max")
        if not self.a_lim > 0:
            raise ValueError("a_lim must be positive")


@dataclass(frozen=True)
class PlantState:
    """Longitudinal state: position, velocity, and motor torque (truck only)."""

    s: float = 0.0
    v: float = 0.0
    u_m: float = 0.0


@dataclass(frozen=True)
class PositionProfile:
    """Piecewise profile of a quantity over position (slope, speed limit).

    ``kind`` selects piecewise-constant (value holds from each breakpoint
    to the next) or piecewise-linear interpolation.  Outside the breakpoint
    range the nearest endpoint value holds.  ``at`` evaluates one Python
    float, ``float -> float``, bit for bit as ``value`` does.  It keeps the
    last segment it found, so a walk along the route bisects only when it
    leaves a segment; no result depends on the calls before it.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    kind: str = "linear"

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if bp.ndim != 1 or bp.size == 0 or bp.size != vals.size:
            raise ValueError("breakpoints/values must be matching 1-D arrays")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("breakpoints and values must be finite")
        if not np.all(bp[1:] > bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if self.kind not in ("constant", "linear"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        object.__setattr__(self, "at", _scalar_lookup(bp.tolist(), vals.tolist(),
                                                      self.kind))

    def value(self, s):
        """Evaluate the profile at position(s) ``s``."""
        if self.kind == "linear":
            return np.interp(s, self.breakpoints, self.values)
        idx = np.searchsorted(self.breakpoints, s, side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]


def _scalar_lookup(xp: list, fp: list, kind: str):
    """``PositionProfile.value`` for one float.  "linear" repeats np.interp's
    C loop case by case (endpoint hold, NaN passed through, ``fp[j]`` on a
    breakpoint, ``slope*(x - xp[j]) + fp[j]`` and its NaN retry); with one
    breakpoint both kinds return ``fp[0]`` for any ``x``, as NumPy does.

    "linear" caches the last segment ``(lo, hi, slope, f0)`` it found.  For
    ``lo < x < hi`` bisection would find that segment again and compute the
    same ``y`` from the same operands, so the cache returns it; NaN, +-inf,
    breakpoints and a NaN ``y`` take the full path.  No result depends on
    earlier calls."""
    if len(xp) == 1:
        f0 = fp[0]
        return lambda x: f0
    if kind == "constant":
        # searchsorted(side="right") - 1, clipped at 0; NaN sorts last.
        return lambda x: fp[max(bisect_right(xp, x) - 1, 0)]
    last = len(xp) - 1
    slopes = [(fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) for j in range(last)]
    seg = (xp[0], xp[1], slopes[0], fp[0])

    def at(x):
        nonlocal seg
        lo, hi, slope, f0 = seg
        if lo < x < hi:
            y = slope * (x - lo) + f0
            if y == y:
                return y
        j = bisect_right(xp, x) - 1
        if j < 0:
            return fp[0]
        if j == last:
            return x if x != x else fp[last]
        seg = (xp[j], xp[j + 1], slopes[j], fp[j])
        if xp[j] == x:
            return fp[j]
        y = slopes[j] * (x - xp[j]) + fp[j]
        if y != y:   # also with finite data: x - xp[j] may overflow, 0 * inf is NaN
            y = slopes[j] * (x - xp[j + 1]) + fp[j + 1]
            if y != y and fp[j] == fp[j + 1]:
                y = fp[j]
        return y

    return at


def step_efficiency(u, gen: float = 1.1, regen: float = 0.9):
    """Drive efficiency factor: ``gen`` for u >= 0, ``regen`` for u < 0.

    The package's one efficiency weight: the plant's power and the timing
    planner's energy both use it.  With gen >= regen the weighted input
    step_efficiency(u) * u = max(gen u, regen u) is convex in u, which the
    planner's epigraph rows q >= gen u, q >= regen u rely on.
    """
    return np.where(np.asarray(u, dtype=float) >= 0.0, gen, regen)


def input_mass(params: TruckParams | CarParams) -> float:
    """Mass in model input units, the input per unit of acceleration: m R for
    the truck's torque, m for the car's traction force.  The timing planner's
    boundary rule charges kinetic energy at this mass (estimated there as
    1/t1 of the fitted model)."""
    return params.m * params.R if isinstance(params, TruckParams) else params.m


# The plant loop runs on Python floats, as sysid._simulate_theta does: each
# np.float64 scalar operation costs several times more, and an RK4 step takes
# four right-hand sides with a profile lookup each.  Python floats round as
# np.float64 does, PositionProfile.at repeats np.interp (bisecting only when
# the position leaves the segment it cached, with the same result either
# way), and the hoisted products keep their left-to-right order, so the bits
# equal NumPy's.
def _truck_rhs(p: TruckParams, alpha_at):
    """Truck dynamics ``(s, v, u_m, u) -> (ds, dv, du_m)`` on grade ``alpha_at(s)``."""
    c_air, mg, c_r, m, R, T_m = 0.5 * p.rho_a * p.c_d * p.A_f, p.m * p.g, p.c_r, p.m, p.R, p.T_m
    sin, cos = math.sin, math.cos

    def dynamics(s, v, u_m, u):
        # v clamped at zero for force evaluation; the simulator enforces v >= 0.
        v_eff = v if v > 0.0 else 0.0
        alpha = alpha_at(s)
        dv = (u_m / R - c_air * v_eff * v_eff - mg * (sin(alpha) + c_r * cos(alpha))) / m
        return v_eff, dv, (u - u_m) / T_m if T_m > 0.0 else 0.0

    return dynamics


def _car_rhs(p: CarParams, alpha_at):
    """Car dynamics ``(s, v, u_m, u_power) -> (ds, dv, 0)``; u_m is unused."""
    c_air, c_roll, mg = 0.5 * p.rho_a * p.c_d * p.A_f, p.c_r * p.m * p.g, p.m * p.g
    m, u_min, u_max, a_lim = p.m, p.u_min, p.u_max, p.a_lim
    sin, cos = math.sin, math.cos

    def dynamics(s, v, u_m, u_power):
        v_eff = v if v > 0.0 else 0.0
        alpha = alpha_at(s)
        power = min(max(u_power, u_min), u_max)
        dv = (power / max(v_eff, V_EPS) - c_air * v_eff * v_eff - c_roll * cos(alpha)
              - mg * sin(alpha)) / m
        return v_eff, min(max(dv, -a_lim), a_lim), 0.0

    return dynamics


@dataclass
class Trajectory:
    """Uniformly sampled simulation record.

    ``u`` is the pre-saturation command, ``u_s`` the applied (saturated)
    command, ``du`` the feedback share of the command (zero in open loop),
    all in model input units (torque for the truck, traction force for the
    car).  ``P`` is the drive power rate ``eta(u_s) * u_s * v`` in matching
    units.
    """

    t: np.ndarray
    s: np.ndarray
    v: np.ndarray
    u: np.ndarray
    u_s: np.ndarray
    du: np.ndarray
    P: np.ndarray
    n_velocity_clamps: int = 0

    def __post_init__(self):
        n = self.t.size
        for name in ("s", "v", "u", "u_s", "du", "P"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length mismatch")

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "s", "v", "u", "u_s", "du", "P"],
                  [self.t, self.s, self.v, self.u, self.u_s, self.du, self.P])


def _rk4(rhs, s, v, um, u, dt, substeps):
    """``substeps`` classical RK4 steps of ``rhs(s, v, um, u)``."""
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(substeps):
        ds1, dv1, du1 = rhs(s, v, um, u)
        ds2, dv2, du2 = rhs(s + half * ds1, v + half * dv1, um + half * du1, u)
        ds3, dv3, du3 = rhs(s + half * ds2, v + half * dv2, um + half * du2, u)
        ds4, dv4, du4 = rhs(s + dt * ds3, v + dt * dv3, um + dt * du3, u)
        s += sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
        v += sixth * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4)
        um += sixth * (du1 + 2.0 * du2 + 2.0 * du3 + du4)
    return s, v, um


def simulate(params: TruckParams | CarParams, controller, slope: PositionProfile,
             x0: PlantState = PlantState(), h: float = 0.5, *, n: int,
             substeps: int = 1, efficiency: tuple[float, float] = (1.1, 0.9)) -> Trajectory:
    """Simulate ``n`` sampling intervals under zero-order-hold commands.

    ``controller(k, s, v) -> (u_raw, u_sat, du)`` is evaluated once per
    interval, at its start, and returns model-unit commands (truck: torque
    [N m]; car: traction force [N]); an open-loop run returns a held
    sequence with ``du = 0``.  For the car the force command is converted
    to a power command ``u_sat * max(v, V_EPS)``, which the dynamics clamp
    to the plant's power bounds.

    Integration uses ``substeps`` RK4 steps per sampling interval.
    Velocity is kept non-negative by clamping (counted on the returned
    trajectory); ``|v| > 1e3`` or a NaN velocity aborts with
    :class:`SimulationDivergence`.
    """
    if h <= 0 or substeps < 1:
        raise ValueError("h must be positive, substeps >= 1")

    is_truck = isinstance(params, TruckParams)
    rhs = (_truck_rhs if is_truck else _car_rhs)(params, slope.at)
    gen, regen = efficiency
    dt = h / substeps
    t = np.arange(n + 1) * h
    s, v, u_arr, us_arr, du_arr = (np.empty(n + 1) for _ in range(5))
    clamps = 0

    sk, vk, umk = float(x0.s), float(x0.v), float(x0.u_m)
    for k in range(n):
        s[k], v[k] = sk, vk
        u_raw, u_sat, du = controller(k, sk, vk)
        if not (math.isfinite(u_raw) and math.isfinite(u_sat)):
            raise SimulationDivergence(f"non-finite command at step {k}")
        u_arr[k], us_arr[k], du_arr[k] = u_raw, u_sat, du

        if is_truck:
            if params.T_m == 0.0:
                umk = u_sat
            sk, vk, umk = _rk4(rhs, sk, vk, umk, u_sat, dt, substeps)
        else:
            sk, vk, _ = _rk4(rhs, sk, vk, 0.0, u_sat * max(vk, V_EPS), dt, substeps)
        if vk < 0.0:
            vk = 0.0
            clamps += 1
        # Negated <= so that a NaN velocity raises as well.
        if not abs(vk) <= V_DIVERGED or not math.isfinite(sk):
            raise SimulationDivergence(f"velocity diverged at t={(k + 1) * h:.3f}")
    s[n], v[n] = sk, vk
    # Hold the last command in the terminal sample so columns stay aligned.
    for col in (u_arr, us_arr, du_arr):
        col[n] = col[n - 1] if n > 0 else 0.0
    P = step_efficiency(us_arr, gen, regen) * us_arr * v
    return Trajectory(t=t, s=s, v=v, u=u_arr, u_s=us_arr, du=du_arr, P=P,
                      n_velocity_clamps=clamps)
