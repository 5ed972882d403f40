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

Inputs are held constant over each sampling interval (zero-order hold);
the continuous dynamics are integrated with classical RK4 inside each
interval.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationDivergence
from .tables import write_csv

log = logging.getLogger(__name__)

# Velocity magnitude beyond which the integration is considered diverged.
V_DIVERGED = 1.0e3

# Velocity floor used in the car's power-to-force division.
V_EPS = 0.1


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
        if self.m <= 0 or self.R <= 0 or self.T_m < 0:
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
        if self.m <= 0:
            raise ValueError("m must be positive")
        if self.u_min >= self.u_max:
            raise ValueError("u_min must be below u_max")


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
    range the nearest endpoint value holds.
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
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.kind not in ("constant", "linear"):
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def value(self, s):
        """Evaluate the profile at position(s) ``s``."""
        if self.kind == "linear":
            return np.interp(s, self.breakpoints, self.values)
        idx = np.searchsorted(self.breakpoints, s, side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]


def constant_profile(value: float) -> PositionProfile:
    return PositionProfile(np.array([0.0]), np.array([float(value)]), "constant")


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


def _truck_rhs(s, v, u_m, u, alpha, p: TruckParams):
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


def _car_rhs(s, v, u_m, u_power, alpha, p: CarParams):
    # Same signature as _truck_rhs; the car has no motor state (u_m unused).
    v_eff = v if v > 0.0 else 0.0
    power = min(max(u_power, p.u_min), p.u_max)
    f_air = 0.5 * p.rho_a * p.c_d * p.A_f * v_eff * v_eff
    f_roll = p.c_r * p.m * p.g * math.cos(alpha)
    f_grade = p.m * p.g * math.sin(alpha)
    dv = (power / max(v_eff, V_EPS) - f_air - f_roll - f_grade) / p.m
    dv = min(max(dv, -p.a_lim), p.a_lim)
    return v_eff, dv, 0.0


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
    u_m: np.ndarray | None = None   # realized motor torque (truck), not serialized
    n_velocity_clamps: int = 0

    def __post_init__(self):
        n = self.t.size
        for name in ("s", "v", "u", "u_s", "du", "P"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length mismatch")

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "s", "v", "u", "u_s", "du", "P"],
                  [self.t, self.s, self.v, self.u, self.u_s, self.du, self.P])


def _rk4(rhs, s, v, um, u, slope, p, dt, substeps):
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


def simulate(params: TruckParams | CarParams, inputs, slope: PositionProfile,
             x0: PlantState = PlantState(), h: float = 0.5, n: int | None = None,
             substeps: int = 1, efficiency: tuple[float, float] = (1.1, 0.9)) -> Trajectory:
    """Simulate the plant under zero-order-hold commands.

    ``inputs`` is either an array of model-unit commands (truck: torque
    [N m]; car: traction force [N]) applied open loop, or a callable
    ``controller(k, t, s, v) -> (u_raw, u_sat, du)`` evaluated once per
    sampling interval.  For the car the force command is converted to a
    power command ``u_sat * max(v, V_EPS)`` at the start of each interval
    and clamped to the plant's power bounds.

    Integration uses ``substeps`` RK4 steps per sampling interval.
    Velocity is kept non-negative by clamping (counted on the returned
    trajectory); ``|v| > 1e3`` aborts with :class:`SimulationDivergence`.
    """
    if h <= 0 or substeps < 1:
        raise ValueError("h must be positive, substeps >= 1")
    controller = inputs if callable(inputs) else None
    if controller is None:
        inputs = np.asarray(inputs, dtype=float)
        if n is None:
            n = inputs.size
        if inputs.size < n:
            raise ValueError("input sequence shorter than horizon")
    elif n is None:
        raise ValueError("n is required with a controller callback")

    is_truck = isinstance(params, TruckParams)
    gen, regen = efficiency
    dt = h / substeps
    t = np.arange(n + 1) * h
    s = np.empty(n + 1)
    v = np.empty(n + 1)
    u_arr = np.zeros(n + 1)
    us_arr = np.zeros(n + 1)
    du_arr = np.zeros(n + 1)
    um_arr = np.zeros(n + 1) if is_truck else None
    clamps = 0

    sk, vk, umk = float(x0.s), float(x0.v), float(x0.u_m)
    for k in range(n + 1):
        s[k], v[k] = sk, vk
        if is_truck:
            um_arr[k] = umk
        if k == n:
            break
        if controller is not None:
            u_raw, u_sat, du = controller(k, t[k], sk, vk)
        else:
            u_raw = u_sat = float(inputs[k])
            du = 0.0
        if not (math.isfinite(u_raw) and math.isfinite(u_sat)):
            raise SimulationDivergence(f"non-finite command at step {k}")
        u_arr[k], us_arr[k], du_arr[k] = u_raw, u_sat, du

        if is_truck:
            if params.T_m == 0.0:
                umk = u_sat
            sk, vk, umk = _rk4(_truck_rhs, sk, vk, umk, u_sat, slope, params, dt, substeps)
        else:
            u_power = min(max(u_sat * max(vk, V_EPS), params.u_min), params.u_max)
            sk, vk, _ = _rk4(_car_rhs, sk, vk, 0.0, u_power, slope, params, dt, substeps)
        if vk < 0.0:
            vk = 0.0
            clamps += 1
        if abs(vk) > V_DIVERGED or not math.isfinite(sk):
            raise SimulationDivergence(f"velocity diverged at t={t[k + 1]:.3f}")

    # Hold the last command in the terminal sample so columns stay aligned.
    if n > 0:
        u_arr[n], us_arr[n], du_arr[n] = u_arr[n - 1], us_arr[n - 1], du_arr[n - 1]
    P = step_efficiency(us_arr, gen, regen) * us_arr * v
    if clamps:
        log.info("velocity clamped at zero %d times", clamps)
    return Trajectory(t=t, s=s, v=v, u=u_arr, u_s=us_arr, du=du_arr, P=P,
                      u_m=um_arr, n_velocity_clamps=clamps)
