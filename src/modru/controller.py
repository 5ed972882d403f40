"""Velocity-tracking controller: model feedforward plus scheduled PI feedback.

The feedback gains come from LQ designs on the gray-box model linearized
at a grid of reference velocities: at each node the scalar model
dv/dt = a(v) dv + b du (a = th3 + 2 th4 v, b = th1) is discretized
exactly (:func:`modru.lqr.c2d_zoh`), augmented with a summed-error state,
and the Riccati equation solved for (K_P, K_I).  The stored integral time
T_I = K_P / K_I is in samples.  Between nodes (K_P, T_I) interpolate
linearly with endpoint hold; the tracker reads them along its sampled reference.

The PI is realized in anti-windup form: the integral channel is a
first-order filter F_s(q) = 1 / (1 + (q - 1) T_I) driven by the
saturated feedback share, which reproduces K_P / (1 - F_s(q)) =
K_P (1 + 1/((q-1) T_I)) exactly while unsaturated and stops the
integrator from winding up at the input limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lqr import c2d_zoh, dare_solve
from .sysid import GrayBoxModel
from .tables import write_csv


@dataclass(frozen=True)
class GainSchedule:
    """PI gains tabulated over reference velocity."""

    v_grid: np.ndarray
    K_P: np.ndarray
    T_I: np.ndarray
    h: float
    rho_I: float
    rho_u: float

    def __post_init__(self):
        v = np.asarray(self.v_grid, dtype=float)
        kp = np.asarray(self.K_P, dtype=float)
        ti = np.asarray(self.T_I, dtype=float)
        object.__setattr__(self, "v_grid", v)
        object.__setattr__(self, "K_P", kp)
        object.__setattr__(self, "T_I", ti)
        if not (v.size and v.size == kp.size == ti.size):
            raise ValueError("grid/gain sizes mismatch")
        if v.size > 1 and not np.all(np.diff(v) > 0):
            raise ValueError("velocity grid must be strictly increasing")
        if np.any(ti <= 0):
            raise ValueError("integral times must be positive")
        if self.h <= 0:
            raise ValueError("sample time must be positive")

    def gains(self, v_ref):
        """Interpolated (K_P, T_I) at reference velocities (endpoints hold)."""
        return (np.interp(v_ref, self.v_grid, self.K_P),
                np.interp(v_ref, self.v_grid, self.T_I))

    def to_csv(self, path) -> None:
        write_csv(path, ["v_r", "K_P", "T_I"], [self.v_grid, self.K_P, self.T_I],
                  meta={"h": self.h, "rho_I": self.rho_I, "rho_u": self.rho_u})


def feedforward(v_ref, a_ref, alpha, model: GrayBoxModel):
    """Invert the gray box for the input realizing (v_ref, a_ref) on slope alpha."""
    # Floats and arrays alike; alpha * alpha rounds as NumPy's square does.
    t1, t2, t3, t4, t5, t6 = model.theta.tolist()
    return (a_ref - t2 - t3 * v_ref - t4 * v_ref * v_ref
            - t5 * alpha - t6 * (alpha * alpha)) / t1


def build_gain_schedule(model: GrayBoxModel, v_grid: np.ndarray, h: float,
                        rho_I: float, rho_u: float) -> GainSchedule:
    """LQ-design PI gains at each grid node of the linearized gray box.

    Stage cost: dv^2 + rho_I * dv_I^2 + rho_u * du^2, where dv_I sums the
    velocity error.  Raises when a node yields a non-positive integral
    gain (no useful integral action at that design point).
    """
    v_grid = np.asarray(v_grid, dtype=float)
    t = model.theta
    b = t[0]
    kps = np.empty(v_grid.size)
    tis = np.empty(v_grid.size)
    Qx = np.diag([1.0, rho_I])
    Qu = np.array([[rho_u]])
    for i, v in enumerate(v_grid):
        a = t[2] + 2.0 * t[3] * v
        A_d, B_d = c2d_zoh([[a]], [[b]], h)
        A = np.array([[A_d[0, 0], 0.0], [1.0, 1.0]])
        B = np.array([[B_d[0, 0]], [0.0]])
        K, _ = dare_solve(A, B, Qx, Qu)
        kp, ki = float(K[0, 0]), float(K[0, 1])
        if kp <= 0 or ki <= 0:
            raise ValueError(f"non-positive PI gains at node v={v:g}")
        kps[i] = kp
        tis[i] = kp / ki
    return GainSchedule(v_grid=v_grid, K_P=kps, T_I=tis, h=h,
                        rho_I=rho_I, rho_u=rho_u)


def control_step(w: float, v_ref: float, v: float, u_ff: float,
                 kp: float, ti: float, u_lim: float
                 ) -> tuple[float, float, float, float]:
    """One feedback update with gains (``kp``, ``ti``) = ``GainSchedule.gains(v_ref)``
    on the anti-windup integral channel ``w`` [input units, 0 at episode start].

    Returns (u, u_s, du, w_next): the unsaturated command, the saturated
    command, the feedback share du = u_s - u_ff, and the next ``w``.
    """
    for x in (v_ref, v, u_ff):
        if not math.isfinite(x):
            raise ValueError("non-finite controller input")
    if u_lim <= 0:
        raise ValueError("u_lim must be positive")
    e = v_ref - v
    u = u_ff + kp * e + w
    u_s = min(max(u, -u_lim), u_lim)
    du = u_s - u_ff
    return u, u_s, du, w + (du - w) / ti
