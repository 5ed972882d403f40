"""Energy-minimal timing of a fixed spatial path.

Decision variables are the traversal durations h_k of N equidistant
path segments.  The objective is the drive energy

    E = sum_k eta_k * u_k * v_k * h_k,
    v_k = dx_k / h_k,
    vdot_k = (v_{k+1} - v_k) / h_k   (final sample repeats the previous),
    eta_k = (g + r)/2 + (g - r)/2 * tanh(gamma * u_k),

where u_k inverts the gray-box model at (v_k, vdot_k, alpha_k) in
full-model mode, or u_k = vdot_k in pseudo-power mode (no plant model
needed; only the speed shape is scored).  The smooth eta transitions
between the generation factor g (u >= 0) and regeneration factor r.

Constraints: per-segment speed caps (lower bounds on h_k), an
acceleration magnitude bound, the total-time budget sum(h) <= T_f, and
optionally an input magnitude bound in full-model mode.  The solver is
a first-order augmented-Lagrangian method: speed caps are handled by
projection, the remaining inequalities by multiplier terms; gradients
are central finite differences of the merit function.  Moving h_i
changes only the terms of segments i-1 and i and of the last segment
(the final acceleration repeats the previous one), so the differences
recompute just those elements and patch them into copies of the
unperturbed row.  Each ``solve`` call builds one merit workspace that
holds the index maps and gathered route data of those patches and the
buffers of the 2N perturbed rows, so a gradient allocates and indexes
little; the unperturbed row is the accepted line-search trial, whose
energy terms and penalties the workspace hands on instead of evaluating
the row again.  Every row is still reduced in full, so the gradient
equals, bit for bit, the one from evaluating the whole merit on all 2N
perturbed rows, and the plans are those of that batched evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .controller import feedforward, reference_accel
from .errors import InfeasibleError
from .plant import PositionProfile
from .sysid import EfficiencyParams, GrayBoxModel
from .tables import write_csv

VIOL_TOL = 1e-6   # relative feasibility tolerance on the reported solution


@dataclass(frozen=True)
class TOProblem:
    """Frozen timing-optimization data on an equidistant position grid."""

    x: np.ndarray          # segment endpoints, length N+1
    alpha: np.ndarray      # slope angle at each segment start, length N
    v_lim: np.ndarray      # per-segment speed cap, length N
    T_f: float             # total-time budget [s]
    vdot_lim: float        # |acceleration| bound [m/s^2]
    model: GrayBoxModel | None
    eff: EfficiencyParams
    gamma: float
    mode: str = "full"     # "full" (model input) or "pseudo" (acceleration)
    u_lim: float | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        v_lim = np.asarray(self.v_lim, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "v_lim", v_lim)
        n = x.size - 1
        if n < 2:
            raise ValueError("need at least two segments")
        if not np.all(np.diff(x) > 0):
            raise ValueError("positions must be strictly increasing")
        if alpha.size != n or v_lim.size != n:
            raise ValueError("alpha/v_lim must have one entry per segment")
        if np.any(v_lim <= 0):
            raise ValueError("speed caps must be positive")
        if self.T_f <= 0 or self.vdot_lim <= 0 or self.gamma <= 0:
            raise ValueError("T_f, vdot_lim, gamma must be positive")
        if self.mode not in ("full", "pseudo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "full" and self.model is None:
            raise ValueError("full-model mode requires a gray-box model")
        if self.u_lim is not None and self.u_lim <= 0:
            raise ValueError("u_lim must be positive")
        # Necessary feasibility condition: driving at the caps fits in T_f.
        if float(np.sum(np.diff(x) / v_lim)) > self.T_f:
            raise InfeasibleError(
                f"T_f={self.T_f:g} s is below the minimum {np.sum(np.diff(x) / v_lim):.6g} s "
                "attainable at the speed caps")

    @property
    def n_segments(self) -> int:
        return self.x.size - 1

    @cached_property
    def dx(self) -> np.ndarray:
        """Segment lengths (read-only)."""
        dx = np.diff(self.x)
        dx.setflags(write=False)
        return dx

    @cached_property
    def h_min(self) -> np.ndarray:
        """Per-segment duration lower bounds implied by the speed caps (read-only)."""
        h_min = self.dx / self.v_lim
        h_min.setflags(write=False)
        return h_min


@dataclass(frozen=True)
class TOSolution:
    """Per-segment timing result."""

    h: np.ndarray          # durations, length N
    t: np.ndarray          # timestamps, length N+1, t[0] = 0
    v_r: np.ndarray        # segment velocities dx/h
    a_r: np.ndarray        # segment accelerations (last repeats previous)
    u_r: np.ndarray        # model inputs (full) or accelerations (pseudo)
    eta: np.ndarray        # efficiency weights
    E: float
    feasible: bool = True

    def to_csv(self, path, problem: TOProblem | None = None) -> None:
        n = self.h.size
        k = np.arange(n)
        x = problem.x[:-1] if problem is not None else np.full(n, np.nan)
        write_csv(path, ["k", "t", "x", "v_r", "a_r", "u_r", "eta", "h"],
                  [k, self.t[:-1], x, self.v_r, self.a_r, self.u_r, self.eta, self.h],
                  meta={"E": self.E, "feasible": self.feasible,
                        "t_end": self.t[-1]})


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Uniform-in-time reference for the tracking controller."""

    t: np.ndarray
    x: np.ndarray
    v_r: np.ndarray
    a_r: np.ndarray
    u_r: np.ndarray

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0]) if self.t.size > 1 else 0.0

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "x", "v_r", "a_r", "u_r"],
                  [self.t, self.x, self.v_r, self.a_r, self.u_r])


def default_gamma(problem_like_scale: float) -> float:
    """Smoothing rate putting tanh well into saturation at the typical input scale."""
    return 4.0 / max(abs(problem_like_scale), 1e-9)


def build_problem(path_length: float, n_segments: int, T_f: float,
                  slope: PositionProfile, v_limit: PositionProfile,
                  model: GrayBoxModel | None, eff: EfficiencyParams | None = None,
                  vdot_lim: float = 1.0, gamma: float | None = None,
                  mode: str = "full", u_lim: float | None = None) -> TOProblem:
    """Sample the route data onto an equidistant grid and freeze it.

    Slope is evaluated at segment starts.  The per-segment speed cap is
    the smaller of the limit at the two segment endpoints, so a
    piecewise-constant reference velocity below the cap respects the
    limit over the whole segment.
    """
    if path_length <= 0 or n_segments < 2:
        raise ValueError("need positive path length and at least 2 segments")
    eff = eff or EfficiencyParams()
    x = np.linspace(0.0, path_length, n_segments + 1)
    alpha = np.asarray(slope.value(x[:-1]), dtype=float)
    v_a = np.asarray(v_limit.value(x[:-1]), dtype=float)
    v_b = np.asarray(v_limit.value(x[1:]), dtype=float)
    v_lim = np.minimum(v_a, v_b)
    if gamma is None:
        if mode == "pseudo":
            scale = vdot_lim
        else:
            v_nom = path_length / T_f
            scale = float(feedforward(v_nom, 0.0, 0.0, model))
        gamma = default_gamma(scale)
    return TOProblem(x=x, alpha=alpha, v_lim=v_lim, T_f=T_f, vdot_lim=vdot_lim,
                     model=model, eff=eff, gamma=gamma, mode=mode, u_lim=u_lim)


def _input(p: TOProblem, v, vdot, alpha):
    """Model input (full mode) or acceleration (pseudo mode) at (v, vdot, alpha)."""
    return feedforward(v, vdot, alpha, p.model) if p.mode == "full" else vdot


def _weight(p: TOProblem, u):
    """Smooth efficiency weight eta(u) between regeneration and generation."""
    mid = 0.5 * (p.eff.gen_factor + p.eff.regen_factor)
    half = 0.5 * (p.eff.gen_factor - p.eff.regen_factor)
    return mid + half * np.tanh(p.gamma * u)


def _kinematics(p: TOProblem, H: np.ndarray):
    """Velocities, accelerations, inputs, eta for duration rows H (..., N)."""
    v = p.dx / H
    vdot_ind = (v[..., 1:] - v[..., :-1]) / H[..., :-1]
    vdot = np.concatenate([vdot_ind, vdot_ind[..., -1:]], axis=-1)
    u = _input(p, v, vdot, p.alpha)
    return v, vdot, vdot_ind, u, _weight(p, u)


def energy_terms(eta: np.ndarray, u: np.ndarray, v: np.ndarray,
                 h: np.ndarray) -> np.ndarray:
    """Per-segment energy contributions eta * u * v * h."""
    return eta * u * v * h


def evaluate_objective(p: TOProblem, h: np.ndarray) -> tuple[float, dict]:
    """Objective value and per-segment breakdown at durations ``h``."""
    H = np.asarray(h, dtype=float)
    if H.shape != (p.n_segments,) or np.any(H <= 0):
        raise ValueError("h must hold one positive duration per segment")
    v, vdot, _, u, eta = _kinematics(p, H)
    terms = energy_terms(eta, u, v, H)
    return float(terms.sum()), {"v_r": v, "a_r": vdot, "u_r": u, "eta": eta,
                                "terms": terms}


def _input_bounded(p: TOProblem) -> bool:
    """Whether the input bound enters the constraints."""
    return p.u_lim is not None and p.mode == "full"


def _constraints(p: TOProblem, total: np.ndarray, vdot_ind: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Normalized inequality residuals g <= 0 of rows (..., N).

    ``total`` is the rows' duration sum with a kept last axis; ``vdot_ind``
    and ``u`` come from :func:`_kinematics`.  Columns: time budget, upper
    and lower acceleration bounds, then upper and lower input bounds when
    an input bound applies.
    """
    parts = [
        (total - p.T_f) / p.T_f,
        (vdot_ind - p.vdot_lim) / p.vdot_lim,
        (-vdot_ind - p.vdot_lim) / p.vdot_lim,
    ]
    if _input_bounded(p):
        parts.append((u - p.u_lim) / p.u_lim)
        parts.append((-u - p.u_lim) / p.u_lim)
    return np.concatenate(parts, axis=-1)


def _residuals(p: TOProblem, H: np.ndarray) -> np.ndarray:
    """Constraint residuals of duration rows H (..., N)."""
    _, _, vdot_ind, u, _ = _kinematics(p, H)
    return _constraints(p, H.sum(axis=-1, keepdims=True), vdot_ind, u)


def _merit_parts(p: TOProblem, H: np.ndarray, lam: np.ndarray, rho: float):
    """Energy terms and squared penalties max(0, lam + rho g)^2 of rows H."""
    v, _, vdot_ind, u, eta = _kinematics(p, H)
    g = _constraints(p, H.sum(axis=-1, keepdims=True), vdot_ind, u)
    t = np.maximum(0.0, lam + rho * g)
    return energy_terms(eta, u, v, H), t * t


class _MeritWorkspace:
    """Augmented-Lagrangian merit and its gradient for one :func:`solve` call.

    Built once per problem: the elements each perturbed row of the
    band-local difference recomputes, their residual columns, the
    gathered segment lengths and slopes, and 2N x N duration and
    energy-term buffers and a 2N x n_con penalty buffer.
    """

    def __init__(self, p: TOProblem, n_con: int):
        n = p.n_segments
        self.p, self.n = p, n
        # Row r < N of the 2N perturbed rows moves h_r up by d_r, row N + r
        # moves it down (clamped at 1e-12).  Elements reading the moved duration h_i: segments
        # i-1 and i, and the last segment, whose acceleration is the one of
        # segment N-2.
        moved = np.tile(np.arange(n), 2)
        J = np.stack([np.maximum(moved - 1, 0), moved, np.full(2 * n, n - 1)], axis=1)
        K = np.minimum(J, n - 2)
        # Residual columns of the windows in the layout of _constraints:
        # time budget, upper and lower acceleration bounds at K, then upper
        # and lower input bounds at J when an input bound applies.
        blocks = [np.zeros((2 * n, 1), dtype=np.intp), 1 + K, n + K]
        if _input_bounded(p):
            blocks += [2 * n - 1 + J, 3 * n - 1 + J]
        self.cols = np.concatenate(blocks, axis=1)
        # Flat offsets of those elements in the row-major buffers.
        r = np.arange(2 * n)[:, None]
        self.fJ, self.fK, self.fK1 = r * n + J, r * n + K, r * n + K + 1
        self.fcols = r * n_con + self.cols
        self.dxJ, self.dxK, self.dxK1 = p.dx[J], p.dx[K], p.dx[K + 1]
        self.alphaJ = p.alpha[J]
        self.Hrows = np.empty((2 * n, n))
        self.terms = np.empty((2 * n, n))
        self.pen = np.empty((2 * n, n_con))
        flat = self.Hrows.reshape(-1)
        self.h_up, self.h_down = flat[:n * n:n + 1], flat[n * n::n + 1]

    def set_multipliers(self, lam: np.ndarray, rho: float, e_scale: float) -> None:
        """Fix the multipliers, penalty weight and objective scale."""
        self.lam, self.rho, self.e_scale = lam, rho, e_scale
        self.lam_sq = (lam * lam).sum()
        self.lam_cols = lam[self.cols]

    def _combine(self, terms: np.ndarray, pen: np.ndarray):
        """Merit of each row from its energy terms and squared penalties."""
        return (terms.sum(axis=-1) / self.e_scale
                + (pen.sum(axis=-1) - self.lam_sq) / (2.0 * self.rho))

    def merit(self, H: np.ndarray) -> tuple[float, tuple]:
        """Merit of the single row H, and its terms and penalties for :meth:`grad`."""
        base = _merit_parts(self.p, H, self.lam, self.rho)
        return float(self._combine(*base)), base

    def grad(self, H: np.ndarray, base: tuple | None = None) -> np.ndarray:
        """Central-difference gradient of the merit at durations ``H``.

        ``base`` is :meth:`merit`'s second result at ``H``; without it the
        base row is evaluated here.  Only the elements that read a moved
        duration are recomputed, with the elementwise operations of the
        batched merit, and patched into copies of the base row's energy
        terms and squared penalties; each full row is then reduced as the
        batched merit reduces it.  The result equals the batched central
        difference bit for bit as long as every duration is at least 1e-12.
        """
        p, n = self.p, self.n
        base_terms, base_pen = base if base is not None else _merit_parts(
            p, H, self.lam, self.rho)
        d = 1e-6 * np.maximum(H, 1e-6)
        h_minus = np.maximum(H - d, 1e-12)
        Hrows = self.Hrows
        Hrows[...] = H
        np.add(H, d, out=self.h_up)
        self.h_down[...] = h_minus
        hJ, hK = Hrows.take(self.fJ), Hrows.take(self.fK)
        vJ = self.dxJ / hJ
        vdot = (self.dxK1 / Hrows.take(self.fK1) - self.dxK / hK) / hK
        u = _input(p, vJ, vdot, self.alphaJ)
        g = _constraints(p, Hrows.sum(axis=-1, keepdims=True), vdot, u)
        t = np.maximum(0.0, self.lam_cols + self.rho * g)
        terms, pen = self.terms, self.pen
        terms[...] = base_terms
        np.put(terms, self.fJ, energy_terms(_weight(p, u), u, vJ, hJ))
        pen[...] = base_pen
        np.put(pen, self.fcols, t * t)
        m = self._combine(terms, pen)
        return (m[:n] - m[n:]) / (d + (H - h_minus))


def default_h_init(p: TOProblem) -> np.ndarray:
    """Uniform timing pushed onto the speed-cap bounds within the time budget."""
    h_min = p.h_min
    uniform = np.full(p.n_segments, p.T_f / p.n_segments)
    extra = np.maximum(uniform - h_min, 0.0)
    budget = p.T_f - h_min.sum()
    scale = min(1.0, budget / extra.sum()) if extra.sum() > 0 else 0.0
    return h_min + extra * scale


def solve(p: TOProblem, h_init: np.ndarray | None = None, outer_max: int = 80,
          inner_max: int = 400, viol_target: float = 5e-7,
          stag_tol: float = 1e-8, stag_window: int = 5) -> TOSolution:
    """Minimize the energy objective over segment durations.

    Augmented-Lagrangian outer loop with multiplier updates on the
    time/acceleration/input inequalities; projected spectral-gradient
    inner minimization with the speed caps as bound constraints.  The
    merit and its gradient come from a :class:`_MeritWorkspace` built for
    this call and dropped when it returns.  The gradient is a central
    finite difference evaluated band-locally, and at every iterate it
    reuses the energy terms and penalties of the merit evaluation there
    (the accepted line-search trial, or the first point of an outer
    iteration).  Merit and gradient equal the batched whole-row
    evaluation bit for bit, so the returned plan does too.  Returns the
    best iterate flagged ``feasible=False`` if the violation target is
    not met within the iteration budget.  Raises ``ValueError`` if
    ``h_init`` does not hold one finite duration per segment.
    """
    n = p.n_segments
    h_min = p.h_min
    if h_init is None:
        H = default_h_init(p)
    else:
        H = np.asarray(h_init, dtype=float)
        if H.shape != (n,) or not np.all(np.isfinite(H)):
            raise ValueError("h_init must hold one finite duration per segment")
        H = np.maximum(H, h_min)

    # Objective scale.  Tracks the current iterate so the constraint
    # penalties keep leverage, with a probe-derived floor because the
    # initial profile can sit at an exact zero of the objective (flat
    # road, uniform speed).
    slack = max(p.T_f - float(h_min.sum()), 0.0)
    h_alt = h_min.copy()
    h_alt[1::2] += slack / max(h_alt[1::2].size, 1)
    probe_scale = 1e-9
    for probe in (H, h_min, h_alt):
        _, parts_probe = evaluate_objective(p, np.maximum(probe, 1e-9))
        probe_scale = max(probe_scale, float(np.abs(parts_probe["terms"]).sum()))
    lam = np.zeros(_residuals(p, H).shape[-1])
    rho = 10.0
    ws = _MeritWorkspace(p, lam.size)

    # Lexicographic iterate ranking: feasibility first, then objective
    # among feasible iterates (violation magnitude among infeasible ones).
    best_key = (2, math.inf)
    best_h = H.copy()
    e_hist: list[float] = []
    viol_prev = math.inf
    _, parts_now = evaluate_objective(p, H)
    for _ in range(outer_max):
        e_scale = max(float(np.abs(parts_now["terms"]).sum()),
                      1e-3 * probe_scale, 1e-9)
        ws.set_multipliers(lam, rho, e_scale)
        m0, base = ws.merit(H)
        g = ws.grad(H, base)
        step = 0.1 * max(H.max(), 1e-6) / max(float(np.abs(g).max()), 1e-12)
        H_prev = None
        g_prev = None
        stalled = 0
        for _ in range(inner_max):
            if H_prev is not None:
                s = H - H_prev
                y = g - g_prev
                sy = float(s @ y)
                if sy > 1e-18:
                    step = float(s @ s) / sy
            step = min(max(step, 1e-12), 1e12)
            accepted = False
            t_ls = 1.0
            for _ in range(40):
                H_try = np.maximum(H - t_ls * step * g, h_min)
                d = H_try - H
                if np.abs(d).max() < 1e-14 * max(1.0, float(H.max())):
                    break
                m_try, base = ws.merit(H_try)
                if m_try <= m0 + 1e-4 * float(g @ d):
                    accepted = True
                    break
                t_ls *= 0.5
            if not accepted:
                stalled += 1
                if stalled >= 2:
                    break
                step *= 0.1
                continue
            stalled = 0
            H_prev, g_prev = H.copy(), g
            H, m0 = H_try, m_try
            g = ws.grad(H, base)
            if np.abs(H - H_prev).max() < 1e-12 * max(1.0, float(H.max())):
                break

        g_con = _residuals(p, H[None, :])[0]
        viol = float(np.maximum(g_con, 0.0).max())
        lam = np.maximum(0.0, lam + rho * g_con)
        # parts_now also sets the next iteration's objective scale.
        E_now, parts_now = evaluate_objective(p, H)
        e_hist.append(E_now)
        key = (0, E_now) if viol <= viol_target else (1, viol)
        if key < best_key:
            best_key, best_h = key, H.copy()
        if viol <= viol_target:
            if len(e_hist) > stag_window:
                e_old = e_hist[-stag_window - 1]
                if abs(E_now - e_old) <= stag_tol * max(abs(E_now), 1.0):
                    break
        if viol > 0.3 * viol_prev and viol > viol_target:
            rho = min(rho * 4.0, 1e10)
        viol_prev = viol

    H = best_h
    # Spend any sub-tolerance time overshoot from segments with cap slack.
    excess = float(H.sum() - p.T_f)
    if 0.0 < excess:
        slack = H - h_min
        total = float(slack.sum())
        if total >= excess > 0.0 and excess <= 1e-4 * p.T_f:
            H = H - slack * (excess / total)
    g_con = _residuals(p, H[None, :])[0]
    feasible = bool(np.maximum(g_con, 0.0).max() <= VIOL_TOL)

    E, parts = evaluate_objective(p, H)
    t = np.concatenate([[0.0], np.cumsum(H)])
    return TOSolution(h=H, t=t, v_r=parts["v_r"], a_r=parts["a_r"],
                      u_r=parts["u_r"], eta=parts["eta"], E=E, feasible=feasible)


def resample_equidistant(sol: TOSolution, p: TOProblem, n_samples: int
                         ) -> ReferenceTrajectory:
    """Resample the solution onto a uniform time grid for the controller.

    Position over time is piecewise linear (constant velocity per
    segment); the terminal position is preserved exactly.  Velocity and
    acceleration are rebuilt by forward differences (final values held)
    and the feedforward input is re-inverted at the resampled points.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    t_end = float(sol.t[-1])
    t = np.linspace(0.0, t_end, n_samples)
    x = np.interp(t, sol.t, p.x)
    x[-1] = p.x[-1]
    dt = t[1] - t[0]
    v = np.diff(x) / dt
    v = np.append(v, v[-1])
    a = reference_accel(v, dt)
    if p.mode == "full":
        slope_at = np.interp(x, p.x[:-1], p.alpha)
        u = feedforward(v, a, slope_at, p.model)
    else:
        u = a.copy()
    return ReferenceTrajectory(t=t, x=x, v_r=v, a_r=a, u_r=u)


def reference_energy(ref: ReferenceTrajectory, p: TOProblem) -> float:
    """Re-evaluate the energy objective on a resampled reference."""
    if p.mode == "full":
        slope_at = np.interp(ref.x, p.x[:-1], p.alpha)
        u = feedforward(ref.v_r, ref.a_r, slope_at, p.model)
    else:
        u = ref.a_r
    return float(np.sum(energy_terms(_weight(p, u), u, ref.v_r, ref.h)[:-1]))
