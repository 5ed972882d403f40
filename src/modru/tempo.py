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
are central finite differences of the merit function.

Each ``solve`` builds one merit workspace.  Its row kernel gives the
merits of a (k, N) block of rows: a single trial, and after a rejected
first line-search trial the next eight halvings, scanned in order with
the one-at-a-time tests.  The gradient recomputes only the elements a
moved h_i reaches (segments i-1, i and the last) and patches them into
copies of the accepted trial's terms and penalties.  Bit-identity
contract: each row goes through the whole-row merit's elementwise
operations in the same order and is reduced in full with sum(axis=-1),
so merits, gradients and plans equal bit for bit those of evaluating
the whole merit one trial at a time and on all 2N perturbed rows.
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
LS_BATCH = 8      # line-search trials per merit block after a rejected first trial
HALVINGS = np.ldexp(1.0, -np.arange(40))   # exact line-search step fractions 2^-j


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
    # Solver work (in memory only); exit is "stagnated" or "outer_max".
    n_outer: int = 0
    n_trials: int = 0
    n_grad: int = 0
    exit: str = ""

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


def build_problem(path_length: float, n_segments: int, T_f: float,
                  slope: PositionProfile, v_limit: PositionProfile,
                  model: GrayBoxModel | None, eff: EfficiencyParams | None = None,
                  vdot_lim: float = 1.0, gamma: float | None = None,
                  mode: str = "full", u_lim: float | None = None) -> TOProblem:
    """Sample the route data onto an equidistant grid and freeze it.

    Slope is evaluated at segment starts.  The per-segment speed cap is
    the smaller of the limit at the two segment endpoints, so a
    piecewise-constant reference velocity below the cap respects the
    limit over the whole segment.  The default ``gamma`` saturates tanh at
    the typical input scale.
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
        gamma = 4.0 / max(abs(scale), 1e-9)
    return TOProblem(x=x, alpha=alpha, v_lim=v_lim, T_f=T_f, vdot_lim=vdot_lim,
                     model=model, eff=eff, gamma=gamma, mode=mode, u_lim=u_lim)


def _weight(p: TOProblem, u):
    """Smooth efficiency weight eta(u) between regeneration and generation."""
    mid = 0.5 * (p.eff.gen_factor + p.eff.regen_factor)
    half = 0.5 * (p.eff.gen_factor - p.eff.regen_factor)
    return mid + half * np.tanh(p.gamma * u)


def energy_terms(eta: np.ndarray, u: np.ndarray, v: np.ndarray,
                 h: np.ndarray) -> np.ndarray:
    """Per-segment energy contributions eta * u * v * h."""
    return eta * u * v * h


def evaluate_objective(p: TOProblem, h: np.ndarray) -> tuple[float, dict]:
    """Objective value and per-segment breakdown at durations ``h``."""
    H = np.asarray(h, dtype=float)
    if H.shape != (p.n_segments,) or np.any(H <= 0):
        raise ValueError("h must hold one positive duration per segment")
    v = p.dx / H
    vdot_ind = (v[1:] - v[:-1]) / H[:-1]
    vdot = np.concatenate([vdot_ind, vdot_ind[-1:]])
    u = feedforward(v, vdot, p.alpha, p.model) if p.mode == "full" else vdot
    eta = _weight(p, u)
    terms = energy_terms(eta, u, v, H)
    return float(terms.sum()), {"v_r": v, "a_r": vdot, "u_r": u, "eta": eta,
                                "terms": terms}


class _MeritWorkspace:
    """Augmented-Lagrangian merit and its gradient for one :func:`solve` call.

    Built once per problem: constraint bounds, the operands of the model
    inversion and the weight, and the gradient's window index maps and
    2N-row buffers.  Operands are tiled or gathered to the shape of the
    block they act on, as NumPy runs same-shape operations markedly faster
    than ones that broadcast a scalar or a row, with equal results.
    """

    def __init__(self, p: TOProblem):
        n = p.n_segments
        self.p, self.n, self.full = p, n, p.mode == "full"
        self.bounded = self.full and p.u_lim is not None
        # Constraint columns: time budget, upper and lower acceleration, then
        # upper and lower input if bounded; a residual is (x - lim) / lim.
        self.lim = np.array([p.T_f] + [p.vdot_lim] * (2 * n - 2)
                            + [p.u_lim] * (2 * n * self.bounded))
        self.n_con = self.lim.size
        # Row r < N of the 2N perturbed rows moves h_r up by d_r, row N + r
        # moves it down (clamped at 1e-12).  Elements reading h_i: segments
        # i-1 and i, and the last, whose acceleration is segment N-2's; held
        # as (window, row) blocks, so each constraint block is contiguous.
        moved = np.tile(np.arange(n), 2)
        J = np.stack([np.maximum(moved - 1, 0), moved, np.full(2 * n, n - 1)])
        K = np.minimum(J, n - 2)
        self.cols = np.concatenate([np.zeros((1, 2 * n), dtype=np.intp), 1 + K, n + K]
                                   + [2 * n - 1 + J, 3 * n - 1 + J] * self.bounded)
        # Flat offsets of the window elements in the row-major buffers.
        r = np.arange(2 * n)
        JK = np.concatenate([J, K, K + 1])
        self.fJK, self.fJ, self.fcols = r * n + JK, r * n + J, r * self.n_con + self.cols
        self.dxJK = p.dx[JK]
        self.G = np.empty(self.cols.shape)
        self.uJ = self.G[7:10] if self.bounded else np.empty((3, 2 * n))
        # gamma, the tanh half-range and midpoint, feedforward's coefficients.
        chain = [p.gamma, 0.5 * (p.eff.gen_factor - p.eff.regen_factor),
                 0.5 * (p.eff.gen_factor + p.eff.regen_factor)]
        if self.full:
            t1, t2, t3, t4, t5, t6 = p.model.theta
            chain += [t1, t2, t3, t4, t5 * p.alpha, t6 * p.alpha ** 2]
        self.chain = [np.broadcast_to(c, (n,)) for c in chain]
        self.chain_w = [c[J] for c in self.chain]
        self.Hrows, self.terms = np.empty((2, 2 * n, n))
        self.pen = np.empty((2 * n, self.n_con))
        flat = self.Hrows.reshape(-1)
        self.h_up, self.h_down = flat[:n * n:n + 1], flat[n * n::n + 1]
        self.set_multipliers(np.zeros(self.n_con), 1.0, 1.0)

    def set_multipliers(self, lam: np.ndarray, rho: float, e_scale: float) -> None:
        """Fix the multipliers, penalty weight and objective scale."""
        self.lam, self.rho, self.e_scale = lam, rho, e_scale
        self.lam_sq = float((lam * lam).sum())
        shape = self.cols.shape
        self.pen_w = self.lim[self.cols], lam[self.cols], np.full(shape, rho), np.zeros(shape)
        self.tiles = {}

    def _tiled(self, k: int):
        """dx, the _input_terms operands and the _penalties operands tiled to k rows."""
        if k not in self.tiles:
            dx, lim, lam, *chain = [np.tile(a, (k, 1)) for a in
                                    [self.p.dx, self.lim, self.lam, *self.chain]]
            rho, zero = np.full(lim.shape, self.rho), np.zeros(lim.shape)
            self.tiles[k] = dx, chain, (lim, lam, rho, zero)
        return self.tiles[k]

    def _input_terms(self, vdot, v, h, chain, out):
        """feedforward's inverse at (v, vdot) into ``out`` (pseudo mode: ``vdot``)
        and the energy terms there, weighted as by :func:`_weight`."""
        gamma, half, mid = chain[:3]
        u = vdot
        if self.full:
            t1, t2, t3, t4, slope, slope2 = chain[3:]
            u = np.subtract(vdot, t2, out=out)
            u -= t3 * v
            u -= t4 * v * v
            u -= slope
            u -= slope2
            u /= t1
        eta = u * gamma
        np.tanh(eta, out=eta)
        eta *= half
        eta += mid
        return u, energy_terms(eta, u, v, h)

    def _penalties(self, x, lim, lam, rho, zero):
        """Turn constraint values x into max(0, lam + rho (x - lim) / lim)^2 in place."""
        x -= lim
        x /= lim
        x *= rho
        x += lam
        np.maximum(x, zero, out=x)   # out= by keyword: positional is slower
        x *= x

    def _rows(self, Hs: np.ndarray):
        """Energy terms, constraint values (in a (k, n_con) array allocated per
        call) and penalty operands for the rows of the (k, N) block ``Hs``."""
        n = self.n
        dx, chain, pen_ops = self._tiled(Hs.shape[0])
        v = dx / Hs
        R = np.empty((Hs.shape[0], self.n_con))
        Hs.sum(axis=-1, out=R[:, 0])
        # The column after the upper acceleration block repeats its last
        # value until the negation below, so R[:, 1:n + 1] is the whole row.
        vdot_ind = R[:, 1:n]
        np.subtract(v[:, 1:], v[:, :-1], vdot_ind)
        np.divide(vdot_ind, Hs[:, :-1], vdot_ind)
        R[:, n] = R[:, n - 1]
        out = R[:, 2 * n - 1:3 * n - 1] if self.bounded else np.empty(Hs.shape)
        u, terms = self._input_terms(R[:, 1:n + 1], v, Hs, chain, out)
        np.negative(vdot_ind, R[:, n:2 * n - 1])
        if self.bounded:
            np.negative(u, R[:, 3 * n - 1:])
        return terms, R, pen_ops

    def residuals(self, H: np.ndarray) -> np.ndarray:
        """Constraint residuals g <= 0 of the durations H, one per column."""
        return (self._rows(H[None, :])[1][0] - self.lim) / self.lim

    def merit_rows(self, Hs: np.ndarray):
        """Merits of the rows of the (k, N) block ``Hs`` (the same bits in any
        block), and their energy terms and squared penalties for :meth:`grad`."""
        terms, R, pen_ops = self._rows(Hs)
        self._penalties(R, *pen_ops)
        e, lam_sq, rho2 = self.e_scale, self.lam_sq, 2.0 * self.rho
        m = [t / e + (q - lam_sq) / rho2
             for t, q in zip(terms.sum(axis=-1).tolist(), R.sum(axis=-1).tolist())]
        return m, terms, R

    def merit(self, H: np.ndarray) -> tuple[float, tuple]:
        """Merit of the single row H, and its terms and penalties for :meth:`grad`."""
        m, terms, pen = self.merit_rows(H[None, :])
        return m[0], (terms[0], pen[0])

    def grad(self, H: np.ndarray, base: tuple | None = None) -> np.ndarray:
        """Central-difference gradient of the merit at durations ``H``.

        ``base`` is :meth:`merit`'s second result at ``H`` (evaluated here if
        None).  The elements reading a moved duration are recomputed into
        copies of its terms and penalties, and each full row is reduced: the
        batched central difference bit for bit while every h >= 1e-12.
        """
        n, G = self.n, self.G
        base_terms, base_pen = base if base is not None else self.merit(H)[1]
        d = 1e-6 * np.maximum(H, 1e-6)
        self.Hrows[...] = H
        np.add(H, d, out=self.h_up)
        h_minus = np.maximum(H - d, 1e-12, out=self.h_down)
        self.Hrows.sum(axis=-1, out=G[0])
        W = self.Hrows.take(self.fJK)   # durations at J, K and K + 1
        V = self.dxJK / W
        vdot = G[1:4]
        np.subtract(V[6:], V[3:6], out=vdot)
        vdot /= W[3:6]
        u, window_terms = self._input_terms(vdot, V[:3], W[:3], self.chain_w, self.uJ)
        np.negative(vdot, out=G[4:7])
        if self.bounded:
            np.negative(u, out=G[10:])
        self._penalties(G, *self.pen_w)
        self.terms[...] = base_terms
        self.terms.reshape(-1)[self.fJ] = window_terms
        self.pen[...] = base_pen
        self.pen.reshape(-1)[self.fcols] = G
        m = (self.terms.sum(axis=-1) / self.e_scale
             + (self.pen.sum(axis=-1) - self.lam_sq) / (2.0 * self.rho))
        return (m[:n] - m[n:]) / (d + (H - h_minus))


def default_h_init(p: TOProblem) -> np.ndarray:
    """Uniform timing pushed onto the speed-cap bounds within the time budget."""
    h_min = p.h_min
    uniform = np.full(p.n_segments, p.T_f / p.n_segments)
    extra = np.maximum(uniform - h_min, 0.0)
    budget = p.T_f - h_min.sum()
    scale = min(1.0, budget / extra.sum()) if extra.sum() > 0 else 0.0
    return h_min + extra * scale


def _line_search(ws: _MeritWorkspace, H, g, m0: float, step: float, h_min):
    """Backtracking Armijo search along -g from H, halving the step up to 39 times.

    The first trial goes alone, then ``LS_BATCH`` halvings per
    ``merit_rows`` call, scanned in order with the one-at-a-time tests
    (stop below rounding, accept on Armijo).  Returns (H_try, m_try, base,
    n_trials) as the one-at-a-time search does, H_try None if it fails.
    """
    tiny = 1e-14 * max(1.0, float(H.max()))
    tried = 0
    while tried < 40:
        k = 1 if tried == 0 else min(LS_BATCH, 40 - tried)
        trials = np.maximum(H - (step * HALVINGS[tried:tried + k])[:, None] * g, h_min)
        steps = trials - H
        size = np.abs(steps).max(axis=1).tolist()
        n_big = next((j for j in range(k) if size[j] < tiny), k)
        if n_big:
            m, terms, pen = ws.merit_rows(trials[:n_big])
        for j in range(n_big):
            tried += 1
            if m[j] <= m0 + 1e-4 * float(g @ steps[j]):
                return trials[j], m[j], (terms[j], pen[j]), tried
        if n_big < k:
            break
    return None, None, None, tried


def solve(p: TOProblem, h_init: np.ndarray | None = None, outer_max: int = 80,
          inner_max: int = 400, viol_target: float = 5e-7,
          stag_tol: float = 1e-8, stag_window: int = 5) -> TOSolution:
    """Minimize the energy objective over segment durations.

    Augmented-Lagrangian outer loop with multiplier updates on the
    time/acceleration/input inequalities; projected spectral-gradient
    inner minimization with the speed caps as bound constraints, on the
    merit and gradient of a :class:`_MeritWorkspace` built for this call.
    Returns the best iterate flagged ``feasible=False`` if the violation
    target is not met within the iteration budget.  Raises ``ValueError``
    if ``h_init`` does not hold one finite duration per segment.
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
    ws = _MeritWorkspace(p)
    lam = np.zeros(ws.n_con)
    rho = 10.0

    # Lexicographic iterate ranking: feasibility first, then objective
    # among feasible iterates (violation magnitude among infeasible ones).
    best_key = (2, math.inf)
    best_h = H.copy()
    e_hist: list[float] = []
    viol_prev = math.inf
    _, parts_now = evaluate_objective(p, H)
    n_outer = n_trials = n_grad = 0
    exit_reason = "outer_max"
    for n_outer in range(1, outer_max + 1):
        e_scale = max(float(np.abs(parts_now["terms"]).sum()),
                      1e-3 * probe_scale, 1e-9)
        ws.set_multipliers(lam, rho, e_scale)
        m0, base = ws.merit(H)
        g = ws.grad(H, base)
        n_grad += 1
        step = 0.1 * max(H.max(), 1e-6) / max(float(np.abs(g).max()), 1e-12)
        H_prev = g_prev = None
        stalled = 0
        for _ in range(inner_max):
            if H_prev is not None:
                s = H - H_prev
                y = g - g_prev
                sy = float(s @ y)
                if sy > 1e-18:
                    step = float(s @ s) / sy
            step = min(max(step, 1e-12), 1e12)
            H_try, m_try, base, tried = _line_search(ws, H, g, m0, step, h_min)
            n_trials += tried
            if H_try is None:
                stalled += 1
                if stalled >= 2:
                    break
                step *= 0.1
                continue
            stalled = 0
            H_prev, g_prev = H.copy(), g
            H, m0 = H_try, m_try
            g = ws.grad(H, base)
            n_grad += 1
            if np.abs(H - H_prev).max() < 1e-12 * max(1.0, float(H.max())):
                break

        g_con = ws.residuals(H)
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
                    exit_reason = "stagnated"
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
    g_con = ws.residuals(H)
    feasible = bool(np.maximum(g_con, 0.0).max() <= VIOL_TOL)

    E, parts = evaluate_objective(p, H)
    t = np.concatenate([[0.0], np.cumsum(H)])
    return TOSolution(h=H, t=t, v_r=parts["v_r"], a_r=parts["a_r"],
                      u_r=parts["u_r"], eta=parts["eta"], E=E, feasible=feasible,
                      n_outer=n_outer, n_trials=n_trials, n_grad=n_grad,
                      exit=exit_reason)


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
