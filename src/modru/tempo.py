"""Energy-minimal timing of a fixed spatial path as a convex program.

The variables are the squared node speeds z_j = v_j^2 of a position grid
(Hellström, Åslund & Nielsen, *Control Eng. Practice* 18, 2010).  Segment k
runs at a_k = (z_{k+1} - z_k) / (2 dx_k) for h_k = 2 dx_k / (v_k + v_{k+1})
on the input u_k that inverts the gray box at zbar_k = (z_k + z_{k+1}) / 2.
The energy is exact and piecewise, E = sum_k dx_k eta(u_k) u_k + m/2 (z_0 -
z_N), with eta = :func:`modru.plant.step_efficiency` and m = 1/t1 the mass
in model units.  Boundary rule: the end speeds are free, the start's
kinetic energy is charged and the end's credited at par, so no plan gets
energy from a flying start or a braked finish (kinetic energy bought at par
still undercuts traction at g > 1).  Constraints: 0 < z_j <= the
squared caps of both adjacent segments, |a_k| <= vdot_lim, sum h_k <= T_f
and optionally |u_k| <= u_lim.

With t3 = 0 the problem is convex (Verscheure et al., *IEEE TAC* 54, 2009).
Each row but the budget bounds a node from above by an increasing affine
function of its neighbour.  With each segment's contracting loops of rows
capped at their fixed points, one pass each way finds the rows' greatest
element z_max, the time-optimal profile (Bobrow, Dubowsky & Gibson, *IJRR* 4,
1985), if any plan meets them; travel time falls in every z_j, so z_max
decides feasibility exactly.  At T(z_max) >= T_f z_max is the plan; else a
log barrier (Boyd & Vandenberghe, *Convex Optimization*, ch. 11) starts
strictly inside and minimises each epigraph q_k >= max(g u_k, r u_k) out in
closed form, so the Newton matrix in z is tridiagonal plus the budget's
rank-1 term: an LDL^T sweep and a Sherman-Morrison step solve it in O(N).
It stops at a duality gap m_b / t (m_b barrier terms) below ``GAP_TOL``
max(|E|, m/2 (L/T_f)^2).  With t3 unmasked, sequential convex steps linearise
sqrt(zbar_k) at the last plan until it settles, or raise NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, NumericalError
from .plant import PositionProfile, step_efficiency
from .sysid import EfficiencyParams, GrayBoxModel
from .tables import write_csv

VIOL_TOL = 1e-6   # relative feasibility tolerance on the reported solution
BOUNDARY_RULE = "charge_kinetic"   # E includes m/2 (v_0^2 - v_N^2)
MU = 10.0         # barrier weight growth per centring
GAP_TOL = 1e-9    # the barrier's relative duality gap
PIN_TOL = 1e-12   # budgets this close above the fastest plan's time pin it
SCP_MAX = 30      # convex solves allowed for an unmasked t3


@dataclass(frozen=True)
class TOProblem:
    """Frozen timing-optimization data on a position grid."""

    x: np.ndarray          # segment endpoints, length N+1
    alpha: np.ndarray      # slope angle at each segment start, length N
    v_lim: np.ndarray      # per-segment speed cap, length N
    T_f: float             # total-time budget [s]
    vdot_lim: float        # |acceleration| bound [m/s^2]
    model: GrayBoxModel
    eff: EfficiencyParams
    u_lim: float | None = None
    mode = "full"          # not a field: the benchmark's violation check reads it

    def __post_init__(self):
        for name in ("x", "alpha", "v_lim"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not all(np.isfinite(v).all() for v in (self.x, self.alpha, self.v_lim, self.T_f,
                                                   self.vdot_lim, self.u_lim or 1.0)):
            raise ValueError("x, alpha, v_lim, T_f, vdot_lim and u_lim must be finite")
        n = self.x.size - 1
        if n < 2 or not np.all(np.diff(self.x) > 0):
            raise ValueError("need at least two segments on strictly increasing positions")
        if self.alpha.size != n or self.v_lim.size != n or np.any(self.v_lim <= 0):
            raise ValueError("alpha/v_lim need one entry per segment, caps positive")
        if self.T_f <= 0 or self.vdot_lim <= 0 or (self.u_lim is not None and self.u_lim <= 0):
            raise ValueError("T_f, vdot_lim and u_lim must be positive")
        if not isinstance(self.model, GrayBoxModel):
            raise ValueError("model must be a GrayBoxModel")

    @property
    def n_segments(self) -> int:
        return self.x.size - 1

    @cached_property
    def dx(self) -> np.ndarray:
        """Segment lengths (read-only)."""
        dx = np.diff(self.x)
        dx.setflags(write=False)
        return dx

    @property
    def mass(self) -> float:
        """Mass in model units: 1/t1."""
        return 1.0 / float(self.model.theta[0])


@dataclass(frozen=True)
class TOSolution:
    """Per-segment timing result and the solver's certificate."""

    h: np.ndarray          # durations, length N
    t: np.ndarray          # timestamps, length N+1, t[0] = 0
    v_r: np.ndarray        # segment mean speeds dx/h
    a_r: np.ndarray        # segment accelerations (constant per segment)
    u_r: np.ndarray        # model inputs
    eta: np.ndarray        # efficiency weights
    E: float
    feasible: bool
    z: np.ndarray          # squared node speeds v_j^2, length N+1
    gap: float             # duality gap [model energy units]
    gap_rel: float         # gap / max(|E|, m/2 (L/T_f)^2)
    n_newton: int          # barrier Newton steps over all convex steps
    exit: str              # "gap", or "time_pinned" if only the fastest plan fits

    def to_csv(self, path, problem: TOProblem) -> None:
        write_csv(path, ["k", "t", "x", "v_r", "a_r", "u_r", "eta", "h"],
                  [np.arange(self.h.size), self.t[:-1], problem.x[:-1], self.v_r,
                   self.a_r, self.u_r, self.eta, self.h],
                  meta={"E": self.E, "feasible": self.feasible, "t_end": self.t[-1],
                        "gap_rel": self.gap_rel})


@dataclass(frozen=True)
class ReferenceTrajectory:
    """The plan as the tracking reference, one row per node: time, position,
    speed, and the acceleration held to the next node (0 at the last).  The
    speed is linear in time between nodes."""

    t: np.ndarray
    x: np.ndarray
    v_r: np.ndarray
    a_r: np.ndarray

    def sample(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Speed and acceleration at times ``t``; past the end the final
        speed holds and the acceleration is 0."""
        k = np.clip(np.searchsorted(self.t, t, side="right") - 1, 0, self.t.size - 1)
        return np.interp(t, self.t, self.v_r), self.a_r[k]

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "x", "v_r", "a_r"], [self.t, self.x, self.v_r, self.a_r])


def build_problem(path_length: float, n_segments: int, T_f: float,
                  slope: PositionProfile, v_limit: PositionProfile,
                  model: GrayBoxModel, eff: EfficiencyParams | None = None,
                  vdot_lim: float = 1.0, u_lim: float | None = None) -> TOProblem:
    """Sample the route onto an equidistant grid: slope at segment starts,
    and as cap the smaller limit at the two segment endpoints."""
    x = np.linspace(0.0, path_length, n_segments + 1)
    v_lim = np.minimum(v_limit.value(x[:-1]), v_limit.value(x[1:]))
    return TOProblem(x=x, alpha=slope.value(x[:-1]), v_lim=v_lim, T_f=T_f,
                     vdot_lim=vdot_lim, model=model, eff=eff or EfficiencyParams(),
                     u_lim=u_lim)


def evaluate_objective(p: TOProblem, z) -> tuple[float, dict]:
    """Energy E and per-segment breakdown of the squared node speeds ``z``."""
    z = np.asarray(z, dtype=float)
    if z.shape != (p.n_segments + 1,) or not np.all(np.isfinite(z)) or np.any(z <= 0):
        raise ValueError("z must hold one positive squared speed per node")
    v, a, zbar = np.sqrt(z), np.diff(z) / (2.0 * p.dx), 0.5 * (z[:-1] + z[1:])
    t1, t2, t3, t4, t5, t6 = p.model.theta
    u = (a - t2 - t3 * np.sqrt(zbar) - t4 * zbar - t5 * p.alpha - t6 * p.alpha ** 2) / t1
    eta = step_efficiency(u, p.eff.gen_factor, p.eff.regen_factor)
    h = 2.0 * p.dx / (v[:-1] + v[1:])
    E = float(np.sum(p.dx * eta * u)) + 0.5 * p.mass * float(z[0] - z[-1])
    return E, {"h": h, "v_r": p.dx / h, "a_r": a, "u_r": u, "eta": eta}


def _epigraph(u, c, g, r):
    """min over q of c q - log(q - g u) - log(q - r u), from the closed form
    of the optimal slacks, and those slacks q - g u and q - r u."""
    d = (g - r) * np.abs(u)
    b, root = c * d - 2.0, np.hypot(c * d, 2.0)
    small = np.where(b > 0.0, 2.0 * d / np.maximum(b + root, 1e-300), (root - b) / (2.0 * c))
    big = small + d
    val = c * (np.maximum(g * u, r * u) + small) - np.log(small) - np.log(big)
    return val, np.where(u >= 0.0, small, big), np.where(u >= 0.0, big, small)


def _thomas(d, e, b1, b2):
    """Solve T x = b1 and T x = b2, T symmetric tridiagonal with diagonal d and
    off-diagonal e, by one LDL^T factorisation.  A pivot lost to cancellation
    carries next to no curvature, so the step leaves its direction alone."""
    piv, p1, p2 = [float(d[0])], [float(b1[0])], [float(b2[0])]
    mult = []
    for di, ei, c1, c2 in zip(d[1:].tolist(), e.tolist(), b1[1:].tolist(), b2[1:].tolist()):
        mi = ei / piv[-1]
        dd = di - mi * ei
        piv.append(dd if dd > 1e-15 * di else 1e300)
        mult.append(mi)
        p1.append(c1 - mi * p1[-1])
        p2.append(c2 - mi * p2[-1])
    x1, x2 = [p1[-1] / piv[-1]], [p2[-1] / piv[-1]]
    for di, mi, c1, c2 in zip(piv[-2::-1], mult[::-1], p1[-2::-1], p2[-2::-1]):
        x1.append(c1 / di - mi * x1[-1])
        x2.append(c2 / di - mi * x2[-1])
    return np.array(x1[::-1]), np.array(x2[::-1])


class _Barrier:
    """Log barrier of one convex problem, u affine in z (t3 linearised at
    ``z_lin``): the energy's epigraphs, the rows and the time budget."""

    def __init__(self, p: TOProblem, z_lin: np.ndarray):
        n, s, self.p, self.n_newton = p.n_segments, 0.5 / p.dx, p, 0
        t1, t2, t3, t4, t5, t6 = p.model.theta
        c, slope = t2 + t5 * p.alpha + t6 * p.alpha ** 2, np.full(n, t4)
        if t3 != 0.0:
            w = np.sqrt(0.5 * (z_lin[:-1] + z_lin[1:]))
            slope, c = slope + 0.5 * t3 / w, c + 0.5 * t3 * w
        # u_k = al z_k + be z_{k+1} + ga
        self.ab = al, be, ga = (-s - 0.5 * slope) / t1, (s - 0.5 * slope) / t1, -c / t1
        # Rows lb - l0 z_k - l1 z_{k+1} > 0 per segment: both nodes positive
        # and under the cap, the acceleration and, if bounded, the input; lim
        # is the limit within lb that a margin tightens.
        cap, vd, u = p.v_lim ** 2, p.vdot_lim, p.u_lim
        rows = [(-1.0, 0.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0), (1.0, 0.0, cap, cap),
                (0.0, 1.0, cap, cap), (-s, s, vd, vd), (s, -s, vd, vd)]
        if u is not None:
            rows += [(al, be, u - ga, u), (-al, -be, u + ga, u)]
        self.l0, self.l1, self.lb, self.lim = (
            np.array([np.broadcast_to(r[i], (n,)) for r in rows]) for i in range(4))
        # Coefficient products for the Hessian, with the epigraph's u as one
        # more row; barrier terms: the rows, the epigraph pairs and the budget.
        l0, l1 = np.vstack([self.l0, al]), np.vstack([self.l1, be])
        self.prods = np.array([l0 * l0, l0 * l1, l1 * l1])
        self.m = self.lb.size + 2 * n + 1

    def slack(self, z):
        return self.lb - self.l0 * z[:-1] - self.l1 * z[1:]

    def time(self, z) -> float:
        return float((2.0 * self.p.dx / (np.sqrt(z[:-1]) + np.sqrt(z[1:]))).sum())

    def greatest(self, margin=0.0) -> np.ndarray:
        """A bound on every plan within the rows, each limit tightened by
        ``margin`` of itself: their greatest element if it meets them, else
        there is none.  Raises if a row bounds both its nodes from above."""
        fu, bu, lb = self.l1 > 0.0, self.l0 > 0.0, self.lb - margin * self.lim
        k = np.flatnonzero((fu & bu).any(axis=0))
        if k.size:
            raise NumericalError(f"segment {k[0]}'s input rows bound both its nodes from above")
        # Per segment, rows z_{k+1} <= fc + fd z_k (fu) and z_k <= bc + bd z_{k+1} (bu).
        safe = np.where(fu | bu, np.maximum(self.l0, self.l1), 1.0)
        fc, fd = np.where(fu, lb / safe, 0.0), np.where(fu, -self.l0 / safe, 0.0)
        bc, bd = np.where(bu, lb / safe, 0.0), np.where(bu, -self.l1 / safe, 0.0)
        # Rows i, j close the loop z_{k+1} <= fc_i + fd_i (bc_j + bd_j z_{k+1});
        # at a gain G < 1 its fixed point caps z_{k+1} (the maximum-velocity
        # curve), so one pass each way breaks a row only where no plan fits.
        G = np.where(fu[:, None] & bu, fd[:, None] * bd, 1.0)
        top = np.divide(fc[:, None] + fd[:, None] * bc, 1.0 - G, out=np.full(G.shape, np.inf),
                        where=G < 1.0).min(axis=(0, 1))
        fc, bc = np.where(fu, fc, np.inf).T.tolist(), np.where(bu, bc, np.inf).T.tolist()
        fd, bd, z = fd.T.tolist(), bd.T.tolist(), [float(self.p.v_lim[0]) ** 2] + top.tolist()
        for k in range(self.p.n_segments):
            z[k + 1] = min(z[k + 1], *[c + d * z[k] for c, d in zip(fc[k], fd[k])])
        for k in range(self.p.n_segments - 1, -1, -1):
            z[k] = min(z[k], *[c + d * z[k + 1] for c, d in zip(bc[k], bd[k])])
        return np.array(z)

    def start(self) -> np.ndarray:
        """A plan strictly inside the rows and the budget: the constant speed
        inside the rows with the largest worst relative slack of the caps and
        the budget, if it fits; else the rows' greatest element under a
        margin of 1e-2 of their limits, halved until it is inside."""
        p, top = self.p, self.p.v_lim.min() ** 2
        Z = top * np.linspace(0.01, 0.99, 99) ** 2
        worst = (self.lb - (self.l0 + self.l1) * Z[:, None, None]).min(axis=(1, 2))
        if worst.max() > 0.0:
            score = np.minimum(1.0 - Z / top, 1.0 - p.x[-1] / (np.sqrt(Z) * p.T_f))
            z = np.full(p.n_segments + 1, Z[worst > 0.0][np.argmax(score[worst > 0.0])])
            if self.time(z) < p.T_f:
                return z
        for margin in 1e-2 * 0.5 ** np.arange(50):
            z = self.greatest(margin)
            if self.slack(z).min() > 0.0 and self.time(z) < p.T_f:
                return z
        raise NumericalError("no strict start below the fastest plan")

    def eval(self, z, t, deriv=False):
        """Barrier value at weight t (inf outside the domain); with ``deriv``
        also its gradient, the Hessian's diagonal and off-diagonal, and the
        border (d, c) of the budget's rank-1 term c2 c c^T, d = -1/c2."""
        p, dx, (al, be, ga) = self.p, self.p.dx, self.ab
        lin = self.slack(z)
        if lin.min() <= 0.0:
            return math.inf
        a, b = np.sqrt(z[:-1]), np.sqrt(z[1:])
        S = a + b
        self.T = T = float((2.0 * dx / S).sum())   # travel time of the last z evaluated
        if T >= p.T_f:
            return math.inf
        g, r = p.eff.gen_factor, p.eff.regen_factor
        phi, sg, sr = _epigraph(al * z[:-1] + be * z[1:] + ga, t * dx, g, r)
        # The budget is curved with its dual y, not the barrier's 1/s:
        # primal-dual, as 1/s^2 stalls Newton off the centre near it.
        c, y, kappa = 1.0 / (p.T_f - T), self.y, 0.5 * p.mass
        f = -np.log(lin).sum() + (phi.sum() + math.log(c) + t * kappa * (z[0] - z[-1]))
        if not deriv:
            return float(f)
        wg, d1 = 1.0 / lin, g / sg + r / sr   # d1, wh[-1]: the epigraph's derivatives in u
        g0, g1 = (self.l0 * wg).sum(0) + d1 * al, (self.l1 * wg).sum(0) + d1 * be
        wh = np.vstack([wg * wg, (g - r) ** 2 / (sg * sg + sr * sr)])
        q00, q01, q11 = self.prods
        # Travel time: first and second derivatives of h_k in (z_k, z_{k+1}).
        t0, t1, S3 = -dx / (a * S * S), -dx / (b * S * S), dx / S ** 3
        grad = _nodes(g0 + c * t0, g1 + c * t1)
        diag = _nodes((q00 * wh).sum(0) + y * (S3 / (a * a) - 0.5 * t0 / (a * a)),
                      (q11 * wh).sum(0) + y * (S3 / (b * b) - 0.5 * t1 / (b * b)))
        off = (q01 * wh).sum(0) + y * S3 / (a * b)
        grad[0] += t * kappa
        grad[-1] -= t * kappa
        return f, grad, diag, off, (-1.0 / (c * y), _nodes(t0, t1))

    def center(self, z, t, max_steps=200):
        """Newton's method at weight t, backtracking from 0.99 of the step to
        the nearest row; raises if it stalls off the centre."""
        m, last = self.m, math.inf
        for _ in range(max_steps):
            f, grad, diag, off, (d, c) = self.eval(z, t, deriv=True)
            # The budget's rank-1 term by Sherman-Morrison.
            y, x = _thomas(diag, off, -grad, c)
            dz = y - x * (-(c @ y) / (d - c @ x))
            lam2 = -float(grad @ dz)
            # Centred, or near the centre where rounding stops the decrement
            # from falling any further.
            if lam2 <= 1e-6 * m or (lam2 <= 1e-3 * m and lam2 > 0.5 * last):
                return z
            last = lam2
            self.n_newton += 1
            fall = self.l0 * dz[:-1] + self.l1 * dz[1:]
            with np.errstate(over="ignore"):
                room = self.slack(z)[fall > 0] / fall[fall > 0]
            step = min(1.0, 0.99 * np.min(room, initial=np.inf))
            slack = self.p.T_f - self.T   # and the budget dual's Newton step
            dy = (1.0 - self.y * slack + self.y * (c @ dz)) / slack
            while True:
                f_try = self.eval(z + step * dz, t)
                # In the quadratic region a full step need only stay in the
                # domain: an Armijo test on f would trip over its rounding.
                # The budget's slack may not fall below half the dual's
                # estimate 1/y of its centred value, nor half its present one.
                if ((f_try <= f - 0.01 * step * lam2 or (lam2 < 0.25 and f_try < math.inf))
                        and self.p.T_f - self.T >= 0.5 * min(slack, 1.0 / self.y)):
                    break
                step *= 0.5
                if step < 1e-14:
                    if lam2 <= 1e-3 * m:
                        return z
                    raise NumericalError(f"barrier centring stalled at t={t:.3g}")
            z = z + step * dz
            # The dual's step, kept within 1e3 of the barrier's 1/s.
            slack = self.p.T_f - self.T
            self.y = min(max(self.y + step * dy, 1e-3 / slack), 1e3 / slack)
        raise NumericalError(f"barrier centring took over {max_steps} Newton steps")

    def run(self, z):
        """Centre from the strict start z with a growing weight until the
        gap is below ``GAP_TOL`` of the scale; returns (z, gap)."""
        p, m = self.p, self.m
        scale = lambda z: max(abs(evaluate_objective(p, z)[0]), _kinetic(p))
        t, self.y = m / scale(z), 1.0 / (p.T_f - self.time(z))
        while True:
            z = self.center(z, t)
            if m / t <= GAP_TOL * scale(z):
                return z, m / t
            t, self.y = t * MU, self.y * MU


def _nodes(d0, d1):
    """Node vector of per-segment terms in z_k (d0) and z_{k+1} (d1)."""
    out = np.zeros(d0.size + 1)
    out[:-1] = d0
    out[1:] += d1
    return out


def _kinetic(p: TOProblem) -> float:
    """Kinetic energy at the mean speed, the floor of the gap's scale."""
    return 0.5 * abs(p.mass) * (p.x[-1] / p.T_f) ** 2


def solve(p: TOProblem) -> TOSolution:
    """Minimise the drive energy over the squared node speeds.

    Raises :class:`InfeasibleError` if the fastest plan z_max breaks a row
    (so no plan meets them) or takes over T_f (1 + ``VIOL_TOL``); returns
    z_max (exit "time_pinned") if it takes T_f (1 - ``PIN_TOL``) or more,
    else the barrier's plan (exit "gap").  Raises :class:`NumericalError` if
    a row bounds both its nodes, if centring fails or if an unmasked t3's
    convex steps do not settle within ``SCP_MAX`` solves.
    """
    z_lin, n_newton = np.full(p.n_segments + 1, (p.x[-1] / p.T_f) ** 2), 0
    for _ in range(SCP_MAX):
        bar = _Barrier(p, z_lin)
        z = bar.greatest()
        if (bar.slack(z) <= -1e-9 * bar.lim).any():   # a row broken past rounding
            raise InfeasibleError(f"no plan keeps |u| strictly below u_lim={p.u_lim:g}")
        T = bar.time(z)
        if T > p.T_f * (1.0 + VIOL_TOL):
            raise InfeasibleError(f"no plan meets T_f={p.T_f:g} s: the fastest one takes {T!r} s")
        pinned = T >= p.T_f * (1.0 - PIN_TOL)
        z, gap = (z, 0.0) if pinned else bar.run(bar.start())
        n_newton += bar.n_newton
        settled, z_lin = np.abs(z - z_lin).max() <= 1e-9 * z.max(), z
        if p.model.theta[2] == 0.0 or settled:
            break
    else:
        raise NumericalError(f"sequential convex steps did not settle in {SCP_MAX} solves")
    E, parts = evaluate_objective(p, z)
    h = parts["h"]
    caps = np.maximum(z[:-1], z[1:]) / p.v_lim ** 2
    viol = [h.sum() / p.T_f, np.abs(parts["a_r"]).max() / p.vdot_lim, caps.max()]
    if p.u_lim is not None:
        viol.append(np.abs(parts["u_r"]).max() / p.u_lim)
    return TOSolution(h=h, t=np.concatenate([[0.0], np.cumsum(h)]), v_r=parts["v_r"],
                      a_r=parts["a_r"], u_r=parts["u_r"], eta=parts["eta"], E=E,
                      feasible=bool(max(viol) <= 1.0 + VIOL_TOL), z=z, gap=gap,
                      gap_rel=gap / max(abs(E), _kinetic(p)), n_newton=n_newton,
                      exit="time_pinned" if pinned else "gap")


def reference(sol: TOSolution, p: TOProblem) -> ReferenceTrajectory:
    """The plan's nodes as the tracking reference: each segment runs at
    constant acceleration, so its speed is linear in time between nodes."""
    return ReferenceTrajectory(t=sol.t, x=p.x, v_r=np.sqrt(sol.z),
                               a_r=np.append(sol.a_r, 0.0))
