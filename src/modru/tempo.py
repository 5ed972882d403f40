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

With t3 = 0 the problem is convex (Verscheure et al., *IEEE TAC* 54, 2009):
the planner requires it, and the config refuses a mask that would fit t3.
Each row but the budget bounds a node from above by an increasing affine
function of its neighbour.  With each segment's contracting loops of rows
capped at their fixed points, one pass each way finds the rows' greatest
element z_max, the time-optimal profile (Bobrow, Dubowsky & Gibson, *IJRR* 4,
1985), if any plan meets them; travel time falls in every z_j, so z_max
decides feasibility exactly.  At T(z_max) >= T_f z_max is the plan; else
Mehrotra's predictor-corrector (*SIAM J. Optim.* 2, 1992; Wright,
*Primal-Dual Interior-Point Methods*, SIAM 1997, ch. 10) gives every row,
the budget and the energy's epigraph rows q_k >= g u_k, r u_k a slack and a
dual.  It starts at the constant speed L/T_f, rows broken or not, with the
epigraph duals at dx_k / 2, which meet the dual equation in q_k for good.
With each q_k and its duals eliminated the Newton matrix in z is tridiagonal
plus the budget's rank-1 term: an LDL^T sweep and a Sherman-Morrison step
solve it in O(N).  It stops once the rows hold to a tenth of ``GAP_TOL`` of
their limits, the Lagrangian's gradient in z is below ``GAP_TOL`` of its
terms and the gap, the duals times the rows' slacks, is below ``GAP_TOL``
max(|E|, m/2 (L/T_f)^2).  By weak duality the gap bounds E - E*: at a zero
gradient the Lagrangian's minimum, at most E*, is the epigraph objective,
at least E, less the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError, NumericalError
from .plant import PositionProfile, step_efficiency
from .sysid import EfficiencyParams, GrayBoxModel
from .tables import write_csv

VIOL_TOL = 1e-6   # relative feasibility tolerance on the reported solution
BOUNDARY_RULE = "charge_kinetic"   # E includes m/2 (v_0^2 - v_N^2)
GAP_TOL = 1e-9    # relative duality gap and dual residual at the stop
PIN_TOL = 1e-12   # budgets this close above the fastest plan's time pin it


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
        if self.model.theta[2] != 0.0:
            raise ValueError("the planner is convex only without the velocity-linear term t3")

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
    """The plan, which is also the tracking reference, and the solver's
    certificate.  Per node: time ``t``, position ``x`` and speed sqrt(z),
    which the tracker samples linear in time; per segment: duration, mean
    speed dx/h, the constant acceleration and the model input."""

    h: np.ndarray          # durations, length N
    t: np.ndarray          # node timestamps, length N+1, t[0] = 0
    x: np.ndarray          # node positions, length N+1
    v_r: np.ndarray        # segment mean speeds dx/h
    a_r: np.ndarray        # segment accelerations (constant per segment)
    u_r: np.ndarray        # model inputs
    eta: np.ndarray        # efficiency weights
    E: float
    feasible: bool
    z: np.ndarray          # squared node speeds v_j^2, length N+1
    gap: float             # duality gap [model energy units]
    gap_rel: float         # gap / max(|E|, m/2 (L/T_f)^2)
    n_newton: int          # interior-point iterations
    exit: str              # "gap", or "time_pinned" if only the fastest plan fits

    def sample(self, t) -> np.ndarray:
        """Speed at times ``t``; outside the plan its end speeds hold."""
        return np.interp(t, self.t, np.sqrt(self.z))

    def write(self, out) -> None:
        """Write ``to_solution.csv`` (one row per segment, with the
        certificate) and ``reference.csv`` (time, position and speed per
        node) into the directory ``out``, a :class:`pathlib.Path`."""
        write_csv(out / "to_solution.csv", ["k", "t", "x", "v_r", "a_r", "u_r", "eta", "h"],
                  [np.arange(self.h.size), self.t[:-1], self.x[:-1], self.v_r,
                   self.a_r, self.u_r, self.eta, self.h],
                  meta={"E": self.E, "feasible": self.feasible, "t_end": self.t[-1],
                        "gap_rel": self.gap_rel})
        write_csv(out / "reference.csv", ["t", "x", "v_r"], [self.t, self.x, np.sqrt(self.z)])


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
    t1, t2, _, t4, t5, t6 = p.model.theta
    u = (a - t2 - t4 * zbar - t5 * p.alpha - t6 * p.alpha ** 2) / t1
    eta = step_efficiency(u, p.eff.gen_factor, p.eff.regen_factor)
    h = 2.0 * p.dx / (v[:-1] + v[1:])
    E = float(np.sum(p.dx * eta * u)) + 0.5 * p.mass * float(z[0] - z[-1])
    return E, {"h": h, "v_r": p.dx / h, "a_r": a, "u_r": u, "eta": eta}


def _thomas(d, e):
    """Factorise the symmetric tridiagonal T with diagonal d and off-diagonal
    e as LDL^T; returns the solve of T x = b.  A pivot lost to cancellation
    carries next to no curvature, so the step leaves its direction alone."""
    piv, mult = [float(d[0])], []
    for di, ei in zip(d[1:].tolist(), e.tolist()):
        mi = ei / piv[-1]
        dd = di - mi * ei
        piv.append(dd if dd > 1e-15 * di else 1e300)
        mult.append(mi)

    def solve(b):
        x = [float(b[0])]
        for mi, bi in zip(mult, b[1:].tolist()):
            x.append(bi - mi * x[-1])
        x[-1] /= piv[-1]
        for k in range(len(mult) - 1, -1, -1):
            x[k] = x[k] / piv[k] - mult[k] * x[k + 1]
        return np.array(x)

    return solve


class _Program:
    """The convex program, u affine in z: its rows, the energy's epigraphs
    and the time budget."""

    def __init__(self, p: TOProblem):
        n, s, self.p = p.n_segments, 0.5 / p.dx, p
        t1, t2, _, t4, t5, t6 = p.model.theta
        c = t2 + t5 * p.alpha + t6 * p.alpha ** 2
        # u_k = al z_k + be z_{k+1} + ga
        self.ab = al, be, ga = (-s - 0.5 * t4) / t1, (s - 0.5 * t4) / t1, -c / t1
        # Rows lb - l0 z_k - l1 z_{k+1} >= 0 per segment: both nodes positive
        # and under the cap, the acceleration and, if bounded, the input; lim
        # is the limit within lb.
        cap, vd, u = p.v_lim ** 2, p.vdot_lim, p.u_lim
        rows = [(-1.0, 0.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0), (1.0, 0.0, cap, cap),
                (0.0, 1.0, cap, cap), (-s, s, vd, vd), (s, -s, vd, vd)]
        if u is not None:
            rows += [(al, be, u - ga, u), (-al, -be, u + ga, u)]
        self.l0, self.l1, self.lb, self.lim = (
            np.array([np.broadcast_to(r[i], (n,)) for r in rows]) for i in range(4))

    def slack(self, z):
        return self.lb - self.l0 * z[:-1] - self.l1 * z[1:]

    def time(self, z) -> float:
        return float((2.0 * self.p.dx / (np.sqrt(z[:-1]) + np.sqrt(z[1:]))).sum())

    def greatest(self) -> np.ndarray:
        """A bound on every plan within the rows: their greatest element if
        it meets them, else there is none.  Raises if a row bounds both its
        nodes from above."""
        fu, bu = self.l1 > 0.0, self.l0 > 0.0
        k = np.flatnonzero((fu & bu).any(axis=0))
        if k.size:
            raise NumericalError(f"segment {k[0]}'s input rows bound both its nodes from above")
        # Per segment, rows z_{k+1} <= fc + fd z_k (fu) and z_k <= bc + bd z_{k+1} (bu).
        safe = np.where(fu | bu, np.maximum(self.l0, self.l1), 1.0)
        fc, fd = np.where(fu, self.lb / safe, 0.0), np.where(fu, -self.l0 / safe, 0.0)
        bc, bd = np.where(bu, self.lb / safe, 0.0), np.where(bu, -self.l1 / safe, 0.0)
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

    def run(self):
        """Mehrotra's predictor-corrector; returns (z, gap, iterations).
        The centring target stays above a tenth of the stopping gap, so the
        last steps clear the residuals."""
        p, dx, (al, be, ga) = self.p, self.p.dx, self.ab
        n, nl = p.n_segments, self.lb.size
        g, r = p.eff.gen_factor, p.eff.regen_factor
        w = np.array([[g], [r]])
        gr2 = (g - r) * (g - r)   # inf, not OverflowError, for a huge g
        tight = 0.1 * GAP_TOL   # the rows' tolerance and the centring floor
        kin = np.zeros(n + 1)
        kin[0], kin[-1] = 0.5 * p.mass, -0.5 * p.mass

        def split(v):
            return v[:nl].reshape(self.lb.shape), v[nl:-1].reshape(2, n), v[-1]

        def rows(z, q):
            """Every row's slack, flat: the rows, the epigraphs q - w u, the budget."""
            u = al * z[:-1] + be * z[1:] + ga
            return np.concatenate([self.slack(z).ravel(), (q - w * u).ravel(),
                                   [p.T_f - self.time(z)]])

        # The start: mu of the scale per slack-dual pair, the epigraph duals
        # at dx / 2, the other duals at mu / s.
        z = np.full(n + 1, (p.x[-1] / p.T_f) ** 2)
        m = nl + 2 * n + 1
        mu = max(abs(evaluate_objective(p, z)[0]), _kinetic(p)) / m
        q = (w * (al * z[:-1] + be * z[1:] + ga)).max(0) + 2.0 * mu / dx
        s = np.maximum(rows(z, q), np.concatenate([self.lim.ravel(), np.zeros(2 * n), [p.T_f]]))
        lam = mu / s
        lam[nl:-1] = np.tile(0.5 * dx, 2)
        for it in range(100):
            if not all(np.isfinite(v).all() for v in (z, q, s, lam)):
                raise NumericalError("an interior-point iterate is not finite")
            a, b = np.sqrt(z[:-1]), np.sqrt(z[1:])
            S = a + b
            t0, t1, S3 = -dx / (a * S * S), -dx / (b * S * S), dx / S ** 3
            c = _nodes(t0, t1)
            slack = rows(z, q)
            rp = s - slack
            ll, le, y = split(lam)
            lw = (w * le).sum(0)
            # The Lagrangian's gradient in z, and the size of its terms.
            rd = kin + _nodes((self.l0 * ll).sum(0) + lw * al + y * t0,
                              (self.l1 * ll).sum(0) + lw * be + y * t1)
            terms = np.abs(kin) + _nodes((np.abs(self.l0) * ll).sum(0) + np.abs(lw * al) - y * t0,
                                         (np.abs(self.l1) * ll).sum(0) + np.abs(lw * be) - y * t1)
            comp, gap = float(s @ lam), float(lam @ slack)
            scale = max(abs(evaluate_objective(p, z)[0]), _kinetic(p))
            lin, _, spare = split(slack)
            if (gap <= GAP_TOL * scale and (np.abs(rd) <= GAP_TOL * terms).all()
                    and (lin >= -tight * self.lim).all() and spare >= -tight * p.T_f):
                return z, gap, it
            # Newton matrix in z: the rows' W l l^T, each epigraph pair with
            # q_k eliminated as one row in u of weight wq, the budget's y T'';
            # its gradient c adds the rank-1 wb c c^T.
            W = lam / s
            wl, we, wb = split(W)
            A = we.sum(0)
            wq = we[0] * we[1] * gr2 / A
            diag = _nodes((self.l0 ** 2 * wl).sum(0) + wq * al * al + y * (S3 - 0.5 * t0) / (a * a),
                          (self.l1 ** 2 * wl).sum(0) + wq * be * be + y * (S3 - 0.5 * t1) / (b * b))
            off = (self.l0 * self.l1 * wl).sum(0) + wq * al * be + y * S3 / (a * b)
            if not (np.isfinite(diag).all() and np.isfinite(off).all()):
                raise NumericalError("an interior-point Newton term is not finite")
            tri = _thomas(diag, off)
            x1 = tri(c)

            def solve(rhs):
                y1 = tri(rhs)
                return y1 - x1 * (c @ y1) / (1.0 / wb + c @ x1)

            def direction(rc):
                # Steps of (z, q, s, lam) for complementarities s lam + rc; one
                # refinement clears what rounding leaves of the dual residual.
                rho = (rc + lam * rp) / s
                rl, re, rb = split(rho)
                ke = (g - r) * (we[1] * re[0] - we[0] * re[1]) / A
                rhs = -rd - _nodes((self.l0 * rl).sum(0) + ke * al,
                                   (self.l1 * rl).sum(0) + ke * be) - rb * c
                dz = solve(rhs)
                Mdz = diag * dz + wb * c * (c @ dz)
                Mdz[:-1] += off * dz[1:]
                Mdz[1:] += off * dz[:-1]
                dz = dz + solve(rhs - Mdz)
                du = al * dz[:-1] + be * dz[1:]
                # dq - w du per epigraph row, free of cancellation between weights
                je = (re.sum(0) + (g - r) * du * np.array([-we[1], we[0]])) / A
                J = np.concatenate([-(self.l0 * dz[:-1] + self.l1 * dz[1:]).ravel(),
                                    je.ravel(), [-(c @ dz)]])
                return dz, je[0] + g * du, J - rp, rho - W * J

            T = p.T_f - spare

            def longest(dz, ds, dl):
                # 0.99 of the way to the nearest zero slack or dual, halved while
                # the budget's linearisation error, priced at its dual, exceeds
                # half the complementarity.
                step = 0.99 / max(0.99, float(np.max(-ds / s)), float(np.max(-dl / lam)))
                cdz = float(c @ dz)
                while ((lam[-1] + step * dl[-1]) * (self.time(z + step * dz) - T - step * cdz)
                       > 0.5 * float((s + step * ds) @ (lam + step * dl))):
                    step *= 0.5
                return step

            # The affine step predicts the centring sigma = (mu_aff / mu)^3;
            # the corrector adds its second-order term.
            dz, dq, ds, dl = direction(-s * lam)
            step = longest(dz, ds, dl)
            sig = ((s + step * ds) @ (lam + step * dl) / comp) ** 3
            target = max(sig * comp, tight * scale) / m
            dz, dq, ds, dl = direction(target - s * lam - ds * dl)
            step = longest(dz, ds, dl)
            z, q, s, lam = z + step * dz, q + step * dq, s + step * ds, lam + step * dl
        raise NumericalError("the interior-point method did not stop within 100 iterations")


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
    else the interior-point plan (exit "gap").  Raises :class:`NumericalError`
    if a row bounds both its nodes, if an iterate or a Newton term is not
    finite, or if the iterations run out.
    """
    prog = _Program(p)
    z = prog.greatest()
    if (prog.slack(z) <= -1e-9 * prog.lim).any():   # a row broken past rounding
        raise InfeasibleError(f"no plan keeps |u| strictly below u_lim={p.u_lim:g}")
    T = prog.time(z)
    if T > p.T_f * (1.0 + VIOL_TOL):
        raise InfeasibleError(f"no plan meets T_f={p.T_f:g} s: the fastest one takes {T!r} s")
    pinned = T >= p.T_f * (1.0 - PIN_TOL)
    # Overflow raises NumericalError at the loop's finiteness checks, not a RuntimeWarning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z, gap, n_it = (z, 0.0, 0) if pinned else prog.run()
    E, parts = evaluate_objective(p, z)
    h = parts["h"]
    caps = np.maximum(z[:-1], z[1:]) / p.v_lim ** 2
    viol = [h.sum() / p.T_f, np.abs(parts["a_r"]).max() / p.vdot_lim, caps.max()]
    if p.u_lim is not None:
        viol.append(np.abs(parts["u_r"]).max() / p.u_lim)
    return TOSolution(h=h, t=np.concatenate([[0.0], np.cumsum(h)]), x=p.x, v_r=parts["v_r"],
                      a_r=parts["a_r"], u_r=parts["u_r"], eta=parts["eta"], E=E,
                      feasible=bool(max(viol) <= 1.0 + VIOL_TOL), z=z, gap=gap,
                      gap_rel=gap / max(abs(E), _kinetic(p)), n_newton=n_it,
                      exit="time_pinned" if pinned else "gap")

