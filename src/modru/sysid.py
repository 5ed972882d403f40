"""Data-driven models of the longitudinal dynamics.

The central model is a six-parameter gray box

    dv/dt = th1*u + th2 + th3*v + th4*v^2 + th5*alpha + th6*alpha^2

fitted in output-error fashion: the model is simulated over the whole
record from the measured initial velocity and the simulated velocity is
matched to the measured one by damped Gauss-Newton steps.  The Jacobian
of the simulated output is the exact derivative of the discrete RK4 map,
carried along the record by the forward-sensitivity recurrence of the
predictor (Ljung, *System Identification*, 2nd ed. 1999, ch. 10).  A
boolean mask freezes structurally absent terms at zero.

Also provided: the two-coefficient drive-efficiency fit, with fixed
priors for the regimes the data do not excite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError
from .tables import read_csv, write_csv, write_keyvalues, read_keyvalues

N_THETA = 6


@dataclass(frozen=True)
class Dataset:
    """Uniformly sampled record of velocity, slope, input and power."""

    t: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    u: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        for name in ("t", "v", "alpha", "u", "P"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.t.size
        if n < 10:
            raise ValueError("dataset needs at least 10 samples")
        for name in ("v", "alpha", "u", "P"):
            if getattr(self, name).size != n:
                raise ValueError(f"column {name} length mismatch")
        dt = np.diff(self.t)
        h = dt[0]
        if not (h > 0 and np.abs(dt - h).max() <= 1e-9 * max(1.0, h)):
            raise ValueError("time grid must be uniform and increasing")

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "v", "alpha", "u", "P"],
                  [self.t, self.v, self.alpha, self.u, self.P])

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        _, cols, _ = read_csv(path)
        return cls(t=cols["t"], v=cols["v"], alpha=cols["alpha"], u=cols["u"], P=cols["P"])


@dataclass(frozen=True)
class GrayBoxModel:
    """Masked quadratic gray box of the longitudinal acceleration."""

    theta: np.ndarray
    mask: np.ndarray = field(default=None)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).copy()
        if theta.size != N_THETA:
            raise ValueError(f"theta must have {N_THETA} entries")
        mask = self.mask
        if mask is None:
            mask = np.ones(N_THETA, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.size != N_THETA:
            raise ValueError("mask length mismatch")
        if not mask[0]:
            raise ValueError("input coefficient th1 must stay active")
        theta[~mask] = 0.0
        if theta[0] == 0.0:
            raise ValueError("input coefficient th1 must be nonzero")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "mask", mask)


def _input_term(theta, u, alpha):
    """Per-sample constant c = th1*u + th2 + th5*alpha + th6*alpha^2 of the
    gray box's rhs, for float arrays ``u`` and ``alpha`` (inf or nan where
    it overflows)."""
    t1, t2, _, _, t5, t6 = (float(t) for t in theta)
    with np.errstate(over="ignore", invalid="ignore"):
        return t1 * u + t2 + t5 * alpha + t6 * alpha * alpha


def _simulate_theta(theta, v0, u, alpha, h):
    """Integrate the gray box ``theta`` from ``v0`` under zero-order-hold
    float arrays ``u`` and ``alpha``, one RK4 step per sample interval.

    Returns the velocity sequence (same length as ``u``), or None once a
    step's velocity exceeds 1e5 in magnitude or is not finite.
    """
    # The input term c is one NumPy expression over the record; the
    # velocity-dependent RK4 stages run on Python floats, because np.float64
    # scalar arithmetic costs several times more per operation and the fit
    # runs this loop for every trial step.  Bit equality with the
    # numpy-scalar loop: float64 ufuncs and Python floats round each
    # operation alike, separate ufunc calls are not fused, every expression
    # keeps the rhs's order ((t4 * x) * x included), and 0.5 * h and h / 6.0
    # were already the left operands of their products.  The chained divergence
    # test fails NaN and +-inf too.
    t3, t4 = float(theta[2]), float(theta[3])
    h, v = float(h), float(v0)
    hh, h6 = 0.5 * h, h / 6.0
    out = [v]
    for c in _input_term(theta, u[:-1], alpha[:-1]).tolist():
        k1 = c + t3 * v + t4 * v * v
        x = v + hh * k1
        k2 = c + t3 * x + t4 * x * x
        x = v + hh * k2
        k3 = c + t3 * x + t4 * x * x
        x = v + h * k3
        k4 = c + t3 * x + t4 * x * x
        v = v + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not -1e5 <= v <= 1e5:
            return None
        out.append(v)
    return np.array(out[:len(u)])


def _output_jacobian(theta, act, sim, u, alpha, h):
    """Exact Jacobian of ``_simulate_theta``'s output over the columns ``act``.

    th1, th2, th5 and th6 enter the step map Phi only through the per-step
    constant c, so each step needs four partials of Phi, taken by the chain
    rule through k1..k4 with f'(x) = th3 + 2 th4 x over the simulated
    trajectory ``sim``.  Column j then follows the forward-sensitivity
    recurrence s_k+1 = (dPhi/dv)_k s_k + b_j,k from s_0 = 0, where b_j,k
    is dPhi/dth_j at step k.  Raises :class:`EstimationError` on a
    non-finite entry.
    """
    t3, t4 = float(theta[2]), float(theta[3])
    v, u, a = sim[:-1], u[:-1], alpha[:-1]
    hh = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        c = _input_term(theta, u, a)
        k1 = c + t3 * v + t4 * v * v
        x2 = v + hh * k1
        k2 = c + t3 * x2 + t4 * x2 * x2
        x3 = v + hh * k2
        k3 = c + t3 * x3 + t4 * x3 * x3
        x4 = v + h * k3
        g1, g2, g3, g4 = (t3 + 2.0 * t4 * x for x in (v, x2, x3, x4))

        def tangent(z, d1, d2, d3, d4):
            # dPhi for dv = z and direct partials d_i of f at the stages x_i.
            e1 = d1 + g1 * z
            e2 = d2 + g2 * (z + hh * e1)
            e3 = d3 + g3 * (z + hh * e2)
            e4 = d4 + g4 * (z + h * e3)
            return z + h / 6.0 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)

        dv = tangent(1.0, 0.0, 0.0, 0.0, 0.0)
        dc = tangent(0.0, 1.0, 1.0, 1.0, 1.0)
        b = (dc * u, dc, tangent(0.0, v, x2, x3, x4),
             tangent(0.0, v * v, x2 * x2, x3 * x3, x4 * x4), dc * a, dc * a * a)
    A = dv.tolist()
    J = np.empty((sim.size, len(act)))
    for j, idx in enumerate(act):
        s = 0.0
        col = [s]
        for a_k, b_k in zip(A, b[idx].tolist()):
            s = a_k * s + b_k
            col.append(s)
        J[:, j] = col
    if not np.isfinite(J).all():
        raise EstimationError("gray-box simulation diverged during fit")
    return J


@dataclass(frozen=True)
class EfficiencyParams:
    """Drive efficiency coefficients: P = eta(u) * u * v.

    ``gen_factor`` applies while generating traction (u >= 0),
    ``regen_factor`` while recuperating (u < 0); the step weight itself is
    :func:`modru.plant.step_efficiency`.  ``gen_status`` and
    ``regen_status`` say how :func:`fit_efficiency` obtained each factor,
    "fitted", "default" or "clipped"; factors given directly are
    "default".  They take no part in equality; ``report.txt`` writes them
    and ``theta.txt`` does not.
    """

    gen_factor: float = 1.1
    regen_factor: float = 0.9
    gen_status: str = field(default="default", compare=False)
    regen_status: str = field(default="default", compare=False)

    def __post_init__(self):
        if not (math.inf > self.gen_factor >= 1.0 >= self.regen_factor > 0.0):
            raise ValueError("need a finite gen_factor >= 1 >= regen_factor > 0")


@dataclass
class GrayBoxFit:
    """Diagnostics from :func:`fit_graybox`.

    ``rms`` is the RMS output error of the returned model and ``nrmse`` the
    same error normalized as :func:`validate` does, computed from the
    fit's own last simulation; it equals ``validate(model, data)``.
    """

    converged: bool
    n_iter: int
    rms: float
    nrmse: float


def _least_squares(X: np.ndarray, y: np.ndarray, what: str) -> np.ndarray:
    """Least-squares solution b of X b = y for X of full column rank.

    Corrected semi-normal equations (Bjorck, *Numerical Methods for Least
    Squares Problems*, SIAM 1996, sections 2.5 and 6.6): the normal
    equations are equilibrated to unit diagonal, Gs = S X'X S with S =
    diag(X'X)^(-1/2), solved through the Cholesky factor L of Gs, and the
    solution is refined by one step on the residual y - X b.  Raises
    :class:`EstimationError` "<what> is rank deficient" when a column of X
    is zero, the factorization breaks down, or the lower bound
    1 / (p |L^-1|_F^2) on the reciprocal condition number of Gs (trace(Gs)
    = p bounds its largest eigenvalue) is at most n p eps for X of shape
    (n, p): forming Gs rounds by up to that much, which can leave the Gram
    matrix of a rank-deficient X positive definite.  Raises "<what>
    overflows" when X'X does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = X.T @ X
    if not np.isfinite(G).all():
        raise EstimationError(f"{what} overflows")
    g = np.diag(G)
    Li = None
    if (g > 0.0).all():
        s = 1.0 / np.sqrt(g)
        try:
            Li = np.linalg.inv(np.linalg.cholesky(G * s * s[:, None]))
        except np.linalg.LinAlgError:
            pass
    if Li is None or not X.size * g.size * float(np.sum(Li * Li)) * np.finfo(float).eps < 1.0:
        raise EstimationError(f"{what} is rank deficient")
    # G^-1 = S Gs^-1 S with Gs^-1 = L^-T L^-1.
    G_inv = (Li.T @ Li) * s * s[:, None]
    b = G_inv @ (X.T @ y)
    b += G_inv @ (X.T @ (y - X @ b))
    return b


def equation_error_init(data: Dataset, mask: np.ndarray) -> np.ndarray:
    """Linear-regression warm start: fit finite-difference accelerations."""
    h = data.h
    u = data.u[:-1]
    a = data.alpha[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        dv = np.diff(data.v) / h
        v = 0.5 * (data.v[:-1] + data.v[1:])
        cols = [u, np.ones_like(u), v, v * v, a, a * a]
    mask = np.asarray(mask, dtype=bool)
    phi = np.stack([c for c, m in zip(cols, mask) if m], axis=1)
    if not (np.isfinite(phi).all() and np.isfinite(dv).all()):
        raise EstimationError("gray-box warm-start regressors overflow")
    theta = np.zeros(N_THETA)
    theta[mask] = _least_squares(phi, dv, "gray-box warm-start regression")
    return theta


def fit_graybox(data: Dataset, mask: np.ndarray | None = None
                ) -> tuple[GrayBoxModel, GrayBoxFit]:
    """Output-error gray-box fit by damped Gauss-Newton.

    Minimizes the squared output error between the measured velocities and
    a full-record simulation of the model, started from the equation-error
    warm start.  The Jacobian of the simulated output with respect to the
    active parameters is exact for the discrete RK4 map: the forward
    sensitivities of the predictor (Ljung, *System Identification*, 2nd ed.
    1999, ch. 10) follow one linear recurrence per column over the
    trajectory already simulated.  Each step delta solves the linearized
    problem min |J delta - (v_meas - sim)| by corrected semi-normal
    equations (:func:`_least_squares`, as the warm start does), so a
    rank-deficient Jacobian raises :class:`EstimationError`.  Steps are
    halved until the cost decreases, except that a step predicted to lower
    the cost by less than 1e-10 of it, |J delta|^2 < 1e-10 cost, is tried
    at full length only.  Convergence: no step lowers the cost, relative
    cost decrease below 1e-10 or parameter change below 1e-8; after 200
    iterations the best iterate is returned with ``converged=False``.  The
    returned fit's ``nrmse`` is the :func:`validate` error of the model,
    taken from the simulation the fit already holds.
    """
    max_iter, cost_tol, step_tol = 200, 1e-10, 1e-8
    mask = np.ones(N_THETA, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if not mask[0]:
        raise ValueError("input coefficient th1 must stay active")
    theta = equation_error_init(data, mask)
    act = np.flatnonzero(mask)
    h = data.h
    v_meas = data.v

    def cost_of(th):
        sim = _simulate_theta(th, v_meas[0], data.u, data.alpha, h)
        if sim is None:
            return math.inf, None
        r = sim - v_meas
        return float(r @ r), sim

    cost, sim = cost_of(theta)
    if not math.isfinite(cost):
        # Equation-error warm starts can flip a drag coefficient positive on
        # narrow-range data, which is unstable in full simulation.  Drag
        # terms oppose motion, so clamp them nonpositive and retry once.
        theta[2] = min(theta[2], 0.0)
        theta[3] = min(theta[3], 0.0)
        cost, sim = cost_of(theta)
    if not math.isfinite(cost):
        raise EstimationError("initial gray-box parameters diverge on the data")
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        J = _output_jacobian(theta, act, sim, data.u, data.alpha, h)
        delta = _least_squares(J, v_meas - sim, "gray-box output Jacobian")
        # The full step is predicted to lower the cost by |J delta|^2.  One
        # predicted to gain less than cost_tol of the cost is tried at full
        # length only: its halvings would compare costs at rounding level.
        Jd = J @ delta
        lam, lam_min = 1.0, 1.0 if Jd @ Jd < cost_tol * cost else 1e-8
        improved = False
        while lam >= lam_min:
            trial = theta.copy()
            trial[act] += lam * delta
            c_trial, s_trial = cost_of(trial)
            if c_trial < cost:
                improved = True
                break
            lam *= 0.5
        if not improved:
            converged = True
            break
        rel_step = np.max(np.abs(lam * delta) / np.maximum(np.abs(theta[act]), 1e-12))
        rel_drop = (cost - c_trial) / max(cost, 1e-300)
        theta, cost, sim = trial, c_trial, s_trial
        if rel_drop < cost_tol or rel_step < step_tol:
            converged = True
            break
    model = GrayBoxModel(theta=theta, mask=mask)
    rms = math.sqrt(cost / v_meas.size)
    return model, GrayBoxFit(converged=converged, n_iter=it, rms=rms,
                             nrmse=_nrmse(sim, v_meas))


def fit_efficiency(P: np.ndarray, u: np.ndarray, v: np.ndarray) -> EfficiencyParams:
    """Fit the drive/regen efficiency factors from power samples.

    Regresses P against u*v separately on the u >= 0 and u < 0 regimes.
    A missing or unexcited regime falls back to the prior of
    :class:`EfficiencyParams` (1.1 and 0.9); estimates outside the
    admissible range gen >= 1 >= regen > 0 are clipped to the bound, except
    that a regeneration estimate <= 0 falls back to its prior.  The result
    records per factor whether it was fitted, defaulted or clipped.  Raises
    :class:`EstimationError` when an estimate is not finite.
    """
    P = np.asarray(P, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    x = u * v
    prior = EfficiencyParams()
    out = []
    for name, sel, default in (("generation", u >= 0.0, prior.gen_factor),
                               ("regeneration", u < 0.0, prior.regen_factor)):
        xx = float(x[sel] @ x[sel])
        if sel.sum() == 0 or xx < 1e-12:
            out.append((default, "default"))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                est = float(x[sel] @ P[sel] / xx)
            if not math.isfinite(est):
                raise EstimationError(f"{name} factor estimate {est} is not finite")
            out.append((est, "fitted"))
    (gen, gen_status), (regen, regen_status) = out
    if gen < 1.0:
        gen, gen_status = 1.0, "clipped"
    if regen > 1.0:
        regen, regen_status = 1.0, "clipped"
    if regen <= 0.0:
        regen, regen_status = prior.regen_factor, "default"
    return EfficiencyParams(gen_factor=gen, regen_factor=regen,
                            gen_status=gen_status, regen_status=regen_status)


def _nrmse(sim, v) -> float:
    """RMS of ``sim - v`` over the RMS deviation of ``v`` from its mean (at
    least 1e-12); ``inf`` when ``sim`` is None."""
    if sim is None:
        return math.inf
    denom = max(float(np.sqrt(np.mean((v - v.mean()) ** 2))), 1e-12)
    return float(np.sqrt(np.mean((sim - v) ** 2)) / denom)


def validate(model: GrayBoxModel, data: Dataset) -> float:
    """Normalized RMS error of a full-record model simulation.

    The simulated velocity (from the measured initial state under the
    recorded inputs) is compared with the measurement; the RMS error is
    normalized by the RMS deviation of the measurement from its mean.
    Returns ``inf`` when the simulation diverges.  For a model and fit
    from :func:`fit_graybox` on ``data`` it equals ``fit.nrmse``.
    """
    return _nrmse(_simulate_theta(model.theta, data.v[0], data.u, data.alpha, data.h),
                  data.v)


def save_theta(path, model: GrayBoxModel, eff: EfficiencyParams) -> None:
    """Write the fitted parameters as a flat key-value text file."""
    items = {f"theta{i + 1}": model.theta[i] for i in range(N_THETA)}
    items["mask"] = ",".join("1" if m else "0" for m in model.mask)
    items["theta7"] = eff.gen_factor
    items["theta8"] = eff.regen_factor
    write_keyvalues(path, items)


def load_theta(path) -> tuple[GrayBoxModel, EfficiencyParams]:
    """Read parameters written by :func:`save_theta`; a ``scale`` key that
    older files carry is ignored."""
    kv = read_keyvalues(path)
    theta = np.array([float(kv[f"theta{i + 1}"]) for i in range(N_THETA)])
    mask = np.array([c.strip() == "1" for c in kv["mask"].split(",")])
    eff = EfficiencyParams(gen_factor=float(kv["theta7"]),
                           regen_factor=float(kv["theta8"]))
    return GrayBoxModel(theta=theta, mask=mask), eff
