"""Discrete-time LQ design, data-driven policy iteration, and a
robustness benchmark comparing model-based and model-free tuning.

A tuning route (:data:`ROUTES`) maps an input weight to a gain and how
its design ended.  The model-free route estimates the quadratic
Q-function of the current policy by least squares on one-step transition
data and improves the policy from its blocks, from a :class:`_CachedStart`
that regresses the batch under the start gain once for every weight.
The model-based route fits a state-space model to the same kind of data
(:func:`estimate_ss`) and solves the Riccati equation on it.  One search
(:func:`_search`) scores either route on the true plant through the
sensitivity peaks M_S, M_T and the step-response rise time.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, NumericalError, PolicyIterationError

# Robustness constraints used by the benchmark sweep.
MS_MAX = 1.7
MT_MAX = 1.3
# Bracket width in log10 Q_u at which the sweep's boundary search stops.
BOUNDARY_TOL = 1e-12
# Steps per block in the closed-loop evaluation of _block_states.
_ROLLOUT_BLOCK = 20


def seeded_random(seed) -> random.Random:
    """``random.Random(seed)``, which draws the servo sweep's and the vehicle
    excitation's noise; a negative seed, which it would alias with |seed|,
    raises ``ValueError`` and a non-integer one ``TypeError``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def _state_input(A, B) -> tuple[np.ndarray, np.ndarray]:
    """States (matrix or samples) as a 2-D float array, inputs with one column each."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    return A, B


def _quadratic_form(x: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise x_k' Q x_k for a batch of rows x (N, n).

    The sum starts from zeros and adds (x[:, i] Q_ij) x[:, j] over (i, j)
    in row-major order: the sum and rounding of ``einsum("ki,ij,kj->k")``
    on a C-ordered batch of N >= 3 samples, bit for bit.  The stage cost
    x' Q_x x + u' Q_u u adds its input part to its state part last, as the
    sum of the two einsums does.  Every operand is a column, so a
    feature-major (transposed) batch works on contiguous rows and gives
    the same values.  Zero weights are skipped: for finite x their terms
    are zeros, and adding a zero never changes a sum that starts from +0.
    """
    out = np.zeros(x.shape[0])
    term = np.empty_like(out)
    for i, j in np.ndindex(Q.shape):
        if Q[i, j] == 0.0:
            continue
        np.multiply(x[:, i], Q[i, j], out=term)
        term *= x[:, j]
        out += term
    return out


# Row-major upper-triangle maps of the Q-function parameters; built once per d, only read.
_triu_maps = functools.cache(np.triu_indices)


def _greedy_gain(theta: np.ndarray, n: int, m: int) -> np.ndarray:
    """Greedy policy gain K = S_uu^{-1} S_xu' (u = -K x) of the quadratic
    Q-function Q(x,u) = [x;u]' [[S_xx,S_xu],[S_xu',S_uu]] [x;u] whose upper
    triangle, row-major, is the regression's parameter vector ``theta``."""
    d = n + m
    if theta.size != d * (d + 1) // 2:
        raise ValueError("parameter vector length mismatch")
    S = np.zeros((d, d))
    I, J = _triu_maps(d)
    S[I, J] = theta
    S[J, I] = theta
    w = np.linalg.eigvalsh(S[n:, n:])
    if w.min() <= 1e-12 * max(1.0, abs(w).max()):
        raise PolicyIterationError("S_uu block is not positive definite")
    return np.linalg.solve(S[n:, n:], S[:n, n:].T)


@dataclass
class RobustnessRow:
    """One result row of the robustness sweep."""

    tau: float
    method: str
    t_r: float
    M_S: float
    M_T: float
    Q_u: float
    feasible: bool = True
    # (Q_u, t_r, feasible, outcome, iterations) evaluations recorded during
    # the walk-down and the boundary search, in evaluation order.  outcome
    # and iterations are the route's own account of how the design ended:
    # its policy iteration's "converged", "max_iters" or "raised" after that
    # many iterations, or None and 0 on the model-based route.
    trace: list = field(default_factory=list, repr=False)


def _exp_divided_difference(x: list[float]) -> float:
    """exp[x_0, ..., x_k] over ascending nodes: e^x / k! for equal nodes, the
    recurrence (exp[x_1..x_k] - exp[x_0..x_k-1]) / (x_k - x_0) for nodes
    spanning more than 1, and else, where that recurrence would cancel,
    the Taylor series e^c sum_j h_j(x - c) / (k + j)! about the midpoint c,
    h_j the complete homogeneous symmetric polynomials.  Its 25 terms leave
    a remainder below 0.5^25 / 25! ~ 2e-33 of e^c / k!."""
    k = len(x) - 1
    lo, hi = x[0], x[-1]
    if lo == hi:
        return math.exp(lo) / math.factorial(k)
    if hi - lo > 1.0:
        return (_exp_divided_difference(x[1:])
                - _exp_divided_difference(x[:-1])) / (hi - lo)
    c = 0.5 * (lo + hi)
    # h[j] = h_j(y_0..y_i), y_i = x_i - c, as the nodes are added one by one.
    h = [1.0] + [0.0] * 24
    for xi in x:
        for j in range(1, 25):
            h[j] += (xi - c) * h[j - 1]
    return math.exp(c) * sum(h[j] / math.factorial(k + j) for j in range(24, -1, -1))


def c2d_zoh(A: np.ndarray, B: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization of a cascade of first-order blocks.

    Ad and Bd are the blocks of E = exp(M), M = [[A h, B h], [0, 0]].  A
    must be upper bidiagonal and the one input must enter the last state,
    as in every servo plant and gain-schedule node.  M is then upper
    bidiagonal with diagonal d = (diag(A) h, 0) and superdiagonal
    s = (diag(A, 1) h, b h), so E[i, j] = s_i ... s_j-1 exp[d_i, ..., d_j]
    for j >= i (Opitz 1964; McCurdy, Ng & Parlett, Math. Comp. 43, 1984).
    Raises ``ValueError`` for h <= 0 or a system outside that contract and
    :class:`NumericalError` when E has a non-finite entry.
    """
    A, B = _state_input(A, B)
    if h <= 0:
        raise ValueError("sample time must be positive")
    n = A.shape[0]
    if (A.shape != (n, n) or B.shape != (n, 1) or np.any(np.triu(A, 2))
            or np.any(np.tril(A, -1)) or np.any(B[:-1])):
        raise ValueError("need an upper bidiagonal A and one input into the last state")
    d = (np.diag(A) * h).tolist() + [0.0]
    s = (np.diag(A, 1) * h).tolist() + [float(B[-1, 0] * h)]
    E = np.zeros((n, n + 1))
    try:
        for i in range(n):
            for j in range(i, n + 1):
                E[i, j] = math.prod(s[i:j]) * _exp_divided_difference(sorted(d[i:j + 1]))
    except OverflowError:
        E[0, 0] = math.inf
    if not np.all(np.isfinite(E)):
        raise NumericalError(f"zero-order-hold discretization with h={h:g} is not "
                             "finite (a mode is too fast for this sample time)")
    return E[:, :n], E[:, n:]


def _stein_matrix(F: np.ndarray) -> np.ndarray:
    """I - kron(F', F') of F, or of every matrix in a stack F of shape (k,
    n, n): the Stein equation X = F'XF + M reads (I - kron(F', F')) vec(X)
    = vec(M), the outer product below being kron(F', F')."""
    n, Ft = F.shape[-1], F.mT
    kron = (Ft[..., :, None, :, None] * Ft[..., None, :, None, :]).reshape(
        *F.shape[:-2], n * n, n * n)
    return np.eye(n * n) - kron


def schur_stable(F: np.ndarray) -> bool:
    """Whether every eigenvalue of F, or of every matrix in a stack F of
    shape (k, n, n), lies strictly inside the unit circle.

    F is Schur stable iff the Stein equation X = F'XF + I has a positive
    definite solution (Kailath, *Linear Systems*, 1980).  X is solved for
    in Kronecker form and its symmetric part Cholesky-factored; a singular
    Kronecker matrix (eigenvalues with lambda_i lambda_j = 1), a failed
    factorization or a non-finite X means "not stable".  The verdict is as
    good as that solve: for a strongly non-normal F near the unit circle,
    whose X is too large for working precision, it can be wrong either way.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            X = np.linalg.solve(_stein_matrix(F), np.eye(n).reshape(n * n, 1))
            X = X.reshape(F.shape)
            np.linalg.cholesky(X + X.mT)
        except np.linalg.LinAlgError:
            return False
    return bool(np.isfinite(X).all())


def dare_solve(A: np.ndarray, B: np.ndarray, Q_x: np.ndarray,
               Q_u) -> tuple[np.ndarray, np.ndarray]:
    """Solve the discrete algebraic Riccati equation by the doubling algorithm.

    The structure-preserving doubling algorithm (Chu, Fan & Lin, Linear
    Algebra Appl. 396, 2005) starts from A_0 = A, G_0 = B Q_u^{-1} B',
    H_0 = Q_x and iterates, with W = I + G H,

        A <- A W^{-1} A,  G <- G + A W^{-1} G A',  H <- H + A' H W^{-1} A,

    so that H_k equals the iterate P_{2^k} of the fixed point
    P <- Q_x + A'PA - A'PB (Q_u + B'PB)^{-1} B'PA started from P_0 = 0;
    the convergence is quadratic.  Stops when the relative change of H drops
    below 1e-12, then refines H by one Newton (Hewer) step: the Stein
    equation of the doubling's gain, solved in Kronecker form.  Returns the
    gain K = (Q_u + B'PB)^{-1} B'PA and the stabilizing solution P.
    Raises :class:`NumericalError` when the iteration diverges or does not
    converge in 64 doublings (2^64 fixed-point steps), or when the closed
    loop A - BK of the doubling's gain or of the refined one is not
    certified asymptotically stable by :func:`schur_stable`'s Stein test.

    A may also be a stack of k systems, A (k, n, n) and B (k, n, m), that
    share Q_x and Q_u; K and P then carry the same leading axis.  Every
    system runs the steps of its own single call, stops at its own test
    and leaves the doubling there, so each result equals that call's bit
    for bit.  The stack raises when any of its systems fails, and
    ``ValueError`` when A and B are not both stacks of one size.
    """
    A, B = _state_input(A, B)
    if A.ndim > 3 or B.ndim != A.ndim or B.shape[:-2] != A.shape[:-2]:
        raise ValueError(f"need stacks of one size, got A {A.shape} and B {B.shape}")
    Q_x = np.atleast_2d(np.asarray(Q_x, dtype=float))
    Q_u = np.atleast_2d(np.asarray(Q_u, dtype=float))
    n, k = A.shape[-1], len(A) if A.ndim == 3 else 1
    eye, Ak = np.eye(n), A
    G = B @ np.linalg.solve(Q_u, B.mT)
    G = 0.5 * (G + G.mT)
    H = Q_x * np.ones(A.shape)  # Q_x for every system
    # Converged systems of a stack leave the doubling: H_out keeps their H,
    # live the rest.  One system leaves all at once, so 2-D arrays never do.
    H_out, live = np.empty_like(H), np.arange(k)
    # A system with an uncontrollable unstable mode makes A_k and H_k grow
    # doubly exponentially; report that as divergence, not as overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            try:
                Wi = np.linalg.solve(eye + G @ H, np.concatenate([Ak, G], axis=-1))
            except np.linalg.LinAlgError:
                raise NumericalError("Riccati iteration diverged") from None
            WiA, WiG = Wi[..., :n], Wi[..., n:]
            H_next = H + Ak.mT @ H @ WiA
            H_next = 0.5 * (H_next + H_next.mT)
            G = G + Ak @ WiG @ Ak.mT
            G = 0.5 * (G + G.mT)
            Ak = Ak @ WiA
            delta = np.abs(H_next - H).max(axis=(-2, -1))
            H = H_next
            H_max = np.abs(H).max(axis=(-2, -1))
            # The tests run on Python floats, cheaper than NumPy scalars.
            done = []
            for d, h_max in zip(delta.reshape(-1).tolist(), H_max.reshape(-1).tolist()):
                if not math.isfinite(d) or h_max > 1e18:
                    raise NumericalError("Riccati iteration diverged")
                done.append(d <= 1e-12 * max(1.0, h_max))
            if all(done):
                break
            if any(done):
                done = np.array(done)
                H_out[live[done]] = H[done]
                live, Ak, G, H = live[~done], Ak[~done], G[~done], H[~done]
        else:
            raise NumericalError("Riccati iteration did not converge")
    if live.size < k:
        H_out[live] = H
        H = H_out
    K = np.linalg.solve(Q_u + B.mT @ H @ B, B.mT @ H @ A)
    F = A - B @ K
    if not schur_stable(F):
        raise NumericalError("Riccati gain does not stabilize the model")
    # With cheap control G is large and W ill-conditioned, and the doubling
    # can lose half its digits (gains off by 1e-6 at Q_u = 1e-6).  One
    # Newton (Hewer) step restores them: solve the Stein equation
    # P = F'PF + Q_x + K'Q_u K of that gain in Kronecker form.
    M = Q_x + K.mT @ Q_u @ K
    P = np.linalg.solve(_stein_matrix(F), M.reshape(*A.shape[:-2], n * n, 1)).reshape(A.shape)
    P = 0.5 * (P + P.mT)
    K = np.linalg.solve(Q_u + B.mT @ P @ B, B.mT @ P @ A)
    if not schur_stable(A - B @ K):
        raise NumericalError("Riccati gain does not stabilize the model")
    return K, P


class _CachedStart:
    """The start of model-free policy iteration from the gain K0 on one
    rollout source, for every cost x' Q_x x + q u'u.

    The source must be a pure function of the gain (as
    :func:`linear_rollouts` is), so every call from K0 would collect the
    same batch.  The batch is collected once, and its least-squares
    solution, linear in the stage cost, is split into theta_x (cost
    x' Q_x x) and theta_u (unit input weight, cost u'u): the first step of
    the cost with weight q is theta_x + q theta_u.  Every batch of the
    source has the N rows of this one, so the feature-major buffers of
    every :func:`lqrl_policy_iteration` call from this start are sized
    from it once: Z and Zn hold the samples [x; u] and [x+; -K x+] as rows
    (d x N, d = n + m), psi the p regressor rows and row a scratch row.
    A failure of the batch (a diverging rollout or singular normal
    equations) is kept and raised by every such call.
    """

    def __init__(self, rollout_source, K0: np.ndarray, Q_x: np.ndarray):
        self.source = rollout_source
        self.K0 = np.atleast_2d(np.asarray(K0, dtype=float))
        self.Q_x = np.atleast_2d(np.asarray(Q_x, dtype=float))
        m, n = self.K0.shape
        self.I, self.J = _triu_maps(n + m)
        self.error = None
        try:
            X, U, Xn = rollout_source(self.K0)
            self.Z, self.Zn = np.empty((n + m, len(X))), np.empty((n + m, len(X)))
            self.psi, self.row = np.empty((self.I.size, len(X))), np.empty(len(X))
            self.load(X, U, Xn, self.K0)
            self.factorize()
        except NumericalError as exc:
            self.error = exc
            return
        Z = self.Z
        self.theta_x = self.solve(_quadratic_form(Z[:n].T, self.Q_x))
        self.theta_u = self.solve(_quadratic_form(Z[n:].T, np.eye(m)))

    def load(self, X, U, Xn, K):
        """Copy in one batch of transitions collected under the gain K.

        Raises :class:`PolicyIterationError` when a state is not finite.
        """
        n, Z, Zn = X.shape[1], self.Z, self.Zn
        Z[:n], Z[n:], Zn[:n] = X.T, U.T, Xn.T
        if not (np.isfinite(Z[:n]).all() and np.isfinite(Zn[:n]).all()):
            raise PolicyIterationError("rollout data diverged")
        # The product in the feature-major layout, K Xn', may round
        # differently, so -(Xn K') is formed sample-major and copied in.
        Zn[n:] = -(Xn @ K.T).T

    def factorize(self):
        """Form the regressor rows psi of the loaded batch and the inverse
        G^-1 of its p x p normal equations, G = psi psi'.

        G is equilibrated to unit diagonal, Gs = S G S with S =
        diag(G)^(-1/2), and inverted through its Cholesky factor; each
        :meth:`solve` adds one refinement step (corrected semi-normal
        equations: Bjorck, Numerical Methods for Least Squares Problems,
        SIAM 1996, sections 2.5 and 6.6).  Raises :class:`EstimationError`
        when a regressor is zero on every sample, or when Gs is singular to
        working precision: its reciprocal condition number is at most eps,
        or its Cholesky factorization breaks down.  While eps cond(Gs) is
        well below 1 the refined solution is about as accurate as a QR
        least-squares one.
        """
        Z, Zn, psi, row = self.Z, self.Zn, self.psi, self.row
        # psi_k = z_i z_j - zn_i zn_j, doubled for i < j: quadratic features
        # z_i^2 and 2 z_i z_j of z = [x; u] minus those at the next state
        # under the policy.  Doubling is exact for normal-range values, so
        # 2 (z_i z_j - zn_i zn_j) rounds as (2 z_i) z_j - (2 zn_i) zn_j;
        # a row takes three passes over the samples, four off the diagonal.
        for k, (i, j) in enumerate(zip(self.I, self.J)):
            np.multiply(Z[i], Z[j], out=psi[k])
            np.multiply(Zn[i], Zn[j], out=row)
            psi[k] -= row
            if i != j:
                psi[k] *= 2.0
        G = psi @ psi.T
        g = np.diag(G)
        if not (g > 0.0).all():
            raise EstimationError("a Q-function regressor is zero on every sample: "
                                  "more excitation required")
        s = 1.0 / np.sqrt(g)
        Gs = G * s * s[:, None]
        w = np.linalg.eigvalsh(Gs)
        try:
            L = np.linalg.cholesky(Gs)
        except np.linalg.LinAlgError:
            L = None
        if L is None or not w[0] > w[-1] * np.finfo(float).eps:
            raise EstimationError(
                f"Q-function regression is numerically singular (reciprocal "
                f"condition {w[0] / w[-1]:.3g}): more excitation required")
        # G^-1 = S Gs^-1 S with Gs^-1 = L^-T L^-1.
        Li = np.linalg.inv(L)
        self.G_inv = (Li.T @ Li) * s * s[:, None]

    def solve(self, rho: np.ndarray) -> np.ndarray:
        """Refined solution of psi' theta = rho on the factorized batch."""
        psi, G_inv = self.psi, self.G_inv
        theta = G_inv @ (psi @ rho)
        theta += G_inv @ (psi @ (rho - theta @ psi))
        return theta


def lqrl_policy_iteration(start: _CachedStart, q_u: float,
                          max_iters: int = 50) -> tuple[np.ndarray, str, int]:
    """Model-free LQ policy iteration on one-step transition data from
    ``start`` for the cost x' Q_x x + q_u u'u, Q_x the start's.

    ``start.source(K)`` must return float arrays X (N, n), U (N, m) and
    X_next (N, n), row k of X_next the successor of row k of X under input
    row k of U, collected under the behavior u = -K x + exploration noise;
    data are re-collected with the current policy each iteration.  Each
    iteration solves the system

        stage(x_k, u_k) = phi(x_k, u_k)'theta - phi(x_k+1, -K x_k+1)'theta

    for the quadratic Q-function by ordinary least squares on the
    differences phi(z) - phi(z'), which minimises the Bellman residual
    (Baird, ICML 1995), and improves K from its blocks (LQ policy
    iteration under persistent excitation: Bradtke, Ydstie & Barto, ACC
    1994).  Where z' is a function of z (every state observed, as at
    tau = 0 in the servo sweep) the residual vanishes at the policy's
    Q-function and the estimate equals LSTD-Q's; where a hidden lag makes
    z' random given z, it is biased by the double-sampling problem
    (Sutton & Barto, Reinforcement Learning, 2018, section 11.5).  The
    first step is the start's theta_x + q_u theta_u, so nothing is
    collected under K0.  Every later step is regressed feature-major in
    the start's buffers (:meth:`_CachedStart.factorize`): each of the
    p = d(d+1)/2 regressor rows (d = n + m) is formed over all N samples
    at once, in the same elementwise operations and order as a
    sample-major N x p feature matrix, and the stage cost
    (:func:`_quadratic_form`) is solved from the p x p normal equations
    with one refinement step (:meth:`_CachedStart.solve`).
    Raises :class:`EstimationError` when those equations are numerically
    singular (too little excitation), and the start's own failure, if it
    has one.  An improvement step whose behavior policy makes the
    collected rollout diverge is damped by halving back toward the last
    workable policy (exact-data runs never trigger this, so the Hewer
    fixed point is unchanged).  Stops when the gain change drops below
    1e-6 (max-abs) or after ``max_iters`` iterations.  A converged gain is
    returned without collecting data under it, so it is returned even
    where that rollout would have diverged.  Returns (K, "converged", i)
    or (K, "max_iters", i) after i iterations; a raised
    :class:`NumericalError` carries ``ended = ("raised", i)``, i the
    iteration that raised (0 for the start's failure).
    """
    tol = 1e-6
    K = start.K0
    m, n = K.shape
    Q_u = q_u * np.eye(m)
    i = 0
    try:
        if start.error is not None:
            raise start.error.with_traceback(None)
        theta = start.theta_x + q_u * start.theta_u
        for i in range(1, max_iters + 1):
            if i > 1:
                start.factorize()
                theta = start.solve(_quadratic_form(start.Z[:n].T, start.Q_x)
                                    + _quadratic_form(start.Z[n:].T, Q_u))
            K_new = _greedy_gain(theta, n, m)
            for _ in range(8):
                if np.abs(K_new - K).max() < tol:
                    return K_new, "converged", i
                try:
                    start.load(*start.source(K_new), K_new)
                    break
                except PolicyIterationError:
                    K_new = 0.5 * (K + K_new)
            else:
                raise PolicyIterationError(
                    "improved policy diverges even after step damping")
            K = K_new
        return K, "max_iters", i
    except NumericalError as exc:
        exc.ended = ("raised", i)
        raise


def _block_states(F: np.ndarray, B: np.ndarray, x0: np.ndarray,
                  E: np.ndarray) -> np.ndarray:
    """States x_0 .. x_T of x+ = F x + B e for a batch of trajectories.

    ``x0`` is (n_traj, n) and the inputs ``E`` are (T, n_traj, m); the
    result is (T + 1, n_traj, n).  The steps are evaluated in blocks of
    L = min(``_ROLLOUT_BLOCK``, T): every trajectory advances a block in
    one product from the block-start state, x_{k0+j+1} = F^(j+1) x_{k0}
    + sum_{i<=j} F^(j-i) B e_{k0+i}, with zero inputs past T.  States of a
    diverging loop may overflow to inf or nan; the caller checks them.
    """
    T, n_traj, m = E.shape
    n = F.shape[0]
    L = min(_ROLLOUT_BLOCK, T)
    n_blk = math.ceil(T / L)
    if n_blk * L > T:
        E = np.concatenate([E, np.zeros((n_blk * L - T, n_traj, m))])
    # lag[i, j] = j - i + 1 for input step i and state step j >= i, else 0.
    lag = np.maximum(np.arange(L)[None, :] - np.arange(L)[:, None] + 1, 0)
    # Row-vector form x+ = x F' + e B'.  powers[j] stacks B'F'^(j-1) over
    # F'^j (powers[0] is zero): to_block maps x_k0 to the F'^(j+1) part of
    # [x_k0+1 .. x_k0+L], toeplitz maps [e_k0 .. e_k0+L-1] to the rest
    # (lower block-triangular, block (i, j) = B'F'^(j-i)).
    F_T = F.T
    powers = np.empty((L + 1, m + n, n))
    powers[0] = 0.0
    powers[1, :m], powers[1, m:] = B.T, F_T
    states = np.empty((n_blk * L + 1, n_traj, n))
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(2, L + 1):
            np.matmul(powers[j - 1], F_T, out=powers[j])
        toeplitz = powers[lag, :m].transpose(0, 2, 1, 3).reshape(L * m, L * n)
        to_block = powers[1:, m:].transpose(1, 0, 2).reshape(n, L * n)
        # ahead[b] holds each trajectory's states after the steps of block b.
        ahead = E.reshape(n_blk, L, n_traj, m).transpose(0, 2, 1, 3)
        ahead = ahead.reshape(n_blk, n_traj, L * m) @ toeplitz
        x = states[0]
        for b in range(n_blk):
            ahead[b] += x @ to_block
            x = ahead[b, :, -n:]
        states[1:] = (ahead.reshape(n_blk, n_traj, L, n)
                      .transpose(0, 2, 1, 3).reshape(n_blk * L, n_traj, n))
    return states[:T + 1]


def linear_rollouts(A: np.ndarray, B: np.ndarray, n_samples: int = 600,
                    n_obs: int | None = None, episode_len: int = 20,
                    explore: float = 0.1, seed: int = 0):
    """Build a rollout source ``source(K)`` for a :class:`_CachedStart`.

    Each call returns ``n_samples`` transitions of the (possibly larger)
    true system ``A, B`` but exposes only the first ``n_obs`` states,
    restarting episodes of ``episode_len`` steps from standard-normal
    observable initial states (unobserved states start at zero).
    Exploration noise is uniform with amplitude ``explore * max(1,
    |K|_inf)`` added to the policy input.

    The source is a pure function of the gain.  Its noise is drawn once,
    when it is built, from one ``random.Random(seed)``: the initial states
    by ``gauss(0, 1)`` in the C order of ``(n_episodes, n_obs)``, then the
    standard uniforms U by ``random()`` in the C order of ``(episode_len,
    n_episodes, m)``, step by step.  Every call thus shares the initial
    states and base noise, re-simulated under its own gain (common random
    numbers: Glasserman & Yao, Mgmt. Sci. 38, 1992), and equal gains give
    equal batches; each call rescales U into one reused buffer as
    E = (2 amp) U - amp.  The closed loop x+ = F x + B e, F = A - B K (K
    zero on hidden states), is evaluated for all episodes at once by
    :func:`_block_states`, and the inputs are e - K x.  A rollout whose
    state passes 1e6 raises :class:`PolicyIterationError`; the kept draws
    stay as they were.
    """
    A, B = _state_input(A, B)
    n_full, m = B.shape
    if n_obs is None:
        n_obs = n_full
    n_ep = max(1, math.ceil(n_samples / episode_len))
    rng = seeded_random(seed)
    x0 = np.zeros((n_ep, n_full))
    x0[:, :n_obs] = np.reshape([rng.gauss(0.0, 1.0) for _ in range(n_ep * n_obs)], (n_ep, n_obs))
    U = np.reshape([rng.random() for _ in range(episode_len * n_ep * m)], (episode_len, n_ep, m))
    E = np.empty_like(U)

    def source(K: np.ndarray):
        K = np.atleast_2d(np.asarray(K, dtype=float))
        amp = explore * max(1.0, float(np.abs(K).max()))
        np.multiply(U, 2.0 * amp, out=E)
        np.subtract(E, amp, out=E)
        states = _block_states(A - B @ _pad_gain(K, n_full), B, x0, E)
        # A diverging rollout may overflow inside a block, but only after
        # its first step past 1e6, so the largest |x| is then above 1e6,
        # inf or nan.
        if not np.abs(states[1:]).max() <= 1e6:
            step = np.flatnonzero(~(np.abs(states[1:]).max(axis=(1, 2)) <= 1e6))[0]
            raise PolicyIterationError(
                f"rollout diverged at step {step + 1} (unstable policy)")
        Xc = states[:-1, :, :n_obs].reshape(-1, n_obs)[:n_samples]
        Uc = E.reshape(-1, m)[:n_samples] - Xc @ K.T
        Xnc = states[1:, :, :n_obs].reshape(-1, n_obs)[:n_samples]
        return Xc, Uc, Xnc

    return source


def loop_response(A: np.ndarray, B: np.ndarray, h: float) -> np.ndarray:
    """Frequency response X = (zI-A)^{-1}B of a plant, shape (2048, n, m).

    z runs over 2048 log-spaced frequencies, five decades up to pi/h, on
    the unit circle.  X depends on the plant alone, so one response serves
    every gain scored by :func:`sensitivity_metrics` on that plant.
    """
    A, B = _state_input(A, B)
    n = A.shape[0]
    w = np.logspace(math.log10(math.pi / h) - 5.0, math.log10(math.pi / h), 2048)
    z = np.exp(1j * w * h)
    Ms = np.eye(n) * z[:, None, None] - A
    return np.linalg.solve(Ms, np.broadcast_to(B, (w.size, n, B.shape[1])))


def sensitivity_metrics(X: np.ndarray, K: np.ndarray) -> tuple[float, float]:
    """Peak sensitivity and complementary sensitivity of the loop K X.

    ``X`` is the plant's :func:`loop_response`.  Returns (M_S, M_T);
    infinite values indicate the loop passes through the critical point on
    the grid.
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    L = (K[None, :, :] @ X)[:, 0, 0]
    denom = np.abs(1.0 + L)
    tiny = denom < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        S = np.where(tiny, np.inf, 1.0 / denom)
        T = np.where(tiny, np.inf, np.abs(L) / denom)
    return float(S.max()), float(T.max())


def rise_time(A: np.ndarray, B: np.ndarray, K: np.ndarray, C: np.ndarray,
              h: float, max_steps: int = 500_000) -> float:
    """10-90% rise time of the closed-loop unit step response.

    The loop is closed as u = -K x + K_r r with K_r chosen for unit DC
    gain from r to y = C x.  The response is evaluated in vectorised
    blocks of 1024 samples, each from the state at the block start and
    powers of the closed-loop matrix, and crossing times of 10% and 90%
    are linearly interpolated between samples.  Raises
    :class:`NumericalError` when the closed loop is unstable, its DC gain
    is (near) zero, or y stays below 90% for ``max_steps`` samples.
    """
    A, B = _state_input(A, B)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    A_cl = A - B @ K
    if not schur_stable(A_cl):
        raise NumericalError("closed loop is not asymptotically stable")
    g0 = (C @ np.linalg.solve(np.eye(n) - A_cl, B)).item()
    if abs(g0) < 1e-12:
        raise NumericalError("closed loop has (near) zero DC gain")
    k_r = 1.0 / g0

    # Blocks of L = 1024 steps: from x at step k0,
    # y_{k0+j} = c A_cl^j x + c sum_{i<j} A_cl^i b for j = 1..L.  The rows
    # c A_cl^j, A_cl^L and sum_{i<L} A_cl^i b come from ten doublings.
    b = B[:, 0] * k_r
    rows = C[:1]
    A_pow, b_sum = A_cl, b
    for _ in range(10):
        rows = np.vstack([rows, rows @ A_pow])
        b_sum = b_sum + A_pow @ b_sum
        A_pow = A_pow @ A_pow
    ramp = np.cumsum(rows @ b)
    rows = np.vstack([rows[1:], C[0] @ A_pow])
    block = ramp.size

    def crossing(y, y_prev, level, k0):
        """Interpolated time at which y first reaches ``level``, or None."""
        if not y.max() >= level:
            return None
        j = int(np.flatnonzero(y >= level)[0])
        before = y[j - 1] if j else y_prev
        return h * (k0 + j + (level - before) / (y[j] - before))

    x = np.zeros(n)
    y_prev = 0.0
    t10 = None
    for k0 in range(0, max_steps, block):
        L = min(block, max_steps - k0)
        y = rows[:L] @ x + ramp[:L]
        if t10 is None:
            t10 = crossing(y, y_prev, 0.1, k0)
        t90 = crossing(y, y_prev, 0.9, k0)
        if t90 is not None:
            return float(t90 - t10)
        y_prev = y[-1]
        x = A_pow @ x + b_sum
    raise NumericalError("step response did not reach 90% (non-settling)")


def servo_plant(tau: float, h: float = 0.1) -> tuple[np.ndarray, ...]:
    """Discretized angular-servo benchmark 1/(s(1+s)(1+tau s)).

    States: angle, angular velocity, and (for tau > 0) the fast actuator
    mode that designs below treat as unmodeled.  Returns the sampled
    system x+ = A x + B u and the output row C selecting the angle.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if tau == 0.0:
        Ac, Bc, C = [[0.0, 1.0], [0.0, -1.0]], [[0.0], [1.0]], [[1.0, 0.0]]
    else:
        Ac = [[0.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0 / tau]]
        Bc, C = [[0.0], [0.0], [1.0 / tau]], [[1.0, 0.0, 0.0]]
    Ad, Bd = c2d_zoh(Ac, Bc, h)
    return Ad, Bd, np.array(C)


def _pad_gain(K: np.ndarray, n_full: int) -> np.ndarray:
    """Extend a gain on the observed states with zeros for hidden states."""
    K = np.atleast_2d(K)
    Kf = np.zeros((K.shape[0], n_full))
    Kf[:, :K.shape[1]] = K
    return Kf


def _excitation_data(A, B, n_obs: int, n_samples: int, seed: int):
    """Open-loop random binary excitation of the true plant, observing n_obs states.

    The signs come from one ``random.Random(seed)``, drawn as the vehicle
    excitation's are: -1 where ``random()`` < 0.5, else +1.  The plant
    starts at rest and x+ = A x + B u is evaluated in blocks by
    :func:`_block_states`, as one trajectory with inputs U.
    """
    rng = seeded_random(seed)
    U = np.array([-1.0 if rng.random() < 0.5 else 1.0 for _ in range(n_samples)])
    X = _block_states(A, B, np.zeros((1, A.shape[0])), U[:, None, None])[:, 0]
    return X[:-1, :n_obs], U[:, None], X[1:, :n_obs]


def estimate_ss(X: np.ndarray, U: np.ndarray,
                X_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimate x+ = A x + B u by least squares over sampled transitions.

    ``X``, ``U`` and ``X_next`` are (N, n), (N, m) and (N, n): row k of
    ``X_next`` is the successor of row k of ``X`` under input row k of
    ``U``.  Raises :class:`EstimationError` on a rank deficient regressor
    (insufficient excitation).
    """
    X, U = _state_input(X, U)
    X_next = np.atleast_2d(np.asarray(X_next, dtype=float))
    n, m = X.shape[1], U.shape[1]
    phi = np.hstack([X, U])
    theta, _, rank, _ = np.linalg.lstsq(phi, X_next, rcond=None)
    if rank < n + m:
        raise EstimationError("state-space regression is rank deficient")
    return theta[:n].T, theta[n:].T


def _find_boundary(margin, lo: float, g_lo: float, hi: float, g_hi: float,
                   max_evals: int) -> float:
    """Brent's zero finder for the feasibility boundary of ``margin``.

    ``margin(x)`` is <= 0 exactly where x is feasible; ``lo`` is infeasible
    (``g_lo`` > 0, possibly +inf) and ``hi`` feasible (``g_hi`` <= 0).  The
    first step is the bisection point ``0.5 * (lo + hi)``.  Every later
    step is Brent's secant or inverse quadratic interpolation step with
    its safeguards (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), taken only when every point it interpolates
    has a finite margin; otherwise it is the bisection point.  The sweep's
    bracket spans up to 12 decades of log10 Q_u, over which the margin is
    far from linear: a first secant through the bracket ends can land
    next to one of them (for the model-free tau = 0 row, in the outermost
    decade) and spend an evaluation that hardly shrinks the bracket,
    where the midpoint halves it.  On a linear margin, where the secant
    is exact, bisecting first costs one evaluation more.  Stops when the
    bracket is narrower than ``BOUNDARY_TOL``, when a margin is exactly 0,
    or after ``max_evals`` evaluations, and returns the final ``hi``: the
    smallest feasible point evaluated.
    """
    delta = 0.5 * BOUNDARY_TOL
    # cur and blk are the bracket ends, cur the one with the smaller |g|;
    # pre is the previous cur (it is blk right after the bracket moved).
    cur, g_cur, blk, g_blk = hi, g_hi, lo, g_lo
    if abs(g_blk) < abs(g_cur):
        cur, g_cur, blk, g_blk = blk, g_blk, cur, g_cur
    pre, g_pre = blk, g_blk
    # A zero last-but-one step fails the interpolation test: the first
    # step bisects.
    s_pre = s_cur = 0.0
    for _ in range(max_evals):
        if hi - lo < BOUNDARY_TOL or g_hi == 0.0:
            break
        s_bis = 0.5 * (blk - cur)
        x = 0.5 * (lo + hi)
        s_try = 0.0
        if (abs(s_pre) > delta and abs(g_cur) < abs(g_pre)
                and math.isfinite(g_pre) and math.isfinite(g_blk)):
            if pre == blk:  # secant
                s_try = -g_cur * (cur - pre) / (g_cur - g_pre)
            else:  # inverse quadratic interpolation
                d_pre = (g_pre - g_cur) / (pre - cur)
                d_blk = (g_blk - g_cur) / (blk - cur)
                q = d_blk * d_pre * (g_blk - g_pre)
                if q != 0.0:
                    s_try = -g_cur * (g_blk * d_blk - g_pre * d_pre) / q
        # Take a step toward blk that is short against the last-but-one
        # step and three quarters of the bracket; else bisect.
        if s_try * s_bis > 0.0 and 2.0 * abs(s_try) < min(abs(s_pre),
                                                          3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
            x = cur + (s_try if abs(s_try) > delta else math.copysign(delta, s_bis))
        else:
            s_pre = s_cur = s_bis
        g = margin(x)
        if g <= 0.0:
            hi, g_hi = x, g
        else:
            lo = x
        pre, g_pre, cur, g_cur = cur, g_cur, x, g
        if (g_pre <= 0.0) != (g <= 0.0):
            blk, g_blk = pre, g_pre
            s_pre = s_cur = cur - pre
        if abs(g_blk) < abs(g_cur):
            pre, g_pre = cur, g_cur
            cur, g_cur, blk, g_blk = blk, g_blk, cur, g_cur
    return hi


def _model_based_route(A, B, Q_x, seeds):
    """The model-based route on the true plant A, B: a model of the states
    that Q_x weights, fitted once (:func:`estimate_ss`) to 1500 samples of
    excitation from ``seeds[0]`` (:func:`_excitation_data`).  A design is
    the model's Riccati gain (:func:`dare_solve`): (K, None, 0)."""
    X, U, Xn = _excitation_data(A, B, len(Q_x), 1500, seeds[0])
    A2, B2 = estimate_ss(X, U, Xn)
    return lambda q_u: (dare_solve(A2, B2, Q_x, [[q_u]])[0], None, 0)


def _model_free_route(A, B, Q_x, seeds):
    """The model-free route on the true plant A, B: policy iteration on
    9600 samples per step of the states that Q_x weights, all from one pure
    rollout source (:func:`linear_rollouts`) on ``seeds[1]``, which draws
    its initial states and noise once and re-simulates them under each
    gain.  The route is thus a fixed function of Q_u: its one
    :class:`_CachedStart` regresses the batch under the start gain K0 =
    [1, 1] once, and a design is a :func:`lqrl_policy_iteration` call.
    K0 is mild and known to stabilize; zero gain would leave the
    integrator mode marginal."""
    source = linear_rollouts(A, B, n_samples=9600, n_obs=len(Q_x), episode_len=400,
                             seed=seeds[1])
    start = _CachedStart(source, np.array([[1.0, 1.0]]), Q_x)
    return lambda q_u: lqrl_policy_iteration(start, q_u)


# Route builders of the sweep, from the true plant A, B, the state weight
# Q_x and the tau's seed pair to a route: q_u -> (K, outcome, iterations).
ROUTES = {"model-based": _model_based_route, "model-free": _model_free_route}
METHODS = tuple(ROUTES)


def _search(route, plant, resp, h: float, lo: float, hi: float, bisect_steps: int):
    """Search a route's control penalty Q_u on a log scale for the boundary
    where one of M_S <= 1.7, M_T <= 1.3 activates on the true plant
    ``plant`` = (A, B, C), sampled at h, of :func:`loop_response` ``resp``.
    From the large (robust) end hi (lo < hi, in log10 Q_u) the search walks
    down in decades, the last step shortened to end at lo, to the first
    feasible design, then runs Brent's zero finder (:func:`_find_boundary`)
    on the margin max(M_S - 1.7, M_T - 1.3), bisecting on its first step
    and wherever a design has no margin (it failed or is unstable), until
    the bracket is narrower than ``BOUNDARY_TOL`` decades, in at most
    ``bisect_steps`` evaluations.  Returns (log_qu, (margin, t_r, M_S,
    M_T), feasible, trace) of the feasible design with the smallest Q_u
    or, if the walk-down finds none down to lo, of the design at lo.
    """
    A, B, C = plant
    trace, designs = [], {}

    def evaluate(log_qu):
        """(margin, t_r, M_S, M_T) of the design at log10 Q_u; the margin is
        +inf where the design failed or has no peaks."""
        q_u = 10.0 ** log_qu
        g = t_r = m_s = m_t = math.inf
        ended = (None, 0)
        try:
            K, *ended = route(q_u)
            Kf = _pad_gain(K, A.shape[0])
            if not schur_stable(A - B @ Kf):
                raise NumericalError("unstable on true plant")
            m_s, m_t = sensitivity_metrics(resp, Kf)
            if math.isfinite(m_s) and math.isfinite(m_t):
                g = max(m_s - MS_MAX, m_t - MT_MAX)
            if g <= 0.0:
                # An over-detuned but margin-respecting design may crawl;
                # treat it as feasible with unmeasurable t_r so the search
                # can still move toward smaller Q_u.
                t_r = rise_time(A, B, Kf, C, h)
        except NumericalError as exc:
            ended = getattr(exc, "ended", ended)
        trace.append((q_u, t_r, g <= 0.0, *ended))
        designs[log_qu] = (g, t_r, m_s, m_t)
        return designs[log_qu]

    # The extreme detuned end can defeat the learned route (the optimal gain
    # tends to zero, leaving the integrator mode marginal), so walk down in
    # decades to the first design that evaluates cleanly, and anchor there.
    log_qu = hi
    while evaluate(log_qu)[0] > 0.0 and log_qu > lo:
        log_qu = max(log_qu - 1.0, lo)
    g_hi = designs[log_qu][0]
    if g_hi <= 0.0 and log_qu > lo:
        g_lo = evaluate(lo)[0]
        log_qu = lo if g_lo <= 0.0 else _find_boundary(
            lambda x: evaluate(x)[0], lo, g_lo, log_qu, g_hi, bisect_steps)
    return log_qu, designs[log_qu], g_hi <= 0.0, trace


def robustness_sweep(taus, methods=METHODS,
                     log_qu_range: tuple[float, float] = (-6.0, 6.0),
                     bisect_steps: int = 60, seed: int = 0) -> list[RobustnessRow]:
    """One row per tau and method: the servo benchmark (sampled at h = 0.1
    s) tuned by each route of ``methods`` (:data:`ROUTES`) and searched
    over ``log_qu_range`` (:func:`_search`).  The true plant's frequency
    response is built once per tau and shared by every route.  One
    ``random.Random(seed)`` draws two seeds per tau, each by
    ``getrandbits(32)``: the model-based route's, then the model-free
    route's.  An unknown method raises ``ValueError`` before any route is
    built.
    """
    lo, hi = log_qu_range
    if not lo < hi:
        raise ValueError(f"log_qu_range needs lo < hi, got {log_qu_range}")
    for method in methods:
        if method not in ROUTES:
            raise ValueError(f"unknown method {method!r}")
    h = 0.1
    rows: list[RobustnessRow] = []
    root = seeded_random(seed)
    for tau in taus:
        A, B, _ = plant = servo_plant(tau, h)
        resp = loop_response(A, B, h)
        seeds = root.getrandbits(32), root.getrandbits(32)
        Q_x = np.diag([1.0, 0.0])  # designs feed back the two modeled states
        for method in methods:
            log_qu, (_, t_r, m_s, m_t), feasible, trace = _search(
                ROUTES[method](A, B, Q_x, seeds), plant, resp, h, lo, hi, bisect_steps)
            rows.append(RobustnessRow(tau, method, t_r, m_s, m_t, 10.0 ** log_qu,
                                      feasible=feasible, trace=trace))
    return rows
