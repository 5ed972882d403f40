"""Discrete-time LQ design, data-driven policy iteration, and a
robustness benchmark comparing model-based and model-free tuning.

The model-free route estimates the quadratic Q-function of the current
policy by least squares on one-step transition data and improves the
policy from the Q-function blocks; no plant model is formed.  The
model-based route fits a low-order state-space model to the same kind
of data and solves the Riccati equation on it.  Both are scored on the
true plant through the sensitivity peaks M_S, M_T and the step-response
rise time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import EstimationError, NumericalError, PolicyIterationError

# Robustness constraints used by the benchmark sweep.
MS_MAX = 1.7
MT_MAX = 1.3


@dataclass(frozen=True)
class StateSpaceD:
    """Discrete-time linear system x+ = A x + B u with sample time h."""

    A: np.ndarray
    B: np.ndarray
    h: float

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if A.shape[0] != A.shape[1] or B.shape[0] != A.shape[0]:
            raise ValueError("A must be square and B row-compatible")
        if self.h <= 0:
            raise ValueError("sample time must be positive")


@dataclass(frozen=True)
class QuadCost:
    """Quadratic stage cost x' Q_x x + u' Q_u u."""

    Q_x: np.ndarray
    Q_u: np.ndarray

    def __post_init__(self):
        Qx = np.atleast_2d(np.asarray(self.Q_x, dtype=float))
        Qu = np.atleast_2d(np.asarray(self.Q_u, dtype=float))
        object.__setattr__(self, "Q_x", Qx)
        object.__setattr__(self, "Q_u", Qu)
        for M in (Qx, Qu):
            if not np.allclose(M, M.T):
                raise ValueError("cost matrices must be symmetric")
        if np.any(np.linalg.eigvalsh(Qx) < -1e-12):
            raise ValueError("Q_x must be positive semidefinite")
        if np.any(np.linalg.eigvalsh(Qu) <= 0):
            raise ValueError("Q_u must be positive definite")

    def stage(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Stage cost for batches of states (N,n) and inputs (N,m)."""
        return np.einsum("ki,ij,kj->k", x, self.Q_x, x) \
            + np.einsum("ki,ij,kj->k", u, self.Q_u, u)


@dataclass(frozen=True)
class QTheta:
    """Quadratic Q-function blocks: Q(x,u) = [x;u]' [[S_xx,S_xu],[S_xu',S_uu]] [x;u]."""

    S_xx: np.ndarray
    S_xu: np.ndarray
    S_uu: np.ndarray

    @classmethod
    def from_parameters(cls, theta: np.ndarray, n: int, m: int) -> "QTheta":
        """Build from the upper-triangle parameter vector of the regression."""
        d = n + m
        if theta.size != d * (d + 1) // 2:
            raise ValueError("parameter vector length mismatch")
        S = np.zeros((d, d))
        I, J = np.triu_indices(d)
        S[I, J] = theta
        S[J, I] = theta
        return cls(S_xx=S[:n, :n], S_xu=S[:n, n:], S_uu=S[n:, n:])

    def matrix(self) -> np.ndarray:
        top = np.hstack([self.S_xx, self.S_xu])
        bot = np.hstack([self.S_xu.T, self.S_uu])
        return np.vstack([top, bot])

    def gain(self) -> np.ndarray:
        """Greedy policy gain K = S_uu^{-1} S_xu' (u = -K x)."""
        w = np.linalg.eigvalsh(self.S_uu)
        if w.min() <= 1e-12 * max(1.0, abs(w).max()):
            raise PolicyIterationError("S_uu block is not positive definite")
        return np.linalg.solve(self.S_uu, self.S_xu.T)


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
    # (Q_u, t_r, feasible) evaluations recorded during the bisection.
    trace: list = field(default_factory=list, repr=False)


def c2d_zoh(A: np.ndarray, B: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization via the augmented matrix exponential."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if h <= 0:
        raise ValueError("sample time must be positive")
    n, m = A.shape[0], B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A * h
    M[:n, n:] = B * h
    E = scipy.linalg.expm(M)
    return E[:n, :n], E[:n, n:]


def spectral_radius(A: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(A)).max())


def dare_solve(A: np.ndarray, B: np.ndarray, Q_x: np.ndarray, Q_u,
               tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Solve the discrete algebraic Riccati equation by the doubling algorithm.

    The structure-preserving doubling algorithm (Chu, Fan & Lin, Linear
    Algebra Appl. 396, 2005) starts from A_0 = A, G_0 = B Q_u^{-1} B',
    H_0 = Q_x and iterates, with W = I + G H,

        A <- A W^{-1} A,  G <- G + A W^{-1} G A',  H <- H + A' H W^{-1} A,

    so that H_k equals the iterate P_{2^k} of the fixed point
    P <- Q_x + A'PA - A'PB (Q_u + B'PB)^{-1} B'PA started from P_0 = 0;
    the convergence is quadratic.  Stops when the relative change of H drops
    below ``tol``, then refines H by one Newton (Hewer) step.  Returns the
    gain K = (Q_u + B'PB)^{-1} B'PA and the stabilizing solution P.
    Raises :class:`NumericalError` when the iteration diverges or does not
    converge in 64 doublings (2^64 fixed-point steps), or when the implied
    closed loop is not asymptotically stable.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    Q_x = np.atleast_2d(np.asarray(Q_x, dtype=float))
    Q_u = np.atleast_2d(np.asarray(Q_u, dtype=float))
    n = A.shape[0]
    Ak = A
    G = B @ np.linalg.solve(Q_u, B.T)
    G = 0.5 * (G + G.T)
    H = Q_x.copy()
    # A system with an uncontrollable unstable mode makes A_k and H_k grow
    # doubly exponentially; report that as divergence, not as overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            try:
                WiA, WiG = np.hsplit(np.linalg.solve(np.eye(n) + G @ H,
                                                     np.hstack([Ak, G])), 2)
            except np.linalg.LinAlgError:
                raise NumericalError("Riccati iteration diverged") from None
            H_next = H + Ak.T @ H @ WiA
            H_next = 0.5 * (H_next + H_next.T)
            G = G + Ak @ WiG @ Ak.T
            G = 0.5 * (G + G.T)
            Ak = Ak @ WiA
            delta = np.abs(H_next - H).max()
            H = H_next
            if not np.isfinite(delta) or np.abs(H).max() > 1e18:
                raise NumericalError("Riccati iteration diverged")
            if delta <= tol * max(1.0, np.abs(H).max()):
                break
        else:
            raise NumericalError("Riccati iteration did not converge")
    K = np.linalg.solve(Q_u + B.T @ H @ B, B.T @ H @ A)
    F = A - B @ K
    if spectral_radius(F) >= 1.0:
        raise NumericalError("Riccati gain does not stabilize the model")
    # With cheap control G is large and W ill-conditioned, and the doubling
    # can lose half its digits (gains off by 1e-6 at Q_u = 1e-6).  One
    # Newton (Hewer) step restores them: solve the Stein equation
    # P = F'PF + Q_x + K'Q_u K of that gain in Kronecker form.
    M = Q_x + K.T @ Q_u @ K
    P = np.linalg.solve(np.eye(n * n) - np.kron(F.T, F.T), M.ravel()).reshape(n, n)
    P = 0.5 * (P + P.T)
    K = np.linalg.solve(Q_u + B.T @ P @ B, B.T @ P @ A)
    if spectral_radius(A - B @ K) >= 1.0:
        raise NumericalError("Riccati gain does not stabilize the model")
    return K, P


def _phi(Z: np.ndarray) -> np.ndarray:
    """Quadratic feature rows for z=[x;u]: z_i^2 and 2 z_i z_j (i<j)."""
    I, J = np.triu_indices(Z.shape[1])
    # In place, so the regression holds one fewer N x p temporary.
    phi = Z[:, I]
    phi *= np.where(I == J, 1.0, 2.0)
    phi *= Z[:, J]
    return phi


def lqrl_policy_iteration(rollout_source, K0: np.ndarray, cost: QuadCost,
                          n_samples: int = 600, max_iters: int = 50,
                          tol: float = 1e-6) -> tuple[np.ndarray, QTheta]:
    """Model-free LQ policy iteration on one-step transition data.

    ``rollout_source(K, n_samples)`` must return transition triples
    (X, U, X_next) collected under the behavior u = -K x + exploration
    noise; data are re-collected with the current policy each iteration.
    Each iteration solves the least-squares temporal-difference system

        stage(x_k, u_k) = phi(x_k, u_k)'theta - phi(x_k+1, -K x_k+1)'theta

    for the quadratic Q-function and improves K from its blocks.  An
    improvement step whose behavior policy makes the collected rollout
    diverge is damped by halving back toward the last workable policy
    (exact-data runs never trigger this, so the Hewer fixed point is
    unchanged).  Stops when the gain change drops below ``tol``
    (max-abs) or after ``max_iters`` iterations.
    """
    K = np.atleast_2d(np.asarray(K0, dtype=float)).copy()
    m, n = K.shape
    p = (n + m) * (n + m + 1) // 2
    qf = None

    def collect(K_try):
        X, U, Xn = rollout_source(K_try, n_samples)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.asarray(U, dtype=float)
        if U.ndim == 1:
            U = U[:, None]
        Xn = np.atleast_2d(np.asarray(Xn, dtype=float))
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Xn))):
            raise PolicyIterationError("rollout data diverged")
        return X, U, Xn

    data = collect(K)
    for _ in range(max_iters):
        X, U, Xn = data
        Un = -(Xn @ K.T)
        psi = _phi(np.hstack([X, U])) - _phi(np.hstack([Xn, Un]))
        rho = cost.stage(X, U)
        theta, _, rank, _ = np.linalg.lstsq(psi, rho, rcond=None)
        if rank < p:
            raise EstimationError(
                f"Q-function regression rank {rank} < {p}: more excitation required")
        qf = QTheta.from_parameters(theta, n, m)
        K_new = qf.gain()
        for _ in range(8):
            try:
                data = collect(K_new)
                break
            except PolicyIterationError:
                K_new = 0.5 * (K + K_new)
        else:
            raise PolicyIterationError(
                "improved policy diverges even after step damping")
        step = np.abs(K_new - K).max()
        K = K_new
        if step < tol:
            break
    return K, qf


def linear_rollouts(A: np.ndarray, B: np.ndarray, n_obs: int | None = None,
                    episode_len: int = 20, x0_scale: float = 1.0,
                    explore: float = 0.1, seed: int = 0):
    """Build a rollout source for :func:`lqrl_policy_iteration`.

    Simulates the (possibly larger) true system ``A, B`` but exposes only
    the first ``n_obs`` states, restarting episodes of ``episode_len``
    steps from random observable initial states (unobserved states start
    at zero).  Exploration noise is uniform with amplitude
    ``explore * max(1, |K|_inf * x0_scale)`` added to the policy input.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    n_full, m = B.shape
    if n_obs is None:
        n_obs = n_full
    rng = np.random.default_rng(seed)

    def source(K: np.ndarray, n_samples: int):
        K = np.atleast_2d(np.asarray(K, dtype=float))
        amp = explore * max(1.0, float(np.abs(K).max()) * x0_scale)
        n_ep = max(1, math.ceil(n_samples / episode_len))
        # states[k] holds the n_ep episode states before step k.
        states = np.zeros((episode_len + 1, n_ep, n_full))
        states[0, :, :n_obs] = rng.normal(0.0, x0_scale, size=(n_ep, n_obs))
        noise_state = rng.bit_generator.state
        # One draw gives the same stream as one (n_ep, m) draw per step.
        E = rng.uniform(-amp, amp, size=(episode_len, n_ep, m))
        inputs = np.empty((episode_len, n_ep, m))
        # A diverging rollout may overflow after its first step past 1e6;
        # only that step matters, and it is found after the loop.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(episode_len):
                X = states[k]
                U = -(X[:, :n_obs] @ K.T) + E[k]
                states[k + 1] = X @ A.T + U @ B.T
                inputs[k] = U
            diverged = np.flatnonzero(np.abs(states[1:]).max(axis=(1, 2)) > 1e6)
        if diverged.size:
            # Leave the generator where per-step draws would have left it.
            rng.bit_generator.state = noise_state
            rng.uniform(-amp, amp, size=(diverged[0] + 1, n_ep, m))
            raise PolicyIterationError("rollout diverged (unstable policy)")
        Xc = states[:-1, :, :n_obs].reshape(-1, n_obs)[:n_samples]
        Uc = inputs.reshape(-1, m)[:n_samples]
        Xnc = states[1:, :, :n_obs].reshape(-1, n_obs)[:n_samples]
        return Xc, Uc, Xnc

    return source


def sensitivity_metrics(A: np.ndarray, B: np.ndarray, K: np.ndarray, h: float,
                        n_freq: int = 2048) -> tuple[float, float]:
    """Peak sensitivity and complementary sensitivity of the loop K(zI-A)^{-1}B.

    The loop transfer is evaluated on ``n_freq`` log-spaced frequencies in
    (0, pi/h] on the unit circle.  Returns (M_S, M_T); infinite values
    indicate the loop passes through the critical point on the grid.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    K = np.atleast_2d(np.asarray(K, dtype=float))
    n = A.shape[0]
    w = np.logspace(math.log10(math.pi / h) - 5.0, math.log10(math.pi / h), n_freq)
    z = np.exp(1j * w * h)
    Ms = np.broadcast_to(np.eye(n), (n_freq, n, n)) * z[:, None, None] - A
    X = np.linalg.solve(Ms, np.broadcast_to(B, (n_freq, n, B.shape[1])))
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
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    K = np.atleast_2d(np.asarray(K, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    A_cl = A - B @ K
    if spectral_radius(A_cl) >= 1.0:
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
        hit = np.flatnonzero(y >= level)
        if hit.size == 0:
            return None
        j = int(hit[0])
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


def servo_plant(tau: float, h: float = 0.1) -> tuple[StateSpaceD, np.ndarray]:
    """Discretized angular-servo benchmark 1/(s(1+s)(1+tau s)).

    States: angle, angular velocity, and (for tau > 0) the fast actuator
    mode that designs below treat as unmodeled.  Returns the system and
    the output row C selecting the angle.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if tau == 0.0:
        Ac = np.array([[0.0, 1.0], [0.0, -1.0]])
        Bc = np.array([[0.0], [1.0]])
        C = np.array([[1.0, 0.0]])
    else:
        Ac = np.array([[0.0, 1.0, 0.0],
                       [0.0, -1.0, 1.0],
                       [0.0, 0.0, -1.0 / tau]])
        Bc = np.array([[0.0], [0.0], [1.0 / tau]])
        C = np.array([[1.0, 0.0, 0.0]])
    Ad, Bd = c2d_zoh(Ac, Bc, h)
    return StateSpaceD(Ad, Bd, h), C


def _pad_gain(K: np.ndarray, n_full: int) -> np.ndarray:
    """Extend a gain on the observed states with zeros for hidden states."""
    K = np.atleast_2d(K)
    Kf = np.zeros((K.shape[0], n_full))
    Kf[:, :K.shape[1]] = K
    return Kf


def _excitation_data(sys: StateSpaceD, n_obs: int, n_samples: int, seed: int):
    """Open-loop random binary excitation of the true plant, observing n_obs states."""
    rng = np.random.default_rng(seed)
    n = sys.A.shape[0]
    U = np.where(rng.random(n_samples) < 0.5, -1.0, 1.0)
    X = np.zeros((n_samples + 1, n))
    for k in range(n_samples):
        X[k + 1] = sys.A @ X[k] + sys.B[:, 0] * U[k]
    return X[:-1, :n_obs], U[:, None], X[1:, :n_obs]


def robustness_sweep(taus, methods=("model-based", "model-free"), h: float = 0.1,
                     log_qu_range: tuple[float, float] = (-6.0, 6.0),
                     bisect_steps: int = 60, seed: int = 0,
                     n_est_samples: int = 1500, lqrl_samples: int = 9600,
                     K0=None) -> list[RobustnessRow]:
    """Tune the servo benchmark for each tau by both routes.

    For every ``tau`` the control penalty Q_u is bisected on a log scale
    from the large (robust) end downward until one of the constraints
    M_S <= 1.7, M_T <= 1.3 activates on the true plant; the returned row
    holds the last feasible design.  The learned/designed gain feeds back
    only the two modeled states.
    """
    from .sysid import estimate_ss

    rows: list[RobustnessRow] = []
    root = np.random.SeedSequence(seed)
    for i_tau, tau in enumerate(taus):
        sys, C = servo_plant(tau, h)
        n_full = sys.A.shape[0]
        n_obs = 2
        tau_seed = np.random.SeedSequence(entropy=root.entropy,
                                          spawn_key=(i_tau,))
        seeds = tau_seed.generate_state(bisect_steps + 24)

        for method in methods:
            if method == "model-based":
                X, U, Xn = _excitation_data(sys, n_obs, n_est_samples,
                                            int(seeds[0]))
                A2, B2 = estimate_ss(X, U, Xn)

                def make_gain(q_u, i_step, A2=A2, B2=B2):
                    K, _ = dare_solve(A2, B2, np.diag([1.0, 0.0]), [[q_u]])
                    return K
            elif method == "model-free":
                def make_gain(q_u, i_step, sys=sys, seeds=seeds):
                    source = linear_rollouts(sys.A, sys.B, n_obs=n_obs,
                                             episode_len=400,
                                             seed=int(seeds[i_step]))
                    # Policy iteration needs a stabilizing start; zero
                    # gain leaves the integrator mode marginal, so seed
                    # with a mild known-stable gain instead.
                    k_init = np.array([[1.0, 1.0]]) if K0 is None else K0
                    K, _ = lqrl_policy_iteration(
                        source, k_init, QuadCost(np.diag([1.0, 0.0]), [[q_u]]),
                        n_samples=lqrl_samples)
                    return K
            else:
                raise ValueError(f"unknown method {method!r}")

            trace = []

            def evaluate(log_qu, i_step):
                q_u = 10.0 ** log_qu
                try:
                    K = make_gain(q_u, i_step)
                    Kf = _pad_gain(K, n_full)
                    if spectral_radius(sys.A - sys.B @ Kf) >= 1.0:
                        raise NumericalError("unstable on true plant")
                    m_s, m_t = sensitivity_metrics(sys.A, sys.B, Kf, h)
                    ok = m_s <= MS_MAX and m_t <= MT_MAX
                except (NumericalError, EstimationError):
                    ok, t_r, m_s, m_t = False, math.inf, math.inf, math.inf
                else:
                    t_r = math.inf
                    if ok:
                        # An over-detuned but margin-respecting design may
                        # crawl; treat it as feasible with unmeasurable t_r
                        # so the search can still move toward smaller Q_u.
                        try:
                            t_r = rise_time(sys.A, sys.B, Kf, C, h)
                        except NumericalError:
                            pass
                trace.append((q_u, t_r, ok))
                return ok, t_r, m_s, m_t

            lo, hi = log_qu_range
            # The extreme detuned end can defeat the learned arm (the
            # optimal gain tends to zero, leaving the integrator mode
            # marginal), so walk down in decades to the first design
            # that evaluates cleanly and anchor the bisection there.
            n_eval = 0
            ok_hi = False
            while hi > lo + 1e-9:
                ok_hi, t_r_hi, ms_hi, mt_hi = evaluate(hi, n_eval)
                n_eval += 1
                if ok_hi:
                    break
                hi -= 1.0
            if not ok_hi:
                rows.append(RobustnessRow(tau, method, math.inf, ms_hi, mt_hi,
                                          10.0 ** hi, feasible=False,
                                          trace=trace))
                continue
            ok_lo, t_r_lo, ms_lo, mt_lo = evaluate(lo, n_eval)
            n_eval += 1
            if ok_lo:
                rows.append(RobustnessRow(tau, method, t_r_lo, ms_lo, mt_lo,
                                          10.0 ** lo, trace=trace))
                continue
            best = (t_r_hi, ms_hi, mt_hi, hi)
            for _ in range(bisect_steps):
                mid = 0.5 * (lo + hi)
                ok, t_r, m_s, m_t = evaluate(mid, n_eval)
                n_eval += 1
                if ok:
                    hi = mid
                    best = (t_r, m_s, m_t, mid)
                else:
                    lo = mid
            t_r, m_s, m_t, log_qu = best
            rows.append(RobustnessRow(tau, method, t_r, m_s, m_t,
                                      10.0 ** log_qu, trace=trace))
    return rows
