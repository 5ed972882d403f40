"""LQ design, state-space estimation and data-driven policy iteration tests."""

import functools
import math
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modru import config, harness, lqr
from modru import controller as ctl
from modru.errors import EstimationError, NumericalError, PolicyIterationError

from conftest import spectral_radius


def fixed_point_dare_gain(A, B, Q_x, Q_u, tol=1e-12, max_iter=2_000_000):
    """Reference DARE gain: P <- Q_x + A'PA - A'PB (Q_u + B'PB)^{-1} B'PA
    from P = Q_x until the relative change drops below ``tol``."""
    P = Q_x.copy()
    for _ in range(max_iter):
        PA, PB = P @ A, P @ B
        K = np.linalg.solve(Q_u + B.T @ PB, B.T @ PA)
        P_next = Q_x + A.T @ PA - (A.T @ PB) @ K
        P_next = 0.5 * (P_next + P_next.T)
        delta = np.abs(P_next - P).max()
        P = P_next
        if delta <= tol * max(1.0, np.abs(P).max()):
            return np.linalg.solve(Q_u + B.T @ P @ B, B.T @ P @ A)
    raise AssertionError("reference Riccati iteration did not converge")


def stepping_rise_time(A, B, K, C, h, max_steps):
    """Reference rise time: one closed-loop step per loop iteration."""
    n = A.shape[0]
    A_cl = A - B @ K
    k_r = 1.0 / (C @ np.linalg.solve(np.eye(n) - A_cl, B)).item()
    x = np.zeros(n)
    y_prev = 0.0
    t10 = None
    for k in range(1, max_steps + 1):
        x = A_cl @ x + B[:, 0] * k_r
        y = float(C[0] @ x)
        if t10 is None and y >= 0.1:
            t10 = h * (k - 1 + (0.1 - y_prev) / (y - y_prev))
        if y >= 0.9:
            return h * (k - 1 + (0.9 - y_prev) / (y - y_prev)) - t10
        y_prev = y
    raise NumericalError("step response did not reach 90% (non-settling)")


def random_draws(rng, draw, shape):
    """``draw(rng)`` repeated in the C order of ``shape``, as an array."""
    return np.reshape([draw(rng) for _ in range(math.prod(shape))], shape)


def start_states(rng, n_ep, n_obs):
    """Standard-normal start states of ``n_ep`` episodes, by ``gauss``."""
    return random_draws(rng, lambda r: r.gauss(0.0, 1.0), (n_ep, n_obs))


def stepping_rollouts(A, B, n_samples, n_obs, episode_len, explore, seed):
    """Reference rollout source: a ``random.Random`` fresh from the seed on
    every call, one ``uniform`` noise draw per step."""
    n_full, m = B.shape

    def source(K):
        amp = explore * max(1.0, float(np.abs(K).max()))
        n_ep = max(1, math.ceil(n_samples / episode_len))
        rng = random.Random(seed)
        X = np.zeros((n_ep, n_full))
        X[:, :n_obs] = start_states(rng, n_ep, n_obs)
        xs, us, xns = [], [], []
        for _ in range(episode_len):
            E = random_draws(rng, lambda r: r.uniform(-amp, amp), (n_ep, m))
            U = -(X[:, :n_obs] @ K.T) + E
            Xn = X @ A.T + U @ B.T
            if np.abs(Xn).max() > 1e6:
                raise PolicyIterationError("rollout diverged (unstable policy)")
            xs.append(X[:, :n_obs].copy())
            us.append(U)
            xns.append(Xn[:, :n_obs].copy())
            X = Xn
        return (np.concatenate(xs)[:n_samples], np.concatenate(us)[:n_samples],
                np.concatenate(xns)[:n_samples])

    return source


def excitation_signs(seed, n_samples):
    """The vehicle excitation's sign rule on ``random.Random(seed)``."""
    rng = random.Random(seed)
    return np.array([-1.0 if rng.random() < 0.5 else 1.0 for _ in range(n_samples)])


def stepping_excitation(A, B, n_obs, n_samples, seed):
    """Reference excitation: one plant step per loop iteration."""
    U = excitation_signs(seed, n_samples)
    X = np.zeros((n_samples + 1, A.shape[0]))
    for k in range(n_samples):
        X[k + 1] = A @ X[k] + B[:, 0] * U[k]
    return X[:-1, :n_obs], U[:, None], X[1:, :n_obs]


def former_dare_solve(A, B, Q_x, Q_u):
    """Reference Riccati solver: the doubling loop as it was before the
    identity was hoisted and the solve's right-hand side joined by
    ``concatenate`` (``hstack``/``hsplit`` and two ``|H|`` maxima)."""
    A, B = lqr._state_input(A, B)
    Q_x = np.atleast_2d(np.asarray(Q_x, dtype=float))
    Q_u = np.atleast_2d(np.asarray(Q_u, dtype=float))
    n = A.shape[0]
    Ak, H = A, Q_x.copy()
    G = B @ np.linalg.solve(Q_u, B.T)
    G = 0.5 * (G + G.T)
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
            if delta <= 1e-12 * max(1.0, np.abs(H).max()):
                break
        else:
            raise NumericalError("Riccati iteration did not converge")
    K = np.linalg.solve(Q_u + B.T @ H @ B, B.T @ H @ A)
    F = A - B @ K
    if spectral_radius(F) >= 1.0:
        raise NumericalError("Riccati gain does not stabilize the model")
    M = Q_x + K.T @ Q_u @ K
    P = np.linalg.solve(np.eye(n * n) - np.kron(F.T, F.T), M.ravel()).reshape(n, n)
    P = 0.5 * (P + P.T)
    K = np.linalg.solve(Q_u + B.T @ P @ B, B.T @ P @ A)
    if spectral_radius(A - B @ K) >= 1.0:
        raise NumericalError("Riccati gain does not stabilize the model")
    return K, P


def former_rise_time(A, B, K, C, h, max_steps=500_000):
    """Reference rise time: the block evaluation as it was before each
    crossing search tested the block maximum first."""
    A, B = lqr._state_input(A, B)
    K = np.atleast_2d(np.asarray(K, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    A_cl = A - B @ K
    if spectral_radius(A_cl) >= 1.0:
        raise NumericalError("closed loop is not asymptotically stable")
    g0 = (C @ np.linalg.solve(np.eye(n) - A_cl, B)).item()
    if abs(g0) < 1e-12:
        raise NumericalError("closed loop has (near) zero DC gain")
    b = B[:, 0] * (1.0 / g0)
    rows = C[:1]
    A_pow, b_sum = A_cl, b
    for _ in range(10):
        rows = np.vstack([rows, rows @ A_pow])
        b_sum = b_sum + A_pow @ b_sum
        A_pow = A_pow @ A_pow
    ramp = np.cumsum(rows @ b)
    rows = np.vstack([rows[1:], C[0] @ A_pow])

    def crossing(y, y_prev, level, k0):
        hit = np.flatnonzero(y >= level)
        if hit.size == 0:
            return None
        j = int(hit[0])
        before = y[j - 1] if j else y_prev
        return h * (k0 + j + (level - before) / (y[j] - before))

    x, y_prev, t10 = np.zeros(n), 0.0, None
    for k0 in range(0, max_steps, ramp.size):
        L = min(ramp.size, max_steps - k0)
        y = rows[:L] @ x + ramp[:L]
        if t10 is None:
            t10 = crossing(y, y_prev, 0.1, k0)
        t90 = crossing(y, y_prev, 0.9, k0)
        if t90 is not None:
            return float(t90 - t10)
        y_prev = y[-1]
        x = A_pow @ x + b_sum
    raise NumericalError("step response did not reach 90% (non-settling)")


def former_linear_rollouts(A, B, n_samples=600, n_obs=None, episode_len=20,
                           explore=0.1, seed=0):
    """Reference rollout source: the block evaluation as it was before the
    draws were kept, with a ``random.Random`` fresh from the seed and a
    ``uniform`` noise draw on every call."""
    A, B = lqr._state_input(A, B)
    n_full, m = B.shape
    n_obs = n_full if n_obs is None else n_obs

    def source(K):
        K = np.atleast_2d(np.asarray(K, dtype=float))
        amp = explore * max(1.0, float(np.abs(K).max()))
        n_ep = max(1, math.ceil(n_samples / episode_len))
        rng = random.Random(seed)
        x0 = np.zeros((n_ep, n_full))
        x0[:, :n_obs] = start_states(rng, n_ep, n_obs)
        E = random_draws(rng, lambda r: r.uniform(-amp, amp), (episode_len, n_ep, m))
        states = lqr._block_states(A - B @ lqr._pad_gain(K, n_full), B, x0, E)
        if not np.abs(states[1:]).max() <= 1e6:
            step = np.flatnonzero(~(np.abs(states[1:]).max(axis=(1, 2)) <= 1e6))[0]
            raise PolicyIterationError(
                f"rollout diverged at step {step + 1} (unstable policy)")
        Xc = states[:-1, :, :n_obs].reshape(-1, n_obs)[:n_samples]
        Uc = E.reshape(-1, m)[:n_samples] - Xc @ K.T
        Xnc = states[1:, :, :n_obs].reshape(-1, n_obs)[:n_samples]
        return Xc, Uc, Xnc

    return source


def former_factorize(start):
    """Reference :meth:`lqr._CachedStart.factorize`: each regressor row
    formed in five passes as (z_i c) z_j - (zn_i c) zn_j, with the factor
    c = 1 on the diagonal and 2 off it, then G^-1 as shipped."""
    Z, Zn, psi, row = start.Z, start.Zn, start.psi, start.row
    factor = np.where(start.I == start.J, 1.0, 2.0)
    for k, (i, j, c) in enumerate(zip(start.I, start.J, factor)):
        np.multiply(Z[i], c, out=psi[k])
        psi[k] *= Z[j]
        np.multiply(Zn[i], c, out=row)
        row *= Zn[j]
        psi[k] -= row
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
    Li = np.linalg.inv(L)
    start.G_inv = (Li.T @ Li) * s * s[:, None]


def former_find_boundary(margin, lo, g_lo, hi, g_hi, max_evals):
    """Reference boundary search: Brent's zero finder as it was before
    its first step bisected, interpolating from the first step on."""
    delta = 0.5 * lqr.BOUNDARY_TOL
    cur, g_cur, blk, g_blk = hi, g_hi, lo, g_lo
    if abs(g_blk) < abs(g_cur):
        cur, g_cur, blk, g_blk = blk, g_blk, cur, g_cur
    pre, g_pre = blk, g_blk
    s_pre = s_cur = cur - pre
    for _ in range(max_evals):
        if hi - lo < lqr.BOUNDARY_TOL or g_hi == 0.0:
            break
        s_bis = 0.5 * (blk - cur)
        x = 0.5 * (lo + hi)
        s_try = 0.0
        if (abs(s_pre) > delta and abs(g_cur) < abs(g_pre)
                and math.isfinite(g_pre) and math.isfinite(g_blk)):
            if pre == blk:
                s_try = -g_cur * (cur - pre) / (g_cur - g_pre)
            else:
                d_pre = (g_pre - g_cur) / (pre - cur)
                d_blk = (g_blk - g_cur) / (blk - cur)
                q = d_blk * d_pre * (g_blk - g_pre)
                if q != 0.0:
                    s_try = -g_cur * (g_blk * d_blk - g_pre * d_pre) / q
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


def assert_rollouts_match(source, reference, gains, rel):
    """Both sources raise under the same gains, and otherwise agree within
    ``rel`` of the reference's largest entry (0: bit for bit)."""
    for K in gains:
        try:
            want = reference(K)
        except PolicyIterationError:
            with pytest.raises(PolicyIterationError):
                source(K)
            continue
        got = source(K)
        scale = max(np.abs(w).max() for w in want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= rel * scale


def rollout_or_raised(source, K):
    """The batch of one call, or "raised" for a diverging rollout."""
    try:
        return source(K)
    except PolicyIterationError:
        return "raised"


def phi(Z):
    """Sample-major quadratic feature rows for z = [x; u]: z_i^2 and
    2 z_i z_j (i < j), one row per sample."""
    I, J = np.triu_indices(Z.shape[1])
    # In place, so the regression holds one fewer N x p temporary.
    features = Z[:, I]
    features *= np.where(I == J, 1.0, 2.0)
    features *= Z[:, J]
    return features


def einsum_stage(Q_x, Q_u, X, U):
    """Reference stage cost of sample-major batches (N, n) and (N, m)."""
    return (np.einsum("ki,ij,kj->k", X, Q_x, X)
            + np.einsum("ki,ij,kj->k", U, Q_u, U))


def stage(Q_x, Q_u, X, U):
    """The shipped stage cost x' Q_x x + u' Q_u u of batches (N, n) and (N, m)."""
    return lqr._quadratic_form(X, Q_x) + lqr._quadratic_form(U, Q_u)


def refined_normal_equations(psi, rho):
    """Reference least-squares solve of psi theta = rho for a sample-major
    N x p matrix: the Gram matrix psi' psi, equilibrated to unit diagonal,
    a Cholesky solve and one refinement step with the residual.  Raises
    EstimationError for a zero column, or for an equilibrated Gram matrix
    with reciprocal condition number at most eps or no Cholesky factor."""
    G = psi.T @ psi
    g = np.diag(G)
    if not (g > 0.0).all():
        raise EstimationError("zero regressor")
    s = 1.0 / np.sqrt(g)
    Gs = G * s * s[:, None]
    w = np.linalg.eigvalsh(Gs)
    try:
        L = np.linalg.cholesky(Gs)
    except np.linalg.LinAlgError:
        L = None
    if L is None or not w[0] > w[-1] * np.finfo(float).eps:
        raise EstimationError("singular normal equations")
    Li = np.linalg.inv(L)
    G_inv = (Li.T @ Li) * s * s[:, None]
    # A matrix-vector product rounds by memory layout (a Gram product
    # does not), so these are taken on the feature-major copy of psi.
    psi_t = np.ascontiguousarray(psi.T)
    theta = G_inv @ (psi_t @ rho)
    theta += G_inv @ (psi_t @ (rho - theta @ psi_t))
    return theta


def sample_major_policy_iteration(rollout_source, K0, Q_x, q_u, max_iters=50, tol=1e-6,
                                  check_first=True, split_first=True):
    """Reference policy iteration on the sample-major regression, with the
    einsum stage cost for Q_u = q_u I.  With ``split_first`` the first step
    is the shipped theta_x + q_u theta_u of the batch under K0, else the
    direct regression of that batch for the whole cost.  With
    ``check_first`` it has the shipped control flow: a converged gain is
    returned without its rollout.  Without it each improved gain's data
    are collected before the convergence check, so the last batch goes
    unused."""
    K = np.atleast_2d(np.asarray(K0, dtype=float)).copy()
    m, n = K.shape
    Q_u = q_u * np.eye(m)
    data = rollout_source(K)
    for i in range(max_iters):
        X, U, Xn = data
        psi = phi(np.hstack([X, U])) - phi(np.hstack([Xn, -(Xn @ K.T)]))
        if i == 0 and split_first:
            theta_x = refined_normal_equations(psi, np.einsum("ki,ij,kj->k", X, Q_x, X))
            theta_u = refined_normal_equations(psi, np.einsum("ki,ij,kj->k", U, np.eye(m), U))
            theta = theta_x + q_u * theta_u
        else:
            theta = refined_normal_equations(psi, einsum_stage(Q_x, Q_u, X, U))
        K_new = lqr._greedy_gain(theta, n, m)
        for _ in range(8):
            if check_first and np.abs(K_new - K).max() < tol:
                return K_new
            try:
                data = rollout_source(K_new)
                break
            except PolicyIterationError:
                K_new = 0.5 * (K + K_new)
        else:
            raise PolicyIterationError("improved policy diverges even after step damping")
        step = np.abs(K_new - K).max()
        K = K_new
        if step < tol:
            break
    return K


collect_then_check_policy_iteration = functools.partial(sample_major_policy_iteration,
                                                        check_first=False)


def random_cost(rng, n, m):
    """(Q_x, Q_u): a dense PSD Q_x of random rank and a dense PD Q_u."""
    G = rng.normal(size=(n, int(rng.integers(1, n + 1))))
    H = rng.normal(size=(m, m))
    return G @ G.T, H @ H.T + 0.1 * np.eye(m)


def fixed_start(X, U, Xn, K0, Q_x):
    """A start on one fixed batch, collected under K0.  Singular normal
    equations stay in its ``error``, as every start keeps them; any other
    failure of the batch raises."""
    start = lqr._CachedStart(lambda K: (X, U, Xn), K0, Q_x)
    if start.error is not None and not isinstance(start.error, EstimationError):
        raise start.error
    return start


def policy_iteration_from(rollout_source, K0, Q_x, q_u, max_iters=50):
    """The gain of the shipped policy iteration from a start built on the
    source."""
    start = lqr._CachedStart(rollout_source, K0, Q_x)
    K, *_ = lqr.lqrl_policy_iteration(start, q_u, max_iters=max_iters)
    return K


class CountingSource:
    """Rollout source wrapper that counts its calls; from call ``fail_at``
    on (1-based) it raises as a diverging rollout would."""

    def __init__(self, source, fail_at=None):
        self.source, self.fail_at, self.calls = source, fail_at, 0

    def __call__(self, K):
        self.calls += 1
        if self.fail_at is not None and self.calls >= self.fail_at:
            raise PolicyIterationError("rollout diverged (unstable policy)")
        return self.source(K)


def zoh_reference(A, B, h):
    """Zero-order-hold blocks from scipy's matrix exponential."""
    n = A.shape[0]
    M = np.zeros((n + B.shape[1],) * 2)
    M[:n, :n], M[:n, n:] = A * h, B * h
    E = scipy.linalg.expm(M)
    return E[:n, :n], E[:n, n:]


def cascade_reference(A, B, h):
    """Zero-order-hold blocks from a 50-digit mpmath exponential of the
    float matrix [[A h, B h], [0, 0]]."""
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n], M[:n, n:] = A * h, B * h
    with mpmath.workdps(50):
        E = np.array(mpmath.expm(mpmath.matrix(M.tolist())).tolist(), dtype=float)
    return E[:n, :n], E[:n, n:]


def random_cascade(rng, n, kind, near_gap):
    """Diagonal of an n-block cascade with unit scale: distinct entries,
    entries repeated from two values, or entries within ``near_gap`` of one."""
    d = rng.normal(size=n)
    if kind == "repeated":
        d = rng.choice(d[:2], size=n)
    elif kind == "near":
        d = d[0] + near_gap * rng.normal(size=n)
    return d


CASCADE_KINDS = ("distinct", "repeated", "near")


def bisection_boundary(margin, lo, g_lo, hi, g_hi, max_evals=60):
    """Reference boundary search: the fixed-count bisection on feasibility
    (margin <= 0), returning the last feasible midpoint, or ``hi``."""
    for _ in range(max_evals):
        mid = 0.5 * (lo + hi)
        if margin(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def monotone_margin(shape, root, slope, bend):
    """Synthetic margin decreasing through 0 at ``root``: feasible above."""
    if shape == "linear":
        return lambda x: slope * (root - x)
    if shape == "kinked":
        # Two constraints; the second one activates further down.
        inner = root - bend
        return lambda x: max(slope * (root - x),
                             math.exp(2.0 * (inner - x)) - 1.0)
    if shape == "exponential":
        return lambda x: math.expm1((1.0 + bend) * slope ** 0.25 * (root - x))
    return lambda x: math.tanh(slope * (root - x)) + 0.01 * (root - x) ** 3


class BracketWatch:
    """Margin wrapper that records the evaluated points and checks that
    each lies strictly inside the bracket the evaluations so far leave."""

    def __init__(self, margin, lo, hi):
        self.margin, self.lo, self.hi, self.points = margin, lo, hi, []

    def __call__(self, x):
        assert self.lo < x < self.hi
        self.points.append(x)
        g = self.margin(x)
        if g <= 0.0:
            self.hi = x
        else:
            self.lo = x
        return g


def one_call_sensitivity_metrics(A, B, K, h, n_freq=2048):
    """Reference loop-shape metric: the former one-call form, which built
    the frequency grid and solved (zI-A)^{-1}B for every gain."""
    A, B = lqr._state_input(A, B)
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


# The tau order of the acceptance suite's six-tau ladder (c02 and c03).
LADDER = (0.2, 0.1, 0.05, 0.02, 0.01, 0.0)


def ladder_route(method, seed, tau):
    """(route, plant, response) of ``method`` at ``tau`` as the ladder sweep
    of ``seed`` builds them: the tau's seeds are the k-th getrandbits(32)
    pair of random.Random(seed), k its place in LADDER."""
    rng = random.Random(seed)
    for _ in range(LADDER.index(tau) + 1):
        seeds = rng.getrandbits(32), rng.getrandbits(32)
    plant = lqr.servo_plant(tau)
    A, B, _ = plant
    route = lqr.ROUTES[method](A, B, np.diag([1.0, 0.0]), seeds)
    return route, plant, lqr.loop_response(A, B, 0.1)


def scaled_matrix(rng, n, radius):
    """Random n x n matrix scaled to the given spectral radius."""
    A = rng.normal(size=(n, n))
    return A * (radius / spectral_radius(A))


class TestStateSpace:
    def test_exact_recovery(self, rng):
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        B = np.array([[0.0], [0.5]])
        U = rng.standard_normal((300, 1))
        X = np.zeros((301, 2))
        for k in range(300):
            X[k + 1] = A @ X[k] + B[:, 0] * U[k, 0]
        A_hat, B_hat = lqr.estimate_ss(X[:-1], U, X[1:])
        np.testing.assert_allclose(A_hat, A, atol=1e-10)
        np.testing.assert_allclose(B_hat, B, atol=1e-10)

    def test_explicit_next_state_form(self, rng):
        A = np.array([[0.7]])
        B = np.array([[0.3]])
        X = rng.standard_normal((100, 1))
        U = rng.standard_normal((100, 1))
        Xn = X @ A.T + U @ B.T
        A_hat, B_hat = lqr.estimate_ss(X, U, Xn)
        np.testing.assert_allclose(A_hat, A, atol=1e-12)
        np.testing.assert_allclose(B_hat, B, atol=1e-12)

    def test_rank_deficiency_raises(self):
        X = np.ones((50, 2))
        U = np.ones((50, 1))
        with pytest.raises(EstimationError):
            lqr.estimate_ss(X[:-1], U[:-1], X[1:])


class TestC2d:
    def test_double_integrator(self):
        Ac = np.array([[0.0, 1.0], [0.0, 0.0]])
        Bc = np.array([[0.0], [1.0]])
        Ad, Bd = lqr.c2d_zoh(Ac, Bc, 0.1)
        np.testing.assert_allclose(Ad, [[1.0, 0.1], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(Bd, [[0.005], [0.1]], atol=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(a=st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-50.0, 50.0)),
           b=st.floats(-10.0, 10.0), h=st.floats(1e-3, 2.0))
    @example(a=-2.0, b=3.0, h=0.5)
    @example(a=5e-13, b=2.0, h=0.1)
    def test_scalar_exponential(self, a, b, h):
        # The gain-schedule node dv/dt = a v + b u, down to the integrator.
        Ad, Bd = lqr.c2d_zoh([[a]], [[b]], h)
        assert Ad[0, 0] == math.exp(a * h)
        if a == 0.0:
            assert Bd[0, 0] == b * h
        else:
            with mpmath.workdps(40):
                want = float(b * mpmath.expm1(mpmath.mpf(a) * h) / a)
            # abs: b h may be subnormal, with fewer significant digits.
            assert Bd[0, 0] == pytest.approx(want, rel=1e-13, abs=1e-307)

    def test_bad_sample_time(self):
        with pytest.raises(ValueError):
            lqr.c2d_zoh([[0.0]], [[1.0]], 0.0)

    @pytest.mark.parametrize("A, B", [
        ([[-1.0, 0.0], [1.0, -2.0]], [[0.0], [1.0]]),           # below the diagonal
        ([[0.0, 1.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, -2.0]],
         [[0.0], [0.0], [1.0]]),                                # second superdiagonal
        ([[0.0, 1.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]),  # two inputs
        ([[0.0, 1.0], [0.0, -1.0]], [[1.0], [1.0]]),            # input on a middle state
    ])
    def test_rejects_non_cascades(self, A, B):
        with pytest.raises(ValueError, match="bidiagonal"):
            lqr.c2d_zoh(A, B, 0.1)

    @pytest.mark.parametrize("tau", [1e-40, 1e-60, 1e-300])
    def test_non_finite_exponential_raises(self, tau):
        # A lag far below h gives the instantaneous-actuator limit: the
        # modelled block is the tau = 0 plant, the actuator state is u.
        A, B, _ = lqr.servo_plant(tau, h=0.1)
        A_ref, B_ref, _ = lqr.servo_plant(0.0, h=0.1)
        assert np.abs(A[:2, :2] - A_ref).max() <= 1e-15
        assert np.abs(B[:2] - B_ref).max() <= 1e-15
        assert np.abs(A[:2, 2]).max() <= 1e-15
        np.testing.assert_array_equal(np.hstack([A[2], B[2]]), [0.0, 0.0, 0.0, 1.0])
        # Once 1/tau overflows the exponential is not finite.
        with pytest.raises(NumericalError, match=r"h=0\.1"):
            lqr.servo_plant(5e-324, h=0.1)

    @settings(max_examples=300, deadline=None)
    @given(tau=st.one_of(st.just(0.0), st.floats(-30.0, 1.0).map(lambda e: 10.0 ** e)))
    @example(tau=1e-30)
    @example(tau=1e-12)
    @example(tau=10.0)
    def test_servo_plant_matches_scipy(self, tau):
        # Every servo plant is a cascade; the actuator mode -1/tau reaches
        # -1e31 h at tau = 1e-30.
        A, B, _ = lqr.servo_plant(tau, h=0.1)
        if tau == 0.0:
            Ac, Bc = np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([[0.0], [1.0]])
        else:
            Ac = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0 / tau]])
            Bc = np.array([[0.0], [0.0], [1.0 / tau]])
        Ad, Bd = zoh_reference(Ac, Bc, 0.1)
        np.testing.assert_allclose(A, Ad, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(B, Bd, rtol=0.0, atol=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5), kind=st.sampled_from(CASCADE_KINDS),
           norm=st.floats(0.0, 50.0), log_gap=st.floats(-14.0, 0.0),
           log_h=st.floats(-3.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_cascade_matches_mpmath(self, n, kind, norm, log_gap, log_h, seed):
        # scipy's expm loses digits on repeated and near-repeated diagonals,
        # so the oracle is a 50-digit exponential.
        rng = np.random.default_rng(seed)
        h = 10.0 ** log_h
        d = random_cascade(rng, n, kind, 10.0 ** log_gap)
        A = (np.diag(d) + np.diag(rng.normal(size=n - 1), 1)) * (norm / h)
        B = np.zeros((n, 1))
        B[-1, 0] = rng.normal()
        Ad, Bd = lqr.c2d_zoh(A, B, h)
        Ad_ref, Bd_ref = cascade_reference(A, B, h)
        scale = max(np.abs(Ad_ref).max(), np.abs(Bd_ref).max())
        assert np.abs(Ad - Ad_ref).max() <= 1e-10 * scale
        assert np.abs(Bd - Bd_ref).max() <= 1e-10 * scale


class TestDare:
    def test_scalar_golden_ratio(self):
        # P = 1 + P - P^2/(1+P) has the golden ratio as its fixed point.
        K, P = lqr.dare_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        phi = 0.5 * (1.0 + math.sqrt(5.0))
        assert P[0, 0] == pytest.approx(phi, rel=1e-9)
        assert K[0, 0] == pytest.approx(phi / (1.0 + phi), rel=1e-9)

    def test_fixed_point_residual(self):
        A = np.array([[1.01, 0.1], [0.0, 0.98]])
        B = np.array([[0.0], [1.0]])
        Qx = np.diag([1.0, 0.5])
        Qu = np.array([[0.1]])
        K, P = lqr.dare_solve(A, B, Qx, Qu)
        G = Qu + B.T @ P @ B
        resid = Qx + A.T @ P @ A - (A.T @ P @ B) @ np.linalg.solve(G, B.T @ P @ A) - P
        assert np.abs(resid).max() < 1e-8
        np.testing.assert_allclose(K, np.linalg.solve(G, B.T @ P @ A), atol=1e-10)
        assert spectral_radius(A - B @ K) < 1.0

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 3), log_qu=st.floats(-6.0, 6.0),
           radius=st.one_of(st.floats(0.2, 0.97), st.floats(1.03, 1.5)),
           seed=st.integers(0, 2**32 - 1))
    # Cheap control: without its Newton step the doubling is 1.6e-6 off here.
    @example(n=3, log_qu=-5.989312873760802, radius=1.2670131498881478,
             seed=406219508)
    def test_gain_matches_fixed_point_iteration(self, n, log_qu, radius, seed):
        # Stable and unstable open loops, cheap to expensive control.  A
        # poorly controllable pair makes the equation itself ill-conditioned
        # (|P| up to 1e8 for Q_x = I): there any two solvers, scipy's
        # included, differ by up to 1e-7.
        rng = np.random.default_rng(seed)
        A = scaled_matrix(rng, n, radius)
        B = rng.normal(size=(n, 1))
        Q_x, Q_u = np.eye(n), np.array([[10.0 ** log_qu]])
        K, P = lqr.dare_solve(A, B, Q_x, Q_u)
        assume(np.abs(P).max() < 1e5)
        K_ref = fixed_point_dare_gain(A, B, Q_x, Q_u)
        assert np.abs(K - K_ref).max() <= 1e-8 * np.abs(K_ref).max()
        np.testing.assert_array_equal(P, P.T)

    def test_uncontrollable_unstable_mode_diverges(self):
        A = np.diag([2.0, 0.5])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(NumericalError):
            lqr.dare_solve(A, B, np.eye(2), [[1.0]])

    def test_one_system_in_gives_one_system_out(self):
        A = np.array([[1.01, 0.1], [0.0, 0.98]])
        K, P = lqr.dare_solve(A, [0.0, 1.0], np.eye(2), [[0.1]])
        assert (K.shape, P.shape) == ((1, 2), (2, 2))
        K_s, P_s = lqr.dare_solve(A[None], np.array([[[0.0], [1.0]]]), np.eye(2), [[0.1]])
        assert (K_s.shape, P_s.shape) == ((1, 1, 2), (1, 2, 2))
        np.testing.assert_array_equal(K_s[0], K)
        np.testing.assert_array_equal(P_s[0], P)

    def test_converged_systems_leave_the_doubling(self):
        # A fast and a slow system: the stack's doubling solves shrink to
        # the slow one after the fast one's own number of doublings, and
        # the gain, stability, Stein, refined-gain and stability solves run
        # on both again.
        A, B = np.array([[[0.5]], [[1.0]]]), np.array([[[1.0]], [[1e-3]]])

        def solves(A, B):
            """Shapes of the left-hand sides that dare_solve solves with."""
            with mock.patch.object(lqr.np.linalg, "solve", wraps=np.linalg.solve) as spy:
                lqr.dare_solve(A, B, [[1.0]], [[1.0]])
            return [c.args[0].shape for c in spy.call_args_list]

        # A call solves once to start, once per doubling and five times after.
        fast, slow = (len(solves(A[i], B[i])) - 6 for i in (0, 1))
        assert fast < slow
        stacked = [shape[0] for shape in solves(A, B)[1:]]
        assert stacked == [2] * fast + [1] * (slow - fast) + [2] * 5

    @pytest.mark.parametrize("A_shape, B_shape", [((3, 2, 2), (2, 2, 1)),
                                                  ((3, 2, 2), (2, 1)),
                                                  ((2, 2), (3, 2, 1))])
    def test_stacks_of_different_sizes_are_refused(self, A_shape, B_shape):
        A = np.broadcast_to(0.5 * np.eye(2), A_shape)
        with pytest.raises(ValueError, match="stacks of one size"):
            lqr.dare_solve(A, np.ones(B_shape), np.eye(2), [[1.0]])


def near_unit_circle(rng, n, superdiag, k, sign):
    """A random n x n matrix plus ``superdiag`` on its superdiagonal, scaled
    to spectral radius 1 + sign 10^-k."""
    F = rng.normal(size=(n, n)) + np.diag(np.full(n - 1, superdiag), 1)
    return F * ((1.0 + sign * 10.0 ** -k) / spectral_radius(F))


class TestSchurStable:
    """``lqr.schur_stable`` against the eigenvalue verdict spectral_radius < 1."""

    @settings(max_examples=500, deadline=None)
    @given(n=st.integers(1, 3), stack=st.integers(0, 3),
           log_superdiag=st.one_of(st.none(), st.floats(0.0, 3.0)), k=st.integers(2, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_eigenvalue_verdict(self, n, stack, log_superdiag, k, seed):
        # Normal-range matrices and strongly non-normal ones (superdiagonal
        # up to 1e3), each member of a stack 10^-k inside or outside the
        # unit circle; a stack is stable when every member is.
        rng = np.random.default_rng(seed)
        superdiag = 0.0 if log_superdiag is None else 10.0 ** log_superdiag
        mats = [near_unit_circle(rng, n, superdiag, k, rng.choice((-1.0, 1.0)))
                for _ in range(max(stack, 1))]
        F = np.array(mats) if stack else mats[0]
        assert lqr.schur_stable(F) is all(spectral_radius(M) < 1.0 for M in mats)

    @pytest.mark.parametrize("F, stable", [
        ([[0.5]], True),
        ([[1.0]], False),                      # lambda^2 = 1: singular Kronecker matrix
        ([[0.0, -1.0], [1.0, 0.0]], False),    # eigenvalues +-i
        ([[0.9, 1e3], [0.0, 0.9]], True),      # large transient, stable
        ([[np.nan]], False),
        ([[np.inf, 0.0], [0.0, 0.5]], False),
        ([[[0.5]], [[1.5]]], False),           # one unstable member of a stack
        ([[[0.5]], [[-0.99]]], True),
    ])
    def test_cases(self, F, stable):
        assert lqr.schur_stable(np.array(F)) is stable


class TestCostAndQTheta:
    def test_stage_batches(self, rng):
        Q_x, Q_u = np.diag([1.0, 2.0]), np.array([[0.5]])
        X = rng.standard_normal((7, 2))
        U = rng.standard_normal((7, 1))
        want = [x @ Q_x @ x + u @ Q_u @ u for x, u in zip(X, U)]
        np.testing.assert_allclose(stage(Q_x, Q_u, X, U), want, rtol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 2), N=st.integers(1, 80),
           zero_states=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_stage_equals_einsum(self, n, m, N, zero_states, seed):
        # Bit for bit on C-ordered batches and on feature-major views, the
        # layout policy iteration passes.  For N <= 2 samples einsum itself
        # sums in an order that depends on the layout (an F-ordered copy of
        # the batch can give other bits), so there the two agree to
        # rounding; a regression needs N >= p >= 3 samples anyway.  With
        # zero_states some states carry zero weights, as in the sweep's
        # Q_x = diag(1, 0), and the stage cost skips their terms.
        rng = np.random.default_rng(seed)
        Q_x, Q_u = random_cost(rng, n, m)
        if zero_states:
            keep = rng.random(n) < 0.5
            Q_x = Q_x * keep * keep[:, None]
        X = rng.normal(size=(N, n)) * 10.0 ** rng.uniform(-4.0, 4.0, size=n)
        U = rng.normal(size=(N, m)) * 10.0 ** rng.uniform(-4.0, 4.0, size=m)
        Z = np.vstack([X.T, U.T])
        want = einsum_stage(Q_x, Q_u, X, U)
        magnitude = (np.einsum("ki,ij,kj->k", abs(X), abs(Q_x), abs(X))
                     + np.einsum("ki,ij,kj->k", abs(U), abs(Q_u), abs(U)))
        bound = 8 * np.finfo(float).eps * magnitude
        for got in (stage(Q_x, Q_u, X, U), stage(Q_x, Q_u, Z[:n].T, Z[n:].T)):
            if N >= 3:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= bound)

    def test_greedy_gain_reads_the_upper_triangle(self):
        # n=2, m=1: upper triangle row-major [S00 S01 S02 S11 S12 S22], so
        # S_xu = [[3], [5]] and S_uu = [[2]] give K = [[1.5, 2.5]]; S_xx
        # does not enter the gain.
        theta = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 2.0])
        np.testing.assert_array_equal(lqr._greedy_gain(theta, 2, 1), [[1.5, 2.5]])
        with pytest.raises(ValueError):
            lqr._greedy_gain(theta[:-1], 2, 1)

    def test_greedy_gain_needs_a_positive_definite_input_block(self):
        # n=1, m=2: [S00 S01 S02 S11 S12 S22] with S_uu = [[4, 2], [2, 4]].
        theta = np.array([1.0, 4.0, 6.0, 4.0, 2.0, 4.0])
        np.testing.assert_allclose(lqr._greedy_gain(theta, 1, 2), [[1 / 3], [4 / 3]])
        for S_uu in ([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0]):   # indefinite, singular
            with pytest.raises(PolicyIterationError):
                lqr._greedy_gain(np.array([1.0, 4.0, 6.0, *S_uu]), 1, 2)


class TestPolicyIteration:
    def test_exact_data_reaches_riccati_gain(self):
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        K_star, _ = lqr.dare_solve(A, B, np.eye(2), [[1.0]])
        start = lqr._CachedStart(lqr.linear_rollouts(A, B, seed=3), np.zeros((1, 2)),
                                 np.eye(2))
        K, *_ = lqr.lqrl_policy_iteration(start, 1.0)
        assert np.abs(K - K_star).max() < 1e-6

    # Every call converges and saves the rollout under its converged gain;
    # at tau = 0.2 the hidden actuator state slows the iteration to 12
    # collections.
    @pytest.mark.parametrize("tau, q_u, seed, saved", [
        (0.0, 1.0, 3, 1), (0.0, 1e-3, 5, 1), (0.0, 100.0, 8675, 1),
        (0.2, 100.0, 3, 1)])
    def test_converged_gain_skips_its_rollout(self, tau, q_u, seed, saved):
        A, B, _ = lqr.servo_plant(tau)
        runs = []
        for policy_iteration in (policy_iteration_from,
                                 collect_then_check_policy_iteration):
            source = CountingSource(lqr.linear_rollouts(
                A, B, n_samples=2400, n_obs=2, episode_len=400, seed=seed))
            K = policy_iteration(source, np.array([[1.0, 1.0]]), np.diag([1.0, 0.0]), q_u)
            runs.append((K, source.calls))
        (K, calls), (K_ref, calls_ref) = runs
        assert np.array_equal(K, K_ref)
        assert calls == calls_ref - saved

    def test_converged_gain_is_returned_without_its_rollout(self):
        # The rollout under the converged gain would diverge: the reference
        # loop damps toward the previous gain eight times and raises, the
        # shipped loop never collects it.
        A, B, _ = lqr.servo_plant(0.0)

        def run(policy_iteration, fail_at=None):
            source = CountingSource(lqr.linear_rollouts(
                A, B, n_samples=2400, episode_len=400, seed=3), fail_at)
            K = policy_iteration(source, np.array([[1.0, 1.0]]), np.diag([1.0, 0.0]), 1.0)
            return K, source.calls

        K, calls = run(policy_iteration_from)
        K_failing, _ = run(policy_iteration_from, fail_at=calls + 1)
        assert np.array_equal(K_failing, K)
        with pytest.raises(PolicyIterationError, match="damping"):
            run(collect_then_check_policy_iteration, fail_at=calls + 1)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 2), episode_len=st.integers(2, 60),
           whole_episodes=st.booleans(), max_iters=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_sample_major_oracle(self, n, m, episode_len, whole_episodes,
                                        max_iters, seed):
        # Equal gains and rollout calls, or the same error, for
        # sample counts from below the p regressors (rank failure) up, as
        # whole episodes or with a partial last one; the costs have a
        # dense Q_x and Q_u = q I.
        rng = np.random.default_rng(seed)
        A = scaled_matrix(rng, n, rng.uniform(0.3, 0.95))
        B = rng.normal(size=(n, m))
        Q_x, _ = random_cost(rng, n, m)
        q = 10.0 ** rng.uniform(-1.0, 1.0)
        p = (n + m) * (n + m + 1) // 2
        n_samples = episode_len * int(rng.integers(1, 240 // episode_len + 2))
        if not whole_episodes:
            n_samples -= int(rng.integers(1, episode_len))
        runs = []
        for policy_iteration in (policy_iteration_from, sample_major_policy_iteration):
            source = CountingSource(lqr.linear_rollouts(
                A, B, n_samples=n_samples, episode_len=episode_len, seed=seed))
            try:
                K = policy_iteration(source, np.zeros((m, n)), Q_x, q, max_iters=max_iters)
            except (EstimationError, PolicyIterationError) as exc:
                runs.append((type(exc), source.calls))
            else:
                runs.append((K, source.calls))
        (K, calls), (K_ref, calls_ref) = runs
        assert calls == calls_ref
        if isinstance(K_ref, type):
            assert K is K_ref
            assert n_samples >= p or K_ref is EstimationError
            return
        assert np.array_equal(K, K_ref)

    @settings(max_examples=200, deadline=None)
    @given(n_full=st.integers(1, 4), m=st.integers(1, 2), log_explore=st.floats(-9.0, 0.0),
           log_scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_normal_equations_match_lstsq(self, n_full, m, log_explore, log_scale,
                                          seed):
        # Batches from well conditioned to singular: small exploration
        # leaves u close to -K x, and the states are scaled by up to 1e3
        # either way.  psi_s is psi with unit-norm rows and rcond the
        # reciprocal condition number of its normal equations.  lstsq on
        # psi_s and the refined normal equations differ by at most
        # 4 sqrt(N) p eps / rcond relative, and only a batch with rcond
        # below 8 p eps may raise.  Over 17,000 random batches (N up to
        # 3,000) the largest difference was 0.48 sqrt(N) p eps / rcond and
        # the largest rcond that raised 1.2 p eps.
        rng = np.random.default_rng(seed)
        n_obs = int(rng.integers(1, n_full + 1))
        p = (n_obs + m) * (n_obs + m + 1) // 2
        A = scaled_matrix(rng, n_full, rng.uniform(0.3, 0.95))
        B = rng.normal(size=(n_full, m))
        K = 0.3 * rng.normal(size=(m, n_obs))
        assume(spectral_radius(A - B @ lqr._pad_gain(K, n_full)) < 1.0)
        N = int(rng.integers(p, 3000))
        source = lqr.linear_rollouts(A, B, n_samples=N, n_obs=n_obs,
                                     episode_len=int(rng.integers(2, 40)),
                                     explore=10.0 ** log_explore, seed=seed)
        X, U, Xn = source(K)
        # Scaled states, with the gain that gives the same inputs.
        D = 10.0 ** rng.uniform(-log_scale, log_scale, size=n_obs)
        Q_x, Q_u = random_cost(rng, n_obs, m)
        start = fixed_start(X * D, U, Xn * D, K / D, Q_x)
        psi, rho = start.psi, stage(Q_x, Q_u, X * D, U)
        theta = None if start.error is not None else start.solve(rho)
        g = np.linalg.norm(psi, axis=1)
        eps = np.finfo(float).eps
        if not (g > 0.0).all():
            assert theta is None
            return
        sv = np.linalg.svd(psi.T / g, compute_uv=False)
        rcond = (sv[-1] / sv[0]) ** 2
        if theta is None:
            assert rcond <= 8 * p * eps
            return
        ref = np.linalg.lstsq(psi.T / g, rho, rcond=None)[0] / g
        err = np.linalg.norm(g * (theta - ref))
        assert err * rcond <= 4 * math.sqrt(N) * p * eps * np.linalg.norm(g * ref)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 2), log_explore=st.floats(-9.0, 0.0),
           log_scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_refinement_reaches_qr_accuracy_on_consistent_batches(
            self, n, m, log_explore, log_scale, seed):
        # With every state observed the batch is consistent: the exact
        # Q-function of K, S = [[Q_x + A'PA, A'PB], [B'PA, Q_u + B'PB]]
        # with P = Q_x + K'Q_u K + F'PF, solves the temporal-difference
        # system with zero residual, in the scaled states x D as
        # diag(1/D, 1) S diag(1/D, 1).  Where one refinement step has
        # converged, eps cond^(3/2) <= 1 or rcond >= eps^(2/3), the refined
        # solution is within 8 p eps / sqrt(rcond) = 8 p sqrt(eps)
        # sqrt(eps / rcond) of it, the accuracy of a QR solve; the
        # unrefined normal equations reach only about p eps / rcond.  Over
        # 5,800 random batches in that range the largest error was
        # 1.7 p eps / sqrt(rcond), and the unrefined solve exceeded 4 p eps
        # / sqrt(rcond) on 3,434.  rcond is that of psi_s' psi_s, psi_s the
        # regressors with unit-norm rows.
        rng = np.random.default_rng(seed)
        p = (n + m) * (n + m + 1) // 2
        A = scaled_matrix(rng, n, rng.uniform(0.3, 0.95))
        B = rng.normal(size=(n, m))
        K = 0.3 * rng.normal(size=(m, n))
        F = A - B @ K
        assume(spectral_radius(F) < 1.0)
        N = int(rng.integers(p, 3000))
        source = lqr.linear_rollouts(A, B, n_samples=N, episode_len=int(rng.integers(2, 40)),
                                     explore=10.0 ** log_explore, seed=seed)
        X, U, Xn = source(K)
        D = 10.0 ** rng.uniform(-log_scale, log_scale, size=n)
        Q_x, Q_u = random_cost(rng, n, m)
        start = fixed_start(X * D, U, Xn * D, K / D, Q_x)
        if start.error is not None:
            return
        theta = start.solve(stage(Q_x, Q_u, X, U))
        M = Q_x + K.T @ Q_u @ K
        P = np.linalg.solve(np.eye(n * n) - np.kron(F.T, F.T), M.ravel()).reshape(n, n)
        S = np.block([[Q_x + A.T @ P @ A, A.T @ P @ B],
                      [B.T @ P @ A, Q_u + B.T @ P @ B]])
        T = np.concatenate([1.0 / D, np.ones(m)])
        exact = (S * T * T[:, None])[np.triu_indices(n + m)]
        g = np.linalg.norm(start.psi, axis=1)
        sv = np.linalg.svd(start.psi.T / g, compute_uv=False)
        rcond = (sv[-1] / sv[0]) ** 2
        eps = np.finfo(float).eps
        assume(rcond >= eps ** (2.0 / 3.0))
        err = np.linalg.norm(g * (theta - exact))
        assert err * math.sqrt(rcond) <= 8 * p * eps * np.linalg.norm(g * exact)

    @settings(max_examples=200, deadline=None)
    @given(n_full=st.integers(1, 4), m=st.integers(1, 2), log_explore=st.floats(-9.0, 0.0),
           log_q=st.floats(-6.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_cached_start_splits_the_first_regression(self, n_full, m, log_explore,
                                                      log_q, seed):
        # The temporal-difference solution is linear in the stage cost, so
        # the cached theta_x + q theta_u of the K0 batch and the direct
        # refined regression of that batch for the cost with Q_u = q I
        # differ by rounding alone: at most 4 p eps cond(Gs) relative to
        # |theta_x| + q |theta_u| (norms weighted by the regressor norms),
        # cond(Gs) the condition number of the equilibrated normal
        # equations.  Over 5,100 random batches the largest difference was
        # 1.6 p eps cond(Gs).  A batch whose direct regression raises
        # makes every call from the start raise the same error.
        rng = np.random.default_rng(seed)
        n_obs = int(rng.integers(1, n_full + 1))
        p = (n_obs + m) * (n_obs + m + 1) // 2
        A = scaled_matrix(rng, n_full, rng.uniform(0.3, 0.95))
        B = rng.normal(size=(n_full, m))
        K0 = 0.3 * rng.normal(size=(m, n_obs))
        assume(spectral_radius(A - B @ lqr._pad_gain(K0, n_full)) < 1.0)
        N = int(rng.integers(p, 3000))
        source = lqr.linear_rollouts(A, B, n_samples=N, n_obs=n_obs,
                                     episode_len=int(rng.integers(2, 40)),
                                     explore=10.0 ** log_explore, seed=seed)
        q = 10.0 ** log_q
        Q_x, _ = random_cost(rng, n_obs, m)
        start = lqr._CachedStart(source, K0, Q_x)
        X, U, Xn = source(K0)
        direct = fixed_start(X, U, Xn, K0, Q_x)
        if direct.error is not None:
            with pytest.raises(EstimationError):
                lqr.lqrl_policy_iteration(start, q)
            return
        theta = direct.solve(stage(Q_x, q * np.eye(m), X, U))
        # The first step of every call from the start.
        cached = start.theta_x + q * start.theta_u
        g = np.linalg.norm(direct.psi, axis=1)
        w = np.linalg.eigvalsh((direct.psi / g[:, None]) @ (direct.psi / g[:, None]).T)
        scale = np.linalg.norm(g * start.theta_x) + q * np.linalg.norm(g * start.theta_u)
        err = np.linalg.norm(g * (cached - theta))
        assert err * w[0] <= 4 * p * np.finfo(float).eps * w[-1] * scale

    @pytest.mark.parametrize("tau, q_u, seed", [
        (0.0, 1.0, 3), (0.0, 1e-3, 5), (0.0, 100.0, 8675), (0.2, 100.0, 3)])
    def test_cached_start_call_reaches_the_plain_gain(self, tau, q_u, seed):
        # On one pure source a call from the start and the oracle whose
        # first step is the direct regression of the K0 batch differ only
        # in the rounding of that step, so their converged gains agree
        # within the bound of test_cached_start_splits_the_first_regression
        # (measured: at most 0.004 p eps cond(Gs) on these cases), and the
        # call collects one batch fewer: the one under K0, which the start
        # collected.
        A, B, _ = lqr.servo_plant(tau)
        Q_x, K0 = np.diag([1.0, 0.0]), np.array([[1.0, 1.0]])
        source = lqr.linear_rollouts(A, B, n_samples=2400, n_obs=2, episode_len=400,
                                     seed=seed)
        counted = CountingSource(source)
        start = lqr._CachedStart(counted, K0, Q_x)
        psi = start.psi
        g = np.linalg.norm(psi, axis=1)
        w = np.linalg.eigvalsh((psi / g[:, None]) @ (psi / g[:, None]).T)
        K, outcome, _ = lqr.lqrl_policy_iteration(start, q_u)
        calls = counted.calls - 1
        reference = CountingSource(source)
        K_ref = sample_major_policy_iteration(reference, K0, Q_x, q_u, split_first=False)
        calls_ref = reference.calls
        assert outcome == "converged"
        assert calls == calls_ref - 1
        p = 6
        assert (np.abs(K - K_ref).max() * w[0]
                <= 4 * p * np.finfo(float).eps * w[-1] * np.abs(K_ref).max())

    @pytest.mark.parametrize("K0, n_samples, error", [
        ([[-30.0, 0.0]], 2400, PolicyIterationError), ([[1.0, 1.0]], 5, EstimationError)])
    def test_failed_start_fails_every_call(self, K0, n_samples, error):
        # A start gain whose rollout diverges, or a batch too small for the
        # p = 6 regressors, fails every call from the start as it fails the
        # oracle.
        A, B, _ = lqr.servo_plant(0.0)
        Q_x = np.diag([1.0, 0.0])
        source = lqr.linear_rollouts(A, B, n_samples=n_samples, n_obs=2, episode_len=400,
                                     seed=1)
        start = lqr._CachedStart(source, K0, Q_x)
        for q_u in (1e-3, 1.0, 1e3):
            with pytest.raises(error):
                sample_major_policy_iteration(source, K0, Q_x, q_u)
            with pytest.raises(error) as raised:
                lqr.lqrl_policy_iteration(start, q_u)
            assert raised.value.ended == ("raised", 0)

    def test_each_call_returns_how_it_ended(self):
        A, B, _ = lqr.servo_plant(0.0)
        Q_x, K0 = np.diag([1.0, 0.0]), np.array([[1.0, 1.0]])
        source = lqr.linear_rollouts(A, B, n_samples=2400, n_obs=2, episode_len=400,
                                     seed=3)
        start = lqr._CachedStart(source, K0, Q_x)
        K, *ended = lqr.lqrl_policy_iteration(start, 1.0)
        assert ended == ["converged", 4]
        _, *ended = lqr.lqrl_policy_iteration(start, 1.0, max_iters=2)
        assert ended == ["max_iters", 2]
        # The start holds no state of its calls: the first call, repeated,
        # returns the same gain and ending.
        assert not hasattr(start, "outcome") and not hasattr(start, "iterations")
        K_again, *ended = lqr.lqrl_policy_iteration(start, 1.0)
        assert np.array_equal(K_again, K) and ended == ["converged", 4]
        # Every rollout after the start's diverges: the first improved
        # policy is damped eight times, and the call raises.
        failing = lqr._CachedStart(CountingSource(source, fail_at=2), K0, Q_x)
        with pytest.raises(PolicyIterationError, match="damping") as raised:
            lqr.lqrl_policy_iteration(failing, 1.0)
        assert raised.value.ended == ("raised", 1)

    def test_calls_from_a_start_reuse_its_buffers(self):
        # The buffers are sized once from the K0 batch: every call from the
        # start loads, factorizes and solves its later batches in them.
        A, B, _ = lqr.servo_plant(0.0)
        source = lqr.linear_rollouts(A, B, n_samples=2400, n_obs=2, episode_len=400,
                                     seed=3)
        start = lqr._CachedStart(source, np.array([[1.0, 1.0]]), np.diag([1.0, 0.0]))
        buffers = start.Z, start.Zn, start.psi, start.row
        assert [b.shape for b in buffers] == [(3, 2400), (3, 2400), (6, 2400), (2400,)]
        for q_u in (1.0, 1e-3, 100.0, 1.0):
            _, outcome, iterations = lqr.lqrl_policy_iteration(start, q_u)
            assert outcome == "converged" and iterations > 1
            assert all(a is b for a, b in zip((start.Z, start.Zn, start.psi, start.row),
                                               buffers))

    @pytest.mark.parametrize("n_samples, zero_state", [(1, False), (5, False), (50, True)])
    def test_singular_regression_raises_without_warnings(self, n_samples, zero_state):
        # n = 2 states and m = 1 input give p = 6 regressors: five samples
        # are too few, and a state that is zero on every sample zeroes
        # the regressors it enters.
        rng = np.random.default_rng(11)
        X, U, Xn = (rng.normal(size=(n_samples, k)) for k in (2, 1, 2))
        if zero_state:
            X[:, 1] = Xn[:, 1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = lqr._CachedStart(lambda K: (X, U, Xn), np.zeros((1, 2)), np.eye(2))
            with pytest.raises(EstimationError, match="more excitation required"):
                lqr.lqrl_policy_iteration(start, 1.0)

    def test_rollout_shapes_and_partial_observation(self):
        A = np.array([[0.9, 0.1], [0.0, 0.5]])
        B = np.array([[0.0], [1.0]])
        source = lqr.linear_rollouts(A, B, n_samples=55, n_obs=1, seed=0)
        X, U, Xn = source(np.array([[0.1]]))
        assert X.shape == (55, 1) and U.shape == (55, 1) and Xn.shape == (55, 1)

    def test_unstable_policy_rollout_raises(self):
        source = lqr.linear_rollouts([[3.0]], [[1.0]], n_samples=200, seed=0)
        with pytest.raises(PolicyIterationError):
            source(np.array([[0.0]]))

    @settings(max_examples=200, deadline=None)
    @given(n_full=st.integers(1, 3), m=st.integers(1, 2),
           episode_len=st.integers(1, 60), explore=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rollouts_equal_fresh_per_step_draws(self, n_full, m, episode_len,
                                                 explore, seed):
        # Every call, under each of four gains, sees the stream of a
        # generator fresh from the seed.  Gains up to 3 make some calls
        # diverge.  Block evaluation rounds differently from stepping, so
        # values agree norm-wise.
        rng = np.random.default_rng(seed)
        n_obs = int(rng.integers(1, n_full + 1))
        A = scaled_matrix(rng, n_full, rng.uniform(0.3, 1.2))
        B = rng.normal(size=(n_full, m))
        n_samples = int(rng.integers(1, 300))
        source = lqr.linear_rollouts(A, B, n_samples=n_samples, n_obs=n_obs,
                                     episode_len=episode_len, explore=explore, seed=seed)
        reference = stepping_rollouts(A, B, n_samples, n_obs, episode_len, explore, seed)
        gains = [rng.normal(size=(m, n_obs)) * rng.uniform(0.0, 3.0) for _ in range(4)]
        assert_rollouts_match(source, reference, gains, 1e-11)

    @settings(max_examples=100, deadline=None)
    @given(n_full=st.integers(1, 3), m=st.integers(1, 2),
           episode_len=st.integers(1, 60), explore=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rollouts_under_one_gain_are_identical(self, n_full, m, episode_len,
                                                   explore, seed):
        # The calls repeated in reverse order, after calls under other
        # gains (some diverging), return identical arrays or raise again.
        rng = np.random.default_rng(seed)
        n_obs = int(rng.integers(1, n_full + 1))
        A = scaled_matrix(rng, n_full, rng.uniform(0.3, 1.2))
        B = rng.normal(size=(n_full, m))
        source = lqr.linear_rollouts(A, B, n_samples=int(rng.integers(1, 300)), n_obs=n_obs,
                                     episode_len=episode_len, explore=explore, seed=seed)
        gains = [rng.normal(size=(m, n_obs)) * rng.uniform(0.0, 3.0) for _ in range(3)]
        first = [rollout_or_raised(source, K) for K in gains]
        again = [rollout_or_raised(source, K) for K in reversed(gains)][::-1]
        for got, want in zip(again, first):
            if isinstance(want, str):
                assert got == want
            else:
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    @settings(max_examples=200, deadline=None)
    @given(n_full=st.integers(1, 3), episode_len=st.integers(1, 60),
           explore=st.floats(0.02, 1.0), log_excess=st.floats(-4.0, 0.0),
           seed=st.integers(0, 2**32 - 1))
    def test_diverging_rollout_leaves_the_next_call_unchanged(
            self, n_full, episode_len, explore, log_excess, seed):
        # With A = 0, K = 0 and one input every state is a single product
        # B e, which block and per-step evaluation round alike, so values
        # agree bit for bit.  B (up to 1e8) puts the largest |B e| at
        # 1e6 (1 + 10^log_excess): under K = 0 some sources diverge and
        # some do not.  Calls under K = 0 alternate with calls under a
        # gain of 1e12, whose rollouts diverge at their first step, and
        # each must see the stream of a fresh generator.
        rng = np.random.default_rng(seed)
        n_obs = int(rng.integers(1, n_full + 1))
        A = np.zeros((n_full, n_full))
        B = rng.normal(size=(n_full, 1))
        B *= 1e6 * (1.0 + 10.0 ** log_excess) / (explore * np.abs(B).max())
        K, K_diverging = np.zeros((1, n_obs)), np.full((1, n_obs), 1e12)
        n_samples = int(rng.integers(1, 300))
        source = lqr.linear_rollouts(A, B, n_samples=n_samples, n_obs=n_obs,
                                     episode_len=episode_len, explore=explore, seed=seed)
        reference = stepping_rollouts(A, B, n_samples, n_obs, episode_len, explore, seed)
        assert_rollouts_match(source, reference, [K, K_diverging, K, K_diverging, K], 0.0)

    def test_source_draws_once_when_built(self):
        # A source builds one generator, when it is constructed, and its
        # calls under several gains build none, a diverging gain
        # included; they return the former source's batches (a fresh
        # random.Random and uniform draw per call) bit for bit, raising
        # where it raises.
        A, B, _ = lqr.servo_plant(0.2)
        calls = {2400: [[[1.0, 1.0]], [[0.5, 2.0]], [[-30.0, 0.0]], [[2.0, 0.3]],
                        [[1.0, 1.0]]],
                 1000: [[[0.5, 2.0]], [[3.0, 1.0]]]}
        for n_samples, gains in calls.items():
            former = former_linear_rollouts(A, B, n_samples, n_obs=2, episode_len=400,
                                            seed=5)
            want = [rollout_or_raised(former, np.array(K)) for K in gains]
            assert ("raised" in want) == (n_samples == 2400)
            with mock.patch("random.Random", wraps=random.Random) as generator:
                source = lqr.linear_rollouts(A, B, n_samples, n_obs=2, episode_len=400,
                                             seed=5)
                assert generator.call_count == 1
                got = [rollout_or_raised(source, np.array(K)) for K in gains]
            assert generator.call_count == 1
            for g, w in zip(got, want):
                if isinstance(w, str):
                    assert g == w
                else:
                    for g_part, w_part in zip(g, w):
                        np.testing.assert_array_equal(g_part, w_part)


class TestLoopMetrics:
    def test_sensitivity_peaks_of_delay_loop(self):
        # A=0 gives L(z) = k/z: |S| and |T| peak at the Nyquist point,
        # where |1 + L| = 1 - k.
        resp = lqr.loop_response([[0.0]], [[1.0]], h=0.1)
        m_s, m_t = lqr.sensitivity_metrics(resp, [[0.5]])
        assert m_s == pytest.approx(2.0, rel=1e-12)
        assert m_t == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, -3.0])
    def test_delay_loop_equals_one_call_metric(self, k):
        # k = 1 puts 1 + L within 1e-14 of zero at the Nyquist point, so
        # both peaks are infinite there.
        resp = lqr.loop_response([[0.0]], [[1.0]], h=0.1)
        got = lqr.sensitivity_metrics(resp, [[k]])
        want = one_call_sensitivity_metrics([[0.0]], [[1.0]], [[k]], 0.1)
        assert got == want
        assert (k == 1.0) == (got == (math.inf, math.inf))

    @settings(max_examples=200, deadline=None)
    @given(tau=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
           h=st.floats(0.01, 1.0), log_gain=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2**32 - 1))
    def test_servo_metrics_equal_one_call_metric(self, tau, h, log_gain, seed):
        # Large random gains destabilise the loop; the peaks of both forms
        # must still agree bit for bit.
        A, B, _ = lqr.servo_plant(tau, h)
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(1, A.shape[0])) * 10.0 ** log_gain
        resp = lqr.loop_response(A, B, h)
        got = lqr.sensitivity_metrics(resp, K)
        want = one_call_sensitivity_metrics(A, B, K, h)
        np.testing.assert_array_equal(got, want)

    def test_rise_time_first_order_lag(self):
        tau_d, h = 1.0, 0.001
        a = math.exp(-h / tau_d)
        t_r = lqr.rise_time([[a]], [[1.0 - a]], [[0.0]], [[1.0]], h)
        assert t_r == pytest.approx(math.log(9.0) * tau_d, rel=1e-5)

    def test_rise_time_guards(self):
        with pytest.raises(NumericalError):
            lqr.rise_time([[1.1]], [[1.0]], [[0.0]], [[1.0]], 0.1)
        with pytest.raises(NumericalError):
            lqr.rise_time([[0.5]], [[1.0]], [[0.0]], [[0.0]], 0.1)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 3), gap_decades=st.floats(0.05, 3.3),
           h=st.floats(0.01, 1.0), max_steps=st.integers(1, 20_000),
           seed=st.integers(0, 2**32 - 1))
    def test_rise_time_matches_stepping(self, n, gap_decades, h, max_steps, seed):
        # Closed-loop spectral radius 1 - 10^-gap_decades: slow loops cross
        # several 1024-sample blocks, and a short max_steps makes some
        # responses non-settling.
        rng = np.random.default_rng(seed)
        A_cl = scaled_matrix(rng, n, 1.0 - 10.0 ** -gap_decades)
        B = rng.normal(size=(n, 1))
        K = rng.uniform(-1.0, 1.0, size=(1, n))
        C = rng.normal(size=(1, n))
        A = A_cl + B @ K
        try:
            want = stepping_rise_time(A, B, K, C, h, max_steps)
        except NumericalError:
            with pytest.raises(NumericalError, match="non-settling"):
                lqr.rise_time(A, B, K, C, h, max_steps=max_steps)
            return
        got = lqr.rise_time(A, B, K, C, h, max_steps=max_steps)
        assert type(got) is float
        assert got == pytest.approx(want, rel=1e-9)


class TestServoBenchmark:
    def test_tau_zero_matches_closed_form(self):
        A, B, C = lqr.servo_plant(0.0, h=0.1)
        e = math.exp(-0.1)
        np.testing.assert_allclose(A, [[1.0, 1.0 - e], [0.0, e]], atol=1e-12)
        np.testing.assert_allclose(B, [[0.1 - 1.0 + e], [1.0 - e]], atol=1e-12)
        np.testing.assert_allclose(C, [[1.0, 0.0]])

    def test_tau_positive_adds_actuator_state(self):
        A, B, C = lqr.servo_plant(0.2, h=0.1)
        assert A.shape == (3, 3) and B.shape == (3, 1) and C.shape == (1, 3)
        with pytest.raises(ValueError):
            lqr.servo_plant(-0.1)

    @settings(max_examples=100, deadline=None)
    @given(tau=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
           n_samples=st.integers(1, 1500), seed=st.integers(0, 2**32 - 1))
    def test_excitation_equals_per_sample_steps(self, tau, n_samples, seed):
        # The same inputs bit for bit; block evaluation rounds differently
        # from stepping, so the states agree norm-wise.
        A, B, _ = lqr.servo_plant(tau)
        got = lqr._excitation_data(A, B, 2, n_samples, seed)
        want = stepping_excitation(A, B, 2, n_samples, seed)
        np.testing.assert_array_equal(got[1], want[1])
        scale = max(np.abs(want[0]).max(), np.abs(want[2]).max())
        for g, w in ((got[0], want[0]), (got[2], want[2])):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * scale

    def test_sweep_single_tau_model_based(self):
        rows = lqr.robustness_sweep([0.05], methods=("model-based",), seed=5)
        assert len(rows) == 1
        row = rows[0]
        assert row.method == "model-based" and row.tau == 0.05
        assert row.feasible
        assert row.M_S <= lqr.MS_MAX + 1e-9
        assert row.M_T <= lqr.MT_MAX + 1e-9
        assert 0.0 < row.t_r < math.inf
        assert 1e-6 <= row.Q_u <= 1e6
        assert len(row.trace) >= 2

    def test_infeasible_row_reports_the_last_design_evaluated(self):
        # At tau = 0.2 every Q_u below about 0.09 breaks a margin, so the
        # walk-down evaluates 1e-3 down to the range's end 1e-6 and finds
        # no feasible design.
        row, = lqr.robustness_sweep([0.2], methods=("model-based",),
                                    log_qu_range=(-6.0, -3.0), seed=1)
        assert [e[0] for e in row.trace] == pytest.approx([1e-3, 1e-4, 1e-5, 1e-6])
        assert row.Q_u == pytest.approx(1e-6)
        assert not row.feasible and row.t_r == math.inf
        assert row.Q_u == row.trace[-1][0]
        assert row.M_S > lqr.MS_MAX or row.M_T > lqr.MT_MAX

    @pytest.mark.parametrize("log_qu_range", [(0.0, 0.0), (1.0, -1.0)])
    def test_empty_log_qu_range_is_rejected(self, log_qu_range):
        with pytest.raises(ValueError, match="lo < hi"):
            lqr.robustness_sweep([0.0], methods=("model-based",),
                                 log_qu_range=log_qu_range)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tau_zero_rows_of_both_routes_agree(self, seed):
        # Without lag the data are exact, so both routes design the
        # Riccati gain.  Q_u is located only to BOUNDARY_TOL (2.3e-12
        # relative); 1e-9 leaves room for the routes' gains to differ in
        # their last digits.  Their margins agree closely enough that
        # Brent's search takes the same steps on both.
        mb, mf = lqr.robustness_sweep((0.0,), methods=("model-based", "model-free"),
                                      seed=seed)
        assert mb.feasible and mf.feasible
        assert len(mf.trace) == len(mb.trace)
        for key in ("t_r", "M_S", "M_T", "Q_u"):
            assert getattr(mf, key) == pytest.approx(getattr(mb, key), rel=1e-9)

    def test_trace_records_how_each_policy_iteration_ended(self):
        # Exact data at tau = 0 converge within a few iterations.  At
        # tau = 0.2 the hidden lag leaves the regression noisy: on seed 1's
        # draws every design from Q_u = 0.1 down raises within a few
        # iterations, when the estimated S_uu block loses definiteness,
        # and the entry records the iteration that raised.  Model-based
        # entries run no policy iteration.
        mb, mf = lqr.robustness_sweep((0.0,), seed=1)
        assert {e[3:] for e in mb.trace} == {(None, 0)}
        assert all(e[3] == "converged" and 1 <= e[4] < 50 for e in mf.trace)
        row, = lqr.robustness_sweep((0.2,), methods=("model-free",), seed=1,
                                    log_qu_range=(-4.0, -1.0))
        assert [e[3:] for e in row.trace] == [("raised", 11), ("raised", 5),
                                              ("raised", 7), ("raised", 6)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sweep_rows_equal_one_call_metric(self, seed):
        # The reference sweep scores every design with the one-call metric:
        # its "response" is the plant itself.
        rows = lqr.robustness_sweep((0.2, 0.0), seed=seed)
        with mock.patch.object(lqr, "loop_response", lambda A, B, h: (A, B, h)), \
                mock.patch.object(lqr, "sensitivity_metrics",
                                  lambda plant, K: one_call_sensitivity_metrics(
                                      plant[0], plant[1], K, plant[2])):
            ref = lqr.robustness_sweep((0.2, 0.0), seed=seed)
        assert [row.method for row in rows] == ["model-based", "model-free"] * 2
        assert rows == ref

    def test_unknown_method_is_refused_before_any_route_is_built(self):
        with mock.patch.object(lqr, "_excitation_data",
                               wraps=lqr._excitation_data) as excitation, \
                pytest.raises(ValueError, match="'bogus'"):
            lqr.robustness_sweep((0.0,), methods=("model-based", "bogus"))
        assert excitation.call_count == 0

    def test_a_test_side_route_plugs_into_the_search(self):
        # The true tau = 0 plant's own Riccati gain as a route: the
        # model-based row, whose model is fitted to exact data, designs
        # the same gain but for rounding and finds the same boundary.
        plant = lqr.servo_plant(0.0)
        A, B, _ = plant

        def oracle(q_u):
            return lqr.dare_solve(A, B, np.diag([1.0, 0.0]), [[q_u]])[0], None, 0

        log_qu, (_, t_r, M_S, M_T), feasible, trace = lqr._search(
            oracle, plant, lqr.loop_response(A, B, 0.1), 0.1, -6.0, 6.0, 60)
        row, = lqr.robustness_sweep((0.0,), methods=("model-based",), seed=1)
        assert feasible and row.feasible
        assert {e[3:] for e in trace} == {(None, 0)}
        assert (t_r, M_S, M_T, 10.0 ** log_qu) == pytest.approx(
            (row.t_r, row.M_S, row.M_T, row.Q_u), rel=1e-9)

    # A model-free row's Q_u agrees to 9 digits at either tolerance, but the
    # designs there come from policy iteration stopped at max_iters, and
    # Q_u that agree to 10 digits give very different t_r or none: the
    # search has found a jump in the margin, not its zero.
    @pytest.mark.parametrize("seed, tau, method", [
        (77, 0.02, "model-based"), (1, 0.2, "model-based"),
        pytest.param(77, 0.02, "model-free", marks=pytest.mark.xfail(
            strict=True, reason="t_r 6,938.9 s at BOUNDARY_TOL 1e-12 against 5.28 s at "
            "1e-9 from max_iters designs; the fix is a stopping rule that the data can "
            "meet (ROADMAP item 4)")),
        pytest.param(4, 0.02, "model-free", marks=pytest.mark.xfail(
            strict=True, reason="t_r 4.158 s at BOUNDARY_TOL 1e-12 against 1.549 s at "
            "1e-9 from max_iters designs; the fix is a stopping rule that the data can "
            "meet (ROADMAP item 4)"))])
    def test_rows_hold_when_the_search_tolerance_widens(self, seed, tau, method,
                                                        monkeypatch):
        # Model-based rows move at most 3.8e-7 relative over seeds 77 and
        # 1-4 and all six taus.
        route, plant, resp = ladder_route(method, seed, tau)
        found = []
        for tol in (1e-12, 1e-9):
            monkeypatch.setattr(lqr, "BOUNDARY_TOL", tol)
            _, design, feasible, _ = lqr._search(route, plant, resp, 0.1, -6.0, 6.0, 60)
            found.append((feasible, design[1:]))
        (feasible, now), (feasible_wide, wide) = found
        assert feasible == feasible_wide
        assert wide == pytest.approx(now, rel=1e-6)


class TestRandomDraws:
    """The servo sweep draws from one ``random.Random`` per seed, with the
    vehicle excitation's rules, and never loads ``numpy.random``."""

    @settings(max_examples=100, deadline=None)
    @given(n_full=st.integers(1, 3), m=st.integers(1, 2), episode_len=st.integers(1, 60),
           n_samples=st.integers(1, 300), explore=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rollout_draws_are_those_of_random_random(self, n_full, m, episode_len,
                                                      n_samples, explore, seed):
        # With A = 0 and K = 0 the first step's observed states are the
        # start states, and the inputs are the noise (2 amp) U - amp with
        # amp = explore: the gauss draws, then the uniforms, bit for bit.
        n_obs = 1 + seed % n_full
        source = lqr.linear_rollouts(np.zeros((n_full, n_full)), np.ones((n_full, m)),
                                     n_samples=n_samples, n_obs=n_obs,
                                     episode_len=episode_len, explore=explore, seed=seed)
        X, U, _ = source(np.zeros((m, n_obs)))
        n_ep = max(1, math.ceil(n_samples / episode_len))
        rng = random.Random(seed)
        x0 = start_states(rng, n_ep, n_obs)
        E = random_draws(rng, lambda r: 2.0 * explore * r.random() - explore,
                         (episode_len, n_ep, m))
        np.testing.assert_array_equal(X[:n_ep], x0[:n_samples])
        np.testing.assert_array_equal(U, E.reshape(-1, m)[:n_samples])

    @settings(max_examples=100, deadline=None)
    @given(tau=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
           n_samples=st.integers(1, 1500), seed=st.integers(0, 2**32 - 1))
    def test_excitation_signs_are_those_of_random_random(self, tau, n_samples, seed):
        A, B, _ = lqr.servo_plant(tau)
        _, U, _ = lqr._excitation_data(A, B, 2, n_samples, seed)
        np.testing.assert_array_equal(U[:, 0], excitation_signs(seed, n_samples))

    @settings(max_examples=5, deadline=None)
    @given(n_taus=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_sweep_seeds_are_two_getrandbits_draws_per_tau(self, n_taus, seed):
        # Each tau's excitation seed, then its rollout seed.  The short
        # Q_u range keeps each row to two evaluations.
        with mock.patch.object(lqr, "_excitation_data",
                               wraps=lqr._excitation_data) as excitation, \
                mock.patch.object(lqr, "linear_rollouts",
                                  wraps=lqr.linear_rollouts) as rollouts:
            lqr.robustness_sweep((0.0,) * n_taus, log_qu_range=(5.0, 6.0), seed=seed)
        got = [(e.args[4], r.kwargs["seed"])
               for e, r in zip(excitation.call_args_list, rollouts.call_args_list)]
        rng = random.Random(seed)
        assert got == [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(n_taus)]

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (-2**32, ValueError),
                                             (1.0, TypeError), (1.5, TypeError)])
    def test_a_seed_other_than_a_natural_number_is_refused(self, seed, error):
        # random.Random(-s) would draw what random.Random(s) draws.
        A, B, _ = lqr.servo_plant(0.0)
        with pytest.raises(error):
            lqr.robustness_sweep((0.0,), seed=seed)
        with pytest.raises(error):
            lqr.linear_rollouts(A, B, seed=seed)
        with pytest.raises(error):
            lqr._excitation_data(A, B, 2, 10, seed)

    def test_sweeps_import_no_numpy_random(self, tmp_path):
        # numpy does not load numpy.random, and neither the sweep nor the
        # robustness command does.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from modru import cli, lqr\n"
             "lqr.robustness_sweep((0.2, 0.0), methods=('model-based', 'model-free'), seed=1)\n"
             "assert cli.main(['robustness', '--taus', '0.2,0', '--out', sys.argv[1]]) == 0\n"
             "print('numpy.random' in sys.modules)\n",
             str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "False"


class TestBoundarySearch:
    @settings(max_examples=400, deadline=None)
    @given(shape=st.sampled_from(["linear", "kinked", "exponential", "smooth"]),
           root=st.floats(-5.99, 5.99), log_slope=st.floats(-2.0, 2.0),
           bend=st.floats(0.0, 3.0))
    def test_converges_on_monotone_margins(self, shape, root, log_slope, bend):
        f = monotone_margin(shape, root, 10.0 ** log_slope, bend)
        watch = BracketWatch(f, -6.0, 6.0)
        x = lqr._find_boundary(watch, -6.0, f(-6.0), 6.0, f(6.0), 60)
        assert f(x) <= 0.0
        assert x == watch.hi
        assert abs(x - root) <= 2e-12
        # Bisection needs 44 halvings of 12 decades to get below 1e-12.
        assert len(watch.points) <= 44

    @settings(max_examples=200, deadline=None)
    @given(hi=st.integers(-4, 6), frac=st.floats(0.0, 1.0, exclude_max=True),
           log_slope=st.floats(-2.0, 2.0),
           infeasible=st.sampled_from([math.inf, math.nan]))
    def test_bisects_where_infeasible_margins_are_missing(self, hi, frac,
                                                          log_slope, infeasible):
        # Failed designs carry no margin: every step must be the bisection
        # point of the former search, bit for bit.
        lo, hi = -6.0, float(hi)
        root = lo + frac * (hi - lo)
        slope = 10.0 ** log_slope

        def margin(x):
            g = slope * (root - x)
            return g if g <= 0.0 else infeasible

        watch = BracketWatch(margin, lo, hi)
        x = lqr._find_boundary(watch, lo, math.inf, hi, margin(hi), 60)
        oracle_points = []

        def recorded(x):
            oracle_points.append(x)
            return margin(x)

        bisection_boundary(recorded, lo, math.inf, hi, margin(hi))
        n = len(watch.points)
        assert watch.points == oracle_points[:n]
        assert x == watch.hi
        assert n <= 44
        assert watch.hi - watch.lo < lqr.BOUNDARY_TOL or margin(x) == 0.0

    @settings(max_examples=400, deadline=None)
    @given(shape=st.sampled_from(["linear", "kinked", "exponential", "smooth"]),
           root=st.floats(-5.99, 5.99), log_slope=st.floats(-2.0, 2.0),
           bend=st.floats(0.0, 3.0))
    def test_first_step_bisects_near_the_former_boundary(self, shape, root,
                                                         log_slope, bend):
        # The first point is the bracket midpoint; the boundary found lies
        # within the tolerance of test_converges_on_monotone_margins of the
        # one the former search (interpolating from its first step) finds.
        f = monotone_margin(shape, root, 10.0 ** log_slope, bend)
        watch = BracketWatch(f, -6.0, 6.0)
        x = lqr._find_boundary(watch, -6.0, f(-6.0), 6.0, f(6.0), 60)
        x_former = former_find_boundary(f, -6.0, f(-6.0), 6.0, f(6.0), 60)
        assert watch.points[0] == 0.0
        assert abs(x - x_former) <= 2e-12

    def test_evaluation_cap(self):
        def f(x):
            return math.expm1(0.3 - x)

        watch = BracketWatch(f, -6.0, 6.0)
        lqr._find_boundary(watch, -6.0, f(-6.0), 6.0, f(6.0), 3)
        assert len(watch.points) == 3

    @settings(max_examples=8, deadline=None)
    @given(tau=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
           seed=st.integers(0, 2**32 - 1))
    def test_model_based_rows_match_bisection(self, tau, seed):
        row, = lqr.robustness_sweep([tau], methods=("model-based",), seed=seed)
        with mock.patch.object(lqr, "_find_boundary", bisection_boundary):
            ref, = lqr.robustness_sweep([tau], methods=("model-based",), seed=seed)
        assert row.feasible and ref.feasible
        for key in ("t_r", "M_S", "M_T", "Q_u"):
            assert getattr(row, key) == pytest.approx(getattr(ref, key), rel=1e-10)
        assert len(row.trace) < len(ref.trace)


def stacked_former_dare_solve(A, B, Q_x, Q_u):
    """former_dare_solve applied to each system of a stack, results stacked."""
    K, P = zip(*(former_dare_solve(A_i, B_i, Q_x, Q_u) for A_i, B_i in zip(A, B)))
    return np.array(K), np.array(P)


class TestFormerKernels:
    """The Riccati solver, the rise time, the rollout draws and the feature
    formation skip work without changing a bit."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3), log_qu=st.floats(-6.0, 6.0),
           radii=st.lists(st.one_of(st.floats(0.2, 0.97), st.floats(1.03, 1.5)),
                          min_size=1, max_size=12),
           no_input=st.sets(st.integers(0, 11), max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_riccati_equals_former_solver(self, n, log_qu, radii, no_input,
                                                  seed):
        # A stack of stable and unstable open loops, cheap to expensive
        # control; the systems in no_input get B = 0, which makes an
        # unstable one diverge.  Each system's K and P equal its former
        # one-system solve bit for bit, and the stack raises exactly when
        # one of those solves raises.
        rng = np.random.default_rng(seed)
        A = np.array([scaled_matrix(rng, n, r) for r in radii])
        B = rng.normal(size=(len(radii), n, 1))
        B[[i for i in no_input if i < len(radii)]] = 0.0
        Q_x, Q_u = np.eye(n), np.array([[10.0 ** log_qu]])
        refs = []
        for A_i, B_i in zip(A, B):
            try:
                refs.append(former_dare_solve(A_i, B_i, Q_x, Q_u))
            except NumericalError:
                refs.append(None)
        if None in refs:
            with pytest.raises(NumericalError):
                lqr.dare_solve(A, B, Q_x, Q_u)
            return
        K, P = lqr.dare_solve(A, B, Q_x, Q_u)
        assert (K.shape, P.shape) == ((len(radii), 1, n), (len(radii), n, n))
        for i, (K_ref, P_ref) in enumerate(refs):
            np.testing.assert_array_equal(K[i], K_ref)
            np.testing.assert_array_equal(P[i], P_ref)

    @pytest.mark.parametrize("seed", [1, 2, 3, 11, 12, 13, 14, 15])
    def test_model_based_rows_equal_former_kernels(self, seed):
        rows = lqr.robustness_sweep((0.2, 0.0), methods=("model-based",), seed=seed)
        with mock.patch.object(lqr, "dare_solve", former_dare_solve), \
                mock.patch.object(lqr, "rise_time", former_rise_time):
            ref = lqr.robustness_sweep((0.2, 0.0), methods=("model-based",), seed=seed)
        assert rows == ref

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 2), log_scale=st.floats(-6.0, 6.0),
           log_spread=st.floats(0.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_features_equal_former_formation(self, n, m, log_scale, log_spread, seed):
        # Random batches with entries from 1e-6 to 1e6 in size: the regressor
        # rows and G^-1 equal the five-pass formation's bit for bit, or both
        # raise.
        rng = np.random.default_rng(seed)
        p = (n + m) * (n + m + 1) // 2
        N = int(rng.integers(1, 3 * p + 40))
        D = 10.0 ** (log_scale + rng.uniform(-log_spread, log_spread, size=n + m))
        D = np.clip(D, 1e-6, 1e6)
        X, Xn = (rng.normal(size=(N, n)) * D[:n] for _ in range(2))
        U = rng.normal(size=(N, m)) * D[n:]
        K = rng.normal(size=(m, n)) * D[n:, None] / D[:n]
        starts = []
        for factorize in (lqr._CachedStart.factorize, former_factorize):
            with mock.patch.object(lqr._CachedStart, "factorize", factorize):
                starts.append(fixed_start(X, U, Xn, K, np.eye(n)))
        start, ref = starts
        assert str(start.error) == str(ref.error)
        np.testing.assert_array_equal(start.psi, ref.psi)
        if start.error is None:
            np.testing.assert_array_equal(start.G_inv, ref.G_inv)

    @pytest.mark.parametrize("seed", [1234, 1, 2])
    def test_truck_artifacts_equal_former_riccati_solver(self, seed, tmp_path):
        # The truck pipeline runs only the Riccati solver of lqr, in its
        # gain schedule, which solves all nodes in one stacked call.
        sc = replace(config.default_truck_scenario(), seed=seed)
        harness.run_pipeline(sc, out_dir=tmp_path / "now")
        with mock.patch.object(ctl, "dare_solve", stacked_former_dare_solve):
            harness.run_pipeline(sc, out_dir=tmp_path / "former")
        names = sorted(f.name for f in (tmp_path / "now").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "former").iterdir())
        for name in names:
            assert ((tmp_path / "now" / name).read_bytes()
                    == (tmp_path / "former" / name).read_bytes()), name
