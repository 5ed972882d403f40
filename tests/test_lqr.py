"""LQ design and data-driven policy iteration tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modru import lqr
from modru.errors import NumericalError, PolicyIterationError


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


def stepping_rollouts(A, B, n_obs, episode_len, explore, seed):
    """Reference rollout source: one noise draw per step."""
    n_full, m = B.shape
    rng = np.random.default_rng(seed)

    def source(K, n_samples):
        amp = explore * max(1.0, float(np.abs(K).max()))
        n_ep = max(1, math.ceil(n_samples / episode_len))
        X = np.zeros((n_ep, n_full))
        X[:, :n_obs] = rng.normal(0.0, 1.0, size=(n_ep, n_obs))
        xs, us, xns = [], [], []
        for _ in range(episode_len):
            E = rng.uniform(-amp, amp, size=(n_ep, m))
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


def scaled_matrix(rng, n, radius):
    """Random n x n matrix scaled to the given spectral radius."""
    A = rng.normal(size=(n, n))
    return A * (radius / lqr.spectral_radius(A))


class TestC2d:
    def test_double_integrator(self):
        Ac = np.array([[0.0, 1.0], [0.0, 0.0]])
        Bc = np.array([[0.0], [1.0]])
        Ad, Bd = lqr.c2d_zoh(Ac, Bc, 0.1)
        np.testing.assert_allclose(Ad, [[1.0, 0.1], [0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(Bd, [[0.005], [0.1]], atol=1e-14)

    def test_scalar_exponential(self):
        a, b, h = -2.0, 3.0, 0.5
        Ad, Bd = lqr.c2d_zoh([[a]], [[b]], h)
        assert Ad[0, 0] == pytest.approx(math.exp(a * h), rel=1e-13)
        assert Bd[0, 0] == pytest.approx((math.exp(a * h) - 1.0) / a * b, rel=1e-13)

    def test_bad_sample_time(self):
        with pytest.raises(ValueError):
            lqr.c2d_zoh([[0.0]], [[1.0]], 0.0)


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
        assert lqr.spectral_radius(A - B @ K) < 1.0

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


class TestCostAndQTheta:
    def test_cost_validation(self):
        with pytest.raises(ValueError):
            lqr.QuadCost(np.array([[1.0, 0.5], [0.0, 1.0]]), [[1.0]])
        with pytest.raises(ValueError):
            lqr.QuadCost(np.diag([1.0, -0.1]), [[1.0]])
        with pytest.raises(ValueError):
            lqr.QuadCost(np.eye(2), [[0.0]])

    def test_stage_batches(self, rng):
        cost = lqr.QuadCost(np.diag([1.0, 2.0]), [[0.5]])
        X = rng.standard_normal((7, 2))
        U = rng.standard_normal((7, 1))
        want = [x @ cost.Q_x @ x + u @ cost.Q_u @ u for x, u in zip(X, U)]
        np.testing.assert_allclose(cost.stage(X, U), want, rtol=1e-12)

    def test_qtheta_round_trip(self):
        # n=2, m=1: upper triangle row-major [S00 S01 S02 S11 S12 S22]
        theta = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        qf = lqr.QTheta.from_parameters(theta, 2, 1)
        S = qf.matrix()
        np.testing.assert_allclose(S, S.T)
        np.testing.assert_allclose(S[0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(S[1], [2.0, 4.0, 5.0])
        np.testing.assert_allclose(S[2], [3.0, 5.0, 6.0])
        with pytest.raises(ValueError):
            lqr.QTheta.from_parameters(theta[:-1], 2, 1)

    def test_qtheta_gain(self):
        qf = lqr.QTheta(S_xx=np.eye(2), S_xu=np.array([[4.0], [6.0]]),
                        S_uu=np.array([[2.0]]))
        np.testing.assert_allclose(qf.gain(), [[2.0, 3.0]])
        bad = lqr.QTheta(S_xx=np.eye(2), S_xu=np.zeros((2, 1)),
                         S_uu=np.array([[-1.0]]))
        with pytest.raises(PolicyIterationError):
            bad.gain()


class TestPolicyIteration:
    def test_exact_data_reaches_riccati_gain(self):
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        cost = lqr.QuadCost(np.eye(2), [[1.0]])
        K_star, _ = lqr.dare_solve(A, B, cost.Q_x, cost.Q_u)
        source = lqr.linear_rollouts(A, B, seed=3)
        K, qf = lqr.lqrl_policy_iteration(source, np.zeros((1, 2)), cost)
        assert np.abs(K - K_star).max() < 1e-6
        assert np.linalg.eigvalsh(qf.S_uu).min() > 0

    def test_rollout_shapes_and_partial_observation(self):
        A = np.array([[0.9, 0.1], [0.0, 0.5]])
        B = np.array([[0.0], [1.0]])
        source = lqr.linear_rollouts(A, B, n_obs=1, seed=0)
        X, U, Xn = source(np.array([[0.1]]), 55)
        assert X.shape == (55, 1) and U.shape == (55, 1) and Xn.shape == (55, 1)

    def test_unstable_policy_rollout_raises(self):
        source = lqr.linear_rollouts([[3.0]], [[1.0]], seed=0)
        with pytest.raises(PolicyIterationError):
            source(np.array([[0.0]]), 200)

    @settings(max_examples=200, deadline=None)
    @given(n_full=st.integers(1, 3), m=st.integers(1, 2),
           episode_len=st.integers(1, 60), explore=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_rollouts_equal_per_step_draws(self, n_full, m, episode_len,
                                           explore, seed):
        # Gains up to 3 make some calls diverge; the call after a diverging
        # one must still see the same random stream.
        rng = np.random.default_rng(seed)
        n_obs = int(rng.integers(1, n_full + 1))
        A = scaled_matrix(rng, n_full, rng.uniform(0.3, 1.2))
        B = rng.normal(size=(n_full, m))
        source = lqr.linear_rollouts(A, B, n_obs=n_obs, episode_len=episode_len,
                                     explore=explore, seed=seed)
        reference = stepping_rollouts(A, B, n_obs, episode_len, explore, seed)
        for _ in range(4):
            K = rng.normal(size=(m, n_obs)) * rng.uniform(0.0, 3.0)
            n_samples = int(rng.integers(1, 300))
            try:
                want = reference(K, n_samples)
            except PolicyIterationError:
                with pytest.raises(PolicyIterationError):
                    source(K, n_samples)
                continue
            got = source(K, n_samples)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.array_equal(g, w)


class TestLoopMetrics:
    def test_sensitivity_peaks_of_delay_loop(self):
        # A=0 gives L(z) = k/z: |S| and |T| peak at the Nyquist point,
        # where |1 + L| = 1 - k.
        m_s, m_t = lqr.sensitivity_metrics([[0.0]], [[1.0]], [[0.5]], h=0.1)
        assert m_s == pytest.approx(2.0, rel=1e-12)
        assert m_t == pytest.approx(1.0, rel=1e-12)

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
        sys, C = lqr.servo_plant(0.0, h=0.1)
        e = math.exp(-0.1)
        np.testing.assert_allclose(sys.A, [[1.0, 1.0 - e], [0.0, e]], atol=1e-12)
        np.testing.assert_allclose(sys.B, [[0.1 - 1.0 + e], [1.0 - e]], atol=1e-12)
        np.testing.assert_allclose(C, [[1.0, 0.0]])

    def test_tau_positive_adds_actuator_state(self):
        sys, C = lqr.servo_plant(0.2, h=0.1)
        assert sys.A.shape == (3, 3) and C.shape == (1, 3)
        with pytest.raises(ValueError):
            lqr.servo_plant(-0.1)

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
