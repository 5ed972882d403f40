"""Estimation tests: gray box, efficiency."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modru import config, harness, sysid
from modru.errors import EstimationError
from modru.plant import TruckParams
from modru.tables import read_keyvalues


class TestGrayBox:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            sysid.GrayBoxModel(theta=np.zeros(4))
        with pytest.raises(ValueError):
            sysid.GrayBoxModel(theta=np.zeros(6))   # th1 == 0
        with pytest.raises(ValueError):
            sysid.GrayBoxModel(theta=np.ones(6),
                               mask=np.array([0, 1, 1, 1, 1, 1], bool))

    def test_dataset_refuses_a_nan_time_sample(self):
        t = 0.5 * np.arange(20)
        t[7] = math.nan
        with pytest.raises(ValueError, match="time grid"):
            sysid.Dataset(t=t, v=t, alpha=t, u=t, P=t)

    def test_mask_zeroes_inactive_terms(self):
        m = sysid.GrayBoxModel(theta=np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
                               mask=np.array([1, 1, 0, 1, 1, 0], bool))
        assert m.theta[2] == 0.0 and m.theta[5] == 0.0
        # dv/dt = t1 u + t2 + t3 v + t4 v^2 + t5 alpha + t6 alpha^2 at u = 1, v = alpha = 0
        assert m.theta @ [1.0, 1.0, 0.0, 0.0, 0.0, 0.0] == pytest.approx(1.0 + 2.0)

    def test_simulate_matches_closed_form(self):
        # dv/dt = -0.1 v with v0 = 10 decays exponentially.
        m = sysid.GrayBoxModel(theta=np.array([1.0, 0.0, -0.1, 0.0, 0.0, 0.0]))
        n = 50
        sim = sysid._simulate_theta(m.theta, 10.0, np.zeros(n), np.zeros(n), 0.1)
        np.testing.assert_allclose(sim, 10.0 * np.exp(-0.1 * 0.1 * np.arange(n)),
                                   rtol=1e-8)

    def test_simulate_divergence_returns_none(self):
        m = sysid.GrayBoxModel(theta=np.array([1.0, 0.0, 2.0, 0.0, 0.0, 0.0]))
        assert sysid._simulate_theta(m.theta, 1.0, np.zeros(500), np.zeros(500), 0.5) is None

    def test_truck_fit_accuracy(self, truck_sc, truck_fit):
        data, model, eff, fit = truck_fit
        assert fit.converged
        truth = harness.true_theta(truck_sc)
        mask = np.array(truck_sc.est_mask, bool)
        rel = np.abs((model.theta[mask] - truth[mask]) / truth[mask])
        assert rel.max() < 0.005
        assert sysid.validate(model, data) < 0.05

    def test_fit_requires_active_input_term(self, truck_fit):
        data = truck_fit[0]
        with pytest.raises(ValueError):
            sysid.fit_graybox(data, mask=np.array([0, 1, 0, 1, 1, 0], bool))

    def test_dataset_round_trip_bit_exact(self, truck_fit, tmp_path):
        data = truck_fit[0]
        path = tmp_path / "data.csv"
        data.to_csv(path)
        back = sysid.Dataset.from_csv(path)
        np.testing.assert_array_equal(data.t, back.t)
        np.testing.assert_array_equal(data.v, back.v)
        np.testing.assert_array_equal(data.alpha, back.alpha)
        np.testing.assert_array_equal(data.u, back.u)
        np.testing.assert_array_equal(data.P, back.P)

    def test_theta_file_round_trip(self, truck_fit, tmp_path):
        _, model, eff, _ = truck_fit
        path = tmp_path / "theta.txt"
        sysid.save_theta(path, model, eff)
        model2, eff2 = sysid.load_theta(path)
        np.testing.assert_array_equal(model.theta, model2.theta)
        assert eff2 is not None
        assert eff2.gen_factor == eff.gen_factor
        assert eff2.regen_factor == eff.regen_factor
        # files from before the scale key was dropped still load
        assert "scale" not in path.read_text()
        path.write_text(path.read_text() + "scale = 1.0\n")
        assert sysid.load_theta(path)[1] == eff2


def numpy_scalar_simulate(theta, v0, u, alpha, h, v_cap=1e5):
    """Reference: the RK4 loop on numpy scalars with a per-step rhs closure."""
    t1, t2, t3, t4, t5, t6 = theta
    n = u.size
    out = np.empty(n)
    v = float(v0)
    for k in range(n):
        out[k] = v
        if k == n - 1:
            break
        uk = u[k]
        ak = alpha[k]
        c = t1 * uk + t2 + t5 * ak + t6 * ak * ak

        def f(x):
            return c + t3 * x + t4 * x * x

        k1 = f(v)
        k2 = f(v + 0.5 * h * k1)
        k3 = f(v + 0.5 * h * k2)
        k4 = f(v + h * k3)
        v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(v) or abs(v) > v_cap:
            return None
    return out


TRUCK_THETA = harness.true_theta(config.default_truck_scenario())


class TestSimulateTheta:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), blow_up=st.booleans(),
           h=st.sampled_from([0.1, 0.5, 2.0]))
    def test_python_float_loop_equals_numpy_scalar_loop(self, seed, blow_up, h):
        # Scaled coefficients; the x50 ones make some runs diverge.
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, blow_up)
        u = rng.uniform(-3000.0, 6000.0, 300)
        alpha = rng.uniform(-0.05, 0.05, 300)
        v0 = rng.uniform(0.0, 30.0)
        draw_th3(rng, theta, blow_up)
        assert_same_simulation(theta, v0, u, alpha, h)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6), h=st.floats(0.01, 5.0))
    def test_short_and_overflowing_records_equal_numpy_scalar_loop(self, seed, n, h):
        # Records of 0-6 samples at any step size.  About half the inputs
        # lie near the largest float, so th1*u overflows once th1 >= 1, and
        # about a quarter of the slopes are 1e200, so th6*alpha^2 overflows.
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, False)
        theta[0] *= 10.0 ** rng.uniform(0.0, 5.0)
        draw_th3(rng, theta, False)
        u = rng.uniform(-3000.0, 6000.0, n)
        alpha = rng.uniform(-0.05, 0.05, n)
        big_u, big_alpha = rng.random(n) < 0.5, rng.random(n) < 0.25
        k = big_u.sum()
        u[big_u] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 1.0, k) * np.finfo(float).max
        alpha[big_alpha] = rng.choice([-1e200, 1e200], big_alpha.sum())
        assert_same_simulation(theta, rng.uniform(0.0, 30.0), u, alpha, h)

    @pytest.mark.parametrize("v0, kept", [
        (1e5, True), (-1e5, True), (np.nextafter(1e5, np.inf), False),
        (-np.nextafter(1e5, np.inf), False), (math.nan, False), (math.inf, False),
        (-math.inf, False)],
        ids=["at_bound", "at_minus_bound", "above", "below", "nan", "inf", "minus_inf"])
    def test_divergence_bound(self, v0, kept):
        # th1 = 1 and zero input and slope: every stage derivative is 0, so a
        # finite velocity stays at v0; |v| = 1e5 is kept and beyond it, or
        # not finite, the run is rejected.
        theta = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        zeros = np.zeros(5)
        sim = sysid._simulate_theta(theta, v0, zeros, zeros, 0.5)
        if kept:
            assert sim.tolist() == [v0] * 5
        else:
            assert sim is None


def random_theta(rng, blow_up):
    """The truck's coefficients scaled by U(0.5, 1.5), and by 50 on a blow-up."""
    return TRUCK_THETA * rng.uniform(0.5, 1.5, 6) * (50.0 if blow_up else 1.0)


def draw_th3(rng, theta, blow_up):
    """Set the velocity-linear th3, which the truck lacks, from U(-0.01, 0.01)
    (x50 on a blow-up); drawn after the other values so they stay the same."""
    theta[2] = rng.uniform(-0.01, 0.01) * (50.0 if blow_up else 1.0)


def assert_same_simulation(theta, v0, u, alpha, h):
    """Assert that ``_simulate_theta`` equals the numpy-scalar loop bit for
    bit, or that both return None."""
    sim = sysid._simulate_theta(theta, v0, u, alpha, h)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = numpy_scalar_simulate(theta, v0, u, alpha, h)
    if ref is None:
        assert sim is None
    else:
        assert sim.dtype == ref.dtype and sim.shape == ref.shape
        assert sim.tobytes() == ref.tobytes()


def complex_step_jacobian(theta, act, v0, u, alpha, h, eps=1e-200):
    """Oracle: columns of d(sim)/d(theta) by the complex step.

    The RK4 loop of ``_simulate_theta`` in complex arithmetic; perturbing
    one parameter by i*eps gives its column as Im(sim)/eps with no
    subtractive cancellation (Martins, Sturdza & Alonso, ACM TOMS 29, 2003).
    """
    cols = []
    for idx in act:
        th = np.asarray(theta, dtype=complex)
        th[idx] += 1j * eps
        t1, t2, t3, t4, t5, t6 = (complex(t) for t in th)
        v = complex(v0)
        out = [v]
        for uk, ak in zip(u[:-1].tolist(), alpha[:-1].tolist()):
            c = t1 * uk + t2 + t5 * ak + t6 * ak * ak
            k1 = c + t3 * v + t4 * v * v
            x = v + 0.5 * h * k1
            k2 = c + t3 * x + t4 * x * x
            x = v + 0.5 * h * k2
            k3 = c + t3 * x + t4 * x * x
            x = v + h * k3
            k4 = c + t3 * x + t4 * x * x
            v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(v)
        cols.append(np.array(out).imag / eps)
    return np.stack(cols, axis=1)


def central_difference_fit_graybox(data, theta0=None, mask=None, max_iter=200,
                                   cost_tol=1e-10, step_tol=1e-8, fd_rel_step=1e-6):
    """Oracle: the gray-box fit with its former central-difference Jacobian."""
    mask = np.ones(sysid.N_THETA, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if not mask[0]:
        raise ValueError("input coefficient th1 must stay active")
    if theta0 is None:
        theta = sysid.equation_error_init(data, mask)
    else:
        theta = np.asarray(theta0, dtype=float).copy()
        theta[~mask] = 0.0
    act = np.flatnonzero(mask)
    h = data.h
    v_meas = data.v

    def cost_of(th):
        sim = sysid._simulate_theta(th, v_meas[0], data.u, data.alpha, h)
        if sim is None:
            return math.inf, None
        r = sim - v_meas
        return float(r @ r), r

    cost, resid = cost_of(theta)
    if not math.isfinite(cost) and theta0 is None:
        # Equation-error warm starts can flip a drag coefficient positive on
        # narrow-range data, which is unstable in full simulation.  Drag
        # terms oppose motion, so clamp them nonpositive and retry once.
        theta[2] = min(theta[2], 0.0)
        theta[3] = min(theta[3], 0.0)
        cost, resid = cost_of(theta)
    if not math.isfinite(cost):
        raise EstimationError("initial gray-box parameters diverge on the data")
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        # Central-difference Jacobian over the active parameters.
        J = np.empty((v_meas.size, act.size))
        for j, idx in enumerate(act):
            step = fd_rel_step * max(abs(theta[idx]), 1e-6)
            tp = theta.copy()
            tp[idx] += step
            tm = theta.copy()
            tm[idx] -= step
            sp = sysid._simulate_theta(tp, v_meas[0], data.u, data.alpha, h)
            sm = sysid._simulate_theta(tm, v_meas[0], data.u, data.alpha, h)
            if sp is None or sm is None:
                raise EstimationError("gray-box simulation diverged during fit")
            J[:, j] = (sp - sm) / (2.0 * step)
        delta, _, _, _ = np.linalg.lstsq(J.T @ J, -(J.T @ resid), rcond=None)

        lam = 1.0
        improved = False
        while lam >= 1e-8:
            trial = theta.copy()
            trial[act] += lam * delta
            c_trial, r_trial = cost_of(trial)
            if c_trial < cost:
                improved = True
                break
            lam *= 0.5
        if not improved:
            converged = True
            break
        rel_step = np.max(np.abs(lam * delta) / np.maximum(np.abs(theta[act]), 1e-12))
        rel_drop = (cost - c_trial) / max(cost, 1e-300)
        theta, cost, resid = trial, c_trial, r_trial
        if rel_drop < cost_tol or rel_step < step_tol:
            converged = True
            break
    if not converged:
        warnings.warn("gray-box fit stopped at iteration limit; returning best iterate")
    model = sysid.GrayBoxModel(theta=theta, mask=mask)
    rms = math.sqrt(cost / v_meas.size)
    return model, sysid.GrayBoxFit(converged=converged, n_iter=it, rms=rms,
                                   nrmse=sysid.validate(model, data))


def loop_output_jacobian(theta, act, sim, u, alpha, h):
    """Reference: the Jacobian by one Python loop over the samples per column.

    ``_output_jacobian`` as it was before the doubling sweep, returning J
    however it ends, and also the same recurrence run on |A_k| and |b_j,k|,
    which bounds the rounding error of either order of summation.
    """
    t3, t4 = float(theta[2]), float(theta[3])
    v, u, a = sim[:-1], u[:-1], alpha[:-1]
    hh = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        c = sysid._input_term(theta, u, a)
        k1 = c + t3 * v + t4 * v * v
        x2 = v + hh * k1
        k2 = c + t3 * x2 + t4 * x2 * x2
        x3 = v + hh * k2
        k3 = c + t3 * x3 + t4 * x3 * x3
        x4 = v + h * k3
        g1, g2, g3, g4 = (t3 + 2.0 * t4 * x for x in (v, x2, x3, x4))

        def tangent(z, d1, d2, d3, d4):
            e1 = d1 + g1 * z
            e2 = d2 + g2 * (z + hh * e1)
            e3 = d3 + g3 * (z + hh * e2)
            e4 = d4 + g4 * (z + h * e3)
            return z + h / 6.0 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)

        dv = tangent(1.0, 0.0, 0.0, 0.0, 0.0)
        dc = tangent(0.0, 1.0, 1.0, 1.0, 1.0)
        b = (dc * u, dc, tangent(0.0, v, x2, x3, x4),
             tangent(0.0, v * v, x2 * x2, x3 * x3, x4 * x4), dc * a, dc * a * a)
    out = []
    for A, cols in ((dv, b), (np.abs(dv), [np.abs(col) for col in b])):
        A = A.tolist()
        J = np.empty((sim.size, len(act)))
        for j, idx in enumerate(act):
            s = 0.0
            col = [s]
            for a_k, b_k in zip(A, cols[idx].tolist()):
                s = a_k * s + b_k
                col.append(s)
            J[:, j] = col
        out.append(J)
    return out


@pytest.fixture(scope="module")
def truck_lag(truck_sc):
    """(scenario, data) for the truck with a ten-fold actuator lag."""
    sc = replace(truck_sc, plant_params=TruckParams(T_m=10.0))
    return sc, harness.stage_dataset(sc)


class TestOutputJacobian:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), blow_up=st.booleans(),
           h=st.sampled_from([0.1, 0.5, 2.0]),
           mask=st.lists(st.booleans(), min_size=5, max_size=5))
    def test_matches_complex_step(self, seed, blow_up, h, mask):
        # theta, inputs and v0 drawn as in TestSimulateTheta; th1 stays active.
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, blow_up)
        u = rng.uniform(-3000.0, 6000.0, 300)
        alpha = rng.uniform(-0.05, 0.05, 300)
        v0 = rng.uniform(0.0, 30.0)
        draw_th3(rng, theta, blow_up)
        act = np.flatnonzero([True, *mask])
        sim = sysid._simulate_theta(theta, v0, u, alpha, h)
        if sim is None:
            return
        ref = complex_step_jacobian(theta, act, v0, u, alpha, h)
        J = sysid._output_jacobian(theta, act, sim, u, alpha, h)
        assert J.shape == (u.size, act.size)
        assert (J[0] == 0.0).all()
        err = np.abs(J - ref).max(axis=0)
        assert (err <= 1e-12 * np.abs(ref).max(axis=0)).all(), err

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5000),
           h=st.sampled_from([0.1, 0.5, 2.0]),
           mask=st.lists(st.booleans(), min_size=5, max_size=5), at_rest=st.booleans())
    # A product of 5,000 step factors above 2.7 overflows: inf times the
    # sensitivities of 0 would be NaN where the recurrence gives 0.
    @example(seed=0, n=5000, h=0.5, mask=[True] * 5, at_rest=True)
    def test_sweep_equals_the_recurrence(self, seed, n, h, mask, at_rest):
        # The truck's coefficients with th3 in [0, 0.01], so that along a
        # speed record in [0, 30] m/s the step factor 1 + h f'(v) + ... lies
        # above 1 at low speed and below it at high speed.  At rest the
        # record, input and slope are 0, th2 is masked out and h th3 in
        # [1, 25] makes every step factor the same, 2.7 to 1.9e4: their
        # product overflows within 715 steps while every sensitivity is 0.
        rng = np.random.default_rng(seed)
        theta = random_theta(rng, False)
        if at_rest:
            mask = [False, *mask[1:]]
            theta[1] = 0.0
            theta[2] = 10.0 ** rng.uniform(0.0, np.log10(25.0)) / h
            sim = u = alpha = np.zeros(n)
        else:
            theta[2] = rng.uniform(0.0, 0.01)
            sim = rng.uniform(0.0, 30.0, n)
            u = rng.uniform(-3000.0, 6000.0, n)
            alpha = rng.uniform(-0.05, 0.05, n)
        act = np.flatnonzero([True, *mask])
        ref, ref_abs = loop_output_jacobian(theta, act, sim, u, alpha, h)
        if not np.isfinite(ref).all():
            with pytest.raises(EstimationError, match="diverged during fit"):
                sysid._output_jacobian(theta, act, sim, u, alpha, h)
            return
        J = sysid._output_jacobian(theta, act, sim, u, alpha, h)
        assert J.shape == ref.shape and (J[0] == 0.0).all()
        if at_rest:
            assert (ref == 0.0).all() and (J == 0.0).all()
        # Either order of summation of s_k = sum_i (A_k-1 ... A_i+1) b_i
        # rounds each term in at most 2 n operations, so the two differ
        # by at most 2 gamma_2n (under 4 n eps) times the same sum taken
        # over |A| and |b|.
        assert (np.abs(J - ref) <= 4.0 * n * np.finfo(float).eps * ref_abs).all()

    @pytest.mark.parametrize("case", ["truck", "car", "truck_lag"])
    def test_fit_matches_central_difference_fit(self, case, request, truck_sc, car_sc):
        if case == "truck_lag":
            sc, data = request.getfixturevalue("truck_lag")
        else:
            sc = truck_sc if case == "truck" else car_sc
            data = request.getfixturevalue(f"{case}_fit")[0]
        mask = np.array(sc.est_mask, bool)
        model, fit = sysid.fit_graybox(data, mask=mask)
        ref_model, ref_fit = central_difference_fit_graybox(data, mask=mask)
        assert (fit.n_iter, fit.converged) == (ref_fit.n_iter, ref_fit.converged)
        np.testing.assert_allclose(model.theta, ref_model.theta, rtol=1e-7, atol=0.0)

    def test_overflowing_jacobian_raises(self, monkeypatch):
        # dv/dt = 50 v stays at v = 0 from rest with no input, so the fit
        # starts at zero cost, but every sensitivity grows by about 2e4 per
        # step and overflows within 80 of the 200 steps.
        n, h = 200, 0.5
        zeros = np.zeros(n)
        data = sysid.Dataset(t=h * np.arange(n), v=zeros, alpha=zeros, u=zeros, P=zeros)
        theta = np.array([1.0, 0.0, 50.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(sysid, "equation_error_init", lambda data, mask: theta.copy())
        with pytest.raises(EstimationError, match="diverged during fit"):
            sysid.fit_graybox(data)


def conditioned_columns(rng, n, p, log_cond):
    """An n x p matrix whose singular values span 10^-log_cond..1 before its
    columns are scaled by up to 10^3 either way."""
    U = np.linalg.qr(rng.normal(size=(n, p)))[0]
    V = np.linalg.qr(rng.normal(size=(p, p)))[0]
    return (U * np.logspace(0.0, -log_cond, p)) @ V.T * 10.0 ** rng.uniform(-3.0, 3.0, p)


class TestLeastSquares:
    """``sysid.least_squares`` against ``np.linalg.lstsq``."""

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 6), extra=st.integers(0, 60), cols=st.sampled_from([None, 1, 2, 3]),
           log_cond=st.floats(0.0, 3.0), log_noise=st.floats(-12.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_lstsq(self, p, extra, cols, log_cond, log_noise, seed):
        # Full rank, with the normal matrix of the equilibrated columns Xs
        # conditioned up to 1e6.  The reference is lstsq on Xs, so that the
        # column scales do not cost it digits; the bound is eps cond(Xs'Xs)
        # times the size of the solution and the residual, in Xs's units.
        # The right-hand side is a vector (cols None) or has 1-3 columns,
        # as estimate_ss's successor states do; each column is checked.
        rng = np.random.default_rng(seed)
        X = conditioned_columns(rng, p + extra, p, log_cond)
        scale = np.linalg.norm(X, axis=0)
        kappa = np.linalg.cond(X / scale) ** 2
        assume(kappa <= 1e6)
        k = cols or 1
        fit = X @ rng.normal(size=(p, k))
        Y = fit + 10.0 ** log_noise * np.linalg.norm(fit, axis=0) * rng.normal(size=(p + extra, k))
        b = sysid.least_squares(X, Y if cols else Y[:, 0], "test regression")
        assert b.shape == ((p, cols) if cols else (p,))
        for y, b_y in zip(Y.T, b.reshape(p, k).T):
            ref = np.linalg.lstsq(X / scale, y, rcond=None)[0] / scale
            bound = np.linalg.norm(scale * ref) + np.linalg.norm(y - X @ ref)
            err = np.linalg.norm(scale * (b_y - ref))
            assert err <= 100 * p * np.finfo(float).eps * kappa * bound

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(1, 6), extra=st.integers(0, 60),
           kind=st.sampled_from(["zero column", "scaled copy", "rank p - 1"]),
           seed=st.integers(0, 2**32 - 1))
    # Rounding leaves this Gram matrix positive definite with a reciprocal
    # condition above eps; its rounding error, up to n p eps, is larger.
    @example(p=2, extra=40, kind="rank p - 1", seed=126)
    def test_refuses_a_deficient_rank(self, p, extra, kind, seed):
        rng = np.random.default_rng(seed)
        n = p + extra
        X = conditioned_columns(rng, n, p, 0.0)
        i, j = rng.permutation(p)[:2] if p > 1 else (0, 0)
        if kind == "zero column" or p == 1:
            X[:, j] = 0.0
        elif kind == "scaled copy":
            X[:, j] = X[:, i] * 2.0 ** int(rng.integers(-8, 9))
        else:
            X = rng.normal(size=(n, p - 1)) @ rng.normal(size=(p - 1, p))
        with pytest.raises(EstimationError, match="^test regression is rank deficient$"):
            sysid.least_squares(X, rng.normal(size=n), "test regression")

    def test_refuses_an_overflowing_gram_matrix(self):
        X = np.array([[1e200, 1.0], [2e200, 3.0], [1.0, 1.0]])
        with pytest.raises(EstimationError, match="^test regression overflows$"):
            sysid.least_squares(X, np.ones(3), "test regression")

    def test_singular_gauss_newton_step_is_an_estimation_error(self, truck_sc, truck_fit,
                                                                monkeypatch):
        # A Jacobian with two equal columns has a singular normal matrix;
        # it is refused as an estimation failure, not a LinAlgError.
        jacobian = sysid._output_jacobian

        def repeated_column(*args):
            J = jacobian(*args)
            J[:, -1] = J[:, 0]
            return J

        monkeypatch.setattr(sysid, "_output_jacobian", repeated_column)
        with pytest.raises(EstimationError, match="gray-box output Jacobian is rank deficient"):
            sysid.fit_graybox(truck_fit[0], mask=np.array(truck_sc.est_mask, bool))

    @pytest.mark.parametrize("kind", ["truck", "car"])
    def test_flat_route_refuses_the_slope_term(self, kind, request):
        # With no slope on the excitation route the active slope term's
        # regressor is zero on every sample.
        sc = replace(request.getfixturevalue(f"{kind}_sc"), est_slope_amp=0.0)
        assert sc.est_mask[4]
        data = harness.stage_dataset(sc)
        assert not data.alpha.any()
        with pytest.raises(EstimationError, match="rank deficient"):
            harness.stage_estimate(sc, data)


def left_point_init(data, mask):
    """Reference: the equation-error warm start with the grade read at each
    step's start, as it was, solved by ``np.linalg.lstsq``."""
    u, a = data.u[:-1], data.alpha[:-1]
    v = 0.5 * (data.v[:-1] + data.v[1:])
    cols = [u, np.ones_like(u), v, v * v, a, a * a]
    phi = np.stack([c for c, m in zip(cols, mask) if m], axis=1)
    theta = np.zeros(sysid.N_THETA)
    theta[mask] = np.linalg.lstsq(phi, np.diff(data.v) / data.h, rcond=None)[0]
    return theta


class TestWarmStart:
    @pytest.mark.parametrize("kind", ["truck", "car"])
    @pytest.mark.parametrize("seed", [1234, 1, 2])
    def test_midpoint_grade_halves_the_start_error(self, kind, seed):
        # Largest relative error on the active terms against the fitted
        # theta: 0.026-0.034 against 0.43-0.49 on the truck, 0.0005-0.0022
        # against 0.013-0.018 on the car.
        base = (config.default_truck_scenario() if kind == "truck"
                else config.default_car_scenario())
        sc = replace(base, seed=seed)
        data = harness.stage_dataset(sc)
        mask = np.array(sc.est_mask, bool)
        fitted = sysid.fit_graybox(data, mask=mask)[0].theta[mask]

        def error(theta):
            return np.max(np.abs(theta[mask] - fitted) / np.abs(fitted))

        assert error(sysid.equation_error_init(data, mask)) <= 0.5 * error(
            left_point_init(data, mask))


class TestIterationLimit:
    def test_returns_the_best_iterate_unconverged(self, car_sc, car_fit, monkeypatch,
                                                  tmp_path):
        # A Jacobian 1e3 times too large makes every Gauss-Newton step a
        # thousandth of the full one: each lowers the cost, but by too
        # little to end the fit before its 200 iterations.  The run's
        # report says so.
        data = car_fit[0]
        mask = np.array(car_sc.est_mask, bool)
        jacobian = sysid._output_jacobian
        monkeypatch.setattr(sysid, "_output_jacobian", lambda *args: 1e3 * jacobian(*args))

        def cost(theta):
            r = sysid._simulate_theta(theta, data.v[0], data.u, data.alpha, data.h) - data.v
            return float(r @ r)

        _, artifacts = harness._run_on_record(car_sc, data, tmp_path)
        model, fit = artifacts["model"], artifacts["fit"]
        assert fit.converged is False and fit.n_iter == 200
        assert cost(model.theta) < cost(sysid.equation_error_init(data, mask))
        assert fit.nrmse.hex() == sysid.validate(model, data).hex()
        assert read_keyvalues(tmp_path / "report.txt")["fit_converged"] == "0"


class TestFitNrmse:
    """The fit's own NRMSE is bit for bit what ``validate`` computes."""

    @pytest.mark.parametrize("case", ["truck", "car"])
    def test_equals_validate_on_the_stock_records(self, case, request):
        data, model, _, fit = request.getfixturevalue(f"{case}_fit")
        assert fit.nrmse.hex() == sysid.validate(model, data).hex()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(["truck", "car"]),
           duration=st.integers(10, 300), noise=st.sampled_from([0.0, 0.01, 0.1]),
           mask=st.lists(st.booleans(), min_size=5, max_size=5))
    def test_equals_validate_on_random_records(self, seed, case, duration, noise, mask):
        base = (config.default_truck_scenario() if case == "truck"
                else config.default_car_scenario())
        sc = replace(base, seed=seed, est_duration=float(duration), est_noise=noise)
        try:
            data = harness.stage_dataset(sc)
            model, fit = sysid.fit_graybox(data, mask=np.array([True, *mask]))
        except EstimationError:
            return
        assert fit.nrmse.hex() == sysid.validate(model, data).hex()

    def test_equals_validate_after_the_drag_clamp_retry(self, truck_sc, truck_fit,
                                                        monkeypatch):
        # A warm start with a positive quadratic drag diverges on the
        # record; the fit clamps that drag to zero and retries.  Inactive
        # terms start at zero, as the equation-error start leaves them.
        data = truck_fit[0]
        mask = np.array(truck_sc.est_mask, bool)
        start = np.where(mask, harness.true_theta(truck_sc), 0.0)
        start[3] = 0.05
        monkeypatch.setattr(sysid, "equation_error_init", lambda data, mask: start.copy())
        sims, simulate = [], sysid._simulate_theta

        def spy(*args):
            sims.append(simulate(*args))
            return sims[-1]

        monkeypatch.setattr(sysid, "_simulate_theta", spy)
        model, fit = sysid.fit_graybox(data, mask=mask)
        assert sims[0] is None and sims[1] is not None
        assert fit.converged
        assert fit.nrmse.hex() == sysid.validate(model, data).hex()


class TestEfficiency:
    def test_recovers_known_factors(self, rng):
        u = rng.uniform(-500.0, 500.0, 400)
        v = rng.uniform(5.0, 20.0, 400)
        P = np.where(u >= 0, 1.07, 0.93) * u * v
        eff = sysid.fit_efficiency(P, u, v)
        assert eff.gen_factor == pytest.approx(1.07, rel=1e-9)
        assert eff.regen_factor == pytest.approx(0.93, rel=1e-9)
        assert (eff.gen_status, eff.regen_status) == ("fitted", "fitted")

    def test_missing_regen_regime_defaults(self, rng):
        u = rng.uniform(10.0, 500.0, 200)
        v = rng.uniform(5.0, 20.0, 200)
        P = 1.1 * u * v
        eff = sysid.fit_efficiency(P, u, v)
        assert eff.regen_factor == 0.9
        assert (eff.gen_status, eff.regen_status) == ("fitted", "default")
        # The status is a record of the fit, not part of the value.
        assert eff == sysid.EfficiencyParams(eff.gen_factor, 0.9)

    def test_estimate_never_reads_the_plant_factors(self, car_sc, car_fit):
        # The car's excitation never brakes: the estimated regen factor is
        # the fixed prior, not the plant's 0.6, while gen is fitted.
        sc = replace(car_sc, eff_gen=1.25, eff_regen=0.6)
        data = harness.stage_dataset(sc)
        assert not np.any(data.u < 0.0)
        _, eff, _ = harness.stage_estimate(sc, data)
        assert eff.gen_factor == pytest.approx(1.25, rel=1e-12)
        assert (eff.regen_factor, eff.gen_status, eff.regen_status) == \
            (0.9, "fitted", "default")

    def test_inadmissible_estimates_clipped(self, rng):
        u = rng.uniform(10.0, 500.0, 200)
        v = rng.uniform(5.0, 20.0, 200)
        P = 0.7 * u * v   # below the gen >= 1 bound
        eff = sysid.fit_efficiency(P, u, v)
        assert eff.gen_factor == 1.0
        assert (eff.gen_status, eff.regen_status) == ("clipped", "default")

    @pytest.mark.parametrize("regen, want, status", [(1.2, 1.0, "clipped"),
                                                     (-0.5, 0.9, "default")])
    def test_inadmissible_regen_estimates(self, rng, regen, want, status):
        u = rng.uniform(-500.0, 500.0, 400)
        v = rng.uniform(5.0, 20.0, 400)
        P = np.where(u >= 0, 1.07, regen) * u * v
        eff = sysid.fit_efficiency(P, u, v)
        assert eff.regen_factor == want
        assert (eff.gen_status, eff.regen_status) == ("fitted", status)

    def test_inadmissible_params_rejected(self):
        with pytest.raises(ValueError):
            sysid.EfficiencyParams(gen_factor=0.95, regen_factor=0.9)
        with pytest.raises(ValueError):
            sysid.EfficiencyParams(gen_factor=1.1, regen_factor=1.05)
        for gen in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                sysid.EfficiencyParams(gen_factor=gen, regen_factor=0.9)


class TestLagBias:
    def test_large_motor_lag_biases_the_fit(self, truck_lag):
        """A ten-fold actuator lag must show up as parameter bias."""
        sc, data = truck_lag
        model, _, _ = harness.stage_estimate(sc, data)
        truth = harness.true_theta(sc)
        mask = np.array(sc.est_mask, bool)
        rel = np.abs((model.theta[mask] - truth[mask]) / truth[mask])
        assert rel.max() > 0.05
