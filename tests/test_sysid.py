"""Estimation tests: gray box, efficiency."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modru import config, harness, sysid
from modru.errors import EstimationError
from modru.plant import TruckParams


class TestGrayBox:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            sysid.GrayBoxModel(theta=np.zeros(4))
        with pytest.raises(ValueError):
            sysid.GrayBoxModel(theta=np.zeros(6))   # th1 == 0
        with pytest.raises(ValueError):
            sysid.GrayBoxModel(theta=np.ones(6),
                               mask=np.array([0, 1, 1, 1, 1, 1], bool))

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
        sim = m.simulate(10.0, np.zeros(n), np.zeros(n), 0.1)
        np.testing.assert_allclose(sim, 10.0 * np.exp(-0.1 * 0.1 * np.arange(n)),
                                   rtol=1e-8)

    def test_simulate_divergence_returns_none(self):
        m = sysid.GrayBoxModel(theta=np.array([1.0, 0.0, 2.0, 0.0, 0.0, 0.0]))
        assert m.simulate(1.0, np.zeros(500), np.zeros(500), 0.5) is None

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
        theta = TRUCK_THETA * rng.uniform(0.5, 1.5, 6) * (50.0 if blow_up else 1.0)
        u = rng.uniform(-3000.0, 6000.0, 300)
        alpha = rng.uniform(-0.05, 0.05, 300)
        v0 = rng.uniform(0.0, 30.0)
        sim = sysid._simulate_theta(theta, v0, u, alpha, h)
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
    return model, sysid.GrayBoxFit(converged=converged, n_iter=it, rms=rms)


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
        theta = TRUCK_THETA * rng.uniform(0.5, 1.5, 6) * (50.0 if blow_up else 1.0)
        u = rng.uniform(-3000.0, 6000.0, 300)
        alpha = rng.uniform(-0.05, 0.05, 300)
        v0 = rng.uniform(0.0, 30.0)
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


class TestEfficiency:
    def test_recovers_known_factors(self, rng):
        u = rng.uniform(-500.0, 500.0, 400)
        v = rng.uniform(5.0, 20.0, 400)
        P = np.where(u >= 0, 1.07, 0.93) * u * v
        eff = sysid.fit_efficiency(P, u, v)
        assert eff.gen_factor == pytest.approx(1.07, rel=1e-9)
        assert eff.regen_factor == pytest.approx(0.93, rel=1e-9)
        assert (eff.gen_status, eff.regen_status) == ("fitted", "fitted")

    def test_missing_regen_regime_warns_and_defaults(self, rng):
        u = rng.uniform(10.0, 500.0, 200)
        v = rng.uniform(5.0, 20.0, 200)
        P = 1.1 * u * v
        with pytest.warns(UserWarning, match="regeneration"):
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
        with pytest.warns(UserWarning, match="regeneration"):
            _, eff, _ = harness.stage_estimate(sc, data)
        assert eff.gen_factor == pytest.approx(1.25, rel=1e-12)
        assert (eff.regen_factor, eff.gen_status, eff.regen_status) == \
            (0.9, "fitted", "default")

    def test_inadmissible_estimates_clipped(self, rng):
        u = rng.uniform(10.0, 500.0, 200)
        v = rng.uniform(5.0, 20.0, 200)
        P = 0.7 * u * v   # below the gen >= 1 bound
        with pytest.warns(UserWarning):
            eff = sysid.fit_efficiency(P, u, v)
        assert eff.gen_factor == 1.0
        assert eff.gen_status == "clipped"

    @pytest.mark.parametrize("regen, want, status", [(1.2, 1.0, "clipped"),
                                                     (-0.5, 0.9, "default")])
    def test_inadmissible_regen_estimates(self, rng, regen, want, status):
        u = rng.uniform(-500.0, 500.0, 400)
        v = rng.uniform(5.0, 20.0, 400)
        P = np.where(u >= 0, 1.07, regen) * u * v
        with pytest.warns(UserWarning, match="regeneration"):
            eff = sysid.fit_efficiency(P, u, v)
        assert eff.regen_factor == want
        assert (eff.gen_status, eff.regen_status) == ("fitted", status)

    def test_inadmissible_params_rejected(self):
        with pytest.raises(ValueError):
            sysid.EfficiencyParams(gen_factor=0.95, regen_factor=0.9)
        with pytest.raises(ValueError):
            sysid.EfficiencyParams(gen_factor=1.1, regen_factor=1.05)


class TestLagBias:
    def test_large_motor_lag_biases_the_fit(self, truck_lag):
        """A ten-fold actuator lag must show up as parameter bias."""
        sc, data = truck_lag
        model, _, _ = harness.stage_estimate(sc, data)
        truth = harness.true_theta(sc)
        mask = np.array(sc.est_mask, bool)
        rel = np.abs((model.theta[mask] - truth[mask]) / truth[mask])
        assert rel.max() > 0.05
