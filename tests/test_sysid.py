"""Estimation tests: state-space regression, gray box, efficiency."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modru import config, harness, sysid
from modru.errors import EstimationError
from modru.plant import TruckParams


class TestStateSpace:
    def test_exact_recovery(self, rng):
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        B = np.array([[0.0], [0.5]])
        U = rng.standard_normal((300, 1))
        X = np.zeros((301, 2))
        for k in range(300):
            X[k + 1] = A @ X[k] + B[:, 0] * U[k, 0]
        A_hat, B_hat = sysid.estimate_ss(X, np.vstack([U, [[0.0]]]))
        np.testing.assert_allclose(A_hat, A, atol=1e-10)
        np.testing.assert_allclose(B_hat, B, atol=1e-10)

    def test_explicit_next_state_form(self, rng):
        A = np.array([[0.7]])
        B = np.array([[0.3]])
        X = rng.standard_normal((100, 1))
        U = rng.standard_normal((100, 1))
        Xn = X @ A.T + U @ B.T
        A_hat, B_hat = sysid.estimate_ss(X, U, Xn)
        np.testing.assert_allclose(A_hat, A, atol=1e-12)
        np.testing.assert_allclose(B_hat, B, atol=1e-12)

    def test_rank_deficiency_raises(self):
        X = np.ones((50, 2))
        U = np.ones((50, 1))
        with pytest.raises(EstimationError):
            sysid.estimate_ss(X, U)


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
        assert m.rhs(v=0.0, u=1.0, alpha=0.0) == pytest.approx(1.0 + 2.0)

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
            eff = sysid.fit_efficiency(P, u, v, defaults=(1.1, 0.85))
        assert eff.regen_factor == 0.85
        assert (eff.gen_status, eff.regen_status) == ("fitted", "default")
        # The status is a record of the fit, not part of the value.
        assert eff == sysid.EfficiencyParams(eff.gen_factor, 0.85)

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
    def test_large_motor_lag_biases_the_fit(self, truck_sc):
        """A ten-fold actuator lag must show up as parameter bias."""
        sc = replace(truck_sc, plant_params=TruckParams(T_m=10.0))
        data = harness.stage_dataset(sc)
        model, _, _ = harness.stage_estimate(sc, data)
        truth = harness.true_theta(sc)
        mask = np.array(sc.est_mask, bool)
        rel = np.abs((model.theta[mask] - truth[mask]) / truth[mask])
        assert rel.max() > 0.05
