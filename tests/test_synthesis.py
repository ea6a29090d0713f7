import math

import numpy as np
import pytest
import scipy.linalg

from occball import synthesis
from occball.cartpole import PhysicalParams, linearize, make_sensor
from occball.limits import bound_for_model, closed_loop, hinf_norm, linf_norm
from occball.linalg import StateSpaceModel, negate_output, spectral_radius
from occball.sysid import collect_budget, fit_arx, fit_full_state, ho_kalman
from occball.synthesis import (
    EPSILON_BY_TIER,
    GameDareInfeasible,
    _attempt_level,
    build_generalized_plant,
    hinf_synthesize,
    validate_controller,
)

PARAMS = PhysicalParams(ell0=1.0)


def identified_model(budget=20000, seed=42, ell0=1.0, method="fullstate", tier="noise_free"):
    params = PhysicalParams(ell0=ell0)
    sensor = make_sensor(tier, params)
    data = collect_budget(params, sensor, budget, seed=seed)
    if method == "fullstate":
        return fit_full_state(data, params.ell0, params.tau)
    return ho_kalman(fit_arx(data, 10), 4).to_model(params.tau)


class TestGeneralizedPlant:
    def test_shapes(self):
        model = identified_model(budget=2000)
        gp = build_generalized_plant(model, 0.01)
        assert gp.C1.shape == (5, 4)
        assert gp.D12.shape == (5, 1)
        assert np.allclose(gp.D12.ravel(), [0, 0, 0, 0, 0.01])
        assert gp.B1.shape == (4, 5)
        assert gp.D21.shape == (1, 5)
        assert np.allclose(gp.D21.ravel(), [0, 0, 0, 0, 1.0])

    def test_tier_epsilons(self):
        assert EPSILON_BY_TIER["noise_free"] == 5e-3
        assert EPSILON_BY_TIER["depth_like"] == 1e-6
        assert EPSILON_BY_TIER["rgb_like"] == 1e-6

    def test_epsilon_validation(self):
        model = identified_model(budget=2000)
        with pytest.raises(ValueError):
            build_generalized_plant(model, 0.0)
        with pytest.raises(ValueError):
            build_generalized_plant(model, -1.0)


class TestSynthesize:
    def test_stable_plant_large_epsilon_near_zero_controller(self):
        plant = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        syn = hinf_synthesize(build_generalized_plant(plant, 100.0))
        assert syn.feasible
        assert np.max(np.abs(syn.controller.C)) < 1e-2
        loop = closed_loop(plant, negate_output(syn.controller))
        assert loop.internally_stable
        # closed loop is essentially the open loop
        assert hinf_norm(loop.T) < 0.05

    def test_cartpole_baseline_configuration(self):
        model = identified_model()
        syn = hinf_synthesize(build_generalized_plant(model, 5e-3))
        assert syn.feasible
        assert syn.controller.D[0, 0] == 0.0  # strictly causal
        # certificate holds: measured closed-loop norm within the design level
        assert syn.gamma_achieved <= syn.gamma_design * (1 + 1e-6)
        # independent reconstruction of the certified interconnection
        gp = build_generalized_plant(model, 5e-3)
        K = syn.controller
        Acl = np.block([[gp.A, gp.B2 @ K.C], [K.B @ gp.C2, K.A]])
        assert spectral_radius(Acl) < 1.0
        Bcl = np.vstack([gp.B1, K.B @ gp.D21])
        Ccl = np.hstack([gp.C1, gp.D12 @ K.C])
        measured = linf_norm(Acl, Bcl, Ccl)
        assert measured <= syn.gamma_design * (1 + 1e-6)

    def test_uncontrollable_unstable_mode_diagnosed(self):
        A = np.diag([2.0, 0.5])
        B = np.array([[0.0], [1.0]])
        C = np.array([[1.0, 1.0]])
        syn = hinf_synthesize(build_generalized_plant(StateSpaceModel(A, B, C, [[0.0]]), 1e-2))
        assert not syn.feasible
        assert "stabilizable" in syn.diagnostics["reason"]

    def test_undetectable_unstable_mode_diagnosed(self):
        A = np.diag([2.0, 0.5])
        B = np.array([[1.0], [1.0]])
        C = np.array([[0.0, 1.0]])
        syn = hinf_synthesize(build_generalized_plant(StateSpaceModel(A, B, C, [[0.0]]), 1e-2))
        assert not syn.feasible
        assert "detectable" in syn.diagnostics["reason"]

    def test_bisection_monotone_feasibility(self):
        model = identified_model(budget=5000)
        gp = build_generalized_plant(model, 5e-3)
        syn = hinf_synthesize(gp)
        assert syn.feasible
        for factor in (1.5, 10.0, 100.0):
            _attempt_level(gp, syn.gamma_design * factor)

    def test_infeasible_below_optimum(self):
        model = identified_model(budget=5000)
        gp = build_generalized_plant(model, 5e-3)
        syn = hinf_synthesize(gp)
        for factor in (0.1, 0.5, 0.99):
            with pytest.raises(GameDareInfeasible):
                _attempt_level(gp, syn.gamma_design * factor)

    @pytest.mark.parametrize("gamma", [1e3, 1e6])
    @pytest.mark.parametrize("tier", ["noise_free", "depth_like"])
    def test_game_dares_match_scipy(self, monkeypatch, tier, gamma):
        # the X, Y and filter games of one level against scipy's QZ solver,
        # which handles the indefinite R and the cross term S directly
        model = identified_model(budget=5000, tier=tier)
        gp = build_generalized_plant(model, EPSILON_BY_TIER[tier])
        games = []
        real = synthesis._game_dare

        def recording(A, B, S, Q, R, n_pos):
            X, K = real(A, B, S, Q, R, n_pos)
            games.append((A, B, S, Q, R, X))
            return X, K

        monkeypatch.setattr(synthesis, "_game_dare", recording)
        _attempt_level(gp, gamma)
        assert len(games) == 3
        for A, B, S, Q, R, X in games:
            ref = scipy.linalg.solve_discrete_are(A, B, Q, R, s=S)
            assert np.linalg.norm(X - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_epsilon_weighting_direction(self):
        # 10x epsilon never increases the disturbance-to-control-effort gain
        model = identified_model(budget=5000)

        def effort_norm(eps):
            gp = build_generalized_plant(model, eps)
            syn = hinf_synthesize(gp)
            assert syn.feasible
            K = syn.controller
            Acl = np.block([[gp.A, gp.B2 @ K.C], [K.B @ gp.C2, K.A]])
            Bcl = np.vstack([gp.B1, K.B @ gp.D21])
            Ccl = np.hstack([np.zeros((1, gp.n)), K.C])
            return linf_norm(Acl, Bcl, Ccl)

        n1 = effort_norm(5e-3)
        n2 = effort_norm(5e-2)
        assert n2 <= n1 * (1 + 1e-6)


class TestBoundConsistency:
    @pytest.mark.parametrize("ell0", [1.0, 0.9])
    def test_synthesized_loop_respects_bound(self, ell0):
        model = identified_model(ell0=ell0, seed=7)
        syn = hinf_synthesize(build_generalized_plant(model, 5e-3))
        assert syn.feasible
        truth = linearize(PhysicalParams(ell0=ell0))
        loop = closed_loop(truth, negate_output(syn.controller))
        assert loop.internally_stable
        bound = bound_for_model(truth)
        assert hinf_norm(loop.T) >= bound.value - 1e-3


class TestValidateController:
    def test_report_fields(self):
        model = identified_model(budget=5000, seed=3)
        syn = hinf_synthesize(build_generalized_plant(model, 5e-3))
        report = validate_controller(syn, PARAMS)
        assert report.internally_stable
        assert report.bound == pytest.approx(1.0)
        assert report.bound_respected
        assert report.hinf_T >= 1.0 - 1e-3
        assert report.max_angle_deg > 1.0

    def test_model_mismatch_flagged(self):
        # tiny-budget identification at a hard fixation: the synthesized
        # controller stabilizes its own model but not the true plant
        model = identified_model(budget=100, seed=13, ell0=0.7, method="arxhk")
        syn = hinf_synthesize(build_generalized_plant(model, 5e-3))
        if not syn.feasible:
            pytest.skip("synthesis infeasible on this identified model")
        report = validate_controller(syn, PhysicalParams(ell0=0.7))
        assert not report.internally_stable
        assert math.isinf(report.hinf_T)
        assert report.max_angle_deg == 0.0

    def test_rejects_infeasible(self):
        from occball.synthesis import SynthesizedController

        bad = SynthesizedController(None, math.inf, 1e-2, False)
        with pytest.raises(ValueError):
            validate_controller(bad, PARAMS)
