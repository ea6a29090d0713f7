import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from occball import synthesis
from occball.cartpole import PhysicalParams, linearize, make_sensor
from occball.limits import bound_for_model, closed_loop, hinf_norm, linf_norm
from occball.linalg import StateSpaceModel, spectral_radius
from occball.sysid import collect_budget, fit_arx, fit_full_state, ho_kalman
from occball.synthesis import (
    EPSILON_BY_TIER,
    GameDareInfeasible,
    _attempt_level,
    build_generalized_plant,
    hinf_synthesize,
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
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                build_generalized_plant(model, bad)


class TestSynthesize:
    def test_stable_plant_large_epsilon_near_zero_controller(self):
        plant = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        syn = hinf_synthesize(build_generalized_plant(plant, 100.0))
        assert syn.feasible
        assert np.max(np.abs(syn.controller.C)) < 1e-2
        loop = closed_loop(plant, syn.controller)
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
        assert "stabilizable" in syn.reason

    def test_undetectable_unstable_mode_diagnosed(self):
        A = np.diag([2.0, 0.5])
        B = np.array([[1.0], [1.0]])
        C = np.array([[0.0, 1.0]])
        syn = hinf_synthesize(build_generalized_plant(StateSpaceModel(A, B, C, [[0.0]]), 1e-2))
        assert not syn.feasible
        assert "detectable" in syn.reason

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
        # the control and filter games of one level against scipy's QZ solver,
        # which handles the indefinite R and the cross term S directly
        model = identified_model(budget=5000, tier=tier)
        gp = build_generalized_plant(model, EPSILON_BY_TIER[tier])
        games = []
        real = synthesis._game_dare

        def recording(A, B, S, Q, R, n_pos):
            X, K, Rx = real(A, B, S, Q, R, n_pos)
            games.append((A, B, S, Q, R, X))
            return X, K, Rx

        monkeypatch.setattr(synthesis, "_game_dare", recording)
        _attempt_level(gp, gamma)
        assert len(games) == 2
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


# (ell0, tier, method, budget, seed): full-state and ARXHK fits on both ends of
# the noise range, and one ARXHK fit at budget 100 that is not stabilizable
PINNED_SYNTHESIS_CELLS = [
    (1.0, "noise_free", "fullstate", 5000, 1),
    (0.7, "rgb_like", "fullstate", 5000, 1),
    (1.0, "rgb_like", "arxhk", 1000, 1),
    (0.7, "noise_free", "arxhk", 1000, 1),
    (0.7, "rgb_like", "arxhk", 100, 1),
    (1.0, "noise_free", "arxhk", 100, 3),
]
PINNED_SYNTHESIS_SHA256 = "d8d53edd9c0a77fc"
PINNED_CLOSED_LOOP_T_SHA256 = "e07ea946b3a43ee6"
PINNED_GAMMA_TRACE_SHA256 = "8cffa8edc7f0a7ae"


@pytest.fixture(scope="module")
def pinned_syntheses():
    """(ell0, synthesis, gamma trace) per pinned cell, identified and synthesized once.

    The trace lists each _attempt_level call's (gamma, outcome) in order, the
    outcome being "ok" or the GameDareInfeasible text.
    """
    real = synthesis._attempt_level
    trace = []

    def recording(plant, gamma):
        try:
            result = real(plant, gamma)
        except GameDareInfeasible as exc:
            trace.append((gamma, str(exc)))
            raise
        trace.append((gamma, "ok"))
        return result

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesis, "_attempt_level", recording)
        for ell0, tier, method, budget, seed in PINNED_SYNTHESIS_CELLS:
            model = identified_model(budget, seed, ell0, method, tier)
            trace.clear()
            syn = hinf_synthesize(build_generalized_plant(model, EPSILON_BY_TIER[tier]))
            out.append((ell0, syn, list(trace)))
    return out


def test_pinned_synthesis_bytes(pinned_syntheses):
    digest = hashlib.sha256()
    for _, syn, _ in pinned_syntheses:
        # a feasible controller's empty reason hashes as the None it was pinned with
        fields = (syn.feasible, syn.gamma_design, syn.gamma_achieved, syn.reason or None)
        digest.update(repr(fields).encode())
        if syn.controller is not None:
            for M in (syn.controller.A, syn.controller.B, syn.controller.C, syn.controller.D):
                digest.update(np.ascontiguousarray(M, dtype=float).tobytes())
    assert digest.hexdigest()[:16] == PINNED_SYNTHESIS_SHA256


def test_pinned_closed_loop_T_bytes(pinned_syntheses):
    # T of each feasible pinned cell's controller on the true plant, as harness.score builds it
    digest = hashlib.sha256()
    for ell0, syn, _ in pinned_syntheses:
        if syn.controller is None:
            continue
        T = closed_loop(linearize(PhysicalParams(ell0=ell0)), syn.controller).T
        for M in (T.A, T.B, T.C, T.D):
            digest.update(np.ascontiguousarray(M, dtype=float).tobytes())
    assert digest.hexdigest()[:16] == PINNED_CLOSED_LOOP_T_SHA256


def test_pinned_gamma_trace(pinned_syntheses):
    # every level the bisection tried, and why it passed or failed
    digest = hashlib.sha256()
    for _, _, trace in pinned_syntheses:
        for gamma, outcome in trace:
            digest.update(repr((gamma, outcome)).encode())
    assert sum(len(trace) for _, _, trace in pinned_syntheses) > 0
    assert digest.hexdigest()[:16] == PINNED_GAMMA_TRACE_SHA256


class TestBoundConsistency:
    @pytest.mark.parametrize("ell0", [1.0, 0.9])
    def test_synthesized_loop_respects_bound(self, ell0):
        model = identified_model(ell0=ell0, seed=7)
        syn = hinf_synthesize(build_generalized_plant(model, 5e-3))
        assert syn.feasible
        truth = linearize(PhysicalParams(ell0=ell0))
        loop = closed_loop(truth, syn.controller)
        assert loop.internally_stable
        bound = bound_for_model(truth)
        assert hinf_norm(loop.T) >= bound - 1e-3

