import csv
import math

import numpy as np
import pytest

from occball.cartpole import (
    SENSOR_STREAM,
    Dataset,
    EpisodeConfig,
    PhysicalParams,
    SensorSpec,
    SimState,
    episode_metadata,
    linearize,
    make_sensor,
    run_episode,
    sample_initial_state,
    save_trajectory,
    simulate,
    step,
)
from occball.controllers import Controller, LtiController, ZeroController
from occball.harness import AngleResult, identify, max_stabilized_angle
from occball.linalg import poles
from occball.rngtools import CHUNK, substream
from occball.synthesis import EPSILON_BY_TIER, build_generalized_plant, hinf_synthesize
from occball.sysid import collect_budget, dataset_hash


class TestParams:
    def test_defaults_match_benchmark(self):
        p = PhysicalParams()
        assert (p.M, p.m, p.ell, p.tau) == (1.0, 0.1, 1.0, 0.02)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PhysicalParams(M=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(ell0=1.5)
        with pytest.raises(ValueError):
            PhysicalParams(ell0=0.0)

    @pytest.mark.parametrize("cls, field, value", [
        (PhysicalParams, "tau", math.inf),
        (PhysicalParams, "g", math.nan),
        (PhysicalParams, "m", 0.0),
        (PhysicalParams, "ell0", math.nan),
        (EpisodeConfig, "h_limit", math.nan),
        (EpisodeConfig, "h_limit", math.inf),
        (EpisodeConfig, "theta_limit_deg", 0.0),
        (EpisodeConfig, "init_halfwidth", -0.1),
        (EpisodeConfig, "init_halfwidth", math.nan),
        (EpisodeConfig, "max_steps", 2.5),
        (EpisodeConfig, "max_steps", 0),
        (EpisodeConfig, "max_steps", True),
        (SensorSpec, "noise_frac", math.nan),
        (SensorSpec, "noise_frac", -0.01),
        (SensorSpec, "z_range", math.inf),
    ])
    def test_rejects_bad_field(self, cls, field, value):
        # a nan limit would switch off its stop, and a nan or negative noise
        # level would read as noise-free
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})


class TestSimState:
    def test_keywords_default_to_zero(self):
        st = SimState(theta=0.1)
        assert (st.h, st.h_dot, st.theta, st.theta_dot) == (0.0, 0.0, 0.1, 0.0)

    def test_immutable(self):
        st = SimState()
        with pytest.raises(AttributeError):
            st.h = 1.0

    def test_array_roundtrip(self):
        x = np.array([0.1, -0.2, 0.03, 0.4])
        back = np.array(SimState(*x))
        assert back.dtype == np.float64 and np.array_equal(back, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="state entries must be finite"):
            SimState(theta_dot=bad)

    def test_overflowing_step_rejected(self):
        # a finite force whose acceleration overflows must still stop the episode
        class Huge(Controller):
            def act(self, y):
                return 1.7e308

        p = PhysicalParams(M=0.5)
        with pytest.raises(ValueError, match="state entries must be finite"):
            run_episode(p, EpisodeConfig(seed=0), Huge(), make_sensor("noise_free", p))


class TestAccelerations:
    # step applies the accelerations for tau from the pre-step state, so
    # from rest its velocities are tau times them

    def test_equilibrium(self):
        for rest in (SimState(), SimState(h=0.3)):
            assert step(PhysicalParams(), rest, 0.0) == rest

    def test_small_tilt_oracle(self):
        # hand-solve the 2x2 system at theta=0.01:
        #   (M+m) hdd + m*ell*tdd = 0,  cos(t) hdd + ell tdd = g sin(t)
        p = PhysicalParams()
        st = step(p, SimState(theta=0.01), 0.0)
        hdd, tdd = st.h_dot / p.tau, st.theta_dot / p.tau
        s, c = math.sin(0.01), math.cos(0.01)
        mat = np.array([[p.M + p.m, p.m * p.ell], [c, p.ell]])
        rhs = np.array([0.0, p.g * s])
        ref = np.linalg.solve(mat, rhs)
        assert hdd == pytest.approx(ref[0], abs=1e-12)
        assert tdd == pytest.approx(ref[1], abs=1e-12)
        assert hdd == pytest.approx(-0.0098098, abs=1e-6)
        assert tdd == pytest.approx(0.107908, abs=1e-6)

    def test_unit_force_upright(self):
        p = PhysicalParams()
        st = step(p, SimState(), 1.0)
        assert (st.h, st.theta) == (0.0, 0.0)
        assert st.h_dot / p.tau == pytest.approx(1.0, abs=1e-12)
        assert st.theta_dot / p.tau == pytest.approx(-1.0, abs=1e-12)

    def test_odd_symmetry(self):
        # sin is odd and cos even, so the mirrored state and force give the
        # mirrored next state to the bit
        p = PhysicalParams()
        st = SimState(h=0.1, h_dot=-0.2, theta=0.05, theta_dot=0.3)
        neg = SimState(h=-0.1, h_dot=0.2, theta=-0.05, theta_dot=-0.3)
        assert step(p, st, 2.0) == tuple(-v for v in step(p, neg, -2.0))


class TestStep:
    def test_equilibrium_invariant(self):
        st = step(PhysicalParams(), SimState(), 0.0)
        assert st == SimState()

    def test_one_step_oracle(self):
        st = step(PhysicalParams(), SimState(theta=0.01), 0.0)
        assert st.h == 0.0
        assert st.h_dot == pytest.approx(-0.000196196, abs=1e-8)
        assert st.theta == 0.01
        assert st.theta_dot == pytest.approx(0.00215815, abs=1e-7)

    def test_composition(self):
        p = PhysicalParams()
        st = SimState(h=0.01, theta=0.02, theta_dot=-0.1)
        once = step(p, step(p, st, 0.5), 0.5)
        twice = st
        for _ in range(2):
            twice = step(p, twice, 0.5)
        assert once == twice

    def test_negation_symmetry(self):
        p = PhysicalParams()
        st = SimState(h=0.1, h_dot=-0.2, theta=0.05, theta_dot=0.3)
        neg = SimState(h=-0.1, h_dot=0.2, theta=-0.05, theta_dot=-0.3)
        fwd = step(p, st, 1.5)
        bwd = step(p, neg, -1.5)
        assert fwd.h == pytest.approx(-bwd.h, abs=1e-15)
        assert fwd.theta_dot == pytest.approx(-bwd.theta_dot, abs=1e-15)


def first_reading(p, sensor, state):
    """The measurement simulate takes of state, before any force acts."""
    _, traj, _ = simulate(p, EpisodeConfig(max_steps=1), ZeroController(), sensor, state, None)
    return traj.z[0]


class TestObserve:
    """The fixation-point measurement y = h + ell0 sin(theta) + noise that simulate takes."""

    def test_noise_free_reads_fixation_point(self):
        p = PhysicalParams()
        sensor = make_sensor("noise_free", p)
        assert first_reading(p, sensor, SimState(h=0.1)) == pytest.approx(0.1, abs=1e-15)

    def test_fixation_geometry(self):
        p = PhysicalParams(ell0=0.9)
        sensor = make_sensor("noise_free", p)
        y = first_reading(p, sensor, SimState(theta=math.radians(15.0)))
        assert y == pytest.approx(0.9 * math.sin(math.radians(15.0)), abs=1e-6)
        assert y == pytest.approx(0.232937, abs=1e-6)

    def test_depth_sigma_calibration(self):
        p = PhysicalParams(ell0=1.0)
        sensor = make_sensor("depth_like", p)
        assert sensor.z_range == pytest.approx(2 * (0.6 + math.sin(math.radians(15))), abs=1e-9)
        assert sensor.sigma == pytest.approx(5.153e-4, abs=2e-7)

    def test_noise_statistics(self):
        p = PhysicalParams()
        sensor = make_sensor("rgb_like", p)
        _, traj, _ = simulate(p, EpisodeConfig(max_steps=4000), ZeroController(), sensor,
                              SimState(), substream(0, SENSOR_STREAM))
        x = traj.x_full
        draws = traj.z - (x[:, 0] + p.ell0 * np.sin(x[:, 2]))
        assert len(draws) == 4000
        assert abs(draws.mean()) < 4 * sensor.sigma / np.sqrt(len(draws)) * 2
        assert draws.std() == pytest.approx(sensor.sigma, rel=0.1)

    def test_noisy_sensor_requires_rng(self):
        p = PhysicalParams()
        with pytest.raises(ValueError, match="RNG"):
            simulate(p, EpisodeConfig(), ZeroController(), make_sensor("depth_like", p),
                     SimState(), rng_sensor=None)


class TestLinearize:
    def test_cartpole_poles(self):
        got = sorted(v.real for v in poles(linearize(PhysicalParams())))
        assert np.allclose(got, [0.93430, 1.0, 1.0, 1.06570], atol=1e-5)

    def test_readout_row(self):
        m = linearize(PhysicalParams(ell0=0.7))
        assert np.allclose(m.C, [[1.0, 0.0, 0.7, 0.0]])
        assert (m.C @ np.array([0.2, 0.0, 0.1, 0.0])).item() == pytest.approx(0.27)

    def test_jacobian_of_step(self):
        # central differences of the nonlinear step at the origin
        p = PhysicalParams(ell0=0.8)
        m = linearize(p)
        eps = 1e-6
        A_fd = np.zeros((4, 4))
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = eps
            plus = np.array(step(p, SimState(*dx), 0.0))
            minus = np.array(step(p, SimState(*-dx), 0.0))
            A_fd[:, j] = (plus - minus) / (2 * eps)
        B_fd = (
            np.array(step(p, SimState(), eps)) - np.array(step(p, SimState(), -eps))
        ) / (2 * eps)
        assert np.max(np.abs(A_fd - m.A)) < 1e-6
        assert np.max(np.abs(B_fd - m.B[:, 0])) < 1e-6

    def test_linearization_consistency_small_signals(self):
        p = PhysicalParams()
        m = linearize(p)
        rng = substream(7, "lin-consistency")
        for _ in range(20):
            x = rng.uniform(-1e-4, 1e-4, 4)
            u = float(rng.uniform(-1e-4, 1e-4))
            nl = np.array(step(p, SimState(*x), u))
            lin = m.A @ x + m.B[:, 0] * u
            assert np.max(np.abs(nl - lin)) < 1e-8

    def test_observation_matches_linear_readout(self):
        p = PhysicalParams(ell0=0.9)
        m = linearize(p)
        st = SimState(h=0.01, theta=0.005)
        y = st.h + p.ell0 * math.sin(st.theta)
        y_lin = (m.C @ np.array(st)).item()
        assert abs(y - y_lin) < abs(st.theta) ** 3


class TestRunEpisode:
    def test_equilibrium_survives(self):
        p = PhysicalParams()
        cfg = EpisodeConfig(seed=1)
        result, traj, _ = run_episode(p, cfg, ZeroController(), make_sensor("noise_free", p),
                                      init_state=SimState())
        assert result.success and result.steps == 500 and result.cause == "completed"
        assert len(traj) == 500

    def test_open_loop_falls(self):
        p = PhysicalParams()
        cfg = EpisodeConfig(seed=1)
        result, _, _ = run_episode(p, cfg, ZeroController(), make_sensor("noise_free", p),
                                   init_state=SimState(theta=math.radians(5.0)))
        assert not result.success
        assert result.steps < 500
        assert result.cause in ("theta_limit", "h_limit")

    def test_determinism(self):
        p = PhysicalParams(ell0=0.8)
        cfg = EpisodeConfig(seed=123)
        sensor = make_sensor("depth_like", p)
        r1, t1, _ = run_episode(p, cfg, ZeroController(), sensor)
        r2, t2, _ = run_episode(p, cfg, ZeroController(), sensor)
        assert r1 == r2
        assert np.array_equal(t1.z, t2.z)
        assert np.array_equal(t1.x_full, t2.x_full)

    def test_nonfinite_action_aborts(self):
        class BadController(ZeroController):
            def act(self, y):
                return math.nan

        p = PhysicalParams()
        result, traj, _ = run_episode(p, EpisodeConfig(seed=0), BadController(),
                                      make_sensor("noise_free", p))
        assert result.cause == "nonfinite_action"
        assert result.steps == 0
        assert len(traj) == 1

    def test_seeded_episode_is_pinned(self):
        # a lead compensator on a noisy sensor; the hash moves if the loop's
        # draw order or arithmetic changes
        class Lead(Controller):
            def reset(self):
                self.prev = None

            def act(self, y):
                dy = 0.0 if self.prev is None else y - self.prev
                self.prev = y
                return 20.0 * y + 2.0 * dy / 0.02

        p = PhysicalParams(ell0=0.7)
        result, traj, _ = run_episode(p, EpisodeConfig(seed=11), Lead(),
                                      make_sensor("depth_like", p))
        assert (result.steps, result.cause) == (43, "theta_limit")
        assert dataset_hash(traj) == (
            "99280f67a996b71d08bb98e0139b375edfbdcac4385c92320e7d925e26164d7a"
        )

    def test_measurement_matches_observe(self):
        # simulate computes y inline from chunked draws; replaying its recorded
        # states, then the state one step past the last, through y = h + ell0
        # sin(theta) + sigma * noise with scalar draws from a fresh copy of the
        # sensor substream gives the same bits.  From rest with no force
        # the pole stays up, so max_steps puts the end on each side of a chunk
        p = PhysicalParams(ell0=0.8)
        sensor = make_sensor("rgb_like", p)
        cases = [(500, None)] + [(n, SimState()) for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK)]
        for max_steps, start in cases:
            cfg = EpisodeConfig(seed=17, max_steps=max_steps)
            _, traj, y_end = run_episode(p, cfg, ZeroController(), sensor, start)
            final = step(p, SimState(*traj.x_full[-1]), traj.u[-1])
            rng = substream(cfg.seed, SENSOR_STREAM)

            def reading(st):
                return st.h + p.ell0 * math.sin(st.theta) + sensor.sigma * rng.standard_normal()

            replayed = [reading(SimState(*x)) for x in traj.x_full]
            assert len(traj) > 10 and np.array_equal(np.array(replayed), traj.z)
            assert y_end == reading(final)

    def test_cart_limit_measured_from_origin(self):
        p = PhysicalParams()
        cfg = EpisodeConfig(max_steps=50)
        sensor = make_sensor("noise_free", p)
        start = SimState(h=1.0)
        result, traj, _ = simulate(p, cfg, ZeroController(), sensor, start, None)
        assert (result.cause, result.steps, len(traj)) == ("h_limit", 0, 1)
        result, traj, y_end = simulate(p, cfg, ZeroController(), sensor, start, None,
                                       h_origin=1.0)
        final = step(p, SimState(*traj.x_full[-1]), traj.u[-1])
        assert result.success and len(traj) == 50 and final == start and y_end == 1.0

    def test_max_reward_is_500(self):
        assert EpisodeConfig().max_steps == 500

    def test_init_sampling_bounds(self):
        cfg = EpisodeConfig()
        rng = substream(11, "init")
        for _ in range(100):
            st = sample_initial_state(cfg, rng)
            assert np.max(np.abs(np.array(st))) <= 0.05


class TestLtiEpisodePinned:
    """An identified H-infinity controller on the nonlinear cartpole, pinned by hash.

    The controller comes from an excitation dataset through identify and
    hinf_synthesize, so the hashes also move if collection, the full-state
    fit or synthesis changes a bit.
    """

    PARAMS = PhysicalParams(ell0=0.9)

    @pytest.fixture(scope="class")
    def controller(self):
        data = collect_budget(self.PARAMS, make_sensor("rgb_like", self.PARAMS), 1000, seed=5)
        model = identify("fullstate", data, self.PARAMS, arx_order=10, model_order=4)
        syn = hinf_synthesize(build_generalized_plant(model, EPSILON_BY_TIER["rgb_like"]))
        assert syn.feasible
        return LtiController(syn.controller)

    def test_rgb_like_episode(self, controller):
        result, traj, _ = run_episode(self.PARAMS, EpisodeConfig(seed=13), controller,
                                      make_sensor("rgb_like", self.PARAMS))
        assert (result.steps, result.cause) == (500, "completed")
        assert dataset_hash(traj) == (
            "0ae7d0eb0ab0f1524683d8ca5d237f12b0fafba7dbe6faa2710839557c2a4fe7"
        )

    def test_depth_like_angle(self, controller):
        res = max_stabilized_angle(controller, self.PARAMS, make_sensor("depth_like", self.PARAMS))
        assert res == AngleResult(4.21875, True)


class TestTrajectoryIO:
    def test_roundtrip(self, tmp_path):
        p = PhysicalParams()
        cfg = EpisodeConfig(seed=5)
        sensor = make_sensor("noise_free", p)
        result, traj, _ = run_episode(p, cfg, ZeroController(), sensor)
        path = tmp_path / "traj.csv"
        save_trajectory(path, traj, meta=episode_metadata(p, cfg, sensor, result))
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["t", "h", "h_dot", "theta", "theta_dot", "u", "y"]
        arr = np.array(rows, dtype=float)
        assert np.array_equal(arr[:, 0], np.arange(len(traj)))
        assert np.array_equal(arr[:, 1:5], traj.x_full)
        assert np.array_equal(arr[:, 5], traj.u)
        assert np.array_equal(arr[:, 6], traj.z)
        assert (tmp_path / "traj.csv.meta.json").exists()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(z=np.zeros(3), u=np.zeros(2), x_full=np.zeros((3, 4)), lengths=[3])

    @pytest.mark.parametrize("x_full", [None, np.zeros((3, 3)), np.zeros(12), np.zeros((2, 4))],
                             ids=["missing", "n-by-3", "flat", "short"])
    def test_states_must_be_n_by_4(self, x_full):
        with pytest.raises(ValueError, match="x_full"):
            Dataset(z=np.zeros(3), u=np.zeros(3), x_full=x_full, lengths=[3])
