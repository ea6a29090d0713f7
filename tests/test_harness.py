import csv
import hashlib
import json
import math

import numpy as np
import pytest

from occball import harness
from occball.cartpole import EpisodeConfig, PhysicalParams, linearize, make_sensor, run_episode
from occball.controllers import Controller, LtiController, ZeroController
from occball.harness import (
    ExperimentSpec,
    evaluate,
    identify,
    max_stabilized_angle,
    run_sweep,
    score,
)
from occball.limits import bound_for_model
from occball.linalg import StateSpaceModel, solve_dare
from occball.synthesis import build_generalized_plant, hinf_synthesize
from occball.sysid import collect_budget, dataset_hash

PARAMS = PhysicalParams()
SENSOR = make_sensor("noise_free", PARAMS)


def lqg_controller(params=PARAMS) -> LtiController:
    plant = linearize(params)
    A, B, C = plant.A, plant.B, plant.C
    P = solve_dare(A, B, np.eye(4), np.eye(1) * 0.1)
    K = np.linalg.solve(0.1 * np.eye(1) + B.T @ P @ B, B.T @ P @ A)
    Pf = solve_dare(A.T, C.T, 0.01 * np.eye(4), np.eye(1) * 1e-4)
    L = np.linalg.solve(1e-4 * np.eye(1) + C @ Pf @ C.T, C @ Pf @ A.T).T
    Ak = A - B @ K - L @ C
    return LtiController(StateSpaceModel(Ak, L, -K, np.zeros((1, 1)), plant.dt))


class ThresholdController(Controller):
    """Stabilizes the pole iff the first measurement implies an angle
    below the threshold; otherwise goes limp.  Gives the angle bisection a
    known ground truth."""

    def __init__(self, inner: Controller, threshold_deg: float, ell0: float = 1.0):
        self.inner = inner
        self.y_max = ell0 * math.sin(math.radians(threshold_deg))
        self._give_up = False
        self._first = True

    def reset(self):
        self.inner.reset()
        self._give_up = False
        self._first = True

    def act(self, y: float) -> float:
        if self._first:
            self._give_up = abs(y) > self.y_max + 1e-12
            self._first = False
        return 0.0 if self._give_up else self.inner.act(y)


class TestEvaluate:
    def test_all_survive_gives_perfect_score(self):
        # from near-equilibrium starts the LQG loop always survives
        cfg = EpisodeConfig(init_halfwidth=1e-4)
        result = evaluate(lqg_controller(), PARAMS, SENSOR, n_episodes=10, seed=1, config=cfg)
        assert result.avg_reward == 500.0
        assert result.success_rate == 1.0

    def test_zero_controller_fails(self):
        result = evaluate(ZeroController(), PARAMS, SENSOR, n_episodes=10, seed=1)
        assert result.success_rate == 0.0
        assert result.avg_reward < 500.0

    def test_success_rate_arithmetic(self):
        # partial-success mix: the rate is exactly the success fraction
        result = evaluate(lqg_controller(), PARAMS, SENSOR, n_episodes=7, seed=2)
        successes = sum(1 for ep in result.episodes if ep.success)
        assert result.success_rate == pytest.approx(successes / 7)
        assert result.avg_reward == pytest.approx(
            sum(ep.reward for ep in result.episodes) / 7
        )

    @pytest.mark.parametrize("n_episodes", [2.5, float("nan"), 0])
    def test_non_integer_episode_count_rejected(self, monkeypatch, n_episodes):
        monkeypatch.setattr(harness, "run_episode", lambda *args, **kwargs: pytest.fail("ran"))
        with pytest.raises(ValueError, match=r"n_episodes must be an integer >= 1, got"):
            evaluate(ZeroController(), PARAMS, SENSOR, n_episodes=n_episodes, seed=1)

    def test_deterministic(self):
        r1 = evaluate(lqg_controller(), PARAMS, make_sensor("depth_like", PARAMS), 5, seed=3)
        r2 = evaluate(lqg_controller(), PARAMS, make_sensor("depth_like", PARAMS), 5, seed=3)
        assert r1.avg_reward == r2.avg_reward
        assert r1.episodes == r2.episodes


class TestLtiControllerPinned:
    """An observer-based LtiController on a noisy sensor, pinned to exact values."""

    PARAMS = PhysicalParams(ell0=0.8)

    def test_evaluate(self):
        sensor = make_sensor("depth_like", self.PARAMS)
        result = evaluate(lqg_controller(self.PARAMS), self.PARAMS, sensor, 5, seed=3)
        assert [ep.reward for ep in result.episodes] == [500.0, 500.0, 500.0, 66.0, 20.0]
        _, traj, _ = run_episode(self.PARAMS, EpisodeConfig(seed=result.episodes[0].seed),
                                 lqg_controller(self.PARAMS), sensor)
        assert dataset_hash(traj) == (
            "f5db35cda4525185bf2b29a0754e03328f9703172667f0914372302d559f962f"
        )

    def test_max_stabilized_angle(self):
        sensor = make_sensor("depth_like", self.PARAMS)
        res = max_stabilized_angle(lqg_controller(self.PARAMS), self.PARAMS, sensor)
        assert (res.angle_deg, res.monotonic) == (8.12255859375, True)


class TestMaxStabilizedAngle:
    def test_zero_controller_zero_angle(self):
        res = max_stabilized_angle(ZeroController(), PARAMS, SENSOR)
        assert res.angle_deg == 0.0

    def test_known_threshold_recovered(self):
        ctrl = ThresholdController(lqg_controller(), threshold_deg=2.0)
        res = max_stabilized_angle(ctrl, PARAMS, SENSOR)
        assert res.angle_deg == pytest.approx(2.0, abs=0.011)
        assert res.monotonic

    def test_monotonicity_probes_recorded(self, monkeypatch):
        angles = []

        def recording(*args, **kwargs):
            angles.append(math.degrees(kwargs["init_state"].theta))
            return run_episode(*args, **kwargs)

        monkeypatch.setattr(harness, "run_episode", recording)
        res = max_stabilized_angle(lqg_controller(), PARAMS, SENSOR)
        assert res.angle_deg > 1.0
        # after the probes at 0 and 15 degrees and 11 halvings come the guards
        # above the result, each below the 15-degree limit
        guards = [res.angle_deg + d for d in (0.5, 1.0, 2.0) if res.angle_deg + d < 15.0]
        assert len(angles) == 2 + 11 + len(guards)
        assert angles[13:] == pytest.approx(guards)


class TestScore:
    """identify, synthesize, then score against the true plant."""

    @staticmethod
    def synthesized(method, params, budget, seed):
        data = collect_budget(params, make_sensor("noise_free", params), budget, seed=seed)
        model = identify(method, data, params, arx_order=10, model_order=4)
        return hinf_synthesize(build_generalized_plant(model, 5e-3))

    def test_report_fields(self):
        syn = self.synthesized("fullstate", PARAMS, 5000, seed=3)
        scored = score(syn.controller, PARAMS, SENSOR, probe_seed=2024)
        bound = bound_for_model(linearize(PARAMS))
        assert scored["stable_true"]
        assert bound == pytest.approx(1.0)
        assert scored["hinf_T"] >= bound - 1e-3
        assert scored["max_angle_deg"] > 1.0

    def test_model_mismatch_flagged(self):
        # tiny-budget identification at a hard fixation: the synthesized
        # controller stabilizes its own model but not the true plant
        params = PhysicalParams(ell0=0.7)
        syn = self.synthesized("arxhk", params, 100, seed=13)
        if not syn.feasible:
            pytest.skip("synthesis infeasible on this identified model")
        scored = score(syn.controller, params, make_sensor("noise_free", params), 2024)
        assert not scored["stable_true"]
        assert math.isnan(scored["hinf_T"])
        assert scored["max_angle_deg"] == 0.0

    def test_identify_rejects_unknown_method(self):
        data = collect_budget(PARAMS, SENSOR, 200, seed=3)
        with pytest.raises(ValueError, match="unknown identification method 'hinf_arxhk'"):
            identify("hinf_arxhk", data, PARAMS, arx_order=10, model_order=4)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(method="nonsense")
        with pytest.raises(ValueError):
            ExperimentSpec(fixations=(1.5,))
        with pytest.raises(ValueError):
            ExperimentSpec(sensor_tiers=("lidar",))

    @pytest.mark.parametrize("field, value", [
        ("budgets", (1000, 0)),
        ("n_eval_episodes", 0),
        ("n_repeats", 0),
        ("rl_seeds", 0),
        ("rl_max_episodes", 0),
        # a spec file's JSON can hold floats, and NaN, where counts belong
        ("budgets", (math.nan,)),
        ("budgets", (100.5,)),
        ("n_repeats", 1.5),
        ("n_eval_episodes", 2.0),
        ("rl_seeds", 1.5),
        ("rl_max_episodes", 10.5),
        ("seed", 1.5),
        ("arx_order", 0),
        ("arx_order", 10.5),
        ("model_order", 0),
        ("model_order", 4.0),
        # JSON's true is a Python bool, which is an int: it must not read as 1
        ("n_repeats", True),
        ("budgets", (True,)),
        ("n_eval_episodes", True),
        # a seed may be any integer, but not a bool
        ("seed", True),
        ("seed", False),
    ])
    def test_rejects_empty_counts(self, field, value):
        # caught at construction, not after the earlier cells of a sweep ran
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(**{field: value})

    @pytest.mark.parametrize("seed", [0, -3, 2**70, np.int64(7)])
    def test_any_integer_seed_accepted(self, seed):
        assert ExperimentSpec(seed=seed).seed == seed

    @pytest.mark.parametrize("orders, field", [
        ({"arx_order": 1, "model_order": 1}, "arx_order must be at least 2"),
        ({"arx_order": 3, "model_order": 4}, "model_order must lie in"),
    ])
    def test_arxhk_order_rule(self, orders, field):
        # ARX/Ho-Kalman needs p >= 2 and 1 <= n <= p; other methods ignore the orders
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(method="hinf_arxhk", **orders)
        assert ExperimentSpec(method="hinf_fullstate", **orders).arx_order == orders["arx_order"]

    @pytest.mark.parametrize("field, value, repeated", [
        ("fixations", (1.0, 0.8, 1.0), "1.0"),
        ("sensor_tiers", ("noise_free", "rgb_like", "noise_free"), "'noise_free'"),
        ("budgets", (100, 1000, 100), "100"),
    ])
    def test_rejects_repeated_entries(self, field, value, repeated):
        # a repeat is the same seeded cell again, counted twice in the medians
        with pytest.raises(ValueError, match=f"{field} repeats {repeated}"):
            ExperimentSpec(**{field: value})

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "method": "hinf_fullstate",
            "fixations": [1.0],
            "sensor_tiers": ["noise_free"],
            "budgets": [500],
            "n_repeats": 1,
            "n_eval_episodes": 3,
        }))
        spec = ExperimentSpec.from_json(path)
        assert spec.method == "hinf_fullstate"
        assert spec.budgets == (500,)

    def test_fixation_spellings(self, tmp_path):
        # JSON's 1 and 1.0 are one fixation, held as the float that names, seeds and
        # writes its cells; JSON's true once seeded a cell of its own
        def spec(fixation):
            path = tmp_path / f"spec_{fixation}.json"
            path.write_text(json.dumps({
                "method": "rl", "fixations": [fixation], "sensor_tiers": ["noise_free"],
                "rl_seeds": 1, "rl_max_episodes": 1, "n_eval_episodes": 1, "seed": 9,
            }))
            return ExperimentSpec.from_json(path)

        with pytest.raises(ValueError, match=r"fixations must be numbers in \(0, ell\], got True"):
            spec(True)
        as_int, as_float = spec(1), spec(1.0)
        assert [type(f) for f in as_int.fixations + as_float.fixations] == [float, float]
        run_sweep(as_int, tmp_path / "int")
        run_sweep(as_float, tmp_path / "float")
        assert _dir_bytes(tmp_path / "int") == _dir_bytes(tmp_path / "float")
        assert (tmp_path / "int" / "rl_curve_1.0_noise_free_0.csv").exists()


SWEEP_SPECS = {
    "hinf_fullstate": ExperimentSpec(
        method="hinf_fullstate", fixations=(1.0, 0.7), sensor_tiers=("noise_free", "rgb_like"),
        budgets=(1000, 3000), n_repeats=2, n_eval_episodes=5, seed=5,
    ),
    "hinf_arxhk": ExperimentSpec(
        method="hinf_arxhk", fixations=(1.0, 0.8), sensor_tiers=("noise_free", "depth_like"),
        budgets=(1000,), n_repeats=2, n_eval_episodes=5, seed=5,
    ),
    "rl": ExperimentSpec(
        method="rl", fixations=(1.0, 0.9), sensor_tiers=("noise_free", "rgb_like"),
        rl_seeds=2, rl_max_episodes=2, n_eval_episodes=3, seed=9,
    ),
}

# sha256 prefixes of the CSVs these specs wrote when the RL sweep still had
# its own loop; rl_medians.csv is new since then
PINNED_CSV_SHA256 = {
    "hinf_fullstate": {
        "hinf_fullstate_cells.csv": "1e94b26a301b32bd",
        "hinf_fullstate_medians.csv": "9be418a6aebd89c2",
    },
    "hinf_arxhk": {
        "hinf_arxhk_cells.csv": "d276920baaaaca60",
        "hinf_arxhk_medians.csv": "4ae93a929ac76a85",
    },
    "rl": {
        "rl_cells.csv": "d7853964cb977b41",
        "rl_curve_1.0_noise_free_0.csv": "56e67ef56a720908",
        "rl_curve_1.0_noise_free_1.csv": "6663c32096f5957b",
        "rl_curve_1.0_rgb_like_0.csv": "2ce0a71ba6af86dc",
        "rl_curve_1.0_rgb_like_1.csv": "3551b96eefa39d0c",
        "rl_curve_0.9_noise_free_0.csv": "c07587b712509c9a",
        "rl_curve_0.9_noise_free_1.csv": "d3c0ea93c1e74758",
        "rl_curve_0.9_rgb_like_0.csv": "d8856e81c1b9feb8",
        "rl_curve_0.9_rgb_like_1.csv": "8180dc8c905d9b61",
    },
}


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


@pytest.fixture(scope="module")
def sweep_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweeps")
    for name, spec in SWEEP_SPECS.items():
        run_sweep(spec, root / name)
    return root


@pytest.mark.slow
class TestRunSweep:
    def _single_cell_spec(self):
        return ExperimentSpec(
            method="hinf_fullstate",
            fixations=(1.0,),
            sensor_tiers=("noise_free",),
            budgets=(2000,),
            n_repeats=1,
            n_eval_episodes=5,
            seed=5,
        )

    def test_single_cell(self, tmp_path):
        rows = run_sweep(self._single_cell_spec(), tmp_path / "out")
        assert len(rows) == 1
        row = rows[0]
        assert row["feasible"] and row["stable_true"]
        assert row["hinf_T"] >= row["bound"] - 1e-3
        assert (tmp_path / "out" / "hinf_fullstate_cells.csv").exists()
        assert (tmp_path / "out" / "hinf_fullstate_medians.csv").exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, tmp_path, jobs):
        # these once ran the grid serially without a word
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(self._single_cell_spec(), tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [2.5, math.nan, 2.0])
    def test_rejects_non_integer_jobs(self, tmp_path, jobs):
        # NaN once ran the grid serially without a word, and 2.5 ended in a
        # TypeError from inside concurrent.futures
        with pytest.raises(ValueError, match=r"jobs must be an integer >= 1, got"):
            run_sweep(self._single_cell_spec(), tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_reproducible_bytes(self, tmp_path):
        spec = self._single_cell_spec()
        run_sweep(spec, tmp_path / "a")
        run_sweep(spec, tmp_path / "b")
        for name in ("hinf_fullstate_cells.csv", "hinf_fullstate_medians.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_parallel_jobs_identical_output(self, tmp_path):
        spec = ExperimentSpec(
            method="hinf_fullstate",
            fixations=(1.0, 0.9),
            sensor_tiers=("noise_free",),
            budgets=(1500,),
            n_repeats=1,
            n_eval_episodes=3,
            seed=6,
        )
        run_sweep(spec, tmp_path / "serial", jobs=1)
        run_sweep(spec, tmp_path / "pool", jobs=2)
        for name in ("hinf_fullstate_cells.csv", "hinf_fullstate_medians.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes()

    def test_rl_sweep_smoke(self, tmp_path):
        # one untrained-policy cell end to end: curve and cell CSVs appear
        spec = ExperimentSpec(
            method="rl",
            fixations=(1.0,),
            sensor_tiers=("noise_free",),
            n_eval_episodes=2,
            rl_max_episodes=1,
            rl_seeds=1,
            seed=9,
        )
        rows = run_sweep(spec, tmp_path / "rl")
        assert len(rows) == 1
        assert rows[0]["avg_reward"] > 0
        assert (tmp_path / "rl" / "rl_cells.csv").exists()
        assert (tmp_path / "rl" / "rl_curve_1.0_noise_free_0.csv").exists()

    @pytest.mark.parametrize("method", sorted(SWEEP_SPECS))
    def test_pinned_csv_bytes(self, sweep_dirs, method):
        for name, prefix in PINNED_CSV_SHA256[method].items():
            digest = hashlib.sha256((sweep_dirs / method / name).read_bytes()).hexdigest()
            assert digest[:16] == prefix, name
        written = {f.name for f in (sweep_dirs / method).iterdir()}
        assert written == set(PINNED_CSV_SHA256[method]) | {f"{method}_medians.csv"}

    def test_rl_parallel_jobs_identical_output(self, sweep_dirs, tmp_path):
        run_sweep(SWEEP_SPECS["rl"], tmp_path / "pool", jobs=2)
        assert _dir_bytes(tmp_path / "pool") == _dir_bytes(sweep_dirs / "rl")

    def test_rl_medians_one_row_per_fixation_and_tier(self, sweep_dirs):
        spec = SWEEP_SPECS["rl"]
        with open(sweep_dirs / "rl" / "rl_medians.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(float(r["fixation"]), r["tier"]) for r in rows] == [
            (fix, tier) for fix in spec.fixations for tier in spec.sensor_tiers
        ]
        for r in rows:
            assert (r["method"], r["budget"], int(r["n"])) == ("rl", "0", spec.rl_seeds)
            assert math.isnan(float(r["angle_median"]))
            assert float(r["reward_median"]) > 0
