"""Experiment orchestration: identification, scoring, evaluation, and sweep grids.

The sweep reproduces the benchmark protocol end to end: collect excitation
data at each (fixation, sensor, budget) cell, identify a model, synthesize a
controller, then score it against the theoretical bound on the true
linearization and on the nonlinear simulator (largest stabilized initial
angle, survival reward, success rate).  Every cell is seeded independently, so
re-running a sweep reproduces its outputs byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import statistics
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .cartpole import (
    EpisodeConfig,
    PhysicalParams,
    SensorSpec,
    SimState,
    check_count,
    make_sensor,
    linearize,
    run_episode,
)
from .controllers import Controller, LtiController
from .limits import bound_for_model, closed_loop, hinf_norm
from .linalg import StateSpaceModel
from .rngtools import substream_seed, substreams
from .sac import ALPHA_BY_TIER, PolicyController, SacConfig, train
from .sysid import (
    check_orders,
    collect_budget,
    dataset_hash,
    fit_arx,
    fit_full_state,
    ho_kalman,
)
from .synthesis import EPSILON_BY_TIER, build_generalized_plant, hinf_synthesize

__all__ = [
    "EvalResult",
    "AngleResult",
    "ExperimentSpec",
    "identify",
    "score",
    "evaluate",
    "max_stabilized_angle",
    "run_sweep",
    "write_curve",
]

DATA_BUDGETS = (100, 1000, 5000, 10000, 15000, 20000)
FIXATIONS = (1.0, 0.9, 0.8, 0.7)


@dataclass(frozen=True)
class EvalResult:
    avg_reward: float
    success_rate: float
    episodes: tuple


@dataclass(frozen=True)
class AngleResult:
    angle_deg: float
    monotonic: bool


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid description for run_sweep."""

    method: str = "hinf_fullstate"  # rl | hinf_arxhk | hinf_fullstate
    fixations: tuple = FIXATIONS
    sensor_tiers: tuple = ("noise_free", "depth_like", "rgb_like")
    budgets: tuple = DATA_BUDGETS
    n_eval_episodes: int = 100
    n_repeats: int = 7
    seed: int = 0
    arx_order: int = 10
    model_order: int = 4
    rl_max_episodes: int = 2000
    rl_seeds: int = 5

    def __post_init__(self):
        if self.method not in ("rl", "hinf_arxhk", "hinf_fullstate"):
            raise ValueError(f"unknown method {self.method!r}")
        for f in self.fixations:
            # json's true is a Python bool, a number that would name and seed cells "True"
            if isinstance(f, bool) or not 0 < f <= 1.0:
                raise ValueError(f"fixations must be numbers in (0, ell], got {f!r}")
        # as floats, 1 and 1.0 name, seed and write the same cells
        object.__setattr__(self, "fixations", tuple(float(f) for f in self.fixations))
        for t in self.sensor_tiers:
            make_sensor(t, PhysicalParams())
        # any integer is a seed, but a bool (json's true) is not one
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for budget in self.budgets:
            check_count("budgets", budget, 1)
        # a repeated entry is the same seeded cell again, counted twice in the medians
        for name in ("fixations", "sensor_tiers", "budgets"):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"{name} repeats {v!r}; grid entries must be distinct")
        for name in ("n_eval_episodes", "n_repeats", "rl_seeds", "rl_max_episodes",
                     "arx_order", "model_order"):
            check_count(name, getattr(self, name), 1)
        if self.method == "hinf_arxhk":
            check_orders(self.arx_order, self.model_order, "arx_order", "model_order")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path) as f:
            raw = json.load(f)
        if unknown := sorted(set(raw) - {f.name for f in fields(cls)}):
            raise ValueError(f"unknown spec keys {unknown}")
        for key in ("fixations", "sensor_tiers", "budgets"):
            if key in raw:
                # a string would otherwise be split into characters
                if not isinstance(raw[key], list):
                    raise ValueError(f"{key} must be a JSON list, got {raw[key]!r}")
                raw[key] = tuple(raw[key])
        return cls(**raw)


def evaluate(
    controller: Controller,
    params: PhysicalParams,
    sensor: SensorSpec,
    n_episodes: int = 100,
    seed: int = 0,
    config: EpisodeConfig | None = None,
) -> EvalResult:
    """Average survival reward and success rate over seeded episodes."""
    check_count("n_episodes", n_episodes, 1)
    base = config or EpisodeConfig()
    episodes = []
    # episode i's seed is substream_seed(seed, "eval-episode", i)
    for _, rng in zip(range(n_episodes), substreams(seed, "eval-episode")):
        cfg = replace(base, seed=int(rng.integers(0, 2**63 - 1)))
        episodes.append(run_episode(params, cfg, controller, sensor)[0])
    rewards = [r.reward for r in episodes]
    successes = [r.success for r in episodes]
    return EvalResult(
        avg_reward=float(np.mean(rewards)),
        success_rate=float(np.mean(successes)),
        episodes=tuple(episodes),
    )


# max_stabilized_angle halves its interval until it is this narrow
_ANGLE_TOL_DEG = 0.01


def max_stabilized_angle(
    controller: Controller,
    params: PhysicalParams,
    sensor: SensorSpec,
    probe_seed: int = 2024,
) -> AngleResult:
    """Bisect the largest initial tilt the controller survives for 500 steps.

    All other initial states are zero; noisy sensors reuse one fixed seed per
    probe so the bisection acts on a deterministic function.  Three extra
    probes above the returned angle guard against non-monotone stabilization
    basins: if any of them survives, the monotonic flag comes back False.
    """
    config = EpisodeConfig(seed=probe_seed)

    def survives(theta_deg):
        init = SimState(theta=math.radians(theta_deg))
        return run_episode(params, config, controller, sensor, init_state=init)[0].success

    if not survives(0.0):
        return AngleResult(0.0, True)
    hi_limit = config.theta_limit_deg
    if survives(hi_limit):
        return AngleResult(hi_limit, True)
    lo, hi = 0.0, hi_limit
    while hi - lo > _ANGLE_TOL_DEG:
        mid = 0.5 * (lo + hi)
        if survives(mid):
            lo = mid
        else:
            hi = mid
    monotonic = True
    for delta in (0.5, 1.0, 2.0):
        angle = lo + delta
        if angle < hi_limit and survives(angle):
            monotonic = False
    return AngleResult(float(lo), monotonic)


def identify(method: str, data, params: PhysicalParams, arx_order: int,
             model_order: int) -> StateSpaceModel:
    """Fit a model of the fixation-point response to one excitation dataset.

    "arxhk" fits an order-arx_order ARX predictor and realizes it at order
    model_order by Ho-Kalman; "fullstate" regresses the logged states.
    """
    if method == "arxhk":
        return ho_kalman(fit_arx(data, arx_order), model_order).to_model(params.tau)
    if method == "fullstate":
        return fit_full_state(data, params.ell0, params.tau)
    raise ValueError(f"unknown identification method {method!r}")


def score(model: StateSpaceModel, params: PhysicalParams, sensor: SensorSpec,
          probe_seed: int) -> dict:
    """Score a synthesized controller against the true plant.

    Closes the loop with the true linearization (the controller drives the
    force from the measurement as LtiController runs it), reports its internal
    stability and ||T||_inf (NaN when the loop is unstable), and bisects the
    largest initial tilt the controller survives on the nonlinear simulator.
    """
    loop = closed_loop(linearize(params), model)
    hinf_T = hinf_norm(loop.T) if loop.internally_stable else math.nan
    angle = max_stabilized_angle(LtiController(model), params, sensor, probe_seed=probe_seed)
    return {
        "stable_true": loop.internally_stable,
        "hinf_T": hinf_T,
        "max_angle_deg": angle.angle_deg,
    }


def _controller_hash(model: StateSpaceModel) -> str:
    h = hashlib.sha256()
    for mat in (model.A, model.B, model.C, model.D):
        h.update(np.ascontiguousarray(mat).tobytes())
    return h.hexdigest()[:16]


_CURVE_COLUMNS = ("episode", "running_reward", "steps_cumulative")
_CELL_COLUMNS = (
    "method", "fixation", "tier", "budget", "repeat", "seed", "dataset_hash",
    "controller_hash", "feasible", "gamma", "stable_true", "hinf_T", "bound",
    "max_angle_deg", "avg_reward", "success_rate", "error",
)
_MEDIAN_COLUMNS = ("method", "fixation", "tier", "budget", "n", "angle_q1",
                   "angle_median", "angle_q3", "reward_median", "success_median")


def _blank_row(method, fix, tier, budget, repeat, seed) -> dict:
    """A cell row with every score unset: NaN numbers, False flags, empty strings."""
    row = dict.fromkeys(_CELL_COLUMNS, math.nan)
    row.update(method=method, fixation=fix, tier=tier, budget=budget, repeat=repeat,
               seed=seed, dataset_hash="", controller_hash="", feasible=False,
               stable_true=False, error="")
    return row


def _hinf_cell(spec, params, tier, budget, repeat):
    """One H-infinity cell: data -> model -> controller -> scores."""
    cell_seed = substream_seed(
        spec.seed, f"cell-{spec.method}-{params.ell0}-{tier}-{budget}", repeat
    )
    sensor = make_sensor(tier, params)
    data = collect_budget(params, sensor, budget, seed=cell_seed)
    row = _blank_row(spec.method, params.ell0, tier, budget, repeat, cell_seed)
    row["dataset_hash"] = dataset_hash(data)[:16]
    row["bound"] = bound_for_model(linearize(params))
    try:
        model = identify(spec.method.removeprefix("hinf_"), data, params, spec.arx_order,
                         spec.model_order)
        plant = build_generalized_plant(model, EPSILON_BY_TIER[tier])
        syn = hinf_synthesize(plant)
    except (ValueError, RuntimeError) as exc:
        row["error"] = str(exc)
        return row
    if not syn.feasible:
        row["error"] = syn.reason
        return row
    row["feasible"] = True
    row["gamma"] = syn.gamma_achieved
    row["controller_hash"] = _controller_hash(syn.controller)
    row.update(score(syn.controller, params, sensor, cell_seed))
    ev = evaluate(LtiController(syn.controller), params, sensor, spec.n_eval_episodes,
                  seed=cell_seed)
    row["avg_reward"] = ev.avg_reward
    row["success_rate"] = ev.success_rate
    return row


def _rl_cell(spec, out: Path, params, tier, run):
    """One RL cell: train a seeded agent, write its learning curve, evaluate it."""
    fix = params.ell0
    run_seed = substream_seed(spec.seed, f"rl-{fix}-{tier}", run)
    sensor = make_sensor(tier, params)
    config = SacConfig(seed=run_seed, alpha=ALPHA_BY_TIER[tier])
    outcome = train(params, sensor, config, max_episodes=spec.rl_max_episodes)
    write_curve(out / f"rl_curve_{fix}_{tier}_{run}.csv", outcome.curve)
    ev = evaluate(PolicyController(outcome.agent.policy), params, sensor, spec.n_eval_episodes,
                  seed=run_seed)
    row = _blank_row("rl", fix, tier, 0, run, run_seed)
    row["feasible"] = True
    row["avg_reward"] = ev.avg_reward
    row["success_rate"] = ev.success_rate
    return row


def _run_cell(args):
    spec, out, (fix, tier, budget, repeat) = args
    params = PhysicalParams(ell0=fix)
    if spec.method == "rl":
        return _rl_cell(spec, out, params, tier, repeat)
    return _hinf_cell(spec, params, tier, budget, repeat)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def write_curve(path, curve) -> None:
    """Write a SAC learning curve of (episode, running reward, cumulative steps) as CSV."""
    _write_csv(path, _CURVE_COLUMNS, [dict(zip(_CURVE_COLUMNS, c)) for c in curve])


def _quartiles(values):
    vals = sorted(values)
    if not vals:
        return math.nan, math.nan, math.nan
    med = statistics.median(vals)
    q1 = vals[max(0, int(0.25 * (len(vals) - 1)))]
    q3 = vals[min(len(vals) - 1, int(math.ceil(0.75 * (len(vals) - 1))))]
    return q1, med, q3


def run_sweep(spec: ExperimentSpec, out_dir, jobs: int = 1):
    """Execute the full grid for a spec and write per-cell plus median CSVs.

    H-infinity cells are (fixation, tier, budget, repeat); RL cells are
    (fixation, tier, 0, run) for each of spec.rl_seeds runs, and each also
    writes its learning curve.  Returns the list of per-cell row dicts.
    Failures inside an H-infinity cell are recorded in its error column and
    the sweep continues.
    """
    check_count("jobs", jobs, 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if spec.method == "rl":
        budgets, repeats = (0,), spec.rl_seeds
    else:
        budgets, repeats = spec.budgets, spec.n_repeats
    args = [
        (spec, out, (fix, tier, budget, repeat))
        for fix in spec.fixations
        for tier in spec.sensor_tiers
        for budget in budgets
        for repeat in range(repeats)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_cell, args))
    else:
        rows = list(map(_run_cell, args))

    _write_csv(out / f"{spec.method}_cells.csv", _CELL_COLUMNS, rows)

    # Fig. 6 style: per (fixation, tier, budget) medians and quartiles of max
    # angle, grouped in cell order
    groups = {}
    for r in rows:
        groups.setdefault((r["fixation"], r["tier"], r["budget"]), []).append(r)
    agg_rows = []
    for (fix, tier, budget), group in groups.items():
        angles = [r["max_angle_deg"] for r in group if not math.isnan(r["max_angle_deg"])]
        rewards = [r["avg_reward"] for r in group if not math.isnan(r["avg_reward"])]
        succ = [r["success_rate"] for r in group if not math.isnan(r["success_rate"])]
        q1, med, q3 = _quartiles(angles)
        agg_rows.append({
            "method": spec.method, "fixation": fix, "tier": tier,
            "budget": budget, "n": len(group),
            "angle_q1": q1, "angle_median": med, "angle_q3": q3,
            "reward_median": statistics.median(rewards) if rewards else math.nan,
            "success_median": statistics.median(succ) if succ else math.nan,
        })
    _write_csv(out / f"{spec.method}_medians.csv", _MEDIAN_COLUMNS, agg_rows)
    return rows
