"""Experiment orchestration: evaluation, angle bisection, and sweep grids.

The sweep reproduces the benchmark protocol end to end: collect excitation
data at each (fixation, sensor, budget) cell, identify a model, synthesize a
controller, then score it on the nonlinear simulator (survival reward,
success rate, largest stabilized initial angle) and against the theoretical
bound on the true linearization.  Every cell is seeded independently, so
re-running a sweep reproduces its outputs byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cartpole import (
    EpisodeConfig,
    PhysicalParams,
    SensorSpec,
    SimState,
    make_sensor,
    linearize,
    run_episode,
)
from .controllers import Controller, LtiController
from .limits import bound_for_model, closed_loop, hinf_norm
from .linalg import StateSpaceModel, negate_output
from .rngtools import substream_seed
from .sysid import (
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
    "evaluate",
    "max_stabilized_angle",
    "run_sweep",
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
    probes_above: tuple


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
            if not 0 < f <= 1.0:
                raise ValueError("fixations must lie in (0, ell]")
        for t in self.sensor_tiers:
            make_sensor(t, PhysicalParams())

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path) as f:
            raw = json.load(f)
        for key in ("fixations", "sensor_tiers", "budgets"):
            if key in raw:
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
    if n_episodes < 1:
        raise ValueError("need at least one evaluation episode")
    base = config or EpisodeConfig()
    episodes = []
    for i in range(n_episodes):
        cfg = replace(base, seed=substream_seed(seed, "eval-episode", i))
        result, _ = run_episode(params, cfg, controller, sensor)
        episodes.append(result)
    rewards = [r.reward for r in episodes]
    successes = [r.success for r in episodes]
    return EvalResult(
        avg_reward=float(np.mean(rewards)),
        success_rate=float(np.mean(successes)),
        episodes=tuple(episodes),
    )


def _survives_from_angle(controller, params, sensor, theta_deg, config, probe_seed) -> bool:
    cfg = replace(config, seed=probe_seed)
    init = SimState(theta=math.radians(theta_deg))
    result, _ = run_episode(params, cfg, controller, sensor, init_state=init)
    return result.success


def max_stabilized_angle(
    controller: Controller,
    params: PhysicalParams,
    sensor: SensorSpec,
    tol_deg: float = 0.01,
    config: EpisodeConfig | None = None,
    probe_seed: int = 2024,
) -> AngleResult:
    """Bisect the largest initial tilt the controller survives for 500 steps.

    All other initial states are zero; noisy sensors reuse one fixed seed per
    probe so the bisection acts on a deterministic function.  Three extra
    probes above the returned angle guard against non-monotone stabilization
    basins: if any of them survives, the monotonic flag comes back False.
    """
    config = config or EpisodeConfig()
    if not _survives_from_angle(controller, params, sensor, 0.0, config, probe_seed):
        return AngleResult(0.0, True, ())
    hi_limit = config.theta_limit_deg
    if _survives_from_angle(controller, params, sensor, hi_limit, config, probe_seed):
        return AngleResult(hi_limit, True, ())
    lo, hi = 0.0, hi_limit
    while hi - lo > tol_deg:
        mid = 0.5 * (lo + hi)
        if _survives_from_angle(controller, params, sensor, mid, config, probe_seed):
            lo = mid
        else:
            hi = mid
    probes = []
    monotonic = True
    for delta in (0.5, 1.0, 2.0):
        angle = lo + delta
        if angle >= hi_limit:
            continue
        survived = _survives_from_angle(controller, params, sensor, angle, config, probe_seed)
        probes.append((angle, survived))
        if survived:
            monotonic = False
    return AngleResult(float(lo), monotonic, tuple(probes))


def _controller_hash(model: StateSpaceModel) -> str:
    h = hashlib.sha256()
    for mat in (model.A, model.B, model.C, model.D):
        h.update(np.ascontiguousarray(mat).tobytes())
    return h.hexdigest()[:16]


def _hinf_cell(method, params, tier, budget, repeat, spec):
    """One sweep cell: data -> model -> controller -> scores."""
    cell_seed = substream_seed(
        spec.seed, f"cell-{method}-{params.ell0}-{tier}-{budget}", repeat
    )
    sensor = make_sensor(tier, params)
    data = collect_budget(params, sensor, budget, seed=cell_seed)
    data_digest = dataset_hash(data)[:16]
    row = {
        "method": method,
        "fixation": params.ell0,
        "tier": tier,
        "budget": budget,
        "repeat": repeat,
        "seed": cell_seed,
        "dataset_hash": data_digest,
        "feasible": False,
        "controller_hash": "",
        "gamma": math.nan,
        "stable_true": False,
        "hinf_T": math.nan,
        "bound": math.nan,
        "max_angle_deg": math.nan,
        "avg_reward": math.nan,
        "success_rate": math.nan,
        "error": "",
    }
    truth = linearize(params)
    row["bound"] = bound_for_model(truth).value
    try:
        if method == "hinf_arxhk":
            arx = fit_arx(data, spec.arx_order)
            model = ho_kalman(arx, spec.model_order).to_model(params.tau)
        else:
            model = fit_full_state(data, params.ell0, params.tau)
        plant = build_generalized_plant(model, EPSILON_BY_TIER[tier])
        syn = hinf_synthesize(plant)
    except (ValueError, RuntimeError) as exc:
        row["error"] = str(exc)
        return row
    if not syn.feasible:
        row["error"] = syn.diagnostics.get("reason", "synthesis infeasible")
        return row
    row["feasible"] = True
    row["gamma"] = syn.gamma_achieved
    row["controller_hash"] = _controller_hash(syn.controller)
    loop = closed_loop(truth, negate_output(syn.controller))
    row["stable_true"] = loop.internally_stable
    if loop.internally_stable:
        row["hinf_T"] = hinf_norm(loop.T)
    controller = LtiController(syn.controller)
    angle = max_stabilized_angle(controller, params, sensor, probe_seed=cell_seed)
    row["max_angle_deg"] = angle.angle_deg
    ev = evaluate(controller, params, sensor, spec.n_eval_episodes, seed=cell_seed)
    row["avg_reward"] = ev.avg_reward
    row["success_rate"] = ev.success_rate
    return row


_HINF_COLUMNS = (
    "method", "fixation", "tier", "budget", "repeat", "seed", "dataset_hash",
    "controller_hash", "feasible", "gamma", "stable_true", "hinf_T", "bound",
    "max_angle_deg", "avg_reward", "success_rate", "error",
)


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

    Returns the list of per-cell row dicts.  Failures inside a cell are
    recorded in its error column and the sweep continues.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if spec.method == "rl":
        return _run_rl_sweep(spec, out)

    cells = [
        (fix, tier, budget, repeat)
        for fix in spec.fixations
        for tier in spec.sensor_tiers
        for budget in spec.budgets
        for repeat in range(spec.n_repeats)
    ]

    args = [(spec, c) for c in cells]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, args))
    else:
        rows = list(map(_sweep_worker, args))

    _write_csv(out / f"{spec.method}_cells.csv", _HINF_COLUMNS, rows)

    # Fig. 6 style: per (fixation, tier, budget) medians and quartiles of max angle
    agg_cols = ("method", "fixation", "tier", "budget", "n", "angle_q1",
                "angle_median", "angle_q3", "reward_median", "success_median")
    agg_rows = []
    for fix in spec.fixations:
        for tier in spec.sensor_tiers:
            for budget in spec.budgets:
                group = [
                    r for r in rows
                    if r["fixation"] == fix and r["tier"] == tier and r["budget"] == budget
                ]
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
    _write_csv(out / f"{spec.method}_medians.csv", agg_cols, agg_rows)
    return rows


def _sweep_worker(args):
    spec, cell = args
    fix, tier, budget, repeat = cell
    return _hinf_cell(spec.method, PhysicalParams(ell0=fix), tier, budget, repeat, spec)


def _run_rl_sweep(spec: ExperimentSpec, out: Path):
    from .sac import SacConfig, train, PolicyController

    rows = []
    curve_cols = ("episode", "running_reward", "steps_cumulative")
    for fix in spec.fixations:
        for tier in spec.sensor_tiers:
            params = PhysicalParams(ell0=fix)
            sensor = make_sensor(tier, params)
            for run in range(spec.rl_seeds):
                run_seed = substream_seed(spec.seed, f"rl-{fix}-{tier}", run)
                config = SacConfig(
                    seed=run_seed,
                    alpha=0.01 if tier == "rgb_like" else 0.2,
                )
                outcome = train(params, sensor, config, max_episodes=spec.rl_max_episodes)
                rows_curve = [
                    {"episode": e, "running_reward": r, "steps_cumulative": s}
                    for e, r, s in outcome.curve
                ]
                _write_csv(out / f"rl_curve_{fix}_{tier}_{run}.csv", curve_cols, rows_curve)
                controller = PolicyController(outcome.agent)
                ev = evaluate(controller, params, sensor, spec.n_eval_episodes, seed=run_seed)
                rows.append({
                    "method": "rl", "fixation": fix, "tier": tier, "budget": 0,
                    "repeat": run, "seed": run_seed, "dataset_hash": "",
                    "controller_hash": "", "feasible": True, "gamma": math.nan,
                    "stable_true": False, "hinf_T": math.nan, "bound": math.nan,
                    "max_angle_deg": math.nan,
                    "avg_reward": ev.avg_reward, "success_rate": ev.success_rate,
                    "error": "",
                })
    _write_csv(out / "rl_cells.csv", _HINF_COLUMNS, rows)
    return rows
