"""Command-line entry points for the benchmark pipeline."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click

from .cartpole import (
    EpisodeConfig,
    PhysicalParams,
    episode_metadata,
    linearize,
    make_sensor,
    run_episode,
    save_trajectory,
)
from .controllers import LtiController, ZeroController, load_controller, save_controller
from .harness import ExperimentSpec, evaluate, identify, max_stabilized_angle, run_sweep
from .harness import write_curve
from .limits import pole_zero_bound
from .linalg import poles, strictly_unstable, transmission_zeros
from .rngtools import substream_seed
from .sac import ALPHA_BY_TIER, PolicyController, SacConfig, load_policy, save_policy, train
from .sysid import check_orders, collect_budget, dataset_hash, save_dataset
from .synthesis import EPSILON_BY_TIER, build_generalized_plant, hinf_synthesize

FIXATION = click.FloatRange(0.0, 1.0, min_open=True)  # 0 < ell0 <= ell = 1


class _FinitePositive(click.ParamType):
    """A float in (0, inf); click.FloatRange lets nan and inf through."""

    name = "float"

    def convert(self, value, param, ctx):
        value = click.FLOAT.convert(value, param, ctx)
        if not (math.isfinite(value) and value > 0):
            self.fail(f"{value} is not a finite positive number", param, ctx)
        return value


FINITE_POSITIVE = _FinitePositive()

# what reading a malformed, wrongly shaped or unusable model or policy file raises
_BAD_FILE = (AttributeError, KeyError, OSError, TypeError, ValueError)

SENSOR_ALIASES = {
    "true_z": "noise_free",
    "depth": "depth_like",
    "rgb": "rgb_like",
    "noise_free": "noise_free",
    "depth_like": "depth_like",
    "rgb_like": "rgb_like",
}


def _load_any_controller(path: str):
    path = Path(path)
    try:
        head = json.loads(path.read_text())
        if "blob" in head:
            return PolicyController(load_policy(path))
        return LtiController(load_controller(path)[0])
    except _BAD_FILE as exc:
        raise click.BadParameter(f"{path} is not a saved policy or LTI controller ({exc!r})",
                                 param_hint="--controller") from exc


@click.group()
def main():
    """Occluded cartpole balancing benchmark."""


@main.command("limits")
@click.option("--fixation", "-f", "fixations", multiple=True, type=FIXATION,
              default=(1.0, 0.9, 0.8, 0.7), show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV output path (default: stdout).")
def limits_cmd(fixations, out):
    """Print (fixation, pole, zero, bound) for the true linearization."""
    lines = ["ell0,pole,zero,bound"]
    for ell0 in fixations:
        model = linearize(PhysicalParams(ell0=ell0))
        ups = strictly_unstable(poles(model))
        uzs = strictly_unstable(transmission_zeros(model))
        bound = pole_zero_bound(ups, uzs)
        p = max((x.real for x in ups), default=math.nan)
        q = max((x.real for x in uzs), default=math.nan)
        lines.append(f"{ell0},{repr(p)},{repr(q)},{repr(bound)}")
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command("simulate")
@click.option("--fixation", type=FIXATION, default=1.0, show_default=True)
@click.option("--sensor", type=click.Choice(sorted(SENSOR_ALIASES)), default="true_z",
              show_default=True)
@click.option("--controller", "controller_path", type=click.Path(exists=True), default=None,
              help="Controller JSON (LTI or policy); default is zero input.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), required=True)
def simulate_cmd(fixation, sensor, controller_path, seed, out_dir):
    """Run one episode and write its trajectory CSV plus metadata."""
    params = PhysicalParams(ell0=fixation)
    config = EpisodeConfig(seed=seed)
    spec = make_sensor(SENSOR_ALIASES[sensor], params)
    controller = _load_any_controller(controller_path) if controller_path else ZeroController()
    result, traj, _ = run_episode(params, config, controller, spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_trajectory(out / "trajectory.csv", traj,
                    meta=episode_metadata(params, config, spec, result))
    click.echo(f"steps={result.steps} success={result.success} cause={result.cause}")


@main.command("sysid")
@click.option("--fixation", type=FIXATION, default=1.0, show_default=True)
@click.option("--sensor", type=click.Choice(sorted(SENSOR_ALIASES)), default="true_z",
              show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=20000, show_default=True)
@click.option("--order-p", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--order-n", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--method", type=click.Choice(["arxhk", "fullstate"]), default="arxhk",
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="Identified model JSON path.")
@click.option("--save-data", type=click.Path(), default=None,
              help="Optionally persist the dataset to this directory.")
def sysid_cmd(fixation, sensor, budget, order_p, order_n, method, seed, out, save_data):
    """Collect excitation data and identify a model."""
    if method == "arxhk":
        try:
            check_orders(order_p, order_n, "--order-p", "--order-n")
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    params = PhysicalParams(ell0=fixation)
    tier = SENSOR_ALIASES[sensor]
    spec = make_sensor(tier, params)
    data = collect_budget(params, spec, budget, seed=seed)
    if save_data:
        save_dataset(save_data, data, {
            "seed": seed, "fixation": fixation, "sensor": tier, "budget": budget,
        })
    model = identify(method, data, params, order_p, order_n)
    save_controller(out, model, metadata={
        "method": method, "fixation": fixation, "sensor": tier, "budget": budget,
        "seed": seed, "order_p": order_p, "order_n": order_n,
        "dataset_hash": dataset_hash(data),
    })
    click.echo(f"identified {method} model with {budget} samples -> {out}")


@main.command("synth")
@click.option("--model-in", type=click.Path(exists=True), required=True)
@click.option("--epsilon", type=FINITE_POSITIVE, default=None,
              help="Control-effort weight; defaults to the tier the model was fit on.")
@click.option("--out", type=click.Path(), required=True)
def synth_cmd(model_in, epsilon, out):
    """Synthesize an H-infinity controller for an identified model."""
    try:
        model, metadata = load_controller(model_in)
        if epsilon is None:
            tier = metadata.get("sensor", "noise_free")
            if tier not in SENSOR_ALIASES:
                raise click.ClickException(
                    f"model metadata names the unknown sensor tier {tier!r}; pass --epsilon"
                )
            epsilon = EPSILON_BY_TIER[SENSOR_ALIASES[tier]]
        plant = build_generalized_plant(model, epsilon)
    except _BAD_FILE as exc:
        raise click.BadParameter(f"{model_in} is not a usable model ({exc!r})",
                                 param_hint="--model-in") from exc
    syn = hinf_synthesize(plant)
    if not syn.feasible:
        click.echo(f"synthesis infeasible: {syn.reason}", err=True)
        sys.exit(1)
    save_controller(out, syn.controller, metadata={
        "epsilon": syn.epsilon,
        "gamma_achieved": syn.gamma_achieved,
        "gamma_design": syn.gamma_design,
        "source_model": str(model_in),
        "source_metadata": metadata,
    })
    click.echo(f"gamma={syn.gamma_achieved:.6g} -> {out}")


@main.command("train-rl")
@click.option("--fixation", type=FIXATION, default=1.0, show_default=True)
@click.option("--sensor", type=click.Choice(sorted(SENSOR_ALIASES)), default="true_z",
              show_default=True)
@click.option("--episodes", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--alpha", type=FINITE_POSITIVE, default=None,
              help="Entropy temperature; defaults to 0.2 (0.01 for rgb).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--log-every", type=click.IntRange(min=0), default=100, show_default=True,
              help="Progress line every N episodes (0 disables).")
@click.option("--out-dir", type=click.Path(), required=True)
def train_rl_cmd(fixation, sensor, episodes, alpha, seed, log_every, out_dir):
    """Train a soft actor-critic agent and save policy plus learning curve."""
    params = PhysicalParams(ell0=fixation)
    tier = SENSOR_ALIASES[sensor]
    spec = make_sensor(tier, params)
    if alpha is None:
        alpha = ALPHA_BY_TIER[tier]
    config = SacConfig(seed=seed, alpha=alpha)

    def progress(episode, running, steps):
        if log_every and episode % log_every == 0:
            click.echo(f"episode {episode}: running reward {running:.1f} ({steps} steps)", err=True)

    result = train(params, spec, config, max_episodes=episodes, progress=progress)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curve(out / "curve.csv", result.curve)
    save_policy(out / "policy.json", result.agent.policy, metadata={
        "fixation": fixation, "sensor": tier, "seed": seed,
        "episodes_run": len(result.curve), "stop_reason": result.stop_reason,
    })
    click.echo(
        f"trained {len(result.curve)} episodes (stop: {result.stop_reason}); "
        f"final running reward {result.curve[-1][1]:.1f}"
    )


@main.command("eval")
@click.option("--controller", "controller_path", type=click.Path(exists=True), required=True)
@click.option("--fixation", type=FIXATION, default=1.0, show_default=True)
@click.option("--sensor", type=click.Choice(sorted(SENSOR_ALIASES)), default="true_z",
              show_default=True)
@click.option("--episodes", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--max-angle/--no-max-angle", default=True, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def eval_cmd(controller_path, fixation, sensor, episodes, max_angle, seed, out):
    """Evaluate a saved controller: average reward, success rate, max angle."""
    params = PhysicalParams(ell0=fixation)
    spec = make_sensor(SENSOR_ALIASES[sensor], params)
    controller = _load_any_controller(controller_path)
    ev = evaluate(controller, params, spec, episodes, seed=seed)
    report = {
        "fixation": fixation,
        "sensor": spec.tier,
        "episodes": episodes,
        "seed": seed,
        "avg_reward": ev.avg_reward,
        "success_rate": ev.success_rate,
    }
    if max_angle:
        angle = max_stabilized_angle(controller, params, spec,
                                     probe_seed=substream_seed(seed, "angle-probe"))
        report["max_angle_deg"] = angle.angle_deg
        report["angle_monotonic"] = angle.monotonic
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    click.echo(text, nl=False)


@main.command("sweep")
@click.option("--spec", "spec_path", type=click.Path(exists=True), required=True,
              help="Experiment spec JSON.")
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="Override the spec seed.")
def sweep_cmd(spec_path, out_dir, jobs, seed):
    """Run a full experiment grid and write per-cell and median CSVs."""
    try:
        spec = ExperimentSpec.from_json(spec_path)
    except (TypeError, ValueError) as exc:
        raise click.BadParameter(f"{spec_path}: {exc}", param_hint="--spec") from exc
    if seed is not None:
        spec = replace(spec, seed=seed)
    rows = run_sweep(spec, out_dir, jobs=jobs)
    failures = [r for r in rows if r["error"]]
    click.echo(f"{len(rows)} cells ({len(failures)} with errors) -> {out_dir}")


if __name__ == "__main__":
    main()
