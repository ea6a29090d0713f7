"""Call boundaries of the simulation loop, which the benchmark's counters read.

bench/run.py patches occball functions in place (every occball module global
bound to a function, or the method on its class) and counts from the calls:
``cartpole.step`` and ``LtiController.act`` once per simulated step,
``cartpole.run_episode`` once per evaluation episode, angle probe or training
episode, and the ``cartpole.step`` calls under ``collect_budget`` as simulated
excitation steps.
The tests below patch the same way and state those boundaries.  A lockstep
engine that advances many episodes per call changes every one of these
counts, so it must land together with a benchmark change that counts steps,
episodes and excitation runs some other way, and this file changes with it.
"""

import math
import sys

import numpy as np
import pytest

from occball import cartpole, rngtools
from occball.cartpole import EpisodeConfig, PhysicalParams, SimState, make_sensor, run_episode
from occball.controllers import LtiController
from occball.harness import evaluate, max_stabilized_angle
from occball.sac import SacConfig, train
from occball.sysid import collect_budget

from test_harness import lqg_controller

PARAMS = PhysicalParams(ell0=0.8)


def patch_bindings(monkeypatch, original, replacement):
    """Replace original with replacement in every occball module that binds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "occball" or name.startswith("occball.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, replacement)


def count_calls(monkeypatch, original):
    """Replace original in every occball module that binds it; returns the call log."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    patch_bindings(monkeypatch, original, wrapper)
    return calls


def count_drawn(monkeypatch):
    """Wrap each occball binding of rngtools.substreams; returns the name of each draw."""
    drawn = []
    original = rngtools.substreams

    def wrapper(seed, name):
        for rng in original(seed, name):
            drawn.append(name)
            yield rng

    patch_bindings(monkeypatch, original, wrapper)
    return drawn


def count_pcg64(monkeypatch):
    """Count the PCG64 bit generators constructed; returns the call log."""
    calls = []
    original = np.random.PCG64

    def wrapper(seed):
        calls.append(seed)
        return original(seed)

    monkeypatch.setattr(np.random, "PCG64", wrapper)
    return calls


def count_method_calls(monkeypatch, cls, name):
    calls = []
    original = cls.__dict__[name]

    def wrapper(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)
    return calls


class NanAfter(LtiController):
    """An LTI controller whose force turns non-finite after k finite ones."""

    def __init__(self, inner, k):
        super().__init__(inner.model)
        self.k, self.t = k, 0

    def reset(self):
        super().reset()
        self.t = 0

    def act(self, y):
        u = super().act(y)
        self.t += 1
        return math.nan if self.t > self.k else u


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_step_and_act_once_per_recorded_step(monkeypatch, seed):
    steps = count_calls(monkeypatch, cartpole.step)
    acts = count_method_calls(monkeypatch, LtiController, "act")
    result, traj, _ = run_episode(PARAMS, EpisodeConfig(seed=seed), lqg_controller(PARAMS),
                                  make_sensor("rgb_like", PARAMS))
    assert len(steps) == len(acts) == len(traj)
    assert result.cause != "nonfinite_action"


def test_nonfinite_action_skips_its_step(monkeypatch):
    steps = count_calls(monkeypatch, cartpole.step)
    controller = NanAfter(lqg_controller(PARAMS), 7)
    acts = count_method_calls(monkeypatch, NanAfter, "act")
    result, traj, _ = run_episode(PARAMS, EpisodeConfig(seed=0), controller,
                                  make_sensor("noise_free", PARAMS))
    assert result.cause == "nonfinite_action" and len(traj) == 8
    assert len(acts) == len(traj) and len(steps) == len(traj) - 1


def test_evaluate_runs_one_episode_each(monkeypatch):
    episodes = count_calls(monkeypatch, cartpole.run_episode)
    evaluate(lqg_controller(PARAMS), PARAMS, make_sensor("depth_like", PARAMS), 7, seed=3)
    assert len(episodes) == 7


def test_angle_bisection_runs_one_episode_per_probe(monkeypatch):
    episodes = count_calls(monkeypatch, cartpole.run_episode)
    res = max_stabilized_angle(lqg_controller(PARAMS), PARAMS, make_sensor("depth_like", PARAMS))
    # probes at 0 and 15 degrees, 11 halvings of 15 degrees down to 0.01, then the
    # guards 0.5, 1 and 2 degrees above the result that lie below 15 degrees
    assert 0.0 < res.angle_deg < 15.0
    assert all(isinstance(kw["init_state"], SimState) for _, kw in episodes)
    angles = [math.degrees(kw["init_state"].theta) for _, kw in episodes]
    guards = [res.angle_deg + d for d in (0.5, 1.0, 2.0) if res.angle_deg + d < 15.0]
    assert len(angles) == 2 + 11 + len(guards)
    assert angles[13:] == pytest.approx(guards)


def test_collection_steps_only_the_runs_it_keeps(monkeypatch):
    sensor = make_sensor("depth_like", PARAMS)
    longer = collect_budget(PARAMS, sensor, 5000, seed=4)
    steps = count_calls(monkeypatch, cartpole.step)
    data = collect_budget(PARAMS, sensor, 1000, seed=4)
    # runs are simulated one at a time and the last one is truncated, so the
    # steps are exactly those of the same runs collected whole
    assert data.lengths.sum() == 1000
    assert len(steps) == longer.lengths[:len(data.lengths)].sum()


@pytest.mark.parametrize("tier, init_state, created", [
    ("noise_free", None, 1),
    ("noise_free", SimState(theta=0.01), 0),
    ("depth_like", None, 2),
    ("depth_like", SimState(theta=0.01), 1),
])
def test_episode_creates_only_the_substreams_it_draws(monkeypatch, tier, init_state, created):
    streams = count_calls(monkeypatch, rngtools.substream)
    run_episode(PARAMS, EpisodeConfig(seed=5), lqg_controller(PARAMS),
                make_sensor(tier, PARAMS), init_state=init_state)
    assert len(streams) == created


@pytest.mark.parametrize("tier, per_run", [("noise_free", 2), ("rgb_like", 3)])
def test_excitation_run_creates_only_the_substreams_it_draws(monkeypatch, tier, per_run):
    # runs draw their generators from block-seeded substreams iterators, which
    # build a PCG64 only for an index drawn; no one-off substream is seeded
    single = count_calls(monkeypatch, rngtools.substream)
    drawn = count_drawn(monkeypatch)
    built = count_pcg64(monkeypatch)
    data = collect_budget(PARAMS, make_sensor(tier, PARAMS), 500, seed=6)
    assert len(drawn) == len(built) == per_run * len(data.lengths)
    assert not single


def test_training_runs_one_episode_each(monkeypatch):
    episodes = count_calls(monkeypatch, cartpole.run_episode)
    config = SacConfig(history_len=4, hidden_widths=(8, 8), batch_size=8, warmup_steps=10)
    result = train(PARAMS, make_sensor("depth_like", PARAMS), config, max_episodes=3)
    assert len(episodes) == len(result.curve) == 3


@pytest.mark.parametrize("tier, per_episode", [("noise_free", 0), ("depth_like", 1)])
def test_training_episode_seeds_a_sensor_stream_only_when_noisy(monkeypatch, tier, per_episode):
    sensor = make_sensor(tier, PARAMS)
    streams = count_calls(monkeypatch, rngtools.substream)
    config = SacConfig(history_len=4, hidden_widths=(8, 8), batch_size=8, warmup_steps=10**6)
    result = train(PARAMS, sensor, config, max_episodes=3)
    named = [args[1] for args, _ in streams]
    assert named.count(cartpole.SENSOR_STREAM) == per_episode * len(result.curve)
    assert named.count("init") == len(result.curve)
