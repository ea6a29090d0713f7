"""Soft actor-critic over fixed-length measurement histories.

The agent state is the window of the last H sensor readings; it reaches the
policy network by one of two paths, PolicyController.act for the deterministic
action c * tanh(mean) and SacAgent.act for a sampled one.  Policy and twin
critics are small dense networks whose forward and reverse passes are written
out explicitly for this fixed architecture; an adaptive-moment optimizer
drives the updates and finite-difference checks in the test suite guard every
gradient.  A cached forward pass keeps only each layer's input (x, then each
hidden ReLU output, written over its pre-activation), and the optimizer runs
its step through two temporaries per parameter without copying the gradient,
so an update allocates little beyond its arithmetic.

Each update has two branches that share no data: the critic targets and
losses, and the policy loss, which reads the critics but not their targets.
The critic branch runs on the calling thread while the one worker of a
thread pool runs the policy branch; the optimizer steps are then split the
same way.  Each branch does the array operations of a serial update, in the
same order, and every BLAS call stays on one thread, so training is bit for
bit the same as a serial run and fully determined by the seed.  The last
task sent to the pool is held until the next one or the end of train, so the
arrays it reaches stay allocated between updates instead of being trimmed and
faulted in again.  Training runs each episode as one cartpole.run_episode
call, the entry evaluation uses too, with the behaviour policy as controller.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cartpole import (
    EpisodeConfig,
    PhysicalParams,
    SensorSpec,
    check_count,
    check_fields,
    run_episode,
)
from .controllers import Controller
from .rngtools import substream, substreams

__all__ = [
    "SacConfig",
    "ALPHA_BY_TIER",
    "Mlp",
    "GaussianPolicy",
    "SacAgent",
    "ReplayBuffer",
    "TrainResult",
    "sac_update",
    "train",
    "PolicyController",
    "save_policy",
    "load_policy",
]

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0


@dataclass(frozen=True)
class SacConfig:
    history_len: int = 200
    alpha: float = 0.2
    tau_target: float = 0.005
    gamma_discount: float = 0.99
    learning_rate: float = 3e-4
    hidden_widths: tuple = (256, 256)
    batch_size: int = 256
    buffer_capacity: int = 1_000_000
    action_limit: float = 10.0
    updates_per_step: int = 1
    warmup_steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, low in (("history_len", 1), ("batch_size", 1), ("buffer_capacity", 1),
                          ("updates_per_step", 1), ("warmup_steps", 0)):
            check_count(name, getattr(self, name), low)
        for width in self.hidden_widths:
            check_count("hidden_widths", width, 1)
        if not 0 < self.tau_target <= 1:
            raise ValueError("tau_target must lie in (0, 1]")
        if not 0 < self.gamma_discount < 1:
            raise ValueError("gamma_discount must lie in (0, 1)")
        check_fields(self, positive=("alpha", "learning_rate", "action_limit"))


# entropy temperature per sensor tier
ALPHA_BY_TIER = {
    "noise_free": 0.2,
    "depth_like": 0.2,
    "rgb_like": 0.01,
}


class Mlp:
    """Dense network with ReLU hidden layers and a linear output layer."""

    def __init__(self, sizes, rng: np.random.Generator, dtype=np.float32):
        self.sizes = tuple(int(s) for s in sizes)
        self.dtype = dtype
        self.Ws = []
        self.bs = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.Ws.append(rng.uniform(-bound, bound, (fan_in, fan_out)).astype(dtype))
            self.bs.append(rng.uniform(-bound, bound, fan_out).astype(dtype))

    def parameters(self):
        out = []
        for W, b in zip(self.Ws, self.bs):
            out.append(W)
            out.append(b)
        return out

    def forward(self, x: np.ndarray, need_cache: bool = False):
        a = np.asarray(x, dtype=self.dtype)
        cache = [a] if need_cache else None
        last = len(self.Ws) - 1
        for i, (W, b) in enumerate(zip(self.Ws, self.bs)):
            a = a @ W
            a += b
            if i != last:
                np.maximum(a, 0.0, out=a)  # the pre-activation is fresh, so it becomes its ReLU
                if need_cache:
                    cache.append(a)
        return (a, cache) if need_cache else a

    def backward(self, cache, dy: np.ndarray, with_param_grads: bool = True):
        """Gradients for forward(x): the parameter gradients, or else dx.

        cache layout: [a0, a1, ..., a_last], the input of each layer, so a0
        is x and a_{i+1} = relu(z_{i+1}); dy matches the output.  The ReLU
        mask a_{i+1} > 0 equals z_{i+1} > 0, NaN included, so the
        pre-activations are not kept.  The parameter gradients align with
        parameters(); with with_param_grads=False only dx is formed and
        returned.
        """
        grads = [None] * (2 * len(self.Ws)) if with_param_grads else None
        dz = np.asarray(dy, dtype=self.dtype)
        last = len(self.Ws) - 1
        for i in range(last, -1, -1):
            if i != last:
                dz *= cache[i + 1] > 0  # dz is the fresh product from layer i + 1
            if with_param_grads:
                grads[2 * i] = cache[i].T @ dz
                grads[2 * i + 1] = dz.sum(axis=0)
            if i or not with_param_grads:  # nobody reads dx next to the parameter gradients
                dz = dz @ self.Ws[i].T
        return grads if with_param_grads else dz


class _Adam:
    def __init__(self, params, lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def update(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), ufunc by ufunc in its own
        # order, through two temporaries the size of p; the gradient is only read
        for p, g, m, v in zip(params, grads, self.m, self.v):
            g = g.astype(p.dtype, copy=False)
            step, denom = np.empty_like(p), np.empty_like(p)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=step)
            v *= self.beta2
            v += np.multiply(1.0 - self.beta2, np.square(g, out=denom), out=denom)
            np.multiply(self.lr, np.divide(m, b1t, out=step), out=step)
            np.add(np.sqrt(np.divide(v, b2t, out=denom), out=denom), self.eps, out=denom)
            p -= np.divide(step, denom, out=step)


def _log_std_from_raw(raw):
    return LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (np.tanh(raw) + 1.0)


def _softplus(x):
    return np.logaddexp(0.0, x)


def _squashed_gaussian(mu, raw, xi, c):
    """Reparameterized action c * tanh(mu + std * xi) and its log density.

    Returns std, tanh(a_raw), the action and log pi(action); the last term of
    log pi subtracts log(1 - tanh(a_raw)^2), the tanh change of variables.
    """
    log_std = _log_std_from_raw(raw)
    std = np.exp(log_std)
    a_raw = mu + std * xi
    th = np.tanh(a_raw)
    log_p = (
        -0.5 * xi**2
        - log_std
        - 0.5 * math.log(2.0 * math.pi)
        - math.log(c)
        - (math.log(4.0) - 2.0 * a_raw - 2.0 * _softplus(-2.0 * a_raw))
    )
    return std, th, c * th, log_p


class GaussianPolicy:
    """Squashed-Gaussian policy head on an Mlp trunk.

    The network maps a history vector to (mean, raw log-std); the log-std is
    rescaled smoothly into [LOG_STD_MIN, LOG_STD_MAX] and actions are
    action_limit * tanh(sample), with the matching change-of-variables
    correction in the log density.
    """

    def __init__(self, history_len, hidden_widths, action_limit, rng, dtype=np.float32):
        self.action_limit = float(action_limit)
        check_fields(self, positive=("action_limit",))
        self.net = Mlp((history_len,) + tuple(hidden_widths) + (2,), rng, dtype)
        # start the policy near unit standard deviation: bias the raw
        # log-std head to the preimage of log_std = 0 under the rescaling
        self.net.bs[-1][1] = np.arctanh(
            2.0 * (0.0 - LOG_STD_MIN) / (LOG_STD_MAX - LOG_STD_MIN) - 1.0
        )

    def sample(self, states, xi):
        """Reparameterized actions and their log densities for noise xi."""
        out = self.net.forward(states)
        _, _, action, log_p = _squashed_gaussian(out[:, 0], out[:, 1], xi, self.action_limit)
        return action, log_p


class SacAgent:
    """Policy, twin critics, their target copies, and optimizer state."""

    def __init__(self, config: SacConfig, dtype=np.float32):
        self.config = config
        H = config.history_len
        hw = tuple(config.hidden_widths)
        self.policy = GaussianPolicy(
            H, hw, config.action_limit, substream(config.seed, "init-policy"), dtype
        )
        self.q1 = Mlp((H + 1,) + hw + (1,), substream(config.seed, "init-q1"), dtype)
        self.q2 = Mlp((H + 1,) + hw + (1,), substream(config.seed, "init-q2"), dtype)
        self.q1_targ = copy.deepcopy(self.q1)
        self.q2_targ = copy.deepcopy(self.q2)
        self.opt_policy = _Adam(self.policy.net.parameters(), config.learning_rate)
        self.opt_q1 = _Adam(self.q1.parameters(), config.learning_rate)
        self.opt_q2 = _Adam(self.q2.parameters(), config.learning_rate)

    def act(self, state, rng: np.random.Generator) -> float:
        """The behaviour policy's action: one draw of xi, one sampled action for state."""
        xi = rng.standard_normal(1).astype(self.policy.net.dtype)
        action, _ = self.policy.sample(np.reshape(state, (1, -1)), xi)
        return float(action[0])


def _critic_loss_grads(critic: Mlp, s, a, y):
    """Mean-squared Bellman error and its parameter gradients."""
    x = np.concatenate([s, a[:, None]], axis=1)
    q, cache = critic.forward(x, need_cache=True)
    err = q[:, 0] - y
    loss = float(np.mean(err**2))
    dy = (2.0 / len(y)) * err[:, None]
    return loss, critic.backward(cache, dy)


def _policy_loss_grads(policy: GaussianPolicy, q1: Mlp, q2: Mlp, s, xi, alpha):
    """Entropy-regularized policy loss, gradients, and diagnostics.

    Differentiates mean(alpha*log pi - min(Q1, Q2)) with reparameterized
    actions; the critic parameters stay fixed, only their action-input
    gradients flow back into the policy.
    """
    B = len(s)
    c = policy.action_limit
    out, cache = policy.net.forward(s, need_cache=True)
    raw = out[:, 1]
    std, th, action, log_p = _squashed_gaussian(out[:, 0], raw, xi, c)

    x = np.concatenate([s, action[:, None]], axis=1)
    qv1, cache1 = q1.forward(x, need_cache=True)
    qv2, cache2 = q2.forward(x, need_cache=True)
    qv1 = qv1[:, 0]
    qv2 = qv2[:, 0]
    qmin = np.minimum(qv1, qv2)
    loss = float(np.mean(alpha * log_p - qmin))

    pick1 = (qv1 <= qv2).astype(policy.net.dtype)
    dq = -1.0 / B
    dx1 = q1.backward(cache1, (dq * pick1)[:, None], with_param_grads=False)
    dx2 = q2.backward(cache2, (dq * (1.0 - pick1))[:, None], with_param_grads=False)
    dl_da = dx1[:, -1] + dx2[:, -1]

    # d log pi / d a_raw = 2 tanh(a_raw); d a / d a_raw = c sech^2
    sech2 = 1.0 - th**2
    dl_daraw = (alpha / B) * (2.0 * th) + dl_da * c * sech2
    d_mu = dl_daraw
    d_logstd = dl_daraw * std * xi - (alpha / B) * np.ones_like(xi)
    d_raw = d_logstd * 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (1.0 - np.tanh(raw) ** 2)
    d_out = np.stack([d_mu, d_raw], axis=1)
    grads = policy.net.backward(cache, d_out)
    diag = {"entropy": float(-np.mean(log_p)), "q_pi": float(np.mean(qmin))}
    return loss, grads, diag


def _soft_update(target: Mlp, online: Mlp, tau: float):
    for pt, po in zip(target.parameters(), online.parameters()):
        pt *= 1.0 - tau
        pt += tau * po


# (pid, pool): made on the first update, and again in a forked child, which
# inherits the pool but not its worker thread
_pool = (None, None)
_held = None


def _in_parallel(main, side):
    """Run side() on the pool's worker while main() runs here; return both results.

    Both have finished before anything is returned or raised, and an
    exception raised by side() is re-raised here.  The overlap comes from
    numpy releasing the interpreter lock inside BLAS calls and large
    elementwise loops.  concurrent.futures, which loads logging, is imported
    here so that importing the package loads neither.
    """
    from concurrent.futures import ThreadPoolExecutor, wait

    global _pool, _held
    pid, pool = _pool
    if pid != os.getpid():
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="occball-sac-helper")
        _pool = (os.getpid(), pool)
    _held = side  # keeps its arrays' pages mapped until the next call or the end of train
    future = pool.submit(side)
    try:
        result = main()
    finally:
        wait((future,))
    return result, future.result()


def sac_update(agent: SacAgent, batch: dict, rng: np.random.Generator):
    """One gradient step on both critics and the policy plus target smoothing.

    Runs under agent.config.  The critic branch runs on the calling thread
    and the policy branch on the pool's worker; then q2's optimizer step and
    smoothing run on the worker beside the rest.  Rejects the update
    (raising RuntimeError) if any loss turns non-finite; a rejected update,
    or an error in either branch, changes nothing.
    """
    config = agent.config
    s, a, r, s2, d = batch["s"], batch["a"], batch["r"], batch["s2"], batch["d"]
    dtype = agent.q1.dtype
    B = len(r)
    xi2 = rng.standard_normal(B).astype(dtype)
    xi = rng.standard_normal(B).astype(dtype)

    def critic_branch():
        a2, log_p2 = agent.policy.sample(s2, xi2)
        x2 = np.concatenate([s2, a2[:, None]], axis=1)
        q1t = agent.q1_targ.forward(x2)[:, 0]
        q2t = agent.q2_targ.forward(x2)[:, 0]
        target_v = np.minimum(q1t, q2t) - config.alpha * log_p2
        y = r + config.gamma_discount * (1.0 - d) * target_v
        return _critic_loss_grads(agent.q1, s, a, y), _critic_loss_grads(agent.q2, s, a, y)

    def policy_branch():
        return _policy_loss_grads(agent.policy, agent.q1, agent.q2, s, xi, config.alpha)

    critics, (loss_pi, grads_pi, diag) = _in_parallel(critic_branch, policy_branch)
    (loss_q1, grads_q1), (loss_q2, grads_q2) = critics
    if not (math.isfinite(loss_q1) and math.isfinite(loss_q2) and math.isfinite(loss_pi)):
        raise RuntimeError(
            f"non-finite SAC losses (q1={loss_q1}, q2={loss_q2}, pi={loss_pi}); update rejected"
        )

    def step_q1_and_policy():
        agent.opt_q1.update(agent.q1.parameters(), grads_q1)
        agent.opt_policy.update(agent.policy.net.parameters(), grads_pi)
        _soft_update(agent.q1_targ, agent.q1, config.tau_target)

    def step_q2():
        agent.opt_q2.update(agent.q2.parameters(), grads_q2)
        _soft_update(agent.q2_targ, agent.q2, config.tau_target)

    _in_parallel(step_q1_and_policy, step_q2)
    return {"loss_q1": loss_q1, "loss_q2": loss_q2, "loss_pi": loss_pi, **diag}


class ReplayBuffer:
    """Uniform replay over transitions, stored as one set of flat streams.

    The kept episodes lie end to end in obs (T + 1 entries per episode) and
    in a, r and d (T each); _first[e] is the index of episode e's first
    transition, so its observations start at _first[e] + e.  Observations are
    scalars, so the H-step history windows are gathered on sampling; this
    keeps a million transitions in tens of megabytes instead of the
    gigabytes a materialized window-per-transition layout would need.  Whole
    episodes are evicted oldest-first once capacity is exceeded, and the
    newest episode is always kept.
    """

    def __init__(self, capacity: int, history_len: int):
        self.capacity = int(capacity)
        self.H = int(history_len)
        self.obs = self.a = self.r = self.d = np.zeros(0, dtype=np.float32)
        self._first = np.zeros(0, dtype=np.int64)
        self.size = 0

    def add_episode(self, obs, actions, rewards, terminal: bool):
        obs = np.asarray(obs, dtype=np.float32)
        actions = np.asarray(actions, dtype=np.float32)
        rewards = np.asarray(rewards, dtype=np.float32)
        T = len(actions)
        if T < 1 or len(obs) != T + 1 or len(rewards) != T:
            raise ValueError("episode arrays must satisfy len(obs) == len(actions)+1")
        done = np.zeros(T, dtype=np.float32)
        done[-1] = terminal
        first = np.append(self._first, self.size)
        # drop the oldest episodes that no longer fit, but never the newest
        e = min(int(np.searchsorted(first, self.size + T - self.capacity)), len(first) - 1)
        cut = int(first[e])
        self.obs = np.concatenate((self.obs[cut + e:], obs))
        self.a = np.concatenate((self.a[cut:], actions))
        self.r = np.concatenate((self.r[cut:], rewards))
        self.d = np.concatenate((self.d[cut:], done))
        self._first = first[e:] - cut
        self.size += T - cut

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        """A uniform batch of transitions; "s" and "s2" are views of one array."""
        if self.size < 1:
            raise ValueError("buffer is empty")
        k = rng.integers(0, self.size, size=batch_size)
        e = np.searchsorted(self._first, k, "right") - 1
        start = self._first[e] + e
        # one window H + 1 wide covers both histories: s and s2 clamp to the
        # same episode start, so s2 is s shifted by one observation
        lags = np.arange(-self.H + 1, 2)
        window = self.obs[np.maximum((k + e)[:, None] + lags, start[:, None])]
        return {
            "s": window[:, :-1],
            "a": self.a[k],
            "r": self.r[k],
            "s2": window[:, 1:],
            "d": self.d[k],
        }


# train's plateau rule: the running reward must gain this much, once this many episodes ran
_PLATEAU_MIN_GAIN, _PLATEAU_FLOOR = 1.0, 1000


@dataclass
class TrainResult:
    curve: list  # (episode, running_reward, steps_cumulative)
    agent: SacAgent
    stop_reason: str


def train(
    params: PhysicalParams,
    sensor: SensorSpec,
    config: SacConfig,
    max_episodes: int = 2000,
    env_config: EpisodeConfig | None = None,
    plateau_window: int = 500,
    progress=None,
) -> TrainResult:
    """Episodic SAC training loop with plateau-based early stopping.

    Stops once the 100-episode running mean reaches the per-episode reward
    ceiling, or when it has not improved by more than _PLATEAU_MIN_GAIN over
    the last plateau_window episodes, or at max_episodes.  The plateau rule
    only arms after _PLATEAU_FLOOR episodes, and the best-so-far reference it
    improves against starts at _PLATEAU_FLOOR - plateau_window: on this task
    useful reward signal routinely appears later than any 500-episode
    cold-start window, and the random-action warmup phase would otherwise
    plant an unbeatable early reference.  Each episode is one run_episode call,
    whose y_end closes the episode's observations in the replay buffer.
    """
    global _held
    check_count("max_episodes", max_episodes, 1)
    env_config = env_config or EpisodeConfig()
    actor = _TrainingActor(SacAgent(config))

    curve = []
    recent = []
    best_mean = -math.inf
    track_from = max(0, _PLATEAU_FLOOR - plateau_window)
    best_mean_episode = track_from
    stop_reason = "max_episodes"

    # episode i's seed is substream_seed(config.seed, "train-episode", i)
    for episode, rng in zip(range(max_episodes), substreams(config.seed, "train-episode")):
        ep_config = replace(env_config, seed=int(rng.integers(0, 2**63 - 1)))
        result, traj, y_end = run_episode(params, ep_config, actor, sensor)
        if result.cause == "nonfinite_action":
            raise RuntimeError(
                f"policy emitted the non-finite action {traj.u[-1]} "
                f"at step {result.steps} of episode {episode}"
            )
        actor.settle()
        obs = np.append(traj.z, y_end)
        rewards = np.arange(len(traj)) < result.steps  # 1 for each step that stayed in the box
        actor.buffer.add_episode(obs, traj.u, rewards, not result.success)
        recent.append(float(result.steps))
        running = float(np.mean(recent[-100:]))
        curve.append((episode, running, actor.total_steps))
        if progress is not None:
            progress(episode, running, actor.total_steps)
        if episode >= track_from and running > best_mean + _PLATEAU_MIN_GAIN:
            best_mean = running
            best_mean_episode = episode
        if running >= float(env_config.max_steps) - 1e-9:
            stop_reason = "ceiling"
            break
        if episode >= _PLATEAU_FLOOR and episode - best_mean_episode >= plateau_window:
            stop_reason = "plateau"
            break
    _held = None  # the hold is for updates within a run; let the finished agent go
    return TrainResult(curve=curve, agent=actor.agent, stop_reason=stop_reason)


class PolicyController(Controller):
    """A policy's deterministic action: history window in, c * tanh(mean) out."""

    def __init__(self, policy: GaussianPolicy):
        self.policy = policy
        self.H = self.policy.net.sizes[0]
        self._window = None

    def reset(self) -> None:
        self._window = None

    def _push(self, y: float) -> np.ndarray:
        if self._window is None:
            self._window = np.full(self.H, y, dtype=self.policy.net.dtype)
        else:
            self._window[:-1] = self._window[1:]
            self._window[-1] = y
        return self._window

    def act(self, y: float) -> float:
        out = self.policy.net.forward(self._push(y).reshape(1, -1))
        return float(self.policy.action_limit * np.tanh(out[0, 0]))


class _TrainingActor(PolicyController):
    """SAC's behaviour policy inside run_episode.

    Each act takes a uniform warm-up or a sampled policy action.  The
    sac_updates a taken step owes run at the next act, or at settle() after
    the episode, so the agent changes only between two actions.
    """

    def __init__(self, agent: SacAgent):
        super().__init__(agent.policy)
        self.agent = agent
        self.buffer = ReplayBuffer(agent.config.buffer_capacity, agent.config.history_len)
        seed = agent.config.seed
        self.rng_batch = substream(seed, "batch")
        self.rng_updates = substream(seed, "update-noise")
        self.rng_warmup = substream(seed, "warmup-actions")
        self.rng_act = substream(seed, "rollout-actions")
        self.total_steps = 0
        self._owed = False

    def act(self, y: float) -> float:
        self.settle()
        window = self._push(y)
        self._owed = True
        c = self.agent.config
        if self.total_steps < c.warmup_steps:
            return float(self.rng_warmup.uniform(-c.action_limit, c.action_limit))
        return self.agent.act(window, self.rng_act)

    def settle(self) -> None:
        """Count the step the last action took and run the updates it owes."""
        if not self._owed:
            return
        self._owed = False
        self.total_steps += 1
        c = self.agent.config
        if self.total_steps > c.warmup_steps and self.buffer.size >= c.batch_size:
            for _ in range(c.updates_per_step):
                sac_update(self.agent, self.buffer.sample(c.batch_size, self.rng_batch),
                           self.rng_updates)


def save_policy(path, policy: GaussianPolicy, metadata: dict | None = None) -> None:
    """Architecture JSON next to a row-major float32 weight blob."""
    path = Path(path)
    blob_path = path.with_suffix(".bin")
    params = policy.net.parameters()
    with open(blob_path, "wb") as f:
        for p in params:
            f.write(np.ascontiguousarray(p, dtype=np.float32).tobytes())
    arch = {
        "sizes": list(policy.net.sizes),
        "action_limit": policy.action_limit,
        "log_std_range": [LOG_STD_MIN, LOG_STD_MAX],
        "blob": blob_path.name,
        "shapes": [list(p.shape) for p in params],
        "metadata": metadata or {},
    }
    with open(path, "w") as f:
        json.dump(arch, f, indent=2, sort_keys=True)
        f.write("\n")


def load_policy(path) -> GaussianPolicy:
    """The saved policy, its blob cut by the shapes of "sizes" (the file's "shapes" is not read)."""
    path = Path(path)
    with open(path) as f:
        arch = json.load(f)
    if arch["log_std_range"] != [LOG_STD_MIN, LOG_STD_MAX]:
        raise ValueError(f"log_std_range {arch['log_std_range']} is not the fixed "
                         f"[LOG_STD_MIN, LOG_STD_MAX] = {[LOG_STD_MIN, LOG_STD_MAX]}")
    sizes = arch["sizes"]
    policy = GaussianPolicy(
        sizes[0], tuple(sizes[1:-1]), arch["action_limit"], substream(0, "load"), np.float32
    )
    flat = np.frombuffer((path.parent / arch["blob"]).read_bytes(), dtype=np.float32)
    params = policy.net.parameters()
    expected = sum(p.size for p in params)
    if len(flat) != expected:
        raise ValueError(f"weight blob holds {len(flat)} floats, but sizes {sizes} need {expected}")
    offset = 0
    for p in params:
        p[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    return policy
