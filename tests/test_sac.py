import copy
import gc
import hashlib
import json
import math
import multiprocessing
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

import occball.sac as sacmod
from occball.cartpole import EpisodeConfig, PhysicalParams, make_sensor
from occball.rngtools import substream
from occball.sac import (
    GaussianPolicy,
    Mlp,
    PolicyController,
    ReplayBuffer,
    SacAgent,
    SacConfig,
    _Adam,
    _critic_loss_grads,
    _policy_loss_grads,
    _soft_update,
    load_policy,
    sac_update,
    save_policy,
    train,
)

TINY = SacConfig(
    history_len=4,
    hidden_widths=(8, 8),
    batch_size=16,
    buffer_capacity=5000,
    warmup_steps=40,
    seed=7,
)


def flatten(params):
    return np.concatenate([np.asarray(p, dtype=np.float64).ravel() for p in params])


def set_flat(params, flat):
    o = 0
    for p in params:
        p[...] = flat[o : o + p.size].reshape(p.shape)
        o += p.size


def fd_gradient(loss_fn, params, h=1e-6):
    base = flatten(params)
    grad = np.zeros_like(base)
    for i in range(len(base)):
        up = base.copy()
        up[i] += h
        set_flat(params, up)
        lp = loss_fn()
        dn = base.copy()
        dn[i] -= h
        set_flat(params, dn)
        lm = loss_fn()
        grad[i] = (lp - lm) / (2 * h)
    set_flat(params, base)
    return grad


def margin_batch(rng, q1, q2, policy, H=3, B=5):
    """Batch with ReLU pre-activations and critic gap away from kinks."""
    while True:
        s = rng.uniform(-1, 1, (B, H))
        a = rng.uniform(-1.5, 1.5, B)
        y = rng.uniform(-1, 1, B)
        xi = rng.standard_normal(B)
        pre, h = [], np.concatenate([s, a[:, None]], axis=1)
        for W, b in zip(q1.Ws[:-1], q1.bs[:-1]):
            pre.append(h @ W + b)
            h = np.maximum(pre[-1], 0.0)
        if not all(np.abs(z).min() > 1e-3 for z in pre):
            continue
        act, _ = policy.sample(s, xi)
        x = np.concatenate([s, act[:, None]], axis=1)
        v1 = q1.forward(x)[:, 0]
        v2 = q2.forward(x)[:, 0]
        if np.abs(v1 - v2).min() > 1e-3:
            return s, a, y, xi


def serial_update(agent, batch, rng):
    """Reference: sac_update's arithmetic in one thread, in its serial order."""
    config = agent.config
    s, a, r, s2, d = batch["s"], batch["a"], batch["r"], batch["s2"], batch["d"]
    dtype = agent.q1.dtype
    B = len(r)
    xi2 = rng.standard_normal(B).astype(dtype)
    a2, log_p2 = agent.policy.sample(s2, xi2)
    x2 = np.concatenate([s2, a2[:, None]], axis=1)
    q1t = agent.q1_targ.forward(x2)[:, 0]
    q2t = agent.q2_targ.forward(x2)[:, 0]
    y = r + config.gamma_discount * (1.0 - d) * (np.minimum(q1t, q2t) - config.alpha * log_p2)
    loss_q1, grads_q1 = _critic_loss_grads(agent.q1, s, a, y)
    loss_q2, grads_q2 = _critic_loss_grads(agent.q2, s, a, y)
    xi = rng.standard_normal(B).astype(dtype)
    loss_pi, grads_pi, diag = _policy_loss_grads(
        agent.policy, agent.q1, agent.q2, s, xi, config.alpha
    )
    agent.opt_q1.update(agent.q1.parameters(), grads_q1)
    agent.opt_q2.update(agent.q2.parameters(), grads_q2)
    agent.opt_policy.update(agent.policy.net.parameters(), grads_pi)
    _soft_update(agent.q1_targ, agent.q1, config.tau_target)
    _soft_update(agent.q2_targ, agent.q2, config.tau_target)
    return {"loss_q1": loss_q1, "loss_q2": loss_q2, "loss_pi": loss_pi, **diag}


def agent_state(agent):
    """Every parameter, target parameter and Adam moment, then the Adam step counts."""
    arrays = []
    for net in (agent.policy.net, agent.q1, agent.q2, agent.q1_targ, agent.q2_targ):
        arrays += net.parameters()
    opts = (agent.opt_policy, agent.opt_q1, agent.opt_q2)
    for opt in opts:
        arrays += opt.m + opt.v
    return [p.copy() for p in arrays], [opt.t for opt in opts]


def assert_same_state(state, agent):
    arrays, steps = agent_state(agent)
    assert steps == state[1]
    assert len(arrays) == len(state[0])
    for before, after in zip(state[0], arrays):
        assert before.dtype == after.dtype and np.array_equal(before, after)


PINNED = SacConfig(history_len=20, hidden_widths=(32, 32), batch_size=64, seed=21)


def pinned_buffer():
    buf = ReplayBuffer(10_000, PINNED.history_len)
    rng = substream(22, "pinned-buffer")
    for k in range(6):
        T = 30 + 7 * k
        buf.add_episode(rng.normal(0, 0.05, T + 1), rng.uniform(-10, 10, T), np.ones(T), k % 2 == 0)
    return buf


def run_pinned(update, updates=25):
    agent = SacAgent(PINNED)
    buf = pinned_buffer()
    rng_batch, rng_noise = substream(23, "pinned-batch"), substream(24, "pinned-noise")
    for _ in range(updates):
        diag = update(agent, buf.sample(PINNED.batch_size, rng_batch), rng_noise)
    return agent, diag


def _update_and_send(agent, batch, seed, conn):
    conn.send(sac_update(agent, batch, substream(seed, "fork-noise")))
    conn.close()


def pushed_window(observations, H):
    """The history window PolicyController holds after pushing each observation."""
    controller = PolicyController(GaussianPolicy(H, (4,), 2.0, substream(0, "history")))
    for y in observations:
        window = controller._push(y)
    return window


def act_on_window(controller, state):
    """PolicyController's action once, after a reset, its window holds state."""
    controller.reset()
    for y in state:
        action = controller.act(y)
    return action


def old_deterministic_action(policy, state):
    """Reference for PolicyController.act: the former deterministic GaussianPolicy.act."""
    s = np.asarray(state, dtype=policy.net.dtype).reshape(1, -1)
    out = policy.net.forward(s)
    mu = out[:, 0]
    return float(policy.action_limit * np.tanh(mu[0]))


def old_sampled_action(policy, state, rng):
    """Reference for SacAgent.act: the former GaussianPolicy.act(state, rng)."""
    s = np.asarray(state, dtype=policy.net.dtype).reshape(1, -1)
    xi = rng.standard_normal(1)
    out = policy.net.forward(s)
    _, _, action, _ = sacmod._squashed_gaussian(
        out[:, 0], out[:, 1], xi.astype(policy.net.dtype), policy.action_limit
    )
    return float(action[0])


def traced(fn):
    """fn() under tracemalloc: its result, the peak bytes above the start, the bytes still held."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, held - start


def old_adam(params, grad_steps, lr):
    """Reference: the Adam step that copied each gradient and allocated every intermediate."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        b1t = 1.0 - beta1**t
        b2t = 1.0 - beta2**t
        for p, g, mi, vi in zip(params, grads, m, v):
            g = g.astype(p.dtype)
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * np.square(g)
            p -= lr * (mi / b1t) / (np.sqrt(vi / b2t) + eps)


class TestSacConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0),
        ("learning_rate", -1.0),
        ("learning_rate", math.nan),
        ("learning_rate", math.inf),
        ("updates_per_step", 0),
        ("buffer_capacity", 0),
        ("warmup_steps", -1),
        ("action_limit", 0.0),
        ("action_limit", math.inf),
        ("hidden_widths", (8, 0)),
        ("alpha", 0.0),
        ("alpha", math.nan),
        # counts must be integers: a float was truncated, or failed later unnamed
        ("history_len", 16.7),
        ("history_len", math.nan),
        ("hidden_widths", (8.5, 8)),
        ("batch_size", 2.5),
        ("buffer_capacity", 100.5),
        ("updates_per_step", 1.5),
        ("warmup_steps", math.inf),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(TINY, **{field: value})

    def test_linear_network_allowed(self):
        assert replace(TINY, hidden_widths=()).hidden_widths == ()


class TestHistoryState:
    def test_constant_stream(self):
        assert np.allclose(pushed_window([2.5] * 5, 3), [2.5, 2.5, 2.5])

    def test_fill_rule_single_observation(self):
        assert np.allclose(pushed_window([1.0], 3), [1.0, 1.0, 1.0])

    def test_sliding_window(self):
        assert np.allclose(pushed_window([1, 2, 3, 4], 3), [2, 3, 4])

    def test_partial_fill(self):
        assert np.allclose(pushed_window([5, 7], 4), [5, 5, 5, 7])

    def test_shift_matches_roll(self):
        ys = substream(19, "shift").standard_normal(50)
        controller = PolicyController(GaussianPolicy(8, (4,), 2.0, substream(0, "history")))
        expected = np.full(8, ys[0], dtype=np.float32)
        controller._push(ys[0])
        for y in ys[1:]:
            expected = np.roll(expected, -1)
            expected[-1] = y
            assert controller._push(y).tobytes() == expected.tobytes()


class TestPolicy:
    def test_action_bound(self):
        # a million draws across random parameter draws never escape the limit
        rng = substream(1, "bound")
        worst = 0.0
        for _ in range(10):
            policy = GaussianPolicy(4, (8, 8), 10.0, rng, dtype=np.float64)
            for p in policy.net.parameters():
                p += rng.standard_normal(p.shape)
            s = rng.uniform(-5, 5, (100_000, 4))
            xi = rng.standard_normal(100_000)
            actions, _ = policy.sample(s, xi)
            worst = max(worst, np.max(np.abs(actions)))
        assert worst <= 10.0

    def test_deterministic_is_pure(self):
        rng = substream(2, "pure")
        policy = GaussianPolicy(4, (8, 8), 10.0, rng)
        state = np.array([0.1, -0.2, 0.3, 0.0])
        controller = PolicyController(policy)
        a1 = act_on_window(controller, state)
        a2 = act_on_window(controller, state)
        assert a1 == a2

    def test_zero_weights_zero_action(self):
        rng = substream(3, "zero")
        policy = GaussianPolicy(4, (8, 8), 10.0, rng)
        for p in policy.net.parameters():
            p[...] = 0.0
        assert act_on_window(PolicyController(policy), np.ones(4)) == 0.0

    def test_stochastic_needs_rng(self):
        agent = SacAgent(replace(TINY, seed=4))
        with pytest.raises(TypeError):
            agent.act(np.ones(4))

    def test_log_density_normalizes(self):
        # integrate the squashed density over the action range by the
        # change of variables back to the pre-squash coordinate
        rng = substream(5, "density")
        policy = GaussianPolicy(3, (6, 6), 2.0, rng, dtype=np.float64)
        s = rng.uniform(-1, 1, (1, 3))
        out = policy.net.forward(s)
        mu, raw = out[:, 0], out[:, 1]
        log_std = sacmod._log_std_from_raw(raw)
        grid = np.linspace(mu[0] - 10 * np.exp(log_std[0]), mu[0] + 10 * np.exp(log_std[0]), 200001)
        xi = (grid - mu[0]) / np.exp(log_std[0])
        actions, log_p = policy.sample(np.repeat(s, len(grid), axis=0), xi)
        # density in action space integrated via da = c sech^2 d a_raw
        da = np.gradient(actions)
        mass = np.sum(np.exp(log_p) * da)
        assert mass == pytest.approx(1.0, abs=1e-3)


class TestGradients:
    def test_gradcheck_critic_and_policy(self):
        rng = substream(6, "gradcheck")
        worst_c, worst_p = 0.0, 0.0
        for _ in range(6):
            q1 = Mlp((4, 4, 4, 1), rng, dtype=np.float64)
            q2 = Mlp((4, 4, 4, 1), rng, dtype=np.float64)
            policy = GaussianPolicy(3, (4, 4), 2.0, rng, dtype=np.float64)
            s, a, y, xi = margin_batch(rng, q1, q2, policy)
            _, grads = _critic_loss_grads(q1, s, a, y)
            fd = fd_gradient(lambda: _critic_loss_grads(q1, s, a, y)[0], q1.parameters())
            rel = np.max(np.abs(flatten(grads) - fd) / np.maximum(np.abs(fd), 1e-6))
            worst_c = max(worst_c, rel)
            _, grads_p, _ = _policy_loss_grads(policy, q1, q2, s, xi, 0.2)
            fd_p = fd_gradient(
                lambda: _policy_loss_grads(policy, q1, q2, s, xi, 0.2)[0],
                policy.net.parameters(),
            )
            rel_p = np.max(np.abs(flatten(grads_p) - fd_p) / np.maximum(np.abs(fd_p), 1e-6))
            worst_p = max(worst_p, rel_p)
        assert worst_c < 1e-4
        assert worst_p < 1e-4


class TestInPlace:
    """The default-width networks and Adam allocate only what their arithmetic needs.

    Each test runs on the calling thread, without the update's thread pool.
    """

    SQUARE = 256 * 256 * 4  # bytes of one 256 x 256 float32 array

    def test_cached_forward_keeps_only_layer_inputs(self):
        net = Mlp((201, 256, 256, 1), substream(20, "net"))
        x = substream(20, "x").standard_normal((256, 201)).astype(np.float32)
        (_, cache), _, held = traced(lambda: net.forward(x, need_cache=True))
        assert [a.shape for a in cache] == [(256, 201), (256, 256), (256, 256)]
        assert round(held / self.SQUARE) == 2  # a1 and a2; z1 and z2 are no longer kept

    def test_forward_leaves_input_unchanged(self):
        net = Mlp((201, 256, 256, 1), substream(21, "net"))
        x = substream(21, "x").standard_normal((256, 201)).astype(np.float32)
        before = x.tobytes()
        _, cache = net.forward(x, need_cache=True)
        assert cache[0] is x
        assert x.tobytes() == before

    def test_adam_peaks_at_two_parameter_sizes(self):
        rng = substream(22, "adam")
        p = rng.standard_normal((256, 256)).astype(np.float32)
        g = rng.standard_normal((256, 256)).astype(np.float32)
        opt = _Adam([p], 3e-4)
        _, peak, _ = traced(lambda: opt.update([p], [g]))
        assert round(peak / self.SQUARE) == 2

    @pytest.mark.parametrize("p_dtype, g_dtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
    ])
    def test_adam_matches_old_expression_bitwise(self, p_dtype, g_dtype):
        rng = substream(23, "adam-bytes")
        shapes = [(7, 5), (5,), (5, 1), (1,)]
        params = [rng.standard_normal(shape).astype(p_dtype) for shape in shapes]
        grad_steps = [[rng.standard_normal(shape).astype(g_dtype) for shape in shapes]
                      for _ in range(6)]
        saved = [[g.copy() for g in grads] for grads in grad_steps]
        expected = [p.copy() for p in params]
        old_adam(expected, saved, 3e-2)
        opt = _Adam(params, 3e-2)
        for grads in grad_steps:
            opt.update(params, grads)
        for p, e in zip(params, expected):
            assert p.dtype == e.dtype and p.tobytes() == e.tobytes()
        for grads, copies in zip(grad_steps, saved):
            for g, c in zip(grads, copies):
                assert g.tobytes() == c.tobytes()


class TestSacUpdate:
    def _fresh(self, gamma=0.99, lr=3e-4):
        cfg = SacConfig(
            history_len=3, hidden_widths=(4, 4), batch_size=4,
            gamma_discount=gamma, learning_rate=lr, seed=11,
        )
        return SacAgent(cfg, dtype=np.float64), cfg

    def test_zero_discount_targets_equal_reward(self):
        agent, _ = self._fresh(gamma=1e-12, lr=3e-3)
        rng = substream(12, "targets")
        batch = {
            "s": rng.uniform(-1, 1, (4, 3)),
            "a": rng.uniform(-1, 1, 4),
            "r": np.zeros(4),
            "s2": rng.uniform(-1, 1, (4, 3)),
            "d": np.zeros(4),
        }
        # with zero reward and (near) zero discount the critic regresses to 0
        for _ in range(1000):
            diag = sac_update(agent, batch, rng)
        x = np.concatenate([batch["s"], batch["a"][:, None]], axis=1)
        assert np.max(np.abs(agent.q1.forward(x)[:, 0])) < 0.02
        assert diag["loss_q1"] < 1e-3

    def test_entropy_term_in_target(self):
        # hand-compute y = r + gamma*(min Q_targ - alpha log pi) on one transition
        agent, cfg = self._fresh(gamma=0.5)
        rng = substream(13, "hand")
        s2 = rng.uniform(-1, 1, (1, 3))
        xi2 = rng.standard_normal(1)
        a2, log_p2 = agent.policy.sample(s2, xi2)
        x2 = np.concatenate([s2, a2[:, None]], axis=1)
        qt = min(agent.q1_targ.forward(x2)[0, 0], agent.q2_targ.forward(x2)[0, 0])
        expected = 1.0 + 0.5 * (qt - cfg.alpha * log_p2[0])
        got = 1.0 + cfg.gamma_discount * (1.0 - 0.0) * (qt - cfg.alpha * log_p2[0])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_target_smoothing_full_copy(self):
        agent, _ = self._fresh()
        rng = substream(14, "smooth")
        for p in agent.q1.parameters():
            p += rng.standard_normal(p.shape)
        _soft_update(agent.q1_targ, agent.q1, tau=1.0)
        for pt, po in zip(agent.q1_targ.parameters(), agent.q1.parameters()):
            assert np.allclose(pt, po)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_loss_rejected(self):
        agent, _ = self._fresh()
        rng = substream(15, "nan")
        batch = {
            "s": np.full((4, 3), np.nan),
            "a": np.zeros(4),
            "r": np.zeros(4),
            "s2": np.zeros((4, 3)),
            "d": np.zeros(4),
        }
        before = agent_state(agent)
        with pytest.raises(RuntimeError):
            sac_update(agent, batch, rng)
        assert_same_state(before, agent)

    def test_policy_branch_error_is_reraised(self, monkeypatch):
        agent, _ = self._fresh()
        rng = substream(15, "raise")
        batch = {
            "s": rng.uniform(-1, 1, (4, 3)),
            "a": rng.uniform(-1, 1, 4),
            "r": np.ones(4),
            "s2": rng.uniform(-1, 1, (4, 3)),
            "d": np.zeros(4),
        }

        def broken(*args):
            raise ValueError("policy branch failed")

        before = agent_state(agent)
        monkeypatch.setattr(sacmod, "_policy_loss_grads", broken)
        with pytest.raises(ValueError, match="policy branch failed"):
            sac_update(agent, batch, rng)
        assert_same_state(before, agent)
        # the pool's worker outlives the error and serves the next update
        monkeypatch.undo()
        expected = copy.deepcopy(agent)
        diag = sac_update(agent, batch, substream(15, "after"))
        assert diag == serial_update(expected, batch, substream(15, "after"))
        assert_same_state(agent_state(expected), agent)

    def test_matches_serial_reference_bitwise(self):
        agent, diag = run_pinned(sac_update)
        reference, diag_ref = run_pinned(serial_update)
        assert diag == diag_ref
        assert_same_state(agent_state(reference), agent)

    def test_pinned_update_hash(self):
        # sha256 of every parameter and Adam moment after 25 updates, taken
        # from the serial implementation (x86-64, OpenBLAS 0.3.31 float32
        # kernels); test_matches_serial_reference_bitwise holds on any BLAS
        agent, _ = run_pinned(sac_update)
        h = hashlib.sha256()
        for p in agent_state(agent)[0]:
            h.update(p.tobytes())
        assert h.hexdigest() == (
            "1158731fae7f7eecb0e4b23aa3130ba3c91bae7ffdb6136e86b6528004cfab14"
        )

    def test_update_in_forked_child(self):
        # the pool's worker thread started here does not exist in a forked
        # child, which must make its own pool instead of waiting on this one
        agent, _ = self._fresh()
        buf = ReplayBuffer(1000, 3)
        rng = substream(16, "fork-data")
        buf.add_episode(rng.normal(0, 1, 41), rng.uniform(-10, 10, 40), np.ones(40), False)
        rng_batch = substream(16, "fork-batch")
        sac_update(agent, buf.sample(4, rng_batch), substream(16, "first"))
        batch = buf.sample(4, rng_batch)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_update_and_send, args=(agent, batch, 17, send))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child's update did not finish"
            got = receive.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert got == serial_update(agent, batch, substream(17, "fork-noise"))

    def test_updates_share_one_worker_thread(self):
        agent, _ = self._fresh()
        buf = ReplayBuffer(1000, 3)
        rng = substream(18, "worker-data")
        buf.add_episode(rng.normal(0, 1, 41), rng.uniform(-10, 10, 40), np.ones(40), False)
        for _ in range(5):
            sac_update(agent, buf.sample(4, rng), rng)
        workers = [t for t in threading.enumerate() if t.name.startswith("occball-sac-helper")]
        assert len(workers) == 1

    def test_import_starts_no_thread(self):
        code = "import threading, occball, occball.sac, occball.cli; print(threading.active_count())"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.split() == ["1"]


class EpisodeListBuffer:
    """The replay buffer as it once was: a list of per-episode dicts, evicted
    with pop(0), and a flat copy with per-transition index arrays rebuilt on
    the first sample after each add.  The reference for byte equality."""

    def __init__(self, capacity, history_len):
        self.capacity, self.H = capacity, history_len
        self.episodes, self.size, self.flat = [], 0, None

    def add_episode(self, obs, actions, rewards, terminal):
        T = len(actions)
        done = np.zeros(T, dtype=np.float32)
        if terminal:
            done[-1] = 1.0
        self.episodes.append({"obs": np.asarray(obs, dtype=np.float32),
                              "a": np.asarray(actions, dtype=np.float32),
                              "r": np.asarray(rewards, dtype=np.float32), "d": done})
        self.size += T
        while self.size > self.capacity and len(self.episodes) > 1:
            self.size -= len(self.episodes.pop(0)["a"])
        self.flat = None

    def sample(self, batch_size, rng):
        if self.flat is None:
            offsets = np.cumsum([0] + [len(ep["obs"]) for ep in self.episodes])[:-1]
            lengths = [len(ep["a"]) for ep in self.episodes]
            self.flat = {
                "obs": np.concatenate([ep["obs"] for ep in self.episodes]),
                "pos": np.concatenate([off + np.arange(T) for off, T in zip(offsets, lengths)]),
                "start": np.concatenate([np.full(T, off) for off, T in zip(offsets, lengths)]),
                **{key: np.concatenate([ep[key] for ep in self.episodes]) for key in "ard"},
            }
        f = self.flat
        k = rng.integers(0, self.size, size=batch_size)
        pos, start = f["pos"][k], f["start"][k]
        window = f["obs"][np.maximum(pos[:, None] + np.arange(-self.H + 1, 2), start[:, None])]
        return {"s": window[:, :-1], "a": f["a"][k], "r": f["r"][k], "s2": window[:, 1:],
                "d": f["d"][k]}


class TestReplayBuffer:
    def test_matches_per_episode_buffer(self):
        # random add/sample sequences give the same sizes and batch bytes as
        # the per-episode buffer, through every kind of eviction
        seen = set()
        for trial in range(100):
            rng = substream(21, "replay-reference", trial)
            capacity, H = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            buf, ref = ReplayBuffer(capacity, H), EpisodeListBuffer(capacity, H)
            for _ in range(40):
                if ref.size and rng.random() < 0.4:
                    batch_size, seed = int(rng.integers(1, 20)), int(rng.integers(2**32))
                    got = buf.sample(batch_size, np.random.default_rng(seed))
                    want = ref.sample(batch_size, np.random.default_rng(seed))
                    for key in want:
                        assert got[key].dtype == want[key].dtype
                        assert got[key].shape == want[key].shape
                        assert got[key].tobytes() == want[key].tobytes()
                    continue
                T = int(rng.choice([1, rng.integers(1, 12), capacity + rng.integers(1, 5)]))
                episodes_before = len(ref.episodes)
                args = (rng.normal(0, 1, T + 1), rng.uniform(-10, 10, T),
                        rng.integers(0, 2, T).astype(float), bool(rng.integers(2)))
                buf.add_episode(*args)
                ref.add_episode(*args)
                assert buf.size == ref.size
                seen.add("one step" if T == 1 else "longer than capacity" if T > capacity
                         else "evicts several" if len(ref.episodes) < episodes_before else "")
        assert {"one step", "longer than capacity", "evicts several"} <= seen

    def test_episode_bookkeeping(self):
        buf = ReplayBuffer(capacity=100, history_len=3)
        buf.add_episode(np.arange(6.0), np.ones(5), np.ones(5), True)
        assert buf.size == 5
        with pytest.raises(ValueError):
            buf.add_episode(np.arange(3.0), np.ones(3), np.ones(3), False)

    def test_eviction_oldest_first(self):
        buf = ReplayBuffer(capacity=10, history_len=2)
        for k in range(5):
            buf.add_episode(np.full(5, float(k)), np.ones(4), np.ones(4), False)
        # only the two newest episodes (constant 3/4 observations) still fit
        assert buf.size == 8
        batch = buf.sample(200, substream(16, "evict"))
        assert set(np.unique(batch["s2"]).tolist()) == {3.0, 4.0}

    def test_windows_and_done_flags(self):
        buf = ReplayBuffer(capacity=100, history_len=3)
        buf.add_episode(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.6]),
                        np.array([1.0, 0.0]), True)
        rng = substream(16, "win")
        batch = buf.sample(64, rng)
        for i in range(64):
            if batch["a"][i] == pytest.approx(0.5):
                assert np.allclose(batch["s"][i], [1, 1, 1])
                assert np.allclose(batch["s2"][i], [1, 1, 2])
                assert batch["d"][i] == 0.0
            else:
                assert np.allclose(batch["s"][i], [1, 1, 2])
                assert np.allclose(batch["s2"][i], [1, 2, 3])
                assert batch["d"][i] == 1.0

    def test_shared_window_matches_two_gathers(self):
        # s and s2 come from one window H + 1 wide; check them against
        # separate clamped gathers at first steps, second steps and
        # mid-episode transitions (actions are the transition indices)
        H = 4
        buf = ReplayBuffer(capacity=1000, history_len=H)
        rng = substream(16, "window")
        lengths = (1, 2, 9, 15)
        obs = [rng.normal(0, 1, T + 1) for T in lengths]
        k0 = 0
        for T, o in zip(lengths, obs):
            buf.add_episode(o, k0 + np.arange(T), np.ones(T), False)
            k0 += T
        batch = buf.sample(2000, substream(16, "window-batch"))
        # transition k's observation index in the concatenated episodes, and
        # the index of its episode's first observation
        offsets = np.cumsum((0,) + tuple(T + 1 for T in lengths))[:-1]
        pos_of = np.concatenate([off + np.arange(T) for off, T in zip(offsets, lengths)])
        start_of = np.repeat(offsets, lengths)
        all_obs = np.concatenate(obs).astype(np.float32)
        k = batch["a"].astype(int)
        pos, start = pos_of[k], start_of[k]
        lags = np.arange(-H + 1, 1)
        s = all_obs[np.maximum(pos[:, None] + lags, start[:, None])]
        s2 = all_obs[np.maximum(pos[:, None] + 1 + lags, start[:, None])]
        assert np.array_equal(batch["s"], s)
        assert np.array_equal(batch["s2"], s2)
        steps = set((pos - start).tolist())
        assert {0, 1} <= steps and max(steps) >= H

    def test_sampling_uniformity(self):
        buf = ReplayBuffer(capacity=1000, history_len=2)
        for k in range(10):
            buf.add_episode(np.arange(11.0) + 100 * k, np.arange(10.0) + 100 * k,
                            np.ones(10), False)
        rng = substream(17, "chi2")
        counts = np.zeros(buf.size)
        draws = 100_000
        batch_actions = []
        for _ in range(draws // 1000):
            b = buf.sample(1000, rng)
            batch_actions.append(b["a"])
        actions = np.concatenate(batch_actions)
        # map each action back to its transition index
        vals, counts = np.unique(actions, return_counts=True)
        assert len(vals) == buf.size
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.01


class TestTraining:
    def test_determinism(self):
        params = PhysicalParams()
        sensor = make_sensor("noise_free", params)
        env = EpisodeConfig(max_steps=40)
        r1 = train(params, sensor, TINY, max_episodes=4, env_config=env)
        r2 = train(params, sensor, TINY, max_episodes=4, env_config=env)
        assert r1.curve == r2.curve
        for p1, p2 in zip(r1.agent.policy.net.parameters(), r2.agent.policy.net.parameters()):
            assert np.array_equal(p1, p2)

    def test_curve_schema_and_ceiling_stop(self):
        params = PhysicalParams()
        sensor = make_sensor("noise_free", params)
        env = EpisodeConfig(max_steps=5, init_halfwidth=1e-9)
        cfg = SacConfig(history_len=4, hidden_widths=(8, 8), batch_size=8,
                        warmup_steps=10_000, seed=3)
        # warmup actions never run out before max_episodes, but from an
        # equilibrium start with uniform forces episodes end early; instead
        # verify the schema and monotone step counter
        res = train(params, sensor, cfg, max_episodes=6, env_config=env)
        episodes, rewards, steps = zip(*res.curve)
        assert episodes == tuple(range(len(episodes)))
        assert all(b > a for a, b in zip(steps, steps[1:]))
        assert all(0 <= r <= 5 for r in rewards)

    def test_updates_match_curve(self, monkeypatch):
        # every step past warm-up owes updates_per_step sac_updates when the
        # buffer already held a batch at the start of its episode; the ones
        # owed by an episode's last step run before the next episode starts
        calls, lengths, per_episode = [0], [], []
        update, add_episode = sacmod.sac_update, ReplayBuffer.add_episode

        def counting_update(*args):
            calls[0] += 1
            return update(*args)

        def recording_add(buf, obs, actions, rewards, terminal):
            lengths.append(len(actions))
            return add_episode(buf, obs, actions, rewards, terminal)

        monkeypatch.setattr(sacmod, "sac_update", counting_update)
        monkeypatch.setattr(ReplayBuffer, "add_episode", recording_add)
        cfg = replace(TINY, updates_per_step=2)
        params = PhysicalParams(ell0=0.9)
        res = train(params, make_sensor("depth_like", params), cfg, max_episodes=10,
                    env_config=EpisodeConfig(max_steps=300),
                    progress=lambda *_: per_episode.append(calls[0]))
        steps = [s for _, _, s in res.curve]
        assert steps == list(np.cumsum(lengths))
        expected, before = [], 0
        for total in steps:
            owed = sum(1 for k in range(before + 1, total + 1) if k > cfg.warmup_steps)
            expected.append(cfg.updates_per_step * owed if before >= cfg.batch_size else 0)
            before = total
        assert sum(expected) > 0
        assert np.diff([0] + per_episode).tolist() == expected
        assert calls[0] == sum(expected)

    def test_nonfinite_policy_action_raises(self, monkeypatch):
        monkeypatch.setattr(SacAgent, "act", lambda self, state, rng=None: math.nan)
        params = PhysicalParams()
        cfg = replace(TINY, warmup_steps=0)
        with pytest.raises(RuntimeError, match="non-finite action nan"):
            train(params, make_sensor("noise_free", params), cfg, max_episodes=2,
                  env_config=EpisodeConfig(max_steps=40))

    @pytest.mark.parametrize("episodes", [0, -1, 2.5, math.nan])
    def test_rejects_no_episodes(self, monkeypatch, episodes):
        monkeypatch.setattr(sacmod, "SacAgent", lambda config: pytest.fail("agent built"))
        params = PhysicalParams()
        with pytest.raises(ValueError, match="max_episodes"):
            train(params, make_sensor("noise_free", params), TINY, max_episodes=episodes)

    def test_warmup_curve_pinned(self):
        # warm-up actions only: the curve depends on the environment loop
        # alone, so the hash moves only if the episode loop's draws change
        params = PhysicalParams(ell0=0.8)
        cfg = SacConfig(history_len=4, hidden_widths=(8, 8), batch_size=8,
                        warmup_steps=10**6, seed=5)
        res = train(params, make_sensor("rgb_like", params), cfg, max_episodes=6,
                    env_config=EpisodeConfig(max_steps=60))
        assert [s for _, _, s in res.curve] == [39, 60, 79, 98, 131, 179]
        assert hashlib.sha256(repr(res.curve).encode()).hexdigest() == (
            "b9ba95cf0bccc5f1fef198106d41e7ce5dd886099211357962cd838fc20479d4"
        )

    def test_noisy_terminal_observations_pinned(self, monkeypatch):
        # the observation after an episode's last step is the sensor stream's
        # next draw; completed episodes (d = 0) bootstrap from it, and the
        # updates after them sample those transitions, so the weights see it
        terminal = []
        add_episode = ReplayBuffer.add_episode

        def recording_add(buf, obs, actions, rewards, done):
            terminal.append((float(obs[-1]), done))
            return add_episode(buf, obs, actions, rewards, done)

        monkeypatch.setattr(ReplayBuffer, "add_episode", recording_add)
        params = PhysicalParams(ell0=0.8)
        cfg = SacConfig(history_len=4, hidden_widths=(8, 8), batch_size=8,
                        warmup_steps=30, seed=2)
        res = train(params, make_sensor("rgb_like", params), cfg, max_episodes=5,
                    env_config=EpisodeConfig(max_steps=30))
        assert terminal == [
            (-0.11718376771150417, True),
            (-0.008227317023613262, True),
            (0.04439354823381922, False),
            (-0.023383639226397888, False),
            (-0.014440451421892684, False),
        ]
        h = hashlib.sha256()
        for net in (res.agent.policy.net, res.agent.q1, res.agent.q2):
            for p in net.parameters():
                h.update(p.tobytes())
        assert h.hexdigest() == (
            "1e1b278ab2499bea77bbd31f88d55dc49ef53fc0a1e99cf94e254c3af26472dc"
        )

    def test_finished_run_lets_agent_go(self):
        # the task held for the next update reaches the agent; train drops it on return
        params = PhysicalParams()
        res = train(params, make_sensor("noise_free", params), TINY, max_episodes=4,
                    env_config=EpisodeConfig(max_steps=300))
        assert res.curve[-1][2] > TINY.warmup_steps + TINY.batch_size  # updates ran
        assert sacmod._held is None
        agent = weakref.ref(res.agent)
        del res
        gc.collect()
        assert agent() is None

    def test_policy_controller_window(self):
        rng = substream(18, "pc")
        policy = GaussianPolicy(3, (4, 4), 10.0, rng)
        ctrl = PolicyController(policy)
        ctrl.reset()
        a1 = ctrl.act(1.0)
        ctrl.reset()
        a2 = ctrl.act(1.0)
        assert a1 == a2


@pytest.mark.slow
class TestLearnability:
    def test_survival_chain_converges(self):
        # ground-truth MDP: any |a| <= 1 survives (+1), larger dies; the
        # agent must learn to survive the 20-step horizon and the critic
        # should approach the discounted survival return plus entropy bonus
        cfg = SacConfig(history_len=2, hidden_widths=(16, 16), batch_size=32,
                        gamma_discount=0.95, alpha=0.05, learning_rate=1e-3,
                        action_limit=3.0, warmup_steps=200, seed=4)
        agent = SacAgent(cfg)
        buf = ReplayBuffer(50_000, 2)
        rng_env = substream(1, "env")
        rng_upd = substream(2, "upd")
        lengths = []
        for episode in range(400):
            obs = [0.0]
            window = np.zeros(2, dtype=np.float32)
            acts, rews = [], []
            died = False
            for t in range(20):
                if episode < 8:
                    a = float(rng_env.uniform(-3, 3))
                else:
                    a = agent.act(window, rng=rng_env)
                died = abs(a) > 1.0
                nxt = (t + 1) / 20.0
                obs.append(nxt)
                acts.append(a)
                rews.append(0.0 if died else 1.0)
                window = np.roll(window, -1)
                window[-1] = nxt
                if buf.size >= 32:
                    sac_update(agent, buf.sample(32, rng_upd), rng_upd)
                if died:
                    break
            buf.add_episode(obs, acts, rews, died)
            lengths.append(len(acts))
        assert np.mean(lengths[-60:]) > 18.0
        start = np.zeros(2, dtype=np.float32)
        det = act_on_window(PolicyController(agent.policy), start)
        assert abs(det) <= 1.0
        q0 = agent.q1.forward(np.concatenate([start, [det]]).reshape(1, -1))[0, 0]
        ideal = (1 - 0.95**20) / 0.05
        assert ideal * 0.7 < q0 < ideal * 1.6


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = substream(19, "ckpt")
        policy = GaussianPolicy(6, (8, 8), 10.0, rng)
        save_policy(tmp_path / "policy.json", policy, metadata={"note": "test"})
        loaded = load_policy(tmp_path / "policy.json")
        state = np.linspace(-1, 1, 6)
        assert (act_on_window(PolicyController(policy), state)
                == act_on_window(PolicyController(loaded), state))
        for p1, p2 in zip(policy.net.parameters(), loaded.net.parameters()):
            assert np.array_equal(p1, p2)

    def test_blob_cut_to_wrong_shapes_rejected(self, tmp_path):
        # a file whose "shapes" lists the first weight as 1 x 3, with a blob cut
        # to match, once loaded as four equal rows broadcast from that one
        policy = GaussianPolicy(4, (3,), 10.0, substream(20, "ckpt"))
        path = tmp_path / "policy.json"
        save_policy(path, policy)
        arch = json.loads(path.read_text())
        arch["shapes"][0] = [1, 3]
        path.write_text(json.dumps(arch))
        blob = tmp_path / "policy.bin"
        blob.write_bytes(blob.read_bytes()[3 * 4 * 3:])  # drop three of the four rows
        with pytest.raises(ValueError, match=r"holds 14 floats, but sizes \[4, 3, 2\] need 23"):
            load_policy(path)

    @pytest.mark.parametrize("field, value, match", [
        ("action_limit", math.nan, "action_limit must be finite and positive, got nan"),
        ("action_limit", math.inf, "action_limit must be finite and positive, got inf"),
        ("action_limit", 0.0, "action_limit must be finite and positive, got 0.0"),
        ("action_limit", -10.0, "action_limit must be finite and positive, got -10.0"),
        ("log_std_range", [-5, 2],
         r"log_std_range \[-5, 2\] .* \[LOG_STD_MIN, LOG_STD_MAX\] = \[-20.0, 2.0\]"),
    ])
    def test_edited_file_rejected(self, tmp_path, field, value, match):
        path = tmp_path / "policy.json"
        save_policy(path, GaussianPolicy(4, (3,), 10.0, substream(20, "ckpt")))
        arch = json.loads(path.read_text())
        arch[field] = value
        path.write_text(json.dumps(arch))
        with pytest.raises(ValueError, match=match):
            load_policy(path)


class TestActionPaths:
    """Both action paths give the bytes GaussianPolicy.act gave."""

    @staticmethod
    def policy(dtype=np.float32):
        rng = substream(21, "action-paths")
        policy = GaussianPolicy(16, (32, 32), 10.0, rng, dtype)
        for p in policy.net.parameters():
            p += (0.3 * rng.standard_normal(p.shape)).astype(dtype)
        return policy

    @staticmethod
    def controller_run(controller, dtype, reference):
        """Hex actions of controller over three episodes, and of reference on the same windows."""
        got, expected = [], []
        rng = substream(22, "action-paths-obs")
        for length in (5, 40, 23):
            controller.reset()
            ys = rng.standard_normal(length)
            window = np.full(controller.H, ys[0], dtype=dtype)
            for i, y in enumerate(ys):
                if i:
                    window = np.roll(window, -1)
                    window[-1] = y
                got.append(controller.act(y).hex())
                expected.append(reference(window).hex())
        return got, expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_policy_controller_matches_old_expression(self, dtype):
        policy = self.policy(dtype)
        got, expected = self.controller_run(
            PolicyController(policy), dtype, lambda w: old_deterministic_action(policy, w)
        )
        assert got == expected and len(set(got)) == len(got)

    def test_policy_controller_after_checkpoint_roundtrip(self, tmp_path):
        policy = self.policy()
        save_policy(tmp_path / "policy.json", policy)
        loaded = PolicyController(load_policy(tmp_path / "policy.json"))
        got, expected = self.controller_run(
            loaded, np.float32, lambda w: old_deterministic_action(policy, w)
        )
        assert got == expected

    def test_agent_act_matches_old_expression(self):
        agent = SacAgent(replace(TINY, history_len=16, hidden_widths=(32, 32), seed=8))
        rng_new, rng_old = substream(23, "action-paths-act"), substream(23, "action-paths-act")
        states = substream(24, "action-paths-states").standard_normal((50, 16)).astype(np.float32)
        got = [agent.act(s, rng_new).hex() for s in states]
        expected = [old_sampled_action(agent.policy, s, rng_old).hex() for s in states]
        assert got == expected and len(set(got)) == len(got)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
