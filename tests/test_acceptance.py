"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1, 2, 4, 5, 8, and 10 run in seconds and execute unconditionally,
as does a spot-check version of criterion 3.  Criteria 6, 7, 9, and the
full-grid version of 3 execute the complete experimental protocol (multi-
seed sweeps, full RL training); they are gated behind the environment
variable OCCBALL_FULL_ACCEPTANCE=1 because they need minutes (6, 7) to many
hours (9, single core) of compute.  Run them with:

    OCCBALL_FULL_ACCEPTANCE=1 pytest tests/test_acceptance.py -v -s
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from occball.cartpole import (
    EpisodeConfig,
    PhysicalParams,
    linearize,
    make_sensor,
    run_episode,
)
from occball.controllers import ZeroController
from occball.harness import ExperimentSpec, evaluate, run_sweep, score
from occball.limits import bound_for_model, closed_loop, hinf_norm
from occball.linalg import (
    StateSpaceModel,
    poles,
    solve_dare,
    spectral_radius,
    transmission_zeros,
)
from occball.rngtools import substream, substream_seed
from occball.sysid import (
    ArxModel,
    collect_budget,
    dataset_hash,
    fit_full_state,
    ho_kalman,
)
from occball.synthesis import EPSILON_BY_TIER, build_generalized_plant, hinf_synthesize

FULL = os.environ.get("OCCBALL_FULL_ACCEPTANCE") == "1"
full_protocol = pytest.mark.skipif(
    not FULL, reason="full acceptance protocol: set OCCBALL_FULL_ACCEPTANCE=1"
)

FIXATIONS = (1.0, 0.9, 0.8, 0.7)


def _report(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}".rstrip())


def test_criterion_1_pole_zero_closed_forms():
    t0 = time.perf_counter()
    p = PhysicalParams()
    pole_rate = p.tau * math.sqrt((p.M + p.m) * p.g / (p.M * p.ell))
    assert pole_rate == pytest.approx(0.065699, abs=1e-6)
    for ell0 in FIXATIONS:
        params = PhysicalParams(ell0=ell0)
        model = linearize(params)
        got_poles = sorted(v.real for v in poles(model))
        want = sorted([1.0, 1.0, 1.0 - pole_rate, 1.0 + pole_rate])
        assert np.allclose(got_poles, want, atol=1e-6)
        zs = sorted(z.real for z in transmission_zeros(model))
        if ell0 == 1.0:
            assert zs == []
        else:
            zero_rate = p.tau * math.sqrt(p.g / (p.ell - ell0))
            assert np.allclose(zs, [1.0 - zero_rate, 1.0 + zero_rate], atol=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"(poles/zeros match closed forms, {elapsed:.2f}s)")


def test_criterion_2_pole_zero_bound_values():
    t0 = time.perf_counter()
    values = {}
    for ell0 in FIXATIONS:
        values[ell0] = bound_for_model(linearize(PhysicalParams(ell0=ell0)))
    assert values[1.0] == pytest.approx(1.000, abs=1e-9)
    assert values[0.9] == pytest.approx(2.091, abs=2e-3)
    assert values[0.7] == pytest.approx(3.854, abs=5e-3)
    ordered = [values[f] for f in FIXATIONS]
    assert all(b > a for a, b in zip(ordered, ordered[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"(bounds {[round(v, 3) for v in ordered]}, {elapsed:.2f}s)")


def _fullstate_controller(ell0, seed, budget=20000):
    params = PhysicalParams(ell0=ell0)
    sensor = make_sensor("noise_free", params)
    data = collect_budget(params, sensor, budget, seed=seed)
    model = fit_full_state(data, params.ell0, params.tau)
    syn = hinf_synthesize(build_generalized_plant(model, EPSILON_BY_TIER["noise_free"]))
    return params, syn


def test_criterion_3_bound_consistency_spot():
    # every stabilizing controller must respect the bound; spot-check three
    # fixations (the gated full version covers the whole grid)
    checked = 0
    for ell0 in (1.0, 0.9, 0.7):
        params, syn = _fullstate_controller(ell0, seed=17)
        assert syn.feasible
        truth = linearize(params)
        loop = closed_loop(truth, syn.controller)
        if not loop.internally_stable:
            continue
        bound = bound_for_model(truth)
        measured = hinf_norm(loop.T)
        assert measured >= bound - 1e-3
        checked += 1
    assert checked >= 2
    _report("3 (spot)", f"({checked} stabilizing loops respect the bound)")


def test_criterion_4_ho_kalman_exact_recovery():
    t0 = time.perf_counter()
    rng = substream(400, "acceptance-hk")
    omegas = np.linspace(0.0, math.pi, 512)
    zetas = np.exp(1j * omegas)

    def freq(model):
        eye = np.eye(model.n)
        M = zetas[:, None, None] * eye - model.A
        X = np.linalg.solve(M, np.broadcast_to(model.B.astype(complex), (len(zetas), model.n, 1)))
        return (model.C.astype(complex) @ X)[:, 0, 0]

    worst = 0.0
    for _ in range(50):
        n, p = 4, 10
        while True:
            At = rng.standard_normal((n, n))
            At *= rng.uniform(0.05, 0.25) / max(1e-12, spectral_radius(At))
            L = 0.1 * rng.standard_normal((n, 1))
            C = rng.standard_normal((1, n))
            A = At + L @ C
            if np.min(np.abs(np.abs(np.linalg.eigvals(A)) - 1.0)) > 0.2:
                break
        B = rng.standard_normal((n, 1))
        g = np.empty(2 * p)
        Ak = np.eye(n)
        for k in range(1, p + 1):
            g[2 * (k - 1)] = (C @ Ak @ L).item()
            g[2 * (k - 1) + 1] = (C @ Ak @ B).item()
            Ak = At @ Ak
        res = ho_kalman(ArxModel(G=g, p=p), n)
        truth = StateSpaceModel(A, B, C, [[0.0]])
        err = np.abs(freq(truth) - freq(res.to_model())).max()
        worst = max(worst, err)
        assert err < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"(50 observers, worst error {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_5_dare_certificate():
    P = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(P[0, 0] - (2.0 + math.sqrt(5.0))) < 1e-10
    rng = substream(500, "acceptance-dare")
    for _ in range(100):
        n = int(rng.integers(1, 7))
        A = 0.95 * rng.standard_normal((n, n))
        B = rng.standard_normal((n, 1))
        Q = rng.standard_normal((n, n))
        Q = Q @ Q.T
        R = [[float(rng.uniform(0.1, 2.0))]]
        P = solve_dare(A, B, Q, R)
        gain = np.linalg.solve(np.asarray(R) + B.T @ P @ B, B.T @ P @ A)
        residual = P - (A.T @ P @ A - A.T @ P @ B @ gain + Q)
        assert np.linalg.norm(residual, "fro") < 1e-8 * (1 + np.linalg.norm(P, "fro"))
    _report(5, "(scalar closed form to 1e-10; 100 random systems certified)")


@pytest.fixture(scope="module")
def table2_sweep():
    """Criterion 6 protocol: full-state controllers per (fixation, repeat),
    each evaluated for max angle under the three sensor tiers."""
    rows = []
    for ell0 in FIXATIONS:
        for repeat in range(7):
            seed = substream_seed(600, f"accept6-{ell0}", repeat)
            params, syn = _fullstate_controller(ell0, seed=seed)
            row = {"fixation": ell0, "repeat": repeat, "seed": seed, "syn": syn,
                   "params": params}
            if syn.feasible:
                row["bound"] = bound_for_model(linearize(params))
                for tier in ("noise_free", "depth_like", "rgb_like"):
                    scored = score(syn.controller, params, make_sensor(tier, params), seed)
                    row["stable_true"] = scored["stable_true"]
                    row["hinf_T"] = scored["hinf_T"]
                    row[f"angle_{tier}"] = scored["max_angle_deg"]
            rows.append(row)
    return rows


def _median_angle(rows, ell0, tier):
    return statistics.median(r[f"angle_{tier}"] for r in rows if r["fixation"] == ell0)


@full_protocol
def test_criterion_6_synthesis_pipeline(table2_sweep):
    t0 = time.perf_counter()
    rows = table2_sweep
    assert all(r["syn"].feasible for r in rows)
    assert all(r["stable_true"] for r in rows)
    base = _median_angle(rows, 1.0, "noise_free")
    assert base >= 4.0
    per_fix = [_median_angle(rows, f, "noise_free") for f in FIXATIONS]
    assert all(b <= a + 1e-9 for a, b in zip(per_fix, per_fix[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _report(6, f"(base angle {base:.2f} deg; fixation medians {[round(v, 2) for v in per_fix]})")


@full_protocol
def test_criterion_6_tier_ordering(table2_sweep):
    """Remaining clause of criterion 6, kept faithful to its stated form.

    The depth tier perturbs the measurement by 0.03% of the observation
    range, a physically negligible amount whose effect on the bisected angle
    is below the probe-to-probe spread, so this strict ordering can invert
    by luck of the evaluation seeds.  Known to fail by a near-tie margin.
    """
    rows = table2_sweep
    for ell0 in FIXATIONS:
        tiers = [
            _median_angle(rows, ell0, t)
            for t in ("noise_free", "depth_like", "rgb_like")
        ]
        assert all(b <= a + 1e-9 for a, b in zip(tiers, tiers[1:])), (
            f"tier ordering violated at fixation {ell0}: {tiers}"
        )
    _report("6 (tier ordering)")


@full_protocol
def test_criterion_3_bound_consistency_full(table2_sweep):
    violations = 0
    stabilizing = 0
    for r in table2_sweep:
        if not r["syn"].feasible or not r.get("stable_true"):
            continue
        stabilizing += 1
        if r["hinf_T"] < r["bound"] - 1e-3:
            violations += 1
    assert stabilizing > 0
    assert violations == 0
    _report("3 (full)", f"({stabilizing} stabilizing loops, zero violations)")


@full_protocol
def test_criterion_7_sample_complexity_saturation(tmp_path):
    spec = ExperimentSpec(
        method="hinf_arxhk",
        fixations=FIXATIONS,
        sensor_tiers=("noise_free",),
        budgets=(1000, 20000),
        n_repeats=7,
        n_eval_episodes=20,
        seed=700,
    )
    rows = run_sweep(spec, tmp_path / "saturation")
    for ell0 in FIXATIONS:
        def median_angle(budget):
            vals = [
                r["max_angle_deg"] for r in rows
                if r["fixation"] == ell0 and r["budget"] == budget
                and not math.isnan(r["max_angle_deg"])
            ]
            return statistics.median(vals) if vals else math.nan
        lo, hi = median_angle(1000), median_angle(20000)
        assert not math.isnan(lo) and not math.isnan(hi)
        assert abs(lo - hi) <= 0.10 * hi + 1e-9, (
            f"no saturation at fixation {ell0}: 1000 pts -> {lo:.2f}, 20000 pts -> {hi:.2f}"
        )
    _report(7, "(1000-point medians within 10% of 20000-point medians)")


def test_criterion_8_sac_gradient_checks():
    from test_sac import fd_gradient, flatten, margin_batch

    from occball.sac import GaussianPolicy, Mlp, _critic_loss_grads, _policy_loss_grads

    t0 = time.perf_counter()
    rng = substream(800, "acceptance-grad")
    worst = 0.0
    for _ in range(20):
        q1 = Mlp((4, 4, 4, 1), rng, dtype=np.float64)
        q2 = Mlp((4, 4, 4, 1), rng, dtype=np.float64)
        policy = GaussianPolicy(3, (4, 4), 2.0, rng, dtype=np.float64)
        s, a, y, xi = margin_batch(rng, q1, q2, policy)
        _, grads = _critic_loss_grads(q1, s, a, y)
        fd = fd_gradient(lambda: _critic_loss_grads(q1, s, a, y)[0], q1.parameters())
        worst = max(worst, np.max(np.abs(flatten(grads) - fd) / np.maximum(np.abs(fd), 1e-6)))
        _, grads_p, _ = _policy_loss_grads(policy, q1, q2, s, xi, 0.2)
        fd_p = fd_gradient(
            lambda: _policy_loss_grads(policy, q1, q2, s, xi, 0.2)[0],
            policy.net.parameters(),
        )
        worst = max(worst, np.max(np.abs(flatten(grads_p) - fd_p) / np.maximum(np.abs(fd_p), 1e-6)))
    assert worst < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, f"(20 batches, worst relative error {worst:.2e}, {elapsed:.1f}s)")


@full_protocol
def test_criterion_9_rl_desk_scale():
    """Full RL protocol: 4 fixations x 5 seeds x 2000-episode budget.

    Takes on the order of a working day of single-core compute; the pass
    rule is stochastic (4 of 5 seeds) exactly as specified.
    """
    from occball.sac import SacConfig, train

    finals = {}
    for ell0 in (1.0, 0.9, 0.8, 0.7):
        params = PhysicalParams(ell0=ell0)
        sensor = make_sensor("noise_free", params)
        finals[ell0] = []
        for run in range(5):
            seed = substream_seed(900, f"accept9-{ell0}", run)
            # exhaust the full episode budget: the plateau stop exists to save
            # compute on converged runs, not to truncate slow learners
            result = train(params, sensor, SacConfig(seed=seed), max_episodes=2000,
                           plateau_window=2000)
            finals[ell0].append(result.curve[-1][1])

    top = sum(1 for v in finals[1.0] if v >= 450.0)
    assert top >= 4, f"fixation 1.0 finals {finals[1.0]}"
    ordered = sum(
        1 for a, b, c in zip(finals[1.0], finals[0.9], finals[0.8])
        if a + 1e-9 >= b >= c - 1e-9
    )
    assert ordered >= 4, f"ordering finals {finals}"
    low = sum(1 for v in finals[0.7] if v < 200.0)
    assert low >= 4, f"fixation 0.7 finals {finals[0.7]}"
    _report(9, f"(finals {({k: [round(x) for x in v] for k, v in finals.items()})})")


def test_criterion_10_determinism(tmp_path):
    params = PhysicalParams(ell0=0.9)
    sensor = make_sensor("depth_like", params)

    # simulate
    from occball.cartpole import save_trajectory

    outs = []
    for name in ("a", "b"):
        cfg = EpisodeConfig(seed=77)
        _, traj, _ = run_episode(params, cfg, ZeroController(), sensor)
        path = tmp_path / f"traj_{name}.csv"
        save_trajectory(path, traj)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]

    # sysid
    d1 = collect_budget(params, sensor, 500, seed=78)
    d2 = collect_budget(params, sensor, 500, seed=78)
    assert dataset_hash(d1) == dataset_hash(d2)

    # synth -> identical controller bytes
    from occball.controllers import save_controller

    ctrl_bytes = []
    for name in ("a", "b"):
        model = fit_full_state(collect_budget(params, sensor, 2000, seed=79),
                               params.ell0, params.tau)
        syn = hinf_synthesize(build_generalized_plant(model, 5e-3))
        path = tmp_path / f"ctrl_{name}.json"
        save_controller(path, syn.controller, metadata={"gamma": syn.gamma_achieved})
        ctrl_bytes.append(path.read_bytes())
    assert ctrl_bytes[0] == ctrl_bytes[1]

    # train-rl (reduced budget, real update path)
    from occball.sac import SacConfig, train

    cfg = SacConfig(history_len=8, hidden_widths=(16, 16), batch_size=16,
                    warmup_steps=30, seed=80)
    env = EpisodeConfig(max_steps=50)
    curves = [
        tuple(train(params, sensor, cfg, max_episodes=3, env_config=env).curve)
        for _ in range(2)
    ]
    assert curves[0] == curves[1]

    # eval
    evs = [
        evaluate(ZeroController(), params, sensor, 5, seed=81).episodes
        for _ in range(2)
    ]
    assert evs[0] == evs[1]
    _report(10, "(simulate, sysid, synth, train-rl, eval all byte-identical)")
