"""occball benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload hinf_sweep --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for why each was chosen):

* hinf_sweep: ``harness.run_sweep`` with method ``hinf_fullstate`` over
  fixations 1.0/0.9/0.8/0.7, the noise-free tier, budget 20000, one repeat
  and 100 evaluation episodes.
* rollout: per fixation and noisy tier, ``harness.evaluate`` and
  ``harness.max_stabilized_angle`` of an LQG compensator built at set-up,
  then ``sysid.collect_budget`` at budgets 100/1000/20000 with
  ``fit_full_state``, ``fit_arx(p=10)`` and ``ho_kalman(n=4)`` on each set.
* sac_train: ``sac.train`` for a fixed number of episodes at the default
  ``SacConfig`` with the warm-up cut to one batch.

A run repeats whole workload passes on the seeded inputs until ``--seconds``
have passed (at least one pass).  Every pass is checked, and its outputs are
digested; passes of one seed must give identical digests.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` one untraced pass is followed by traced passes, and the
last line carries the per-layer metrics (per pass) plus the tracing
overhead.  A full record with provenance, and for traced runs the spans, is
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed here, before numpy loads, not left to the
# library default; the value the library reports is recorded in provenance.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "occball" / "__init__.py").is_file():
    sys.stderr.write(f"bench: no occball sources under {SRC}; run from a full checkout\n")
    raise SystemExit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from occball import cartpole, controllers, harness, linalg, sac, sysid  # noqa: E402
from occball.rngtools import substream_seed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import NAME, PARENT, PAYLOAD, START, END, Tracer, leaf_call_cost  # noqa: E402

WORKLOADS = ("hinf_sweep", "rollout", "sac_train")

SIZES = {
    "full": {
        "hinf_sweep": {"fixations": (1.0, 0.9, 0.8, 0.7), "budget": 20000, "eval_episodes": 100},
        "rollout": {
            "fixations": (1.0, 0.9, 0.8, 0.7),
            "tiers": ("depth_like", "rgb_like"),
            "eval_episodes": 100,
            "budgets": (100, 1000, 20000),
        },
        "sac_train": {"episodes": 30, "config": {}},
    },
    # a few seconds per workload, for the self-tests
    "tiny": {
        "hinf_sweep": {"fixations": (0.9,), "budget": 1000, "eval_episodes": 2},
        "rollout": {
            "fixations": (0.9,),
            "tiers": ("depth_like",),
            "eval_episodes": 2,
            "budgets": (100, 1000),
        },
        "sac_train": {
            "episodes": 4,
            "config": {"hidden_widths": (16, 16), "history_len": 20, "batch_size": 16},
        },
    },
}

# fresh interpreters timed per run for setup_s (one at the tiny size)
SETUP_REPEATS = 5
# a run starts no pass it cannot finish within this multiple of --seconds
OVERRUN = 1.4
ARX_ORDER = 10
MODEL_ORDER = 4
# LQG weights: state/input cost, process/measurement noise covariances
LQG_Q = np.diag([100.0, 10.0, 100.0, 10.0])
LQG_R = np.array([[0.01]])
LQG_W = 1e-4 * np.eye(4)
LQG_V = np.array([[1e-6]])
# hinf_sweep check: measured ||T||_inf may undershoot the bound by this much
BOUND_SLACK = 1e-3

# name -> (unit, better); the per-pass throughput counts cells on hinf_sweep,
# returned simulator steps on rollout and SAC updates on sac_train
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "items_per_s": ("1/s", "higher"),
}
THROUGHPUT_ALIAS = {
    "hinf_sweep": "cells_per_s",
    "rollout": "sim_steps_per_s",
    "sac_train": "updates_per_s",
}

# wrapped in every run: they feed the output checks, the rollout throughput
# numerator and the hinf_sweep cell boundaries, and cost one call per
# episode, update or data set
CHECK_TARGETS = [
    ("span", "occball.sysid:collect_budget", "sysid.collect_budget", sysid.total_samples),
    ("span", "occball.cartpole:run_episode", "cartpole.run_episode",
     lambda out: (out[0].steps, len(out[1]), out[0].cause)),
    ("span", "occball.sac:sac_update", "sac.sac_update",
     lambda losses: [float(losses[k]) for k in ("loss_q1", "loss_q2", "loss_pi")]),
]
TRACE_TARGETS = CHECK_TARGETS + [
    ("span", "occball.harness:run_sweep", "harness.run_sweep"),
    ("span", "occball.harness:evaluate", "harness.evaluate"),
    ("span", "occball.harness:max_stabilized_angle", "harness.max_stabilized_angle"),
    ("span", "occball.synthesis:hinf_synthesize", "synthesis.hinf_synthesize",
     lambda syn: bool(syn.feasible)),
    ("span", "occball.linalg:solve_dare", "linalg.solve_dare"),
    ("span", "occball.limits:hinf_norm", "limits.hinf_norm"),
    ("span", "occball.limits:closed_loop", "limits.closed_loop"),
    ("span", "occball.sysid:fit_full_state", "sysid.fit_full_state"),
    ("span", "occball.sysid:fit_arx", "sysid.fit_arx"),
    ("span", "occball.sysid:ho_kalman", "sysid.ho_kalman"),
    ("span", "occball.sac:train", "sac.train"),
    ("span", "occball.sac:ReplayBuffer.sample", "sac.ReplayBuffer.sample"),
    ("span", "occball.sac:ReplayBuffer.add_episode", "sac.ReplayBuffer.add_episode"),
    ("leaf", "occball.cartpole:step", "cartpole.step"),
    ("leaf", "occball.controllers:LtiController.act", "controllers.act"),
    ("leaf", "occball.sac:SacAgent.act", "sac.act"),
]
LEAF_NAMES = tuple(t[2] for t in TRACE_TARGETS if t[0] == "leaf")

# per-layer metrics: busy seconds (.s) are inclusive of nested calls, self
# seconds (.self_s) exclude them; every count and time is per traced pass
_COUNTED = (
    "synthesis.hinf_synthesize", "linalg.solve_dare", "limits.hinf_norm",
    "cartpole.run_episode", "cartpole.step", "controllers.act", "harness.evaluate",
    "harness.max_stabilized_angle", "sysid.collect_budget", "sac.sac_update",
    "sac.ReplayBuffer.sample", "sac.act",
)
PER_LAYER = {}
for _name in _COUNTED:
    PER_LAYER[_name + ".n"] = ("count", "lower")
    PER_LAYER[_name + ".s"] = ("s", "lower")
PER_LAYER.update({
    "synthesis.feasible_frac": ("ratio", "higher"),
    "limits.closed_loop.s": ("s", "lower"),
    "cartpole.step_us": ("us", "lower"),
    "harness.angle_probes": ("count", "lower"),
    "sysid.excite_steps": ("count", "lower"),
    "sysid.kept_frac": ("ratio", "higher"),
    "sysid.fit_full_state.s": ("s", "lower"),
    "sysid.fit_arx.s": ("s", "lower"),
    "sysid.ho_kalman.s": ("s", "lower"),
    "sac.ReplayBuffer.add_episode.s": ("s", "lower"),
    "sac.train.self_s": ("s", "lower"),
    "harness.run_sweep.self_s": ("s", "lower"),
    "setup.linalg.solve_dare.n": ("count", "lower"),
    "setup.linalg.solve_dare.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.leaf_calls": ("count", "lower"),
    "trace.leaf_cost_s": ("s", "lower"),
})


# -- workloads ---------------------------------------------------------------
#
# setup_<w>(seed, size) builds the inputs; pass_<w>(ctx, tracer) runs one
# timed pass and returns (sub-unit edges as perf_counter() times, outputs); a
# sub-unit is a sweep cell, a rollout cell or a SAC episode, the same in every
# pass of a seed.  check_<w>(ctx, outputs, spans) returns (items, attempted, failed,
# digest material).


def setup_hinf_sweep(seed, size):
    spec = harness.ExperimentSpec(
        method="hinf_fullstate",
        fixations=size["fixations"],
        sensor_tiers=("noise_free",),
        budgets=(size["budget"],),
        n_eval_episodes=size["eval_episodes"],
        n_repeats=1,
        seed=seed,
    )
    return {"spec": spec, "out": OUT_DIR / f"sweep-{os.getpid()}"}


def pass_hinf_sweep(ctx, tracer):
    first = len(tracer.spans)
    t0 = time.perf_counter()
    rows = harness.run_sweep(ctx["spec"], ctx["out"], jobs=1)
    t1 = time.perf_counter()
    # one sub-unit per cell; each cell starts with its data collection
    starts = [rec[START] for rec in tracer.spans[first:] if rec[NAME] == "sysid.collect_budget"]
    return [t0] + starts[1:] + [t1], rows


def check_hinf_sweep(ctx, rows, spans):
    failed = 0
    for row in rows:
        ok = (
            row["feasible"]
            and row["stable_true"]
            and row["hinf_T"] >= row["bound"] - BOUND_SLACK
        )
        if not ok:
            failed += 1
            _warn(f"cell fixation={row['fixation']} fails its check: feasible={row['feasible']} "
                  f"stable_true={row['stable_true']} hinf_T={row['hinf_T']} "
                  f"bound={row['bound']} error={row['error']!r}")
    method = ctx["spec"].method
    material = {
        name: hashlib.sha256((ctx["out"] / f"{method}_{name}.csv").read_bytes()).hexdigest()
        for name in ("cells", "medians")
    }
    material["controllers"] = [row["controller_hash"] for row in rows]
    material["datasets"] = [row["dataset_hash"] for row in rows]
    return len(rows), len(rows), failed, material


def lqg_compensator(params):
    """Observer-based LQG compensator for the true linearization.

    The returned model maps y to the force directly (u = C x, D = 0), the
    convention harness uses for synthesized controllers.
    """
    plant = cartpole.linearize(params)
    A, B, C = plant.A, plant.B, plant.C
    X = linalg.solve_dare(A, B, LQG_Q, LQG_R)
    K = np.linalg.solve(LQG_R + B.T @ X @ B, B.T @ X @ A)
    Y = linalg.solve_dare(A.T, C.T, LQG_W, LQG_V)
    L = A @ Y @ C.T @ np.linalg.inv(LQG_V + C @ Y @ C.T)
    return linalg.StateSpaceModel(A - B @ K - L @ C, L, -K, np.zeros((1, 1)), dt=params.tau)


def setup_rollout(seed, size):
    cells = []
    for fix in size["fixations"]:
        params = cartpole.PhysicalParams(ell0=fix)
        model = lqg_compensator(params)
        for tier in size["tiers"]:
            cells.append({
                "params": params,
                "sensor": cartpole.make_sensor(tier, params),
                "model": model,
                "seed": substream_seed(seed, f"bench-rollout-{fix}-{tier}"),
                "budgets": {
                    b: substream_seed(seed, f"bench-collect-{fix}-{tier}", b)
                    for b in size["budgets"]
                },
            })
    return {"cells": cells, "eval_episodes": size["eval_episodes"]}


def pass_rollout(ctx, tracer):
    outputs, edges = [], [time.perf_counter()]
    for cell in ctx["cells"]:
        params, sensor = cell["params"], cell["sensor"]
        ev = harness.evaluate(controllers.LtiController(cell["model"]), params, sensor,
                              ctx["eval_episodes"], seed=cell["seed"])
        angle = harness.max_stabilized_angle(controllers.LtiController(cell["model"]),
                                             params, sensor, probe_seed=cell["seed"])
        fits = []
        for budget, data_seed in cell["budgets"].items():
            data = sysid.collect_budget(params, sensor, budget, seed=data_seed)
            full = sysid.fit_full_state(data, params.ell0, params.tau)
            arx = sysid.fit_arx(data, ARX_ORDER)
            hk = sysid.ho_kalman(arx, MODEL_ORDER)
            fits.append((budget, data, full, arx, hk))
        edges.append(time.perf_counter())
        outputs.append((ev, angle, fits))
    return edges, outputs


def check_rollout(ctx, outputs, spans):
    attempted = failed = 0
    material = {"controllers": [], "cells": []}
    for cell, (ev, angle, fits) in zip(ctx["cells"], outputs):
        material["controllers"].append(model_hash(cell["model"]))
        causes = [ep.cause for ep in ev.episodes]
        attempted += len(causes) + 1
        bad = causes.count("nonfinite_action")
        failed += bad
        if bad:
            _warn(f"{bad} episodes ended with nonfinite_action (fixation {cell['params'].ell0}, "
                  f"{cell['sensor'].tier})")
        if not math.isfinite(angle.angle_deg):
            failed += 1
        entry = {"rewards": [ep.reward for ep in ev.episodes], "angle": angle.angle_deg,
                 "datasets": [], "fits": []}
        for budget, data, full, arx, hk in fits:
            checks = (
                sysid.total_samples(data) == budget,
                np.isfinite(full.A).all() and np.isfinite(full.B).all(),
                np.isfinite(arx.G).all(),
                all(np.isfinite(m).all() for m in (hk.A_hat, hk.B_hat, hk.C_hat)),
            )
            attempted += len(checks)
            failed += sum(not c for c in checks)
            entry["datasets"].append(sysid.dataset_hash(data))
            entry["fits"].append(_array_hash(full.A, full.B, arx.G, hk.A_hat, hk.B_hat, hk.C_hat))
        material["cells"].append(entry)
    returned = sum(rec[PAYLOAD][0] for rec in spans
                   if rec[NAME] == "cartpole.run_episode" and isinstance(rec[PAYLOAD], tuple))
    kept = sum(sysid.total_samples(data) for _, _, fits in outputs for _, data, *_ in fits)
    return returned + kept, attempted, failed, material


def setup_sac_train(seed, size):
    params = cartpole.PhysicalParams(ell0=1.0)
    config = sac.SacConfig(seed=seed, **size["config"])
    config = dataclasses.replace(config, warmup_steps=config.batch_size)
    return {
        "params": params,
        "sensor": cartpole.make_sensor("noise_free", params),
        "config": config,
        "episodes": size["episodes"],
    }


def pass_sac_train(ctx, tracer):
    # one sub-unit per episode, closed by the progress callback
    edges = [time.perf_counter()]
    result = sac.train(ctx["params"], ctx["sensor"], ctx["config"], max_episodes=ctx["episodes"],
                       progress=lambda *_: edges.append(time.perf_counter()))
    return edges, result


def check_sac_train(ctx, result, spans):
    updates = [rec for rec in spans if rec[NAME] == "sac.sac_update"]
    failed = 0
    for rec in updates:
        losses = rec[PAYLOAD]
        if not (isinstance(losses, list) and all(math.isfinite(v) for v in losses)):
            failed += 1
    if failed:
        _warn(f"{failed} of {len(updates)} SAC updates had non-finite losses")
    material = {
        "policy": _array_hash(*result.agent.policy.net.parameters()),
        "curve": hashlib.sha256(repr(result.curve).encode()).hexdigest(),
        "stop_reason": result.stop_reason,
    }
    return len(updates), max(len(updates), 1), failed, material


WORKLOAD_FUNCS = {
    name: (globals()[f"setup_{name}"], globals()[f"pass_{name}"], globals()[f"check_{name}"])
    for name in WORKLOADS
}


# -- digests and provenance --------------------------------------------------


def _array_hash(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def model_hash(model):
    return _array_hash(model.A, model.B, model.C, model.D)


def digest(material):
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def _git_sha(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256(pkg):
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_runtime_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def provenance(workload, seed, size):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "jobs": 1,
        "git_sha": _git_sha(ROOT),
        "source_sha256": _source_sha256(SRC / "occball"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "machine": platform.machine(),
    }


# -- measurement -------------------------------------------------------------


def _warn(msg):
    print(f"bench: {msg}", file=sys.stderr)


def setup_seconds(workload, seed, size):
    """Median seconds from process start to the first timed call.

    Each sample starts a fresh interpreter on this script in set-up-only
    mode, so imports and input construction are paid every time.  Samples
    are scaled to the reference host speed like the passes.
    """
    speed = HostSpeed()
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--size", size, "--setup-only"]
    with speed.sampling():
        for _ in range(SETUP_REPEATS if size == "full" else 1):
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
                ready = proc.stdout.readline().strip() == "ready"
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            if not ready or code != 0:
                raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
            samples.append(speed.scaled(t0, t0 + elapsed))
    return statistics.median(samples), samples


def run(workload, seed, seconds, trace, size="full"):
    """Run one benchmark invocation; returns the full record."""
    setup, run_pass, check = WORKLOAD_FUNCS[workload]
    targets = TRACE_TARGETS if trace else CHECK_TARGETS
    record = {"provenance": provenance(workload, seed, size), "trace": bool(trace)}
    setup_s, record["setup_samples_s"] = setup_seconds(workload, seed, size)
    leaf_cost = leaf_call_cost() if trace else 0.0
    tracer = Tracer()
    speed = HostSpeed()
    # per pass: sub-unit seconds scaled to the reference host speed
    passes, traced_passes, raw_seconds, digests = [], [], [], []
    items = attempted = failed = 0
    error = None
    ctx = None
    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tracer.installed(targets), tracer.region("setup"):
            ctx = setup(seed, SIZES[size][workload])
        start = time.perf_counter()
        with speed.sampling():
            while True:
                # a traced run starts with one pass under the check wrappers
                # only, the untraced reference for the overhead ratio
                traced_pass = trace and bool(passes)
                first_span = len(tracer.spans)
                with tracer.installed(targets if traced_pass else CHECK_TARGETS):
                    with tracer.region("pass" if traced_pass else "untraced-pass"):
                        edges, out = run_pass(ctx, tracer)
                n_items, n_att, n_fail, material = check(ctx, out, tracer.spans[first_span:])
                # free this pass's outputs (and, untraced, its spans) so that
                # peak memory does not depend on the number of passes
                del out
                if not trace:
                    del tracer.spans[first_span:]
                (traced_passes if traced_pass else passes).append(
                    [speed.scaled(a, b) for a, b in zip(edges, edges[1:])])
                raw_seconds.append(edges[-1] - edges[0])
                items = n_items
                attempted += n_att
                failed += n_fail
                digests.append(digest(material))
                elapsed = time.perf_counter() - start
                if n_fail:
                    break
                if trace and not traced_passes:
                    continue
                if elapsed >= seconds or elapsed + raw_seconds[-1] > OVERRUN * seconds:
                    break
    except Exception as exc:  # a crash counts as one failed operation
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        attempted += 1
        failed += 1
    finally:
        if ctx is not None and "out" in ctx:
            shutil.rmtree(ctx["out"], ignore_errors=True)

    record.update({
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "pass_subunit_s": passes,
        "traced_pass_subunit_s": traced_passes,
        "pass_raw_s": raw_seconds,
        "host_probe_mean_us": 1e6 * statistics.fmean(speed.samples) if speed.samples else None,
        "digests": digests,
        "digest_consistent": len(set(digests)) <= 1,
    })
    if passes and not trace:
        wall = pass_seconds(passes)
        record["end_to_end"] = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "items_per_s": items / wall,
        }
    if passes and traced_passes:
        overhead = pass_seconds(traced_passes) / pass_seconds(passes)
        record["per_layer"] = layer_metrics(tracer, len(traced_passes), leaf_cost, overhead)
        record["leaf_breakdown"] = leaf_breakdown(tracer, len(traced_passes), leaf_cost)
        record["kept_by_budget"] = kept_by_budget(tracer)
        record["trace_spans"] = tracer.to_json()
    return record


def pass_seconds(passes):
    """Seconds of one pass: the sum over sub-units of their low median across passes.

    Passes of one seed repeat identical work, so a sub-unit slowed by another
    tenant of the host is outvoted by its other passes.  The low median (the
    lower middle value of an even count) keeps that true for two passes.
    """
    return sum(statistics.median_low(column) for column in zip(*passes))


def layer_metrics(tracer, n_passes, leaf_cost, overhead):
    """Per-pass layer counts, busy and self seconds, and derived ratios."""
    spans = tracer.spans
    in_pass = tracer.root_of("pass")
    in_setup = tracer.root_of("setup")
    covered = tracer.child_seconds()
    n, busy, self_s = {}, {}, {}
    probes = returned = feasible = kept = 0
    setup_dare = [0, 0.0]
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        if in_setup[i] >= 0 and name == "linalg.solve_dare":
            setup_dare[0] += 1
            setup_dare[1] += dur
        if in_pass[i] < 0 or name == "pass":
            continue
        n[name] = n.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - covered[i]
        payload = rec[PAYLOAD]
        if name == "cartpole.run_episode" and isinstance(payload, tuple):
            returned += payload[1]
            probes += spans[rec[PARENT]][NAME] == "harness.max_stabilized_angle"
        elif name == "synthesis.hinf_synthesize":
            feasible += payload is True
        elif name == "sysid.collect_budget" and isinstance(payload, int):
            kept += payload
    excite = leaf_calls = 0
    for (name, parent), (calls, seconds) in tracer.leaves.items():
        if parent < 0 or in_pass[parent] < 0:
            continue
        n[name] = n.get(name, 0) + calls
        busy[name] = busy.get(name, 0.0) + seconds
        leaf_calls += calls
        if name == "cartpole.step" and spans[parent][NAME] == "sysid.collect_budget":
            excite += calls

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "n":
            out[metric] = n.get(layer, 0) / n_passes
        elif stat == "s":
            out[metric] = busy.get(layer, 0.0) / n_passes
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0) / n_passes
    out.update({
        "synthesis.feasible_frac": ratio(feasible, n.get("synthesis.hinf_synthesize", 0)),
        "cartpole.step_us": 1e6 * ratio(busy.get("cartpole.run_episode", 0.0), returned),
        "harness.angle_probes": probes / n_passes,
        "sysid.excite_steps": excite / n_passes,
        "sysid.kept_frac": ratio(kept, excite),
        "setup.linalg.solve_dare.n": setup_dare[0],
        "setup.linalg.solve_dare.s": setup_dare[1],
        "trace.overhead": overhead,
        "trace.leaf_calls": leaf_calls / n_passes,
        "trace.leaf_cost_s": leaf_calls * leaf_cost / n_passes,
    })
    return out


def leaf_breakdown(tracer, n_passes, leaf_cost):
    """Per-pass calls and estimated wrapper seconds of each per-step wrapper."""
    calls = {name: 0 for name in LEAF_NAMES}
    for (name, _), (count, _) in tracer.leaves.items():
        calls[name] += count
    return {
        name: {"calls": c / n_passes, "wrapper_s": c * leaf_cost / n_passes}
        for name, c in calls.items()
    }


def kept_by_budget(tracer):
    """Kept / simulated excitation steps per requested budget (traced passes)."""
    out = {}
    in_pass = tracer.root_of("pass")
    for i, rec in enumerate(tracer.spans):
        if (in_pass[i] < 0 or rec[NAME] != "sysid.collect_budget"
                or not isinstance(rec[PAYLOAD], int)):
            continue
        simulated = sum(calls for (name, parent), (calls, _) in tracer.leaves.items()
                        if parent == i and name == "cartpole.step")
        agg = out.setdefault(rec[PAYLOAD], [0, 0])
        agg[0] += rec[PAYLOAD]
        agg[1] += simulated
    return {str(b): kept / sim for b, (kept, sim) in sorted(out.items()) if sim}


def reference_digest(workload, seed, size):
    """Digest recorded for this seed in bench/baseline.json (full size only)."""
    path = BENCH_DIR / "baseline.json"
    if size != "full" or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get("digests", {}).get(str(seed))


def report(record, workload, trace):
    """Human-readable lines, then the one-line JSON result (last line)."""
    prov = record["provenance"]
    print(f"workload {workload} seed {prov['seed']} size {prov['size']} trace {int(trace)}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if record["digests"]:
        ref = reference_digest(workload, prov["seed"], prov["size"])
        status = "no reference" if ref is None else ("match" if ref == record["digests"][0] else "MISMATCH")
        print(f"digest {record['digests'][0]} (reference: {status}; "
              f"passes consistent: {record['digest_consistent']})")
        if not record["digest_consistent"] or status == "MISMATCH":
            _warn("output digest differs (reported, not scored)")
    print("pass seconds, scaled: " + " ".join(
        f"{sum(p):.3f}" for p in record["pass_subunit_s"] + record["traced_pass_subunit_s"])
        + "; raw: " + " ".join(f"{t:.3f}" for t in record["pass_raw_s"])
        + f"; host probe mean {record['host_probe_mean_us'] or 0:.1f} us")
    metrics = {}
    if trace:
        for name, value in record.get("per_layer", {}).items():
            metrics[name] = {"value": value, "unit": PER_LAYER[name][0]}
        if "leaf_breakdown" in record:
            lb = record["leaf_breakdown"]
            extra = (pass_seconds(record["traced_pass_subunit_s"])
                     - pass_seconds(record["pass_subunit_s"]))
            parts = ", ".join(f"{k} {v['calls']:.0f} calls ~{v['wrapper_s']:.3f}s"
                              for k, v in lb.items() if v["calls"])
            print(f"trace overhead x{record['per_layer']['trace.overhead']:.3f} "
                  f"(+{extra:.3f}s per pass); per-step wrappers, the expensive ones: "
                  f"{parts or 'none'}")
        if "kept_by_budget" in record:
            print(f"sysid kept/simulated by budget {record['kept_by_budget']}")
    else:
        for name, value in record.get("end_to_end", {}).items():
            metrics[name] = {"value": value, "unit": END_TO_END[name][0]}
        if "items_per_s" in metrics:
            print(f"{THROUGHPUT_ALIAS[workload]} {metrics['items_per_s']['value']:.6g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and set(metrics) == set(PER_LAYER if trace else END_TO_END),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        WORKLOAD_FUNCS[args.workload][0](args.seed, SIZES[args.size][args.workload])
        print("ready", flush=True)
        return 0

    record = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(record, args.workload, args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
