"""Self-tests of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py

They check that each run emits exactly the metrics BENCHMARK.json names,
that planted faults raise the failure count, and that a directory without
the occball sources makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
from occball import controllers, harness, sac  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_emitted_metrics():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == bench.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layers == bench.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])


# the second seed runs traced, so every workload passes its checks at two seeds
@pytest.mark.parametrize("seed,trace", [(1, 0), (2, 1)])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, seed, trace):
    proc = _cli(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.overhead"]["value"] > 0
        assert "per-step wrappers" in proc.stdout


def test_traced_layers_land_on_their_workload():
    record = bench.run("rollout", 3, 0.0, 1, size="tiny")
    m = record["per_layer"]
    assert m["cartpole.run_episode.n"] > 0 and m["controllers.act.n"] > 0
    assert m["sysid.collect_budget.n"] == 2
    assert 0 < m["sysid.kept_frac"] < 1
    assert m["harness.angle_probes"] > 0
    assert m["setup.linalg.solve_dare.n"] == 2
    assert m["synthesis.hinf_synthesize.n"] == 0 and m["sac.sac_update.n"] == 0
    assert record["digest_consistent"]


def test_planted_bound_violation_counts_as_failure(monkeypatch):
    # a controller whose measured ||T||_inf sits below the pole/zero bound
    monkeypatch.setattr(harness, "hinf_norm", lambda model: 0.5)
    record = bench.run("hinf_sweep", 1, 0.0, 0, size="tiny")
    assert record["failed"] == record["attempted"] == 1


def test_planted_nonfinite_sac_loss_counts_as_failure(monkeypatch):
    real = sac.sac_update

    def poisoned(*args, **kwargs):
        losses = real(*args, **kwargs)
        return {**losses, "loss_pi": float("nan")}

    monkeypatch.setattr(sac, "sac_update", poisoned)
    record = bench.run("sac_train", 1, 0.0, 0, size="tiny")
    assert record["failed"] == record["attempted"] > 0


def test_planted_nonfinite_action_counts_as_failure(monkeypatch):
    monkeypatch.setattr(controllers.LtiController, "act", lambda self, y: float("nan"))
    record = bench.run("rollout", 1, 0.0, 0, size="tiny")
    episodes = bench.SIZES["tiny"]["rollout"]["eval_episodes"]
    assert record["failed"] == episodes


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(["--workload", "rollout", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_patched_functions_and_splits_self_time():
    original = harness.evaluate
    tracer = Tracer()
    with tracer.installed([("span", "occball.harness:evaluate", "harness.evaluate")]):
        assert harness.evaluate is not original
    assert harness.evaluate is original

    outer = tracer.span("outer", lambda f: f())
    inner = tracer.span("inner", lambda: sum(range(10_000)))
    step = tracer.leaf("step", lambda: sum(range(1_000)))
    outer(lambda: (inner(), step(), step()))
    covered = tracer.child_seconds()
    names = [rec[0] for rec in tracer.spans]
    assert names == ["outer", "inner"]
    outer_rec, inner_rec = tracer.spans
    assert inner_rec[3] == 0
    assert tracer.leaves[("step", 0)][0] == 2
    assert 0 < covered[0] <= outer_rec[2] - outer_rec[1]


def test_host_speed_scales_by_the_probes_in_the_window_and_restores_the_handler():
    speed = HostSpeed()
    assert speed.scaled(1.0, 3.0) == 2.0
    previous = signal.getsignal(signal.SIGALRM)
    with speed.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.samples) == len(speed.times) >= 3
    speed.times = [1.0, 2.0, 3.0, 4.0]
    speed.samples = [2 * REFERENCE_PROBE_S] * 2 + [REFERENCE_PROBE_S] * 2
    assert speed.scaled(0.5, 2.5) == pytest.approx(1.0)
    assert speed.scaled(2.5, 4.5) == pytest.approx(2.0)
    # no probe inside the window: the mean over all probes
    assert speed.scaled(4.6, 4.9) == pytest.approx(0.3 / 1.5)
    # a preempted probe counts at the cap
    speed.samples[0] = 1000 * REFERENCE_PROBE_S
    assert speed.scaled(0.5, 1.5) == pytest.approx(1.0 / 4)
