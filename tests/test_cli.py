import hashlib
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from occball.cli import main
from occball.rngtools import substream
from occball.sac import GaussianPolicy, save_policy


@pytest.fixture
def runner():
    return CliRunner()


class TestLimits:
    def test_table(self, runner):
        result = runner.invoke(main, ["limits"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "ell0,pole,zero,bound"
        assert len(lines) == 5
        row_07 = lines[-1].split(",")
        assert float(row_07[0]) == 0.7
        assert abs(float(row_07[3]) - 3.854) < 5e-3

    def test_csv_file_output(self, runner, tmp_path):
        out = tmp_path / "limits.csv"
        result = runner.invoke(main, ["limits", "-f", "0.9", "--out", str(out)])
        assert result.exit_code == 0
        assert abs(float(out.read_text().splitlines()[1].split(",")[3]) - 2.091) < 2e-3


class TestSimulate:
    def test_writes_trajectory(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--fixation", "0.9", "--sensor", "depth",
            "--seed", "3", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,h,h_dot,theta,theta_dot,u,y"
        meta = json.loads((tmp_path / "trajectory.csv.meta.json").read_text())
        assert meta["sensor"]["tier"] == "depth_like"
        assert "steps=" in result.output


class TestPipeline:
    def test_sysid_synth_eval_chain(self, runner, tmp_path):
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, [
            "sysid", "--fixation", "1.0", "--sensor", "true_z", "--budget", "2000",
            "--method", "fullstate", "--seed", "5", "--out", str(model_path),
            "--save-data", str(tmp_path / "data"),
        ])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "data" / "manifest.json").exists()
        payload = json.loads(model_path.read_text())
        assert payload["metadata"]["method"] == "fullstate"

        ctrl_path = tmp_path / "controller.json"
        result = runner.invoke(main, ["synth", "--model-in", str(model_path),
                                      "--out", str(ctrl_path)])
        assert result.exit_code == 0, result.output
        meta = json.loads(ctrl_path.read_text())["metadata"]
        assert meta["epsilon"] == 5e-3

        report_path = tmp_path / "report.json"
        result = runner.invoke(main, [
            "eval", "--controller", str(ctrl_path), "--fixation", "1.0",
            "--sensor", "true_z", "--episodes", "5", "--seed", "9",
            "--out", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["success_rate"] > 0.5
        assert report["max_angle_deg"] > 1.0

    def test_synth_infeasible_exits_nonzero(self, runner, tmp_path):
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps({
            "A": [[2.0, 0.0], [0.0, 0.5]],
            "B": [[0.0], [1.0]],
            "C": [[1.0, 1.0]],
            "D": [[0.0]],
            "dt": 0.02,
        }))
        result = runner.invoke(main, ["synth", "--model-in", str(model_path),
                                      "--out", str(tmp_path / "nope.json")])
        assert result.exit_code != 0


class TestSynthEpsilon:
    """synth picks epsilon from the tier named in the model's metadata."""

    def model_with_sensor(self, runner, tmp_path, sensor):
        model_path = tmp_path / "model.json"
        result = runner.invoke(main, [
            "sysid", "--fixation", "1.0", "--budget", "2000", "--method", "fullstate",
            "--seed", "5", "--out", str(model_path),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(model_path.read_text())
        payload["metadata"]["sensor"] = sensor
        model_path.write_text(json.dumps(payload))
        return model_path

    def test_alias_resolves_to_tier(self, runner, tmp_path):
        model_path = self.model_with_sensor(runner, tmp_path, "depth")
        ctrl_path = tmp_path / "controller.json"
        result = runner.invoke(main, ["synth", "--model-in", str(model_path),
                                      "--out", str(ctrl_path)])
        assert result.exit_code == 0, result.output
        assert json.loads(ctrl_path.read_text())["metadata"]["epsilon"] == 1e-6

    def test_unknown_tier_named(self, runner, tmp_path):
        model_path = self.model_with_sensor(runner, tmp_path, "bogus")
        ctrl_path = tmp_path / "controller.json"
        result = runner.invoke(main, ["synth", "--model-in", str(model_path),
                                      "--out", str(ctrl_path)])
        assert result.exit_code != 0
        assert "unknown sensor tier 'bogus'" in result.output
        assert not ctrl_path.exists()


class TestTrainRl:
    def test_smoke(self, runner, tmp_path):
        result = runner.invoke(main, [
            "train-rl", "--fixation", "1.0", "--sensor", "true_z",
            "--episodes", "2", "--seed", "0", "--out-dir", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "episode,running_reward,steps_cumulative"
        assert len(curve) == 3
        assert (tmp_path / "policy.json").exists()
        assert (tmp_path / "policy.bin").exists()

        report = runner.invoke(main, [
            "eval", "--controller", str(tmp_path / "policy.json"),
            "--episodes", "2", "--no-max-angle",
        ])
        assert report.exit_code == 0, report.output

    def test_policy_blob_cut_to_wrong_shapes_is_a_usage_error(self, runner, tmp_path):
        # the file's "shapes" lists the first weight as 1 x 3 and the blob is cut to match
        path = tmp_path / "policy.json"
        save_policy(path, GaussianPolicy(4, (3,), 10.0, substream(20, "ckpt")))
        arch = json.loads(path.read_text())
        arch["shapes"][0] = [1, 3]
        path.write_text(json.dumps(arch))
        blob = tmp_path / "policy.bin"
        blob.write_bytes(blob.read_bytes()[3 * 4 * 3:])
        result = runner.invoke(main, ["eval", "--controller", str(path), "--episodes", "1",
                                      "--no-max-angle"])
        assert result.exit_code == 2, result.output
        assert "--controller" in result.output and "holds 14 floats" in result.output

    @pytest.mark.parametrize("field, value", [
        ("action_limit", math.nan),
        ("action_limit", math.inf),
        ("action_limit", -10.0),
        ("log_std_range", [-5, 2]),
    ])
    def test_edited_policy_is_a_usage_error(self, runner, tmp_path, field, value):
        # a non-finite limit made every action NaN or -inf and eval exited 0; a negative
        # one flipped every action's sign, and another log-std range was never used
        path = tmp_path / "policy.json"
        save_policy(path, GaussianPolicy(4, (3,), 10.0, substream(20, "ckpt")))
        arch = json.loads(path.read_text())
        arch[field] = value
        path.write_text(json.dumps(arch))
        result = runner.invoke(main, ["eval", "--controller", str(path), "--episodes", "1",
                                      "--no-max-angle"])
        assert result.exit_code == 2, result.output
        assert "--controller" in result.output and field in result.output

    def test_no_episodes_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "rl_out"
        result = runner.invoke(main, ["train-rl", "--episodes", "0", "--out-dir", str(out)])
        assert result.exit_code != 0
        assert "--episodes" in result.output
        assert not out.exists()


@pytest.mark.slow
class TestSweep:
    def test_single_cell(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "method": "hinf_fullstate",
            "fixations": [1.0],
            "sensor_tiers": ["noise_free"],
            "budgets": [2000],
            "n_repeats": 1,
            "n_eval_episodes": 3,
        }))
        result = runner.invoke(main, ["sweep", "--spec", str(spec),
                                      "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "1 cells" in result.output

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, runner, tmp_path, jobs):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "hinf_fullstate", "fixations": [1.0]}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out-dir", str(out),
                                      "--jobs", jobs])
        assert result.exit_code != 0
        assert "--jobs" in result.output
        assert not out.exists()

    def test_unknown_spec_key_rejected(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"fixation": [1.0]}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "--spec" in result.output and "fixation" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("orders, field", [
        ({"arx_order": 1, "model_order": 1}, "arx_order"),
        ({"arx_order": 3, "model_order": 4}, "model_order"),
    ])
    def test_arxhk_orders_rejected(self, runner, tmp_path, orders, field):
        # found before any cell collects data, not as an error in every cell
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "hinf_arxhk", **orders}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "--spec" in result.output and field in result.output
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("budgets", [math.nan]), ("n_repeats", 1.5)])
    def test_non_integer_spec_count_rejected(self, runner, tmp_path, field, value):
        # Python's json reads NaN and 1.5 alike; neither is a count
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "hinf_fullstate", field: value}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "--spec" in result.output and field in result.output
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("fixations", 1.0), ("sensor_tiers", "rgb_like"), ("budgets", "100"),
    ])
    def test_non_list_spec_grid_rejected(self, runner, tmp_path, field, value):
        # a string was split into characters: "rgb_like" failed as the tier 'r'
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "hinf_fullstate", field: value}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "--spec" in result.output and f"{field} must be a JSON list" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("raw, message", [
        ({"method": "hinf_fullstate", "fixations": []}, "fixations is empty"),
        ({"method": "rl", "sensor_tiers": []}, "sensor_tiers is empty"),
        ({"method": "hinf_arxhk", "budgets": []}, "budgets is empty"),
        ("abc", "a spec must be a JSON object"),
    ])
    def test_empty_or_non_object_spec_rejected(self, runner, tmp_path, raw, message):
        # an empty axis once exited 0 with header-only CSVs
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(raw))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "--spec" in result.output and message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_spec_seed_rejected(self, runner, tmp_path, value):
        # json's true is a Python bool, an int that the cell seeds would read as 1
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "hinf_fullstate", "seed": value}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--spec", str(spec), "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "--spec" in result.output and "seed must be an integer" in result.output
        assert not out.exists()


@pytest.mark.parametrize("args, option", [
    (["eval", "--controller", "{ctrl}", "--episodes", "0"], "--episodes"),
    (["sysid", "--budget", "0", "--out", "m.json"], "--budget"),
    (["sysid", "--order-p", "0", "--out", "m.json"], "--order-p"),
    (["sysid", "--order-n", "0", "--out", "m.json"], "--order-n"),
    (["train-rl", "--log-every", "-1", "--out-dir", "rl"], "--log-every"),
    (["limits", "-f", "0"], "--fixation"),
    (["simulate", "--fixation", "1.5", "--out-dir", "sim"], "--fixation"),
    (["eval", "--controller", "{ctrl}", "--episodes", "1"], "--controller"),
    (["simulate", "--controller", "{ctrl}", "--out-dir", "sim"], "--controller"),
    *((["synth", "--model-in", "{ctrl}", "--epsilon", bad, "--out", "c.json"], "--epsilon")
      for bad in ("0", "-1", "nan", "inf")),
    *((["train-rl", "--alpha", bad, "--out-dir", "rl"], "--alpha")
      for bad in ("0", "-1", "nan", "inf")),
    # a controller must be SISO: this one has a 2 x 2 feedthrough
    (["eval", "--controller", "{mimo}", "--episodes", "1"], "--controller"),
    (["simulate", "--controller", "{mimo}", "--out-dir", "sim"], "--controller"),
    # a model to synthesize for must parse, be SISO and have a state
    *((["synth", "--model-in", model, "--out", "c.json"], "--model-in")
      for model in ("{broken}", "{wide}", "{static}")),
    # the ARX/Ho-Kalman orders are checked before any data is collected
    (["sysid", "--budget", "500", "--order-p", "1", "--order-n", "1", "--out", "m.json"],
     "--order-p"),
    (["sysid", "--budget", "500", "--order-p", "3", "--order-n", "4", "--out", "m.json"],
     "--order-n"),
    # a controller must have a state
    (["eval", "--controller", "{static}", "--episodes", "1"], "--controller"),
    (["simulate", "--controller", "{static}", "--out-dir", "sim"], "--controller"),
])
def test_out_of_range_count_rejected(runner, args, option):
    files = {
        "ctrl.json": "{}",
        "mimo.json": json.dumps({"A": [[0.5]], "B": [[1.0]], "C": [[1.0]],
                                 "D": [[0.0, 0.0], [0.0, 0.0]], "dt": 0.02}),
        "broken.json": '{"A": [[0.5]], "B":',
        "wide.json": json.dumps({"A": [[0.5]], "B": [[1.0]], "C": [[1.0, 0.0]],
                                 "D": [[0.0]], "dt": 0.02}),
        "static.json": json.dumps({"A": [], "B": [], "C": [[]], "D": [[2.0]], "dt": 0.02}),
    }
    with runner.isolated_filesystem():
        for name, text in files.items():
            Path(name).write_text(text)
        names = {name.removesuffix(".json"): name for name in files}
        result = runner.invoke(main, [a.format(**names) for a in args])
        assert result.exit_code == 2, result.output
        assert option in result.output
        assert sorted(p.name for p in Path(".").iterdir()) == sorted(files)

# One pipeline through every subcommand that writes files, with noisy tiers so
# the sensor substreams are drawn from; PINNED_OUTPUT_SHA256 names every file it writes.
PINNED_CHAIN = [
    ["limits", "--out", "limits.csv"],
    ["sysid", "--fixation", "0.9", "--sensor", "depth", "--budget", "2000",
     "--method", "fullstate", "--seed", "5", "--out", "model.json", "--save-data", "data"],
    ["synth", "--model-in", "model.json", "--out", "controller.json"],
    ["simulate", "--fixation", "0.9", "--sensor", "rgb", "--controller", "controller.json",
     "--seed", "3", "--out-dir", "sim"],
    ["eval", "--controller", "controller.json", "--fixation", "0.9", "--sensor", "depth",
     "--episodes", "5", "--seed", "9", "--out", "report.json"],
    ["train-rl", "--sensor", "rgb", "--episodes", "2", "--seed", "4", "--out-dir", "rl"],
]
PINNED_OUTPUT_SHA256 = {
    "controller.json": "d7066de5ba40a922",
    "data/manifest.json": "6f828cf20cc99910",
    "data/traj_*.csv": "59f923dc4f724030",
    "limits.csv": "fb0d8ccf6adfc599",
    "model.json": "67d06cab9eb3e311",
    "report.json": "6fdf0ad309bf0418",
    "rl/curve.csv": "b140991581b9f989",
    "rl/policy.bin": "1461fd465102e830",
    "rl/policy.json": "df814a4cd82ff6bc",
    "sim/trajectory.csv": "4890e45679abe5fb",
    "sim/trajectory.csv.meta.json": "2c491e84662dfe39",
}


def _output_digests(root: Path) -> dict:
    """sha256 prefix per written file; the dataset's trajectory CSVs as one digest."""
    digests, runs = {}, hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        name = path.relative_to(root).as_posix()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if name.startswith("data/traj_"):
            runs.update(f"{name}:{digest}\n".encode())
        else:
            digests[name] = digest[:16]
    digests["data/traj_*.csv"] = runs.hexdigest()[:16]
    return digests


def test_pinned_output_bytes(runner):
    with runner.isolated_filesystem():
        for args in PINNED_CHAIN:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args[0], result.output)
        assert _output_digests(Path(".")) == PINNED_OUTPUT_SHA256
