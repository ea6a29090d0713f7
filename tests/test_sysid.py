import csv
import hashlib
import json
from collections import namedtuple

import numpy as np
import pytest

from occball import linalg, sysid
from occball.cartpole import (
    SENSOR_STREAM,
    Dataset,
    EpisodeConfig,
    PhysicalParams,
    linearize,
    make_sensor,
)
from occball.linalg import StateSpaceModel, poles, spectral_radius, tf_eval
from occball.rngtools import substream, substreams
from occball.sysid import (
    ArxModel,
    collect_budget,
    _regression_rows,
    dataset_hash,
    fit_arx,
    fit_full_state,
    ho_kalman,
    save_dataset,
    total_samples,
)

PARAMS = PhysicalParams(ell0=1.0)
SENSOR = make_sensor("noise_free", PARAMS)


# one run's samples, as a list of runs holds them
Run = namedtuple("Run", "z u x_full")


def stateless_run(z, u):
    """A Run of synthetic samples with no simulated state: its x_full is zero."""
    return Run(z=np.asarray(z, dtype=float), u=np.asarray(u, dtype=float),
               x_full=np.zeros((len(z), 4)))


def flat(runs):
    """A Dataset of these runs end to end."""
    runs = list(runs)
    return Dataset(z=np.concatenate([np.zeros(0)] + [t.z for t in runs]),
                   u=np.concatenate([np.zeros(0)] + [t.u for t in runs]),
                   x_full=np.concatenate([np.zeros((0, 4))] + [t.x_full for t in runs]),
                   lengths=[len(t.z) for t in runs])


def freq_response(model, omegas):
    return np.array([tf_eval(model, np.exp(1j * w))[0, 0] for w in omegas])


def random_observer(rng, n=4, rho_max=0.25):
    """Random stable-observer quadruple with poles away from the unit circle."""
    while True:
        At = rng.standard_normal((n, n))
        At *= rng.uniform(0.05, rho_max) / max(1e-12, spectral_radius(At))
        L = 0.1 * rng.standard_normal((n, 1))
        C = rng.standard_normal((1, n))
        A = At + L @ C
        if np.min(np.abs(np.abs(np.linalg.eigvals(A)) - 1.0)) > 0.2:
            B = rng.standard_normal((n, 1))
            return A, B, C, L, At


def observer_markov_arx(At, B, C, L, p):
    g = np.empty(2 * p)
    Ak = np.eye(At.shape[0])
    for k in range(1, p + 1):
        g[2 * (k - 1)] = (C @ Ak @ L).item()
        g[2 * (k - 1) + 1] = (C @ Ak @ B).item()
        Ak = At @ Ak
    return ArxModel(G=g, p=p)


class TestCollect:
    def test_deterministic(self):
        d1 = collect_budget(PARAMS, SENSOR, 200, seed=11)
        d2 = collect_budget(PARAMS, SENSOR, 200, seed=11)
        assert np.array_equal(d1.lengths, d2.lengths)
        assert np.array_equal(d1.z, d2.z)
        assert np.array_equal(d1.u, d2.u)
        assert np.array_equal(d1.x_full, d2.x_full)

    def test_every_trajectory_terminates(self):
        data = collect_budget(PARAMS, SENSOR, 1200, seed=3)
        assert all(1 <= n < 100_000 for n in data.lengths)
        # escape is fast under the aggressive excitation
        assert np.mean(data.lengths) < 500

    def test_inputs_within_excitation_range(self):
        data = collect_budget(PARAMS, SENSOR, 500, seed=4)
        assert np.max(np.abs(data.u)) <= 10.0

    def test_budget_truncation_exact(self):
        data = collect_budget(PARAMS, SENSOR, 777, seed=5)
        assert total_samples(data) == 777

    def test_budget_cuts_only_the_last_run(self):
        # the kept runs are the first runs of a larger budget, the last one cut short
        short = collect_budget(PARAMS, SENSOR, 777, seed=5)
        long = collect_budget(PARAMS, SENSOR, 5000, seed=5)
        runs = len(short.lengths)
        assert total_samples(long) == 5000 and runs < len(long.lengths)
        assert np.array_equal(short.lengths[:-1], long.lengths[:runs - 1])
        assert short.lengths[-1] <= long.lengths[runs - 1]
        assert np.array_equal(short.z, long.z[:777])
        assert np.array_equal(short.u, long.u[:777])
        assert np.array_equal(short.x_full, long.x_full[:777])

    @pytest.mark.parametrize("budget", [float("nan"), 2.5, 0])
    def test_non_integer_budget_rejected_before_simulating(self, monkeypatch, budget):
        monkeypatch.setattr(sysid, "simulate", lambda *args, **kwargs: pytest.fail("simulated"))
        with pytest.raises(ValueError, match=r"budget must be an integer >= 1, got"):
            collect_budget(PARAMS, SENSOR, budget, seed=1)

    def test_records_full_state_always(self):
        data = collect_budget(PARAMS, make_sensor("rgb_like", PARAMS), 100, seed=6)
        assert data.x_full is not None and data.x_full.shape == (100, 4)


class TestFitArx:
    def test_known_arx2_process(self):
        # z(t) = 0.3 z(t-1) - 0.1 z(t-2) + 0.5 u(t-1) + 0.2 u(t-2)
        rng = substream(7, "arx2")
        coef = np.array([0.3, 0.5, -0.1, 0.2])
        runs = []
        for _ in range(20):
            z = [0.0, 0.0]
            u = list(rng.uniform(-1, 1, 120))
            for t in range(2, 120):
                z.append(coef[0] * z[t - 1] + coef[1] * u[t - 1]
                         + coef[2] * z[t - 2] + coef[3] * u[t - 2])
            runs.append(stateless_run(z, u[:len(z)]))
        arx = fit_arx(flat(runs), 2)
        assert np.max(np.abs(arx.G - coef)) < 1e-8
        preds = _regression_rows(flat(runs[:1]), 2)[0] @ arx.G
        assert np.max(np.abs(preds - runs[0].z[2:])) < 1e-8

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            fit_arx(collect_budget(PARAMS, SENSOR, 50, seed=1), 0)

    def test_insufficient_rows_error_names_requirement(self):
        tiny = flat([stateless_run(np.zeros(11), np.zeros(11))])
        with pytest.raises(ValueError, match="20"):
            fit_arx(tiny, 10)

    def test_noise_free_one_step_prediction(self):
        data = collect_budget(PARAMS, SENSOR, 8000, seed=8)
        arx = fit_arx(data, 10)
        held = collect_budget(PARAMS, SENSOR, 400, seed=999)
        # the rows of every run longer than p, each predicted one step ahead
        Phi, y = _regression_rows(held, 10)
        errs = np.abs(Phi @ arx.G - y)
        z_scale = np.abs(held.z).max()
        assert errs.max() < 1e-3 * z_scale


class TestHoKalman:
    def test_exact_recovery_random_observers(self):
        rng = substream(9, "hk-exact")
        omegas = np.linspace(0, np.pi, 512)
        for _ in range(10):
            A, B, C, L, At = random_observer(rng)
            arx = observer_markov_arx(At, B, C, L, 10)
            res = ho_kalman(arx, 4)
            truth = StateSpaceModel(A, B, C, [[0.0]])
            err = np.abs(freq_response(truth, omegas) - freq_response(res.to_model(), omegas))
            assert err.max() < 1e-6

    def test_scalar_rank_one(self):
        # first-order observer with fast-decaying predictor so the lag-p
        # truncation is below machine noise
        At, B, L, C = 0.1, 1.0, 0.3, 2.0
        p = 10
        g = np.empty(2 * p)
        for k in range(1, p + 1):
            g[2 * (k - 1)] = C * At ** (k - 1) * L
            g[2 * (k - 1) + 1] = C * At ** (k - 1) * B
        res = ho_kalman(ArxModel(G=g, p=p), 1)
        truth = StateSpaceModel([[At + L * C]], [[B]], [[C]], [[0.0]])
        omegas = np.linspace(0, np.pi, 128)
        err = np.abs(freq_response(truth, omegas) - freq_response(res.to_model(), omegas))
        assert err.max() < 1e-8

    def test_zero_markov_parameters(self):
        res = ho_kalman(ArxModel(G=np.zeros(20), p=10), 4)
        for mat in (res.A_hat, res.B_hat, res.C_hat):
            assert np.all(mat == 0.0)

    def test_order_exceeding_p_rejected(self):
        with pytest.raises(ValueError):
            ho_kalman(ArxModel(G=np.zeros(4), p=2), 3)

    def test_arx_order_one_rejected(self):
        # one Hankel row leaves the shift least squares no rows
        with pytest.raises(ValueError, match="p must be at least 2, got 1"):
            ho_kalman(ArxModel(G=np.array([0.5, 1.0]), p=1), 1)

    def test_behavior_invariant_under_realization_similarity(self):
        rng = substream(10, "hk-sim")
        A, B, C, L, At = random_observer(rng)
        res = ho_kalman(observer_markov_arx(At, B, C, L, 10), 4)
        T = rng.standard_normal((4, 4)) + 3 * np.eye(4)
        Ti = np.linalg.inv(T)
        alt = StateSpaceModel(T @ res.A_hat @ Ti, T @ res.B_hat, res.C_hat @ Ti, [[0.0]])
        omegas = np.linspace(0, np.pi, 128)
        err = np.abs(freq_response(res.to_model(), omegas) - freq_response(alt, omegas))
        assert err.max() < 1e-10

    def test_composition_on_stable_observer_data(self):
        # data generated by a known innovations-form system with enough noise
        # that least squares identifies the stable predictor, not the
        # deterministic autoregression
        rng = substream(13, "hk-data")
        A, B, C, L, At = random_observer(rng, rho_max=0.3)
        runs = []
        for _ in range(40):
            x = np.zeros(4)
            zs, us = [], []
            for _ in range(400):
                e = 0.02 * rng.standard_normal()
                z = (C @ x).item() + e
                u = float(rng.uniform(-1, 1))
                zs.append(z)
                us.append(u)
                x = A @ x + B[:, 0] * u + L[:, 0] * e
            runs.append(stateless_run(zs, us))
        res = ho_kalman(fit_arx(flat(runs), 10), 4)
        truth = StateSpaceModel(A, B, C, [[0.0]])
        omegas = np.linspace(0, np.pi, 256)
        ref = freq_response(truth, omegas)
        err = np.abs(ref - freq_response(res.to_model(), omegas))
        assert err.max() < 5e-2 * np.abs(ref).max()


class TestFitFullState:
    def test_exact_on_linear_generator(self):
        truth = linearize(PARAMS)
        rng = substream(14, "fs-lin")
        runs = []
        for _ in range(10):
            x = rng.uniform(-0.05, 0.05, 4)
            us = rng.uniform(-10, 10, 60)
            xs = [x]
            for u in us[:-1]:
                x = truth.A @ x + truth.B[:, 0] * u
                xs.append(x)
            zs = np.array([(truth.C @ xi).item() for xi in xs])
            runs.append(Run(z=zs, u=us, x_full=np.array(xs)))
        m = fit_full_state(flat(runs), PARAMS.ell0, PARAMS.tau)
        assert np.max(np.abs(m.A - truth.A)) < 1e-8
        assert np.max(np.abs(m.B - truth.B)) < 1e-8

    def test_poles_from_nonlinear_data(self):
        data = collect_budget(PARAMS, SENSOR, 4000, seed=5)
        m = fit_full_state(data, PARAMS.ell0, PARAMS.tau)
        got = np.sort_complex(np.array(poles(m)))
        want = np.sort_complex(np.array(poles(linearize(PARAMS))))
        assert np.max(np.abs(got - want)) < 2e-2

    def test_readout_row_fixed(self):
        data = collect_budget(PhysicalParams(ell0=0.7), SENSOR, 400, seed=5)
        m = fit_full_state(data, 0.7, 0.02)
        assert np.allclose(m.C, [[1.0, 0.0, 0.7, 0.0]])

    def test_error_median_monotone_in_budget(self):
        # quality improves with data: median sup-norm frequency error over 7
        # seeds is non-increasing across the budget ladder
        truth = linearize(PARAMS)
        omegas = np.linspace(0.02, np.pi, 128)
        ref = freq_response(truth, omegas)
        scale = np.abs(ref).max()

        def err(budget, seed):
            data = collect_budget(PARAMS, SENSOR, budget, seed=seed)
            m = fit_full_state(data, PARAMS.ell0, PARAMS.tau)
            return np.abs(ref - freq_response(m, omegas)).max() / scale

        medians = []
        for budget in (100, 1000, 5000, 20000):
            vals = sorted(err(budget, s) for s in range(7))
            medians.append(vals[3])
        assert all(b <= a * (1 + 1e-9) for a, b in zip(medians, medians[1:]))


class TestDatasetIO:
    def test_roundtrip_and_hash(self, tmp_path):
        # the CSVs hold every float exactly: parsed back, they hash to the manifest
        data = collect_budget(PARAMS, SENSOR, 100, seed=21)
        digest = save_dataset(tmp_path / "ds", data, {"seed": 21})
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["dataset_hash"] == digest == dataset_hash(data)
        assert manifest["total_samples"] == total_samples(data)
        loaded = []
        for i in range(manifest["n_trajectories"]):
            with open(tmp_path / "ds" / f"traj_{i:04d}.csv", newline="") as f:
                _, *rows = csv.reader(f)
            arr = np.array(rows, dtype=float)
            loaded.append(Run(z=arr[:, 6], u=arr[:, 5], x_full=arr[:, 1:5]))
        assert len(loaded) == len(data.lengths) and dataset_hash(flat(loaded)) == digest

    def test_hash_is_stable(self):
        d1 = collect_budget(PARAMS, SENSOR, 100, seed=22)
        d2 = collect_budget(PARAMS, SENSOR, 100, seed=22)
        assert dataset_hash(d1) == dataset_hash(d2)


class TestCollectionPinned:
    """Excitation datasets pinned by hash: draw order and arithmetic are fixed."""

    def test_noise_free(self):
        data = collect_budget(PARAMS, SENSOR, 3000, seed=7)
        assert dataset_hash(data) == (
            "90cf84a72c82484d5b0e0afc6ac1e4348afbe4447bbbb703fda778cb346f7609"
        )

    def test_rgb_like(self):
        params = PhysicalParams(ell0=0.8)
        data = collect_budget(params, make_sensor("rgb_like", params), 3000, seed=7)
        assert dataset_hash(data) == (
            "5088430f1d0d71684fc958455a226c41ad7754bd6800d255d9d6576b6752bc51"
        )

    @pytest.mark.parametrize("tier, budget, runs, digest", [
        ("noise_free", 100, 4, "d8fa3ae655cede161872b74a29be0545a8e34317157e0163801d0ea6cbcb6f6c"),
        ("noise_free", 1000, 28, "45eefc099ac2b4f3dd695832bc4417040387ed47e8b6d748ddfa127a4a1aecab"),
        ("noise_free", 20000, 531,
         "277391a0eaf49eb60a7563be9f5a2fbd907c64de737074f4dde319f6b23355e1"),
        ("rgb_like", 100, 4, "d1f9f3c492be0c79f71c594cee46e27b25f07cfc4e530b46dc535c8c4d49ba47"),
        ("rgb_like", 1000, 28, "eb8b2120db09d6908a80961003b556dbf75b80e4d95f3c602773bc78939a0632"),
        ("rgb_like", 20000, 531,
         "de90c701768b9ae1ad07454604fdefdfc649ff2c1227a96acc9c3b55cbb26da9"),
    ])
    def test_budget_ladder(self, tier, budget, runs, digest):
        data = collect_budget(PARAMS, make_sensor(tier, PARAMS), budget, seed=31)
        assert total_samples(data) == budget and len(data.lengths) == runs
        assert dataset_hash(data) == digest


def _bytes_hash(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestFitsPinned:
    """Fits pinned by the bytes of their coefficients; the last run is shorter than p."""

    PARAMS = PhysicalParams(ell0=0.8)

    def data(self):
        data = collect_budget(self.PARAMS, make_sensor("depth_like", self.PARAMS), 353, seed=9)
        assert data.lengths.tolist() == [49, 33, 33, 21, 32, 50, 20, 57, 33, 22, 3]
        return data

    def test_regression_rows_match_row_by_row_loop(self):
        data, p = self.data(), 10
        rows = [[x for k in range(1, p + 1) for x in (t.z[i - k], t.u[i - k])]
                for t in data.runs() for i in range(p, len(t))]
        targets = [t.z[i] for t in data.runs() for i in range(p, len(t))]
        Phi, y = _regression_rows(data, p)
        assert np.array_equal(Phi, np.array(rows)) and np.array_equal(y, np.array(targets))

    def test_arx(self):
        assert _bytes_hash(fit_arx(self.data(), 10).G) == (
            "afdfc7c3b6ab1e1d3fd176156dcb666ca7d5101a1f72bf9816ddfa4b8ef74fa4"
        )

    def test_full_state(self):
        m = fit_full_state(self.data(), self.PARAMS.ell0, self.PARAMS.tau)
        assert _bytes_hash(m.A, m.B) == (
            "f44cd83c5962a9c1de6dfadbb2fbcdf1ad6f8c191f4fc546f0aa6010de5b35d7"
        )

    def test_empty_data_is_insufficient(self):
        empty = Dataset(z=np.zeros(0), u=np.zeros(0), x_full=np.zeros((0, 4)), lengths=[])
        with pytest.raises(ValueError, match="insufficient data"):
            fit_arx(empty, 2)
        with pytest.raises(ValueError, match="insufficient data"):
            fit_full_state(empty, 1.0, 0.02)


def _list_collect_budget(params, sensor, budget, seed):
    """collect_budget as it was: one Run per run in a list, the last one cut."""
    config = EpisodeConfig(max_steps=sysid._MAX_EXCITE_STEPS)
    names = ["sysid-init", "sysid-excite"]
    if sensor.sigma > 0.0:
        names.append("sysid-" + SENSOR_STREAM)
    runs = zip(*(substreams(seed, name) for name in names))
    data = []
    left = budget
    while left > 0:
        run = sysid._collect_one(params, sensor, config, *next(runs))
        data.append(Run(z=run.z[:left], u=run.u[:left], x_full=run.x_full[:left]))
        left -= len(data[-1].z)
    return data


def _list_dataset_hash(data):
    h = hashlib.sha256()
    for traj in data:
        h.update(traj.z.tobytes())
        h.update(traj.u.tobytes())
        h.update(traj.x_full.tobytes())
    return h.hexdigest()


def _list_fit_full_state(data):
    """fit_full_state's regression as it was: a column_stack per run, then np.linalg.lstsq."""
    rows = np.concatenate([np.zeros((0, 5))] + [np.column_stack([t.x_full[:-1], t.u[:-1]])
                                               for t in data])
    nexts = np.concatenate([np.zeros((0, 4))] + [t.x_full[1:] for t in data])
    if len(rows) < 5:
        raise ValueError(f"insufficient data: {len(rows)} transitions, need at least 5")
    Theta = np.linalg.lstsq(rows, nexts, rcond=1e-12)[0]
    return Theta[:4, :].T, Theta[4:, :].T


def _list_fit_arx(data, p):
    """fit_arx as it was: runs concatenated, then np.linalg.lstsq."""
    lengths = np.array([len(t.z) for t in data], dtype=np.intp)
    z = np.concatenate([t.z for t in data])
    u = np.concatenate([t.u for t in data])
    within = np.arange(len(z)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    targets = np.flatnonzero(within >= p)
    Phi = np.column_stack([x[targets - k] for k in range(1, p + 1) for x in (z, u)])
    if len(Phi) < 2 * p:
        raise ValueError(f"insufficient data: {len(Phi)} regression rows, need at least {2 * p}")
    return np.linalg.lstsq(Phi, z[targets], rcond=1e-12)[0]


class TestFlatDatasetMatchesRunList:
    """The flat Dataset holds the bytes the per-run list held, and fits to the same bytes."""

    @pytest.mark.parametrize("budget", [1, 100, 1000, 20000])
    @pytest.mark.parametrize("tier", ["noise_free", "depth_like", "rgb_like"])
    def test_runs_hash_and_fits(self, tier, budget, monkeypatch):
        params = PhysicalParams(ell0=0.8)
        sensor = make_sensor(tier, params)
        runs = _list_collect_budget(params, sensor, budget, seed=41)
        data = collect_budget(params, sensor, budget, seed=41)
        assert data.lengths.tolist() == [len(t.z) for t in runs]
        assert data.lengths.dtype == np.intp and sum(data.lengths) == budget
        for old, new in zip(runs, data.runs(), strict=True):
            for name in ("z", "u", "x_full"):
                a, b = getattr(old, name), getattr(new, name)
                assert a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes(), name
        assert dataset_hash(data) == _list_dataset_hash(runs)

        old_fits = (lambda: _list_fit_full_state(runs), lambda: _list_fit_arx(runs, 10))
        new_fits = (lambda: fit_full_state(data, params.ell0, params.tau),
                    lambda: fit_arx(data, 10))
        if budget == 1:
            # one sample holds no transition and no ARX row, on either side
            for old_fit, new_fit in zip(old_fits, new_fits):
                with pytest.raises(ValueError, match="insufficient data") as old:
                    old_fit()
                with pytest.raises(ValueError, match="insufficient data") as new:
                    new_fit()
                assert str(old.value) == str(new.value)
            return
        (A, B), G = (fit() for fit in old_fits)
        full, arx = (fit() for fit in new_fits)
        assert _bytes_hash(A, B) == _bytes_hash(full.A, full.B)
        assert G.tobytes() == arx.G.tobytes()
        for n in (1, 4):
            # Ho-Kalman's shift solve as it was (np.linalg.lstsq) against dgelsd in place
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_lapack", lambda name: None)
                old = ho_kalman(ArxModel(G=G, p=10), n)
            new = ho_kalman(arx, n)
            assert _bytes_hash(old.A_hat, old.B_hat, old.C_hat) == _bytes_hash(
                new.A_hat, new.B_hat, new.C_hat), n

    @pytest.mark.parametrize("z, u, lengths", [
        (np.zeros(5), np.zeros(4), [5]),      # z and u differ
        (np.zeros(5), np.zeros(5), [2, 2]),   # lengths sum short
        (np.zeros(5), np.zeros(5), [5, 0]),   # an empty run
    ], ids=["z-u", "sum", "empty-run"])
    def test_dataset_rejects_inconsistent_lengths(self, z, u, lengths):
        with pytest.raises(ValueError, match="must have one length"):
            Dataset(z=z, u=u, x_full=np.zeros((len(z), 4)), lengths=lengths)

    def test_budget_one_cuts_the_first_run(self):
        runs = _list_collect_budget(PARAMS, SENSOR, 100, seed=41)
        data = collect_budget(PARAMS, SENSOR, 1, seed=41)
        assert len(runs[0].z) > 1 and data.lengths.tolist() == [1]
        assert data.z.tobytes() == runs[0].z[:1].tobytes()
