"""System identification from excitation data.

Two routes to a strictly causal LTI model of the fixation-point response:

* ARXHK: fit a long autoregression with exogenous inputs by least squares,
  interpret its coefficients as predictor Markov parameters, and realize a
  state-space observer of chosen order from the Hankel matrix they fill
  (Ho-Kalman).
* Full-state regression: regress x(t+1) on (x(t), u(t)), from the states
  every run logs, and attach the known readout row.

Both fit a cartpole.Dataset, the one record of simulated samples:
collect_budget fills one with the excitation runs end to end;
dataset_hash reads each run as slices of the flat arrays, and save_dataset
walks Dataset.runs(), which yields each run as a one-run Dataset.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cartpole import (
    SENSOR_STREAM,
    Dataset,
    EpisodeConfig,
    PhysicalParams,
    SensorSpec,
    check_count,
    sample_initial_state,
    save_trajectory,
    simulate,
)
from .controllers import Controller
from .linalg import StateSpaceModel, least_squares
from .rngtools import chunked, substreams

__all__ = [
    "ArxModel",
    "HoKalmanResult",
    "collect_budget",
    "total_samples",
    "check_orders",
    "fit_arx",
    "ho_kalman",
    "fit_full_state",
    "save_dataset",
    "dataset_hash",
]

EXCITATION_RANGE = 10.0  # inputs drawn iid uniform on [-10, 10] N
# open-loop instability ejects every excitation run quickly; the cap is a
# safety net that no sane parameter set ever reaches
_MAX_EXCITE_STEPS = 100_000


@dataclass(frozen=True)
class ArxModel:
    """Autoregressive fit z(t) ~ sum_k G_z(k) z(t-k) + G_u(k) u(t-k), k=1..p.

    Coefficients are stored interleaved as [z(t-1), u(t-1), ..., z(t-p), u(t-p)].
    """

    G: np.ndarray
    p: int

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float).ravel()
        if len(G) != 2 * self.p:
            raise ValueError(f"expected {2 * self.p} coefficients, got {len(G)}")
        if not np.all(np.isfinite(G)):
            raise ValueError("ARX coefficients must be finite")
        object.__setattr__(self, "G", G)


@dataclass(frozen=True)
class HoKalmanResult:
    """Realized model x(t+1) = A_hat x(t) + B_hat u(t), z(t) = C_hat x(t)."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray

    def to_model(self, dt: float = 1.0) -> StateSpaceModel:
        return StateSpaceModel(self.A_hat, self.B_hat, self.C_hat, np.zeros((1, 1)), dt)


def total_samples(data: Dataset) -> int:
    return len(data.z)


def collect_budget(params: PhysicalParams, sensor: SensorSpec, budget: int,
                   seed: int) -> Dataset:
    """Simulate excitation runs one at a time until the budget is met; the last is cut to it.

    Run i draws from index i of the "sysid-init", "sysid-excite" and (noisy
    tiers only) sensor substreams, so the runs kept do not depend on how many
    are simulated after them.  Each run is copied into the flat arrays as it
    ends, so no run outlives the next one's simulation.
    """
    check_count("budget", budget, 1)
    config = EpisodeConfig(max_steps=_MAX_EXCITE_STEPS)
    names = ["sysid-init", "sysid-excite"]
    if sensor.sigma > 0.0:
        names.append("sysid-" + SENSOR_STREAM)
    runs = zip(*(substreams(seed, name) for name in names))
    z, u, x_full = np.empty(budget), np.empty(budget), np.empty((budget, 4))
    lengths = []
    filled = 0
    while filled < budget:
        traj = _collect_one(params, sensor, config, *next(runs))
        k = min(len(traj), budget - filled)
        rows = slice(filled, filled + k)
        z[rows], u[rows], x_full[rows] = traj.z[:k], traj.u[:k], traj.x_full[:k]
        lengths.append(k)
        filled += k
    return Dataset(z=z, u=u, x_full=x_full, lengths=lengths)


class _Excitation(Controller):
    """Open-loop excitation: each act takes the next force from U[-10, 10]."""

    def __init__(self, rng: np.random.Generator):
        # numpy's uniform(low, high) is low + (high - low) * random(): same bits, less overhead
        self._forces = chunked(
            lambda k: -EXCITATION_RANGE + 2.0 * EXCITATION_RANGE * rng.random(k))

    def act(self, y: float) -> float:
        return next(self._forces)


def _collect_one(params, sensor, config, rng_init, rng_excite, rng_sensor=None):
    """One excitation run from its init, excitation and (noisy tiers only) sensor generators."""
    state = sample_initial_state(config, rng_init)
    _, traj, _ = simulate(params, config, _Excitation(rng_excite), sensor, state, rng_sensor,
                          h_origin=state.h)
    return traj


def _regression_rows(data: Dataset, p: int):
    """ARX regressors [z(t-1), u(t-1), ..., z(t-p), u(t-p)] and targets z(t), t = p .. T-1."""
    z, u, lengths = data.z, data.u, data.lengths
    # every position at least p samples into its run is a target
    within = np.arange(len(z)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    targets = np.flatnonzero(within >= p)
    # each column is gathered straight into a contiguous row of the transpose,
    # with no (rows, p) index array or per-lag temporaries; the transpose is
    # Fortran-ordered, so least_squares solves on it in place
    cols = np.empty((2 * p, len(targets)))
    lagged = targets.copy()
    for k in range(p):
        lagged -= 1
        np.take(z, lagged, out=cols[2 * k])
        np.take(u, lagged, out=cols[2 * k + 1])
    return cols.T, z[targets]


def check_orders(p: int, n: int, p_name: str = "p", n_name: str = "n") -> None:
    """The ARX/Ho-Kalman order rule: p >= 2 (at p = 1 the shift has no rows), 1 <= n <= p."""
    if p < 2:
        raise ValueError(f"{p_name} must be at least 2, got {p}")
    if not 1 <= n <= p:
        raise ValueError(f"{n_name} must lie in [1, {p_name}] = [1, {p}], got {n}")


def fit_arx(data: Dataset, p: int) -> ArxModel:
    """Least-squares ARX fit of order p over all runs."""
    if p < 1:
        raise ValueError("autoregressive order p must be >= 1")
    Phi, y = _regression_rows(data, p)
    if len(Phi) < 2 * p:
        raise ValueError(f"insufficient data: {len(Phi)} regression rows, need at least {2 * p}")
    return ArxModel(G=least_squares(Phi, y), p=p)


def ho_kalman(arx: ArxModel, n: int) -> HoKalmanResult:
    """Realize an order-n observer from ARX predictor Markov parameters.

    The lag-k ARX coefficients are C Atilde^{k-1} B (input) and C Atilde^{k-1} L
    (output).  The p x 2p Hankel matrix holds them in [B, L] column pairs,
    reversed so the final pair is (C B, C L); lags beyond p are taken as zero
    (the predictor is assumed stable enough that C Atilde^p [B L] has died
    out).  A truncated SVD factors the Hankel into observability and
    controllability factors, from which C, B, L are read off directly and
    Atilde by the shift least squares; A_hat = Atilde + L C.
    """
    p = arx.p
    check_orders(p, n)
    gz, gu = arx.G[0::2], arx.G[1::2]
    H = np.zeros((p, 2 * p))
    for r in range(p):
        for c in range(p):
            k = p - c + r  # Markov lag, 1-based
            if k <= p:
                H[r, 2 * c] = gu[k - 1]
                H[r, 2 * c + 1] = gz[k - 1]
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    root = np.sqrt(s[:n])
    Obs = U[:, :n] * root
    Ctr = root[:, None] * Vt[:n, :]
    # a copy: least_squares may overwrite Obs[:-1] (at n = 1 it is Fortran-ordered)
    C_hat = Obs[0:1, :].copy()
    B_hat = Ctr[:, -2:-1]
    L_hat = Ctr[:, -1:]
    A_tilde = least_squares(Obs[:-1, :], Obs[1:, :])
    return HoKalmanResult(A_hat=A_tilde + L_hat @ C_hat, B_hat=B_hat, C_hat=C_hat)


def fit_full_state(data: Dataset, ell0: float, tau: float) -> StateSpaceModel:
    """Regress x(t+1) on (x(t), u(t)) and attach the readout [1, 0, ell0, 0]."""
    dim = 4 + 1
    rows = len(data.z) - len(data.lengths)
    if rows < dim:
        raise ValueError(f"insufficient data: {rows} transitions, need at least {dim}")
    # a run's last row has no successor and its first row no predecessor
    ends = np.cumsum(data.lengths)
    has_next, has_prev = np.ones(len(data.z), bool), np.ones(len(data.z), bool)
    has_next[ends - 1] = False
    has_prev[ends - data.lengths] = False
    # the regressor [x(t), u(t)] is built Fortran-ordered, so least_squares solves on it in place
    Phi = np.empty((rows, dim), order="F")
    for j in range(4):
        np.compress(has_next, data.x_full[:, j], out=Phi[:, j])
    np.compress(has_next, data.u, out=Phi[:, 4])
    Theta = least_squares(Phi, data.x_full[has_prev])
    A = Theta[:4, :].T
    B = Theta[4:, :].T
    C = np.array([[1.0, 0.0, ell0, 0.0]])
    return StateSpaceModel(A, B, C, np.zeros((1, 1)), dt=tau)


def dataset_hash(data: Dataset) -> str:
    """sha256 over each run's z, u and x_full bytes in turn."""
    h = hashlib.sha256()
    ends = np.cumsum(data.lengths).tolist()
    for start, end in zip([0] + ends, ends):
        h.update(data.z[start:end])
        h.update(data.u[start:end])
        h.update(data.x_full[start:end])
    return h.hexdigest()


def save_dataset(out_dir, data: Dataset, manifest: dict) -> str:
    """Write one trajectory CSV per run plus a manifest; returns the dataset hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, traj in enumerate(data.runs()):
        save_trajectory(out / f"traj_{i:04d}.csv", traj)
    digest = dataset_hash(data)
    manifest = dict(manifest)
    manifest.update({"n_trajectories": len(data.lengths), "total_samples": total_samples(data),
                     "dataset_hash": digest})
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return digest
