"""System identification from excitation data.

Two routes to a strictly causal LTI model of the fixation-point response:

* ARXHK: fit a long autoregression with exogenous inputs by least squares,
  interpret its coefficients as predictor Markov parameters, and realize a
  state-space observer of chosen order from the Hankel matrix they fill
  (Ho-Kalman).
* Full-state regression: when states are logged, regress x(t+1) on
  (x(t), u(t)) and attach the known readout row.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cartpole import (
    SENSOR_STREAM,
    EpisodeConfig,
    PhysicalParams,
    SensorSpec,
    Trajectory,
    sample_initial_state,
    save_trajectory,
    simulate,
)
from .controllers import Controller
from .linalg import StateSpaceModel, least_squares, spectral_radius
from .rngtools import chunked, substream

__all__ = [
    "ArxModel",
    "HoKalmanResult",
    "collect_budget",
    "total_samples",
    "truncate_to_budget",
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

    @property
    def z_coeffs(self) -> np.ndarray:
        return self.G[0::2]

    @property
    def u_coeffs(self) -> np.ndarray:
        return self.G[1::2]

    def predict(self, traj: Trajectory) -> np.ndarray:
        """One-step predictions for t = p .. T-1 of a trajectory."""
        Phi, _ = _regression_rows([traj], self.p)
        return Phi @ self.G


@dataclass(frozen=True)
class HoKalmanResult:
    """Realized observer (A_hat - L_hat C_hat stable by assumption)."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    L_hat: np.ndarray
    singular_values: np.ndarray
    n: int
    predictor_spectral_radius: float
    predictor_unstable: bool
    rank_deficient: bool

    def to_model(self, dt: float = 1.0) -> StateSpaceModel:
        return StateSpaceModel(self.A_hat, self.B_hat, self.C_hat, np.zeros((1, 1)), dt)


def total_samples(data: list[Trajectory]) -> int:
    return sum(len(t) for t in data)


def truncate_to_budget(data: list[Trajectory], budget: int) -> list[Trajectory]:
    """Keep whole trajectories until the budget, truncating the last one."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    out, used = [], 0
    for traj in data:
        if used >= budget:
            break
        take = min(len(traj), budget - used)
        if take == len(traj):
            out.append(traj)
        else:
            out.append(
                Trajectory(
                    z=traj.z[:take],
                    u=traj.u[:take],
                    x_full=None if traj.x_full is None else traj.x_full[:take],
                )
            )
        used += take
    if used < budget:
        raise ValueError(f"dataset holds {used} samples, below the requested budget {budget}")
    return out


def collect_budget(
    params: PhysicalParams,
    sensor: SensorSpec,
    budget: int,
    seed: int,
) -> list[Trajectory]:
    """Simulate excitation runs one at a time until the budget is met, then truncate.

    Each run index draws from its own substreams, so the runs kept do not
    depend on how many are simulated after them.
    """
    config = EpisodeConfig(max_steps=_MAX_EXCITE_STEPS)
    data: list[Trajectory] = []
    used = 0
    while used < budget:
        traj = _collect_one(params, sensor, seed, len(data), config)
        data.append(traj)
        used += len(traj)
    return truncate_to_budget(data, budget)


class _Excitation(Controller):
    """Open-loop excitation: each act takes the next force from U[-10, 10]."""

    def __init__(self, rng: np.random.Generator):
        # numpy's uniform(low, high) is low + (high - low) * random(): same bits, less overhead
        self._forces = chunked(
            lambda k: -EXCITATION_RANGE + 2.0 * EXCITATION_RANGE * rng.random(k))

    def act(self, y: float) -> float:
        return next(self._forces)


def _collect_one(params, sensor, seed, index, config):
    """Excitation run `index`, from its own init, excitation and (noisy only) sensor substreams."""
    state = sample_initial_state(config, substream(seed, "sysid-init", index))
    excitation = _Excitation(substream(seed, "sysid-excite", index))
    rng_sensor = None
    if sensor.sigma > 0.0:
        rng_sensor = substream(seed, "sysid-" + SENSOR_STREAM, index)
    _, traj, _, _ = simulate(params, config, excitation, sensor, state, rng_sensor,
                             h_origin=state.h)
    return traj


def _regression_rows(data: list[Trajectory], p: int):
    """ARX regressors [z(t-1), u(t-1), ..., z(t-p), u(t-p)] and targets z(t), t = p .. T-1."""
    blocks, targets = [], []
    for traj in data:
        z, u = traj.z, traj.u
        T = len(z)
        if T <= p:
            continue
        rows = np.empty((T - p, 2 * p))
        for k in range(1, p + 1):
            rows[:, 2 * (k - 1)] = z[p - k:T - k]
            rows[:, 2 * (k - 1) + 1] = u[p - k:T - k]
        blocks.append(rows)
        targets.append(z[p:])
    if not blocks:
        return np.zeros((0, 2 * p)), np.zeros(0)
    return np.concatenate(blocks), np.concatenate(targets)


def fit_arx(data: list[Trajectory], p: int) -> ArxModel:
    """Least-squares ARX fit of order p over all trajectories."""
    if p < 1:
        raise ValueError("autoregressive order p must be >= 1")
    Phi, y = _regression_rows(data, p)
    needed = 2 * p
    if Phi.shape[0] < needed:
        raise ValueError(
            f"insufficient data: {Phi.shape[0]} regression rows, need at least {needed}"
        )
    G = least_squares(Phi, y)
    return ArxModel(G=G, p=p)


def ho_kalman(arx: ArxModel, n: int) -> HoKalmanResult:
    """Realize an order-n observer from ARX predictor Markov parameters.

    The p x 2p Hankel matrix interleaves the input and output Markov
    parameters in [B, L] column pairs, reversed so the final block pair is
    (C B, C L); parameters beyond lag p are taken as zero (the predictor is
    assumed stable enough that C Atilde^p [B L] has died out).  A truncated
    SVD factors the Hankel into observability and controllability factors,
    from which C, B, L are read off directly and Atilde by the shift
    least-squares; A_hat = Atilde + L C.

    Note: the interleaving follows the ARX regressor convention (the lag-k
    output coefficient is C Atilde^{k-1} L and the input one C Atilde^{k-1} B),
    with [B, L] column order within each Hankel block pair.
    """
    p = arx.p
    if n < 1 or n > p:
        raise ValueError(f"model order n must satisfy 1 <= n <= p={p}")
    gu = arx.u_coeffs
    gz = arx.z_coeffs
    H = np.zeros((p, 2 * p))
    for r in range(p):
        for c in range(p):
            k = p - c + r  # Markov lag, 1-based
            if k <= p:
                H[r, 2 * c] = gu[k - 1]
                H[r, 2 * c + 1] = gz[k - 1]
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    if s[0] <= 0.0:
        zeros = np.zeros
        return HoKalmanResult(
            A_hat=zeros((n, n)), B_hat=zeros((n, 1)), C_hat=zeros((1, n)),
            L_hat=zeros((n, 1)), singular_values=s, n=n,
            predictor_spectral_radius=0.0, predictor_unstable=False,
            rank_deficient=True,
        )
    rank_deficient = int(np.sum(s > s[0] * 1e-10)) < n
    root = np.sqrt(s[:n])
    Obs = U[:, :n] * root
    Ctr = root[:, None] * Vt[:n, :]
    C_hat = Obs[0:1, :]
    B_hat = Ctr[:, -2:-1]
    L_hat = Ctr[:, -1:]
    A_tilde = least_squares(Obs[:-1, :], Obs[1:, :])
    rho = spectral_radius(A_tilde)
    A_hat = A_tilde + L_hat @ C_hat
    return HoKalmanResult(
        A_hat=A_hat,
        B_hat=B_hat,
        C_hat=C_hat,
        L_hat=L_hat,
        singular_values=s,
        n=n,
        predictor_spectral_radius=rho,
        predictor_unstable=bool(rho >= 1.0),
        rank_deficient=bool(rank_deficient),
    )


def fit_full_state(data: list[Trajectory], ell0: float, tau: float) -> StateSpaceModel:
    """Regress x(t+1) on (x(t), u(t)) and attach the readout [1, 0, ell0, 0]."""
    rows, nexts = [np.zeros((0, 5))], [np.zeros((0, 4))]
    for traj in data:
        if traj.x_full is None:
            raise ValueError("full-state fitting needs trajectories with x_full")
        rows.append(np.column_stack([traj.x_full[:-1], traj.u[:-1]]))
        nexts.append(traj.x_full[1:])
    rows, nexts = np.concatenate(rows), np.concatenate(nexts)
    dim = 4 + 1
    if len(rows) < dim:
        raise ValueError(f"insufficient data: {len(rows)} transitions, need at least {dim}")
    Theta = least_squares(rows, nexts)
    A = Theta[:4, :].T
    B = Theta[4:, :].T
    C = np.array([[1.0, 0.0, ell0, 0.0]])
    return StateSpaceModel(A, B, C, np.zeros((1, 1)), dt=tau)


def dataset_hash(data: list[Trajectory]) -> str:
    h = hashlib.sha256()
    for traj in data:
        h.update(traj.z.tobytes())
        h.update(traj.u.tobytes())
        if traj.x_full is not None:
            h.update(traj.x_full.tobytes())
    return h.hexdigest()


def save_dataset(out_dir, data: list[Trajectory], manifest: dict) -> str:
    """Write one trajectory CSV per run plus a manifest; returns the dataset hash."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, traj in enumerate(data):
        save_trajectory(out / f"traj_{i:04d}.csv", traj)
    digest = dataset_hash(data)
    manifest = dict(manifest)
    manifest.update({"n_trajectories": len(data), "total_samples": total_samples(data),
                     "dataset_hash": digest})
    with open(out / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return digest
