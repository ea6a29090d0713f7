"""Nonlinear cartpole simulator with a tunable fixation-point sensor.

The pole is balanced on a cart driven by a horizontal force.  The sensor
reports the horizontal position of a single fixation point at height ell0
along the pole, z = h + ell0 * sin(theta), optionally corrupted by Gaussian
noise calibrated to depth-like or rgb-like perception error.  Dynamics are
integrated with explicit Euler so that the analytic linearization below is
exactly the Jacobian of one simulator step.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, asdict

import numpy as np

from .linalg import StateSpaceModel
from .rngtools import chunked, substream

__all__ = [
    "PhysicalParams",
    "SimState",
    "SensorSpec",
    "EpisodeConfig",
    "EpisodeResult",
    "Dataset",
    "SENSOR_TIERS",
    "SENSOR_STREAM",
    "check_count",
    "check_fields",
    "make_sensor",
    "step",
    "linearize",
    "sample_initial_state",
    "simulate",
    "run_episode",
    "save_trajectory",
    "episode_metadata",
]

# tier -> noise std as a fraction of the observation range
SENSOR_TIERS = {
    "noise_free": 0.0,
    "depth_like": 0.0003,
    "rgb_like": 0.0025,
}
# name of the substream sensor noise is drawn from
SENSOR_STREAM = "sensor"


def check_count(name: str, value, low: int) -> None:
    """Raise a ValueError naming value unless it is an integer >= low (a bool is not)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_fields(obj, positive=(), nonnegative=()):
    """Raise a ValueError naming the first field that is not finite or is out of range."""
    for name in positive + nonnegative:
        value = getattr(obj, name)
        if not (math.isfinite(value) and (value > 0 or (value == 0 and name in nonnegative))):
            kind = "non-negative" if name in nonnegative else "positive"
            raise ValueError(f"{name} must be finite and {kind}, got {value}")


@dataclass(frozen=True)
class PhysicalParams:
    """Cartpole constants: cart/pole mass, pole length, gravity, step, fixation."""

    M: float = 1.0
    m: float = 0.1
    ell: float = 1.0
    g: float = 9.81
    tau: float = 0.02
    ell0: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("M", "m", "ell", "g", "tau"))
        if not (0 < self.ell0 <= self.ell):
            raise ValueError("fixation point must satisfy 0 < ell0 <= ell")


class SimState(namedtuple("SimState", "h h_dot theta theta_dot")):
    """Immutable state with finite entries; a named tuple, as one is built per step."""

    __slots__ = ()

    def __new__(cls, h=0.0, h_dot=0.0, theta=0.0, theta_dot=0.0):
        if not (math.isfinite(h) and math.isfinite(h_dot)
                and math.isfinite(theta) and math.isfinite(theta_dot)):
            raise ValueError("state entries must be finite")
        return tuple.__new__(cls, (h, h_dot, theta, theta_dot))


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 500
    init_halfwidth: float = 0.05
    h_limit: float = 0.6
    theta_limit_deg: float = 15.0
    seed: int = 0

    def __post_init__(self):
        check_count("max_steps", self.max_steps, 1)
        check_fields(self, positive=("h_limit", "theta_limit_deg"),
                     nonnegative=("init_halfwidth",))

    @property
    def theta_limit(self) -> float:
        return math.radians(self.theta_limit_deg)


@dataclass(frozen=True)
class SensorSpec:
    """Observation noise tier; sigma = noise_frac * z_range."""

    tier: str = "noise_free"
    noise_frac: float = 0.0
    z_range: float = 0.0

    def __post_init__(self):
        check_fields(self, nonnegative=("noise_frac", "z_range"))

    @property
    def sigma(self) -> float:
        return self.noise_frac * self.z_range


def make_sensor(tier: str, params: PhysicalParams) -> SensorSpec:
    """Sensor for a tier, with z_range set by the default termination box.

    The observation range is 2 * (h_limit + ell0 * sin(theta_limit)), the
    extreme spread of z over states inside the termination box.
    """
    if tier not in SENSOR_TIERS:
        raise ValueError(f"unknown sensor tier {tier!r}; choose from {sorted(SENSOR_TIERS)}")
    box = EpisodeConfig()
    z_range = 2.0 * (box.h_limit + params.ell0 * math.sin(box.theta_limit))
    return SensorSpec(tier, SENSOR_TIERS[tier], z_range)


@dataclass(frozen=True, init=False)
class Dataset:
    """The one record of simulated samples: runs end to end, run i the next lengths[i] rows.

    z (measurements y) and u (forces) are float64 of one length N, x_full the N x 4
    pre-step states, and lengths one entry >= 1 per run, summing to N.  simulate
    returns one run, with lengths (N,); sysid.collect_budget fills one with many.
    """

    z: np.ndarray
    u: np.ndarray
    x_full: np.ndarray
    lengths: np.ndarray

    # simulate builds one per episode: each field is set once, not twice as by a frozen
    # dataclass's __init__, and counts are checked as ints, not by costlier numpy reductions
    def __init__(self, z, u, x_full, lengths):
        z = np.asarray(z, dtype=float).ravel()
        u = np.asarray(u, dtype=float).ravel()
        lengths = np.asarray(lengths, dtype=np.intp).ravel()
        counts = lengths.tolist()
        if len(u) != len(z) or sum(counts) != len(z) or min(counts, default=1) < 1:
            raise ValueError(f"z ({len(z)}) and u ({len(u)}) must have one length, split into "
                             f"runs of at least one sample by lengths (sum {sum(counts)})")
        states = np.ascontiguousarray(x_full, dtype=float)
        if states.shape != (len(z), 4):
            raise ValueError(f"x_full must hold {len(z)} x 4 states, one per sample, "
                             f"got shape {np.shape(x_full)}")
        set_field = object.__setattr__
        set_field(self, "z", z)
        set_field(self, "u", u)
        set_field(self, "x_full", states)
        set_field(self, "lengths", lengths)

    def __len__(self) -> int:
        return len(self.z)

    def runs(self):
        """Each run as a one-run Dataset of views into the flat arrays, in order."""
        ends = np.cumsum(self.lengths).tolist()
        for start, end in zip([0] + ends, ends):
            yield Dataset(z=self.z[start:end], u=self.u[start:end],
                          x_full=self.x_full[start:end], lengths=(end - start,))


@dataclass(frozen=True)
class EpisodeResult:
    steps: int
    success: bool
    cause: str
    seed: int

    @property
    def reward(self) -> float:
        return float(self.steps)


def step(params: PhysicalParams, state: SimState, u: float) -> SimState:
    """One explicit-Euler step; all right-hand sides use the pre-step state.

    The accelerations solve the 2x2 system
        (M+m) hdd + m*ell*tdd = u + m*ell*td^2*sin(theta)
        cos(theta) hdd + ell*tdd = g*sin(theta)
    which is nonsingular for every admissible parameter set.
    """
    isfinite = math.isfinite
    h, h_dot, theta, theta_dot = state
    m, ell, g, tau = params.m, params.ell, params.g, params.tau
    s = math.sin(theta)
    c = math.cos(theta)
    denom = params.M + m * (1.0 - c)
    h_ddot = (u + m * ell * theta_dot**2 * s - m * g * s) / denom
    theta_ddot = (g * s - c * h_ddot) / ell
    h, h_dot = h + tau * h_dot, h_dot + tau * h_ddot
    theta, theta_dot = theta + tau * theta_dot, theta_dot + tau * theta_ddot
    # SimState's own check, inlined: step runs once per simulated step
    if not (isfinite(h) and isfinite(h_dot) and isfinite(theta) and isfinite(theta_dot)):
        raise ValueError("state entries must be finite")
    return tuple.__new__(SimState, (h, h_dot, theta, theta_dot))


def linearize(params: PhysicalParams) -> StateSpaceModel:
    """Euler-discretized linearization about the upright equilibrium.

    State ordering (h, h_dot, theta, theta_dot); A_d = I + tau*A_c and
    B_d = tau*B_c match the Jacobian of step() at the origin exactly.
    The output row C = [1, 0, ell0, 0] reads z = h + ell0*theta.
    """
    M, m, ell, g, tau = params.M, params.m, params.ell, params.g, params.tau
    Ac = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -m * g / M, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, (M + m) * g / (M * ell), 0.0],
        ]
    )
    Bc = np.array([[0.0], [1.0 / M], [0.0], [-1.0 / (M * ell)]])
    A = np.eye(4) + tau * Ac
    B = tau * Bc
    C = np.array([[1.0, 0.0, params.ell0, 0.0]])
    D = np.zeros((1, 1))
    return StateSpaceModel(A, B, C, D, dt=tau)


def sample_initial_state(config: EpisodeConfig, rng: np.random.Generator) -> SimState:
    w = config.init_halfwidth
    return SimState(*rng.uniform(-w, w, size=4).tolist())


def simulate(
    params: PhysicalParams,
    config: EpisodeConfig,
    controller,
    sensor: SensorSpec,
    state: SimState,
    rng_sensor: np.random.Generator | None,
    h_origin: float = 0.0,
):
    """The one simulation loop: observe, act, step, check the box.

    The controller is reset, then at each step sees the current measurement y
    and returns the force u.  The episode ends when the cart drifts more than
    h_limit from h_origin or the angle leaves its limit, when the controller
    emits a non-finite force, or after max_steps.  Returns the result, the
    episode as a one-run Dataset (y, u and pre-step state per step), and the
    measurement of the state it ended in, taken as the sensor stream's next
    draw.
    Sensor noise is drawn from rng_sensor in chunks, so its position after
    the call is past the last draw used.
    """
    controller.reset()
    h_limit, theta_limit = config.h_limit, config.theta_limit
    # the measurement y = h + ell0 sin(theta) + sigma * noise, lookups hoisted
    ell0, sigma, sin = params.ell0, sensor.sigma, math.sin
    if sigma > 0.0:
        if rng_sensor is None:
            raise ValueError("a noisy sensor needs its RNG substream")
        noise = chunked(rng_sensor.standard_normal).__next__
    # bound per call, not at import: the benchmark wraps step and act in place
    act, step_ = controller.act, step
    zs, us, xs = [], [], []
    steps = 0
    cause = "completed"
    for _ in range(config.max_steps):
        y = state.h + ell0 * sin(state.theta)
        if sigma > 0.0:
            y += sigma * noise()
        u = float(act(y))
        zs.append(y)
        us.append(u)
        xs.append(state)
        if not math.isfinite(u):
            cause = "nonfinite_action"
            break
        state = step_(params, state, u)
        if abs(state.h - h_origin) > h_limit:
            cause = "h_limit"
            break
        if abs(state.theta) > theta_limit:
            cause = "theta_limit"
            break
        steps += 1
    y_end = state.h + ell0 * sin(state.theta)
    if sigma > 0.0:
        y_end += sigma * noise()
    result = EpisodeResult(steps=steps, success=cause == "completed", cause=cause, seed=config.seed)
    n = len(xs)
    x_full = np.fromiter(itertools.chain.from_iterable(xs), float, 4 * n).reshape(-1, 4)
    traj = Dataset(z=np.fromiter(zs, float, n), u=np.fromiter(us, float, n), x_full=x_full,
                   lengths=(n,))
    return result, traj, y_end


def run_episode(
    params: PhysicalParams,
    config: EpisodeConfig,
    controller,
    sensor: SensorSpec,
    init_state: SimState | None = None,
):
    """Simulate one episode from config.seed's "init" and sensor substreams.

    Returns simulate's (result, run, y_end).  Reward equals the number of steps
    survived inside the box; success means the full horizon was survived.  Only
    the substreams the episode draws from are seeded (about 10 us each): none
    for the sensor on a noise-free tier, and no "init" when init_state is given.
    """
    rng_sensor = substream(config.seed, SENSOR_STREAM) if sensor.sigma > 0.0 else None
    if init_state is None:
        init_state = sample_initial_state(config, substream(config.seed, "init"))
    return simulate(params, config, controller, sensor, init_state, rng_sensor)


_TRAJ_COLUMNS = ("t", "h", "h_dot", "theta", "theta_dot", "u", "y")


def save_trajectory(path, traj: Dataset, meta: dict | None = None) -> None:
    """Write a run as CSV, one row per sample; optional metadata goes to a JSON sidecar."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_TRAJ_COLUMNS)
        for t in range(len(traj)):
            writer.writerow([t, *(repr(float(v)) for v in (*traj.x_full[t], traj.u[t], traj.z[t]))])
    if meta is not None:
        with open(str(path) + ".meta.json", "w") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")


def episode_metadata(params: PhysicalParams, config: EpisodeConfig,
                     sensor: SensorSpec, result: EpisodeResult) -> dict:
    return {
        "params": asdict(params),
        "config": asdict(config),
        "sensor": {"tier": sensor.tier, "noise_frac": sensor.noise_frac,
                   "z_range": sensor.z_range},
        "result": asdict(result),
    }
