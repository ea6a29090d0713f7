"""Occluded cartpole balancing benchmark.

Fundamental robust-control limits (unstable pole/zero proximity set by a
tunable fixation point, plus calibrated sensing noise) and their effect on
two controller families: system identification with H-infinity synthesis,
and soft actor-critic over measurement histories.
"""

from .cartpole import (
    Dataset,
    EpisodeConfig,
    EpisodeResult,
    PhysicalParams,
    SensorSpec,
    SimState,
    linearize,
    make_sensor,
    run_episode,
    step,
)
from .controllers import Controller, LtiController, ZeroController
from .harness import ExperimentSpec, evaluate, max_stabilized_angle, run_sweep
from .limits import closed_loop, hinf_norm, pole_zero_bound
from .linalg import (
    StateSpaceModel,
    least_squares,
    poles,
    solve_dare,
    strictly_unstable,
    tf_eval,
    transmission_zeros,
)
from .sysid import ArxModel, HoKalmanResult, fit_arx, fit_full_state, ho_kalman
from .synthesis import build_generalized_plant, hinf_synthesize

__version__ = "0.1.0"
