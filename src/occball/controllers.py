"""Controller interface shared by the simulator, evaluation, and sweeps.

A controller sees one measurement per step and returns one force; reset()
clears any internal state between episodes.  Two families implement it:
linear time-invariant compensators (from synthesis) and trained policies
(from the actor-critic module), plus the trivial zero controller used as an
open-loop baseline.
"""

from __future__ import annotations

import json

import numpy as np

from .linalg import StateSpaceModel

__all__ = [
    "Controller",
    "ZeroController",
    "LtiController",
    "save_controller",
    "load_controller",
]


class Controller:
    def reset(self) -> None:
        pass

    def act(self, y: float) -> float:
        raise NotImplementedError


class ZeroController(Controller):
    def act(self, y: float) -> float:
        return 0.0


class LtiController(Controller):
    """Runs u = C x + D y, x <- A x + B y at the sensor rate.

    With D = 0 (every synthesized controller here) the force at step t
    depends on measurements up to t-1 only, i.e. the compensator is strictly
    causal.
    """

    def __init__(self, model: StateSpaceModel):
        if model.p != 1 or model.q != 1:
            raise ValueError("LtiController wraps SISO models only")
        self.model = model
        # bound once: act runs at every simulator step; a Python float D keeps
        # the output arithmetic off numpy scalars (same IEEE operations)
        self._A, self._b, self._C = model.A, model.B[:, 0], model.C
        self._d = float(model.D[0, 0])
        self._x = np.zeros(model.n)

    def reset(self) -> None:
        self._x = np.zeros(self.model.n)

    def act(self, y: float) -> float:
        # np.dot skips matmul's ufunc dispatch; both reach the same BLAS gemv,
        # so the bits are those of C @ x and A @ x
        x = self._x
        u = np.dot(self._C, x).item() + self._d * y
        self._x = np.dot(self._A, x) + self._b * y
        return u


def save_controller(path, model: StateSpaceModel, metadata: dict | None = None) -> None:
    """Persist a controller as JSON (row-major matrices plus metadata)."""
    payload = model.to_dict()
    payload["metadata"] = metadata or {}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_controller(path) -> tuple[StateSpaceModel, dict]:
    with open(path) as f:
        payload = json.load(f)
    metadata = payload.pop("metadata", {})
    return StateSpaceModel.from_dict(payload), metadata
