"""Controller interface shared by the simulator, evaluation, and sweeps.

A controller sees one measurement per step and returns one force; reset()
clears any internal state between episodes.  Two families implement it:
linear time-invariant compensators (from synthesis) and trained policies
(from the actor-critic module), plus the trivial zero controller used as an
open-loop baseline.
"""

from __future__ import annotations

import json

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

    The step is one straight-line function generated from the model at
    construction.  The state is a tuple of floats, and every coefficient is
    written into the source as a float literal, which round-trips exactly.
    The output and each row of A x + B y is the left-to-right chain
    c0*x0 + c1*x1 + ... + c(n-1)*x(n-1) + d*y, input term last, in plain
    float arithmetic: the source text alone fixes every rounding, whatever
    the Python version or linear-algebra library.
    """

    def __init__(self, model: StateSpaceModel):
        self.model = model
        self._step = _compile_step(model)
        self._zero = (0.0,) * model.n
        self._x = self._zero

    def reset(self) -> None:
        self._x = self._zero

    def act(self, y: float) -> float:
        u, self._x = self._step(self._x, y)
        return u


# products per statement: a longer chain nests too deep for the compiler
_CHAIN_TERMS = 256


def _chain(target: str, coefs, terms) -> list[str]:
    """Statements assigning target the left-to-right sum of coef*term."""
    products = [f"{float(c)!r}*{t}" for c, t in zip(coefs, terms)]
    chunks = [" + ".join(products[k:k + _CHAIN_TERMS])
              for k in range(0, len(products), _CHAIN_TERMS)]
    return [f"{target} = {chunks[0]}"] + [f"{target} = {target} + {c}" for c in chunks[1:]]


def _compile_step(model: StateSpaceModel):
    """step(x, y) -> (C x + D y, A x + B y) as straight-line float arithmetic."""
    xs = [f"x{i}" for i in range(model.n)]
    terms = xs + ["y"]
    body = _chain("u", [*model.C[0], model.D[0, 0]], terms)
    for i, x in enumerate(xs):
        body += _chain(f"{x}_", [*model.A[i], model.B[i, 0]], terms)
    body.insert(0, f"{', '.join(xs)}, = x")
    state = "".join(f"{x}_, " for x in xs)
    source = "def step(x, y):\n" + "".join(f"    {line}\n" for line in body)
    source += f"    return u, ({state})\n"
    namespace = {}
    exec(source, namespace)
    return namespace["step"]


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
