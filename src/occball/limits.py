"""Fundamental-limit calculations: H-infinity norms, sensitivity functions,
and the unstable pole/zero lower bound on the complementary sensitivity.

The bound makes the control difficulty induced by the fixation point
quantitative: as the fixation point drops, the unstable zero of the cartpole
approaches its unstable pole and the bound blows up, which no stabilizing
linear controller can evade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PoleZeroSet,
    StateSpaceModel,
    UNIT_CIRCLE_TOL,
    series,
    spectral_radius,
)

__all__ = [
    "BoundResult",
    "ClosedLoop",
    "hinf_norm",
    "linf_norm",
    "pole_zero_bound",
    "bound_for_model",
    "closed_loop",
]

INTERNAL_STABILITY_MARGIN = 1e-9


@dataclass(frozen=True)
class BoundResult:
    """Lower bound on ||T||_inf with flags for degenerate cases.

    vacuous: no unstable poles, so the bound carries no information.
    coincident: an unstable pole/zero coincided, making the bound infinite.
    """

    value: float
    vacuous: bool = False
    coincident: bool = False

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ClosedLoop:
    """Negative-feedback loop of plant P and controller C with its S and T."""

    plant: StateSpaceModel
    controller: StateSpaceModel
    S: StateSpaceModel
    T: StateSpaceModel
    internally_stable: bool


def _sigma_max(A, B, C, D, omegas: np.ndarray) -> np.ndarray:
    """Largest singular value of C (e^{j omega} I - A)^-1 B + D, batched over omegas."""
    n = A.shape[0]
    if n == 0:
        return np.full(len(omegas), np.linalg.svd(D, compute_uv=False)[0])
    M = np.exp(1j * omegas)[:, None, None] * np.eye(n) - A
    X = np.linalg.solve(M, np.broadcast_to(B.astype(complex), (len(omegas), *B.shape)))
    return np.linalg.svd(C.astype(complex) @ X + D, compute_uv=False)[:, 0]


def linf_norm(A, B, C, D=None, grid_size: int = 2048) -> float:
    """Peak largest singular value of C (zI - A)^-1 B + D over the unit circle.

    Evaluates a uniform grid over omega in [0, pi], then refines the grid
    argmax by golden-section search.  Stability is the caller's concern: for
    a stable model this is its H-infinity norm.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    D = np.zeros((C.shape[0], B.shape[1])) if D is None else D

    def f(w):
        return float(_sigma_max(A, B, C, D, np.array([w]))[0])

    omegas = np.linspace(0.0, math.pi, grid_size)
    vals = _sigma_max(A, B, C, D, omegas)
    k = int(np.argmax(vals))
    a, b = omegas[max(k - 1, 0)], omegas[min(k + 1, grid_size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if b - a <= 1e-12:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return max(float(vals[k]), f1, f2)


def hinf_norm(model: StateSpaceModel, grid_size: int = 4096) -> float:
    """Peak gain over the unit circle for a stable SISO model.

    The grid-plus-golden-section search of linf_norm on a finer grid.
    Raises for unstable models, whose norm is not defined.
    """
    if model.p != 1 or model.q != 1:
        raise ValueError("hinf_norm is defined here for SISO models only")
    if model.n > 0 and spectral_radius(model.A) >= 1.0:
        raise ValueError("model is not stable; the H-infinity norm is unbounded")
    return linf_norm(model.A, model.B, model.C, model.D, grid_size)


def pole_zero_bound(unstable_poles, unstable_zeros, coincidence_tol: float = 1e-12) -> BoundResult:
    """Lower bound on ||T||_inf from unstable poles p_i and zeros q_k:

        max_i prod_k |(1 - p_i^-1 q_k^-1) / (p_i^-1 - q_k^-1)|

    Inputs must already be restricted to strictly unstable values; marginal
    (unit-circle) poles and zeros contribute a factor of 1 in the limit and
    are excluded upstream by PoleZeroSet.
    """
    ps = [complex(p) for p in unstable_poles]
    qs = [complex(q) for q in unstable_zeros]
    for v in ps + qs:
        if abs(v) <= 1.0 + UNIT_CIRCLE_TOL:
            raise ValueError(f"{v} is not strictly unstable; filter marginal values upstream")
    if not ps:
        return BoundResult(1.0, vacuous=True)
    if not qs:
        return BoundResult(1.0)
    best = 0.0
    for p in ps:
        prod = 1.0
        for q in qs:
            if abs(p - q) < coincidence_tol:
                return BoundResult(math.inf, coincident=True)
            prod *= abs((1.0 - 1.0 / (p * q)) / (1.0 / p - 1.0 / q))
        best = max(best, prod)
    return BoundResult(best)


def bound_for_model(model: StateSpaceModel, tol: float = UNIT_CIRCLE_TOL) -> BoundResult:
    """Lower bound on ||T||_inf computed from a model's own poles and zeros."""
    pz = PoleZeroSet.from_model(model, tol)
    return pole_zero_bound(pz.unstable_poles(), pz.unstable_zeros())


def closed_loop(plant: StateSpaceModel, controller: StateSpaceModel) -> ClosedLoop:
    """Close the negative-feedback loop u = -C y around P.

    Returns realizations of the sensitivity S = 1/(1+PC) and complementary
    sensitivity T = PC/(1+PC) sharing the full interconnection state, so the
    internal-stability flag reflects every plant and controller mode.
    """
    if plant.p != 1 or plant.q != 1 or controller.p != 1 or controller.q != 1:
        raise ValueError("closed_loop expects SISO plant and controller")
    L = series(controller, plant)
    den = 1.0 + float(L.D[0, 0])
    if abs(den) < 1e-12:
        raise ValueError("feedback loop is ill-posed (1 + P(inf)C(inf) = 0)")
    A_s = L.A - (L.B @ L.C) / den
    B_s = L.B / den
    S = StateSpaceModel(A_s, B_s, -L.C / den, np.array([[1.0 / den]]), plant.dt)
    T = StateSpaceModel(A_s, B_s, L.C / den, np.array([[L.D[0, 0] / den]]), plant.dt)
    stable = spectral_radius(A_s) < 1.0 - INTERNAL_STABILITY_MARGIN
    return ClosedLoop(plant=plant, controller=controller, S=S, T=T, internally_stable=stable)
