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
import scipy.linalg

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
# linf_norm stops when no sample lifts its bound by more than this and certifies
# (1 + 2 rtol) times it: far inside the synthesis certificate's 1e-6, far above rounding.
_LINF_RTOL = 1e-9
# ||z| - 1| under which a pencil eigenvalue is a crossing; loose, as rounding pushes
# near-tangent ones off the circle (1e-5 misses some) and a false one only adds a sample.
_CROSSING_TOL = 1e-3


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
    M = np.exp(1j * omegas)[:, None, None] * np.eye(A.shape[0]) - A
    X = np.linalg.solve(M, np.broadcast_to(B.astype(complex), (len(omegas), *B.shape)))
    return np.linalg.svd(C.astype(complex) @ X + D, compute_uv=False)[:, 0]


def linf_norm(A, B, C, D=None) -> float:
    """Peak largest singular value of G(z) = C (zI - A)^-1 B + D on the unit circle.

    Level-set iteration (Boyd & Balakrishnan 1990; Bruinsma & Steinbuch 1990):
    a lower bound starts from the frequencies 0, pi and the angles of the
    eigenvalues of A; at the level gamma = (1 + 2 rtol) times the bound, the
    unit-circle eigenvalues z of a symplectic pencil, where gamma^2 I -
    G(1/z)' G(z) is singular, and their midpoints are sampled to raise it,
    until no sample raises it by more than rtol.  The result is a sample, so a
    lower bound, and (1 + 2 rtol) times it has no level crossing, so bounds
    the norm up to the accuracy of the pencil's eigenvalues.  For a stable
    model (the caller's concern) this is its H-infinity norm.
    """
    D = np.zeros((C.shape[0], B.shape[1])) if D is None else D
    n, m = B.shape
    On, Onm = np.zeros((n, n)), np.zeros((n, m))
    w = np.concatenate([[0.0, math.pi], np.abs(np.angle(np.linalg.eigvals(A)))])
    lower = float(_sigma_max(A, B, C, D, w).max())
    while True:
        # the pencil of G / gamma at level 1 keeps its blocks on the model's scale
        gamma = (1.0 + 2.0 * _LINF_RTOL) * lower
        s = gamma or 1.0
        Bs, Ds = B / s, D / s
        M = np.block([[A, On, Bs], [On, np.eye(n), Onm],
                      [-Ds.T @ C, -Bs.T, (gamma / s) ** 2 * np.eye(m) - Ds.T @ Ds]])
        N = np.block([[np.eye(n), On, Onm], [C.T @ C, A.T, C.T @ Ds],
                      [np.zeros((m, 2 * n + m))]])
        a, b = scipy.linalg.eig(M, N, right=False, homogeneous_eigvals=True)
        near = np.abs(np.abs(a) - np.abs(b)) <= _CROSSING_TOL * np.abs(b)
        w = np.unique(np.abs(np.angle(a[near] * np.conj(b[near]))))
        w = np.concatenate([w, 0.5 * (w[1:] + w[:-1])])
        best = float(_sigma_max(A, B, C, D, w).max(initial=0.0))
        if not best > (1.0 + _LINF_RTOL) * lower:
            return lower
        lower = best


def hinf_norm(model: StateSpaceModel) -> float:
    """Peak gain of a stable SISO model, certified by linf_norm.

    A lower bound on the norm that, times (1 + 2e-9), has no level crossing.
    Raises for unstable models, whose norm is not defined.
    """
    if model.p != 1 or model.q != 1:
        raise ValueError("hinf_norm is defined here for SISO models only")
    if model.n > 0 and spectral_radius(model.A) >= 1.0:
        raise ValueError("model is not stable; the H-infinity norm is unbounded")
    return linf_norm(model.A, model.B, model.C, model.D)


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
