"""Fundamental-limit calculations: H-infinity norms, the complementary
sensitivity of a closed loop, and the unstable pole/zero lower bound on it.

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
    StateSpaceModel,
    UNIT_CIRCLE_TOL,
    pencil_eigvals,
    poles,
    spectral_radius,
    strictly_unstable,
    transmission_zeros,
)

__all__ = [
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
# an unstable pole and zero closer than this cancel: the bound is infinite
_COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class ClosedLoop:
    """Complementary sensitivity T of a closed loop and its internal stability."""

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
    k = 2 * n + m
    x, v, u = slice(0, n), slice(n, 2 * n), slice(2 * n, k)
    CtC = C.T @ C
    w = np.concatenate([[0.0, math.pi], np.abs(np.angle(np.linalg.eigvals(A)))])
    lower = float(_sigma_max(A, B, C, D, w).max())
    while True:
        # the pencil of G / gamma at level 1 keeps its blocks on the model's scale:
        # M = [[A, 0, Bs], [0, I, 0], [-Ds'C, -Bs', (gamma/s)^2 I - Ds'Ds]] and
        # N = [[I, 0, 0], [C'C, A', C'Ds], [0, 0, 0]], in Fortran order for QZ to work in place
        gamma = (1.0 + 2.0 * _LINF_RTOL) * lower
        s = gamma or 1.0
        Bs, Ds = B / s, D / s
        M = np.zeros((k, k), order="F")
        N = np.zeros((k, k), order="F")
        M[x, x], M[x, u], M[v, v] = A, Bs, np.eye(n)
        M[u, x], M[u, v], M[u, u] = -Ds.T @ C, -Bs.T, (gamma / s) ** 2 * np.eye(m) - Ds.T @ Ds
        N[x, x] = np.eye(n)
        N[v, x], N[v, v], N[v, u] = CtC, A.T, C.T @ Ds
        a, b = pencil_eigvals(M, N)
        near = np.abs(np.abs(a) - np.abs(b)) <= _CROSSING_TOL * np.abs(b)
        w = np.unique(np.abs(np.angle(a[near] * np.conj(b[near]))))
        w = np.concatenate([w, 0.5 * (w[1:] + w[:-1])])
        best = float(_sigma_max(A, B, C, D, w).max(initial=0.0))
        if not best > (1.0 + _LINF_RTOL) * lower:
            return lower
        lower = best


def hinf_norm(model: StateSpaceModel) -> float:
    """Peak gain of a stable model, certified by linf_norm.

    A lower bound on the norm that, times (1 + 2e-9), has no level crossing.
    Raises for unstable models, whose norm is not defined.
    """
    if spectral_radius(model.A) >= 1.0:
        raise ValueError("model is not stable; the H-infinity norm is unbounded")
    return linf_norm(model.A, model.B, model.C, model.D)


def pole_zero_bound(unstable_poles, unstable_zeros) -> float:
    """Lower bound on ||T||_inf from unstable poles p_i and zeros q_k:

        max_i prod_k |(1 - p_i^-1 q_k^-1) / (p_i^-1 - q_k^-1)|

    Inputs must already be restricted to strictly unstable values; marginal
    (unit-circle) poles and zeros contribute a factor of 1 in the limit and
    are excluded upstream by linalg.strictly_unstable.  The bound is 1.0
    with no unstable pole or no unstable zero, and inf when a pole and a
    zero coincide.
    """
    ps = [complex(p) for p in unstable_poles]
    qs = [complex(q) for q in unstable_zeros]
    for v in ps + qs:
        if abs(v) <= 1.0 + UNIT_CIRCLE_TOL:
            raise ValueError(f"{v} is not strictly unstable; filter marginal values upstream")
    if not ps or not qs:
        return 1.0
    best = 0.0
    for p in ps:
        prod = 1.0
        for q in qs:
            if abs(p - q) < _COINCIDENCE_TOL:
                return math.inf
            prod *= abs((1.0 - 1.0 / (p * q)) / (1.0 / p - 1.0 / q))
        best = max(best, prod)
    return best


def bound_for_model(model: StateSpaceModel) -> float:
    """Lower bound on ||T||_inf computed from a model's own poles and zeros."""
    return pole_zero_bound(strictly_unstable(poles(model)),
                           strictly_unstable(transmission_zeros(model)))


def closed_loop(plant: StateSpaceModel, controller: StateSpaceModel) -> ClosedLoop:
    """Close the loop u = K(y) around P, with K as LtiController runs it (u = C x + D y).

    Returns a realization of the complementary sensitivity T = -PK/(1 - PK)
    on the full interconnection state (controller states first, then plant
    states), so the internal-stability flag reflects every plant and
    controller mode.
    """
    P, K = plant, controller
    # the loop gain L = P(-K) in cascade form: input -> -K -> P -> output
    KC, KD = -K.C, -K.D
    nk = K.n
    A = np.zeros((nk + P.n, nk + P.n))
    A[:nk, :nk] = K.A
    A[nk:, nk:] = P.A
    A[nk:, :nk] = P.B @ KC
    B = np.vstack([K.B, P.B @ KD])
    C = np.hstack([P.D @ KC, P.C])
    D = (P.D @ KD)[0, 0]
    den = 1.0 + float(D)
    if abs(den) < 1e-12:
        raise ValueError("feedback loop is ill-posed (1 - P(inf)K(inf) = 0)")
    A_s = A - (B @ C) / den
    T = StateSpaceModel(A_s, B / den, C / den, np.array([[D / den]]), P.dt)
    stable = spectral_radius(A_s) < 1.0 - INTERNAL_STABILITY_MARGIN
    return ClosedLoop(T=T, internally_stable=stable)
