"""Discrete-time H-infinity output-feedback synthesis on identified models.

The identified model is wrapped in a generalized plant with a process
disturbance on every state, a measurement disturbance on the output, and a
performance output stacking the states above an epsilon-weighted control
effort.  Synthesis bisects the attenuation level gamma.  Each level is
decided by the control game (a game Riccati equation for X, giving the
worst-case state feedback), the filter game for the disturbance-residual
system (giving a worst-case prediction observer) and a certificate.  The
filter game has a saddle solution exactly when the estimation game has one,
Y, with the spectral radius of XY below gamma^2 (Doyle, Glover, Khargonekar
and Francis 1989), so Y is never formed.  The certificate asks the closed
loop with the design model to be internally stable with disturbance-to-
performance gain within the level, so a formula slip cannot return a bad one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DareInfeasibleError,
    StateSpaceModel,
    doubling,
    solve_dare,
    spectral_radius,
)
from .limits import linf_norm

__all__ = [
    "GeneralizedPlant",
    "SynthesizedController",
    "EPSILON_BY_TIER",
    "build_generalized_plant",
    "hinf_synthesize",
]

# control-effort weights cross-validated per sensor tier
EPSILON_BY_TIER = {
    "noise_free": 5e-3,
    "depth_like": 1e-6,
    "rgb_like": 1e-6,
}

# gamma bisection range, and the relative bracket width at which it stops
GAMMA_LO, GAMMA_HI, GAMMA_REL_TOL = 1e-2, 1e6, 1e-3


class GameDareInfeasible(RuntimeError):
    """The game Riccati equation has no certified saddle-point solution."""


@dataclass(frozen=True)
class GeneralizedPlant:
    """Synthesis plant with w = [w_x; w_y], z = [x; eps*u]."""

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    D12: np.ndarray
    C2: np.ndarray
    D21: np.ndarray
    epsilon: float
    dt: float = 1.0

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SynthesizedController:
    """Output of hinf_synthesize.

    gamma_achieved is the measured closed-loop disturbance-to-performance
    norm of the returned controller on the design model; gamma_design is the
    smallest bisection level that certified.  When infeasible, reason
    names the condition that failed at the top of the gamma range.
    """

    controller: StateSpaceModel | None
    gamma_achieved: float
    epsilon: float
    feasible: bool
    gamma_design: float = math.nan
    reason: str = ""


def build_generalized_plant(model: StateSpaceModel, epsilon: float) -> GeneralizedPlant:
    """Augment an identified SISO model with disturbance and cost channels."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    n = model.n
    B1 = np.hstack([np.eye(n), np.zeros((n, 1))])
    C1 = np.vstack([np.eye(n), np.zeros((1, n))])
    D12 = np.vstack([np.zeros((n, 1)), [[epsilon]]])
    D21 = np.hstack([np.zeros((1, n)), [[1.0]]])
    return GeneralizedPlant(
        A=model.A, B1=B1, B2=model.B, C1=C1, D12=D12,
        C2=model.C, D21=D21, epsilon=float(epsilon), dt=model.dt,
    )


def _is_pd(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(0.5 * (M + M.T))
        return True
    except np.linalg.LinAlgError:
        return False


def _game_dare(A, B, S, Q, R, n_pos: int):
    """Stabilizing solution of the indefinite-cost (game) DARE.

    Solves X = Q + A'XA - (A'XB + S)(R + B'XB)^-1 (B'XA + S') where the
    first n_pos input channels are minimizers and the rest maximizers.  R is
    indefinite but nonsingular, so the cross term S substitutes out and the
    equation goes to the structured doubling kernel; two Newton (Hewer)
    steps then refine X, each solving its Stein equation with the same
    kernel.  X is certified afterwards: R + B'XB must have saddle inertia
    (leading block positive definite, trailing Schur complement negative
    definite), the residual must pass the solve_dare bound, and A - BK must
    be stable.  Any failure means the requested level is infeasible.
    Returns X, the gain K and R + B'XB.
    """

    def gain_and_residual(X):
        BtX, AtX = B.T.dot(X), A.T.dot(X)  # the products of @ at half its dispatch cost
        K = np.linalg.solve(R + BtX.dot(B), BtX.dot(A) + S.T)
        res = Q + AtX.dot(A) - (AtX.dot(B) + S).dot(K) - X
        return K, 0.5 * (res + res.T)

    try:
        R_inv_St = np.linalg.solve(R, S.T)
        G = B @ np.linalg.solve(R, B.T)
        X = doubling(A - B @ R_inv_St, G, Q - S @ R_inv_St)
        for _ in range(2):
            K, res = gain_and_residual(X)
            X = X + doubling(A - B @ K, np.zeros_like(G), res)
        K, res = gain_and_residual(X)
    except (DareInfeasibleError, np.linalg.LinAlgError) as exc:
        raise GameDareInfeasible(f"game Riccati solve failed: {exc}") from exc
    Rx = R + B.T @ X @ B
    Ruu = Rx[:n_pos, :n_pos]
    if not _is_pd(Ruu):
        raise GameDareInfeasible("minimizer block is not positive definite")
    Rue = Rx[:n_pos, n_pos:]
    schur = Rx[n_pos:, n_pos:] - Rue.T @ np.linalg.solve(Ruu, Rue)
    if np.linalg.eigvalsh(0.5 * (schur + schur.T)).max() >= 0.0:
        raise GameDareInfeasible("maximizer block is not negative definite")
    res_norm = np.linalg.norm(res, "fro")
    if not res_norm <= 1e-8 * (1.0 + np.linalg.norm(X, "fro")):
        raise GameDareInfeasible(f"game Riccati residual {res_norm:.3e} too large")
    if spectral_radius(A - B @ K) >= 1.0:
        raise GameDareInfeasible("saddle-point closed loop is not stable")
    return X, K, Rx


def _attempt_level(plant: GeneralizedPlant, gamma: float):
    """Construct and certify the central controller at one gamma level."""
    A, B1, B2 = plant.A, plant.B1, plant.B2
    C1, D12, C2, D21 = plant.C1, plant.D12, plant.C2, plant.D21
    nw = B1.shape[1]

    # control game: X-DARE over inputs [u; w]
    B = np.hstack([B2, B1])
    R = np.zeros((1 + nw, 1 + nw))
    R[0, 0] = plant.epsilon**2
    R[1:, 1:] = -gamma**2 * np.eye(nw)
    _, Kx, J = _game_dare(A, B, np.zeros((plant.n, 1 + nw)), C1.T @ C1, R, n_pos=1)
    F2 = Kx[0:1, :]
    F1 = Kx[1:, :]

    J11 = J[:1, :1]
    J12 = J[:1, 1:]
    W = -(J[1:, 1:] - J12.T @ np.linalg.solve(J11, J12))
    eigw, Vw = np.linalg.eigh(0.5 * (W + W.T))
    if eigw.min() <= 0.0:
        raise GameDareInfeasible("disturbance weight W lost positive definiteness")
    Wmh = Vw @ np.diag(1.0 / np.sqrt(eigw)) @ Vw.T

    # prediction filter for the disturbance-residual system
    Abar = A - B1 @ F1
    C2bar = C2 - D21 @ F1
    B1b = B1 @ Wmh
    D21b = D21 @ Wmh
    sq_j11 = math.sqrt(J11[0, 0].item())
    C1b = sq_j11 * F2
    D11b = (J12 @ Wmh) / sq_j11
    Bf = np.hstack([C2bar.T, C1b.T])
    Sf = np.hstack([B1b @ D21b.T, B1b @ D11b.T])
    Rf = np.array(
        [
            [(D21b @ D21b.T).item(), (D21b @ D11b.T).item()],
            [(D11b @ D21b.T).item(), (D11b @ D11b.T).item() - 1.0],
        ]
    )
    _, Kf, _ = _game_dare(Abar.T, Bf, Sf, B1b @ B1b.T, Rf, n_pos=1)
    L = Kf[0:1, :].T

    Ak = Abar - B2 @ F2 - L @ C2bar
    controller = StateSpaceModel(Ak, L, -F2, np.zeros((1, 1)), plant.dt)

    # a-posteriori certificate on the design interconnection
    n = plant.n
    Acl = np.zeros((2 * n, 2 * n))
    Acl[:n, :n], Acl[:n, n:], Acl[n:, :n], Acl[n:, n:] = A, -B2 @ F2, L @ C2, Ak
    Bcl = np.vstack([B1, L @ D21])
    Ccl = np.hstack([C1, -D12 @ F2])
    cl_norm = linf_norm(Acl, Bcl, Ccl)
    if cl_norm == math.inf:
        raise GameDareInfeasible("certified closed loop is unstable")
    if cl_norm > gamma * (1.0 + 1e-6):
        raise GameDareInfeasible(
            f"certificate failed: closed-loop norm {cl_norm:.6g} above level {gamma:.6g}"
        )
    return controller, cl_norm


def hinf_synthesize(plant: GeneralizedPlant) -> SynthesizedController:
    """Bisect the attenuation level and return the best certified controller.

    Preconditions (stabilizability of (A, B2) and detectability of (C2, A))
    are checked through ordinary DARE feasibility before any level is tried;
    failures come back as feasible=False with the failing condition named.
    """

    def infeasible(reason):
        return SynthesizedController(None, math.inf, plant.epsilon, False, reason=reason)

    for A, B, reason in ((plant.A, plant.B2, "(A, B2) is not stabilizable"),
                         (plant.A.T, plant.C2.T, "(C2, A) is not detectable")):
        try:
            solve_dare(A, B, np.eye(plant.n), np.eye(1))
        except DareInfeasibleError:
            return infeasible(reason)

    def attempt(gamma):
        try:
            return _attempt_level(plant, gamma)
        except GameDareInfeasible as exc:
            return exc

    top = attempt(GAMMA_HI)
    if isinstance(top, GameDareInfeasible):
        return infeasible(f"infeasible at gamma={GAMMA_HI:g}: {top}")
    best_gamma, best = GAMMA_HI, top

    bottom = attempt(GAMMA_LO)
    if not isinstance(bottom, GameDareInfeasible):
        best_gamma, best = GAMMA_LO, bottom
    else:
        llo, lhi = math.log(GAMMA_LO), math.log(GAMMA_HI)
        while lhi - llo > math.log1p(GAMMA_REL_TOL):
            mid = 0.5 * (llo + lhi)
            result = attempt(math.exp(mid))
            if isinstance(result, GameDareInfeasible):
                llo = mid
            else:
                lhi = mid
                best_gamma, best = math.exp(mid), result
    controller, cl_norm = best
    return SynthesizedController(
        controller=controller,
        gamma_achieved=cl_norm,
        epsilon=plant.epsilon,
        feasible=True,
        gamma_design=best_gamma,
    )

