"""Discrete-time state-space models and the shared numerical kernels.

All routines are pure functions on immutable inputs: models are small dense
numpy matrices, nothing here keeps global state, and everything is safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "StateSpaceModel",
    "PoleZeroSet",
    "DareInfeasibleError",
    "PoleEvaluationError",
    "tf_eval",
    "poles",
    "transmission_zeros",
    "least_squares",
    "solve_dare",
    "spectral_radius",
    "series",
    "negate_output",
]

UNIT_CIRCLE_TOL = 1e-7
# doubling converges quadratically: a cap far above its need, a rounding-level stop
_MAX_DOUBLINGS, _DOUBLING_TOL = 100, 1e-14


class PoleEvaluationError(ValueError):
    """Transfer-function evaluation requested (numerically) at a pole."""


class DareInfeasibleError(RuntimeError):
    """No stabilizing Riccati solution was found within the iteration cap."""


def _matrix(x, dtype=float) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class StateSpaceModel:
    """Discrete LTI model x+ = A x + B u, y = C x + D u with step size dt."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        A = _matrix(self.A)
        B = _matrix(self.B)
        C = _matrix(self.C)
        D = _matrix(self.D)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            # allow a row vector C for the common SISO case
            if n == 0 and C.size == 0:
                C = C.reshape(C.shape[0] if C.ndim == 2 else 1, 0)
            else:
                raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ValueError(
                f"D shape {D.shape} inconsistent with C rows {C.shape[0]} "
                f"and B columns {B.shape[1]}"
            )
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            if mat.size and not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} contains non-finite entries")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            mat = mat.copy()
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.C.shape[0]

    @classmethod
    def static_gain(cls, d, dt: float = 1.0) -> "StateSpaceModel":
        """A memoryless model y = d * u (no states)."""
        D = _matrix(d)
        q, p = D.shape
        return cls(np.zeros((0, 0)), np.zeros((0, p)), np.zeros((q, 0)), D, dt)

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
            "dt": self.dt,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StateSpaceModel":
        D = np.array(d["D"], dtype=float)
        if D.ndim != 2:
            D = D.reshape(1, -1)
        q, p = D.shape
        n = len(d["A"])
        return cls(
            np.array(d["A"], dtype=float).reshape(n, n),
            np.array(d["B"], dtype=float).reshape(n, p),
            np.array(d["C"], dtype=float).reshape(q, n),
            D,
            float(d["dt"]),
        )


@dataclass(frozen=True)
class PoleZeroSet:
    """Poles and finite transmission zeros with a unit-circle classification."""

    poles: tuple = ()
    zeros: tuple = ()
    unit_circle_tol: float = UNIT_CIRCLE_TOL

    @classmethod
    def from_model(cls, model: StateSpaceModel, tol: float = UNIT_CIRCLE_TOL):
        return cls(tuple(poles(model)), tuple(transmission_zeros(model)), tol)

    def _split(self, values):
        stable, marginal, unstable = [], [], []
        for v in values:
            r = abs(v)
            if r < 1.0 - self.unit_circle_tol:
                stable.append(v)
            elif r > 1.0 + self.unit_circle_tol:
                unstable.append(v)
            else:
                marginal.append(v)
        return stable, marginal, unstable

    def stable_poles(self):
        return self._split(self.poles)[0]

    def marginal_poles(self):
        return self._split(self.poles)[1]

    def unstable_poles(self):
        return self._split(self.poles)[2]

    def stable_zeros(self):
        return self._split(self.zeros)[0]

    def marginal_zeros(self):
        return self._split(self.zeros)[1]

    def unstable_zeros(self):
        return self._split(self.zeros)[2]


def tf_eval(model: StateSpaceModel, zeta: complex) -> np.ndarray:
    """Evaluate C (zeta I - A)^-1 B + D.

    Raises PoleEvaluationError when zeta is numerically indistinguishable
    from an eigenvalue of A (condition number above ~1e13).
    """
    zeta = complex(zeta)
    if model.n == 0:
        return model.D.astype(complex)
    M = zeta * np.eye(model.n) - model.A
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e13:
        raise PoleEvaluationError(
            f"zeta={zeta} is (close to) a pole of the model (cond={cond:.2e})"
        )
    X = np.linalg.solve(M, model.B.astype(complex))
    return model.C @ X + model.D


def poles(model: StateSpaceModel) -> list:
    """Eigenvalues of A, sorted by (real, imag) for reproducibility."""
    if model.n == 0:
        return []
    w = np.linalg.eigvals(model.A)
    return sorted((complex(v) for v in w), key=lambda v: (v.real, v.imag))


def transmission_zeros(model: StateSpaceModel, finite_tol: float = 1e-8) -> list:
    """Finite transmission zeros of a SISO model via the system pencil.

    Solves the generalized eigenvalue problem on [[A - zeta I, B], [C, D]];
    generalized eigenvalues with a vanishing denominator (beta ~ 0) are the
    zeros at infinity and are dropped.
    """
    if model.p != 1 or model.q != 1:
        raise ValueError("transmission zeros are supported for SISO models only")
    n = model.n
    if n == 0:
        return []
    M = np.block([[model.A, model.B], [model.C, model.D]])
    N = np.zeros_like(M)
    N[:n, :n] = np.eye(n)
    ab = scipy.linalg.eig(M, N, right=False, homogeneous_eigvals=True)
    alpha, beta = np.asarray(ab)
    scale = np.max(np.abs(np.concatenate([alpha, beta]))) or 1.0
    out = []
    for a, b in zip(alpha, beta):
        if abs(b) > finite_tol * scale:
            out.append(complex(a / b))
    return sorted(out, key=lambda v: (v.real, v.imag))


def least_squares(Phi, Y, rcond: float = 1e-12) -> np.ndarray:
    """Minimum-norm least-squares solution of Phi G = Y.

    Uses an SVD with singular values below rcond * sigma_max treated as zero,
    so rank-deficient regressor matrices get the minimum-norm solution.
    """
    Phi = np.asarray(Phi, dtype=float)
    Y = np.asarray(Y, dtype=float)
    squeeze = Y.ndim == 1
    if Phi.ndim != 2:
        raise ValueError("Phi must be a 2-D matrix")
    if Phi.shape[0] < 1 or Phi.shape[1] < 1:
        raise ValueError(f"Phi must be at least 1x1, got {Phi.shape}")
    if not np.all(np.isfinite(Phi)) or not np.all(np.isfinite(Y)):
        raise ValueError("least_squares inputs must be finite")
    G, *_ = np.linalg.lstsq(Phi, Y, rcond=rcond)
    return G if not squeeze else np.asarray(G)


def spectral_radius(A) -> float:
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def _doubling(A, G, H) -> np.ndarray:
    """Structured doubling for X = H + A' X (I + G X)^-1 A (Chu, Fan & Lin 2005).

    This is the package's one Riccati iteration.  With G = B R^-1 B' it
    converges quadratically to the stabilizing DARE solution; with G = 0 it
    is Smith's doubling for the Stein equation X = A' X A + H.  Breakdown,
    divergence, or no convergence within _MAX_DOUBLINGS doublings raises
    DareInfeasibleError; the caller certifies the returned X.
    """
    Ak = A.copy()
    Gk = G.copy()
    Hk = H.copy()
    eye = np.eye(A.shape[0])
    for _ in range(_MAX_DOUBLINGS):
        W = eye + Gk @ Hk
        try:
            M1 = np.linalg.solve(W, Ak)
            M2 = np.linalg.solve(W, Gk)
        except np.linalg.LinAlgError as exc:
            raise DareInfeasibleError(f"doubling iteration broke down: {exc}") from exc
        An = Ak @ M1
        Gn = Gk + Ak @ M2 @ Ak.T
        Hn = Hk + Ak.T @ Hk @ M1
        if not np.all(np.isfinite(Hn)):
            raise DareInfeasibleError("doubling iteration diverged (non-stabilizable pair?)")
        with np.errstate(over="ignore"):  # an overflowing norm reads inf, above the cap
            h_norm = np.linalg.norm(Hn, "fro")
        if h_norm > 1e150:
            raise DareInfeasibleError("doubling iteration diverged (non-stabilizable pair?)")
        delta = np.linalg.norm(Hn - Hk, "fro")
        Ak, Gk, Hk = An, Gn, 0.5 * (Hn + Hn.T)
        if delta <= _DOUBLING_TOL * (1.0 + h_norm):
            return Hk
    raise DareInfeasibleError(f"doubling iteration did not converge in {_MAX_DOUBLINGS} steps")


def solve_dare(A, B, Q, R) -> np.ndarray:
    """Stabilizing solution of P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q.

    Solved by the structured doubling iteration (quadratically convergent,
    capped at 100 doublings).  The result is certified by its residual:
    anything above 1e-8 * (1 + ||P||_F) raises DareInfeasibleError, which is
    also the signal for non-stabilizable input pairs.
    """
    A = _matrix(A)
    B = _matrix(B)
    Q = _matrix(Q)
    R = _matrix(R)
    n = A.shape[0]
    if Q.shape != (n, n):
        raise ValueError("Q must match the state dimension")
    if not np.allclose(Q, Q.T, atol=1e-10 * (1 + abs(Q).max())):
        raise ValueError("Q must be symmetric")
    if not np.allclose(R, R.T, atol=1e-10 * (1 + abs(R).max())):
        raise ValueError("R must be symmetric")
    if np.linalg.eigvalsh(R).min() <= 0:
        raise ValueError("R must be positive definite")

    G = B @ np.linalg.solve(R, B.T)
    P = _doubling(A, G, Q)
    gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    residual = P - (A.T @ P @ A - A.T @ P @ B @ gain + Q)
    res_norm = np.linalg.norm(residual, "fro")
    if not np.isfinite(res_norm) or res_norm > 1e-8 * (1.0 + np.linalg.norm(P, "fro")):
        raise DareInfeasibleError(f"no stabilizing DARE solution found (residual {res_norm:.3e})")
    return P


def series(first: StateSpaceModel, second: StateSpaceModel) -> StateSpaceModel:
    """Cascade: input -> first -> second -> output."""
    if first.q != second.p:
        raise ValueError("output/input dimensions do not chain")
    n1, n2 = first.n, second.n
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = first.A
    A[n1:, n1:] = second.A
    A[n1:, :n1] = second.B @ first.C
    B = np.vstack([first.B, second.B @ first.D])
    C = np.hstack([second.D @ first.C, second.C])
    D = second.D @ first.D
    return StateSpaceModel(A, B, C, D, first.dt)


def negate_output(model: StateSpaceModel) -> StateSpaceModel:
    return StateSpaceModel(model.A, model.B, -model.C, -model.D, model.dt)
