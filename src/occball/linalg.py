"""Discrete-time state-space models and the shared numerical kernels.

All routines are pure functions: models are small dense numpy matrices, the
one state kept is the LAPACK bindings pencil_eigvals and least_squares make on
first use, and everything is safe to call concurrently on distinct inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateSpaceModel",
    "UNIT_CIRCLE_TOL",
    "DareInfeasibleError",
    "PoleEvaluationError",
    "tf_eval",
    "poles",
    "strictly_unstable",
    "pencil_eigvals",
    "transmission_zeros",
    "least_squares",
    "doubling",
    "solve_dare",
    "spectral_radius",
]

UNIT_CIRCLE_TOL = 1e-7
# relative cut-offs below which a zero's pencil beta counts as 0 (the zero is at
# infinity) and a least-squares singular value counts as 0
_FINITE_ZERO_TOL, _LSTSQ_RCOND = 1e-8, 1e-12
# doubling converges quadratically: a cap far above its need, a rounding-level stop
_MAX_DOUBLINGS, _DOUBLING_TOL = 100, 1e-14


class PoleEvaluationError(ValueError):
    """Transfer-function evaluation requested (numerically) at a pole."""


class DareInfeasibleError(RuntimeError):
    """No stabilizing Riccati solution was found within the iteration cap."""


@dataclass(frozen=True)
class StateSpaceModel:
    """SISO discrete LTI model x+ = A x + B u, y = C x + D u with step size dt.

    A is n x n, B n x 1, C 1 x n and D 1 x 1 with n >= 1; a static gain d is
    the one-state model A = B = C = 0, D = d.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        A, B, C, D = (np.array(m, dtype=float) for m in (self.A, self.B, self.C, self.D))
        n = A.shape[0] if A.ndim else 0
        if n < 1 or (A.shape, B.shape, C.shape, D.shape) != ((n, n), (n, 1), (1, n), (1, 1)):
            raise ValueError(
                "a SISO model needs A n x n, B n x 1, C 1 x n and D 1 x 1 with n >= 1, got "
                f"A {A.shape}, B {B.shape}, C {C.shape} and D {D.shape}"
            )
        for name, mat in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} contains non-finite entries")
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

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
        return cls(d["A"], d["B"], d["C"], d["D"], float(d["dt"]))


def strictly_unstable(values) -> list:
    """The values outside the unit circle by more than UNIT_CIRCLE_TOL, in order."""
    return [v for v in values if abs(v) > 1.0 + UNIT_CIRCLE_TOL]


def tf_eval(model: StateSpaceModel, zeta: complex) -> np.ndarray:
    """Evaluate C (zeta I - A)^-1 B + D.

    Raises PoleEvaluationError when zeta is numerically indistinguishable
    from an eigenvalue of A (condition number above ~1e13).
    """
    zeta = complex(zeta)
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
    w = np.linalg.eigvals(model.A)
    return sorted((complex(v) for v in w), key=lambda v: (v.real, v.imag))


# the LAPACK routines _lapack binds: name -> (CHARACTER arguments, all Fortran arguments)
_LAPACK_ARGS = {"dggev": (2, 17), "dgelsd": (0, 14)}


@functools.cache
def _lapack(name: str):
    """LAPACK routine `name` in the OpenBLAS numpy loaded, bound through ctypes, or None.

    numpy's ILP64 OpenBLAS wheels export it as scipy_<name>_64_, every integer
    argument an int64.  The first call for a name binds it and later calls
    return the same function; a numpy whose library lacks that symbol gets None.
    """
    import ctypes

    try:
        fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), f"scipy_{name}_64_")
    except (AttributeError, OSError):
        return None
    # every Fortran argument by address, the CHARACTER ones first (as in both routines),
    # then the hidden length of each CHARACTER argument
    chars, args = _LAPACK_ARGS[name]
    fn.argtypes = ([ctypes.c_char_p] * chars + [ctypes.c_void_p] * (args - chars)
                   + [ctypes.c_size_t] * chars)
    fn.restype = None
    return fn


def _ggev_numpy(dggev, M, N):
    """(alphar, alphai, beta, info) of dggev called through numpy's LAPACK."""
    k = M.shape[0]
    # the int64 arguments n, 1, lwork and info, passed by address like every Fortran argument
    ints = np.array([k, 1, -1, 0], dtype=np.int64)
    n, one, lwork, info = range(ints.ctypes.data, ints.ctypes.data + 32, 8)
    vals = np.empty((3, k))
    alphar, alphai, beta = range(vals.ctypes.data, vals.ctypes.data + 24 * k, 8 * k)
    a, b = M.ctypes.data, N.ctypes.data
    # scipy.linalg.eig's workspace query, which asks for eigenvectors, then the
    # values-only run with that workspace; neither references VL or VR, so both are NULL
    work = np.zeros(1)
    dggev(b"V", b"V", n, a, n, b, n, alphar, alphai, beta, None, n, None, n,
          work.ctypes.data, lwork, info, 1, 1)
    ints[2] = int(work[0])
    work = np.empty(ints[2])
    dggev(b"N", b"N", n, a, n, b, n, alphar, alphai, beta, None, one, None, one,
          work.ctypes.data, lwork, info, 1, 1)
    return vals[0], vals[1], vals[2], int(ints[3])


def pencil_eigvals(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Homogeneous generalized eigenvalues (alpha, beta) of the pencil M - lambda N.

    Returns a (2, k) array, rows alpha and beta, by one QZ run: LAPACK's
    dggev, with the workspace scipy.linalg.eig queries, and the values it
    returns.  M and N are used as Fortran-ordered float64 and may be
    overwritten (a writeable one of that layout is, others are copied).  They
    must be finite k x k matrices of one shape with k >= 1, else a ValueError.
    dggev is called through ctypes in the LAPACK numpy already loaded; only
    where that library lacks it does the call import scipy.linalg, so a
    process that solves pencils on this route never loads scipy.
    """
    M, N = (np.require(X, np.float64, ["F", "A", "W"]) for X in (M, N))
    if M.ndim != 2 or M.shape[0] != M.shape[1] or N.shape != M.shape or not M.size:
        raise ValueError(
            f"a pencil needs M and N k x k of one shape with k >= 1, "
            f"got M {M.shape} and N {N.shape}")
    if not (np.isfinite(M).all() and np.isfinite(N).all()):
        raise ValueError("array must not contain infs or NaNs")
    dggev = _lapack("dggev")
    if dggev is not None:
        alphar, alphai, beta, info = _ggev_numpy(dggev, M, N)
    else:  # the same two calls through scipy's binding
        from scipy.linalg import lapack

        work = lapack.dggev(M, N, lwork=-1, overwrite_a=1, overwrite_b=1)[-2]
        alphar, alphai, beta, _, _, _, info = lapack.dggev(
            M, N, compute_vl=0, compute_vr=0, lwork=int(work[0]), overwrite_a=1, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) failed (LAPACK info={info})")
    return np.vstack((alphar + 1j * alphai, beta))


def transmission_zeros(model: StateSpaceModel) -> list:
    """Finite transmission zeros of a model via the system pencil.

    Solves the generalized eigenvalue problem on [[A - zeta I, B], [C, D]];
    generalized eigenvalues with a vanishing denominator (beta ~ 0) are the
    zeros at infinity and are dropped.
    """
    n = model.n
    M = np.zeros((n + 1, n + 1), order="F")
    M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:] = model.A, model.B, model.C, model.D
    N = np.zeros_like(M)
    N[:n, :n] = np.eye(n)
    alpha, beta = pencil_eigvals(M, N)
    scale = np.max(np.abs(np.concatenate([alpha, beta]))) or 1.0
    out = []
    for a, b in zip(alpha, beta):
        if abs(b) > _FINITE_ZERO_TOL * scale:
            out.append(complex(a / b))
    return sorted(out, key=lambda v: (v.real, v.imag))


def _gelsd_numpy(dgelsd, Phi, Y):
    """(solution rows, info) of dgelsd called through numpy's LAPACK on Phi (m x n, Fortran)."""
    m, n = Phi.shape
    nrhs = Y.shape[1]
    # B holds Y on entry and the n-row solution on exit, so it has max(m, n) rows;
    # LAPACK cannot take nrhs = 0, so (as numpy does) it gets one zero column then
    B = np.zeros((max(m, n), max(nrhs, 1)), order="F")
    B[:m, :nrhs] = Y
    # the int64 arguments m, n, nrhs, lda, ldb, rank, lwork, info and the iwork size
    # query, then rcond, the work size query and the singular values, each by address;
    # reading an array's address costs microseconds, so the scalars share two arrays
    ints = np.array([m, n, B.shape[1], m, B.shape[0], 0, -1, 0, 0], dtype=np.int64)
    m_, n_, nrhs_, lda, ldb, rank, lwork, info, liwork = range(
        ints.ctypes.data, ints.ctypes.data + 72, 8)
    floats = np.zeros(2 + min(m, n))
    floats[0] = _LSTSQ_RCOND
    rcond, query, s = range(floats.ctypes.data, floats.ctypes.data + 24, 8)
    a, b = Phi.ctypes.data, B.ctypes.data
    # numpy's lstsq: a workspace query (which also returns the iwork size), then the
    # solve with work (float64) and iwork (int64) end to end in one buffer
    dgelsd(m_, n_, nrhs_, a, lda, b, ldb, s, rcond, rank, query, lwork, liwork, info)
    ints[6] = int(floats[1])
    work = np.empty(ints[6] + ints[8])
    w = work.ctypes.data
    dgelsd(m_, n_, nrhs_, a, lda, b, ldb, s, rcond, rank, w, lwork, w + 8 * int(ints[6]), info)
    return B[:n, :nrhs], int(ints[7])


def least_squares(Phi, Y) -> np.ndarray:
    """Minimum-norm least-squares solution of Phi G = Y.

    Uses an SVD with singular values below _LSTSQ_RCOND * sigma_max treated as zero,
    so rank-deficient regressor matrices get the minimum-norm solution: LAPACK's
    dgelsd, with the workspace np.linalg.lstsq queries, and the same bytes.  Phi is
    used as a Fortran-ordered float64 matrix and may be overwritten (a writeable one
    of that layout is, others are copied); Y (m rows, 1-D or 2-D) is copied.  dgelsd
    is called through ctypes in the LAPACK numpy already loaded; where that library
    lacks it, np.linalg.lstsq solves the same problem.
    """
    Phi = np.require(Phi, np.float64, ["F", "A", "W"])
    Y = np.asarray(Y, dtype=float)
    if Phi.ndim != 2:
        raise ValueError("Phi must be a 2-D matrix")
    if Phi.shape[0] < 1 or Phi.shape[1] < 1:
        raise ValueError(f"Phi must be at least 1x1, got {Phi.shape}")
    if Y.ndim not in (1, 2) or len(Y) != len(Phi):
        raise ValueError(f"Y must be 1-D or 2-D with {len(Phi)} rows, got {Y.shape}")
    if not np.all(np.isfinite(Phi)) or not np.all(np.isfinite(Y)):
        raise ValueError("least_squares inputs must be finite")
    dgelsd = _lapack("dgelsd")
    if dgelsd is None:
        return np.linalg.lstsq(Phi, Y, rcond=_LSTSQ_RCOND)[0]
    G, info = _gelsd_numpy(dgelsd, Phi, Y if Y.ndim == 2 else Y[:, None])
    if info:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    return G[:, 0].copy() if Y.ndim == 1 else G.copy()


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def _fro(X: np.ndarray) -> float:
    """Frobenius norm by the one dot product np.linalg.norm(X, "fro") runs."""
    x = X.ravel(order="K")
    return math.sqrt(x.dot(x))


def doubling(A, G, H) -> np.ndarray:
    """Structured doubling for X = H + A' X (I + G X)^-1 A (Chu, Fan & Lin 2005).

    This is the package's one Riccati iteration.  With G = B R^-1 B' it
    converges quadratically to the stabilizing DARE solution (solve_dare
    and the first solve of each synthesis game).  With G = 0 (the two
    Newton steps of each synthesis game) the Stein equation X = A' X A + H
    remains, and since W = I + G H is then exactly I, each doubling is
    Smith's H + A' H A, A^2 with the same bytes and no solves.  Breakdown,
    divergence (a non-finite H or one above 1e150 in norm), or no
    convergence within _MAX_DOUBLINGS doublings raises DareInfeasibleError;
    the caller certifies the returned X.
    """
    stein = not G.any()
    Ak, Gk, Hk = A, G, H
    eye = np.eye(A.shape[0])
    # ndarray.dot runs the gemm that @ runs, with half its dispatch cost at these sizes;
    # an overflow or inf - inf leaves a non-finite H, which the norm test reports
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_MAX_DOUBLINGS):
            if stein:
                Hn = Hk + Ak.T.dot(Hk).dot(Ak)
            else:
                W = eye + Gk.dot(Hk)
                try:
                    M1 = np.linalg.solve(W, Ak)
                    M2 = np.linalg.solve(W, Gk)
                except np.linalg.LinAlgError as exc:
                    raise DareInfeasibleError(f"doubling iteration broke down: {exc}") from exc
                Hn = Hk + Ak.T.dot(Hk).dot(M1)
            h_norm = _fro(Hn)
            if not h_norm <= 1e150:
                raise DareInfeasibleError("doubling iteration diverged (non-stabilizable pair?)")
            delta = _fro(Hn - Hk)
            Hk = 0.5 * (Hn + Hn.T)
            if delta <= _DOUBLING_TOL * (1.0 + h_norm):
                return Hk
            if stein:
                Ak = Ak.dot(Ak)
            else:
                Ak, Gk = Ak.dot(M1), Gk + Ak.dot(M2).dot(Ak.T)
    raise DareInfeasibleError(f"doubling iteration did not converge in {_MAX_DOUBLINGS} steps")


def solve_dare(A, B, Q, R) -> np.ndarray:
    """Stabilizing solution of P = A'PA - A'PB (R + B'PB)^-1 B'PA + Q.

    Solved by the structured doubling iteration (quadratically convergent,
    capped at 100 doublings).  The result is certified by its residual:
    anything above 1e-8 * (1 + ||P||_F) raises DareInfeasibleError, which is
    also the signal for non-stabilizable input pairs.  A, B, Q and R must be
    matrices: a non-2-D or non-finite one raises a ValueError naming it.
    """
    A, B, Q, R = mats = [np.asarray(M, dtype=float) for M in (A, B, Q, R)]
    for name, M in zip("ABQR", mats):
        if M.ndim != 2:
            raise ValueError(f"{name} must be a matrix, got ndim={M.ndim}")
        if not np.isfinite(M).all():
            raise ValueError(f"{name} contains non-finite entries")
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
    P = doubling(A, G, Q)
    gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    residual = P - (A.T @ P @ A - A.T @ P @ B @ gain + Q)
    res_norm = np.linalg.norm(residual, "fro")
    if not np.isfinite(res_norm) or res_norm > 1e-8 * (1.0 + np.linalg.norm(P, "fro")):
        raise DareInfeasibleError(f"no stabilizing DARE solution found (residual {res_norm:.3e})")
    return P

