import json
import math
import re

import numpy as np
import pytest
import scipy.linalg

from occball import linalg
from occball.cartpole import PhysicalParams, linearize
from occball.linalg import (
    DareInfeasibleError,
    PoleEvaluationError,
    StateSpaceModel,
    UNIT_CIRCLE_TOL,
    doubling,
    least_squares,
    pencil_eigvals,
    poles,
    solve_dare,
    spectral_radius,
    strictly_unstable,
    tf_eval,
    transmission_zeros,
)
from occball.rngtools import substream


def cartpole_model(ell0=1.0):
    return linearize(PhysicalParams(ell0=ell0))


class TestStateSpaceModel:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            StateSpaceModel(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
        with pytest.raises(ValueError):
            StateSpaceModel(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), [[0.0]])
        with pytest.raises(ValueError):
            StateSpaceModel(np.eye(2) * np.nan, np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])

    @pytest.mark.parametrize("dt", [0.0, -0.02, math.inf, math.nan])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt)
        # a saved controller file reaches the model through json and from_dict
        d = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]], 0.02).to_dict()
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            StateSpaceModel.from_dict(json.loads(json.dumps({**d, "dt": dt})))

    def test_zero_state_model_rejected(self):
        # a static gain d is the one-state model A = B = C = 0, D = d
        with pytest.raises(ValueError, match="with n >= 1"):
            StateSpaceModel(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[5.0]])
        with pytest.raises(ValueError, match="with n >= 1"):
            StateSpaceModel.from_dict({"A": [], "B": [], "C": [[]], "D": [[5.0]], "dt": 0.02})

    def test_from_dict_keeps_saved_shapes(self):
        m = StateSpaceModel([[0.5, 0.1], [0.0, 0.2]], [[1.0], [2.0]], [[1.0, 0.0]], [[0.0]], 0.02)
        d = json.loads(json.dumps(m.to_dict()))
        m2 = StateSpaceModel.from_dict(d)
        assert all(np.array_equal(getattr(m, k), getattr(m2, k)) for k in "ABCD")
        # a flat B list is not a column
        with pytest.raises(ValueError, match="B \\(2,\\)"):
            StateSpaceModel.from_dict({**d, "B": [1.0, 2.0]})


class TestTfEval:
    def test_pure_feedthrough(self):
        m = StateSpaceModel([[0.0]], [[0.0]], [[0.0]], [[5.0]])
        assert tf_eval(m, 0.3 + 1j)[0, 0] == 5.0

    def test_scalar_geometric(self):
        m = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        assert tf_eval(m, 1.0)[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_near_pole_blows_up(self):
        # evaluate 1e-9 off the unstable pole (~1.06570): huge but evaluable
        m = cartpole_model()
        pole = max(v.real for v in poles(m))
        zeta = pole + 1e-9
        val = tf_eval(m, zeta)
        assert abs(val[0, 0]) > 1e6
        ref = m.C @ np.linalg.inv(zeta * np.eye(4) - m.A) @ m.B
        assert abs(val[0, 0] - ref[0, 0]) <= 1e-10 * abs(ref[0, 0])

    def test_at_pole_raises(self):
        m = cartpole_model()
        with pytest.raises(PoleEvaluationError):
            tf_eval(m, 1.0)

    def test_matches_explicit_inversion(self):
        rng = substream(1, "tf-eval")
        for _ in range(10):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, 1))
            C = rng.standard_normal((1, n))
            m = StateSpaceModel(A, B, C, [[0.0]])
            zeta = complex(rng.uniform(2, 3), rng.uniform(0.5, 1))
            ref = C @ np.linalg.inv(zeta * np.eye(n) - A) @ B
            got = tf_eval(m, zeta)
            assert abs(got[0, 0] - ref[0, 0]) <= 1e-10 * max(1.0, abs(ref[0, 0]))


class TestPoles:
    def test_identity(self):
        m = StateSpaceModel(np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
        assert poles(m) == [1.0, 1.0]

    def test_diagonal(self):
        m = StateSpaceModel(np.diag([0.5, 2.0]), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
        assert poles(m) == [0.5, 2.0]

    def test_cartpole_closed_form(self):
        # 1 +- tau*sqrt((M+m)g/(M ell)) plus the double integrator pole
        p = PhysicalParams()
        rate = p.tau * np.sqrt((p.M + p.m) * p.g / (p.M * p.ell))
        expected = sorted([1.0 - rate, 1.0, 1.0, 1.0 + rate])
        got = poles(cartpole_model())
        assert np.allclose([v.real for v in got], expected, atol=1e-5)
        assert np.allclose([v.imag for v in got], 0.0, atol=1e-8)

    def test_similarity_invariance(self):
        rng = substream(2, "poles-sim")
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            T = rng.standard_normal((n, n)) + 3 * np.eye(n)
            At = T @ A @ np.linalg.inv(T)
            m1 = StateSpaceModel(A, np.zeros((n, 1)), np.zeros((1, n)), [[0.0]])
            m2 = StateSpaceModel(At, np.zeros((n, 1)), np.zeros((1, n)), [[0.0]])
            p1 = np.sort_complex(np.array(poles(m1)))
            p2 = np.sort_complex(np.array(poles(m2)))
            assert np.max(np.abs(p1 - p2)) < 1e-8


class TestTransmissionZeros:
    def test_no_zeros_at_full_fixation(self):
        assert transmission_zeros(cartpole_model(1.0)) == []

    @pytest.mark.parametrize("ell0", [0.99, 0.9, 0.8, 0.7, 0.5])
    def test_closed_form(self, ell0):
        p = PhysicalParams(ell0=ell0)
        rate = p.tau * np.sqrt(p.g / (p.ell - p.ell0))
        got = sorted(z.real for z in transmission_zeros(cartpole_model(ell0)))
        assert np.allclose(got, [1.0 - rate, 1.0 + rate], atol=1e-6)

    def test_rejects_mimo(self):
        with pytest.raises(ValueError, match=r"B \(2, 2\), C \(2, 2\) and D \(2, 2\)"):
            StateSpaceModel(np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))


class TestLeastSquares:
    def test_identity(self):
        Y = np.arange(6.0).reshape(3, 2)
        assert np.allclose(least_squares(np.eye(3), Y), Y)

    def test_consistent_overdetermined(self):
        rng = substream(3, "lsq")
        Phi = rng.standard_normal((50, 3))
        G = rng.standard_normal((3, 2))
        sol = least_squares(Phi, Phi @ G)
        assert np.max(np.abs(sol - G)) < 1e-10

    def test_residual_orthogonality(self):
        rng = substream(4, "lsq-orth")
        for _ in range(5):
            Phi = rng.standard_normal((40, 6))
            y = rng.standard_normal(40)
            resid = Phi @ least_squares(Phi, y) - y
            assert np.max(np.abs(Phi.T @ resid)) < 1e-8 * np.linalg.norm(y)

    def test_rank_deficient_min_norm(self):
        Phi = np.array([[1.0, 1.0], [2.0, 2.0]])
        y = np.array([2.0, 4.0])
        sol = least_squares(Phi, y)
        assert np.allclose(sol, [1.0, 1.0], atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.array([[np.inf, 1.0]]), np.array([1.0]))


def _lstsq_cases():
    """(name, Phi, Y) over the shapes, ranks and right-hand sides least_squares meets."""
    rng = substream(5, "lsq-matrix")
    shapes = {"overdetermined": (40, 6), "square": (7, 7), "underdetermined": (5, 9),
              "tall-arx": (2000, 20), "single-row": (1, 4), "single-column": (30, 1)}
    for name, (m, n) in shapes.items():
        Phi = rng.standard_normal((m, n))
        yield name, Phi
        if min(m, n) > 1:
            r = min(m, n) - 1  # rank one short of full
            low_rank = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            yield name + "-rank-deficient", low_rank
    yield "zero", np.zeros((6, 3))


LSTSQ_CASES = [
    (f"{name}-{rhs}", Phi, Y)
    for i, (name, Phi) in enumerate(_lstsq_cases())
    for rhs, Y in (("1d", substream(i, "lsq-rhs").standard_normal(len(Phi))),
                   ("2d", substream(i, "lsq-rhs2").standard_normal((len(Phi), 3))),
                   ("2d-one-column", substream(i, "lsq-rhs3").standard_normal((len(Phi), 1))))
]


class TestLeastSquaresBytes:
    """least_squares gives np.linalg.lstsq's bytes on either route, in either layout."""

    @pytest.mark.parametrize("route", ["ctypes", "numpy"])
    @pytest.mark.parametrize("name, Phi, Y", LSTSQ_CASES, ids=[c[0] for c in LSTSQ_CASES])
    def test_matches_numpy_lstsq(self, name, Phi, Y, route, monkeypatch):
        ref = np.linalg.lstsq(Phi, Y, rcond=1e-12)[0]
        if route == "numpy":
            monkeypatch.setattr(linalg, "_lapack", lambda name: None)
        for order in ("C", "F"):
            got = least_squares(np.array(Phi, order=order), np.array(Y, order=order))
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), order

    def test_misaligned_fortran_view(self):
        # a column slice of a Fortran array starts 8 bytes into a 16-byte line
        rng = substream(6, "lsq-view")
        big = np.asfortranarray(rng.standard_normal((37, 8)))
        Phi, y = big[:, 1:], rng.standard_normal(37)
        assert Phi.flags.f_contiguous and Phi.ctypes.data % 16 == 8
        ref = np.linalg.lstsq(Phi, y, rcond=1e-12)[0]
        assert least_squares(Phi, y).tobytes() == ref.tobytes()

    def test_empty_right_hand_side(self):
        Phi = substream(7, "lsq-empty").standard_normal((5, 3))
        got = least_squares(Phi, np.zeros((5, 0)))
        assert got.shape == (3, 0)

    def test_overwrites_only_writeable_fortran_float64(self):
        rng = substream(8, "lsq-inputs")
        Phi, Y = rng.standard_normal((12, 4)), rng.standard_normal((12, 2))
        ref = np.linalg.lstsq(Phi, Y, rcond=1e-12)[0]
        frozen = np.asfortranarray(Phi)
        frozen.flags.writeable = False
        Y_before = Y.copy()
        # C-ordered, read-only and list inputs are copied and left as they were
        for arg in (Phi, frozen, Phi.tolist()):
            assert least_squares(arg, Y).tobytes() == ref.tobytes()
        assert np.array_equal(Phi, frozen) and np.array_equal(Y, Y_before)
        # a writeable Fortran-ordered float64 Phi is the workspace dgelsd runs in; Y never is
        work = np.asfortranarray(Phi)
        Y_f = np.asfortranarray(Y)
        assert least_squares(work, Y_f).tobytes() == ref.tobytes()
        assert not np.array_equal(work, Phi)
        assert np.array_equal(Y_f, Y_before)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["Phi", "Y"])
    def test_non_finite_rejected_before_lapack(self, bad, where, monkeypatch):
        monkeypatch.setattr(linalg, "_lapack", lambda name: pytest.fail("reached LAPACK"))
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("reached lstsq"))
        Phi, Y = np.eye(3, order="F"), np.ones(3)
        (Phi if where == "Phi" else Y)[1] = bad
        with pytest.raises(ValueError, match="least_squares inputs must be finite"):
            least_squares(Phi, Y)

    @pytest.mark.parametrize("Phi, Y", [
        (np.ones(3), np.ones(3)),              # not 2-D
        (np.ones((3, 2)), np.ones(4)),         # rows differ
        (np.ones((3, 2)), np.ones((3, 2, 1))),  # Y 3-D
    ], ids=["1-D", "mismatched", "3-D"])
    def test_rejects_shapes(self, Phi, Y):
        with pytest.raises(ValueError):
            least_squares(Phi, Y)

    def test_falls_back_to_numpy_without_the_symbol(self, monkeypatch):
        calls, lstsq = [], np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append("lstsq")
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(linalg, "_lapack", lambda name: calls.append(name))
        monkeypatch.setattr(np.linalg, "lstsq", counted)
        Phi, y = substream(9, "lsq-fallback").standard_normal((8, 3)), np.arange(8.0)
        ref = lstsq(Phi, y, rcond=1e-12)[0]
        assert least_squares(Phi, y).tobytes() == ref.tobytes()
        assert calls == ["dgelsd", "lstsq"]


class TestSolveDare:
    def test_scalar_closed_form(self):
        P = solve_dare([[2.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(2.0 + np.sqrt(5.0), abs=1e-10)

    def test_no_dynamics(self):
        P = solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_random_residuals_and_scipy_agreement(self):
        rng = substream(5, "dare")
        for _ in range(25):
            n = int(rng.integers(1, 7))
            A = 0.9 * rng.standard_normal((n, n))
            B = rng.standard_normal((n, max(1, int(rng.integers(1, 3)))))
            Q = rng.standard_normal((n, n))
            Q = Q @ Q.T
            R = np.eye(B.shape[1]) * float(rng.uniform(0.2, 2.0))
            P = solve_dare(A, B, Q, R)
            gain = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            residual = P - (A.T @ P @ A - A.T @ P @ B @ gain + Q)
            assert np.linalg.norm(residual, "fro") < 1e-8 * (1 + np.linalg.norm(P, "fro"))
            ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
            assert np.max(np.abs(P - ref)) < 1e-7 * (1 + np.linalg.norm(ref))

    def test_not_stabilizable_raises(self):
        A = np.diag([2.0, 0.5])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(DareInfeasibleError):
            solve_dare(A, B, np.eye(2), np.eye(1))

    def test_requires_spd_r(self):
        with pytest.raises(ValueError):
            solve_dare([[0.5]], [[1.0]], [[1.0]], [[-1.0]])

    @pytest.mark.parametrize("name", "ABQR")
    @pytest.mark.parametrize("bad", [2.0, [1.0]])
    def test_non_matrix_input_named(self, name, bad):
        mats = {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]], name: bad}
        ndim = np.ndim(bad)
        with pytest.raises(ValueError, match=f"^{name} must be a matrix, got ndim={ndim}$"):
            solve_dare(**mats)

    @pytest.mark.parametrize("name, bad", [("A", math.nan), ("B", math.inf),
                                           ("Q", math.inf), ("R", math.nan)])
    def test_nonfinite_input_named(self, name, bad):
        mats = {"A": np.array([[1.1, 0.1], [0.0, 0.9]]), "B": np.array([[0.0], [1.0]]),
                "Q": np.eye(2), "R": np.eye(1)}
        mats[name][0, 0] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            solve_dare(**mats)


def _reference_doubling(A, G, H):
    """The structured-doubling loop as it ran every case before its G = 0 form."""
    Ak, Gk, Hk = A.copy(), G.copy(), H.copy()
    eye = np.eye(A.shape[0])
    for _ in range(100):
        W = eye + Gk @ Hk
        M1 = np.linalg.solve(W, Ak)
        M2 = np.linalg.solve(W, Gk)
        An = Ak @ M1
        Gn = Gk + Ak @ M2 @ Ak.T
        Hn = Hk + Ak.T @ Hk @ M1
        assert np.all(np.isfinite(Hn))
        h_norm = np.linalg.norm(Hn, "fro")
        delta = np.linalg.norm(Hn - Hk, "fro")
        Ak, Gk, Hk = An, Gn, 0.5 * (Hn + Hn.T)
        if delta <= 1e-14 * (1.0 + h_norm):
            return Hk
    raise AssertionError("the reference loop did not converge")


class TestDoubling:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_stein_form(self, n, seed):
        # G = 0: Smith's iteration, bitwise the general loop, and the Lyapunov solution
        rng = substream(seed, "stein")
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.3, 0.95) / spectral_radius(A)
        H = rng.standard_normal((n, n))
        H = H + H.T
        G = np.zeros((n, n))
        X = doubling(A, G, H)
        assert X.tobytes() == _reference_doubling(A, G, H).tobytes()
        ref = scipy.linalg.solve_discrete_lyapunov(A.T, H)
        assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_riccati_form_matches_reference_loop(self, n, seed):
        rng = substream(seed, "riccati")
        A = 1.2 * rng.standard_normal((n, n))
        B = rng.standard_normal((n, 2))
        G = B @ B.T
        H = rng.standard_normal((n, n))
        H = H @ H.T
        assert doubling(A, G, H).tobytes() == _reference_doubling(A, G, H).tobytes()


@pytest.mark.parametrize("k", [1, 2, 5, 9, 17, 21])
def test_pencil_eigvals_match_scipy_eig_bytes(k, monkeypatch):
    rng = substream(k, "pencil")
    M = rng.standard_normal((k, k))
    N = rng.standard_normal((k, k))
    N[k // 2:] = 0.0  # infinite eigenvalues, as in the norm and zero pencils
    ref = scipy.linalg.eig(M, N, right=False, homogeneous_eigvals=True)
    # numpy's LAPACK through ctypes, then scipy's binding with the ctypes one taken away
    for route in ("ctypes", "scipy"):
        if route == "scipy":
            monkeypatch.setattr(linalg, "_lapack", lambda name: None)
        for order in ("C", "F"):
            got = pencil_eigvals(np.array(M, order=order), np.array(N, order=order))
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (route, order)


def test_pencil_eigvals_binds_numpys_lapack():
    # numpy's OpenBLAS wheels (ILP64 since numpy 2.0) export dggev as scipy_dggev_64_;
    # on such a numpy the pencil must not fall back to scipy unnoticed
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in lapack.get(
            "openblas configuration", ""):
        pytest.skip(f"numpy's LAPACK is not an ILP64 scipy-openblas: {lapack}")
    for name in ("dggev", "dgelsd"):
        assert linalg._lapack(name) is not None
        assert linalg._lapack(name) is linalg._lapack(name)  # bound once


class TestPencilEigvalsInputs:
    @pytest.mark.parametrize("M, N", [
        (np.zeros(3), np.zeros(3)),                # not 2-D
        (np.zeros((2, 3)), np.zeros((2, 3))),      # not square
        (np.eye(2), np.eye(3)),                    # shapes differ
        (np.zeros((0, 0)), np.zeros((0, 0))),      # empty
    ], ids=["1-D", "non-square", "mismatched", "empty"])
    def test_rejects_shapes_by_name(self, M, N):
        with pytest.raises(ValueError, match=re.escape(f"got M {M.shape} and N {N.shape}")):
            pencil_eigvals(M, N)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        N = np.eye(2)
        N[1, 0] = bad
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            pencil_eigvals(np.eye(2), N)

    def test_overwrites_only_writeable_fortran_float64(self):
        rng = substream(0, "pencil-inputs")
        M, N = rng.standard_normal((2, 4, 4))
        ref = pencil_eigvals(M.copy(), N.copy())
        frozen = [np.asfortranarray(X) for X in (M, N)]
        for X in frozen:
            X.flags.writeable = False
        # C-ordered, read-only and list inputs are copied and left as they were
        for args in ((M, N), frozen, (M.tolist(), N.tolist())):
            assert pencil_eigvals(*args).tobytes() == ref.tobytes()
        assert all(np.array_equal(X, Y) for X, Y in zip((M, N), frozen))
        # a writeable Fortran-ordered float64 pair is the workspace QZ runs in
        work = [np.asfortranarray(X) for X in (M, N)]
        assert pencil_eigvals(*work).tobytes() == ref.tobytes()
        assert not np.array_equal(work[0], M)


class TestStrictlyUnstable:
    def test_partition(self):
        assert strictly_unstable([0.5, 1.0, 1.5]) == [1.5]
        assert strictly_unstable([1.0 + 5e-8, 2.0]) == [2.0]

    def test_from_cartpole(self):
        model = cartpole_model(0.9)
        ps = poles(model)
        assert len(ps) == 4
        assert len(strictly_unstable(ps)) == 1
        assert sum(abs(abs(p) - 1.0) <= UNIT_CIRCLE_TOL for p in ps) == 2
        assert len(strictly_unstable(transmission_zeros(model))) == 1
