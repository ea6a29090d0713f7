import math

import numpy as np
import pytest

from occball.cartpole import PhysicalParams, linearize
from occball.limits import (
    bound_for_model,
    closed_loop,
    hinf_norm,
    linf_norm,
    pole_zero_bound,
)
from occball.linalg import StateSpaceModel, solve_dare, spectral_radius, tf_eval
from occball.rngtools import substream


def static(v):
    """The gain v as a one-state model, the least state a model has."""
    return StateSpaceModel([[0.0]], [[0.0]], [[0.0]], [[v]])


def sigma_max(A, B, C, D, omegas):
    """Largest singular value of C (zI - A)^-1 B + D at z = e^{j omega}, for each of omegas."""
    z = np.exp(1j * omegas)[:, None, None]
    X = np.linalg.solve(z * np.eye(len(A)) - A, np.broadcast_to(B, (len(omegas), *B.shape)))
    return np.linalg.svd(C @ X + D, compute_uv=False)[:, 0]


class TestHinfNorm:
    def test_constant(self):
        assert hinf_norm(static(3.0)) == pytest.approx(3.0, abs=1e-12)

    def test_first_order_peak_at_dc(self):
        g = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        # |1/(e^{jw} - 0.5)| is maximized at w = 0
        assert hinf_norm(g) == pytest.approx(2.0, abs=1e-9)

    def test_homogeneity(self):
        g = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        g2 = StateSpaceModel([[0.5]], [[1.0]], [[2.0]], [[0.0]])
        assert hinf_norm(g2) == pytest.approx(2 * hinf_norm(g), rel=1e-10)

    def test_rejects_unstable(self):
        # an unstable model's norm is unbounded: inf, as MATLAB's hinfnorm reports it
        g = StateSpaceModel([[1.1]], [[1.0]], [[1.0]], [[0.0]])
        assert hinf_norm(g) == math.inf

    @pytest.mark.parametrize("pole, finite", [(1.0 - 1e-10, False), (1.0 - 1e-8, True)])
    def test_one_stability_rule(self, pole, finite):
        # stable means spectral radius below 1 - 1e-9, for both entries alike
        g = StateSpaceModel([[pole]], [[1.0]], [[1.0]], [[0.0]])
        for value in (linf_norm(g.A, g.B, g.C), hinf_norm(g)):
            assert (value < math.inf) == finite
            if finite:
                # the peak |1 / (1 - pole)| at w = 0
                assert value == pytest.approx(1.0 / (1.0 - pole), rel=1e-6)

    def test_lightly_damped_peak_between_grid_points(self):
        # a broad resonance at 0.6 rad plus a sharp pair of pole radius
        # 1 - 1e-6 placed midway between two points of a 4096-point grid:
        # the broad peak dominates the grid, the sharp one is the norm
        def pair(radius, angle):
            c, s = math.cos(angle), math.sin(angle)
            return radius * np.array([[c, -s], [s, c]])

        r = 1.0 - 1e-6
        theta = 2600.5 * math.pi / 4095
        zero = np.zeros((2, 2))
        A = np.block([[pair(0.9, 0.6), zero], [zero, pair(r, theta)]])
        g = StateSpaceModel(A, [[1.0], [0.0], [1.0], [0.0]], [[0.0, 1.0, 0.0, 1e-4]], [[0.0]])
        grid_omegas = np.linspace(0.0, math.pi, 4096)
        grid = sigma_max(g.A, g.B, g.C, g.D, grid_omegas)
        local = sigma_max(g.A, g.B, g.C, g.D, theta + (1.0 - r) * np.linspace(-20.0, 20.0, 40001))
        assert abs(grid_omegas[np.argmax(grid)] - 0.6) < 0.1
        assert grid.max() < 0.2 * local.max()
        assert local.max() * (1 - 1e-8) <= hinf_norm(g) <= local.max() * (1 + 1e-6)

    @pytest.mark.parametrize("n,q,p", [(0, 2, 3), (1, 1, 2), (3, 2, 2), (6, 3, 2), (8, 2, 4)])
    def test_mimo_with_feedthrough_matches_dense_grid(self, n, q, p):
        rng = substream(21, f"linf-mimo-{n}-{q}-{p}")
        A = rng.standard_normal((n, n))
        if n:
            A *= 0.95 / spectral_radius(A)
        B, C, D = (rng.standard_normal(shape) for shape in ((n, p), (q, n), (q, p)))
        value = linf_norm(A, B, C, D)
        grid = sigma_max(A, B, C, D, np.linspace(0.0, math.pi, 2**14))
        assert grid.max() <= value <= grid.max() * (1 + 1e-6)


class TestPoleZeroBound:
    def test_empty_zero_list(self):
        assert pole_zero_bound([1.06570], []) == 1.0

    def test_no_unstable_poles_vacuous(self):
        assert pole_zero_bound([], [1.2]) == 1.0

    def test_single_pole_zero_simplification(self):
        # |pq - 1| / |p - q| from the scalar form
        p, q = 1.0656993150649228, 1.1980908882306305
        res = pole_zero_bound([p], [q])
        assert res == pytest.approx(abs(p * q - 1) / abs(p - q), rel=1e-12)
        assert res == pytest.approx(2.091, abs=2e-3)

    def test_fixation_07(self):
        res = bound_for_model(linearize(PhysicalParams(ell0=0.7)))
        assert res == pytest.approx(3.854, abs=5e-3)

    def test_monotone_in_fixation(self):
        values = [bound_for_model(linearize(PhysicalParams(ell0=f)))
                  for f in (1.0, 0.9, 0.8, 0.7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_coincidence_flag(self):
        assert pole_zero_bound([1.3], [1.3]) == math.inf

    def test_rejects_marginal_input(self):
        with pytest.raises(ValueError):
            pole_zero_bound([1.0], [])


class TestClosedLoop:
    def test_zero_controller_open_loop(self):
        plant = StateSpaceModel([[0.5]], [[1.0]], [[1.0]], [[0.0]])
        loop = closed_loop(plant, static(0.0))
        assert abs(tf_eval(loop, 1.5)[0, 0]) < 1e-12
        assert hinf_norm(loop) < math.inf

    def test_unity_static_loop(self):
        loop = closed_loop(static(1.0), static(-1.0))
        assert float(loop.D[0, 0]) == pytest.approx(0.5)

    def test_ill_posed(self):
        with pytest.raises(ValueError, match="ill-posed"):
            closed_loop(static(1.0), static(1.0))

    def test_t_matches_formula(self):
        # u = K(y) as LtiController runs K, so T = -PK / (1 - PK)
        rng = substream(8, "s-plus-t")
        plant = StateSpaceModel([[0.7, 0.1], [0.0, 0.6]], [[1.0], [0.5]],
                                [[1.0, 0.0]], [[0.0]])
        ctrl = StateSpaceModel([[0.2]], [[1.0]], [[-0.4]], [[-0.8]])
        loop = closed_loop(plant, ctrl)
        for _ in range(64):
            w = float(rng.uniform(0, math.pi))
            zeta = complex(math.cos(w), math.sin(w))
            pk = tf_eval(plant, zeta)[0, 0] * tf_eval(ctrl, zeta)[0, 0]
            assert abs(tf_eval(loop, zeta)[0, 0] + pk / (1.0 - pk)) < 1e-8

    def test_instability_detected(self):
        plant = linearize(PhysicalParams())
        loop = closed_loop(plant, static(0.0))
        assert hinf_norm(loop) == math.inf

    def test_stabilized_cartpole_respects_bound(self):
        # LQG-style stabilization of the true plant; the pole/zero bound must hold
        params = PhysicalParams(ell0=0.9)
        plant = linearize(params)
        A, B, C = plant.A, plant.B, plant.C
        P = solve_dare(A, B, np.eye(4), np.eye(1) * 0.1)
        K = np.linalg.solve(0.1 * np.eye(1) + B.T @ P @ B, B.T @ P @ A)
        Pf = solve_dare(A.T, C.T, 0.01 * np.eye(4), np.eye(1) * 1e-4)
        L = np.linalg.solve(1e-4 * np.eye(1) + C @ Pf @ C.T, C @ Pf @ A.T).T
        Ak = A - B @ K - L @ C
        # u = -K xhat with xhat <- Ak xhat + L y; closed_loop wires u = C xhat + D y
        ctrl = StateSpaceModel(Ak, L, -K, np.zeros((1, 1)), plant.dt)
        norm = hinf_norm(closed_loop(plant, ctrl))
        assert norm < math.inf
        assert norm >= bound_for_model(plant) - 1e-3
