"""LtiController's arithmetic, checked bit for bit against its stated order."""

import numpy as np
import pytest

from occball.controllers import LtiController
from occball.linalg import StateSpaceModel


def chain(coefs, terms):
    # left to right from the first product, not from 0.0, so -0.0 survives
    total = coefs[0] * terms[0]
    for c, t in zip(coefs[1:], terms[1:]):
        total = total + c * t
    return total


def reference_run(model, ys):
    """u = C x + D y, x <- A x + B y, each a chain c0*x0 + ... + d*y on Python floats."""
    A, b = model.A.tolist(), model.B[:, 0].tolist()
    c, d = model.C[0].tolist(), float(model.D[0, 0])
    x, us = [0.0] * model.n, []
    for y in ys:
        terms = x + [y]
        us.append(chain(c + [d], terms))
        x = [chain(row + [bi], terms) for row, bi in zip(A, b)]
    return us


def random_model(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * (0.9 / n)  # stable: 200 steps stay finite
    B, C = rng.standard_normal((n, 1)), rng.standard_normal((1, n))
    return StateSpaceModel(A, B, C, rng.standard_normal((1, 1)), 0.02)


# -0.0 and 5e-324 test the literals' sign and subnormal round trip, 1/3 a
# non-terminating mantissa, 1e300 the exponent; D = -0.0 makes a zero output
# carry the sign that only a chain started from its first product gives
EDGE_MODEL = StateSpaceModel([[1 / 3, 5e-324], [-0.0, 0.5]], [[1.0], [1 / 3]],
                             [[-0.0, -1e300]], [[-0.0]], 0.02)


def bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("model", [
    *(random_model(n, seed=n) for n in (1, 4, 7)),
    EDGE_MODEL,
], ids=["n1", "n4", "n7", "edge"])
def test_act_matches_left_to_right_chain(model):
    ys = np.random.default_rng(99).uniform(-1, 1, 200).tolist()
    ctrl = LtiController(model)
    expected = bits(reference_run(model, ys))
    assert bits(ctrl.act(y) for y in ys) == expected
    ctrl.reset()
    assert bits(ctrl.act(y) for y in ys) == expected
    # the benchmark and the loop-contract tests patch act on the class
    assert "act" in vars(LtiController) and "act" not in vars(ctrl)


def test_edge_model_keeps_signed_zero():
    ctrl = LtiController(EDGE_MODEL)
    assert bits([ctrl.act(1.0)]) == [(-0.0).hex()]


def test_long_chain_splits_without_changing_bits():
    # 260 products per row exceed one statement's worth of terms
    model = random_model(259, seed=3)
    ctrl, ys = LtiController(model), [0.5, -0.25, 1.0]
    assert bits(ctrl.act(y) for y in ys) == bits(reference_run(model, ys))
