import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval
from scipy.integrate import quad

from congames import CostValidationError, PolynomialCost, parallel_links_game


def test_identity_cost_accepted():
    cost = PolynomialCost((1.0,))
    assert cost.derivative_lower == 1.0
    assert cost.second_derivative_upper == 0.0
    assert cost.envelope_lower == 1.0
    assert cost.envelope_upper == 1.0


def test_halved_identity_envelope_tightened():
    cost = PolynomialCost((0.5,))
    # B + 1 = 1 would be valid, but the slope bound c'(1) = 1/2 is tighter.
    assert cost.envelope_upper == 0.5


def test_no_linear_term_rejected():
    # c(y) = y^2 has c'(0) = 0, breaking c' >= A > 0.
    with pytest.raises(CostValidationError, match="c'"):
        PolynomialCost((0.0, 1.0))


def test_constant_like_inputs_rejected():
    with pytest.raises(CostValidationError, match="no coefficients"):
        PolynomialCost(())
    with pytest.raises(CostValidationError, match="no coefficients"):
        PolynomialCost(np.zeros(0))


def test_negative_coefficient_rejected():
    with pytest.raises(CostValidationError, match="negative"):
        PolynomialCost((0.5, -0.1))


def test_unit_value_bound_rejected():
    with pytest.raises(CostValidationError, match="exceeds 1"):
        PolynomialCost((0.9, 0.3))


def test_quadratic_derived_bounds():
    cost = PolynomialCost((0.5, 0.5))  # c(y) = (y + y^2)/2
    assert cost.derivative_lower == 0.5
    assert cost.second_derivative_upper == 1.0
    assert cost.envelope_upper == 1.5  # c'(1), below B + 1 = 2
    assert math.isclose(polyval(1.0, (0.0, *cost.coefficients)), 1.0)


coef_lists = st.lists(
    st.floats(min_value=0.0, max_value=0.2), min_size=0, max_size=5
).map(tuple)


@given(first=st.floats(min_value=1e-3, max_value=0.5), rest=coef_lists)
@settings(max_examples=200, deadline=None)
def test_certified_bounds_hold_on_grid(first, rest):
    assume(first + sum(rest) <= 1.0)
    cost = PolynomialCost((first,) + rest)
    game = parallel_links_game(1, [cost.coefficients])
    grid = np.linspace(1e-9, 1.0, 257)
    loads = grid[:, None]
    a, b = cost.envelope_lower, cost.envelope_upper
    slopes = game.edge_slopes(loads)[:, 0]
    assert np.all(slopes >= a - 1e-12)
    assert np.all(slopes <= b + 1e-12)
    curvature = game.edge_curvatures(loads)[:, 0]
    assert np.all(curvature >= -1e-12)
    assert np.all(curvature <= cost.second_derivative_upper + 1e-12)
    values = game.edge_costs(loads)[:, 0]
    assert np.all(values >= a * grid - 1e-12)
    assert np.all(values <= b * grid + 1e-12)
    assert b <= cost.second_derivative_upper + 1.0 + 1e-12


@pytest.mark.parametrize("coefs", [(1.0,), (0.5, 0.5), (0.2, 0.1, 0.3)])
@pytest.mark.parametrize("upper", [0.25, 0.7, 1.0])
def test_primitive_matches_quadrature(coefs, upper):
    oracle, err = quad(polyval, 0.0, upper, args=((0.0, *coefs),))
    primitive = parallel_links_game(1, [coefs]).edge_primitives(np.array([upper]))[0]
    assert math.isclose(primitive, oracle, rel_tol=1e-10, abs_tol=1e-12)


def test_slope_matches_finite_differences():
    full = (0.0, 0.2, 0.1, 0.3)
    game = parallel_links_game(1, [full[1:]])
    h = 1e-6
    for y in (0.1, 0.5, 0.9):
        fd = (polyval(y + h, full) - polyval(y - h, full)) / (2 * h)
        slope = game.edge_slopes(np.array([y]))[0]
        assert math.isclose(slope, fd, rel_tol=1e-8)
        assert math.isclose(slope, polyval(y, polyder(full)), rel_tol=1e-12)
        assert math.isclose(game.edge_costs(np.array([y]))[0], polyval(y, full), rel_tol=1e-12)
