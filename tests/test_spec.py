"""The package against its executable specification, tests/spec.py: inputs from
hypothesis seeds, values within the rounding bound the spec derives from their
operands, and mirror steps at the optimality conditions of their argmin."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec
from congames import generate_random_game, make_geometry
from congames.bregman import project_simplex_rows
from congames.checks import delta_equilibrium_gap
from congames.minimize import average_cost_objective, potential_objective
from conftest import random_feasible
from test_bregman import _step_inputs, _step_layout

seeds = st.integers(0, 2**32 - 1)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_loads_costs_potential_and_gaps_match_the_spec(seed):
    rng = np.random.default_rng(seed)
    n, m, d, degree = rng.integers((1, 3, 1, 1), (5, 7, 5, 4)).tolist()
    game = generate_random_game(seed=seed, n=n, m=m, d=d, degree=degree)
    x = random_feasible(game, rng)
    x[rng.random(game.dim) < 0.2] = spec.SUPPORT  # on the support threshold
    # loads add dim terms, which a cost raises to powers up to degree + 1 in
    # 2 * degree + 2 more roundings; path costs and totals add m terms
    k = (degree + 1) * (game.dim + 2) + game.m + 4
    for got, exact in zip(game.edge_loads(x), spec.loads(game, x)):
        assert spec.close(got, exact, game.dim, exact)
    for got, exact in zip(game.path_costs(x), spec.path_costs(game, x)):
        assert spec.close(got, exact, k, exact)
    assert spec.close(game.potential(x), spec.potential(game, x), k, spec.potential(game, x))
    assert spec.close(game.average_cost(x), spec.average_cost(game, x), k, spec.average_cost(game, x))
    costs = game.path_costs(x)
    assert game.equilibrium_gap(x, costs) == spec.equilibrium_gap(game, x, costs)
    heavy = float(rng.choice(x))  # a potential gap whose heavy-path floor is an entry of x
    for eps in (0.0, 2.0 * game.b * game.m * heavy**2, 1.0):
        floor = spec.heavy_floor(game, eps)
        assert delta_equilibrium_gap(game, x, eps) == spec.equilibrium_gap(game, x, costs, floor)


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_cost_evaluators_match_the_spec(seed):
    # c, F, c' and c'' of degrees 1 to 6 at (m,) or (rows, m) loads in [0, 2], zeros among them
    rng = np.random.default_rng(seed)
    game = generate_random_game(seed=seed, n=1, m=int(rng.integers(1, 9)), d=1, degree=6)
    shape = (int(rng.integers(1, 4)), game.m) if rng.random() < 0.5 else (game.m,)
    loads = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) < 0.9)
    polys = {
        "edge_costs": spec.cost,
        "edge_primitives": lambda e: spec.primitive(spec.cost(e)),
        "edge_slopes": lambda e: spec.derivative(spec.cost(e)),
        "edge_curvatures": lambda e: spec.derivative(spec.derivative(spec.cost(e))),
    }
    k = 2 * game._coef_table.shape[1] + 4  # a table entry, Horner's steps, y * y
    for name, poly in polys.items():
        got = getattr(game, name)(loads)
        assert got.shape == shape, name
        for y, values in zip(np.reshape(loads, (-1, game.m)), np.reshape(got, (-1, game.m))):
            for edge, load, v in zip(game.edges, y, values):
                exact = spec.horner(poly(edge), load)  # nonnegative, so its own magnitude
                assert spec.close(v, exact, k, exact), name
    row = np.full(shape, np.nan)
    assert game.edge_costs(loads, out=row) is row
    assert row.tobytes() == game.edge_costs(loads).tobytes()


@given(seed=seeds)
@settings(max_examples=60, deadline=None)
def test_line_derivative_is_the_derivative_along_the_segment(seed):
    # degrees 1 to 6, loads in [0, 1] with 0 and 1, signed load steps with +-0 and +-1
    rng = np.random.default_rng(seed)
    game = generate_random_game(seed=seed, n=1, m=int(rng.integers(1, 11)), d=1, degree=6)
    loads = rng.choice([0.0, 1.0, *rng.uniform(0.0, 1.0, 4)], game.m)
    dloads = rng.choice([0.0, -0.0, 1.0, -1.0, *rng.uniform(-1.0, 1.0, 4)], game.m)
    P = game._coef_table.shape[1] + 1
    costs = [spec.cost(e) for e in game.edges]
    # G_e' is c_e for the potential and (y * c_e(y))' for the average cost
    slopes = {potential_objective: costs, average_cost_objective: [spec.derivative([0, *c]) for c in costs]}
    k = 3 * P + game.m + 6  # 3 per coefficient, P per power and per sum over j, m over the edges
    for objective, polys in slopes.items():
        polys = [c + [0] * (P - len(c)) for c in polys]
        exact = spec.line_derivative(polys, loads, dloads)
        magnitude = spec.line_derivative(polys, loads, np.abs(dloads))
        poly = objective(game).line_derivative()
        got = poly(loads, dloads)
        assert len(got) == P and all(map(spec.close, got, exact, [k] * P, magnitude))
        assert poly(loads, dloads).tobytes() == got.tobytes()  # buffers rewritten, not summed


def check_projections(P: np.ndarray, mass) -> None:
    """project_simplex_rows(P, mass) at the spec's conditions, padding (-1e300) at 0."""
    Z, pad = project_simplex_rows(P, mass), P == -1e300
    assert np.all(Z[pad] == 0.0)
    for y, z, row, total in zip(P, Z, ~pad, np.broadcast_to(mass, (len(P), 1))[:, 0]):
        magnitude = sum(map(abs, map(Fraction, y[row]))) + Fraction(total)
        spec.check_projection(y[row], z[row], total, 0.0, 4 * P.shape[1] + 16, magnitude)


@given(seed=seeds)
@settings(max_examples=100, deadline=None)
def test_projection_meets_its_optimality_conditions(seed):
    # padded rows with ties (quarter steps) or wide entries, scalar or per-row mass
    rng = np.random.default_rng(seed)
    n, d = rng.integers(1, 10), rng.integers(1, 18)
    P = rng.normal(size=(n, d)) * rng.choice([0.25, 1.0, 1e6])
    if rng.random() < 0.3:
        P = np.round(4.0 * P) / 4.0
    P[rng.random((n, d)) < 0.3] = -1e300
    P[np.arange(n), rng.integers(0, d, size=n)] = rng.normal(size=n)  # one entry per row
    check_projections(P, rng.uniform(0.05, 2.0, size=(n, 1)) if rng.random() < 0.5 else rng.uniform(0.05, 2.0))


def test_projection_of_a_row_with_a_1e20_entry():
    # no column of the first row passes the threshold test, as 1e20 - mass rounds
    # to 1e20, so the largest entry must hold by default; the mass then vanishes
    # in the rounding of 1e20, which the bound allows
    check_projections(np.array([[0.5, 1e20, -1e300, 0.25], [-1e300, 1e20, -1e300, -1e300]]), 1.0)


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("floor_frac", [0.0, 0.5])
@given(seed=seeds, d=st.sampled_from([*range(1, 11), 17, 33]), ties=st.booleans())
@settings(max_examples=40, deadline=None)
def test_steps_meet_their_optimality_conditions(kind, floor_frac, seed, d, ties):
    # scalar or per-player rates; with ties, even splits and costs on a coarse grid
    rng = np.random.default_rng(seed)
    mask, etas, mass, floor = _step_layout(rng, d, floor_frac, bool(rng.integers(2)))
    X, G = _step_inputs(rng, mask, mass, floor, ties)
    Z = make_geometry(kind).mirror_step(mask, etas, mass, floor)(X, G)
    assert np.all(Z[~mask] == 0.0)
    for x, g, eta, z, row in zip(X, G, np.broadcast_to(etas, len(mask)), Z, mask):
        spec.check_step(kind, x[row].tolist(), g[row].tolist(), float(eta), z[row].tolist(), mass, floor)


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_one_path_and_tied_rows_meet_the_optimality_conditions(kind):
    # a row of one entry keeps the mass; even splits at equal costs stay even
    for d in (1, 2, 3, 8, 33):
        for floor in (0.0, 0.5 / d):
            X, G = np.full((2, d), 1.0 / d), np.array([[0.25], [3.0]]) * np.ones(d)
            Z = make_geometry(kind).mirror_step(np.ones((2, d), dtype=bool), 0.5, 1.0, floor)(X, G)
            for x, g, z in zip(X, G, Z):
                assert np.all(z == z[0])
                spec.check_step(kind, x.tolist(), g.tolist(), 0.5, z.tolist(), 1.0, floor)
