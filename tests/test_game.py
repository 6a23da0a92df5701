import math
import re

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

from congames import (
    CongestionGame,
    GameStructureError,
    PolynomialCost,
    generate_random_game,
    parallel_links_game,
    reference_minimizer,
)
from congames.game import path_reduction
from congames.minimize import _flow_jacobian
from conftest import random_feasible, uneven_links


def quadrature_potential(game: CongestionGame, flat: np.ndarray) -> float:
    """Independent oracle: numeric integration of each edge cost up to its load."""
    loads = game.edge_loads(flat)
    total = 0.0
    for e, cost in enumerate(game.edges):
        val, _ = quad(polyval, 0.0, loads[e], args=((0.0, *cost.coefficients),))
        total += val
    return total


# -- loads ---------------------------------------------------------------------


def test_loads_two_parallel_edges(g1):
    x = np.array([2 / 3, 1 / 3])
    assert np.allclose(g1.edge_loads(x), [2 / 3, 1 / 3], atol=1e-15)


def test_loads_single_path_concentration():
    game = generate_random_game(seed=7, n=3, m=5, d=3)
    flat = np.zeros(game.dim)
    for i in range(game.n):
        flat[game.offsets[i]] = 1.0 / game.n
    loads = game.edge_loads(flat)
    for e in range(game.m):
        expected = sum(
            1.0 / game.n for i in range(game.n) if e in game.paths[i][0]
        )
        assert math.isclose(loads[e], expected, abs_tol=1e-15)


def test_loads_two_player_parallel_uniform(identity_links):
    game = identity_links(2, 2)
    x = np.full(4, 0.25)  # hand sum: each edge collects 1/4 + 1/4
    assert np.allclose(game.edge_loads(x), [0.5, 0.5], atol=1e-15)


def test_load_bounds_random():
    game = generate_random_game(seed=11, n=4, m=6, d=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        loads = game.edge_loads(random_feasible(game, rng))
        assert np.all(loads >= -1e-12) and np.all(loads <= 1.0 + 1e-12)
        assert loads.sum() <= game.m_path + 1e-9


def test_dimension_mismatch_is_structural_error(g1):
    with pytest.raises(GameStructureError):
        g1.edge_loads(np.array([0.5, 0.25, 0.25]))


# -- path costs ------------------------------------------------------------------


def test_identity_edge_half_load():
    game = parallel_links_game(1, [[1.0]])
    assert math.isclose(game.path_costs(np.array([1.0]))[0], 1.0)
    game2 = parallel_links_game(2, [[1.0], [1.0]])
    x = np.array([0.5, 0.0, 0.0, 0.5])
    assert math.isclose(game2.path_costs(x)[0], 0.5)


def test_g1_path_costs(g1):
    assert np.allclose(g1.path_costs(np.array([0.5, 0.5])), [0.25, 0.5], atol=1e-15)
    assert np.allclose(g1.path_costs(np.array([2 / 3, 1 / 3])), [1 / 3, 1 / 3], atol=1e-15)


# -- potential -------------------------------------------------------------------


def test_potential_single_edge_full_load():
    game = parallel_links_game(1, [[1.0]])
    assert math.isclose(game.potential(np.array([1.0])), 0.5)


def test_potential_g1_values(g1):
    assert math.isclose(g1.potential(np.array([0.5, 0.5])), 3 / 16, abs_tol=1e-15)
    assert math.isclose(g1.potential(np.array([2 / 3, 1 / 3])), 1 / 6, abs_tol=1e-15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_potential_matches_quadrature(seed):
    game = generate_random_game(seed=seed, n=3, m=5, d=3)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        flat = random_feasible(game, rng)
        assert math.isclose(
            game.potential(flat), quadrature_potential(game, flat), rel_tol=1e-9
        )


def test_potential_floor():
    game = generate_random_game(seed=5, n=4, m=6, d=3)
    rng = np.random.default_rng(5)
    floor = game.a / (2 * game.m)
    for _ in range(200):
        assert game.potential(random_feasible(game, rng)) >= floor - 1e-12


# -- gradient --------------------------------------------------------------------


def test_gradient_zero_load_paths():
    game = parallel_links_game(1, [[1.0], [0.5]])
    x = np.array([1.0, 0.0])
    assert game.path_costs(x)[1] == 0.0


def test_gradient_matches_central_differences():
    game = generate_random_game(seed=9, n=3, m=5, d=3)
    rng = np.random.default_rng(9)
    flat = random_feasible(game, rng)
    grad = game.path_costs(flat)
    h = 1e-5
    for idx in range(game.dim):
        bump = np.zeros(game.dim)
        bump[idx] = h
        fd = (game.potential(flat + bump) - game.potential(flat - bump)) / (2 * h)
        assert math.isclose(grad[idx], fd, rel_tol=1e-6, abs_tol=1e-9)


@pytest.fixture
def mixed_degree_flow() -> CongestionGame:
    """One player over edges of degree 1 to 4: a flow game like min_max_cost's."""
    edges = tuple(
        PolynomialCost(c) for c in [(0.5,), (0.2, 0.3), (0.1, 0.2, 0.3), (0.1, 0.2, 0.3, 0.2)]
    )
    paths = [{0, 1}, {1, 2}, {2, 3}, {3}, {0, 2, 3}]
    return CongestionGame(n=1, edges=edges, paths=(tuple(map(frozenset, paths)),))


def test_edge_slopes_and_curvatures_match_central_differences(mixed_degree_flow):
    game = mixed_degree_flow
    h = 1e-6
    for loads in np.random.default_rng(4).uniform(0.05, 0.95, size=(5, game.m)):
        slopes = (game.edge_costs(loads + h) - game.edge_costs(loads - h)) / (2 * h)
        curvatures = (game.edge_slopes(loads + h) - game.edge_slopes(loads - h)) / (2 * h)
        assert np.allclose(game.edge_slopes(loads), slopes, rtol=1e-7, atol=1e-9)
        assert np.allclose(game.edge_curvatures(loads), curvatures, rtol=1e-7, atol=1e-9)
    assert game.edge_curvatures(np.full(game.m, 0.5))[0] == 0.0  # a linear cost
    batch = np.full((3, game.m), 0.5)
    assert game.edge_slopes(batch).shape == game.edge_curvatures(batch).shape == batch.shape


def test_path_cost_jacobian_matches_central_differences(mixed_degree_flow):
    # J = A diag(c'(loads)) A^T, as min_max_cost's barrier and lower bound use it
    game = mixed_degree_flow
    h = 1e-6
    for f in np.random.default_rng(5).dirichlet(np.ones(game.dim), size=5):
        jacobian = _flow_jacobian(game, game.edge_loads(f))
        bumps = h * np.eye(game.dim)
        fd = np.array([game.path_costs(f + b) - game.path_costs(f - b) for b in bumps]).T
        assert np.allclose(jacobian, fd / (2 * h), rtol=1e-7, atol=1e-9)
        assert np.array_equal(jacobian, jacobian.T)


def test_gradient_sup_norm_bound():
    game = generate_random_game(seed=13, n=4, m=6, d=3)
    beta = game.smoothness_params().beta
    rng = np.random.default_rng(13)
    for _ in range(100):
        grad = game.path_costs(random_feasible(game, rng))
        assert np.abs(grad).max() <= beta + 1e-12


# -- social costs ----------------------------------------------------------------


def test_social_costs_g1(g1):
    x = np.array([0.5, 0.5])
    assert math.isclose(g1.average_cost(x), 3 / 8, abs_tol=1e-15)
    assert math.isclose(g1.max_cost(x), 0.5, abs_tol=1e-15)
    q = np.array([2 / 3, 1 / 3])
    assert math.isclose(g1.average_cost(q), 1 / 3, abs_tol=1e-15)
    assert math.isclose(g1.max_cost(q), 1 / 3, abs_tol=1e-15)


def test_social_costs_single_edge():
    game = parallel_links_game(1, [[1.0]])
    x = np.array([1.0])
    assert math.isclose(game.average_cost(x), 1.0)
    assert math.isclose(game.max_cost(x), 1.0)


def test_average_cost_sandwich():
    game = generate_random_game(seed=21, n=4, m=5, d=3)
    rng = np.random.default_rng(21)
    a, b = game.a, game.b
    for _ in range(200):
        flat = random_feasible(game, rng)
        phi, ca = game.potential(flat), game.average_cost(flat)
        assert ((a + b) / b) * phi - 1e-9 <= ca <= ((a + b) / a) * phi + 1e-9


# -- smoothness ------------------------------------------------------------------


def test_smoothness_params_g1(g1):
    p = g1.smoothness_params()
    assert (p.alpha, p.beta, p.lam) == (1.0, 2.0, 2.0)


def test_smoothness_params_single_link():
    game = parallel_links_game(1, [[1.0]])
    p = game.smoothness_params()
    assert (p.alpha, p.beta, p.lam) == (0.5, 1.0, 1.0)


def test_smoothness_params_formula():
    # b = 2 from the slope of 0.5y + 0.5y^3 at 1; m = 3; overlapping paths give k = 2.
    cost = PolynomialCost((0.5, 0.0, 0.5))
    game = CongestionGame(
        n=1,
        edges=(cost, cost, cost),
        paths=((frozenset({0, 1}), frozenset({1, 2})),),
    )
    assert game.b == 2.0 and game.k == 2
    p = game.smoothness_params()
    assert (p.alpha, p.beta, p.lam) == (3.0, 6.0, 12.0)


def test_potential_value_bound():
    game = generate_random_game(seed=31, n=4, m=6, d=4)
    alpha = game.smoothness_params().alpha
    rng = np.random.default_rng(31)
    for _ in range(100):
        assert game.potential(random_feasible(game, rng)) <= alpha + 1e-12


def test_convexity_of_potential():
    game = generate_random_game(seed=41, n=3, m=5, d=3)
    rng = np.random.default_rng(41)
    for _ in range(1000):
        x, y = random_feasible(game, rng), random_feasible(game, rng)
        w = rng.random()
        mix = game.potential((1 - w) * x + w * y)
        assert mix <= (1 - w) * game.potential(x) + w * game.potential(y) + 1e-9


def test_smoothness_wrt_divergences():
    # Phi(x') <= Phi(x) + <grad Phi(x), x'-x> + lam * sum_i divergence(x'_i, x_i)
    # for both geometries; this is the inequality behind monotone descent.
    from congames import EntropyGeometry, EuclideanGeometry

    game = generate_random_game(seed=71, n=3, m=5, d=3)
    lam = game.smoothness_params().lam
    rng = np.random.default_rng(71)
    for _ in range(200):
        x, y = random_feasible(game, rng), random_feasible(game, rng)
        linear = game.potential(x) + game.path_costs(x) @ (y - x)
        for geo in (EuclideanGeometry(), EntropyGeometry()):
            if geo.kind == "negative-entropy":
                x_pos = np.maximum(x, 1e-12)
                div = sum(
                    geo.divergence(y[game.player_slice(i)], x_pos[game.player_slice(i)])
                    for i in range(game.n)
                )
            else:
                div = sum(
                    geo.divergence(y[game.player_slice(i)], x[game.player_slice(i)])
                    for i in range(game.n)
                )
            assert game.potential(y) <= linear + lam * div + 1e-9


def test_directional_curvature_bound():
    game = generate_random_game(seed=51, n=3, m=5, d=3)
    lam = game.smoothness_params().lam
    rng = np.random.default_rng(51)
    h = 1e-6
    for _ in range(200):
        x, y = random_feasible(game, rng), random_feasible(game, rng)
        z = y - x
        probe = z @ (game.path_costs(x + h * z) - game.path_costs(x)) / h
        assert probe <= lam * (z @ z) + 1e-6


# -- structure and profiles --------------------------------------------------------


def test_structural_invariants_random_games():
    for seed in range(20):
        game = generate_random_game(seed=seed, n=3, m=6, d=4)
        assert game.k <= game.d
        assert game.m_path <= game.m
        assert 0 < game.a <= game.b


def test_game_rejects_empty_paths():
    with pytest.raises(GameStructureError, match="no paths"):
        CongestionGame(n=1, edges=(PolynomialCost((1.0,)),), paths=((),))
    with pytest.raises(GameStructureError, match="empty path"):
        CongestionGame(n=1, edges=(PolynomialCost((1.0,)),), paths=((frozenset(),),))
    with pytest.raises(GameStructureError, match="unknown edge"):
        CongestionGame(n=1, edges=(PolynomialCost((1.0,)),), paths=((frozenset({3}),),))


@pytest.mark.parametrize(
    "n, edges, paths, message",
    [
        (0, (PolynomialCost((1.0,)),), (), "need at least one player"),
        (1, (), ((frozenset({0}),),), "need at least one edge"),
        (2, (PolynomialCost((1.0,)),), ((frozenset({0}),),), "expected 2 path lists, got 1"),
        # each of these was accepted and failed later, far from its cause
        (2.0, (PolynomialCost((1.0,)),), ((frozenset({0}),),) * 2,
         "player count must be an integer, got 2.0"),
        (True, (PolynomialCost((1.0,)),), ((frozenset({0}),),),
         "player count must be an integer, got True"),
        (1, (PolynomialCost((1.0,)),), ((frozenset({0.0}),),),
         "player 0 references edge 0.0, not an integer"),
        (1, (PolynomialCost((1.0,)),) * 2, ((frozenset({0}), frozenset({0.5})),),
         "player 0 references edge 0.5, not an integer"),
        (2, (PolynomialCost((1.0,)),), ((frozenset({0}),), (frozenset({"0"}),)),
         "player 1 references edge '0', not an integer"),
        (1, (PolynomialCost((1.0,)), 0.5), ((frozenset({0}),),),
         "edge 1 is not a PolynomialCost: 0.5"),
    ],
)
def test_game_rejects_bad_structure(n, edges, paths, message):
    with pytest.raises(GameStructureError, match=f"^{re.escape(message)}$"):
        CongestionGame(n=n, edges=edges, paths=paths)


def test_game_takes_numpy_integers():
    # numpy's integers index like Python's, so a game built from them runs
    game = CongestionGame(
        n=np.int64(2),
        edges=(PolynomialCost((1.0,)), PolynomialCost((0.5,))),
        paths=((frozenset({np.int64(0)}), frozenset({np.intp(1)})),) * 2,
    )
    assert game.incidence.tolist() == [[1.0, 0.0], [0.0, 1.0]] * 2
    assert reference_minimizer(game).converged


def test_check_profile_validation(g1):
    assert g1.check_profile([0.5, 0.5]).tolist() == [0.5, 0.5]
    with pytest.raises(GameStructureError):
        g1.check_profile(np.array([0.6, 0.5]))
    with pytest.raises(GameStructureError):
        g1.check_profile(np.array([-0.1, 1.1]))
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [np.inf, -np.inf], [0.5, np.nan]):
        with pytest.raises(GameStructureError, match="non-finite"):
            g1.check_profile(np.array(bad), tol=1e-9)


def test_check_profile_names_the_first_player_off_mass():
    """The message gives the first offending player's mass as the per-player
    sum of its block computes it."""
    game = uneven_links((2, 3, 1, 3))
    for first, later in ((1, 3), (2, 3), (0, 1)):
        bad = game.uniform_profile()
        bad[game.player_slice(first)] *= 1.1
        bad[game.player_slice(later)] *= 0.7
        mass = bad[game.player_slice(first)].sum()
        message = f"player {first} mass {mass} deviates from 1/n by more than 1e-09"
        with pytest.raises(GameStructureError, match=re.escape(message) + "$"):
            game.check_profile(bad, tol=1e-9)


def test_uniform_profile_feasible():
    game = generate_random_game(seed=61, n=5, m=6, d=4)
    game.check_profile(game.uniform_profile())


@pytest.mark.parametrize(
    "player, exists", [(-1, False), (3, False), (True, False), (1.0, False), (np.int64(1), True)]
)
def test_player_slice_takes_only_players_that_exist(player, exists):
    # n = 3: only the integers 0, 1 and 2 name players; True and 1.0 are not indices
    game = generate_random_game(seed=7, n=3, m=5, d=3)
    if exists:
        assert game.player_slice(player) == slice(int(game.offsets[1]), int(game.offsets[2]))
    else:
        with pytest.raises(ValueError, match=re.escape(f"no player {player!r}")):
            game.player_slice(player)


# -- reductions over the path axis ---------------------------------------------


@pytest.mark.parametrize("ufunc", [np.minimum, np.maximum])
@pytest.mark.parametrize("lead", [(1,), (3,), (8,), (2, 5)])
def test_path_reduction_matches_ufunc_reduce(ufunc, lead):
    # every width from 1 to 40, with ties, infinities and signed zeros in the
    # data, against numpy's own reduction; that may pick the other zero of a
    # tie of 0.0 and -0.0, so it is matched by value
    rng = np.random.default_rng(282)
    for d in range(1, 41):
        A = rng.choice([-np.inf, -1.5, -0.0, 0.0, 0.25, 2.0, np.inf], size=(*lead, d))
        A[..., -1] = rng.normal(size=lead)
        for _ in range(2):  # the data and its negation
            result = path_reduction(ufunc, A)
            assert result.shape == lead and not np.shares_memory(result, A), d
            assert np.array_equal(result, ufunc.reduce(A, axis=-1)), d
            A = -A
        B = np.where(A == 0.0, 0.0, A)  # bit for bit wherever no two zeros tie
        assert path_reduction(ufunc, B).tobytes() == ufunc.reduce(B, axis=-1).tobytes(), d
    # each call returns an array of its own
    assert path_reduction(ufunc, A) is not path_reduction(ufunc, A)
