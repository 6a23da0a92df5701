import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from congames import (
    CongestionGame,
    PolynomialCost,
    generate_random_game,
    min_average_cost,
    min_max_cost,
    parallel_links_game,
    reference_minimizer,
)
from conftest import random_feasible


def test_g1_reference_minimizer(g1):
    ref = reference_minimizer(g1)
    assert np.allclose(ref.flat, [2 / 3, 1 / 3], atol=1e-8)
    assert math.isclose(ref.value, 1 / 6, abs_tol=1e-9)
    assert ref.certificate <= 1e-10
    assert ref.converged


def test_symmetric_two_links_by_symmetry(identity_links):
    game = identity_links(1, 2)
    ref = reference_minimizer(game)
    assert np.allclose(ref.flat, [0.5, 0.5], atol=1e-8)
    assert math.isclose(ref.value, 0.25, abs_tol=1e-10)


def test_single_link_game_trivial():
    game = parallel_links_game(1, [[1.0]])
    ref = reference_minimizer(game)
    assert np.allclose(ref.flat, [1.0])
    assert math.isclose(ref.value, game.potential(np.array([1.0])), abs_tol=1e-15)
    assert ref.certificate <= 1e-12


def test_identical_links_many_players(identity_links):
    # Uniform loads minimize; Phi(q) = m * (1/m)^2 / 2 = 1/(2m).
    game = identity_links(4, 5)
    ref = reference_minimizer(game)
    assert math.isclose(ref.value, 1 / 10, abs_tol=1e-9)
    assert np.allclose(game.edge_loads(ref.flat), np.full(5, 0.2), atol=1e-6)


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_certificate_bounds_suboptimality(seed):
    game = generate_random_game(seed=seed, n=4, m=6, d=3)
    ref = reference_minimizer(game)
    assert ref.converged and ref.certificate <= 1e-10
    rng = np.random.default_rng(seed)
    for _ in range(500):
        assert game.potential(random_feasible(game, rng)) >= ref.value - ref.certificate - 1e-12


def test_average_cost_minimizer_g1(g1):
    best = min_average_cost(g1)
    # C_A(y) = y^2/2 + (1-y)^2 is minimized at y = 2/3 with value 1/3.
    assert np.allclose(best.flat, [2 / 3, 1 / 3], atol=1e-7)
    assert math.isclose(best.value, 1 / 3, abs_tol=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(500):
        assert g1.average_cost(random_feasible(g1, rng)) >= best.value - best.certificate - 1e-12


def test_max_cost_minimizer_g1(g1):
    best = min_max_cost(g1)
    # grid oracle over y1: min of max(y1/2, 1 - y1) sits at y1 = 2/3
    grid = np.linspace(0.0, 1.0, 20001)
    oracle = float(np.maximum(grid / 2, 1.0 - grid).min())
    assert math.isclose(best.value, oracle, abs_tol=1e-4)
    assert math.isclose(best.value, 1 / 3, abs_tol=1e-7)


def test_max_cost_minimizer_identical_links(identity_links):
    game = identity_links(2, 2)
    best = min_max_cost(game)
    assert math.isclose(best.value, 0.5, abs_tol=1e-7)


def test_scipy_loaded_only_by_max_cost_oracle():
    # scipy.optimize adds about 0.3 s to every start-up that does not need it
    code = (
        "import sys\n"
        "import congames, congames.cli\n"
        "print('scipy.optimize' in sys.modules)\n"
        "game = congames.parallel_links_game(2, [[1.0]] * 2)\n"
        "print(round(congames.min_max_cost(game).value, 6))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0.5", "True"]


def test_max_cost_minimizer_asymmetric_two_link():
    # One player, links y and y/2 + y^2/2: equalize y1 = c2(1-y1) numerically.
    game = CongestionGame(
        n=1,
        edges=(PolynomialCost((1.0,)), PolynomialCost((0.5, 0.5))),
        paths=((frozenset({0}), frozenset({1})),),
    )
    grid = np.linspace(0.0, 1.0, 200001)
    oracle = np.maximum(grid, 0.5 * (1 - grid) + 0.5 * (1 - grid) ** 2).min()
    best = min_max_cost(game)
    assert math.isclose(best.value, float(oracle), abs_tol=2e-5)


def test_minimizer_feasibility():
    for seed in (2, 3):
        game = generate_random_game(seed=seed, n=3, m=5, d=3, symmetric=True)
        for cert in (reference_minimizer(game), min_average_cost(game)):
            loads = game.edge_loads(cert.flat)
            assert np.all(cert.flat >= -1e-12)
            assert np.all(loads <= 1.0 + 1e-9)
            for i in range(game.n):
                assert math.isclose(
                    cert.flat[game.player_slice(i)].sum(), 1 / game.n, abs_tol=1e-9
                )


def test_bad_tolerance_rejected(g1):
    with pytest.raises(ValueError):
        reference_minimizer(g1, tol=0.0)
    with pytest.raises(ValueError):
        min_average_cost(g1, tol=-1.0)


def test_iteration_cap_reports_best_found():
    game = generate_random_game(seed=12, n=4, m=6, d=3)
    capped = reference_minimizer(game, tol=1e-12, max_iter=3)
    assert not capped.converged
    assert capped.certificate > 0.0
    full = reference_minimizer(game)
    # the certificate still upper-bounds the true suboptimality
    assert capped.value - (full.value - full.certificate) <= capped.certificate + 1e-12
