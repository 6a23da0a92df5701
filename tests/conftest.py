import numpy as np
import pytest

from congames import (
    CongestionGame,
    PolynomialCost,
    parallel_links_game,
    reference_minimizer,
)


def exp_dispatch() -> str:
    """The SIMD target numpy's float64 exp runs on here, and those it could run on.

    Multiplicative-update outputs go through np.exp, whose last bits differ
    between targets (X86_V4 against X86_V3), so the bulletin golden bits hold
    only on the target they were recorded with.
    """
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2 has no per-function dispatch report
        return "unknown (numpy < 2)"
    loops = opt_func_info(func_name="^exp$", signature="float64").get("exp", {})
    return "; ".join(f"{t['current']} (available: {t['available']})" for t in loops.values())


def pytest_report_header(config):
    return f"numpy {np.__version__}, float64 exp dispatch: {exp_dispatch() or 'none'}"


@pytest.fixture(scope="session")
def g1() -> CongestionGame:
    """Two parallel edges, c1(y) = y/2, c2(y) = y, one player.

    Analytic facts used across the suite: equilibrium q = (2/3, 1/3) from
    c1(y1) = c2(1 - y1), Phi(q) = 1/6, Phi((1/2, 1/2)) = 3/16.
    """
    return CongestionGame(
        n=1,
        edges=(PolynomialCost((0.5,)), PolynomialCost((1.0,))),
        paths=((frozenset({0}), frozenset({1})),),
    )


@pytest.fixture(scope="session")
def identity_links():
    def make(n: int, m: int) -> CongestionGame:
        return parallel_links_game(n, [[1.0]] * m)

    return make


def random_feasible(game: CongestionGame, rng: np.random.Generator) -> np.ndarray:
    """Random point of the joint polytope via per-player Dirichlet draws."""
    parts = [rng.dirichlet(np.ones(sz)) / game.n for sz in game.sizes]
    return np.concatenate(parts)


def uneven_links(sizes) -> CongestionGame:
    """Player i may use links 0..sizes[i]-1, each with cost c(y) = y."""
    edges = parallel_links_game(1, [[1.0]] * max(sizes)).edges
    paths = tuple(tuple(frozenset([e]) for e in range(size)) for size in sizes)
    return CongestionGame(n=len(sizes), edges=edges, paths=paths)


@pytest.fixture(scope="session")
def reference_cache():
    cache: dict = {}

    def get(game: CongestionGame):
        if game not in cache:
            cache[game] = reference_minimizer(game)
        return cache[game]

    return get
