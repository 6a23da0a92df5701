"""Seeded random game instances for experiments and test suites."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .costs import PolynomialCost
from .game import CongestionGame, GameStructureError


def _random_cost(rng: np.random.Generator, degree: int) -> PolynomialCost:
    coefs = np.zeros(degree)
    coefs[0] = rng.uniform(0.3, 0.9)
    for j in range(1, degree):
        if rng.random() < 0.5:
            coefs[j] = rng.uniform(0.0, 0.3)
    total = coefs.sum()
    target = rng.uniform(0.5, 0.95)
    if total > target:
        coefs *= target / total
    while coefs.size > 1 and coefs[-1] == 0.0:
        coefs = coefs[:-1]
    return PolynomialCost(coefs)


def _random_paths(rng, m: int, count: int, max_len: int):
    # Only sum(comb(m, l) for l = 1..max_len) distinct paths exist; summing
    # lazily stops at the first partial sum that reaches count.
    available = itertools.accumulate(math.comb(m, length) for length in range(1, max_len + 1))
    if any(total >= count for total in available):
        paths: dict[frozenset[int], None] = {}  # insertion-ordered, with set lookups
        for _ in range(200 * count):
            length = int(rng.integers(1, max_len + 1))
            path = frozenset(int(e) for e in rng.choice(m, size=length, replace=False))
            paths.setdefault(path)
            if len(paths) == count:
                return tuple(paths)
    raise GameStructureError(
        f"could not draw {count} distinct paths of length <= {max_len} over {m} edges"
    )


def generate_random_game(
    seed: int,
    n: int,
    m: int,
    d: int,
    degree: int = 3,
    symmetric: bool = False,
    max_path_len: int | None = None,
) -> CongestionGame:
    """Deterministic in the seed; every edge passes cost validation."""
    if d < 1 or m < 1 or n < 1:
        raise GameStructureError("need n >= 1, m >= 1, d >= 1")
    if degree < 1:
        raise GameStructureError("cost degree must be at least 1")
    if max_path_len is not None and max_path_len < 1:
        raise GameStructureError("path length cap must be at least 1")
    max_len = min(max_path_len or 3, m)
    rng = np.random.default_rng(seed)
    edges = tuple(_random_cost(rng, degree) for _ in range(m))
    if symmetric:
        shared = _random_paths(rng, m, d, max_len)
        paths = tuple(shared for _ in range(n))
    else:
        paths = tuple(
            _random_paths(rng, m, int(rng.integers(max(1, min(2, d)), d + 1)), max_len)
            for _ in range(n)
        )
    return CongestionGame(n=n, edges=edges, paths=paths)
