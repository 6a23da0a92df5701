"""Congestion games, flows, loads, the potential function and social costs.

A game is (n players, edges with polynomial costs, per-player path sets).
Every player routes a total load of 1/n, split across her allowed paths; the
joint strategy is a flat vector over all (player, path) pairs.  The potential
is Phi(x) = sum_e F_e(load_e(x)) with F_e the antiderivative of the edge
cost, so its gradient entries are exactly the path costs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import PolynomialCost, horner, power_rows, primitive_table, slope_table

FEASIBILITY_TOL = 1e-12
SUPPORT_TOL = 1e-9  # entries above this count as used paths


class GameStructureError(ValueError):
    """Raised on malformed games or dimension mismatches."""


@dataclass(frozen=True)
class SmoothnessParams:
    """Certified bounds: Phi <= alpha, |grad Phi|_inf <= beta, hessian <= lam * I."""

    alpha: float
    beta: float
    lam: float


@dataclass(frozen=True)
class CongestionGame:
    n: int
    edges: tuple[PolynomialCost, ...]
    paths: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(
            self, "paths", tuple(tuple(frozenset(p) for p in pl) for pl in self.paths)
        )
        if not _is_integer(self.n):
            raise GameStructureError(f"player count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise GameStructureError("need at least one player")
        if len(self.edges) < 1:
            raise GameStructureError("need at least one edge")
        for e, cost in enumerate(self.edges):
            if not isinstance(cost, PolynomialCost):
                raise GameStructureError(f"edge {e} is not a PolynomialCost: {cost!r}")
        if len(self.paths) != self.n:
            raise GameStructureError(f"expected {self.n} path lists, got {len(self.paths)}")
        m = len(self.edges)
        for i, player_paths in enumerate(self.paths):
            if len(player_paths) < 1:
                raise GameStructureError(f"player {i} has no paths")
            for s in player_paths:
                if len(s) == 0:
                    raise GameStructureError(f"player {i} has an empty path")
                for e in s:
                    if not _is_integer(e):
                        raise GameStructureError(f"player {i} references edge {e!r}, not an integer")
                if any(e < 0 or e >= m for e in s):
                    raise GameStructureError(f"player {i} references an unknown edge")

    # -- structural parameters ------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(pl) for pl in self.paths)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start index of each player's block in the flat strategy vector."""
        return np.concatenate([[0], np.cumsum(self.sizes)]).astype(int)

    @property
    def dim(self) -> int:
        return int(self.offsets[-1])

    @property
    def d(self) -> int:
        return max(self.sizes)

    @cached_property
    def m_path(self) -> int:
        """Maximum path length (number of edges on one path)."""
        return max(len(s) for pl in self.paths for s in pl)

    @cached_property
    def k(self) -> int:
        """Max number of one player's paths meeting a single path of hers (incl. itself)."""
        worst = 0
        for pl in self.paths:
            for s in pl:
                worst = max(worst, sum(1 for r in pl if s & r))
        return worst

    @cached_property
    def a(self) -> float:
        return min(e.envelope_lower for e in self.edges)

    @cached_property
    def b(self) -> float:
        return max(e.envelope_upper for e in self.edges)

    @cached_property
    def second_derivative_upper(self) -> float:
        return max(e.second_derivative_upper for e in self.edges)

    @cached_property
    def symmetric(self) -> bool:
        first = set(self.paths[0])
        return all(set(pl) == first for pl in self.paths)

    def smoothness_params(self) -> SmoothnessParams:
        b, m, k = self.b, self.m, self.k
        return SmoothnessParams(alpha=b * m / 2.0, beta=b * m, lam=b * m * k)

    # -- vectorized evaluation tables -----------------------------------------

    @cached_property
    def incidence(self) -> np.ndarray:
        """0/1 matrix (dim x m): row (i,s) marks the edges on path s of player i."""
        inc = np.zeros((self.dim, self.m))
        row = 0
        for pl in self.paths:
            for s in pl:
                inc[row, sorted(s)] = 1.0
                row += 1
        return inc

    @cached_property
    def edge_ids(self) -> np.ndarray:
        """(dim x m_path) edge ids of every path in ascending order, padded with m."""
        ids = np.full((self.dim, self.m_path), self.m, dtype=np.intp)
        for row, path in enumerate(s for pl in self.paths for s in pl):
            ids[row, : len(path)] = sorted(path)
        return ids

    @cached_property
    def path_mask(self) -> np.ndarray:
        """(n x d) layout of the padded strategy: row i marks player i's paths."""
        return np.arange(self.d) < np.asarray(self.sizes)[:, None]

    def padded(self, flat: np.ndarray) -> np.ndarray:
        """A per-(player, path) vector in the (n x d) layout, zero past each block."""
        out = np.zeros((self.n, self.d))
        out[self.path_mask] = flat
        return out

    @cached_property
    def _coef_table(self) -> np.ndarray:
        """(m, deg) coefficients of c_e(y)/y, one row per edge."""
        deg = max(e.degree for e in self.edges)
        table = np.zeros((self.m, deg))
        for e, cost in enumerate(self.edges):
            table[e, : cost.degree] = cost.coefficients
        return table

    # The evaluators read each table as power-major rows, built once per game.

    @cached_property
    def _cost_rows(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        # leading-first for edge_costs: the leading row, then the lower ones
        leading, *lower = power_rows(self._coef_table)[::-1]
        return leading, tuple(lower)

    @cached_property
    def _primitive_rows(self) -> tuple[np.ndarray, ...]:
        return power_rows(primitive_table(self._coef_table))

    @cached_property
    def _slope_rows(self) -> tuple[np.ndarray, ...]:
        return power_rows(slope_table(self._coef_table))

    @cached_property
    def _curvature_rows(self) -> tuple[np.ndarray, ...]:
        # c''(y) for y**j is (j + 1) times the slope coefficient of y**(j + 1); the
        # zero row keeps a table for linear costs
        curvature = slope_table(slope_table(self._coef_table)[:, 1:])
        return power_rows(np.pad(curvature, ((0, 0), (0, 1))))

    def edge_costs(self, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """c_e(load_e) for every edge, into out (not loads itself) if given; loads may be
        batched (..., m).

        `horner(rows, loads) * loads` written out, so the same multiplies and
        adds run in the same order, each in place into the result.
        """
        leading, lower = self._cost_rows
        multiply, add = np.multiply, np.add
        acc = multiply(leading, loads, out)
        for row in lower:
            add(acc, row, acc)
            multiply(acc, loads, acc)
        return acc

    def edge_primitives(self, loads: np.ndarray) -> np.ndarray:
        """F_e(load_e), the per-edge potential contributions."""
        return horner(self._primitive_rows, loads) * loads * loads

    def edge_slopes(self, loads: np.ndarray) -> np.ndarray:
        """c'_e(load_e)."""
        # adding 0 keeps a constant (linear-cost) slope in the shape of loads
        return horner(self._slope_rows, loads) + np.zeros(np.shape(loads))

    def edge_curvatures(self, loads: np.ndarray) -> np.ndarray:
        """c''_e(load_e)."""
        return horner(self._curvature_rows, loads) + np.zeros(np.shape(loads))

    # -- flows and costs -------------------------------------------------------

    def uniform_profile(self) -> np.ndarray:
        """The joint strategy splitting each player's 1/n evenly over her paths."""
        return np.concatenate([np.full(sz, 1.0 / (self.n * sz)) for sz in self.sizes])

    def check_vector(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.dim,):
            raise GameStructureError(
                f"strategy vector has shape {flat.shape}, expected ({self.dim},)"
            )
        return flat

    def check_profile(self, flat: np.ndarray, tol: float = FEASIBILITY_TOL) -> np.ndarray:
        """flat as a float vector, after checking it is a joint strategy in K: finite,
        no entry below -tol, and every player's block summing to 1/n within tol."""
        flat = self.check_vector(flat)
        if not np.isfinite(flat).all():
            raise GameStructureError("flow has a non-finite entry")
        if np.any(flat < -tol):
            raise GameStructureError("flow has a negative entry")
        masses = np.add.reduceat(flat, self.offsets[:-1])
        off = np.abs(masses - 1.0 / self.n) > tol
        if off.any():
            i = int(np.argmax(off))
            raise GameStructureError(
                f"player {i} mass {masses[i]} deviates from 1/n by more than {tol}"
            )
        return flat

    def edge_loads(self, flat: np.ndarray) -> np.ndarray:
        """Aggregated load per edge: load_e = sum over paths through e of x_{i,s}."""
        return self.check_vector(flat) @ self.incidence

    def path_costs(self, flat: np.ndarray) -> np.ndarray:
        """Cost of every (player, path) pair; equals the potential gradient."""
        ecosts = self.edge_costs(self.edge_loads(flat))
        return self.incidence @ ecosts

    def potential(self, flat: np.ndarray) -> float:
        return float(self.edge_primitives(self.edge_loads(flat)).sum())

    def average_cost(self, flat: np.ndarray) -> float:
        """C_A(x) = sum_e load_e * c_e(load_e)."""
        loads = self.edge_loads(flat)
        return float(loads @ self.edge_costs(loads))

    def max_cost(self, flat: np.ndarray) -> float:
        """C_M(x) = max over all allowed paths of the path cost."""
        return float(self.path_costs(flat).max())

    def equilibrium_gap(
        self, flat: np.ndarray, costs: np.ndarray, support_tol: float = SUPPORT_TOL
    ) -> float:
        """Worst over players of (priciest path with mass above support_tol) - (cheapest path)."""
        return float(
            padded_equilibrium_gaps(self.padded(flat), self.padded(costs), self.path_mask, support_tol)
        )

    def player_slice(self, i: int) -> slice:
        """Player i's block of the flat strategy vector; i must be an integer in [0, n)."""
        if not _is_integer(i) or not 0 <= i < self.n:
            raise ValueError(f"no player {i!r}")
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))


def _is_integer(value) -> bool:
    """Whether value is an integer: numpy's integers are, bools are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def path_reduction(ufunc: np.ufunc, A: np.ndarray, out: np.ndarray | None = None):
    """ufunc (np.minimum or np.maximum) over the last, path axis of A, as a call
    that writes into out (a new array if None) and returns it.

    One elementwise call per path column: numpy reduces a short contiguous
    axis one output at a time, several times slower at d <= 8.  The column
    views are bound here once, so a caller that reduces the same buffer on
    every step keeps the call, and each call rereads A's current data.  Exact
    for min and max, so the result equals A's ufunc.reduce over that axis up
    to the sign of a zero, which numpy's reduction order decides.
    """
    first, *others = [A[..., c] for c in range(A.shape[-1])]
    second, *rest = others or [first]  # at d = 1 the column with itself
    if out is None:
        out = np.empty(A.shape[:-1], A.dtype)

    def by_columns():
        ufunc(first, second, out=out)
        for column in rest:
            ufunc(out, column, out=out)
        return out

    return by_columns


def padded_equilibrium_gaps(
    X: np.ndarray, costs: np.ndarray, mask: np.ndarray, floor
) -> np.ndarray:
    """Equilibrium gaps of profiles in the padded layout.

    X and costs have shape (..., n, d), mask is the game's `path_mask` and
    floor the support threshold, a scalar or an array broadcasting against
    the leading dimensions.  Per entry the result is the worst over players
    of (priciest path with mass above floor) - (cheapest allowed path),
    floored at 0.  Only max and min are taken, so the value does not depend
    on the layout or batching.
    """
    best = path_reduction(np.minimum, np.where(mask, costs, np.inf))()
    used = mask & (X > np.expand_dims(floor, (-2, -1)))
    worst = path_reduction(np.maximum, np.where(used, costs, -np.inf))()
    return np.maximum((worst - best).max(axis=-1), 0.0)


def _heavy_floor(game: CongestionGame, gap):
    """sqrt(gap / (2*b*m)), at least SUPPORT_TOL: the least mass the gap argument can move."""
    return np.maximum(SUPPORT_TOL, np.sqrt(np.maximum(gap, 0.0) / (2.0 * game.b * game.m)))


def parallel_links_game(n: int, coefficient_lists) -> CongestionGame:
    """Every player may use every single-edge path; classic load balancing."""
    edges = tuple(PolynomialCost(tuple(np.atleast_1d(c))) for c in coefficient_lists)
    single = tuple(frozenset([e]) for e in range(len(edges)))
    return CongestionGame(n=n, edges=edges, paths=tuple(single for _ in range(n)))
