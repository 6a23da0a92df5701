"""Certified minimizers over the joint strategy polytope.

Both the potential and the average individual cost are sums of convex
polynomials of the edge loads, so they share one solver: Frank-Wolfe with
away steps and exact line search (the objective restricted to a segment is a
low-degree polynomial, minimized by root finding).  Away steps matter here:
they give linear convergence for these load-composite objectives, which the
vanilla method cannot certify at 1e-10 in any reasonable iteration count.

The returned certificate is the Frank-Wolfe duality gap
    <grad(x), x - v>  maximized over vertices v,
an upper bound on the true suboptimality by convexity, valid regardless of
how the point was found.

A vertex of the joint polytope picks one path per player.  The active set is
an int array V of shape (k, n), each row a vertex as the flat coordinates of
its n paths, with weights w of shape (k,), both in insertion order, and a dict
from each row's bytes to its index, so the Frank-Wolfe vertex is found in O(n);
V, w and the dict are filtered and rebuilt only when a weight drops to 1e-15.
One gather scores every active vertex, the best response is one argmin over a
(n, d) array padded with +inf, and the iterate is rebuilt from (V, w) every 64
steps.  The arithmetic is fixed down to the bit: ties between away vertices go
to the lexicographically smallest, the weight total is summed left to right,
and the rebuild adds the vertices up in row order.  Outputs (flat, value,
certificate, iterations, converged) are pinned by
tests/test_minimize_golden.py; the CLI's phi_gap column subtracts the value, so
a last-bit change there changes CSV bytes.

That fixes the line search too.  Its step t is the smallest real eigenvalue in
[0, t_max] of the companion matrix np.roots would build for the derivative
polynomial, computed by the LAPACK gufunc np.linalg.eigvals wraps
(numpy.linalg._umath_linalg.eigvals, signature "d->D") under that wrapper's
error state, so t equals the np.roots answer bit for bit.  Bisection remains
the fallback when no eigenvalue lands inside, when row 0 of the matrix is not
finite (a subnormal leading coefficient overflows it; eigvals and np.roots
raised there), and when LAPACK does not converge (the invalid flag, raised as
FloatingPointError; eigvals raised LinAlgError).  The two search directions,
vertex - x and x - vertex, add the same terms as combination(...) - x but
write the vertex's n entries in place; np.add.at only rebuilds x from (V, w).

Each call owns its scratch: the companion matrices (one per size, ones on the
subdiagonal set once, row 0 rewritten per line search), the line-derivative
terms and the search direction.  Nothing is kept between calls, so solves on
different threads share no state.

The maximum individual cost is piecewise smooth, not edge-separable; its
minimizer uses an epigraph formulation solved by SLSQP.  scipy is imported only
by min_max_cost, so the rest of the package needs numpy alone.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _eigvals

from .costs import horner
from .game import CongestionGame


@dataclass(frozen=True)
class CertifiedMinimum:
    """Minimizer candidate with a duality-gap certificate (value - min <= certificate)."""

    flat: np.ndarray
    value: float
    certificate: float
    iterations: int
    converged: bool


def _binomial(p: int, q: int) -> float:
    out = 1.0
    for i in range(q):
        out = out * (p - i) / (i + 1)
    return out


class _EdgeSeparableObjective:
    """G(x) = sum_e F_e(load_e(x)) for per-edge polynomials F_e with powers >= 1."""

    def __init__(self, game: CongestionGame, table: np.ndarray):
        self.game = game
        self.table = table  # (m, P): F_e(y) = sum_p table[e, p-1] * y**p
        powers = np.arange(1, table.shape[1] + 1)
        self.dtable = table * powers  # derivative coefficients over powers 0..P-1
        P = self.dtable.shape[1]
        # taylor[j][q] = dtable[:, q+j] * C(q+j, q): the coefficient of loads**j in
        # the t**q term of the derivative along a line, for q + j < P.
        self.taylor = [
            np.array([self.dtable[:, q + j] * _binomial(q + j, q) for q in range(P - j)])
            for j in range(P)
        ]

    def value_from_loads(self, loads: np.ndarray) -> float:
        return float((horner(self.table, loads) * loads).sum())

    def edge_gradient(self, loads: np.ndarray) -> np.ndarray:
        return horner(self.dtable, loads)

    def line_derivative(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """line_derivative_poly(loads, dloads): coefficients (ascending in t) of
        d/dt G(x + t*d) along load direction dloads.  Its arrays belong to one
        solve: each call overwrites them and returns a fresh result."""
        P, m = len(self.taylor), self.table.shape[0]
        inner, dpow, lpow = np.empty((P, m)), np.empty((P, m)), np.empty(m)

        def line_derivative_poly(loads: np.ndarray, dloads: np.ndarray) -> np.ndarray:
            np.add(self.taylor[0], 0.0, out=inner)  # sum_j taylor[j] * loads**j from 0.0
            power = loads  # loads**j
            for j in range(1, P):
                term = np.multiply(self.taylor[j], power, out=dpow[: P - j])
                inner[: P - j] += term
                if j + 1 < P:
                    power = np.multiply(power, loads, out=lpow)
            dpow[0] = dloads  # dloads**(q+1), includes the outer chain factor
            for q in range(1, P):
                np.multiply(dpow[q - 1], dloads, out=dpow[q])
            return np.multiply(dpow, inner, out=dpow).sum(axis=1)

        return line_derivative_poly


def potential_objective(game: CongestionGame) -> _EdgeSeparableObjective:
    # integral of c_j y^(j+1) is c_j y^(j+2) / (j + 2)
    return _EdgeSeparableObjective(game, np.pad(game._primitive_table, ((0, 0), (1, 0))))


def average_cost_objective(game: CongestionGame) -> _EdgeSeparableObjective:
    # y * c_e(y) term by term
    return _EdgeSeparableObjective(game, np.pad(game._coef_table, ((0, 0), (1, 0))))


def _line_search(degree: int) -> Callable[[np.ndarray, float], float]:
    """poly_root_in(coeffs, t_max) for coefficient vectors up to this degree: the
    unique sign change of a nondecreasing polynomial on [0, t_max].  Its companion
    matrices belong to one solve: each call rewrites one of them."""
    # np.roots' companion matrix of size k is np.eye(k, k=-1) with row 0 set to
    # -p[1:] / p[0] once leading zeros are stripped; only row 0 changes per call.
    companions = [np.eye(k, k=-1) for k in range(degree + 1)]

    def poly_root_in(coeffs: np.ndarray, t_max: float) -> float:
        leading_first = coeffs[::-1].tolist()

        def ev(t: float) -> float:
            y = 0.0
            for c in leading_first:
                y = y * t + c
            return y

        if ev(t_max) <= 0.0:
            return t_max
        if ev(0.0) >= 0.0:
            return 0.0
        # ev(0) < 0 means a nonzero constant term, so there are no zero roots to
        # append as np.roots would.
        first = next(i for i, c in enumerate(leading_first) if c != 0.0)
        lead, rest = leading_first[first], leading_first[first + 1 :]
        row = [-c / lead for c in rest]
        inside = []
        # A subnormal lead overflows row 0 to inf (np.linalg.eigvals raised on a
        # non-finite matrix), and LAPACK's non-convergence sets the invalid flag
        # (eigvals raised on that too): both leave no eigenvalue and bisect.
        if rest and all(map(math.isfinite, row)):
            companion = companions[len(rest)]
            companion[0] = row
            try:
                with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="raise"):
                    roots = _eigvals(companion, signature="d->D").tolist()
            except FloatingPointError:
                roots = []
            high = t_max * (1 + 1e-12)
            inside = [r.real for r in roots if abs(r.imag) < 1e-9 and -1e-12 <= r.real <= high]
        if inside:
            return min(max(min(inside), 0.0), t_max)
        lo, hi = 0.0, t_max  # bisection fallback; derivative is monotone
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ev(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return poly_root_in


def _poly_root_in(coeffs: np.ndarray, t_max: float) -> float:
    """Unique sign change of a nondecreasing polynomial on [0, t_max]."""
    return _line_search(len(coeffs) - 1)(coeffs, t_max)


def minimize_edge_separable(
    game: CongestionGame,
    objective: _EdgeSeparableObjective,
    tol: float = 1e-10,
    max_iter: int = 200_000,
) -> CertifiedMinimum:
    inc = game.incidence
    n, starts, unit = game.n, game.offsets[:-1], 1.0 / game.n
    padded = np.full((n, game.d), np.inf)  # per-player path values, +inf beyond a block
    sel = np.flatnonzero(game.path_mask)  # where g goes in padded
    line_derivative_poly = objective.line_derivative()
    poly_root_in = _line_search(len(objective.taylor) - 1)
    direction = np.empty(game.dim)

    def best_response(g: np.ndarray) -> np.ndarray:
        padded.put(sel, g)
        return padded.argmin(axis=1) + starts

    def scores(g: np.ndarray, V: np.ndarray) -> np.ndarray:
        return g[V].sum(axis=1) / n

    def combination(V: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_k w[k] * vertex(V[k]), added up in row order."""
        x = np.zeros(game.dim)
        np.add.at(x, V, np.broadcast_to((w * unit)[:, None], V.shape))
        return x

    # Seed the active set with the best-response vertex at the uniform profile;
    # the iterate must be an exact convex combination of active vertices.
    V = best_response(inc @ objective.edge_gradient(game.uniform_profile() @ inc))[None]
    w = np.ones(1)
    rows = {V[0].tobytes(): 0}  # vertex bytes -> its row in V
    x = combination(V, w)

    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        loads = x @ inc
        g = inc @ objective.edge_gradient(loads)
        fw = best_response(g)
        gx = float(g @ x)
        gap = gx - float(g[fw].sum() / n)
        if gap <= tol:
            break

        s = scores(g, V)  # the away vertex scores highest, ties to the smallest row
        ties = (s == s.max()).nonzero()[0]
        away = ties[np.lexsort(V[ties].T[::-1])[0]] if ties.size > 1 else ties[0]

        fw_step = gap >= float(s[away]) - gx or len(w) == 1
        if fw_step:  # vertex - x
            np.subtract(0.0, x, out=direction)  # not -x: 0.0 - 0.0 is +0.0
            direction[fw] += unit
            t_max = 1.0
        else:  # x - vertex
            direction[:] = x
            direction[V[away]] -= unit
            w_away = float(w[away])
            t_max = w_away / (1.0 - w_away) if w_away < 1.0 else 1.0

        dloads = direction @ inc
        t = poly_root_in(line_derivative_poly(loads, dloads), t_max)
        if t <= 0.0:
            break  # numerically stalled; certificate below still stands

        if fw_step:
            w *= 1.0 - t
            key = fw.tobytes()
            hit = rows.get(key)
            if hit is not None:
                w[hit] += t
            else:
                rows[key] = len(w)
                V = np.concatenate([V, fw[None]])
                w = np.append(w, t)
        else:
            w *= 1.0 + t
            w[away] -= t
        keep = w > 1e-15
        if not keep.all():
            V, w = V[keep], w[keep]
            rows = {v.tobytes(): k for k, v in enumerate(V)}
        w /= sum(w.tolist())  # left to right: np.sum's pairwise order changes bits

        direction *= t
        x += direction  # the bits of x + t * direction
        if it % 64 == 0:  # resync from the convex combination to kill drift
            x = combination(V, w)

    x = combination(V, w)
    loads = x @ inc
    g = inc @ objective.edge_gradient(loads)
    gap = float(g @ x) - float(scores(g, best_response(g)[None])[0])
    return CertifiedMinimum(
        flat=x,
        value=objective.value_from_loads(loads),
        certificate=max(float(gap), 0.0),
        iterations=it,
        converged=gap <= tol,
    )


def _check_tol(tol: float) -> None:
    if isinstance(tol, bool) or not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def _check_oracle_args(tol: float, max_iter: int) -> None:
    _check_tol(tol)
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def reference_minimizer(
    game: CongestionGame, tol: float = 1e-10, max_iter: int = 200_000
) -> CertifiedMinimum:
    """q = argmin Phi over the joint polytope, with a duality-gap certificate."""
    _check_oracle_args(tol, max_iter)
    return minimize_edge_separable(game, potential_objective(game), tol, max_iter)


def min_average_cost(
    game: CongestionGame, tol: float = 1e-10, max_iter: int = 200_000
) -> CertifiedMinimum:
    """x* = argmin C_A; C_A is convex since y*c_e(y) has nonnegative coefficients."""
    _check_oracle_args(tol, max_iter)
    return minimize_edge_separable(game, average_cost_objective(game), tol, max_iter)


@dataclass(frozen=True)
class MaxCostMinimum:
    flat: np.ndarray
    value: float


def min_max_cost(
    game: CongestionGame, tol: float = 1e-12, reference: CertifiedMinimum | None = None
) -> MaxCostMinimum:
    """x_hat = argmin C_M via the epigraph form  min t  s.t.  c_s(x) <= t.

    SLSQP starts from the uniform profile and from the potential minimizer
    `reference`, which is solved at tol=1e-9 when the caller has none.
    """
    _check_tol(tol)
    # scipy.optimize adds about 0.3 s to start-up, and nothing else needs it.
    from scipy import optimize

    inc = game.incidence
    rows = {tuple(r) for r in inc.astype(int)}
    rows = np.array(sorted(rows), dtype=float)  # distinct paths only

    def split(y):
        return y[:-1], y[-1]

    def objective(y):
        return y[-1]

    def objective_grad(y):
        g = np.zeros_like(y)
        g[-1] = 1.0
        return g

    def path_slack(y):
        x, t = split(y)
        ecosts = game.edge_costs(x @ inc)
        return t - rows @ ecosts

    def path_slack_jac(y):
        x, t = split(y)
        slopes = game.edge_slopes(x @ inc)
        jac = np.zeros((rows.shape[0], y.size))
        jac[:, :-1] = -(rows * slopes) @ inc.T
        jac[:, -1] = 1.0
        return jac

    mass_rows = np.zeros((game.n, game.dim + 1))
    for i in range(game.n):
        mass_rows[i, game.offsets[i] : game.offsets[i + 1]] = 1.0
    mass_target = np.full(game.n, 1.0 / game.n)

    constraints = [
        {"type": "ineq", "fun": path_slack, "jac": path_slack_jac},
        {
            "type": "eq",
            "fun": lambda y: mass_rows @ y - mass_target,
            "jac": lambda y: mass_rows,
        },
    ]
    bounds = [(0.0, 1.0 / game.n)] * game.dim + [(0.0, None)]

    if reference is None:
        reference = reference_minimizer(game, tol=1e-9)
    best = None
    for x0 in (game.uniform_profile(), reference.flat):
        y0 = np.concatenate([x0, [game.max_cost(x0)]])
        res = optimize.minimize(
            objective,
            y0,
            jac=objective_grad,
            bounds=bounds,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 500, "ftol": tol},
        )
        x = np.maximum(res.x[:-1], 0.0)
        for i in range(game.n):
            sl = game.player_slice(i)
            x[sl] *= 1.0 / game.n / x[sl].sum()
        value = game.max_cost(x)
        if best is None or value < best.value:
            best = MaxCostMinimum(flat=x, value=value)
    return best
