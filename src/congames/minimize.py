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

The maximum individual cost is piecewise smooth, not edge-separable.  On a
symmetric game it depends only on the aggregate flow over the common paths, so
its minimizer solves the epigraph problem in d + 1 variables by the log-barrier
method, and certifies the result with a lower bound from convexity and the KKT
weights of the costliest paths (see min_max_cost).  The package needs numpy
alone.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _eigvals

from .bregman import ConfigurationError
from .costs import horner
from .game import CongestionGame


@dataclass(frozen=True)
class CertifiedMinimum:
    """Minimizer candidate with a certificate: value - min <= certificate.
    `converged` says whether the certificate met the oracle's fixed tolerance."""

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


def minimize_edge_separable(
    game: CongestionGame, objective: _EdgeSeparableObjective, tol: float, max_iter: int
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


# Frank-Wolfe stops at a duality gap of _FW_TOL, or unconverged after
# _FW_MAX_ITER iterations; the maximum-cost oracle stops at a certificate of
# _MAX_COST_TOL * max(1, value).
_FW_TOL = 1e-10
_FW_MAX_ITER = 200_000
_MAX_COST_TOL = 1e-12


def reference_minimizer(game: CongestionGame) -> CertifiedMinimum:
    """q = argmin Phi over the joint polytope, with a duality-gap certificate."""
    return minimize_edge_separable(game, potential_objective(game), _FW_TOL, _FW_MAX_ITER)


def min_average_cost(game: CongestionGame) -> CertifiedMinimum:
    """x* = argmin C_A; C_A is convex since y*c_e(y) has nonnegative coefficients."""
    return minimize_edge_separable(game, average_cost_objective(game), _FW_TOL, _FW_MAX_ITER)


_EPS = float(np.finfo(float).eps)


def _flow_jacobian(flow: CongestionGame, loads: np.ndarray) -> np.ndarray:
    """J = A diag(c'(loads)) A^T, symmetric, so row s is the gradient of c_s.  A^T
    is copied to C order: BLAS sums the transposed view in another order."""
    A = flow.incidence
    return (A * flow.edge_slopes(loads)) @ A.T.copy()


def _lower_bound(flow: CongestionGame, f: np.ndarray, lam: np.ndarray) -> float:
    """A lower bound on min C_M for any lam on the simplex and f >= 0.

    LB(lam) = sum_s lam_s c_s(f) - (g.f - min_p g_p), g = J(f)^T lam: every
    c_s is convex, so max_s c_s >= sum_s lam_s c_s >= its linearization at
    f, whose minimum over the simplex is LB.  Less the bound on the
    rounding of its three nonnegative terms (sums of at most deg + m + 2d
    rounded products each), so it holds for the float evaluation too.
    """
    g = _flow_jacobian(flow, flow.edge_loads(f)) @ lam
    terms = (float(lam @ flow.path_costs(f)), float(g @ f), float(g.min()))
    rounding = (flow._coef_table.shape[1] + flow.m + 2 * len(f)) * _EPS * sum(terms)
    return terms[0] - terms[1] + terms[2] - rounding


# The barrier parameter grows 100-fold per centering.  A centering ends when
# the Newton decrement is below 1e-9 or below the rounding of tau * t, the
# largest term of the barrier objective (16 ulps of it): near the optimum
# t - c_s is about 1/tau, so its rounding, and that of every decrease the line
# search measures, grows with tau.  A centering also ends after 200 steps or
# when backtracking falls below 1e-6 without a decrease.  The Newton matrix is
# scaled to unit diagonal and shifted by 1e-13: its entries along the active
# costs grow as tau**2 and those across them do not, so unshifted it can be
# singular in floats.
_TAU_GROWTH = 100.0
_DECREMENT = 1e-9
_ROUNDING = 16 * _EPS
_CENTERING_STEPS = 200
_SHORTEST_STEP = 1e-6
_SHIFT = 1e-13


def _epigraph_barrier(flow: CongestionGame, tol: float):
    """The log-barrier method for  min t  s.t.  c_s(f) <= t,  f a strategy of the
    one-player flow game, so on the simplex of its paths.

    Each centering minimizes tau*t - sum_s log(t - c_s(f)) - sum_p log(f_p)
    on sum(f) = 1 by Newton's method with backtracking (Boyd & Vandenberghe,
    Convex Optimization, 11.3), until 2d/tau, the barrier's bound on the
    suboptimality of a centered point, is at most tol * max(1, t); min_max_cost
    passes _MAX_COST_TOL.  Returns the flow, tau, the barrier's cost
    multipliers w / sum(w) with w_s = 1/(t - c_s), and the number of Newton
    steps.
    """
    A = flow.incidence
    AT = A.T.copy()  # C order, as in _flow_jacobian
    d = A.shape[0]
    f = np.full(d, 1.0 / d)
    c = flow.path_costs(f)
    t = 2.0 * c.max()
    tau = 2 * d / c.max()  # the bound 2d/tau starts at the uniform flow's max cost
    H = np.empty((d + 1, d + 1))  # the Hessian in (f, t)
    K = np.zeros((d + 2, d + 2))  # H scaled, bordered by the row of sum(f) = 1
    diagonal = K.reshape(-1)[: (d + 1) * (d + 2) : d + 3]
    ones = np.append(np.ones(d), 0.0)
    grad, rhs = np.empty(d + 1), np.zeros(d + 2)
    steps = 0
    while True:
        for _ in range(_CENTERING_STEPS):
            r = t - c
            w = 1.0 / r
            w2 = w * w
            loads = flow.edge_loads(f)
            J = _flow_jacobian(flow, loads)
            # sum_s w_s**2 grad(c_s - t) grad(c_s - t)^T + sum_s w_s hess(c_s) + diag(1/f**2)
            curvature = (w @ A) * flow.edge_curvatures(loads)
            H[:d, :d] = (J.T * w2) @ J + (A * curvature) @ AT + np.diag(1.0 / (f * f))
            H[:d, d] = H[d, :d] = -(J @ w2)
            H[d, d] = w2.sum()
            grad[:d] = J @ w - 1.0 / f
            grad[d] = tau - w.sum()
            scale = 1.0 / np.sqrt(H.diagonal())
            np.multiply(H, np.multiply.outer(scale, scale), out=K[: d + 1, : d + 1])
            K[: d + 1, d + 1] = K[d + 1, : d + 1] = ones * scale
            diagonal += _SHIFT
            rhs[: d + 1] = -grad * scale
            rhs[d + 1] = 1.0 - f.sum()
            step = np.linalg.solve(K, rhs)[: d + 1] * scale
            df, dt = step[:d], step[d]
            decrement = -float(grad @ step)
            steps += 1
            if not decrement > 2.0 * max(_DECREMENT, _ROUNDING * tau * max(1.0, t)):
                break
            s = 1.0
            shrinking = df < 0.0
            if shrinking.any():
                s = min(1.0, 0.99 * float((f[shrinking] / -df[shrinking]).min()))
            while s >= _SHORTEST_STEP:
                f_new, t_new = f + s * df, t + s * dt
                c_new = flow.path_costs(f_new)
                r_new = t_new - c_new
                # the decrease of the objective, summed from ratios: tau * t itself
                # reaches 1e13, where its rounding exceeds the decrease
                if (r_new > 0.0).all() and (f_new > 0.0).all() and (
                    tau * s * dt - np.log(r_new / r).sum() - np.log(f_new / f).sum()
                    <= -0.25 * s * decrement
                ):
                    break
                s *= 0.5
            else:
                break
            f, t, c = f_new, t_new, c_new
        if 2 * d / tau <= tol * max(1.0, t):
            w = 1.0 / (t - c)
            return f / f.sum(), tau, w / w.sum(), steps
        tau *= _TAU_GROWTH


def _nnls(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x >= 0 minimizing |M x - b|, by the active-set method of Lawson & Hanson
    (Solving Least Squares Problems, 1974, ch. 23)."""
    n = M.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)  # the variables not held at 0
    tol = 10 * _EPS * max(M.shape) * np.abs(M).max()
    for _ in range(3 * n):
        gradient = np.where(passive, -np.inf, M.T @ (b - M @ x))
        j = gradient.argmax()
        if not gradient[j] > tol:
            break
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(M[:, passive], b, rcond=None)[0]
            if (z[passive] > 0.0).all():
                x = z
                break
            # move toward z until the first passive variable reaches 0, and free it
            blocked = passive & (z <= 0.0)
            x += (x[blocked] / (x[blocked] - z[blocked])).min() * (z - x)
            passive &= x > tol
            x[~passive] = 0.0
    return x


def _kkt_weights(J: np.ndarray, c: np.ndarray, f: np.ndarray, delta: float) -> np.ndarray | None:
    """Weights lam >= 0 on the paths within delta of the maximum cost that solve
    KKT stationarity: g = J^T lam is one value mu on the used paths (f_p > delta)
    and at least mu on the unused ones, with sum(lam) = 1.

    One nonnegative least-squares solve in (lam, mu, s): g - mu = 0 on the used
    paths, g - mu - s_p = 0 on the unused ones, sum(lam) = 1; mu >= 0 costs
    nothing, since J >= 0.  None when no weight is positive.
    """
    d = len(c)
    active = np.flatnonzero(c >= c.max() - delta)
    unused = np.flatnonzero(f <= delta)
    k = len(active)
    M = np.zeros((d + 1, k + 1 + len(unused)))
    M[:d, :k] = J[:, active]
    M[:d, k] = -1.0
    M[unused, k + 1 + np.arange(len(unused))] = -1.0
    M[d, :k] = 1.0
    b = np.zeros(d + 1)
    b[d] = 1.0
    lam = np.zeros(d)
    lam[active] = _nnls(M, b)[:k]
    total = lam.sum()
    return lam / total if total > 0.0 else None


def min_max_cost(game: CongestionGame) -> CertifiedMinimum:
    """x_hat = argmin C_M on a symmetric game, with value - min C_M <= certificate.

    C_M(x) = max_s c_s(f) depends only on the aggregate flow f = sum_i x_i,
    the strategy of the one-player game over the common paths, whose
    evaluators give the loads, costs and derivatives.  So the epigraph problem
    min t  s.t.  c_s(f) <= t  has d + 1 variables whatever n is;
    _epigraph_barrier solves it.  Each player plays f / n, matched to her own
    list of paths by path.

    The certificate is C_M(x_hat) - LB(lam) for the better lower bound of two
    weight vectors: the KKT weights of the paths within delta = tau**-0.5 of
    the maximum, and the barrier's multipliers.  LB holds for any lam on the
    simplex and is evaluated in floats at the returned flow.  `iterations`
    counts Newton steps; `converged` is certificate <= 1e-12 * max(1, value).
    Asymmetric games raise ConfigurationError: the paper's maximum-cost bound,
    and max_cost_ratio, cover symmetric games only.
    """
    if not game.symmetric:
        raise ConfigurationError("the maximum-cost oracle covers symmetric games only")
    paths = tuple(dict.fromkeys(game.paths[0]))
    flow = CongestionGame(n=1, edges=game.edges, paths=(paths,))
    f, tau, barrier_weights, steps = _epigraph_barrier(flow, _MAX_COST_TOL)

    index = {path: k for k, path in enumerate(paths)}
    rows, shares = [], []
    for player_paths in game.paths:
        copies = Counter(player_paths)  # a path listed twice splits its flow
        rows += [index[path] for path in player_paths]
        shares += [1.0 / (game.n * copies[path]) for path in player_paths]
    flat = f[rows] * np.array(shares)
    value = game.max_cost(flat)

    J = _flow_jacobian(flow, flow.edge_loads(f))
    bound = _lower_bound(flow, f, barrier_weights)
    weights = _kkt_weights(J, flow.path_costs(f), f, tau**-0.5)
    if weights is not None:
        bound = max(bound, _lower_bound(flow, f, weights))
    certificate = max(value - bound, 0.0)
    return CertifiedMinimum(
        flat=flat,
        value=value,
        certificate=certificate,
        iterations=steps,
        converged=certificate <= _MAX_COST_TOL * max(1.0, value),
    )
