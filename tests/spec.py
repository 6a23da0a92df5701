"""An executable specification of the package's mathematics.

Each object of the paper is written in its plain form, one player, one path
and one edge at a time, in exact rational arithmetic, sharing no code with
the package; a mirror step is checked by the optimality conditions of its
argmin.  A comparison allows the package's rounding and no more: gamma(k)
times the magnitude of the operands, k the roundings on the longest chain of
operations (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
ch. 3).  The golden suites pin the bits; this module pins the math.
"""

from fractions import Fraction
from math import comb, exp, sqrt

U = 2.0**-53  # unit roundoff of float64
SUPPORT = 1e-9  # a path is used when it carries more mass than this


def gamma(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u), the relative error of k roundings."""
    return k * U / (1.0 - k * U)


def close(got, exact, k: int, magnitude) -> bool:
    return abs(Fraction(float(got)) - exact) <= Fraction(gamma(k)) * magnitude


def cost(edge) -> list[Fraction]:
    """c(y) = sum_j a_j y**j as its coefficients a_0 = 0, a_1, ..., a_deg."""
    return [Fraction(0), *map(Fraction, edge.coefficients)]


def derivative(coefs: list[Fraction]) -> list[Fraction]:
    return [j * a for j, a in enumerate(coefs)][1:] or [Fraction(0)]


def primitive(coefs: list[Fraction]) -> list[Fraction]:
    return [Fraction(0), *(a / (j + 1) for j, a in enumerate(coefs))]


def horner(coefs: list[Fraction], y) -> Fraction:
    value = Fraction(0)
    for a in reversed(coefs):
        value = value * Fraction(y) + a
    return value


def loads(game, x) -> list[Fraction]:
    """load_e: the mass of every (player, path) pair whose path uses edge e."""
    out, masses = [Fraction(0)] * game.m, iter(x)
    for paths in game.paths:
        for path, mass in zip(paths, masses):
            for e in path:
                out[e] += Fraction(float(mass))
    return out


def path_costs(game, x) -> list[Fraction]:
    costs = [horner(cost(edge), y) for edge, y in zip(game.edges, loads(game, x))]
    return [sum((costs[e] for e in path), Fraction(0)) for paths in game.paths for path in paths]


def potential(game, x) -> Fraction:
    """Phi(x): the sum over edges of the integral of c_e from 0 to load_e."""
    return sum(horner(primitive(cost(e)), y) for e, y in zip(game.edges, loads(game, x)))


def average_cost(game, x) -> Fraction:
    return sum(y * horner(cost(e), y) for e, y in zip(game.edges, loads(game, x)))


def heavy_floor(game, eps: float) -> float:
    """The least mass a potential gap eps can move, sqrt(eps/(2*b*m)), at least SUPPORT."""
    return max(SUPPORT, sqrt(eps / (2.0 * game.b * game.m)))


def equilibrium_gap(game, x, costs, floor: float = SUPPORT) -> float:
    """The worst over players of (priciest path with mass above floor) minus
    (cheapest path), at least 0."""
    gap, start = 0.0, 0
    for paths in game.paths:
        block, start = range(start, start + len(paths)), start + len(paths)
        used = [costs[j] for j in block if x[j] > floor]
        if used:
            gap = max(gap, max(used) - min(costs[j] for j in block))
    return gap


def line_derivative(polys, y, dy) -> list[Fraction]:
    """The coefficients, ascending in t, of d/dt sum_e G_e(y_e + t*dy_e) for
    G_e' with coefficients polys[e]: G_e'(y + t*dy) * dy, expanded binomially."""
    out = [Fraction(0)] * max(map(len, polys))
    for coefs, l, d in zip(polys, map(Fraction, y), map(Fraction, dy)):
        for p, a in enumerate(coefs):
            for q in range(p + 1):
                out[q] += a * comb(p, q) * l ** (p - q) * d ** (q + 1)
    return out


def check_step(kind: str, x, g, eta: float, z, mass: float, floor: float) -> None:
    """Raise AssertionError unless z is one player's mirror step, argmin
    eta*<g, z> + D(z, x) over {z >= floor, sum z = mass}, up to rounding."""
    if kind == "euclidean":
        y = [Fraction(a) - Fraction(eta) * Fraction(b) for a, b in zip(x, g)]
        size = sum(abs(Fraction(a)) + abs(Fraction(eta * b)) + Fraction(floor) for a, b in zip(x, g))
        check_projection(y, z, mass, floor, 4 * len(x) + 16, size + Fraction(mass))
    else:
        check_multiplicative(x, g, eta, z, mass, floor, 2 * len(x) + 12)


def check_projection(y, z, mass, floor, k: int, magnitude) -> None:
    """z is the Euclidean projection of y onto {z >= floor, sum z = mass}: z >=
    floor, sum z = mass, and one threshold tau with y - z = tau where z > floor
    and y - floor <= tau where z = floor, each within gamma(k) * magnitude."""
    y, z = [Fraction(v) for v in y], [Fraction(float(v)) for v in z]
    slack = Fraction(gamma(k)) * magnitude
    assert min(z) >= floor, "an entry below the floor"
    assert abs(sum(z) - Fraction(mass)) <= slack, "the mass is off"
    taus = [a - b for a, b in zip(y, z) if b > floor]  # none where the mass rounds away
    if taus:
        assert max(taus) - min(taus) <= slack, "the free entries share no threshold"
        pinned = [a - Fraction(floor) for a, b in zip(y, z) if b == floor]
        assert all(a <= max(taus) + slack for a in pinned), "a pinned entry lies above the threshold"


def check_multiplicative(x, g, eta: float, z, mass: float, floor: float, k: int) -> None:
    """z_j = max(floor, c * x_j * exp(-eta*g_j)) for one c > 0 and sum z = mass: the
    free entries' factors agree and the pinned ones' stay below floor / c, within
    gamma(k) plus the rounding of the exponents, 4u * eta * (|g_j| + max |g|)."""
    low, top = min(g), max(map(abs, g))
    w = [a * exp(-eta * (b - low)) for a, b in zip(x, g)]  # any common factor cancels
    err = 2.0 * max(gamma(k) + 4 * U * eta * (abs(b) + top) for b in g)
    assert min(z) >= floor, "an entry below the floor"
    assert abs(sum(map(Fraction, z)) - Fraction(mass)) <= Fraction(gamma(k) * mass), "the mass is off"
    factors = [b / a for a, b in zip(w, z) if b > floor]
    c = min(factors)
    assert max(factors) <= c * (1.0 + err), "the free entries share no factor"
    assert all(c * a <= floor * (1.0 + err) for a, b in zip(w, z) if b == floor), "a pinned entry is free"
