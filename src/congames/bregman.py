"""Regularizer geometries, Bregman divergences, and the constrained mirror step.

Two geometries ship: the Euclidean one (squared-distance divergence, mirror
step = simplex projection of a gradient step) and negative entropy (KL
divergence, mirror step = multiplicative update).  Both solve the step

    argmin_z  eta * <g, z> + divergence(z, x)

exactly over a scaled simplex {z >= floor, sum z = mass}, the Euclidean case
by a sorted-threshold projection and the entropy case by a finite active-set
loop on the multiplicative closed form.  Each geometry has one step,
`mirror_step`, which steps every player at once in the padded (n, d) layout
of `CongestionGame.padded`; a single player is the one-row layout.  A step
returns rows summing to the mass, so its caller applies no correction.

A step is built once per run and owns that run's scratch buffers and bound
ufuncs, so each call does only the arithmetic, with outputs passed positionally
(a reduction's as reduce(array, axis, dtype, out, keepdims); np.minimum keeps
out=, since numpy 2.4 deprecates a third positional argument to it).  One step
must therefore not be called from two threads at once; build one step per
thread.  What a step returns is never its scratch: without `out` it is a fresh
array.
"""

from __future__ import annotations

import functools

import numpy as np

from .game import path_reduction


class ConfigurationError(ValueError):
    """Raised on infeasible sets or invalid dynamics parameters."""


class DivergenceDomainError(ValueError):
    """Raised when a divergence is evaluated outside its domain."""


def resolve_learning_rates(eta, n: int, lam: float) -> np.ndarray:
    """Rates of n players: eta (scalar or one per player), default 1/lam, each in (0, 1/lam]."""
    etas = np.asarray(1.0 / lam if eta is None else eta, dtype=float)
    if etas.shape not in ((), (1,), (n,)):
        raise ConfigurationError(f"learning rates of shape {etas.shape} for n = {n} players")
    etas = np.broadcast_to(etas, (n,)).copy()
    if not np.all(np.isfinite(etas)):
        raise ConfigurationError("learning rate must be a finite number")
    if np.any(etas <= 0.0):
        raise ConfigurationError("learning rate must be positive")
    if np.any(etas > 1.0 / lam + 1e-12):
        raise ConfigurationError(f"learning rate exceeds 1/lambda = {1.0 / lam:.6g}")
    return etas


def project_simplex_rows(P: np.ndarray, mass, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise sorted-threshold projection onto {z >= 0, sum z = mass}, into out
    if given (which may be P itself).

    mass is a scalar or a column of positive per-row masses; entries padded to
    -1e300 are ignored and come out 0.  The rows are sorted ascending and the
    descending cumulative sums are written back to front, so column j holds
    the sum of the d - j largest entries and every array is read in order.
    Unchecked domain: a row whose largest entry passes about 2**53 times the
    mass loses it all ([[0.5, 1e20, 0.25]] at mass 1 gives zeros); no game's
    step gets there, as path costs stay below m_path and rates at most 1/lambda.
    """
    n, d = P.shape
    counts, offsets = _rank_tables(n, d)
    U = P.copy()
    U.sort(1)
    css = np.empty((n, d))
    np.add.accumulate(U[:, ::-1], 1, None, css[:, ::-1])
    np.subtract(css, mass, css)
    holds = np.greater(U, np.divide(css, counts))
    holds[:, -1] = True  # the largest entry holds where no other does
    first = holds.argmax(1)  # the smallest entry that holds
    tau = css.take(np.add(offsets, first)) / counts.take(first)
    Z = np.subtract(P, tau[:, None], out)
    return np.maximum(Z, 0.0, out=Z)


@functools.lru_cache(maxsize=64)
def _rank_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of project_simplex_rows at (n, d): each column's descending
    rank plus one, d down to 1, and the flat offset of each row."""
    counts = np.arange(float(d), 0.0, -1.0)
    offsets = np.arange(0, n * d, d)
    counts.flags.writeable = offsets.flags.writeable = False
    return counts, offsets


def _full_rates(etas, shape: tuple[int, int]) -> np.ndarray:
    """The per-row rates spread over the whole (n, d) layout, so no step broadcasts them."""
    return np.broadcast_to(np.reshape(etas, (-1, 1)), shape).copy()


class EuclideanGeometry:
    """R(u) = ||u||^2 / 2; divergence is half the squared distance."""

    kind = "euclidean"

    def divergence(self, u: np.ndarray, v: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        d = u - v
        return float(0.5 * d @ d)

    def gamma(self, floor: float) -> float:
        # Gamma * divergence <= ||u - v||^2 <= 2 * divergence holds with Gamma = 2
        # on any set, both sides with equality.
        return 2.0

    def mirror_step(self, mask: np.ndarray, etas, mass: float, floor: float = 0.0):
        """The mirror step of every row of the padded (n, d) layout, as
        step(X, G, out=None), written into out when given (out may be X).

        Row i is player i: her entries are where mask[i] holds, X and G hold 0
        elsewhere, and she steps with rate etas[i] over {z >= floor, sum z =
        mass}.  The step is built once per run, so each call does only the
        arithmetic.  Here it projects x - eta * g, with z = floor + w turning
        the floored set into {w >= 0, sum w = mass - size * floor}; padding
        enters the projection as -1e300 and comes out 0.  Without a floor
        each projected row is then rescaled to the mass, clearing the
        round-off the threshold leaves in its sum (a row outside
        `project_simplex_rows`' domain projects to zeros and turns NaN here).
        """
        rates = _full_rates(etas, mask.shape)
        shift = np.where(mask, 0.0, -1e300) - floor
        P = np.empty(mask.shape)  # scratch: the point the step projects
        scale = np.empty((mask.shape[0], 1))
        total = np.array(mass)  # 0-d: a Python float is converted on every call
        free = (mass - floor * mask.sum(axis=1))[:, None]
        lift = np.where(mask, floor, 0.0)
        multiply, subtract, add, divide = np.multiply, np.subtract, np.add, np.divide
        add_reduce = np.add.reduce

        def step(X, G, out=None):
            multiply(rates, G, P)
            subtract(X, P, P)
            add(P, shift, P)
            if floor:
                return add(project_simplex_rows(P, free, P), lift, out)
            Z = project_simplex_rows(P, total, out)
            add_reduce(Z, 1, None, scale, True)
            divide(total, scale, scale)
            return multiply(Z, scale, Z)

        return step


class EntropyGeometry:
    """R(u) = sum u ln u - u; divergence is the (scaled-simplex) KL divergence."""

    kind = "negative-entropy"

    def divergence(self, u: np.ndarray, v: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if np.any(v < 0.0) or np.any(u < 0.0):
            raise DivergenceDomainError("entropy divergence needs nonnegative inputs")
        if np.any((v == 0.0) & (u > 0.0)):
            raise DivergenceDomainError("zero reference entry with positive mass")
        active = u > 0.0
        return float(np.sum(u[active] * np.log(u[active] / v[active])))

    def gamma(self, floor: float) -> float:
        # On a floored set with entries >= Lambda/n the KL divergence satisfies
        # (Lambda/n) * divergence <= ||u - v||^2, i.e. Gamma equals the floor.
        if floor <= 0.0:
            raise ConfigurationError(
                "entropy geometry has no two-sided divergence bound on unfloored sets"
            )
        return floor

    def mirror_step(self, mask: np.ndarray, etas, mass: float, floor: float = 0.0):
        """Multiplicative updates in the layout of EuclideanGeometry.mirror_step.

        Shifting each row of eta * G by its minimum, padding included, keeps
        exp from underflowing; the shift cancels when the row is rescaled.
        exp(min - Z) equals exp(-(Z - min)) bit for bit: the two exponents
        differ at most in the sign of a zero, and so does a minimum taken one
        path column at a time from numpy's reduction of the row.
        """
        rates = _full_rates(etas, mask.shape)
        W = np.empty(mask.shape)  # scratch: the unscaled update
        low = np.empty((mask.shape[0], 1))
        row_minimum = path_reduction(np.minimum, W, low[:, 0])
        scale = np.empty((mask.shape[0], 1))
        total = np.array(mass)
        multiply, subtract, exp, divide = np.multiply, np.subtract, np.exp, np.divide
        add_reduce = np.add.reduce

        def step(X, G, out=None):
            multiply(rates, G, W)
            row_minimum()
            subtract(low, W, W)
            exp(W, W)
            multiply(W, X, W)
            add_reduce(W, 1, None, scale, True)
            divide(total, scale, scale)
            Z = multiply(W, scale, out)
            if floor:
                _pin_to_floor(W, Z, mask, mass, floor)
            return Z

        return step


def _pin_to_floor(W: np.ndarray, Z: np.ndarray, mask: np.ndarray, mass: float, floor: float) -> None:
    """Row-wise argmin over {z >= floor, sum z = mass} of sum z ln(z/w), in place
    on Z, which holds w rescaled to the mass.

    That rescale solves the problem without the floor.  Entries that fall
    below the floor are pinned there and the remaining free mass is
    redistributed over the rest.  Rescaling only shrinks the free entries, so
    pinned entries stay pinned; every round pins at least one more entry, and
    the loop ends at the exact KKT point.  Padding (w = 0) stays 0.
    """
    pinned = np.zeros(W.shape, dtype=bool)
    newly = mask & (Z < floor)
    while newly.any():
        pinned |= newly
        free = mass - floor * pinned.sum(axis=1, keepdims=True)
        np.multiply(W, free / np.where(pinned, 0.0, W).sum(axis=1, keepdims=True), out=Z)
        np.putmask(Z, pinned, floor)
        newly = mask & ~pinned & (Z < floor)


_GEOMETRIES = {geometry.kind: geometry for geometry in (EuclideanGeometry, EntropyGeometry)}


def make_geometry(kind: str):
    try:
        return _GEOMETRIES[kind]()
    except KeyError:
        raise ConfigurationError(f"unknown geometry {kind!r}") from None
