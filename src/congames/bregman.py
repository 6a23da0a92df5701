"""Regularizer geometries, Bregman divergences, and the constrained mirror step.

Two geometries ship: the Euclidean one (squared-distance divergence, mirror
step = simplex projection of a gradient step) and negative entropy (KL
divergence, mirror step = multiplicative update).  Both solve the step

    argmin_z  eta * <g, z> + divergence(z, x)

exactly over a scaled simplex {z >= floor, sum z = mass}, the Euclidean case
by a sorted-threshold projection and the entropy case by a finite active-set
loop on the multiplicative closed form.  Each geometry has one step,
`mirror_step`, which steps every player at once in the padded (n, d) layout
of `CongestionGame.padded`; a single player is the one-row layout.
"""

from __future__ import annotations

import numpy as np


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
    -1e300 are ignored and come out 0.
    """
    U = np.sort(P, axis=1)[:, ::-1]
    idx = np.arange(P.shape[1])
    css = np.cumsum(U, axis=1) - mass
    rho = ((U - css / (idx + 1) > 0) * idx).max(axis=1)  # the last index that holds
    tau = css[np.arange(P.shape[0]), rho] / (rho + 1)
    return np.maximum(P - tau[:, None], 0.0, out=out)


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
        enters the projection as -1e300 and comes out 0.
        """
        etas = np.reshape(etas, (-1, 1))
        shift = np.where(mask, 0.0, -1e300) - floor
        if not floor:
            return lambda X, G, out=None: project_simplex_rows(X - etas * G + shift, mass, out)
        free = (mass - floor * mask.sum(axis=1))[:, None]
        lift = np.where(mask, floor, 0.0)

        def step(X, G, out=None):
            return np.add(project_simplex_rows(X - etas * G + shift, free), lift, out=out)

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
        differ at most in the sign of a zero.
        """
        rates = np.broadcast_to(np.reshape(etas, (-1, 1)), mask.shape).copy()

        def step(X, G, out=None):
            W = np.multiply(rates, G)
            np.subtract(np.minimum.reduce(W, axis=1, keepdims=True), W, out=W)
            np.exp(W, out=W)
            np.multiply(W, X, out=W)
            if floor:
                Z = _pin_to_floor(W, mask, mass, floor)
                if out is None:
                    return Z
                np.copyto(out, Z)
                return out
            scale = np.add.reduce(W, axis=1, keepdims=True)
            np.divide(mass, scale, out=scale)
            return np.multiply(W, scale, out=W if out is None else out)

        return step


def _pin_to_floor(W: np.ndarray, mask: np.ndarray, mass: float, floor: float) -> np.ndarray:
    """Row-wise argmin over {z >= floor, sum z = mass} of sum z ln(z/w).

    Rescaling w to the mass solves the problem without the floor.  Entries
    that fall below the floor are pinned there and the remaining free mass is
    redistributed over the rest.  Rescaling only shrinks the free entries, so
    pinned entries stay pinned and the loop ends within d rounds at the exact
    KKT point.  Padding (w = 0) stays 0.
    """
    pinned = np.zeros(W.shape, dtype=bool)
    for _ in range(W.shape[1] + 1):
        free = mass - floor * pinned.sum(axis=1, keepdims=True)
        unpinned = np.where(pinned, 0.0, W)
        Z = np.where(pinned, floor, W * (free / unpinned.sum(axis=1, keepdims=True)))
        newly = mask & ~pinned & (Z < floor)
        if not newly.any():
            return Z
        pinned |= newly
    raise AssertionError("active-set loop failed to settle")  # pragma: no cover


_GEOMETRIES = {
    "euclidean": EuclideanGeometry,
    "negative-entropy": EntropyGeometry,
}


def make_geometry(kind: str):
    try:
        return _GEOMETRIES[kind]()
    except KeyError:
        raise ConfigurationError(f"unknown geometry {kind!r}") from None
