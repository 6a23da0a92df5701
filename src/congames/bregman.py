"""Regularizer geometries, Bregman divergences, and the constrained mirror step.

Two geometries ship: the Euclidean one (squared-distance divergence, mirror
step = simplex projection of a gradient step) and negative entropy (KL
divergence, mirror step = multiplicative update).  Both solve the step

    argmin_z  eta * <g, z> + divergence(z, x)

exactly over a scaled simplex {z >= floor, sum z = mass}, the Euclidean case
by a sorted-threshold projection and the entropy case by a finite active-set
loop on the multiplicative closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised on infeasible sets or invalid dynamics parameters."""


class DivergenceDomainError(ValueError):
    """Raised when a divergence is evaluated outside its domain."""


@dataclass(frozen=True)
class FeasibleSet:
    """Scaled simplex with an optional per-entry lower bound.

    size * floor < mass is required when floor > 0 so the interior is
    nonempty; floor = 0 gives the plain strategy simplex.
    """

    size: int
    mass: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigurationError("feasible set needs at least one coordinate")
        if self.mass <= 0.0:
            raise ConfigurationError("mass must be positive")
        if self.floor < 0.0:
            raise ConfigurationError("floor must be nonnegative")
        slack = self.mass - self.size * self.floor
        if self.floor > 0.0 and slack <= 0.0:
            raise ConfigurationError(
                f"floor {self.floor} x {self.size} entries exceeds mass {self.mass}"
            )
        if slack < 0.0:
            raise ConfigurationError("size * floor exceeds mass")

    def contains(self, z: np.ndarray, tol: float = 1e-9) -> bool:
        z = np.asarray(z, dtype=float)
        return (
            z.shape == (self.size,)
            and bool(np.all(z >= self.floor - tol))
            and abs(z.sum() - self.mass) <= tol
        )

    def vertices(self) -> np.ndarray:
        """Extreme points: all free mass on one coordinate, floor elsewhere."""
        free = self.mass - self.size * self.floor
        verts = np.full((self.size, self.size), self.floor)
        verts[np.diag_indices(self.size)] += free
        return verts


def resolve_learning_rates(eta, n: int, lam: float) -> np.ndarray:
    """Rates of n players: eta (scalar or one per player), default 1/lam, each in (0, 1/lam]."""
    if eta is None:
        etas = np.full(n, 1.0 / lam)
    else:
        etas = np.broadcast_to(np.asarray(eta, dtype=float), (n,)).copy()
    if not np.all(np.isfinite(etas)):
        raise ConfigurationError("learning rate must be a finite number")
    if np.any(etas <= 0.0):
        raise ConfigurationError("learning rate must be positive")
    if np.any(etas > 1.0 / lam + 1e-12):
        raise ConfigurationError(f"learning rate exceeds 1/lambda = {1.0 / lam:.6g}")
    return etas


def project_simplex(p: np.ndarray, mass: float) -> np.ndarray:
    """Euclidean projection onto {z >= 0, sum z = mass} by sorted thresholding."""
    p = np.asarray(p, dtype=float)
    u = np.sort(p)[::-1]
    css = np.cumsum(u) - mass
    idx = np.arange(1, p.size + 1)
    rho = idx[u - css / idx > 0][-1]
    tau = css[rho - 1] / rho
    return np.maximum(p - tau, 0.0)


def project_simplex_rows(P: np.ndarray, mass: float, out=None) -> np.ndarray:
    """Row-wise sorted-threshold projection; entries padded to -inf are ignored."""
    U = -np.sort(-P, axis=1)
    idx = np.arange(1, P.shape[1] + 1)
    with np.errstate(invalid="ignore"):  # -inf padding yields NaN rows, never selected
        css = np.cumsum(U, axis=1) - mass
        cond = U - css / idx > 0
    rho = P.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
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

    def grad_regularizer(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float)

    def gamma(self, fs: FeasibleSet) -> float:
        # Gamma * divergence <= ||u - v||^2 <= 2 * divergence holds with Gamma = 2
        # on any set, both sides with equality.
        return 2.0

    def project(self, fs: FeasibleSet, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (fs.size,):
            raise ConfigurationError(f"point has shape {p.shape}, expected ({fs.size},)")
        if fs.floor == 0.0:
            return project_simplex(p, fs.mass)
        # Substitute z = floor + w and project the residual onto the unfloored simplex.
        w = project_simplex(p - fs.floor, fs.mass - fs.size * fs.floor)
        return w + fs.floor

    def mirror_step(self, fs: FeasibleSet, x: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
        _check_step_args(fs, x, g, eta)
        return self.project(fs, np.asarray(x, dtype=float) - eta * np.asarray(g, dtype=float))


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

    def grad_regularizer(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0):
            raise DivergenceDomainError("entropy gradient needs strictly positive input")
        return np.log(u)

    def gamma(self, fs: FeasibleSet) -> float:
        # On a floored set with entries >= Lambda/n the KL divergence satisfies
        # (Lambda/n) * divergence <= ||u - v||^2, i.e. Gamma equals the floor.
        if fs.floor <= 0.0:
            raise ConfigurationError(
                "entropy geometry has no two-sided divergence bound on unfloored sets"
            )
        return fs.floor

    def project(self, fs: FeasibleSet, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (fs.size,):
            raise ConfigurationError(f"point has shape {p.shape}, expected ({fs.size},)")
        if np.any(p <= 0.0):
            raise DivergenceDomainError("entropy projection needs strictly positive input")
        return _entropy_argmin(fs, p)

    def mirror_step(self, fs: FeasibleSet, x: np.ndarray, g: np.ndarray, eta: float) -> np.ndarray:
        _check_step_args(fs, x, g, eta)
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        if np.any(x <= 0.0):
            raise DivergenceDomainError("entropy mirror step needs strictly positive iterate")
        # Stabilized multiplicative weights; the shift cancels after renormalization.
        z = eta * g
        w = x * np.exp(-(z - z.min()))
        return _entropy_argmin(fs, w)


def _entropy_argmin(fs: FeasibleSet, w: np.ndarray) -> np.ndarray:
    """argmin over the floored scaled simplex of sum z ln(z/w), by active-set pinning.

    The unconstrained-in-the-floor solution rescales w to the mass.  Entries
    that fall below the floor are pinned there; the remaining free mass is
    redistributed over the rest.  Rescaling only shrinks the free entries, so
    pinned entries stay pinned and the loop ends within `size` rounds at the
    exact KKT point.
    """
    if fs.floor == 0.0:
        return w * (fs.mass / w.sum())
    pinned = np.zeros(fs.size, dtype=bool)
    z = np.empty(fs.size)
    for _ in range(fs.size + 1):
        free_mass = fs.mass - fs.floor * pinned.sum()
        z[pinned] = fs.floor
        z[~pinned] = w[~pinned] * (free_mass / w[~pinned].sum())
        newly = (~pinned) & (z < fs.floor)
        if not newly.any():
            return z
        pinned |= newly
    raise AssertionError("active-set loop failed to settle")  # pragma: no cover


def _check_step_args(fs: FeasibleSet, x, g, eta: float) -> None:
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.shape != (fs.size,) or g.shape != (fs.size,):
        raise ConfigurationError("iterate / gradient shape mismatch with the feasible set")
    if not np.all(np.isfinite(g)):
        raise ConfigurationError("gradient is not finite")
    if eta <= 0.0:
        raise ConfigurationError("learning rate must be positive")


_GEOMETRIES = {
    "euclidean": EuclideanGeometry,
    "negative-entropy": EntropyGeometry,
    "entropy": EntropyGeometry,
}


def make_geometry(kind: str):
    try:
        return _GEOMETRIES[kind]()
    except KeyError:
        raise ConfigurationError(f"unknown geometry {kind!r}") from None
