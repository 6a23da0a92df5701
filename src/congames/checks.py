"""The theorem checks: each guarantee's bound, slack and step budget, and one
record per check.  The checks only read the reports and certified minima they
are given, so they solve no oracle; no dynamics module imports this one."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bandit import BanditReport
from .bregman import ConfigurationError, make_geometry
from .bulletin import BulletinReport
from .game import CongestionGame, _heavy_floor
from .minimize import CertifiedMinimum


@dataclass(frozen=True)
class Check:
    """One theorem check: ok iff measured <= bound, the check's slack folded into
    bound.  limit is the largest value the measured quantity can take (+inf when
    unknown); a bound at or past it cannot fail, so the check is vacuous and counts
    as a pass.  str() is the report line `[PASS] name: measured m, bound b, margin
    bound - measured` (`[FAIL]` unless ok), then `, vacuous (limit l)` if vacuous."""

    name: str
    measured: float
    bound: float
    limit: float = math.inf

    @property
    def ok(self) -> bool:
        return bool(self.measured <= self.bound)

    @property
    def margin(self) -> float:
        return self.bound - self.measured

    @property
    def vacuous(self) -> bool:
        return bool(self.bound >= self.limit)

    def __str__(self) -> str:
        line = f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: measured {self.measured:.6g}"
        line += f", bound {self.bound:.6g}, margin {self.margin:.6g}"
        return f"{line}, vacuous (limit {self.limit:.6g})" if self.vacuous else line


def delta_equilibrium_gap(game: CongestionGame, flat: np.ndarray, epsilon: float = 0.0) -> float:
    """Worst over players of (priciest used path) - (cheapest allowed path), floored
    at 0; a used path carries mass above SUPPORT_TOL and above sqrt(eps/(2*b*m)).

    The sqrt(8*b*m*eps) ceiling is proved by shifting delta/(4*b*m) of load
    off the priciest used path, so at a potential gap eps it binds only paths
    that actually carry that much.  Paths lighter than this can sit
    arbitrarily far above the cheapest one at vanishing potential cost, which
    is why the plain gap is reported separately and checked against nothing.
    """
    if math.isnan(epsilon):
        raise ValueError("epsilon is nan, so every path would read as too light to count")
    flat = game.check_vector(flat)
    return game.equilibrium_gap(flat, game.path_costs(flat), _heavy_floor(game, epsilon))


def equilibrium_gap_bound(game: CongestionGame, epsilon):
    """delta <= sqrt(8*b*m*eps) for any x with Phi(x) <= Phi(q) + eps; eps may be an array."""
    return np.sqrt(np.maximum(8.0 * game.b * game.m * epsilon, 0.0))


def average_ratio_bound(game: CongestionGame, epsilon):
    """C_A(x) / min C_A <= (b/a)(1 + 2*m*eps/a) when Phi(x) <= min Phi + eps; eps may be an array."""
    a = game.a
    return (game.b / a) * (1.0 + 2.0 * game.m * epsilon / a)


def max_ratio_bound(game: CongestionGame, epsilon):
    """C_M(x) / min C_M <= (b/a)(1 + 2*m*eps/a + delta*m/b) when Phi(x) <= min Phi + eps.

    Symmetric games only; delta is the equilibrium-gap bound sqrt(8*b*m*eps),
    and eps may be an array.
    """
    a, b, m = game.a, game.b, game.m
    return (b / a) * (1.0 + 2.0 * m * epsilon / a + equilibrium_gap_bound(game, epsilon) * m / b)


def mixed_delta_bound(game: CongestionGame, gap: float) -> float:
    """Theory ceiling sqrt(8*b*m*gap) + B*m_path/n for the mixed equilibrium gap."""
    return float(equilibrium_gap_bound(game, gap)) + (
        game.second_derivative_upper * game.m_path / game.n
    )


def sigma_targets(game: CongestionGame, sigma: float) -> tuple[float, float | None]:
    """The potential gaps that give social-cost slack sigma: a*sigma/(2m) for the
    average-cost ratio and, on symmetric games only (else None), a*sigma**2/(32m)
    for the maximum-cost ratio."""
    average = game.a * sigma / (2.0 * game.m)
    return average, game.a * sigma**2 / (32.0 * game.m) if game.symmetric else None


def _budget(work: float, rate: float) -> int | float:
    """ceil(work/rate) steps: 0 when work is 0, inf when the quotient is not finite,
    and the quotient itself from 2**53 up, where every float is an integer."""
    if work == 0.0:
        return 0
    steps = work / rate if rate > 0.0 else math.inf
    return math.ceil(steps) if steps < 2.0**53 else steps


def step_budget(game: CongestionGame, geometry: str, eta: float, epsilon: float) -> int | float:
    """Steps within which the theorem puts a gap of epsilon at learning rate eta:
    2/(n*eta*eps) for gradient descent, n*ln(d*n)/(eta*eps) for multiplicative updates."""
    if make_geometry(geometry).kind == "euclidean":
        return _budget(2.0, game.n * eta * epsilon)
    return _budget(game.n * math.log(game.d * game.n), eta * epsilon)


def bulletin_checks(report: BulletinReport) -> list[Check]:
    """The run's theorem checks: monotone descent, the equilibrium-gap ceiling
    at the step nearest to breaking it, with the largest path cost as limit,
    and, if the run had a target eps, its first certified hit within
    n*gamma/(eta_min*eps) steps, gamma the measured initial divergence; a run
    with no hit measures nan, which fails."""
    game = report.game
    ceiling = equilibrium_gap_bound(game, report.certified_gaps) + 1e-6
    worst = int(np.argmax(report.theorem_delta_gaps - ceiling))
    gap, bound = float(report.theorem_delta_gaps[worst]), float(ceiling[worst])
    priciest = float((game.incidence @ game.edge_costs(np.ones(game.m))).max())
    checks = [
        Check("monotone-descent", report.max_ascent, 1e-10),
        Check("equilibrium-gap-bound", gap, bound, priciest),
    ]
    if report.target_gap is not None:
        hit = report.first_certified_hit
        rate = float(report.etas.min()) * report.target_gap
        budget = _budget(game.n * report.gamma_measured, rate)
        checks.append(Check("convergence-budget", math.nan if hit is None else hit, budget))
    return checks


def ratio_checks(
    game: CongestionGame,
    flat: np.ndarray,
    sigma: float,
    average: CertifiedMinimum,
    maximum: CertifiedMinimum | None = None,
) -> list[Check]:
    """The social-cost checks at slack sigma: C_A(x) within `average_ratio_bound`
    at the gap a*sigma/(2m), (b/a)(1 + sigma), of min C_A and, when `maximum` is
    given, C_M(x) within `max_ratio_bound` at the gap a*sigma**2/(32m) of it.  A
    `maximum` given for an asymmetric game is refused."""
    average_gap, maximum_gap = sigma_targets(game, sigma)
    bound = average_ratio_bound(game, average_gap) + 1e-9
    checks = [Check("average-cost-ratio", average_cost_ratio(game, flat, average), bound)]
    if maximum is not None:
        ratio = max_cost_ratio(game, flat, average, maximum)
        bound = max_ratio_bound(game, maximum_gap) + 1e-9
        checks.append(Check("maximum-cost-ratio", ratio, bound))
    return checks


def average_cost_ratio(game: CongestionGame, flat: np.ndarray, average: CertifiedMinimum) -> float:
    """C_A(x) against the certified lower bound on min C_A."""
    return float(certified_ratio(game.average_cost(flat), average.lower_bound))


def max_cost_ratio(
    game: CongestionGame,
    flat: np.ndarray,
    average: CertifiedMinimum,
    maximum: CertifiedMinimum,
) -> float:
    """C_M(x) against the certified lower bound on min C_M; refused on asymmetric
    games, which the guarantee does not cover."""
    if not game.symmetric:
        raise ConfigurationError("maximum-cost ratio guarantee only covers symmetric games")
    # min C_M >= min C_A, so the certified average lower bound is one too.
    return float(certified_ratio(game.max_cost(flat), max(maximum.lower_bound, average.lower_bound)))


def certified_ratio(value, lower_bound: float):
    """value / lower_bound, a certified lower bound on a minimum; inf where that
    bound is not positive, as it then certifies no ratio.  value may be an array."""
    return np.divide(value, lower_bound) if lower_bound > 0.0 else np.full(np.shape(value), np.inf)


_DESCENT_SLACK = 1e-9  # the rounding allowed in descent_step_check's potentials


def descent_step_check(
    phi_prev: float, phi_next: float, phi_min: float, theta: float, delta: float
) -> Check:
    """One-episode progress test: Phi_next <= Phi_prev - theta*(Phi_prev - Phi_min) + delta,
    up to _DESCENT_SLACK."""
    bound = phi_prev - theta * (phi_prev - phi_min) + delta + _DESCENT_SLACK
    return Check("descent-step", phi_next, bound)


def _gap_check(name: str, gaps: np.ndarray, bound: float, alpha: float) -> Check:
    """The worst of gaps within bound, with the potential bound alpha as limit.  Over
    no episode it measures -inf, the only value a maximum over nothing can take, so
    its limit is -inf too and the check reads vacuous."""
    if not gaps.size:
        return Check(name, -math.inf, bound, -math.inf)
    return Check(name, float(gaps.max()), bound, alpha)


def bandit_checks(report: BanditReport) -> list[Check]:
    """The run's theorem checks: the worst certified gap from episode tau0 on,
    and from the first gap below 2*delta/theta on, each within 3*delta/theta,
    and how far the least played probability falls under the floor Lambda/n."""
    p, gaps = report.params, report.certified_gaps
    ceiling = p.threshold + 1e-9
    alpha = report.game.smoothness_params().alpha
    below = np.flatnonzero(gaps < p.lower_threshold)
    after = gaps[below[0] :] if below.size else gaps[:0]
    lowest = min(float(r.profile.min()) for r in report.records)
    return [
        _gap_check("bandit-gap-threshold", gaps[p.tau0 - 1 :], ceiling, alpha),
        _gap_check("bandit-permanence", after, ceiling, alpha),
        Check("exploration-floor", p.floor - lowest, 1e-12),
    ]
