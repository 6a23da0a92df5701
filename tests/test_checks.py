"""Every theorem check of the library can fail.

Each case takes a real run, replaces one field with `dataclasses.replace` so
that the named check must fail, and requires that check's record to pass with
a margin of at least 0 on the run as it was, and to fail with a negative
margin after the change; the record's printed line must say the same.
"""

import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest

import congames.minimize
from congames import (
    BanditReport,
    BulletinConfig,
    BulletinReport,
    CertifiedMinimum,
    ConfigurationError,
    euclidean_preset,
    generate_random_game,
    min_average_cost,
    min_max_cost,
    parallel_links_game,
    reference_minimizer,
    run_bandit,
    run_bulletin,
)
from congames.checks import (
    Check,
    bandit_checks,
    bulletin_checks,
    descent_step_check,
    equilibrium_gap_bound,
    ratio_checks,
    sigma_targets,
)

SIGMA = 0.25


@dataclass(frozen=True)
class Runs:
    bulletin: BulletinReport  # a symmetric game run to its maximum-cost sigma target
    average: CertifiedMinimum
    maximum: CertifiedMinimum
    bandit: BanditReport


@pytest.fixture(scope="module")
def runs() -> Runs:
    game = generate_random_game(seed=6, n=4, m=6, d=3, degree=2, symmetric=True)
    _, target = sigma_targets(game, SIGMA)
    bulletin = run_bulletin(
        game, BulletinConfig(target_gap=target, max_steps=10_000), reference_minimizer(game)
    )
    assert bulletin.stopped_at_target and bulletin.first_certified_hit >= 3
    bandit_game = generate_random_game(seed=7, n=4, m=5, d=3)
    config = euclidean_preset(bandit_game, episodes=4, exact_gradient=True)
    bandit = run_bandit(bandit_game, config, reference_minimizer(bandit_game))
    p = bandit.params
    # every gap counts for both threshold checks
    assert p.tau0 == 1 and np.all(bandit.certified_gaps < p.lower_threshold)
    return Runs(bulletin, min_average_cost(game), min_max_cost(game), bandit)


def _outcomes(runs: Runs) -> dict[str, Check]:
    b = runs.bulletin
    checks = [
        *bulletin_checks(b),
        *ratio_checks(b.game, b.x_final, SIGMA, runs.average, runs.maximum),
        *bandit_checks(runs.bandit),
    ]
    return {check.name: check for check in checks}


def _potential_rise(runs: Runs) -> Runs:
    phi = runs.bulletin.phi.copy()
    phi[-1] = phi[-2] + 2e-10
    return replace(runs, bulletin=replace(runs.bulletin, phi=phi))


def _gap_over_ceiling(runs: Runs) -> Runs:
    b = runs.bulletin
    gaps = b.theorem_delta_gaps.copy()
    gaps[-1] = equilibrium_gap_bound(b.game, b.certified_gaps[-1]) + 2e-6
    return replace(runs, bulletin=replace(b, theorem_delta_gaps=gaps))


def _hit_past_budget(runs: Runs) -> Runs:
    # a smaller measured divergence halves the budget, to below the first hit
    b = runs.bulletin
    budget = _outcomes(runs)["convergence-budget"].bound
    gamma = b.gamma_measured * b.first_certified_hit / (2.0 * budget)
    return replace(runs, bulletin=replace(b, gamma_measured=gamma))


def _tiny(minimum: CertifiedMinimum) -> CertifiedMinimum:
    """The minimum with a certified lower bound of 1e-9, so any ratio against it explodes."""
    return replace(minimum, value=minimum.certificate + 1e-9)


def _tiny_average(runs: Runs) -> Runs:
    return replace(runs, average=_tiny(runs.average))


def _tiny_minima(runs: Runs) -> Runs:
    # C_M is measured against the larger of both lower bounds, so both shrink
    return replace(runs, average=_tiny(runs.average), maximum=_tiny(runs.maximum))


def _threshold_under_gaps(runs: Runs) -> Runs:
    b = runs.bandit
    params = replace(b.params, threshold=float(b.certified_gaps.max()) - 2e-9)
    return replace(runs, bandit=replace(b, params=params))


def _late_tau0_over_early_gap(runs: Runs) -> Runs:
    # tau0 moves past the largest gap, which permanence still reads: its slice
    # starts at the first gap below 2*delta/theta, episode 1 on this run
    b = runs.bandit
    worst = int(np.argmax(b.certified_gaps))
    params = replace(
        b.params, threshold=float(b.certified_gaps[worst]) - 2e-9, tau0=worst + 2
    )
    return replace(runs, bandit=replace(b, params=params))


def _profile_under_floor(runs: Runs) -> Runs:
    b = runs.bandit
    first = b.records[0]
    profile = first.profile.copy()
    profile[0] = b.config.lam / b.game.n - 2e-12
    records = [replace(first, profile=profile), *b.records[1:]]
    return replace(runs, bandit=replace(b, records=records))


MUTATIONS = {
    "monotone-descent": _potential_rise,
    "equilibrium-gap-bound": _gap_over_ceiling,
    "convergence-budget": _hit_past_budget,
    "average-cost-ratio": _tiny_average,
    "maximum-cost-ratio": _tiny_minima,
    "bandit-gap-threshold": _threshold_under_gaps,
    "bandit-permanence": _late_tau0_over_early_gap,
    "exploration-floor": _profile_under_floor,
}


def test_every_check_has_a_mutation(runs):
    assert sorted(_outcomes(runs)) == sorted(MUTATIONS)


def _printed_margin(check: Check) -> float:
    return float(re.search(r", margin ([^,]+)", str(check)).group(1))


@pytest.mark.parametrize("name", MUTATIONS)
def test_check_fails_after_one_field_changes(runs, name):
    before, after = _outcomes(runs)[name], _outcomes(MUTATIONS[name](runs))[name]
    assert before.ok and before.margin >= 0.0
    assert not after.ok and after.margin < 0.0
    assert str(before).startswith(f"[PASS] {name}: ") and _printed_margin(before) >= 0.0
    assert str(after).startswith(f"[FAIL] {name}: ") and _printed_margin(after) < 0.0


def test_permanence_fails_where_the_tau0_check_passes(runs):
    outcomes = _outcomes(_late_tau0_over_early_gap(runs))
    assert outcomes["bandit-gap-threshold"].ok and not outcomes["bandit-permanence"].ok


def test_ok_is_measured_within_bound():
    assert Check("c", 1.0, 1.0).ok and Check("c", 1.0, 1.0).margin == 0.0
    assert not Check("c", 1.0 + 2**-52, 1.0).ok
    assert not Check("c", float("nan"), float("inf")).ok  # a run with no hit
    assert not Check("c", 0.0, 1.0).vacuous and Check("c", 0.0, 1.0, 1.0).vacuous
    assert not Check("c", 0.0, 1.0, 1.5).vacuous
    # an unknown limit reads as +inf, so only an infinite bound is vacuous without one
    assert Check("c", float("nan"), float("inf")).vacuous
    assert not Check("c", float("nan"), float("nan")).vacuous
    # the printed status is ok alone, so a missed target fails even against a vacuous bound
    assert str(Check("c", 1.0, 1.0)) == "[PASS] c: measured 1, bound 1, margin 0"
    assert str(Check("c", 0.5, 1.0, 1.0)) == (
        "[PASS] c: measured 0.5, bound 1, margin 0.5, vacuous (limit 1)"
    )
    assert str(Check("c", float("nan"), float("inf"))) == (
        "[FAIL] c: measured nan, bound inf, margin nan, vacuous (limit inf)"
    )
    assert str(Check("c", float("nan"), float("nan"))) == (
        "[FAIL] c: measured nan, bound nan, margin nan"
    )


def test_threshold_checks_are_vacuous_on_the_links_game():
    # criterion 8's game: 3*delta/theta = 10.7 against the potential bound alpha = 5;
    # the threshold is derived from the game alone, so exact gradients suffice; two
    # episodes reach tau0 = 2, so both checks read a gap
    links = parallel_links_game(10, [[1.0]] * 10)
    config = euclidean_preset(links, episodes=2, exact_gradient=True)
    report = run_bandit(links, config, reference_minimizer(links))
    checks = {check.name: check for check in bandit_checks(report)}
    for name in ("bandit-gap-threshold", "bandit-permanence"):
        assert checks[name].limit == links.smoothness_params().alpha == 5.0
        assert checks[name].bound > 10.0 and checks[name].vacuous and checks[name].ok
        line = str(checks[name])
        assert line.startswith(f"[PASS] {name}: ") and line.endswith(", vacuous (limit 5)")
    assert checks["exploration-floor"].limit == math.inf and not checks["exploration-floor"].vacuous
    assert "vacuous" not in str(checks["exploration-floor"])


def test_gap_checks_over_no_episode_are_vacuous():
    # tau0 = 4 on this game, so 3 episodes leave the threshold check no gap to read;
    # a maximum over nothing is -inf, so it cannot fail whatever its bound
    game = generate_random_game(seed=1, n=100, m=6, d=3)
    report = run_bandit(
        game, euclidean_preset(game, episodes=3, exact_gradient=True), reference_minimizer(game)
    )
    alpha = game.smoothness_params().alpha
    assert report.params.tau0 == 4 and report.params.threshold < alpha
    checks = {check.name: check for check in bandit_checks(report)}
    late, settled = checks["bandit-gap-threshold"], checks["bandit-permanence"]
    assert late.measured == late.limit == -math.inf and late.vacuous and late.ok
    assert settled.measured >= 0.0 and settled.limit == alpha and not settled.vacuous
    # no gap below 2*delta/theta leaves permanence nothing to read either
    lowest = float(report.certified_gaps.min())
    params = replace(report.params, lower_threshold=lowest)
    checks = {check.name: check for check in bandit_checks(replace(report, params=params))}
    settled = checks["bandit-permanence"]
    assert settled.measured == settled.limit == -math.inf and settled.vacuous and settled.ok
    assert checks["bandit-gap-threshold"].vacuous


def test_equilibrium_gap_check_is_not_vacuous(runs):
    b = runs.bulletin
    game = b.game
    # the largest path cost, max_s sum_{e in s} c_e(1): no equilibrium gap exceeds it
    unit = [sum(cost.coefficients) for cost in game.edges]  # c_e(1)
    priciest = max(sum(unit[e] for e in path) for player in game.paths for path in player)
    check = _outcomes(runs)["equilibrium-gap-bound"]
    assert check.limit == pytest.approx(priciest, rel=1e-12)
    assert not check.vacuous and 0.0 <= check.margin < check.limit


def test_maximum_cost_check_on_symmetric_games_only(runs):
    b = runs.bulletin
    # the maximum-cost ratio is checked only against a given minimum, even on a symmetric game
    assert b.game.symmetric
    assert [check.name for check in ratio_checks(b.game, b.x_final, SIGMA, runs.average)] == [
        "average-cost-ratio"
    ]
    game = runs.bandit.game
    assert not game.symmetric
    flat, average = game.uniform_profile(), min_average_cost(game)
    assert [check.name for check in ratio_checks(game, flat, SIGMA, average)] == [
        "average-cost-ratio"
    ]
    with pytest.raises(ConfigurationError, match="symmetric"):
        ratio_checks(game, flat, SIGMA, average, average)


def test_no_check_solves_an_oracle(runs, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a theorem check solved an oracle")

    monkeypatch.setattr(congames.minimize, "minimize_edge_separable", refuse)
    monkeypatch.setattr(congames.minimize, "_epigraph_barrier", refuse)
    b, p = runs.bulletin, runs.bandit.params
    bulletin_checks(b)
    ratio_checks(b.game, b.x_final, SIGMA, runs.average)
    ratio_checks(b.game, b.x_final, SIGMA, runs.average, runs.maximum)
    bandit_checks(runs.bandit)
    phis = runs.bandit.phis
    descent_step_check(phis[0], phis[1], runs.bandit.reference.value, p.theta, p.delta)
