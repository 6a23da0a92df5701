"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The pools are fixed-seed so every run exercises identical games.  Bulletin
runs are shared across the convergence, monotonicity, and equilibrium-gap
criteria; the bandit criteria run their own seeded simulations.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from congames import (
    BanditConfig,
    BulletinConfig,
    average_cost_ratio,
    descent_step_check,
    euclidean_preset,
    expected_path_costs,
    generate_random_game,
    max_cost_ratio,
    min_average_cost,
    min_max_cost,
    parallel_links_game,
    reference_minimizer,
    run_bandit,
    run_bulletin,
)
from congames.bulletin import max_ratio_bound

SIGMA = 0.25
EPS = 1e-3


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class Pools:
    games: list  # 20 random games, n in {2,4,8}, m <= 8, d <= 4
    symmetric: list  # 10 symmetric games
    refs: dict
    links: object
    links_ref: object


@pytest.fixture(scope="module")
def pools() -> Pools:
    games = [
        generate_random_game(seed=100 + i, n=(2, 4, 8)[i % 3], m=3 + i % 6, d=2 + i % 3)
        for i in range(20)
    ]
    symmetric = [
        generate_random_game(
            seed=200 + i, n=(2, 4)[i % 2], m=4 + i % 3, d=2 + i % 2, degree=2, symmetric=True
        )
        for i in range(10)
    ]
    refs = {g: reference_minimizer(g) for g in games + symmetric}
    links = parallel_links_game(10, [[1.0]] * 10)
    return Pools(games, symmetric, refs, links, reference_minimizer(links))


@dataclass
class BulletinRuns:
    gd: list
    mu: list
    hetero: list
    gd_seconds: float
    mu_seconds: float

    def all_runs(self):
        return self.gd + self.mu + self.hetero


@pytest.fixture(scope="module")
def bulletin_runs(pools: Pools) -> BulletinRuns:
    gd, mu, hetero = [], [], []
    t0 = time.perf_counter()
    for game in pools.games:
        lam = game.smoothness_params().lam
        budget = math.ceil(2.0 / (game.n * (1.0 / lam) * EPS))
        cfg = BulletinConfig(geometry="euclidean", eta=1.0 / lam, target_gap=EPS, max_steps=budget)
        gd.append((game, budget, run_bulletin(game, cfg, reference=pools.refs[game])))
    gd_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for game in pools.games:
        lam = game.smoothness_params().lam
        budget = math.ceil(game.n * math.log(game.d * game.n) / ((1.0 / lam) * EPS))
        cfg = BulletinConfig(
            geometry="negative-entropy", eta=1.0 / lam, target_gap=EPS, max_steps=budget
        )
        mu.append((game, budget, run_bulletin(game, cfg, reference=pools.refs[game])))
    mu_seconds = time.perf_counter() - t0

    for idx, game in enumerate(pools.games):
        lam = game.smoothness_params().lam
        rng = np.random.default_rng(5000 + idx)
        etas = rng.uniform(1.0 / (3.0 * lam), 1.0 / lam, size=game.n)
        cfg = BulletinConfig(eta=etas, target_gap=EPS, max_steps=500_000)
        hetero.append((game, None, run_bulletin(game, cfg, reference=pools.refs[game])))

    return BulletinRuns(gd, mu, hetero, gd_seconds, mu_seconds)


def test_criterion_1_gradient_descent_budget(bulletin_runs):
    hits = [
        rep.first_certified_hit is not None and rep.first_certified_hit <= budget
        for _, budget, rep in bulletin_runs.gd
    ]
    ok = all(hits) and bulletin_runs.gd_seconds < 60.0
    report(
        1,
        ok,
        f"GD gap<= {EPS:g} within ceil(2/(n*eta*eps)) on {sum(hits)}/20 games "
        f"in {bulletin_runs.gd_seconds:.2f}s (< 60s)",
    )


def test_criterion_2_multiplicative_updates_budget(bulletin_runs):
    hits = [
        rep.first_certified_hit is not None and rep.first_certified_hit <= budget
        for _, budget, rep in bulletin_runs.mu
    ]
    ok = all(hits) and bulletin_runs.mu_seconds < 120.0
    report(
        2,
        ok,
        f"MU gap<= {EPS:g} within ceil(n*ln(dn)/(eta*eps)) on {sum(hits)}/20 games "
        f"in {bulletin_runs.mu_seconds:.2f}s (< 120s)",
    )


def test_criterion_3_monotone_descent(bulletin_runs):
    worst = max(rep.max_ascent for _, _, rep in bulletin_runs.all_runs())
    steps = sum(rep.steps for _, _, rep in bulletin_runs.all_runs())
    report(
        3,
        worst <= 1e-10,
        f"max one-step potential increase {worst:.3e} <= 1e-10 over {steps} steps "
        "(GD + MU + heterogeneous rates)",
    )


def test_criterion_4_equilibrium_gap_bound(bulletin_runs):
    violations = 0
    plain_violations = 0
    steps = 0
    for game, _, rep in bulletin_runs.all_runs():
        bound = np.sqrt(np.maximum(8.0 * game.b * game.m * rep.certified_gaps, 0.0)) + 1e-6
        violations += int(np.sum(rep.theorem_delta_gaps > bound))
        plain_violations += int(np.sum(rep.delta_gaps > bound))
        steps += rep.steps
    report(
        4,
        violations == 0,
        f"{violations} violations of delta <= sqrt(8bm*gap)+1e-6 over {steps} steps "
        f"(movable-mass support rule; bare 1e-9 support rule would violate "
        f"{plain_violations} times, see ledger)",
    )


def test_criterion_5_social_cost_ratios(pools):
    avg_ok = 0
    for game in pools.games:
        lam = game.smoothness_params().lam
        eps_a = game.a * SIGMA / (2.0 * game.m)
        budget = math.ceil(2.0 / (game.n * (1.0 / lam) * eps_a))
        rep = run_bulletin(
            game,
            BulletinConfig(target_gap=eps_a, max_steps=budget),
            reference=pools.refs[game],
        )
        ratio = average_cost_ratio(game, rep.x_final, min_average_cost(game))
        bound = (game.b / game.a) * (1.0 + SIGMA)
        avg_ok += rep.stopped_at_target and ratio <= bound + 1e-9

    max_ok = 0
    for game in pools.symmetric:
        lam = game.smoothness_params().lam
        eps_m = game.a * SIGMA**2 / (32.0 * game.m)
        budget = math.ceil(2.0 / (game.n * (1.0 / lam) * eps_m))
        rep = run_bulletin(
            game,
            BulletinConfig(target_gap=eps_m, max_steps=budget),
            reference=pools.refs[game],
        )
        ratio = max_cost_ratio(game, rep.x_final, min_average_cost(game), min_max_cost(game))
        max_ok += rep.stopped_at_target and bool(ratio <= max_ratio_bound(game, eps_m) + 1e-9)

    report(
        5,
        avg_ok == 20 and max_ok == 10,
        f"C_A ratio <= (b/a)(1+sigma) on {avg_ok}/20 games at eps=a*sigma/(2m); "
        f"symmetric C_M bound on {max_ok}/10 games at eps=a*sigma^2/(32m)",
    )


def test_criterion_6_expectation_bias():
    shapes = [(2, 3, 2), (3, 4, 2), (3, 4, 3), (4, 3, 2), (4, 4, 3), (2, 5, 3)]
    quad = [
        generate_random_game(seed=300 + i, n=n, m=m, d=d, degree=2)
        for i, (n, m, d) in enumerate(shapes)
    ]
    lin = [
        generate_random_game(seed=320 + i, n=n, m=m, d=d, degree=1)
        for i, (n, m, d) in enumerate(shapes[:4])
    ]
    checked = 0
    for game in quad:
        assert math.prod(game.sizes) <= 10**4
        rng = np.random.default_rng(17)
        cap = game.second_derivative_upper * game.m_path / (8.0 * game.n)
        for _ in range(3):
            x = np.concatenate([rng.dirichlet(np.ones(sz)) / game.n for sz in game.sizes])
            bias = expected_path_costs(game, x) - game.path_costs(x)
            assert np.all(bias >= -1e-12) and np.all(bias <= cap + 1e-12)
            checked += bias.size
    linear_worst = 0.0
    for game in lin:
        rng = np.random.default_rng(19)
        x = np.concatenate([rng.dirichlet(np.ones(sz)) / game.n for sz in game.sizes])
        bias = expected_path_costs(game, x) - game.path_costs(x)
        linear_worst = max(linear_worst, float(np.abs(bias).max()))
    report(
        6,
        linear_worst <= 1e-12,
        f"0 <= E[c_s(X)]-c_s(x) <= B*m/(8n) on {checked} path expectations "
        f"(exact enumeration); linear-cost bias {linear_worst:.2e} <= 1e-12",
    )


def test_criterion_7_bandit_estimator_accuracy(pools):
    t0 = time.perf_counter()
    trials, hits = 200, 0
    for seed in range(trials):
        cfg = BanditConfig(lam=0.05, episodes=1, seed=seed, nu=8.0, eta=0.1)
        rep = run_bandit(pools.links, cfg, reference=pools.links_ref)
        hits += rep.grad_errors[0] <= rep.params.epsilon
    elapsed = time.perf_counter() - t0
    ok = hits >= math.ceil(0.88 * trials) and elapsed < 300.0
    report(
        7,
        ok,
        f"||g_hat - grad Phi||_inf <= 4bm/n in {hits}/{trials} episodes "
        f"(need >= 176) in {elapsed:.0f}s (< 300s)",
    )


BANDIT_WORKERS = min(2, os.cpu_count() or 1)


def _seeded_bandit_runs(pools: Pools, seeds, workers: int) -> list:
    """Criterion 8's runs, one per seed, over `workers` processes.  Each seed owns
    its PCG64 streams, so a run does not depend on the process it runs in.
    Workers are spawned, never forked from a process with live BLAS threads."""
    configs = [euclidean_preset(pools.links, episodes=8, seed=seed) for seed in seeds]
    args = ([pools.links] * len(configs), configs, [pools.links_ref] * len(configs))
    if workers == 1:
        return list(map(run_bandit, *args))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(run_bandit, *args))


@pytest.fixture(scope="module")
def bandit_runs(pools: Pools):
    t0 = time.perf_counter()
    runs = _seeded_bandit_runs(pools, range(20), BANDIT_WORKERS)
    return runs, time.perf_counter() - t0


def test_criterion_8_bandit_convergence(pools, bandit_runs):
    runs, elapsed = bandit_runs
    passes = 0
    for rep in runs:
        p = rep.params
        gaps = rep.certified_gaps
        ok = bool(np.all(gaps[p.tau0 - 1 :] <= p.threshold + 1e-9))
        below = np.nonzero(gaps < 2.0 * p.delta / p.theta)[0]
        if below.size:
            ok = ok and bool(np.all(gaps[below[0] :] <= p.threshold + 1e-9))
        passes += ok

    thresholds = []
    for n in (5, 10, 20):
        g = parallel_links_game(n, [[1.0]] * 10)
        thresholds.append(euclidean_preset(g).derive(g).threshold)
    scaling = thresholds[0] > thresholds[1] > thresholds[2]

    ok = passes >= 18 and scaling and elapsed < 600.0
    report(
        8,
        ok,
        f"gap after tau0 <= 3*delta/theta with permanence in {passes}/20 seeded runs "
        f"(need >= 18) in {elapsed:.0f}s wall over {BANDIT_WORKERS} processes (< 600s); "
        f"threshold scaling n=5,10,20: "
        f"{thresholds[0]:.2f} > {thresholds[1]:.2f} > {thresholds[2]:.2f}: {scaling}",
    )


def test_criterion_9_conditional_descent(pools, bandit_runs):
    runs, _ = bandit_runs
    qualifying, passing = 0, 0
    for rep in runs:
        p = rep.params
        gaps = rep.gaps
        for i in range(len(gaps) - 1):
            clean = rep.grad_errors[i] <= p.epsilon and not rep.records[i].fallback.any()
            if clean and gaps[i] >= 2.0 * p.delta / p.theta:
                qualifying += 1
                passing += rep.phis[i] - rep.phis[i + 1] >= p.delta - 1e-9

    # Zero-noise injection drives the same inequality deterministically.
    injected_ok, injected_total = 0, 0
    for idx in (1, 4, 7):
        game = pools.games[idx]
        ref = pools.refs[game]
        cfg = euclidean_preset(game, episodes=25, seed=0, exact_gradient=True)
        rep = run_bandit(game, cfg, reference=ref)
        p = rep.params
        for prev, nxt in zip(rep.phis, rep.phis[1:]):
            injected_total += 1
            injected_ok += descent_step_check(prev, nxt, ref.value, p.theta, p.delta)

    ok = passing == qualifying and injected_ok == injected_total
    report(
        9,
        ok,
        f"episodes with gap >= 2*delta/theta under accurate estimates: "
        f"{passing}/{qualifying} decreased by >= delta (vacuously true if 0); "
        f"zero-noise replay: {injected_ok}/{injected_total} descent checks pass",
    )


def _run_outputs(rep) -> list:
    return [rep.certified_gaps.tolist(), rep.x_final.tolist()] + [
        [r.steps, r.visits.tolist(), r.cost_sums.tolist(), r.estimate.tolist(), r.phi]
        for r in rep.records
    ]


def test_pooled_bandit_runs_match_serial(pools, bandit_runs):
    pooled, _ = bandit_runs
    seeds = (3, 11)
    serial = _seeded_bandit_runs(pools, seeds, workers=1)
    assert [_run_outputs(pooled[s]) for s in seeds] == [_run_outputs(r) for r in serial]


def _batch_kl(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    terms = np.where(U > 0.0, U * np.log(np.maximum(U, 1e-300) / V), 0.0)
    return terms.sum(axis=1)


def test_criterion_10_geometry_properties():
    rng = np.random.default_rng(77)
    pairs = 100_000
    size, mass = 4, 0.25
    violations = 0

    U = rng.dirichlet(np.ones(size), size=pairs) * mass
    V = rng.dirichlet(np.ones(size), size=pairs) * mass
    nsq = ((U - V) ** 2).sum(axis=1)
    div_euclid = 0.5 * nsq
    violations += int(np.sum(div_euclid < -1e-9))
    violations += int(np.sum(nsq > 2.0 * div_euclid + 1e-9))

    kl = _batch_kl(U, V)
    violations += int(np.sum(kl < -1e-9))
    violations += int(np.sum(nsq > 2.0 * kl + 1e-9))

    lam, n = 0.2, int(round(1 / mass))
    floor = lam / n
    free = mass - size * floor
    Uf = floor + rng.dirichlet(np.ones(size), size=pairs) * free
    Vf = floor + rng.dirichlet(np.ones(size), size=pairs) * free
    nsqf = ((Uf - Vf) ** 2).sum(axis=1)
    klf = _batch_kl(Uf, Vf)
    violations += int(np.sum(floor * klf > nsqf + 1e-9))
    violations += int(np.sum(nsqf > 2.0 * klf + 1e-9))

    report(
        10,
        violations == 0,
        f"{violations} violations over {pairs} pairs per geometry: nonnegativity, "
        "norm-squared <= 2*divergence, and the floored-set two-sided bound",
    )


def test_criterion_11_smoothness_and_convexity(pools):
    probes = 10_000
    h = 1e-6
    worst_convexity = -np.inf
    worst_curvature = -np.inf
    worst_value = -np.inf
    worst_grad = -np.inf
    games = pools.games + [pools.links]
    for game in games:
        rng = np.random.default_rng(88)
        smooth = game.smoothness_params()

        def batch(count):
            return np.concatenate(
                [rng.dirichlet(np.ones(sz), size=count) / game.n for sz in game.sizes],
                axis=1,
            )

        X, Y = batch(probes), batch(probes)
        w = rng.random((probes, 1))
        inc = game.incidence

        def phi_rows(P):
            return game.edge_primitives(P @ inc).sum(axis=1)

        mix = phi_rows((1 - w) * X + w * Y)
        convexity_margin = mix - ((1 - w[:, 0]) * phi_rows(X) + w[:, 0] * phi_rows(Y))
        worst_convexity = max(worst_convexity, float(convexity_margin.max()))

        Z = Y - X
        G0 = game.edge_costs(X @ inc) @ inc.T
        G1 = game.edge_costs((X + h * Z) @ inc) @ inc.T
        curvature = ((G1 - G0) * Z).sum(axis=1) / h - smooth.lam * (Z * Z).sum(axis=1)
        worst_curvature = max(worst_curvature, float(curvature.max()))
        worst_value = max(worst_value, float(phi_rows(X).max() - smooth.alpha))
        worst_grad = max(worst_grad, float(np.abs(G0).max() - smooth.beta))

    ok = (
        worst_convexity <= 1e-9
        and worst_curvature <= 1e-6
        and worst_value <= 1e-12
        and worst_grad <= 1e-12
    )
    report(
        11,
        ok,
        f"convexity margin {worst_convexity:.2e} <= 1e-9, curvature margin "
        f"{worst_curvature:.2e} <= 1e-6, value margin {worst_value:.2e} and "
        f"gradient margin {worst_grad:.2e} <= 1e-12, {probes} probes x {len(games)} games",
    )
