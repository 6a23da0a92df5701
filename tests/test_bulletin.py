import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from congames import (
    BulletinConfig,
    CongestionGame,
    ConfigurationError,
    EuclideanGeometry,
    GameStructureError,
    PolynomialCost,
    generate_random_game,
    min_average_cost,
    min_max_cost,
    parallel_links_game,
    parse_game_text,
    reference_minimizer,
    regret,
    run_bulletin,
)
from congames.checks import (
    _budget,
    average_cost_ratio,
    average_ratio_bound,
    bulletin_checks,
    delta_equilibrium_gap,
    equilibrium_gap_bound,
    max_cost_ratio,
    max_ratio_bound,
    ratio_checks,
    step_budget,
)
from congames.game import SUPPORT_TOL


def _passes(rep, *names) -> bool:
    """Whether the run's library checks of these names all pass."""
    checks = {check.name: check for check in bulletin_checks(rep)}
    return all(checks[name].ok for name in names)


def test_g1_gradient_descent_converges(g1, reference_cache):
    ref = reference_cache(g1)
    cfg = BulletinConfig(geometry="euclidean", eta=0.5, target_gap=1e-6, x0=np.array([0.5, 0.5]))
    rep = run_bulletin(g1, cfg, reference=ref)
    assert rep.stopped_at_target
    assert _passes(rep, "monotone-descent", "convergence-budget")
    assert rep.certified_gaps[-1] <= 1e-6
    assert abs(rep.phi[-1] - 1 / 6) <= 2e-6


def test_g1_multiplicative_updates_converge(g1, reference_cache):
    cfg = BulletinConfig(geometry="negative-entropy", target_gap=1e-6, max_steps=500_000)
    rep = run_bulletin(g1, cfg, reference=reference_cache(g1))
    assert rep.stopped_at_target
    assert _passes(rep, "monotone-descent")
    # uniform-start divergence stays below the ln(d n) closed form
    assert rep.gamma_measured <= math.log(g1.d * g1.n) + 1e-12


def test_equilibrium_is_fixed_point(g1, reference_cache):
    ref = reference_cache(g1)
    for kind in ("euclidean", "negative-entropy"):
        cfg = BulletinConfig(
            geometry=kind, max_steps=50, x0=ref.flat.copy(), record_profiles=True
        )
        rep = run_bulletin(g1, cfg, reference=ref)
        drift = np.abs(rep.profiles - ref.flat[None, :]).max()
        assert drift <= 1e-7  # stays put up to the oracle's own tolerance
        assert np.abs(np.diff(rep.phi)).max() <= 1e-10


def test_single_link_profile_constant(reference_cache):
    game = parallel_links_game(2, [[1.0]])
    cfg = BulletinConfig(max_steps=20, record_profiles=True)
    rep = run_bulletin(game, cfg, reference=reference_cache(game))
    assert np.ptp(rep.profiles, axis=0).max() == 0.0


def test_euclidean_gamma_closed_form(reference_cache):
    game = generate_random_game(seed=17, n=4, m=6, d=3)
    rep = run_bulletin(game, BulletinConfig(max_steps=5), reference=reference_cache(game))
    assert rep.gamma_measured <= 2.0 / game.n**2 + 1e-12


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_monotone_descent_heterogeneous_rates(kind, reference_cache):
    game = generate_random_game(seed=23, n=4, m=5, d=3)
    lam = game.smoothness_params().lam
    rng = np.random.default_rng(23)
    etas = rng.uniform(0.5 / lam, 1.0 / lam, size=game.n)
    cfg = BulletinConfig(geometry=kind, eta=etas, target_gap=1e-5, max_steps=200_000)
    rep = run_bulletin(game, cfg, reference=reference_cache(game))
    assert rep.stopped_at_target
    assert _passes(rep, "monotone-descent", "convergence-budget")


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_run_loop_step_matches_mirror_step(kind, reference_cache):
    # one recorded update of the vectorized loop equals each player's one-row step
    from congames import make_geometry

    game = generate_random_game(seed=43, n=4, m=5, d=3)
    lam = game.smoothness_params().lam
    rng = np.random.default_rng(43)
    etas = rng.uniform(0.3 / lam, 1.0 / lam, size=game.n)
    cfg = BulletinConfig(geometry=kind, eta=etas, max_steps=1, record_profiles=True)
    rep = run_bulletin(game, cfg, reference=reference_cache(game))

    geo = make_geometry(kind)
    x0, x1 = rep.profiles[0], rep.profiles[1]
    grad = game.path_costs(x0)
    for i in range(game.n):
        sl = game.player_slice(i)
        step = geo.mirror_step(np.ones((1, game.sizes[i]), dtype=bool), etas[i], 1.0 / game.n)
        expected = step(x0[sl][None], grad[sl][None])[0]
        assert np.allclose(x1[sl], expected, atol=1e-12)


def test_delta_gap_tracks_theorem_bound(reference_cache):
    game = generate_random_game(seed=29, n=2, m=4, d=3)
    cfg = BulletinConfig(target_gap=1e-7, max_steps=100_000)
    rep = run_bulletin(game, cfg, reference=reference_cache(game))
    bounds = np.array(
        [equilibrium_gap_bound(game, max(gap, 0.0)) for gap in rep.certified_gaps]
    )
    assert np.all(rep.theorem_delta_gaps <= bounds + 1e-6)
    assert np.all(rep.theorem_delta_gaps <= rep.delta_gaps + 1e-15)


def test_plain_delta_gap_can_exceed_bound_on_light_paths():
    # A whisper of mass on a terrible path leaves the potential gap tiny while
    # the plain equilibrium gap stays large; the movable-mass rule excludes it.
    game = generate_random_game(seed=29, n=2, m=4, d=3)
    ref = reference_minimizer(game)
    x = ref.flat.copy()
    pc = game.path_costs(x)
    sl = game.player_slice(0)
    worst = int(np.argmax(pc[sl]))
    donor = int(np.argmax(x[sl]))
    shift = 1e-8
    x[sl.start + worst] += shift
    x[sl.start + donor] -= shift
    eps = ref.certified_gap(game.potential(x))
    plain = delta_equilibrium_gap(game, x)
    bound = equilibrium_gap_bound(game, eps)
    assert plain > bound  # the literal reading of the ceiling fails here
    assert delta_equilibrium_gap(game, x, eps) <= bound + 1e-6


def test_learning_rate_gate(reference_cache):
    game = generate_random_game(seed=2, n=2, m=4, d=2)
    lam = game.smoothness_params().lam
    ref = reference_cache(game)
    with pytest.raises(ConfigurationError, match="learning rate exceeds"):
        run_bulletin(game, BulletinConfig(eta=1.1 / lam, max_steps=5), reference=ref)
    with pytest.raises(ConfigurationError):
        run_bulletin(game, BulletinConfig(eta=0.0, max_steps=5), reference=ref)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"eta": math.nan}, "learning rate must be a finite number"),
        ({"eta": np.array([0.01, math.inf])}, "learning rate must be a finite number"),
        ({"target_gap": math.nan}, "target gap must be a positive finite number"),
        ({"target_gap": math.inf}, "target gap must be a positive finite number"),
        ({"target_gap": 0.0}, "target gap must be a positive finite number"),
        ({"max_steps": -1}, "step cap must be nonnegative"),
        ({"max_steps": 2.5}, "step cap must be an integer, got 2.5"),
        ({"max_steps": 100.0}, "step cap must be an integer, got 100.0"),
        ({"max_steps": True}, "step cap must be an integer, got True"),
        ({"eta": np.array([0.01, 0.01, 0.01])}, r"learning rates of shape \(3,\) for n = 2 players"),
    ],
)
def test_bad_config_rejected_before_any_step(kwargs, message, monkeypatch, reference_cache):
    game = generate_random_game(seed=2, n=2, m=4, d=2)
    ref = reference_cache(game)
    # a rejected config must not evaluate a single step
    monkeypatch.setattr(CongestionGame, "edge_costs", None)
    with pytest.raises(ConfigurationError, match=message):
        run_bulletin(game, BulletinConfig(**kwargs), reference=ref)


def test_zero_step_cap_evaluates_the_start_only(g1, reference_cache):
    cfg = BulletinConfig(max_steps=0, x0=np.array([0.5, 0.5]))
    rep = run_bulletin(g1, cfg, reference=reference_cache(g1))
    assert rep.steps == 0
    assert rep.phi.tolist() == [3 / 16]
    assert rep.delta_gaps.tolist() == [0.25]


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_zero_step_run_has_no_ascent(g1, kind, reference_cache):
    cfg = BulletinConfig(geometry=kind, max_steps=0)
    assert run_bulletin(g1, cfg, reference=reference_cache(g1)).max_ascent == 0.0


def _budget_check(report):
    return {c.name: c for c in bulletin_checks(report)}["convergence-budget"]


@pytest.mark.parametrize("max_steps", [0, 3])
def test_run_without_target_has_no_hit_and_no_budget(g1, max_steps, reference_cache):
    rep = run_bulletin(g1, BulletinConfig(max_steps=max_steps), reference=reference_cache(g1))
    assert rep.first_certified_hit is None
    assert "convergence-budget" not in [c.name for c in bulletin_checks(rep)]


def test_step_budget_reads_inf_past_every_integer(g1, reference_cache):
    rep = run_bulletin(g1, BulletinConfig(max_steps=3), reference=reference_cache(g1))
    assert rep.gamma_measured > 0.0
    # eta*eps underflows to 0, then n*gamma/(eta*eps) overflows
    for target in (5e-324, 1e-320):
        check = _budget_check(replace(rep, target_gap=target))
        # no hit measures nan, which fails even a budget that cannot be missed
        assert check.bound == math.inf and check.vacuous and not check.ok
    assert _budget_check(replace(rep, target_gap=5e-324, gamma_measured=0.0)).bound == 0


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_closed_form_step_budget_reads_inf_past_every_integer(g1, kind):
    # eta*eps = 1e-320 makes the quotient overflow; 1e-200 * 1e-150 underflows to 0
    for eta, eps in ((1e-160, 1e-160), (1e-200, 1e-150)):
        assert step_budget(g1, kind, eta, eps) == math.inf
    # finite budgets keep the bits of the closed forms
    n, work = g1.n, 2.0 if kind == "euclidean" else g1.n * math.log(g1.d * g1.n)
    for eta, eps in ((1.0, 1e-3), (0.3, 7e-5), (1e-150, 1e-150)):
        rate = n * eta * eps if kind == "euclidean" else eta * eps
        assert step_budget(g1, kind, eta, eps) == math.ceil(work / rate)
    # from 2**53 up every float is an integer: the quotient is the budget, no
    # int of hundreds of float-noise digits; below it, the ceiling as an int
    assert type(_budget(2.0**53 - 1, 1.0)) is int and _budget(2.0**53 - 1, 1.0) == 2**53 - 1
    for steps in (2.0**53, 1e300, math.inf):
        assert type(_budget(steps, 1.0)) is float and _budget(steps, 1.0) == steps


def _per_step_run(game, config, reference):
    """The bulletin loop one step at a time: every report field of the step
    evaluated before the stop rule reads the potential, and the multiplicative
    update written out as x * exp(-eta * g), rescaled to the mass.
    """
    etas = config.resolve_etas(game)
    mask, inc, mass = game.path_mask, game.incidence, 1.0 / game.n
    X = game.padded(game.uniform_profile() if config.x0 is None else config.x0)
    euclidean_step = EuclideanGeometry().mirror_step(mask, etas, mass)
    rates = np.reshape(etas, (-1, 1))
    fields = ("phi", "avg_costs", "delta_gaps", "theorem_delta_gaps", "max_costs", "profiles")
    out = {name: [] for name in fields}
    cum_unit, cum_paths = np.zeros(game.n), np.zeros(game.dim)
    stopped = False
    for t in range(config.max_steps + 1):
        flat = X[mask]
        loads = flat @ inc
        ecosts = game.edge_costs(loads)
        PC = np.zeros(X.shape)
        PC[mask] = inc @ ecosts
        phi = float(game.edge_primitives(loads).sum())
        cert_gap = reference.certified_gap(phi)
        out["phi"].append(phi)
        out["avg_costs"].append(float(loads @ ecosts))
        out["delta_gaps"].append(delta_equilibrium_gap(game, flat))
        out["theorem_delta_gaps"].append(delta_equilibrium_gap(game, flat, cert_gap))
        out["max_costs"].append(game.max_cost(flat))
        out["profiles"].append(flat)
        cum_unit = cum_unit + game.n * (PC * X).sum(axis=1)
        cum_paths = cum_paths + PC[mask]
        if config.target_gap is not None and cert_gap <= config.target_gap:
            stopped = True
            break
        if t == config.max_steps:
            break
        if config.geometry == "euclidean":
            X = euclidean_step(X, PC)
        else:
            X = X * np.exp(-(rates * PC))
            X *= mass / X.sum(axis=1, keepdims=True)
    out = {name: np.array(values) for name, values in out.items()}
    out.update(cum_unit_costs=cum_unit, cum_path_costs=cum_paths, x_final=X[mask])
    return out, stopped


# (max_steps, step the target is hit at or None, chunk rows or None, record_profiles)
BLOCK_CASES = {
    "hit-at-start": (100, 0, None, False),
    "hit-last-step-of-block": (100, 31, None, True),
    "hit-first-step-of-next-block": (100, 32, None, False),
    "hit-in-second-chunk": (100, 47, 40, True),
    "cap-mid-block": (40, None, None, False),
    "cap-mid-block-unreached-target": (40, math.inf, None, False),
    "cap-0": (0, None, None, False),
    "cap-1": (1, None, None, True),
    "one-row-chunks-hit": (100, 37, 1, True),
    "one-row-chunks-cap": (9, None, 1, False),
    "five-row-chunks-hit": (100, 32, 5, False),
    "more-edges-than-entries-hit": (300, 250, None, False),
    "more-edges-than-entries-cap": (300, None, None, True),
}
# (seed, n, m, d) of a case's game when it is not (103, 4, 6, 3): with more
# edges than profile entries the edges size the chunks, 8192 // 40 = 204 rows
BLOCK_GAMES = {
    "more-edges-than-entries-hit": (1, 2, 40, 2),
    "more-edges-than-entries-cap": (1, 2, 40, 2),
}


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_loop_matches_per_step_loop(kind, case, monkeypatch, reference_cache):
    import congames.bulletin as bulletin

    max_steps, hit, chunk_rows, record = BLOCK_CASES[case]
    seed, n, m, d = BLOCK_GAMES.get(case, (103, 4, 6, 3))
    game = generate_random_game(seed=seed, n=n, m=m, d=d)
    ref = reference_cache(game)
    if chunk_rows is not None:
        monkeypatch.setattr(bulletin, "_CHUNK_ENTRIES", chunk_rows * max(n * d, m))
    target = None
    if hit == math.inf:
        target = 1e-300  # below any certified gap: the cap ends the run
    elif hit is not None:
        free, _ = _per_step_run(game, BulletinConfig(geometry=kind, max_steps=max_steps), ref)
        target = ref.certified_gap(free["phi"][hit])
    cfg = BulletinConfig(
        geometry=kind, max_steps=max_steps, target_gap=target, record_profiles=record
    )
    expected, stopped = _per_step_run(game, cfg, ref)
    # the case stops where its name says
    assert len(expected["phi"]) - 1 == (max_steps if hit in (None, math.inf) else hit)
    assert stopped == (hit not in (None, math.inf))

    rep = run_bulletin(game, cfg, reference=ref)
    assert rep.steps == len(expected["phi"]) - 1
    assert rep.stopped_at_target == stopped
    if not record:
        assert rep.profiles is None
        del expected["profiles"]
    for name, value in expected.items():
        got = getattr(rep, name)
        assert got.shape == value.shape, name
        assert got.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_chunk_buffers_bounded_on_many_edges(kind, reference_cache):
    # one chunk of (m,) loads and edge costs at 1,001 rows would trace 32 MB here
    game = generate_random_game(seed=1, n=2, m=2000, d=2)
    ref = reference_cache(game)
    tracemalloc.start()
    try:
        run_bulletin(game, BulletinConfig(geometry=kind, max_steps=1000), reference=ref)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_steps_past_the_stop_are_silent(kind, capsys, reference_cache):
    # the acceptance pool to a 1e-6 certified gap; each run also takes up to
    # 31 discarded steps past its stop, which must warn and print nothing
    pool = [
        generate_random_game(seed=100 + i, n=(2, 4, 8)[i % 3], m=3 + i % 6, d=2 + i % 3)
        for i in range(20)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for game in pool:
            cfg = BulletinConfig(geometry=kind, target_gap=1e-6, max_steps=100_000)
            assert run_bulletin(game, cfg, reference=reference_cache(game)).stopped_at_target
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "x0, message",
    [([np.nan, 0.5], "non-finite"), ([np.inf, -np.inf], "non-finite"), ([0.6, 0.5], "mass")],
)
def test_run_bulletin_rejects_an_infeasible_start(g1, x0, message, reference_cache):
    with pytest.raises(GameStructureError, match=message):
        run_bulletin(g1, BulletinConfig(x0=np.array(x0), max_steps=5), reference_cache(g1))


def test_entropy_needs_positive_start(g1, reference_cache):
    cfg = BulletinConfig(geometry="negative-entropy", x0=np.array([1.0, 0.0]), max_steps=5)
    with pytest.raises(ConfigurationError, match="positive"):
        run_bulletin(g1, cfg, reference=reference_cache(g1))


# -- delta equilibrium gap ------------------------------------------------------


def test_delta_gap_g1_values(g1, reference_cache):
    assert math.isclose(delta_equilibrium_gap(g1, np.array([0.5, 0.5])), 0.25, abs_tol=1e-12)
    assert delta_equilibrium_gap(g1, reference_cache(g1).flat) <= 1e-7


def test_delta_gap_cheapest_path_concentration():
    # the one-edge path is never pricier than its superset, so concentrating
    # there keeps the used path cheapest and the gap at zero
    game = CongestionGame(
        n=1,
        edges=(PolynomialCost((1.0,)), PolynomialCost((0.5,))),
        paths=((frozenset({0}), frozenset({0, 1})),),
    )
    assert delta_equilibrium_gap(game, np.array([1.0, 0.0])) == 0.0


def test_delta_gap_folds_both_support_rules_bit_for_bit():
    # entries at the support tolerance and one ulp either side, and potential
    # gaps whose heavy-path floor lands below, at and above it
    rng = np.random.default_rng(30)
    edge = [np.nextafter(SUPPORT_TOL, 0.0), SUPPORT_TOL, np.nextafter(SUPPORT_TOL, 1.0)]
    for seed in range(6):
        game = generate_random_game(seed=seed, n=3, m=5, d=4, degree=2)
        scale = 2.0 * game.b * game.m
        for _ in range(20):
            x = np.concatenate([rng.dirichlet(np.ones(k)) / game.n for k in game.sizes])
            picks = rng.choice(game.dim, size=4, replace=False)
            x[picks] = rng.choice(edge, size=4)
            costs = game.path_costs(x)
            assert delta_equilibrium_gap(game, x).hex() == game.equilibrium_gap(x, costs).hex()
            for eps in (-1e-3, 0.0, scale * 1e-18, scale * 4e-18, 1e-9, 1e-3):
                floor = np.maximum(SUPPORT_TOL, np.sqrt(np.maximum(eps, 0.0) / scale))
                heavy = game.equilibrium_gap(x, costs, floor)
                assert delta_equilibrium_gap(game, x, eps).hex() == heavy.hex()


def test_delta_gap_refuses_a_nan_potential_gap():
    # a nan floor would count no path as used, and read every gap as 0
    game = generate_random_game(seed=3, n=3, m=4, d=3)
    x = game.uniform_profile()
    assert round(delta_equilibrium_gap(game, x), 3) == 0.611
    with pytest.raises(ValueError, match="epsilon is nan"):
        delta_equilibrium_gap(game, x, math.nan)


# -- social ratios ----------------------------------------------------------------


@pytest.fixture(scope="module")
def g1_minima(g1):
    return reference_minimizer(g1), min_average_cost(g1), min_max_cost(g1)


def _certified_gap(game, flat, potential):
    """Upper bound on Phi(x) - min Phi from the potential oracle's certificate."""
    return max(potential.certified_gap(game.potential(flat)), 0.0)


def test_social_ratios_at_equilibrium(g1, g1_minima):
    potential, average, maximum = g1_minima
    q = potential.flat
    eps = _certified_gap(g1, q, potential)
    ratio_avg = average_cost_ratio(g1, q, average)
    assert math.isclose(ratio_avg, 1.0, abs_tol=1e-6)
    assert ratio_avg <= average_ratio_bound(g1, eps) + 1e-9
    ratio_max = max_cost_ratio(g1, q, average, maximum)
    assert math.isclose(ratio_max, 1.0, abs_tol=1e-6)
    assert ratio_max <= max_ratio_bound(g1, eps) + 1e-9


def test_social_ratio_halfway_point(g1, g1_minima):
    # C_A = 3/8 vs C_A(x*) = 1/3 gives 9/8; eps = 3/16 - 1/6 = 1/48;
    # bound = (b/a)(1 + 2*m*eps/a) = 2 * (1 + 1/6) = 7/3.
    potential, average, _ = g1_minima
    x = np.array([0.5, 0.5])
    ratio_avg = average_cost_ratio(g1, x, average)
    eps = _certified_gap(g1, x, potential)
    bound_avg = average_ratio_bound(g1, eps)
    assert math.isclose(ratio_avg, 9 / 8, rel_tol=1e-8)
    assert math.isclose(eps, 1 / 48, abs_tol=1e-9)
    assert math.isclose(bound_avg, 7 / 3, rel_tol=1e-8)
    assert ratio_avg <= bound_avg + 1e-9


def test_identical_links_ratios_are_one(identity_links):
    game = identity_links(2, 2)
    q = reference_minimizer(game).flat
    average = min_average_cost(game)
    assert math.isclose(average_cost_ratio(game, q, average), 1.0, abs_tol=1e-6)
    assert math.isclose(
        max_cost_ratio(game, q, average, min_max_cost(game)), 1.0, abs_tol=1e-6
    )


def _tiny_link_game(coefficient: str):
    """Two players on both of two links, the first with cost coefficient*y."""
    paths = "path 1 e1\npath 1 e2\npath 2 e1\npath 2 e2\n"
    return parse_game_text(f"players 2\nedge e1 poly {coefficient}\nedge e2 poly 1\n{paths}")


def test_ratio_against_a_negative_lower_bound_fails():
    # min C_A = 1e-12 with certificate 2e-12 certifies no ratio: the ratio reads inf
    game = _tiny_link_game("1e-12")
    average = min_average_cost(game)
    assert average.lower_bound < 0.0
    check = ratio_checks(game, game.uniform_profile(), 0.25, average)[0]
    assert check.name == "average-cost-ratio"
    assert check.measured == math.inf and not check.ok
    assert average_cost_ratio(game, game.uniform_profile(), average) == math.inf


def test_ratio_against_a_zero_lower_bound_reads_inf():
    game = _tiny_link_game("1e-310")
    average, maximum = min_average_cost(game), min_max_cost(game)
    assert maximum.lower_bound == 0.0 and average.lower_bound < 0.0
    flat = game.uniform_profile()
    assert max_cost_ratio(game, flat, average, maximum) == math.inf
    # b/a overflows too, so both bounds are inf as well: each check passes, and
    # says it cannot fail
    checks = ratio_checks(game, flat, 0.25, average, maximum)
    assert [(c.measured, c.bound) for c in checks] == [(math.inf, math.inf)] * 2
    assert all(c.ok and c.vacuous for c in checks)


def test_ratios_refuse_a_wrong_shape_profile(g1, g1_minima):
    _, average, maximum = g1_minima
    for flat in (np.full(g1.dim + 1, 0.25), np.full((g1.dim, 1), 0.25)):
        with pytest.raises(GameStructureError, match="shape"):
            average_cost_ratio(g1, flat, average)
        with pytest.raises(GameStructureError, match="shape"):
            max_cost_ratio(g1, flat, average, maximum)


def test_max_ratio_refused_on_asymmetric_game():
    game = generate_random_game(seed=37, n=3, m=5, d=3)
    while game.symmetric:  # pragma: no cover - seed 37 is asymmetric
        game = generate_random_game(seed=38, n=3, m=5, d=3)
    average = min_average_cost(game)
    with pytest.raises(ConfigurationError, match="symmetric"):
        min_max_cost(game)
    with pytest.raises(ConfigurationError, match="symmetric"):
        max_cost_ratio(game, game.uniform_profile(), average, average)


# -- regret -----------------------------------------------------------------------


def test_regret_single_link_is_zero(reference_cache):
    game = parallel_links_game(2, [[1.0]])
    rep = run_bulletin(game, BulletinConfig(max_steps=50), reference=reference_cache(game))
    for i in range(2):
        assert abs(regret(rep, i)) <= 1e-12


def test_regret_zero_at_static_equalized_costs(g1, reference_cache):
    # at (2/3, 1/3) both paths cost exactly 1/3 forever, so the per-step cost
    # equals the best fixed path in hindsight
    cfg = BulletinConfig(max_steps=30, x0=np.array([2 / 3, 1 / 3]))
    rep = run_bulletin(g1, cfg, reference=reference_cache(g1))
    assert abs(regret(rep, 0)) <= 1e-12


def test_regret_g1_long_run(g1, reference_cache):
    cfg = BulletinConfig(geometry="euclidean", eta=0.5, max_steps=10_000, x0=np.array([0.5, 0.5]))
    rep = run_bulletin(g1, cfg, reference=reference_cache(g1))
    assert regret(rep, 0) <= 1e-2
    for player in (5, -1, True, 1.0):
        with pytest.raises(ValueError, match="no player"):
            regret(rep, player)


@pytest.mark.parametrize(
    "seed, n, m, d", [(1, 2, 2, 2), (103, 4, 6, 3), (5, 8, 8, 4), (1, 2, 40, 2), (9, 64, 30, 8)]
)
def test_dot_products_of_the_loop_equal_matmul(seed, n, m, d):
    # the loop computes loads and path costs with np.dot into buffers, where
    # the per-step reference writes x @ inc and inc @ c: their bits agree
    game = generate_random_game(seed=seed, n=n, m=m, d=d)
    inc = game.incidence
    rng = np.random.default_rng(seed)
    loads, costs = np.empty(game.m), np.empty(game.dim)
    for _ in range(20):
        flat = rng.dirichlet(np.ones(game.dim))
        ecosts = rng.uniform(0.0, 1.0, size=game.m)
        assert np.dot(flat, inc, out=loads).tobytes() == (flat @ inc).tobytes()
        assert np.dot(inc, ecosts, out=costs).tobytes() == (inc @ ecosts).tobytes()
