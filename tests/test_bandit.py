import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import (
    BanditConfig,
    ConfigurationError,
    CongestionGame,
    delta_equilibrium_gap,
    descent_step_check,
    episode_length,
    estimate_gradient,
    euclidean_preset,
    entropy_preset,
    expected_path_costs,
    generate_random_game,
    mixed_delta_bound,
    mixed_delta_gap,
    parallel_links_game,
    reference_minimizer,
    restrict_profile,
    run_bandit,
)
from congames import bandit
from congames.bandit import GuideTable
from conftest import random_feasible


def brute_force_expected_costs(game: CongestionGame, flat: np.ndarray) -> np.ndarray:
    """Plain-python enumeration oracle for E[c_s(X)], kept independent of the library."""
    probs = [list(game.n * flat[game.player_slice(i)]) for i in range(game.n)]
    expected = np.zeros(game.dim)
    for combo in itertools.product(*[range(sz) for sz in game.sizes]):
        weight = 1.0
        loads = [0.0] * game.m
        for i, pick in enumerate(combo):
            weight *= probs[i][pick]
            for e in game.paths[i][pick]:
                loads[e] += 1.0 / game.n
        ecosts = [game.edges[e].value(loads[e]) for e in range(game.m)]
        row = 0
        for i in range(game.n):
            for path in game.paths[i]:
                expected[row] += weight * sum(ecosts[e] for e in path)
                row += 1
    return expected


# -- choice sampling ---------------------------------------------------------------


def _episode(game: CongestionGame, x: np.ndarray, seed: int, steps: int, record: bool = False):
    """One episode of the kernel on run_bandit's per-player streams of `seed`."""
    streams = [
        np.random.Generator(np.random.PCG64(ss))
        for ss in np.random.SeedSequence(seed).spawn(game.n)
    ]
    return bandit._simulate_episode(game, x, streams, steps, record)


def test_sample_choices_degenerate():
    game = parallel_links_game(2, [[1.0], [1.0]])
    x = np.array([0.5, 0.0, 0.0, 0.5])
    steps = 20
    visits, _, log = _episode(game, x, 0, steps, record=True)
    assert visits.tolist() == [steps, 0, 0, steps]
    assert log.tolist() == [[0, 1]] * steps


def test_sample_choices_frequency():
    game = parallel_links_game(1, [[1.0], [1.0]])
    x = np.array([0.5, 0.5])
    steps = 100_000
    visits, _, _ = _episode(game, x, 1, steps)
    assert abs(visits[0] / steps - 0.5) <= 0.01  # 3 sigma is ~0.0047


def test_sampled_load_matches_flow():
    game = parallel_links_game(2, [[1.0], [1.0]])
    x = np.full(4, 0.25)
    steps = 100_000
    visits, _, _ = _episode(game, x, 2, steps)
    loads = (visits / steps) @ game.incidence / game.n
    assert np.allclose(loads, game.edge_loads(x), atol=0.01)


def test_sample_choices_rejects_bad_distribution():
    game = parallel_links_game(1, [[1.0], [1.0]])
    with pytest.raises(ValueError, match="sum"):
        bandit._choice_probs(game, np.array([0.5, 0.6]))


@pytest.mark.parametrize("block", [[np.nan, 0.5], [np.inf, 0.0], [np.inf, -np.inf]])
@pytest.mark.parametrize(
    "call",
    [
        bandit._choice_probs,
        lambda game, x: mixed_delta_gap(game, x),
        lambda game, x: mixed_delta_gap(game, x, "monte-carlo", 10),
    ],
    ids=["choice_probs", "mixed_delta_enumerate", "mixed_delta_monte_carlo"],
)
def test_choice_distribution_rejects_non_finite_profiles(call, block):
    game = parallel_links_game(2, [[1.0], [1.0]])
    with pytest.raises(ValueError, match=r"player 1 choice probabilities sum to (nan|inf)"):
        call(game, np.array([0.25, 0.25, *block]))


@st.composite
def cdf_rows(draw):
    """1-4 CDFs with zero-probability paths, tiny steps, and a last entry
    either left as rounded (possibly just under 1) or forced to 1.  Forcing can
    leave an entry just above 1 before it, so uniforms stay below 1, as drawn."""
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-9, 1e-3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        w = np.array(draw(st.lists(weight, min_size=1, max_size=12)))
        if w.sum() == 0.0:
            w[-1] = 1.0
        cdf = np.cumsum(w / w.sum())
        if draw(st.booleans()):
            cdf[-1] = 1.0
        rows.append(cdf)
    return rows


@given(cdfs=cdf_rows(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_guide_table_equals_clipped_searchsorted(cdfs, data):
    table = GuideTable(cdfs, draws=data.draw(st.sampled_from([1, 2, 3, 5, 100, 1 << 13])))
    # CDF values, bucket boundaries j/K and their floating-point neighbours
    anchors = np.concatenate(cdfs + [np.arange(table.k + 1) / table.k])
    anchors = np.concatenate([anchors, np.nextafter(anchors, -1.0), np.nextafter(anchors, 2.0)])
    drawn = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    u = np.concatenate([anchors[(anchors >= 0.0) & (anchors < 1.0)], drawn])
    picks = table.picks(np.tile(u, (len(cdfs), 1)))
    start = 0
    for i, cdf in enumerate(cdfs):
        want = np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
        assert np.array_equal(picks[i] - start, want)
        start += cdf.size


def test_guide_table_picks_on_noncontiguous_slice():
    rng = np.random.default_rng(3)
    table = GuideTable([np.cumsum(rng.dirichlet(np.ones(k))) for k in (1, 3, 7)], draws=1000)
    u = rng.random((3, 1000))
    tile = u[:, 123:611]
    assert not tile.flags.c_contiguous
    assert np.array_equal(table.picks(tile), table.picks(np.ascontiguousarray(tile)))


# -- episode lengths ----------------------------------------------------------------


def test_episode_length_formula():
    assert episode_length(nu=1, n=2, d=2, lam_eff=0.1, m_path=1, tau=2) == 84


def test_episode_length_scales_with_nu():
    short = episode_length(nu=1, n=2, d=2, lam_eff=0.1, m_path=1, tau=3)
    long = episode_length(nu=2, n=2, d=2, lam_eff=0.1, m_path=1, tau=3)
    assert short * 2 - 1 <= long <= short * 2 + 1


def test_episode_length_monotone_in_tau():
    lengths = [episode_length(8, 4, 3, 0.05, 2, tau) for tau in range(1, 12)]
    assert all(b >= a for a, b in zip(lengths, lengths[1:]))
    with pytest.raises(ValueError):
        episode_length(8, 4, 3, 0.05, 2, 0)


# -- floored sets -------------------------------------------------------------------


def test_restrict_profile_example():
    game = parallel_links_game(2, [[1.0], [1.0]])
    x = np.array([0.5, 0.0, 0.25, 0.25])
    out = restrict_profile(game, x, 0.1)
    assert np.allclose(out[:2], [0.45, 0.05], atol=1e-15)
    assert math.isclose(out[:2].sum(), 0.5, abs_tol=1e-15)
    assert math.isclose(out[2:].sum(), 0.5, abs_tol=1e-15)


def test_restrict_profile_uniform_fixed_point():
    game = parallel_links_game(3, [[1.0]] * 4)
    x = game.uniform_profile()
    assert np.allclose(restrict_profile(game, x, 0.08), x, atol=1e-15)


def test_restrict_profile_vanishing_lambda():
    game = parallel_links_game(2, [[1.0], [0.5]])
    x = np.array([0.4, 0.1, 0.3, 0.2])
    assert np.allclose(restrict_profile(game, x, 1e-12), x, atol=1e-9)


def test_restrict_profile_infeasible_floor():
    game = parallel_links_game(1, [[1.0], [1.0]])
    with pytest.raises(ConfigurationError, match="floor"):
        restrict_profile(game, game.uniform_profile(), 0.5)


@pytest.mark.parametrize("lam", [0.0, -0.1, math.nan, math.inf])
def test_restrict_profile_rejects_bad_lambda(lam):
    # NaN passes both "<= 0" and the floor test; it would spread over every entry
    game = parallel_links_game(2, [[1.0], [1.0]])
    with pytest.raises(ConfigurationError, match="Lambda must be a positive finite number"):
        restrict_profile(game, game.uniform_profile(), lam)


def test_restrict_profile_l1_distance_bound():
    game = generate_random_game(seed=3, n=3, m=5, d=3)
    rng = np.random.default_rng(3)
    lam = 0.05
    for _ in range(50):
        x = random_feasible(game, rng)
        out = restrict_profile(game, x, lam)
        for i in range(game.n):
            sl = game.player_slice(i)
            l1 = np.abs(out[sl] - x[sl]).sum()
            assert l1 <= 2 * game.sizes[i] * lam / game.n + 1e-12
            assert np.all(out[sl] >= lam / game.n - 1e-15)


# -- gradient estimation ---------------------------------------------------------------


def test_estimate_gradient_constant_observations():
    visits = np.array([5, 0, 3])
    sums = np.array([2.0, 0.0, 1.2])
    est, fallback = estimate_gradient(visits, sums)
    assert np.allclose(est, [0.4, 0.0, 0.4])
    assert fallback.tolist() == [False, True, False]
    est2, _ = estimate_gradient(visits, sums, previous=np.array([9.0, 7.0, 9.0]))
    assert est2[1] == 7.0


def test_expectation_bias_linear_costs_exact():
    game = parallel_links_game(2, [[1.0], [0.5]])
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = random_feasible(game, rng)
        bias = expected_path_costs(game, x) - game.path_costs(x)
        assert np.abs(bias).max() <= 1e-12


def test_expectation_bias_quadratic_three_players():
    # c(y) = (y + y^2)/2 on two links, n = 3: all 8 outcomes enumerated
    game = parallel_links_game(3, [[0.5, 0.5], [0.5, 0.5]])
    assert game.second_derivative_upper == 1.0
    rng = np.random.default_rng(5)
    cap = game.second_derivative_upper * game.m_path / (8 * game.n)
    for _ in range(10):
        x = random_feasible(game, rng)
        expected = expected_path_costs(game, x)
        oracle = brute_force_expected_costs(game, x)
        assert np.allclose(expected, oracle, atol=1e-12)
        bias = expected - game.path_costs(x)
        assert np.all(bias >= -1e-12)
        assert np.all(bias <= cap + 1e-12)


def test_expectation_bias_general_small_game():
    game = generate_random_game(seed=6, n=3, m=4, d=2, degree=2)
    rng = np.random.default_rng(6)
    cap = game.second_derivative_upper * game.m_path / (8 * game.n)
    x = random_feasible(game, rng)
    bias = expected_path_costs(game, x) - game.path_costs(x)
    assert np.all(bias >= -1e-12) and np.all(bias <= cap + 1e-12)


def test_exact_expectation_needs_no_enumeration_cap():
    # 4^12 joint outcomes, beyond any enumeration; with linear costs
    # E[c_s(X)] = c_s(x), so the per-edge load laws must give it exactly.
    game = parallel_links_game(12, [[1.0], [0.5], [0.25], [0.75]])
    rng = np.random.default_rng(8)
    for x in (game.uniform_profile(), random_feasible(game, rng)):
        bias = expected_path_costs(game, x) - game.path_costs(x)
        assert np.abs(bias).max() <= 1e-12


EXACT_GAMES = [
    lambda: parallel_links_game(3, [[0.5, 0.5], [0.2, 0.3, 0.4]]),
    lambda: generate_random_game(seed=21, n=4, m=6, d=3),
    lambda: generate_random_game(seed=22, n=3, m=9, d=4, max_path_len=4),
    lambda: generate_random_game(seed=23, n=5, m=5, d=2, degree=4, symmetric=True),
    lambda: CongestionGame(n=2, edges=parallel_links_game(1, [[1.0]] * 3).edges,
                           paths=((frozenset({0, 1, 2}),), (frozenset({0}), frozenset({1, 2})))),
]


@pytest.mark.parametrize("make", EXACT_GAMES)
def test_exact_expectation_matches_brute_force(make):
    game = make()
    rng = np.random.default_rng(9)
    for x in (game.uniform_profile(), random_feasible(game, rng), random_feasible(game, rng)):
        expected = expected_path_costs(game, x)
        assert np.allclose(expected, brute_force_expected_costs(game, x), rtol=0.0, atol=1e-12)
        assert mixed_delta_gap(game, x).expected_costs.tolist() == expected.tolist()


# -- run_bandit ----------------------------------------------------------------------


def test_single_path_players_profile_constant(reference_cache):
    game = parallel_links_game(2, [[1.0]])
    cfg = BanditConfig(lam=0.5, episodes=3, seed=0, nu=1.0, eta=0.1)
    rep = run_bandit(game, cfg, reference=reference_cache(game))
    for rec in rep.records:
        assert np.allclose(rec.profile, game.uniform_profile())


def test_zero_noise_mode_descends_monotonically(reference_cache):
    game = generate_random_game(seed=7, n=3, m=5, d=3)
    cfg = euclidean_preset(game, episodes=25, seed=0, exact_gradient=True)
    rep = run_bandit(game, cfg, reference=reference_cache(game))
    assert np.all(np.diff(rep.phis) <= 1e-10)
    assert np.all(rep.grad_errors == 0.0)


def test_zero_noise_mode_passes_descent_checks(reference_cache):
    game = generate_random_game(seed=8, n=4, m=5, d=3)
    cfg = euclidean_preset(game, episodes=20, seed=0, exact_gradient=True)
    rep = run_bandit(game, cfg, reference=reference_cache(game))
    p = rep.params
    phis = rep.phis
    for prev, nxt in zip(phis, phis[1:]):
        assert descent_step_check(prev, nxt, rep.reference.value, p.theta, p.delta)


def test_bandit_determinism_and_replay(reference_cache):
    game = parallel_links_game(3, [[1.0]] * 3)
    cfg = euclidean_preset(game, episodes=2, seed=42, nu=1.0, record_choices=True)
    rep1 = run_bandit(game, cfg, reference=reference_cache(game))
    rep2 = run_bandit(game, cfg, reference=reference_cache(game))
    assert np.array_equal(rep1.phis, rep2.phis)
    for a, b in zip(rep1.choices, rep2.choices):
        assert np.array_equal(a, b)
    # replayed choice vectors reproduce the recorded visit counts
    counts = np.bincount(rep1.choices[0][:, 0], minlength=3)
    assert np.array_equal(counts, rep1.records[0].visits[:3])


def test_episode_visits_sum_to_steps(reference_cache):
    game = parallel_links_game(3, [[1.0]] * 3)
    cfg = euclidean_preset(game, episodes=3, seed=5, nu=1.0)
    rep = run_bandit(game, cfg, reference=reference_cache(game))
    for rec in rep.records:
        for i in range(game.n):
            assert rec.visits[game.player_slice(i)].sum() == rec.steps


def test_bandit_floor_preserved_both_geometries(reference_cache):
    game = parallel_links_game(3, [[1.0]] * 3)
    for preset in (euclidean_preset, entropy_preset):
        cfg = preset(game, episodes=3, seed=1, nu=1.0)
        rep = run_bandit(game, cfg, reference=reference_cache(game))
        floor = cfg.lam / game.n
        for rec in rep.records:
            assert np.all(rec.profile >= floor - 1e-12)
        assert np.all(rep.x_final >= floor - 1e-12)


def test_estimator_accuracy_small_sample(reference_cache):
    game = parallel_links_game(4, [[1.0]] * 4)
    params = BanditConfig(lam=0.2, episodes=1, seed=0, nu=8.0, eta=0.12).derive(game)
    hits = 0
    trials = 25
    for seed in range(trials):
        cfg = BanditConfig(lam=0.2, episodes=1, seed=seed, nu=8.0, eta=0.12)
        rep = run_bandit(game, cfg, reference=reference_cache(game))
        hits += rep.grad_errors[0] <= params.epsilon
    assert hits >= trials - 2


def test_theta_gate():
    game = parallel_links_game(10, [[1.0]] * 4)  # theta = sqrt(8/m) = sqrt(2) > 1
    cfg = BanditConfig(lam=0.05, episodes=1)
    with pytest.raises(ConfigurationError, match="theta"):
        cfg.derive(game)


def test_config_validation():
    game = parallel_links_game(2, [[1.0], [1.0]])
    with pytest.raises(ConfigurationError, match="nu"):
        BanditConfig(lam=0.1, nu=0.5).derive(game)
    with pytest.raises(ConfigurationError, match="Lambda"):
        BanditConfig(lam=0.6).derive(game)
    with pytest.raises(ConfigurationError, match="learning rate"):
        BanditConfig(lam=0.1, eta=10.0).derive(game)
    with pytest.raises(ConfigurationError, match="learning rate must be a finite number"):
        BanditConfig(lam=0.1, eta=float("nan")).derive(game)
    with pytest.raises(ConfigurationError, match="episode"):
        BanditConfig(lam=0.1, episodes=0).derive(game)


def test_episode_count_must_be_an_integer(reference_cache):
    # range() takes no 2.5, and True would pass for one episode.
    game = parallel_links_game(3, [[1.0]] * 3)
    for episodes in (2.5, True):
        cfg = euclidean_preset(game, episodes=episodes)
        with pytest.raises(ConfigurationError, match=f"episode count must be an integer, got {episodes!r}"):
            cfg.derive(game)
        with pytest.raises(ConfigurationError, match="episode count must be an integer"):
            run_bandit(game, cfg, reference=reference_cache(game))


def test_choice_log_rejects_path_indices_beyond_int16():
    # One player with 32,769 paths (subsets of 16 edges): index 32,768 does not
    # fit the int16 log.  The check comes first, before any game-sized work.
    paths = tuple(
        frozenset(e for e in range(16) if mask >> e & 1) for mask in range(1, 32_770)
    )
    game = CongestionGame(n=1, edges=parallel_links_game(1, [[1.0]] * 16).edges, paths=(paths,))
    with pytest.raises(ConfigurationError, match="at most 32768 paths per player"):
        BanditConfig(lam=1e-6, record_choices=True).derive(game)


TILE_GAMES = {
    "links": lambda: parallel_links_game(10, [[1.0]] * 10),
    "gen302": lambda: generate_random_game(n=16, m=8, d=3, seed=302),
    # 650 bins per player-step: the histogram rule enlarges the 512-step tile
    "links64": lambda: parallel_links_game(64, [[1.0]] * 10),
}


def reference_episode(game, flat, streams, steps):
    """The episode kernel written out without tiles or histogram: each player's
    uniforms in one draw, picks by inverse CDF, own-path costs from edge_costs
    at the step's loads (edges in ascending order), then one bincount for the
    visits and one for the cost sums in player-major order."""
    cdfs = [p.cumsum() for p in bandit._choice_probs(game, flat)]
    starts = game.offsets[:-1, None]
    u = np.stack([stream.random(steps) for stream in streams])
    picks = starts + np.stack(
        [np.minimum(np.searchsorted(c, row, "right"), len(c) - 1) for c, row in zip(cdfs, u)]
    )
    loads = game.incidence[picks].sum(axis=0) * (1.0 / game.n)  # (steps, m)
    costs = np.hstack([game.edge_costs(loads), np.zeros((steps, 1))])  # padding edge m
    ids, t = game.edge_ids[picks], np.arange(steps)
    own = costs[t, ids[..., 0]]
    for col in range(1, game.m_path):
        own = own + costs[t, ids[..., col]]
    visits = np.bincount(picks.ravel(), minlength=game.dim)
    sums = np.bincount(picks.ravel(), weights=own.ravel(), minlength=game.dim)
    return visits, sums, (picks - starts).T.astype(np.int16)


@pytest.mark.parametrize("name", sorted(TILE_GAMES))
def test_episode_kernel_tile_invariance(monkeypatch, name):
    """Tiles of 1 step, 7 steps, the histogram rule's length or the whole
    episode give the same visits, cost-sum bits and choice log; these match
    the reference kernel (its float sums round per step, so to 1e-13), and
    the choice log changes nothing when it is not recorded."""
    game = TILE_GAMES[name]()
    flat = restrict_profile(game, random_feasible(game, np.random.default_rng(5)), 0.05)
    steps = 2500
    bins = game.dim * game.m_path * (game.n + 1)
    assert (bandit._tile_steps(game, bins) > bandit._tile_steps(game)) == (name == "links64")

    def streams():
        return [
            np.random.Generator(np.random.PCG64(ss))
            for ss in np.random.SeedSequence(7).spawn(game.n)
        ]

    def digest(visits, sums, log):
        return visits.tolist(), [v.hex() for v in sums], hashlib.sha256(log.tobytes()).hexdigest()

    got = digest(*bandit._simulate_episode(game, flat, streams(), steps, True))
    visits, sums, log = reference_episode(game, flat, streams(), steps)
    assert got[0] == visits.tolist() and sum(got[0]) == game.n * steps
    assert got[2] == hashlib.sha256(log.tobytes()).hexdigest()
    got_sums = np.array([float.fromhex(v) for v in got[1]])
    assert np.all(np.abs(got_sums - sums) <= 1e-13 * np.abs(sums))
    for tile in (1, 7, steps):
        monkeypatch.setattr(bandit, "_tile_steps", lambda game, bins=0, tile=tile: tile)
        assert digest(*bandit._simulate_episode(game, flat, streams(), steps, True)) == got
    visits, sums, log = bandit._simulate_episode(game, flat, streams(), steps, False)
    assert log is None
    assert (visits.tolist(), [v.hex() for v in sums]) == got[:2]


@pytest.mark.parametrize("eta", [np.array([0.1, 0.1]), np.full((3, 1), 0.1), np.zeros((0,))])
def test_per_player_eta_of_wrong_shape_rejected(eta):
    game = parallel_links_game(3, [[1.0], [1.0]])
    shape = re.escape(str(eta.shape))
    with pytest.raises(ConfigurationError, match=f"learning rates of shape {shape} for n = 3 players"):
        BanditConfig(lam=0.1, eta=eta).derive(game)
    assert BanditConfig(lam=0.1, eta=np.full(3, 0.1)).resolve_etas(game).tolist() == [0.1] * 3


def test_presets_satisfy_theta_precondition():
    for game in (
        parallel_links_game(10, [[1.0]] * 10),
        generate_random_game(seed=9, n=4, m=6, d=3),
    ):
        for preset in (euclidean_preset, entropy_preset):
            cfg = preset(game)
            params = cfg.derive(game)
            assert params.theta <= 1.0 + 1e-12
            assert 0.0 < cfg.lam < 1.0 / game.d


# -- descent step check ----------------------------------------------------------------


def test_descent_step_check_gap_zero_case():
    assert descent_step_check(1.0, 1.0 + 0.05, 1.0, theta=0.5, delta=0.1)
    assert not descent_step_check(1.0, 1.2, 1.0, theta=0.5, delta=0.1)


def test_descent_step_check_at_twice_delta_over_theta():
    # gap exactly 2*delta/theta forces a net decrease of at least delta
    theta, delta = 0.4, 0.02
    phi_min = 0.3
    phi_prev = phi_min + 2 * delta / theta
    assert descent_step_check(phi_prev, phi_prev - delta, phi_min, theta, delta)
    assert not descent_step_check(phi_prev, phi_prev - delta + 1e-6, phi_min, theta, delta)


# -- mixed delta gap ----------------------------------------------------------------


def test_mixed_delta_equals_nonatomic_for_linear_costs():
    game = parallel_links_game(2, [[1.0], [0.5]])
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = random_feasible(game, rng)
        mixed = mixed_delta_gap(game, x, mode="enumerate")
        assert math.isclose(mixed.delta, delta_equilibrium_gap(game, x), abs_tol=1e-12)


def test_mixed_delta_at_restricted_minimizer():
    game = parallel_links_game(3, [[0.5, 0.5], [0.5, 0.5]])
    ref = reference_minimizer(game)
    qbar = restrict_profile(game, ref.flat, 0.1)
    res = mixed_delta_gap(game, qbar, mode="enumerate")
    cap = game.second_derivative_upper * game.m_path / game.n
    assert res.delta <= cap + 1e-9


def test_mixed_delta_single_player_single_path():
    game = parallel_links_game(1, [[1.0]])
    res = mixed_delta_gap(game, np.array([1.0]), mode="enumerate")
    assert res.delta == 0.0


def test_mixed_delta_monte_carlo_agrees():
    game = parallel_links_game(2, [[1.0], [0.5]])
    x = restrict_profile(game, game.uniform_profile(), 0.2)
    exact = mixed_delta_gap(game, x, mode="enumerate")
    mc = mixed_delta_gap(game, x, mode="monte-carlo", samples=200_000, seed=3)
    assert np.allclose(mc.expected_costs, exact.expected_costs, atol=0.01)
    with pytest.raises(ValueError, match="mode"):
        mixed_delta_gap(game, x, mode="grid")
    with pytest.raises(ValueError, match="at least one sample"):
        mixed_delta_gap(game, x, mode="monte-carlo", samples=0)


def _sampled_picks(game: CongestionGame, flat: np.ndarray, samples: int, seed: int):
    """Each 16,384-sample batch's flat picks, drawn as the Monte-Carlo mode draws
    them: uniforms from default_rng(seed), one (n, batch) block at a time, then
    each player's inverse CDF."""
    rng = np.random.default_rng(seed)
    cdfs = [p.cumsum() for p in bandit._choice_probs(game, flat)]
    for done in range(0, samples, 16384):
        u = rng.random((game.n, min(16384, samples - done)))
        yield np.stack(
            [
                lo + np.minimum(np.searchsorted(cdf, row, side="right"), len(cdf) - 1)
                for lo, cdf, row in zip(game.offsets, cdfs, u)
            ]
        )


def _matrix_monte_carlo(game: CongestionGame, flat: np.ndarray, samples: int, seed: int):
    """The Monte-Carlo estimate as it was before load laws, kept as the oracle:
    a (batch, dim) path-cost matrix per batch, summed over samples."""
    acc = np.zeros(game.dim)
    for picks in _sampled_picks(game, flat, samples, seed):
        loads = game.incidence[picks].sum(axis=0)  # (batch, m) players per edge
        acc += (game.edge_costs(loads * (1.0 / game.n)) @ game.incidence.T).sum(axis=0)
    return acc / samples


def _counted_law(game: CongestionGame, flat: np.ndarray, samples: int, seed: int):
    """The sampled load law counted from each sample's edge loads: at (e, k),
    the samples with k players on edge e."""
    law = np.zeros((game.m, game.n + 1), dtype=np.int64)
    for picks in _sampled_picks(game, flat, samples, seed):
        loads = game.incidence[picks].sum(axis=0).astype(int)  # (batch, m)
        for e in range(game.m):
            law[e] += np.bincount(loads[:, e], minlength=game.n + 1)
    return law


MC_GAMES = {
    "gen302": lambda: generate_random_game(n=16, m=8, d=3, seed=302),
    "m30": lambda: generate_random_game(n=7, m=30, d=4, seed=33),
    "len5": lambda: generate_random_game(n=5, m=16, d=5, seed=32, max_path_len=5),
    "links": lambda: parallel_links_game(7, [[0.5, 0.3], [0.9], [0.2, 0.2, 0.2]]),
    "m60": lambda: generate_random_game(n=6, m=60, d=4, seed=31),
}
MC_SAMPLES = (2, 1023, 16386, 40000)


@pytest.fixture(scope="module")
def counted_laws():
    """name -> (profile, {samples: counted law}), shared by the tile cases."""
    laws = {}
    for name, make in MC_GAMES.items():
        game = make()
        flat = random_feasible(game, np.random.default_rng(17))
        laws[name] = flat, {s: _counted_law(game, flat, s, seed=s) for s in MC_SAMPLES}
    return laws


@pytest.mark.parametrize("tile", [None, 1, 7])
@pytest.mark.parametrize("name", sorted(MC_GAMES))
def test_monte_carlo_tiles_bit_for_bit(monkeypatch, counted_laws, name, tile):
    """The sampled load law equals a count from each sample's loads in every
    entry, for one batch, a short tile, a carry into a second batch and (at
    the default tile) several batches, and tiles of 1 and 7 samples change no
    count.  The costs read off it agree with the old (batch, dim) matrix path
    to rounding: that product's order of addition is the BLAS kernel's choice."""
    game = MC_GAMES[name]()
    if tile is not None:
        monkeypatch.setattr(bandit, "_TILE_ENTRIES", tile * game.n * game.m_path)
    flat, laws = counted_laws[name]
    for samples in MC_SAMPLES:
        if tile is not None and samples > 16386:
            continue
        law = bandit._sampled_load_law(game, flat, samples, seed=samples)
        assert law.dtype == np.int64
        assert np.array_equal(law, laws[samples])
        assert np.all(law.sum(axis=1) == samples)
        if tile is None:
            mc = mixed_delta_gap(game, flat, "monte-carlo", samples, samples).expected_costs
            old = _matrix_monte_carlo(game, flat, samples, seed=samples)
            assert np.allclose(mc, old, rtol=1e-12, atol=0.0)
    assert game.m_path >= 3 or name == "links"


@pytest.mark.parametrize("samples", [np.int64(10), np.int32(10), 10])
def test_monte_carlo_accepts_numpy_sample_counts(samples):
    game = parallel_links_game(3, [[1.0], [0.5]])
    x = restrict_profile(game, game.uniform_profile(), 0.2)
    got = mixed_delta_gap(game, x, "monte-carlo", samples, seed=4)
    want = mixed_delta_gap(game, x, "monte-carlo", 10, seed=4)
    assert got.expected_costs.tolist() == want.expected_costs.tolist()


@pytest.mark.parametrize("samples", [True, False, 2.5, 1e4, 10.0, "10", None, 0, -3, np.int64(0)])
def test_monte_carlo_rejects_bad_sample_counts(samples):
    game = parallel_links_game(3, [[1.0], [0.5]])
    x = restrict_profile(game, game.uniform_profile(), 0.2)
    with pytest.raises(ValueError, match="at least one sample"):
        mixed_delta_gap(game, x, "monte-carlo", samples)


def test_mixed_delta_theory_ceiling():
    game = parallel_links_game(3, [[0.5, 0.5], [0.5, 0.5]])
    ref = reference_minimizer(game)
    cfg = euclidean_preset(game, episodes=4, seed=2, nu=1.0)
    rep = run_bandit(game, cfg, reference=ref)
    for idx, rec in enumerate(rep.records):
        gap = max(rep.certified_gaps[idx], 0.0)
        res = mixed_delta_gap(game, rec.profile, mode="enumerate")
        assert res.delta <= mixed_delta_bound(game, gap) + 1e-9
