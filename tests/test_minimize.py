import functools
import json
import math
import operator
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import congames.costs
import congames.minimize
from congames import (
    BulletinConfig,
    CongestionGame,
    CostValidationError,
    PolynomialCost,
    euclidean_preset,
    generate_random_game,
    min_average_cost,
    min_max_cost,
    parallel_links_game,
    reference_minimizer,
    run_bandit,
    run_bulletin,
)
from congames.checks import max_cost_ratio
from congames.cli import main
from congames.minimize import (
    _EIGVALS_ERRSTATE,
    _line_search,
    potential_objective,
)
from conftest import random_feasible
from test_minimize_golden import GAMES, GOLDEN, ORACLES, _record


def test_g1_reference_minimizer(g1):
    ref = reference_minimizer(g1)
    assert np.allclose(ref.flat, [2 / 3, 1 / 3], atol=1e-8)
    assert math.isclose(ref.value, 1 / 6, abs_tol=1e-9)
    assert ref.certificate <= 1e-10
    assert ref.converged


def test_symmetric_two_links_by_symmetry(identity_links):
    game = identity_links(1, 2)
    ref = reference_minimizer(game)
    assert np.allclose(ref.flat, [0.5, 0.5], atol=1e-8)
    assert math.isclose(ref.value, 0.25, abs_tol=1e-10)


def test_single_link_game_trivial():
    game = parallel_links_game(1, [[1.0]])
    ref = reference_minimizer(game)
    assert np.allclose(ref.flat, [1.0])
    assert math.isclose(ref.value, game.potential(np.array([1.0])), abs_tol=1e-15)
    assert ref.certificate <= 1e-12


def test_identical_links_many_players(identity_links):
    # Uniform loads minimize; Phi(q) = m * (1/m)^2 / 2 = 1/(2m).
    game = identity_links(4, 5)
    ref = reference_minimizer(game)
    assert math.isclose(ref.value, 1 / 10, abs_tol=1e-9)
    assert np.allclose(game.edge_loads(ref.flat), np.full(5, 0.2), atol=1e-6)


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_certificate_bounds_suboptimality(seed):
    game = generate_random_game(seed=seed, n=4, m=6, d=3)
    ref = reference_minimizer(game)
    assert ref.converged and ref.certificate <= 1e-10
    rng = np.random.default_rng(seed)
    for _ in range(500):
        assert game.potential(random_feasible(game, rng)) >= ref.value - ref.certificate - 1e-12


def test_average_cost_minimizer_g1(g1):
    best = min_average_cost(g1)
    # C_A(y) = y^2/2 + (1-y)^2 is minimized at y = 2/3 with value 1/3.
    assert np.allclose(best.flat, [2 / 3, 1 / 3], atol=1e-7)
    assert math.isclose(best.value, 1 / 3, abs_tol=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(500):
        assert g1.average_cost(random_feasible(g1, rng)) >= best.value - best.certificate - 1e-12


def test_max_cost_minimizer_g1(g1):
    best = min_max_cost(g1)
    # grid oracle over y1: min of max(y1/2, 1 - y1) sits at y1 = 2/3
    grid = np.linspace(0.0, 1.0, 20001)
    oracle = float(np.maximum(grid / 2, 1.0 - grid).min())
    assert math.isclose(best.value, oracle, abs_tol=1e-4)
    assert math.isclose(best.value, 1 / 3, abs_tol=1e-7)


def test_max_cost_minimizer_identical_links(identity_links):
    game = identity_links(2, 2)
    best = min_max_cost(game)
    assert math.isclose(best.value, 0.5, abs_tol=1e-7)


def test_runtime_runs_without_scipy():
    # None in sys.modules makes every scipy import raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import congames, congames.cli\n"
        "game = congames.parallel_links_game(2, [[1.0]] * 2)\n"
        "print(round(congames.min_max_cost(game).value, 6))\n"
        "args = '--gen n=12,m=12,d=6,deg=2,sym=1,seed=202 --algo bulletin-mu --sigma 0.25'\n"
        "sys.exit(congames.cli.main(args.split()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "0.5"
    assert "[PASS] maximum-cost-ratio" in proc.stdout


def test_max_cost_minimizer_asymmetric_two_link():
    # One player, links y and y/2 + y^2/2: equalize y1 = c2(1-y1) numerically.
    game = CongestionGame(
        n=1,
        edges=(PolynomialCost((1.0,)), PolynomialCost((0.5, 0.5))),
        paths=((frozenset({0}), frozenset({1})),),
    )
    grid = np.linspace(0.0, 1.0, 200001)
    oracle = np.maximum(grid, 0.5 * (1 - grid) + 0.5 * (1 - grid) ** 2).min()
    best = min_max_cost(game)
    assert math.isclose(best.value, float(oracle), abs_tol=2e-5)


@pytest.mark.parametrize("seed", range(20))
def test_max_cost_certificate_brackets_grid_minimum(seed):
    # two paths: the flow is (y, 1 - y), so a fine grid over y finds min C_M; at
    # seeds 12 and 17 the bound without its rounding allowance exceeds it by an ulp
    game = generate_random_game(
        seed=seed, n=2, m=3 + seed % 4, d=2, degree=1 + seed % 3, symmetric=True
    )
    best = min_max_cost(game)
    y = np.linspace(0.0, 1.0, 100_001)[:, None]
    flows = np.hstack([y, 1.0 - y, y, 1.0 - y]) / 2  # both players list one path order
    grid = (game.edge_costs(flows @ game.incidence) @ game.incidence.T).max(axis=1).min()
    assert best.converged and best.certificate <= 1e-12 * max(1.0, best.value)
    assert best.value - best.certificate <= grid <= best.value + 1e-5  # the grid's resolution


@pytest.mark.parametrize("seed, n, m, d", [(1, 8, 30, 40), (4, 8, 8, 40), (8, 32, 8, 20)])
def test_max_cost_certificate_when_more_paths_tie_than_carry_flow(seed, n, m, d):
    # more costs at the maximum than used paths: the stationarity equations have
    # many solutions, and only a nonnegative one gives a tight bound
    game = generate_random_game(seed=seed, n=n, m=m, d=d, symmetric=True)
    best = min_max_cost(game)
    assert best.converged and best.certificate <= 1e-12 * max(1.0, best.value)


def test_max_cost_certificate_of_a_worse_flow(monkeypatch):
    game = generate_random_game(seed=2, n=3, m=5, d=3, symmetric=True)
    best = min_max_cost(game)
    barrier = congames.minimize._epigraph_barrier

    def halfway_to_uniform(costs, tol):
        f, tau, steps = barrier(costs, tol)
        return 0.5 * f + 0.5 / len(f), tau, steps

    monkeypatch.setattr(congames.minimize, "_epigraph_barrier", halfway_to_uniform)
    worse = min_max_cost(game)
    game.check_profile(worse.flat)
    assert worse.value > best.value + 1e-3
    assert worse.certificate > best.certificate + 1e-3
    # still a lower bound on min C_M, so the ratio's denominator stays certified
    assert worse.value - worse.certificate <= best.value
    average = min_average_cost(game)
    flat = game.uniform_profile()
    assert max_cost_ratio(game, flat, average, worse) >= max_cost_ratio(game, flat, average, best)


def test_max_cost_certificate_when_backtracking_is_exhausted(monkeypatch):
    """With no step long enough to try, every centering ends in the barrier's
    exhausted backtracking: the flow stays uniform, the oracle says it did not
    converge, and value - certificate is still a lower bound on min C_M."""
    game = generate_random_game(seed=202, n=12, m=12, d=6, degree=2, symmetric=True)
    best = min_max_cost(game)
    monkeypatch.setattr(congames.minimize, "_SHORTEST_STEP", 2.0)
    stuck = min_max_cost(game)
    assert np.allclose(stuck.flat, game.uniform_profile(), rtol=0.0, atol=1e-15)
    assert not stuck.converged and stuck.value > best.value + 0.3
    assert stuck.value - stuck.certificate <= best.value


def test_max_cost_players_list_paths_in_different_orders():
    base = generate_random_game(seed=5, n=3, m=6, d=4, symmetric=True)
    shared = base.paths[0]
    # the fourth player lists path 1 twice; min C_M depends on the flow, not on n
    orders = [(3, 1, 0, 2), (0, 1, 2, 3), (2, 3, 1, 0), (1, 0, 1, 2, 3)]
    game = CongestionGame(
        n=4, edges=base.edges, paths=tuple(tuple(shared[k] for k in o) for o in orders)
    )
    best, reference = min_max_cost(game), min_max_cost(base)
    flat = game.check_profile(best.flat)
    # every player puts the same flow on the same path, wherever she lists it
    by_path = [dict(zip(game.paths[i], flat[game.player_slice(i)])) for i in range(3)]
    assert by_path[0] == by_path[1] == by_path[2]
    twice = flat[game.player_slice(3)]
    assert twice[0] == twice[2] == by_path[0][shared[1]] / 2
    assert math.isclose(best.value, reference.value, rel_tol=1e-12)
    assert best.certificate <= 1e-12 * max(1.0, best.value)


def test_minimizer_feasibility():
    for seed in (2, 3):
        game = generate_random_game(seed=seed, n=3, m=5, d=3, symmetric=True)
        for cert in (reference_minimizer(game), min_average_cost(game)):
            loads = game.edge_loads(cert.flat)
            assert np.all(cert.flat >= -1e-12)
            assert np.all(loads <= 1.0 + 1e-9)
            for i in range(game.n):
                assert math.isclose(
                    cert.flat[game.player_slice(i)].sum(), 1 / game.n, abs_tol=1e-9
                )


def test_oracles_share_no_state_between_threads(monkeypatch):
    # two games of one shape, so any scratch kept between solves would collide
    games = [generate_random_game(seed=s, n=8, m=8, d=4, degree=3) for s in (3, 4)]
    calls = [(oracle, game) for game in games for oracle in (reference_minimizer, min_average_cost)]

    def fingerprint(result):
        return result.flat.tobytes(), result.value, result.certificate, result.iterations

    sequential = [fingerprint(oracle(game)) for oracle, game in calls]
    eigvals = congames.minimize._eigvals

    def yielding_eigvals(a, signature):
        time.sleep(0)  # let the other thread run between writing a companion and reading it
        return eigvals(a, signature=signature)

    monkeypatch.setattr(congames.minimize, "_eigvals", yielding_eigvals)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda call: fingerprint(call[0](call[1])), calls * 2))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential * 2


def test_iteration_cap_reports_best_found():
    game = generate_random_game(seed=12, n=4, m=6, d=3)
    capped = congames.minimize.minimize_edge_separable(game, potential_objective(game), 1e-12, 3)
    assert not capped.converged
    assert capped.certificate > 0.0
    full = reference_minimizer(game)
    # the certificate still upper-bounds the true suboptimality
    assert capped.value - (full.value - full.certificate) <= capped.certificate + 1e-12


def test_max_cost_oracle_solves_no_potential(monkeypatch):
    game = generate_random_game(seed=2, n=3, m=5, d=3, symmetric=True)

    def no_solve(*args, **kwargs):
        raise AssertionError("min_max_cost ran a Frank-Wolfe solve")

    monkeypatch.setattr(congames.minimize, "reference_minimizer", no_solve)
    monkeypatch.setattr(congames.minimize, "minimize_edge_separable", no_solve)
    best = min_max_cost(game)
    assert best.converged and best.certificate <= 1e-12 * max(1.0, best.value)


def test_cli_solves_potential_once_for_max_cost(monkeypatch, tmp_path, capsys):
    solves = []
    solve = congames.minimize.minimize_edge_separable

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(congames.minimize, "minimize_edge_separable", counted)
    args = "--gen n=12,m=12,d=6,deg=2,sym=1,seed=202 --algo bulletin-mu --sigma 0.25"
    assert main(args.split() + ["--out", str(tmp_path / "run.csv")]) == 0
    assert "maximum-cost-ratio" in capsys.readouterr().out
    assert len(solves) == 2  # the potential and the average cost; min_max_cost solves neither
    # with no CSV and no ratio check, nothing reads the average-cost minimum
    solves.clear()
    assert main(args.replace("--sigma 0.25", "--eps 1e-6").split()) == 0
    assert len(solves) == 1


def test_dynamics_solve_no_oracle(monkeypatch, reference_cache):
    game = generate_random_game(seed=2, n=3, m=5, d=3)
    reference = reference_cache(game)

    def no_solve(*args, **kwargs):
        raise AssertionError("the dynamics ran an oracle solve")

    monkeypatch.setattr(congames.minimize, "minimize_edge_separable", no_solve)
    bulletin = run_bulletin(game, BulletinConfig(max_steps=20), reference)
    bandit = run_bandit(game, euclidean_preset(game, episodes=2, seed=0), reference)
    assert bulletin.reference is reference and bandit.reference is reference
    assert bulletin.steps == 20 and len(bandit.records) == 2


# -- line search --------------------------------------------------------------


def _np_roots_line_search(coeffs: np.ndarray, t_max: float) -> float:
    """The line search as it was before np.roots was unwrapped, kept as the oracle."""
    descending = coeffs[::-1]
    leading_first = descending.tolist()

    def ev(t: float) -> float:
        y = 0.0
        for c in leading_first:
            y = y * t + c
        return y

    if ev(t_max) <= 0.0:
        return t_max
    if ev(0.0) >= 0.0:
        return 0.0
    roots = np.roots(descending)
    real = roots[np.abs(roots.imag) < 1e-9].real
    inside = real[(real >= -1e-12) & (real <= t_max * (1 + 1e-12))]
    if inside.size:
        return float(np.clip(inside.min(), 0.0, t_max))
    lo, hi = 0.0, t_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ev(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _step_or_error(search, coeffs: np.ndarray, t_max: float) -> str:
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return float(search(coeffs, t_max)).hex()
    except np.linalg.LinAlgError:  # -p[1:] / p[0] overflowed for a subnormal p[0]
        return "LinAlgError"


def _same_step(coeffs, t_max: float) -> float:
    """The line search's step: the old routine's bits where that routine returns, and
    where it raised, a step in [0, t_max] across which the polynomial changes sign."""
    coeffs = np.array(coeffs, dtype=float)
    with np.errstate(**_EIGVALS_ERRSTATE):  # as a solve calls it
        step = _line_search(len(coeffs) - 1)(coeffs, t_max)
    old = _step_or_error(_np_roots_line_search, coeffs, t_max)
    if old == "LinAlgError":
        assert 0.0 <= step <= t_max
        assert _brackets_sign_change(coeffs, step, t_max)
    else:
        assert step.hex() == old
    return step


def _brackets_sign_change(coeffs: np.ndarray, t: float, t_max: float) -> bool:
    """p < 0 just below t and p >= 0 just above it: the neighbouring floats, or the
    bisection's final bracket width t_max / 2**200 where that is wider."""
    leading_first = coeffs[::-1].tolist()

    def ev(t: float) -> float:
        y = 0.0
        for c in leading_first:
            y = y * t + c
        return y

    width = t_max * 2.0**-199
    below = max(min(t - width, math.nextafter(t, -math.inf)), 0.0)
    above = min(max(t + width, math.nextafter(t, math.inf)), t_max)
    return ev(below) < 0.0 <= ev(above)


def _eigen_window(coeffs, t_max: float) -> list[float]:
    """Real np.roots roots in the window the line search accepts."""
    roots = np.roots(np.array(coeffs, dtype=float)[::-1])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return sorted(real[(real >= -1e-12) & (real <= t_max * (1 + 1e-12))].tolist())


def _hexes(*values: str) -> list[float]:
    return [float.fromhex(v) for v in values]


@st.composite
def nondecreasing_with_root(draw):
    """c0 + c1 t + ... with c_p >= 0 for p >= 1 and a sign change inside (0, t_max),
    padded with up to two zero leading coefficients."""
    degree = draw(st.integers(1, 3))
    t_max = draw(st.floats(1e-3, 10.0))
    root = t_max * draw(st.floats(1e-3, 0.999))
    higher = draw(st.lists(st.floats(0.0, 1e3), min_size=degree - 1, max_size=degree - 1))
    higher.append(draw(st.floats(1e-3, 1e3)))
    c0 = -sum(c * root ** (p + 1) for p, c in enumerate(higher))
    return [c0, *higher] + [0.0] * draw(st.integers(0, 2)), t_max


@given(case=nondecreasing_with_root())
@settings(max_examples=300, deadline=None)
def test_line_search_matches_np_roots_on_nondecreasing(case):
    coeffs, t_max = case
    t = _same_step(coeffs, t_max)
    assert 0.0 < t < t_max


@given(
    scale=st.floats(1e-3, 1e3),
    root=st.floats(1e-3, 0.999),
    re=st.floats(-2.0, 2.0),
    im=st.floats(1e-3, 3.0),
    t_max=st.floats(1e-3, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_line_search_matches_np_roots_on_complex_pairs(scale, root, re, im, t_max):
    roots = [root * t_max, re + 1j * im, re - 1j * im]
    coeffs = scale * np.polynomial.polynomial.polyfromroots(roots).real
    assert np.iscomplexobj(np.roots(coeffs[::-1]))
    _same_step(coeffs, t_max)


@given(
    coeffs=st.lists(st.floats(-1e3, 1e3) | st.just(0.0), min_size=1, max_size=5),
    t_max=st.floats(1e-6, 10.0),
)
@settings(max_examples=300, deadline=None)
@example(coeffs=[-1.0, 2.0, 2.225073858507203e-309], t_max=1.0)  # np.roots raises
def test_line_search_matches_np_roots_on_any_coefficients(coeffs, t_max):
    _same_step(coeffs, t_max)


def test_line_search_bisects_past_a_subnormal_leading_coefficient():
    # -p[1:] / p[0] overflows to inf, so eigvals raises, as np.roots did; the
    # bisection fallback finds the root 0.5 of -1 + 2t instead.
    coeffs = [-1.0, 2.0, 2.225073858507203e-309]
    assert _step_or_error(_np_roots_line_search, np.array(coeffs), 1.0) == "LinAlgError"
    assert _same_step(coeffs, 1.0) == 0.5


@pytest.mark.parametrize(
    "coeffs",
    [[0.0, 1.0], [0.0, -1.0, 2.0], [0.0, 0.0, 3.0, 1.0], [-0.0, 2.0, 0.0, 0.0]],
)
def test_line_search_zero_constant_term_is_a_root_at_zero(coeffs):
    assert _same_step(coeffs, 1.0) == 0.0


def test_line_search_clips_an_eigenvalue_past_t_max():
    coeffs = _hexes(
        "-0x1.b078ea1811fefp+3", "0x1.dfef0bb9fa1abp+2",
        "0x1.0843b26da629bp+4", "0x1.282e86721e904p+2",
    )
    t_max = float.fromhex("0x1.52810b582a0e2p-1")
    assert _eigen_window(coeffs, t_max)[0] > t_max  # rounding put the root past t_max
    assert _same_step(coeffs, t_max) == t_max


def test_line_search_takes_an_eigenvalue_within_its_window_past_t_max():
    # the eigenvalue lies in (t_max, t_max * (1 + 1e-12)], while the float sign
    # change, where bisection would end, lies 3 ulps below t_max: a window that
    # stops at t_max returns that bisection step instead of t_max
    coeffs = _hexes(
        "-0x1.ed7c93f0de2c6p+1", "0x1.0827f63036ffdp+4",
        "0x1.a5237b6e9b317p+1", "0x1.e0302af5ba801p+2",
    )
    t_max = float.fromhex("0x1.c0d9153cc7d23p-3")
    assert t_max < _eigen_window(coeffs, t_max)[0] <= t_max * (1 + 1e-12)
    assert _brackets_sign_change(np.array(coeffs), float.fromhex("0x1.c0d9153cc7d20p-3"), t_max)
    assert _same_step(coeffs, t_max) == t_max


def test_line_search_bisects_when_no_eigenvalue_lands_inside():
    # a triple root just below t_max: its eigenvalues scatter by about 1e-5
    coeffs = _hexes(
        "-0x1.c1970e1882897p-3", "0x1.dc34ee80dc3a2p+0",
        "-0x1.504422e6cc5f7p+2", "0x1.3c99562c58038p+2",
    )
    t_max = float.fromhex("0x1.6a8986188e2e2p-2")
    assert _eigen_window(coeffs, t_max) == []
    t = _same_step(coeffs, t_max)
    assert 0.0 < t < t_max


def test_line_search_seed302_stall_unchanged():
    # The last line search of reference_minimizer on generate_random_game(seed=302,
    # n=16, m=8, d=3): a 1.9e-73 leading coefficient makes the eigenvalues
    # [6.5e67, 145, 0], so the step is the spurious 0 and the solver stops
    # unconverged.  Pinned as equal to the np.roots path, stall included.
    coeffs = _hexes(
        "-0x1.0cf1c161b8b60p-13", "0x1.db723a463d6b9p-10",
        "-0x1.a3bcc71848e16p-17", "0x1.5e4d9d497ebc3p-242",
    )
    assert _same_step(coeffs, float.fromhex("0x1.4ea0cf375d143p-2")) == 0.0


@pytest.mark.parametrize(
    "coeffs, t_max",
    [
        ([-1.0, 2.0, 2.225073858507203e-309], 1.0),  # row 0 overflows: bisection
        ([-2e300, 1.5e300, 0.5e300, 1e300], 2.0),  # finite, near the top of the range
    ],
)
def test_line_search_lapack_call_warns_nothing(coeffs, t_max):
    coeffs = np.array(coeffs)
    with warnings.catch_warnings(), np.errstate(**_EIGVALS_ERRSTATE):
        warnings.simplefilter("error")
        step = _line_search(len(coeffs) - 1)(coeffs, t_max)
    old = _step_or_error(_np_roots_line_search, coeffs, t_max)
    if old == "LinAlgError":  # np.roots raised; the routine before this one bisected
        assert step == 0.5
    else:
        assert step.hex() == old
    assert _brackets_sign_change(coeffs, step, t_max)


def test_line_search_skips_lapack_on_a_non_finite_row(monkeypatch):
    def unreachable(a, signature):
        raise AssertionError("eigenvalues of a non-finite companion matrix")

    monkeypatch.setattr(congames.minimize, "_eigvals", unreachable)
    coeffs = np.array([-1.0, 2.0, 2.225073858507203e-309])
    assert _line_search(len(coeffs) - 1)(coeffs, 1.0) == 0.5


def _no_convergence(a, signature):
    """_eigvals as LAPACK's non-convergence reaches numpy: the invalid flag.  The
    public eigvals raised LinAlgError on it and the step came from the bisection."""
    np.zeros(1) / np.zeros(1)  # sets the invalid flag, as a failed LAPACK call does
    return np.full(len(a), 0.25, dtype=complex)  # inside the window, not a root


def test_line_search_bisects_when_eigenvalues_do_not_converge(monkeypatch):
    # The solve enters the error state once around its loop; outside a solve the
    # caller enters it.
    coeffs = np.array([-1.0, 1.0, 1.0, 1.0])
    monkeypatch.setattr(congames.minimize, "_eigvals", _no_convergence)
    with warnings.catch_warnings(), np.errstate(**_EIGVALS_ERRSTATE):
        warnings.simplefilter("error")
        step = _line_search(len(coeffs) - 1)(coeffs, 1.0)
    assert step != 0.25
    assert _brackets_sign_change(coeffs, step, 1.0)


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_solve_bisects_every_line_search_when_eigenvalues_do_not_converge(monkeypatch, oracle):
    # Every line search of a solve runs under its error state: each failed call
    # raises there, none warns, and the bisected steps still certify the minimum.
    calls = []

    def no_convergence(a, signature):
        calls.append(len(a))
        return _no_convergence(a, signature)

    game = generate_random_game(seed=101, n=4, m=4, d=3)
    expected = ORACLES[oracle](game)
    monkeypatch.setattr(congames.minimize, "_eigvals", no_convergence)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ORACLES[oracle](game)
    assert calls and res.converged and res.certificate <= 1e-10
    assert math.isclose(res.value, expected.value, rel_tol=0.0, abs_tol=1e-10)


# -- weight total ----------------------------------------------------------------


@given(w=st.lists(st.floats(1e-15, 1.0), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_weight_total_is_a_left_to_right_fold(w):
    # the solve normalizes its weights by np.add.accumulate(w)[-1]
    total = np.add.accumulate(np.array(w))[-1]
    assert float(total).hex() == functools.reduce(operator.add, w).hex()


def _neumaier_sum(values, start=0):
    """sum() of floats as CPython 3.12 and later compute it: compensated (Neumaier)."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_totals_do_not_depend_on_the_pythons_sum(monkeypatch):
    # On Python 3.12+ sum() of floats is compensated; every float total of the
    # oracles and the cost bounds is a left-to-right fold, so the golden bits, the
    # bounds behind the default rates and the c(1) check hold on any Python.
    bounded = [(0.318, 0.038, 0.346, 0.198), (0.153, 0.153, 0.104, 0.156, 0.334)]
    too_costly = (0.216, 0.714, 0.234, 0.636)  # c(1) reads 1.8 when compensated
    for coefs in bounded:  # each total has other bits when compensated
        slopes = [j * c for j, c in enumerate(coefs, 1)]
        curvatures = [j * (j - 1) * c for j, c in enumerate(coefs, 1)]
        for terms in (coefs, slopes, curvatures):
            assert _neumaier_sum(terms) != functools.reduce(operator.add, terms)
    assert _neumaier_sum(too_costly) != functools.reduce(operator.add, too_costly)

    def record():
        costs = [PolynomialCost(c) for c in bounded]
        bounds = [(c.second_derivative_upper.hex(), c.envelope_upper.hex()) for c in costs]
        with pytest.raises(CostValidationError) as excinfo:
            PolynomialCost(too_costly)
        worst = min_max_cost(generate_random_game(seed=202, n=12, m=12, d=6, degree=2, symmetric=True))
        return bounds, str(excinfo.value), worst.value.hex(), worst.certificate.hex()

    plain = record()
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(congames.minimize, "sum", _neumaier_sum, raising=False)
    monkeypatch.setattr(congames.costs, "sum", _neumaier_sum, raising=False)
    assert record() == plain
    for name in GAMES:
        for oracle in ORACLES:
            assert _record(name, oracle) == golden[name][oracle], (name, oracle)
