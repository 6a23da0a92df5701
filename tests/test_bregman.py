import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import (
    ConfigurationError,
    CongestionGame,
    DivergenceDomainError,
    EntropyGeometry,
    EuclideanGeometry,
    PolynomialCost,
    generate_random_game,
    make_geometry,
)
from congames.bregman import project_simplex_rows

import spec

EUCLID = EuclideanGeometry()
ENTROPY = EntropyGeometry()


class Simplex(NamedTuple):
    """One player's strategy set {z >= floor, sum z = mass} over `size` paths."""

    size: int
    mass: float
    floor: float = 0.0


def step(geo, fs: Simplex, x, g, eta: float) -> np.ndarray:
    """The mirror step of one player who owns every entry: the one-row padded layout."""
    row_step = geo.mirror_step(np.ones((1, fs.size), dtype=bool), eta, fs.mass, fs.floor)
    return row_step(np.asarray(x, dtype=float)[None], np.asarray(g, dtype=float)[None])[0]


def sample_point(fs: Simplex, rng: np.random.Generator) -> np.ndarray:
    free = fs.mass - fs.size * fs.floor
    return fs.floor + rng.dirichlet(np.ones(fs.size)) * free


def step_objective(geo, fs, x, g, eta, z) -> float:
    return eta * float(g @ z) + geo.divergence(z, x)


def vertices(fs: Simplex) -> np.ndarray:
    """Extreme points of fs: all free mass on one coordinate, floor elsewhere."""
    return fs.floor + (fs.mass - fs.size * fs.floor) * np.eye(fs.size)


def project(geo, fs: Simplex, p: np.ndarray) -> np.ndarray:
    """The Bregman projection of p: the mirror step from p with a zero gradient."""
    return step(geo, fs, p, np.zeros(fs.size), 1.0)


# -- divergences -------------------------------------------------------------------


def test_euclidean_divergence_basis_vectors():
    assert EUCLID.divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_entropy_divergence_identity():
    u = np.array([0.3, 0.7])
    assert ENTROPY.divergence(u, u) == 0.0


def test_entropy_divergence_direct_value():
    # (1/4) ln 2 + (1/4) ln(2/3) = (1/4) ln(4/3)
    u = np.array([0.25, 0.25])
    v = np.array([0.125, 0.375])
    expected = 0.25 * math.log(2.0) + 0.25 * math.log(2.0 / 3.0)
    assert math.isclose(expected, 0.25 * math.log(4.0 / 3.0), rel_tol=1e-15)
    assert math.isclose(ENTROPY.divergence(u, v), expected, rel_tol=1e-14)


def test_entropy_domain_error():
    with pytest.raises(DivergenceDomainError):
        ENTROPY.divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("u, v", [([-0.1, 1.1], [0.5, 0.5]), ([0.5, 0.5], [-0.1, 1.1])])
def test_entropy_divergence_rejects_negative_inputs(u, v):
    with pytest.raises(DivergenceDomainError, match="entropy divergence needs nonnegative inputs"):
        ENTROPY.divergence(np.array(u), np.array(v))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_divergence_nonnegative_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    fs = Simplex(size=4, mass=0.5)
    u, v = sample_point(fs, rng), sample_point(fs, rng)
    for geo in (EUCLID, ENTROPY):
        assert geo.divergence(u, v) >= -1e-12
        assert geo.divergence(u, u) <= 1e-15
        # positivity asserted only away from the diagonal, where it clears
        # floating-point noise by orders of magnitude
        if not np.allclose(u, v, atol=1e-6):
            assert geo.divergence(u, v) > 1e-14


def test_assumption_one_norm_bound():
    rng = np.random.default_rng(0)
    fs = Simplex(size=5, mass=0.25)
    for _ in range(500):
        u, v = sample_point(fs, rng), sample_point(fs, rng)
        nsq = float((u - v) @ (u - v))
        for geo in (EUCLID, ENTROPY):
            assert nsq <= 2.0 * geo.divergence(u, v) + 1e-9


def test_floored_two_sided_bound():
    # With floor Lambda/n the KL divergence is squeezed by the squared distance.
    rng = np.random.default_rng(1)
    fs = Simplex(size=4, mass=0.25, floor=0.02)
    gamma = ENTROPY.gamma(fs.floor)
    assert gamma == fs.floor
    for _ in range(500):
        u, v = sample_point(fs, rng), sample_point(fs, rng)
        nsq = float((u - v) @ (u - v))
        div = ENTROPY.divergence(u, v)
        assert gamma * div <= nsq + 1e-9
        assert nsq <= 2.0 * div + 1e-9
    assert EUCLID.gamma(fs.floor) == 2.0


def test_entropy_gamma_needs_floor():
    for floor in (0.0, -0.1):
        with pytest.raises(ConfigurationError):
            ENTROPY.gamma(floor)


# -- projections -------------------------------------------------------------------


def test_project_idempotent_on_feasible():
    rng = np.random.default_rng(2)
    for floor in (0.0, 0.05):
        fs = Simplex(size=3, mass=1.0, floor=floor)
        p = sample_point(fs, rng)
        for geo in (EUCLID, ENTROPY):
            assert np.allclose(project(geo, fs, p), p, atol=1e-12)


def test_euclidean_project_outside_point():
    fs = Simplex(size=2, mass=1.0)
    assert np.allclose(project(EUCLID, fs, np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)


def test_euclidean_project_floored():
    fs = Simplex(size=2, mass=1.0, floor=0.1)
    z = project(EUCLID, fs, np.array([1.0, 0.0]))
    assert np.allclose(z, [0.9, 0.1], atol=1e-12)


def test_project_simplex_against_sort_oracle():
    rng = np.random.default_rng(3)
    for p in rng.normal(size=(200, 5)):
        z = project_simplex_rows(p[None], 1.0)[0]
        spec.check_projection(p, z, 1.0, 0.0, 4 * p.size + 16, sum(map(abs, p)) + 1.0)


# -- mirror steps -------------------------------------------------------------------


def test_mirror_step_zero_gradient_fixed_point():
    rng = np.random.default_rng(4)
    for floor in (0.0, 0.03):
        fs = Simplex(size=3, mass=0.5, floor=floor)
        x = sample_point(fs, rng)
        g = np.zeros(3)
        for geo in (EUCLID, ENTROPY):
            assert np.allclose(step(geo, fs, x, g, 0.7), x, atol=1e-12)


def test_euclidean_step_known_value():
    fs = Simplex(size=2, mass=1.0)
    z = step(EUCLID, fs, np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.5)
    assert np.allclose(z, [0.25, 0.75], atol=1e-12)


def test_entropy_step_known_value():
    fs = Simplex(size=2, mass=1.0)
    z = step(ENTROPY, fs, np.array([0.5, 0.5]), np.array([math.log(2.0), 0.0]), 1.0)
    assert np.allclose(z, [1 / 3, 2 / 3], atol=1e-12)


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("floor", [0.0, 0.04])
def test_mirror_step_beats_dense_sampling(kind, floor):
    geo = make_geometry(kind)
    rng = np.random.default_rng(5)
    fs = Simplex(size=4, mass=0.5, floor=floor)
    for trial in range(5):
        x = sample_point(fs, rng)
        g = rng.uniform(-1.0, 1.0, size=4)
        eta = rng.uniform(0.05, 1.0)
        z = step(geo, fs, x, g, eta)
        assert z.shape == (fs.size,)
        assert np.all(z >= fs.floor - 1e-9) and abs(z.sum() - fs.mass) <= 1e-9
        best = step_objective(geo, fs, x, g, eta, z)
        for w in vertices(fs):
            if kind == "euclidean" or floor > 0.0:
                assert best <= step_objective(geo, fs, x, g, eta, w) + 1e-9
        for _ in range(2000):
            w = sample_point(fs, rng)
            assert best <= step_objective(geo, fs, x, g, eta, w) + 1e-9


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("floor", [0.0, 0.04])
def test_mirror_step_variational_inequality(kind, floor):
    # <eta*g + grad R(z) - grad R(x), w - z> >= 0 for all feasible w
    geo = make_geometry(kind)
    rng = np.random.default_rng(6)
    fs = Simplex(size=4, mass=0.5, floor=floor)
    for trial in range(10):
        x = sample_point(fs, rng)
        g = rng.uniform(-1.0, 1.0, size=4)
        eta = rng.uniform(0.05, 1.0)
        z = step(geo, fs, x, g, eta)
        if kind == "negative-entropy":
            z = np.maximum(z, 1e-300)
        # grad R(u) is u (Euclidean) or log u (negative entropy)
        if kind == "negative-entropy":
            residual = eta * g + np.log(z) - np.log(x)
        else:
            residual = eta * g + z - x
        for _ in range(500):
            w = sample_point(fs, rng)
            assert residual @ (w - z) >= -1e-9
        for w in vertices(fs):
            if kind == "euclidean" or floor > 0.0:
                assert residual @ (w - z) >= -1e-9


def test_entropy_step_equals_multiplicative_update():
    rng = np.random.default_rng(7)
    fs = Simplex(size=5, mass=0.2)
    for _ in range(50):
        x, g, eta = sample_point(fs, rng), rng.uniform(0.0, 2.0, size=5), rng.uniform(0.01, 0.8)
        spec.check_step(ENTROPY.kind, x, g, eta, step(ENTROPY, fs, x, g, eta), fs.mass, fs.floor)


def test_entropy_floored_step_respects_floor_and_mass():
    rng = np.random.default_rng(8)
    fs = Simplex(size=4, mass=0.25, floor=0.03)
    for _ in range(200):
        x, g = sample_point(fs, rng), rng.uniform(-3.0, 3.0, size=4)
        spec.check_step(ENTROPY.kind, x, g, 0.9, step(ENTROPY, fs, x, g, 0.9), fs.mass, fs.floor)


# -- configuration errors -----------------------------------------------------------


def test_bad_step_arguments():
    for kind in ("hyperbolic", "entropy"):
        with pytest.raises(ConfigurationError, match="unknown geometry"):
            make_geometry(kind)


# -- the padded step ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_padded_step_with_binding_floor_matches_one_row_steps(kind):
    # players with 4, 2 and 3 paths; the second path of players 0 and 2 is so
    # expensive that the floor binds there, between free entries
    links = [frozenset([e]) for e in range(4)]
    game = CongestionGame(
        n=3,
        edges=tuple(PolynomialCost((0.5,)) for _ in range(4)),
        paths=(tuple(links), tuple(links[:2]), tuple(links[1:])),
    )
    mass, floor = 1.0 / game.n, 0.1 / game.n
    etas = np.array([0.5, 0.7, 0.9])
    x = game.uniform_profile()
    g = np.array([0.1, 5.0, 0.2, 0.3, 0.4, 0.1, 0.2, 4.0, 0.1])
    geo = make_geometry(kind)

    Z = geo.mirror_step(game.path_mask, etas, mass, floor)(game.padded(x), game.padded(g))

    for i in range(game.n):
        sl = game.player_slice(i)
        fs = Simplex(size=game.sizes[i], mass=mass, floor=floor)
        row = Z[i, : game.sizes[i]]
        assert np.allclose(row, step(geo, fs, x[sl], g[sl], float(etas[i])), rtol=0.0, atol=1e-15)
        assert np.all(row >= floor)
        assert math.isclose(row.sum(), mass, rel_tol=0.0, abs_tol=1e-15)
    assert Z[0, 1] == floor and Z[2, 1] == floor
    assert np.all(np.delete(Z[0], 1) > floor) and Z[2, 0] > floor and Z[2, 2] > floor
    assert np.all(Z[~game.path_mask] == 0.0)


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("floor_frac", [0.0, 0.1])
def test_step_written_into_out_matches_fresh_step(kind, floor_frac):
    # the bulletin loop writes each step into its chunk row, X itself when a
    # chunk has one row; the bandit's steps are floored
    rng = np.random.default_rng(11)
    geo = make_geometry(kind)
    for seed, n, m, d in [(1, 2, 3, 2), (2, 4, 6, 3), (3, 8, 5, 4)]:
        game = generate_random_game(seed=seed, n=n, m=m, d=d)
        mass = 1.0 / game.n
        floor = floor_frac * mass / game.d
        etas = rng.uniform(0.1, 1.0, size=game.n)
        step_fn = geo.mirror_step(game.path_mask, etas, mass, floor)
        for _ in range(5):
            x = np.concatenate(
                [floor + rng.dirichlet(np.ones(sz)) * (mass - sz * floor) for sz in game.sizes]
            )
            X, G = game.padded(x), game.padded(rng.uniform(0.0, 2.0, size=game.dim))
            want = step_fn(X, G)
            out = np.full(X.shape, np.nan)
            assert step_fn(X, G, out=out) is out
            assert out.tobytes() == want.tobytes()
            assert step_fn(X, G, out=X) is X
            assert X.tobytes() == want.tobytes()


# -- padded layouts ----------------------------------------------------------------


def _step_layout(rng, d: int, floor_frac: float, per_player: bool):
    """A padded (n, d) layout with at least one entry per row, its mass, floor and
    rates: one rate for every player (a scalar) or one per player."""
    n = int(rng.integers(1, 10))
    mask = rng.random((n, d)) < 0.7
    mask[np.arange(n), rng.integers(0, d, size=n)] = True
    mass = float(rng.choice([1.0 / n, 0.5, 1.0]))
    etas = rng.uniform(0.05, 1.0, size=n) if per_player else float(rng.uniform(0.05, 1.0))
    return mask, etas, mass, floor_frac * mass / d


def _step_inputs(rng, mask, mass: float, floor: float, ties: bool):
    """A profile on the layout and costs, 0 on the padding as the run loops keep
    them; with ties, even splits and costs on a coarse grid."""
    X = np.zeros(mask.shape)
    for row, entries in zip(X, mask):
        size = int(entries.sum())
        share = np.full(size, 1.0 / size) if ties else rng.dirichlet(np.ones(size))
        row[entries] = floor + share * (mass - size * floor)
    if ties:
        G = rng.choice([0.0, 0.25, 0.5, 1.0], size=mask.shape)
    else:
        G = rng.uniform(0.0, 3.0, size=mask.shape)
    return X, np.where(mask, G, 0.0)


def test_floor_that_binds_in_two_rounds_matches_the_reference():
    # the reference is the spec's optimality conditions.  Rescaled to the mass,
    # player 0's update is (0.02, 0.105, 0.875): the rescale pins the first
    # entry, and redistributing 0.9 over the other two takes the second to
    # 0.105 * 0.9 / 0.98 < 0.1, so a second round pins it; player 1's row, with
    # padding, leaves the floor unbound
    mask = np.array([[True, True, True, False], [True, False, True, False]])
    mass, floor, etas = 1.0, 0.1, np.array([1.0, 0.5])
    X = np.where(mask, np.array([[1 / 3], [0.5]]), 0.0)
    G = np.zeros(mask.shape)
    G[0, :3] = -np.log([0.02, 0.105, 0.875])
    G[1, [0, 2]] = [0.3, 0.1]
    rescaled = ENTROPY.mirror_step(mask, etas, mass)(X, G)
    assert rescaled[0, 0] < floor <= rescaled[0, 1] and np.all(rescaled[1, [0, 2]] > floor)
    step = ENTROPY.mirror_step(mask, etas, mass, floor)
    want = step(X, G)
    assert want[0, 0] == want[0, 1] == floor and want[0, 2] > floor and want[0, 3] == 0.0
    for x, g, eta, z, row in zip(X, G, etas, want, mask):
        spec.check_step(ENTROPY.kind, x[row].tolist(), g[row].tolist(), eta, z[row].tolist(), mass, floor)
    out = np.full(X.shape, np.nan)
    assert step(X, G, out=out) is out and out.tobytes() == want.tobytes()
    assert step(X, G, out=X) is X and X.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("floor_frac", [0.0, 0.5])
def test_step_without_out_returns_a_fresh_array(kind, floor_frac):
    # run_bandit calls the step without out: its scratch must never come back
    rng = np.random.default_rng(34)
    mask, etas, mass, floor = _step_layout(rng, 4, floor_frac, True)
    step = make_geometry(kind).mirror_step(mask, etas, mass, floor)
    X1, G1 = _step_inputs(rng, mask, mass, floor, False)
    X2, G2 = _step_inputs(rng, mask, mass, floor, False)
    first = step(X1, G1)
    kept = first.copy()
    second = step(X2, G2)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() != kept.tobytes()
    assert not np.shares_memory(first, X1) and not np.shares_memory(second, X2)
