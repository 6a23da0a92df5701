import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congames import (
    BulletinConfig,
    ConfigurationError,
    CongestionGame,
    DivergenceDomainError,
    EntropyGeometry,
    EuclideanGeometry,
    PolynomialCost,
    generate_random_game,
    make_geometry,
    reference_minimizer,
    run_bulletin,
)
from congames.bregman import project_simplex_rows

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
    for _ in range(200):
        p = rng.normal(size=5)
        z = project_simplex_rows(p[None], 1.0)[0]
        assert math.isclose(z.sum(), 1.0, abs_tol=1e-12)
        assert np.all(z >= 0.0)
        # KKT: active coordinates share one multiplier, inactive have z = 0
        tau = (p - z)[z > 1e-12]
        if tau.size:
            assert np.ptp(tau) <= 1e-10
            assert np.all(p[z <= 1e-12] <= tau.max() + 1e-10)


def _project_simplex_rows_inf(P: np.ndarray, mass) -> np.ndarray:
    """project_simplex_rows as it was with -inf padding, kept as the reference."""
    U = -np.sort(-P, axis=1)
    idx = np.arange(1, P.shape[1] + 1)
    with np.errstate(invalid="ignore"):  # -inf padding yields NaN rows, never selected
        css = np.cumsum(U, axis=1) - mass
        cond = U - css / idx > 0
    rho = P.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(P.shape[0]), rho] / (rho + 1)
    return np.maximum(P - tau[:, None], 0.0)


@st.composite
def padded_projections(draw):
    """Padded (n, d) step inputs as mirror_step builds them: entries with ties,
    padding anywhere but at least one entry per row, and floored rows whose
    free mass mass - size * floor stays positive."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 8))

    def grid(entry):
        row = st.lists(entry, min_size=d, max_size=d)
        return np.array(draw(st.lists(row, min_size=n, max_size=n)))

    X = grid(st.one_of(st.sampled_from([0.0, 0.125, -0.5, 1.0]), st.floats(-10.0, 10.0)))
    mask = grid(st.booleans())
    mask[np.arange(n), draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))] = True
    mass = draw(st.sampled_from([1.0, 0.25, 1.0 / 3.0]))
    floor = draw(st.sampled_from([0.0, 0.5, 0.99])) * mass / d
    free = (mass - floor * mask.sum(axis=1))[:, None]
    return X, mask, floor, draw(st.sampled_from([mass, free]))


@given(case=padded_projections())
@settings(max_examples=300, deadline=None)
def test_project_simplex_finite_padding_matches_inf_padding(case):
    X, mask, floor, mass = case
    got = project_simplex_rows(X + np.where(mask, 0.0, -1e300) - floor, mass)
    want = _project_simplex_rows_inf(X + np.where(mask, 0.0, -np.inf) - floor, mass)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[~mask] == 0.0)


def _project_simplex_rows_cumsum(P: np.ndarray, mass) -> np.ndarray:
    """project_simplex_rows as it was before the direct ufunc calls, kept as the
    reference."""
    U = np.sort(P, axis=1)[:, ::-1]
    idx = np.arange(P.shape[1])
    css = np.cumsum(U, axis=1) - mass
    rho = ((U - css / (idx + 1) > 0) * idx).max(axis=1)  # the last index that holds
    tau = css[np.arange(P.shape[0]), rho] / (rho + 1)
    return np.maximum(P - tau[:, None], 0.0)


@given(case=padded_projections())
@settings(max_examples=300, deadline=None)
def test_project_simplex_matches_the_cumsum_form_bit_for_bit(case):
    X, mask, floor, mass = case
    P = X + np.where(mask, 0.0, -1e300) - floor
    assert project_simplex_rows(P, mass).tobytes() == _project_simplex_rows_cumsum(P, mass).tobytes()


def test_project_simplex_matches_the_cumsum_form_on_random_padded_rows():
    # 35,000 padded cases, n 1-64 and d 1-17, scalar and per-row column masses;
    # quarter steps tie, and a 1e20 entry leaves no index where U > css / counts
    rng = np.random.default_rng(35)
    for n, d, kind, column in rng.integers((1, 1, 0, 0), (65, 18, 10, 2), size=(35_000, 4)).tolist():
        P = rng.normal(size=(n, d))
        if kind == 0:
            P = np.round(4.0 * P) / 4.0
        P[rng.random((n, d)) < 0.3] = -1e300
        P[np.arange(n), rng.integers(0, d, size=n)] = 1e20 if kind == 1 else 0.5  # one entry per row
        mass = rng.uniform(0.05, 2.0, size=(n, 1)) if column else float(rng.uniform(0.05, 2.0))
        out = np.empty_like(P)
        assert project_simplex_rows(P, mass, out) is out
        assert out.tobytes() == _project_simplex_rows_cumsum(P, mass).tobytes()


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
        x = sample_point(fs, rng)
        g = rng.uniform(0.0, 2.0, size=5)
        eta = rng.uniform(0.01, 0.8)
        z = step(ENTROPY, fs, x, g, eta)
        w = x * np.exp(-eta * g)
        assert np.allclose(z, w * (fs.mass / w.sum()), atol=1e-12)


def test_entropy_floored_step_respects_floor_and_mass():
    rng = np.random.default_rng(8)
    fs = Simplex(size=4, mass=0.25, floor=0.03)
    for _ in range(200):
        x = sample_point(fs, rng)
        g = rng.uniform(-3.0, 3.0, size=4)
        z = step(ENTROPY, fs, x, g, 0.9)
        assert np.all(z >= fs.floor - 1e-12)
        assert math.isclose(z.sum(), fs.mass, abs_tol=1e-12)


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


# -- the steps against their references ------------------------------------------


def _euclidean_step_reference(mask, etas, mass, floor=0.0):
    """EuclideanGeometry.mirror_step as it was before its per-run scratch, kept as
    the reference: fresh temporaries on every call and the cumsum projection; at
    floor 0 the rows are rescaled to the mass, as the bulletin loop once did."""
    etas = np.reshape(etas, (-1, 1))
    shift = np.where(mask, 0.0, -1e300) - floor
    if not floor:

        def step(X, G):
            Z = _project_simplex_rows_cumsum(X - etas * G + shift, mass)
            return Z * (mass / Z.sum(axis=1, keepdims=True))

        return step
    free = (mass - floor * mask.sum(axis=1))[:, None]
    lift = np.where(mask, floor, 0.0)
    return lambda X, G: _project_simplex_rows_cumsum(X - etas * G + shift, free) + lift


def _entropy_step_reference(mask, etas, mass, floor=0.0):
    """EntropyGeometry.mirror_step as it was before its per-run scratch, kept as the
    reference: fresh temporaries on every call and the row minimum by one reduction."""
    rates = np.reshape(etas, (-1, 1))

    def step(X, G):
        W = rates * G
        W = np.exp(np.minimum.reduce(W, axis=1, keepdims=True) - W) * X
        if floor:
            return _pin_to_floor_reference(W, mask, mass, floor)
        return W * (mass / np.add.reduce(W, axis=1, keepdims=True))

    return step


def _pin_to_floor_reference(W, mask, mass, floor):
    """The floored multiplicative update's active-set loop as it was when every
    round, the first rescale included, built its result on fresh temporaries."""
    pinned = np.zeros(W.shape, dtype=bool)
    for _ in range(W.shape[1] + 1):
        free = mass - floor * pinned.sum(axis=1, keepdims=True)
        unpinned = np.where(pinned, 0.0, W)
        Z = np.where(pinned, floor, W * (free / unpinned.sum(axis=1, keepdims=True)))
        newly = mask & ~pinned & (Z < floor)
        if not newly.any():
            return Z
        pinned |= newly
    raise AssertionError("active-set loop failed to settle")


REFERENCE_STEPS = {"euclidean": _euclidean_step_reference, "negative-entropy": _entropy_step_reference}


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


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("floor_frac", [0.0, 0.5])
def test_steps_match_their_references_bit_for_bit(kind, floor_frac):
    # widths 1 to 10: numpy's row sum adds left to right up to d = 7 and
    # pairwise from d = 8 (wider rows at d = 17 and 33); one step object
    # serves several calls, into a fresh array, into out and into X itself
    geo = make_geometry(kind)
    rng = np.random.default_rng(33)
    for d in [*range(1, 11), 17, 33]:
        for per_player in (False, True):
            for _ in range(12):
                mask, etas, mass, floor = _step_layout(rng, d, floor_frac, per_player)
                step = geo.mirror_step(mask, etas, mass, floor)
                reference = REFERENCE_STEPS[kind](mask, etas, mass, floor)
                for ties, into in [(False, "fresh"), (True, "out"), (True, "X"), (False, "X")]:
                    X, G = _step_inputs(rng, mask, mass, floor, ties)
                    want = reference(X, G).tobytes()
                    if into == "fresh":
                        got = step(X, G)
                    elif into == "out":
                        got = step(X, G, out=np.full(X.shape, np.nan))
                    else:
                        got = step(X, G, out=X)
                    assert got.tobytes() == want, (d, per_player, ties, into)


def test_floor_that_binds_in_two_rounds_matches_the_reference():
    # rescaled to the mass, player 0's update is (0.02, 0.105, 0.875): the
    # rescale pins the first entry, and redistributing 0.9 over the other two
    # takes the second to 0.105 * 0.9 / 0.98 < 0.1, so a second round pins it;
    # player 1's row, with padding, leaves the floor unbound
    mask = np.array([[True, True, True, False], [True, False, True, False]])
    mass, floor, etas = 1.0, 0.1, np.array([1.0, 0.5])
    X = np.where(mask, np.array([[1 / 3], [0.5]]), 0.0)
    G = np.zeros(mask.shape)
    G[0, :3] = -np.log([0.02, 0.105, 0.875])
    G[1, [0, 2]] = [0.3, 0.1]
    step = EntropyGeometry().mirror_step(mask, etas, mass, floor)
    want = _entropy_step_reference(mask, etas, mass, floor)(X, G)
    assert want[0, 0] == want[0, 1] == floor and want[0, 2] > floor and want[0, 3] == 0.0
    rescaled = _entropy_step_reference(mask, etas, mass)(X, G)
    assert rescaled[0, 0] < floor <= rescaled[0, 1] and np.all(rescaled[1, [0, 2]] > floor)
    assert step(X, G).tobytes() == want.tobytes()
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


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
def test_one_path_game_runs_bit_equal_to_the_reference_step(kind):
    # every player has one path, so each row's minimum and sum is its one
    # entry; each recorded step is the reference step of the one before
    edges = (PolynomialCost((0.3,)), PolynomialCost((0.2, 0.5)), PolynomialCost((0.1, 0.2, 0.6)))
    paths = tuple((frozenset(p),) for p in ({0}, {1, 2}, {0, 2}, {1}, {2}))
    game = CongestionGame(n=5, edges=edges, paths=paths)
    mass, mask, inc = 1.0 / game.n, game.path_mask, game.incidence
    etas = np.linspace(0.3, 1.0, game.n) / game.smoothness_params().lam
    cfg = BulletinConfig(geometry=kind, eta=etas, max_steps=20, record_profiles=True)
    rep = run_bulletin(game, cfg, reference=reference_minimizer(game))
    assert mask.shape == (game.n, 1) and rep.steps == 20
    reference = REFERENCE_STEPS[kind](mask, etas, mass)
    for before, after in zip(rep.profiles, rep.profiles[1:]):
        G = game.padded(np.dot(inc, game.edge_costs(np.dot(before, inc))))
        want = reference(game.padded(before), G)
        assert after.tobytes() == want[mask].tobytes()
