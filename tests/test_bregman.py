import math

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
    FeasibleSet,
    PolynomialCost,
    make_geometry,
)
from congames.bregman import project_simplex_rows

EUCLID = EuclideanGeometry()
ENTROPY = EntropyGeometry()


def sample_point(fs: FeasibleSet, rng: np.random.Generator) -> np.ndarray:
    free = fs.mass - fs.size * fs.floor
    return fs.floor + rng.dirichlet(np.ones(fs.size)) * free


def step_objective(geo, fs, x, g, eta, z) -> float:
    return eta * float(g @ z) + geo.divergence(z, x)


def vertices(fs: FeasibleSet) -> np.ndarray:
    """Extreme points of fs: all free mass on one coordinate, floor elsewhere."""
    return fs.floor + (fs.mass - fs.size * fs.floor) * np.eye(fs.size)


def project(geo, fs: FeasibleSet, p: np.ndarray) -> np.ndarray:
    """The Bregman projection of p: the mirror step from p with a zero gradient."""
    return geo.mirror_step(fs, p, np.zeros(fs.size), 1.0)


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


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_divergence_nonnegative_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    fs = FeasibleSet(size=4, mass=0.5)
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
    fs = FeasibleSet(size=5, mass=0.25)
    for _ in range(500):
        u, v = sample_point(fs, rng), sample_point(fs, rng)
        nsq = float((u - v) @ (u - v))
        for geo in (EUCLID, ENTROPY):
            assert nsq <= 2.0 * geo.divergence(u, v) + 1e-9


def test_floored_two_sided_bound():
    # With floor Lambda/n the KL divergence is squeezed by the squared distance.
    rng = np.random.default_rng(1)
    fs = FeasibleSet(size=4, mass=0.25, floor=0.02)
    gamma = ENTROPY.gamma(fs)
    assert gamma == fs.floor
    for _ in range(500):
        u, v = sample_point(fs, rng), sample_point(fs, rng)
        nsq = float((u - v) @ (u - v))
        div = ENTROPY.divergence(u, v)
        assert gamma * div <= nsq + 1e-9
        assert nsq <= 2.0 * div + 1e-9
    assert EUCLID.gamma(fs) == 2.0


def test_entropy_gamma_needs_floor():
    with pytest.raises(ConfigurationError):
        ENTROPY.gamma(FeasibleSet(size=3, mass=1.0))


# -- projections -------------------------------------------------------------------


def test_project_idempotent_on_feasible():
    rng = np.random.default_rng(2)
    for floor in (0.0, 0.05):
        fs = FeasibleSet(size=3, mass=1.0, floor=floor)
        p = sample_point(fs, rng)
        for geo in (EUCLID, ENTROPY):
            assert np.allclose(project(geo, fs, p), p, atol=1e-12)


def test_euclidean_project_outside_point():
    fs = FeasibleSet(size=2, mass=1.0)
    assert np.allclose(project(EUCLID, fs, np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)


def test_euclidean_project_floored():
    fs = FeasibleSet(size=2, mass=1.0, floor=0.1)
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
    """Padded (n, d) step inputs as padded_step builds them: entries with ties,
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


# -- mirror steps -------------------------------------------------------------------


def test_mirror_step_zero_gradient_fixed_point():
    rng = np.random.default_rng(4)
    for floor in (0.0, 0.03):
        fs = FeasibleSet(size=3, mass=0.5, floor=floor)
        x = sample_point(fs, rng)
        g = np.zeros(3)
        for geo in (EUCLID, ENTROPY):
            assert np.allclose(geo.mirror_step(fs, x, g, 0.7), x, atol=1e-12)


def test_euclidean_step_known_value():
    fs = FeasibleSet(size=2, mass=1.0)
    z = EUCLID.mirror_step(fs, np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.5)
    assert np.allclose(z, [0.25, 0.75], atol=1e-12)


def test_entropy_step_known_value():
    fs = FeasibleSet(size=2, mass=1.0)
    z = ENTROPY.mirror_step(fs, np.array([0.5, 0.5]), np.array([math.log(2.0), 0.0]), 1.0)
    assert np.allclose(z, [1 / 3, 2 / 3], atol=1e-12)


@pytest.mark.parametrize("kind", ["euclidean", "negative-entropy"])
@pytest.mark.parametrize("floor", [0.0, 0.04])
def test_mirror_step_beats_dense_sampling(kind, floor):
    geo = make_geometry(kind)
    rng = np.random.default_rng(5)
    fs = FeasibleSet(size=4, mass=0.5, floor=floor)
    for trial in range(5):
        x = sample_point(fs, rng)
        g = rng.uniform(-1.0, 1.0, size=4)
        eta = rng.uniform(0.05, 1.0)
        z = geo.mirror_step(fs, x, g, eta)
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
    fs = FeasibleSet(size=4, mass=0.5, floor=floor)
    for trial in range(10):
        x = sample_point(fs, rng)
        g = rng.uniform(-1.0, 1.0, size=4)
        eta = rng.uniform(0.05, 1.0)
        z = geo.mirror_step(fs, x, g, eta)
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
    fs = FeasibleSet(size=5, mass=0.2)
    for _ in range(50):
        x = sample_point(fs, rng)
        g = rng.uniform(0.0, 2.0, size=5)
        eta = rng.uniform(0.01, 0.8)
        z = ENTROPY.mirror_step(fs, x, g, eta)
        w = x * np.exp(-eta * g)
        assert np.allclose(z, w * (fs.mass / w.sum()), atol=1e-12)


def test_entropy_floored_step_respects_floor_and_mass():
    rng = np.random.default_rng(8)
    fs = FeasibleSet(size=4, mass=0.25, floor=0.03)
    for _ in range(200):
        x = sample_point(fs, rng)
        g = rng.uniform(-3.0, 3.0, size=4)
        z = ENTROPY.mirror_step(fs, x, g, 0.9)
        assert np.all(z >= fs.floor - 1e-12)
        assert math.isclose(z.sum(), fs.mass, abs_tol=1e-12)


# -- configuration errors -----------------------------------------------------------


def test_empty_interior_set_rejected():
    with pytest.raises(ConfigurationError):
        FeasibleSet(size=4, mass=0.2, floor=0.05)  # 4 * 0.05 = mass, empty interior
    with pytest.raises(ConfigurationError):
        FeasibleSet(size=4, mass=0.1, floor=0.05)


def test_bad_step_arguments():
    fs = FeasibleSet(size=2, mass=1.0)
    with pytest.raises(ConfigurationError):
        EUCLID.mirror_step(fs, np.array([0.5, 0.5]), np.array([1.0, 0.0]), -1.0)
    with pytest.raises(ConfigurationError):
        EUCLID.mirror_step(fs, np.array([0.5, 0.5, 0.0]), np.array([1.0, 0.0]), 0.1)
    for kind in ("hyperbolic", "entropy"):
        with pytest.raises(ConfigurationError, match="unknown geometry"):
            make_geometry(kind)


def test_entropy_step_needs_positive_iterate():
    fs = FeasibleSet(size=2, mass=1.0)
    with pytest.raises(DivergenceDomainError):
        ENTROPY.mirror_step(fs, np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.1)


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

    Z = geo.padded_step(game.path_mask, etas, mass, floor)(game.padded(x), game.padded(g))

    for i in range(game.n):
        sl = game.player_slice(i)
        fs = FeasibleSet(size=game.sizes[i], mass=mass, floor=floor)
        row = Z[i, : game.sizes[i]]
        assert np.allclose(row, geo.mirror_step(fs, x[sl], g[sl], float(etas[i])), rtol=0.0, atol=1e-15)
        assert np.all(row >= floor)
        assert math.isclose(row.sum(), mass, rel_tol=0.0, abs_tol=1e-15)
    assert Z[0, 1] == floor and Z[2, 1] == floor
    assert np.all(np.delete(Z[0], 1) > floor) and Z[2, 0] > floor and Z[2, 2] > floor
    assert np.all(Z[~game.path_mask] == 0.0)
