"""Episode-based bandit dynamics for atomic congestion games.

Players only ever see the realized cost of the single path they played.  Time
is cut into episodes; within episode tau every player freezes her mixed
strategy, samples a path each step, and averages the observed costs per path
into a gradient estimate.  Strategies live on a floored simplex (every path
keeps probability at least Lambda) so every estimate rests on enough visits.
At the episode boundary each player applies one mirror step with her own
learning rate, using the estimate in place of the exact gradient.

Sampling contract: player i draws from stream i of SeedSequence(seed).spawn(n)
(PCG64); each pick is the inverse CDF of her frozen strategy at the uniform
(GuideTable).  The kernel counts integer events, one per (path, edge slot,
load on that edge) that a pick makes, into one histogram per episode; visits
and cost sums are functions of that histogram and the c_e(k/n) table, so no
tile length changes a bit of them.  With two CPUs an episode may be counted in
two step ranges at once, the second on a thread of its own from copies of the
streams advanced past the first (PCG64 jumps ahead); each range has its own
histogram and its own rows of the choice log, so the split changes no bit
either, and the caller's streams end where drawing every uniform leaves them.

The mixed equilibrium gap reads E[c_s(X)] off each edge's load law against the
kernel's c_e(k/n) table.  The law is exact (`expected_path_costs`) or counted
by seeded Monte Carlo: an integer table of how many sampled joint outcomes put
k players on edge e, so, as in the kernel, no tile length changes a bit of it.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .bregman import ConfigurationError, make_geometry, resolve_learning_rates
from .game import CongestionGame, _is_integer
from .minimize import CertifiedMinimum


def _choice_probs(game: CongestionGame, flat: np.ndarray) -> list[np.ndarray]:
    """Each player's choice distribution n * x_i; raises unless it sums to 1."""
    probs = game.n * game.check_vector(flat)
    starts = game.offsets[:-1]
    with np.errstate(invalid="ignore"):  # inf + -inf is nan, reported below
        totals = np.add.reduceat(probs, starts)
    bad = ~(np.abs(totals - 1.0) <= 1e-9)  # a non-finite entry makes its total nan or inf
    if bad.any() or probs.min() < -1e-12:
        i = int(np.argmax(bad | (np.minimum.reduceat(probs, starts) < -1e-12)))
        if bad[i]:
            raise ValueError(f"player {i} choice probabilities sum to {totals[i]}")
        block = probs[game.player_slice(i)]
        j = int(np.argmax(block < -1e-12))
        raise ValueError(f"player {i} path {j} has negative choice probability {block[j]}")
    bounds = game.offsets.tolist()
    q = np.maximum(probs, 0.0)
    return [b / b.sum() for b in (q[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))]


class GuideTable:
    """Inverse-CDF sampler with a guide table (Chen & Asau 1974; Devroye 1986, III.2).

    For u in [0, 1), ``picks(u)[i, t]`` is the start of row i plus
    ``min(searchsorted(cdfs[i], u[i, t], "right"), size_i - 1)``, exactly: rows
    end in +inf (the clip), and the guide entry of bucket floor(u * K), exact for
    K a power of two, is at most ``passes`` unit steps short of the answer.
    ``draws``, the number of draws per row the table serves, caps K: a larger
    table costs more to build than it saves.
    """

    def __init__(self, cdfs, draws: int) -> None:
        sizes = [len(c) for c in cdfs]
        ends = list(itertools.accumulate(sizes))
        self.cdf = np.concatenate(cdfs, dtype=float)
        log_k = min(12, (draws - 1).bit_length())
        if log_k:  # buckets no wider than the smallest probability hold one CDF step each
            probs = np.diff(self.cdf, prepend=0.0)
            probs[ends[:-1]] = self.cdf[ends[:-1]]
            log_k = min(log_k, max(0, math.ceil(-math.log2(probs[probs > 0].min(initial=1.0)))))
        k = self.k = 1 << log_k
        self.cdf[[e - 1 for e in ends]] = np.inf
        # Row i, bucket j has key i*(K+2) + j.  Each entry is keyed by the first
        # bucket j with cdf <= j/K, ceil(K * cdf) (scaling by a power of two is
        # exact; +inf goes to the spare bucket K+1).  Keys grow along the flat
        # array, so a running count at key i*(K+2) + j is the start of row i plus
        # searchsorted(row i, j/K, "right").
        bases = np.arange(len(sizes)) * (k + 2)
        first = np.minimum(np.ceil(self.cdf * k), k + 1).astype(np.intp)
        hist = np.bincount(np.repeat(bases, sizes) + first, minlength=len(sizes) * (k + 2))
        self.guide, self.rows = hist.cumsum(), bases[:, None]
        self.passes = int(hist.reshape(-1, k + 2)[:, 1 : k + 1].max())

    def picks(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat row indices for uniforms of shape (rows, draws), in out if given."""
        s = np.empty(u.shape, dtype=np.intp) if out is None else out
        np.multiply(u, self.k, out=s, casting="unsafe")  # truncates, as astype does
        s += self.rows
        s[...] = np.take(self.guide, s)
        for _ in range(self.passes):
            s += np.take(self.cdf, s) <= u
        return s


def restrict_profile(game: CongestionGame, flat: np.ndarray, lam: float) -> np.ndarray:
    """Mix toward uniform so every entry reaches the floor Lambda/n.

    x_bar_{i,s} = (1 - |S_i| * Lambda) * x_{i,s} + Lambda/n.  Unlike plain
    (1 - Lambda) mixing this preserves each player's mass exactly, attains the
    same floor, and moves the profile by at most 2 * |S_i| * Lambda / n in l1.
    """
    flat = game.check_vector(flat)
    if not 0.0 < lam < math.inf:
        raise ConfigurationError(f"Lambda must be a positive finite number, got {lam}")
    sizes = np.asarray(game.sizes)
    infeasible = sizes * lam >= 1.0
    if infeasible.any():
        i = int(np.argmax(infeasible))
        raise ConfigurationError(
            f"floor infeasible: player {i} has {sizes[i]} paths but Lambda = {lam}"
        )
    return np.repeat(1.0 - sizes * lam, sizes) * flat + lam / game.n


def episode_length(nu: float, n: int, d: int, lam_eff: float, m_path: int, tau: int) -> int:
    """Steps in episode tau: ceil(nu * n^2 * ln(n*d*max(tau,2)) / (lam_eff * m_path^2))."""
    if tau < 1:
        raise ValueError("episodes are numbered from 1")
    return math.ceil(nu * n * n * math.log(n * d * max(tau, 2)) / (lam_eff * m_path**2))


def estimate_gradient(
    visits: np.ndarray, cost_sums: np.ndarray, previous: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path average observed cost; unvisited paths fall back to the previous
    episode's entry (zero before the first).  Returns (estimate, fallback mask)."""
    visits = np.asarray(visits)
    cost_sums = np.asarray(cost_sums, dtype=float)
    fallback = visits == 0
    if previous is None:
        previous = np.zeros_like(cost_sums)
    est = np.where(fallback, previous, cost_sums / np.maximum(visits, 1))
    return est, fallback


# The choice log stores each pick's index within the player's own paths.
_LOG_DTYPE = np.int16
_LOG_PATHS = np.iinfo(_LOG_DTYPE).max + 1
# An episode of `steps` steps counts steps * n * m_path events in its int64 histogram.
_MAX_EVENTS = np.iinfo(np.int64).max


def _estimator_accuracy(game: CongestionGame) -> float:
    """epsilon = 4*b*m_path/n, the accuracy target of each episode's gradient estimate."""
    return 4.0 * game.b * game.m_path / game.n


@dataclass
class BanditConfig:
    """Episode dynamics parameters.

    epsilon, theta, delta, the gap threshold and tau0 are computed from the
    game, never configured: epsilon = 4*b*m_path/n is the estimator accuracy
    target, theta = sqrt(eta*Gamma*epsilon*n) must not exceed 1, and the
    per-episode slack is delta = 6*epsilon + 2*theta*beta*d*Lambda (the factor
    2 reflects the mass-preserving floor construction above).
    """

    lam: float
    episodes: int = 8
    seed: int = 0
    geometry: str = "euclidean"
    eta: float | np.ndarray | None = None
    nu: float = 8.0
    exact_gradient: bool = False
    record_choices: bool = False

    def derive(self, game: CongestionGame) -> BanditParams:
        if not _is_integer(self.episodes):
            raise ConfigurationError(f"episode count must be an integer, got {self.episodes!r}")
        if self.episodes < 1:
            raise ConfigurationError("need at least one episode")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ConfigurationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.record_choices and game.d > _LOG_PATHS:
            raise ConfigurationError(
                f"record_choices logs path indices as int16, so at most {_LOG_PATHS} "
                f"paths per player; this game has a player with {game.d}"
            )
        if not 1.0 <= self.nu < math.inf:
            raise ConfigurationError("nu must be a finite number, at least 1")
        if not (0.0 < self.lam < 1.0 / game.d):
            raise ConfigurationError(
                f"Lambda must lie in (0, 1/d) = (0, {1.0 / game.d:.6g})"
            )
        if not self.exact_gradient:  # episodes only grow, so the last is the longest
            try:
                steps = self.episode_steps(game, self.episodes)
            except OverflowError:
                raise ConfigurationError(
                    f"episode {self.episodes} would last infinitely many steps; "
                    "lower nu or raise Lambda"
                ) from None
            if steps * game.n * game.m_path > _MAX_EVENTS:
                raise ConfigurationError(
                    f"episode {self.episodes} would take {steps:.3g} steps of "
                    f"{game.n * game.m_path} events each, more than its int64 load histogram "
                    "holds; lower nu or raise Lambda"
                )
        smooth = game.smoothness_params()
        etas = resolve_learning_rates(self.eta, game.n, smooth.lam)
        geometry = make_geometry(self.geometry)
        floor = self.lam / game.n
        gamma = geometry.gamma(floor)
        epsilon = _estimator_accuracy(game)
        theta = math.sqrt(float(etas.min()) * gamma * epsilon * game.n)
        if theta > 1.0 + 1e-12:
            raise ConfigurationError(
                f"theta = sqrt(eta*Gamma*epsilon*n) = {theta:.4g} exceeds 1; "
                "lower the learning rate or Lambda"
            )
        delta = 6.0 * epsilon + 2.0 * theta * smooth.beta * game.d * self.lam
        return BanditParams(
            epsilon=epsilon,
            theta=theta,
            delta=delta,
            threshold=3.0 * delta / theta,
            lower_threshold=2.0 * delta / theta,
            tau0=math.ceil(smooth.alpha / delta),
            etas=etas,
            floor=floor,
        )

    def episode_steps(self, game: CongestionGame, tau: int) -> int:
        # The floor construction guarantees per-path probability >= Lambda,
        # so the effective exploration floor equals Lambda itself.
        return episode_length(self.nu, game.n, game.d, self.lam, game.m_path, tau)


@dataclass(frozen=True)
class BanditParams:
    epsilon: float
    theta: float
    delta: float
    threshold: float  # 3*delta/theta, the post-convergence gap ceiling
    lower_threshold: float  # 2*delta/theta: gaps below it stay under threshold
    tau0: int
    etas: np.ndarray  # per-player learning rates
    floor: float  # Lambda/n, the least probability mass of any path entry


def _check_preset_args(game: CongestionGame, eta, lambda_cap) -> None:
    """Reject what a preset cannot take: per-player rates, a rate outside
    (0, 1/lambda], and a cap that is not positive and finite."""
    if np.ndim(eta) != 0:
        raise ConfigurationError(
            "the presets take one learning rate; pass per-player rates to BanditConfig"
        )
    if eta is not None:
        resolve_learning_rates(eta, game.n, game.smoothness_params().lam)
    if not 0.0 < lambda_cap < math.inf:
        raise ConfigurationError(f"lambda_cap must be a positive finite number, got {lambda_cap!r}")


def euclidean_preset(
    game: CongestionGame,
    eta: float | None = None,
    lambda_cap: float = 0.9,
    **kwargs,
) -> BanditConfig:
    """Gradient-descent instantiation: Gamma = 2, Lambda = sqrt(eps/(2 eta n))/(beta d)."""
    smooth = game.smoothness_params()
    epsilon = _estimator_accuracy(game)
    _check_preset_args(game, eta, lambda_cap)
    if eta is None:
        eta = min(1.0 / smooth.lam, (1.0 - 1e-9) / (2.0 * epsilon * game.n))
    lam = min(
        math.sqrt(epsilon / (2.0 * eta * game.n)) / (smooth.beta * game.d),
        lambda_cap / game.d,
    )
    return BanditConfig(lam=lam, geometry="euclidean", eta=eta, **kwargs)


def entropy_preset(
    game: CongestionGame,
    eta: float | None = None,
    lambda_cap: float = 0.9,
    **kwargs,
) -> BanditConfig:
    """Multiplicative-updates instantiation: Gamma = Lambda/n."""
    smooth = game.smoothness_params()
    epsilon = _estimator_accuracy(game)
    _check_preset_args(game, eta, lambda_cap)
    if eta is None:
        eta = 1.0 / smooth.lam
    for _ in range(8):  # Lambda and the theta <= 1 cap depend on each other
        lam = min(
            (epsilon / (eta * smooth.beta**2 * game.d**2)) ** (1.0 / 3.0),
            lambda_cap / game.d,
        )
        theta_sq = eta * lam * epsilon
        if theta_sq <= 1.0:
            break
        eta = eta / theta_sq * (1.0 - 1e-9)
    return BanditConfig(lam=lam, geometry="negative-entropy", eta=eta, **kwargs)


@dataclass
class EpisodeRecord:
    tau: int
    steps: int
    profile: np.ndarray  # the frozen strategy x^tau played all episode
    visits: np.ndarray
    cost_sums: np.ndarray
    estimate: np.ndarray
    fallback: np.ndarray
    grad_error: float  # max over players of ||estimate_i - grad_i Phi(x^tau)||_inf
    phi: float


@dataclass
class BanditReport:
    game: CongestionGame
    config: BanditConfig
    params: BanditParams
    reference: CertifiedMinimum
    records: list[EpisodeRecord]
    x_final: np.ndarray
    choices: list[np.ndarray] | None = None

    @property
    def phis(self) -> np.ndarray:
        return np.asarray([r.phi for r in self.records])

    @property
    def gaps(self) -> np.ndarray:
        return self.phis - self.reference.value

    @property
    def certified_gaps(self) -> np.ndarray:
        return self.reference.certified_gap(self.phis)

    @property
    def grad_errors(self) -> np.ndarray:
        return np.asarray([r.grad_error for r in self.records])


def _edge_counts(game: CongestionGame, picks: np.ndarray, steps_keys: np.ndarray, keys=None):
    """Players per step and edge for flat picks (n, steps), as counts (steps, m+1)
    with the padding column m zeroed, and the keys t*(m+1) + e of each pick's
    edges, written into keys (n, steps, m_path) if given.  steps_keys holds
    t*(m+1) in column 0 for at least `steps` rows."""
    m = game.m
    keys = np.take(game.edge_ids, picks, axis=0, out=keys, mode="clip")
    keys += steps_keys[: picks.shape[1]]
    counts = np.bincount(keys.ravel(), minlength=keys.shape[1] * (m + 1)).reshape(-1, m + 1)
    counts[:, m] = 0
    return keys, counts


def _steps_keys(game: CongestionGame, tile: int) -> np.ndarray:
    """The key offsets t*(m+1) of steps t < tile, as a column for _edge_counts."""
    return (np.arange(tile) * (game.m + 1))[:, None]


# The Monte-Carlo gap draws uniforms one (n, _BATCH) block at a time, the unit
# that gives each (player, sample) its uniform.  It and the episode kernel count
# loads in tiles of steps (samples) whose (n, tile, m_path) edge keys hold at
# most _TILE_ENTRIES entries, so a tile stays in cache whatever the game.
_BATCH = 16384
_TILE_ENTRIES = 32768


def _tile_steps(game: CongestionGame, bins: int = 0) -> int:
    """Steps per tile: cache-sized, but with at least `bins` (n, tile, m_path) entries."""
    per_step = game.n * game.m_path
    return max(1, _TILE_ENTRIES // per_step, -(-bins // per_step))


def _load_cost_table(game: CongestionGame) -> np.ndarray:
    """c_e(k * (1/n)) at row e, column k = 0..n, plus a zero row m for the padding
    edge: bit-equal to edge_costs at the loads k * (1/n) that k players make."""
    n, m = game.n, game.m
    table = np.zeros((m + 1, n + 1))
    table[:m] = game.edge_costs(np.outer(np.arange(n + 1) * (1.0 / n), np.ones(m))).T
    return table


def _count_steps(game, sampler, streams, lo, hi, tile, log):
    """Count steps [lo, hi) of an episode, in tiles of `tile` steps from lo, into
    an int64 histogram of its own.  Each stream gives its player's uniforms of
    those steps in order; rows lo:hi of log, if given, get the picks."""
    n, m_path = game.n, game.m_path
    # Each pick of path s makes one event per edge slot j (padding slots see
    # load 0 and cost 0), with key (s*m_path + j)*(n+1) + k at load k.
    bases = np.arange(game.dim * m_path).reshape(-1, m_path) * (n + 1)
    hist = np.zeros(bases.size * (n + 1), dtype=np.int64)
    starts = game.offsets[:-1, None]

    # The tile buffers serve the whole range: fresh arrays every tile would be
    # returned to the system and page-faulted again.  (mode="clip" lets take
    # write straight into out; every index is in range.)
    tile = min(tile, hi - lo)
    steps_keys = _steps_keys(game, tile)
    u, picks_buf = np.empty((n, tile)), np.empty((n, tile), dtype=np.intp)
    keys_buf = np.empty((n, tile, m_path), dtype=np.intp)
    events_buf = np.empty_like(keys_buf)
    for first in range(lo, hi, tile):
        width = min(tile, hi - first)
        for row, stream in zip(u, streams):
            stream.random(out=row[:width])
        picks = sampler.picks(u[:, :width], out=picks_buf[:, :width])
        keys, counts = _edge_counts(game, picks, steps_keys, keys_buf[:, :width])
        events = np.take(counts, keys, out=events_buf[:, :width], mode="clip")
        events += np.take(bases, picks, axis=0, out=keys, mode="clip")
        hist += np.bincount(events.ravel(), minlength=hist.size)
        if log is not None:
            log[first : first + width] = (picks - starts).T
    return hist


def _count_in_two_ranges(game, sampler, streams, steps, cut, tile, log):
    """_count_steps over [0, steps), [cut, steps) on a worker thread (joined even if
    either range raises) from generators on copies of the streams' bit generators
    (copy.copy takes a PCG64's full state) advanced by cut draws; the caller's
    streams end advanced by steps draws, as if they had drawn every uniform."""
    from concurrent.futures import ThreadPoolExecutor  # only split episodes import it

    ahead = [np.random.Generator(copy.copy(s.bit_generator).advance(cut)) for s in streams]
    with ThreadPoolExecutor(max_workers=1) as pool:
        rest = pool.submit(_count_steps, game, sampler, ahead, cut, steps, tile, log)
        hist = _count_steps(game, sampler, streams, 0, cut, tile, log)
    for stream in streams:
        stream.bit_generator.advance(steps - cut)
    return hist + rest.result()


def _simulate_episode(game, flat, streams, steps, record):
    n, m_path, ids = game.n, game.m_path, game.edge_ids  # cached here, before any thread
    sampler = GuideTable([p.cumsum() for p in _choice_probs(game, flat)], draws=steps)
    bins = game.dim * m_path * (n + 1)
    log = np.empty((steps, n), dtype=_LOG_DTYPE) if record else None
    # A tile holds at least as many events as the histogram has bins, so its
    # bincount costs no more than its events.
    tile = min(_tile_steps(game, bins), steps)
    # Integer counts have no order and each stream can jump ahead, so with two
    # CPUs an episode of two or more tiles is counted in two ranges at once,
    # cut at the tile boundary nearest its middle, with every draw unchanged.
    # Histograms larger than a tile's entries stay on one range, so the memory
    # of their tiles is not doubled.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if steps > tile and bins <= _TILE_ENTRIES and cpus >= 2:
        cut = tile * max(1, (steps + tile) // (2 * tile))
        hist = _count_in_two_ranges(game, sampler, streams, steps, cut, tile, log)
    else:
        hist = _count_steps(game, sampler, streams, 0, steps, tile, log)
    hist = hist.reshape(game.dim, m_path, n + 1)
    visits = hist[:, 0].sum(axis=1)
    sums = (hist * _load_cost_table(game)[ids]).sum(axis=(1, 2))
    return visits, sums, log


def run_bandit(
    game: CongestionGame, config: BanditConfig, reference: CertifiedMinimum
) -> BanditReport:
    """Play the episode scheme and report per-episode potentials and estimator
    errors, with gaps against `reference`, the certified potential minimum."""
    params = config.derive(game)
    geometry = make_geometry(config.geometry)

    step = geometry.mirror_step(game.path_mask, params.etas, 1.0 / game.n, params.floor)
    x = restrict_profile(game, game.uniform_profile(), config.lam)
    streams = [
        np.random.Generator(np.random.PCG64(ss))
        for ss in np.random.SeedSequence(config.seed).spawn(game.n)
    ]

    records: list[EpisodeRecord] = []
    choice_logs: list[np.ndarray] | None = [] if config.record_choices else None
    previous = np.zeros(game.dim)

    for tau in range(1, config.episodes + 1):
        exact = game.path_costs(x)
        if config.exact_gradient:
            steps = 0
            visits = np.zeros(game.dim, dtype=np.int64)
            sums = np.zeros(game.dim)
            estimate, fallback = exact.copy(), np.zeros(game.dim, dtype=bool)
        else:
            steps = config.episode_steps(game, tau)
            visits, sums, log = _simulate_episode(game, x, streams, steps, config.record_choices)
            estimate, fallback = estimate_gradient(visits, sums, previous)
            if choice_logs is not None:
                choice_logs.append(log)
        records.append(
            EpisodeRecord(
                tau=tau,
                steps=steps,
                profile=x.copy(),
                visits=visits,
                cost_sums=sums,
                estimate=estimate,
                fallback=fallback,
                grad_error=float(np.abs(estimate - exact).max()),
                phi=game.potential(x),
            )
        )
        previous = estimate

        x = step(game.padded(x), game.padded(estimate))[game.path_mask]

    return BanditReport(
        game=game,
        config=config,
        params=params,
        reference=reference,
        records=records,
        x_final=x,
        choices=choice_logs,
    )


@dataclass(frozen=True)
class MixedDeltaResult:
    delta: float
    expected_costs: np.ndarray  # E[c_s(X)] for every (player, path) row


def _path_costs_under(game: CongestionGame, law: np.ndarray) -> np.ndarray:
    """E[c_s(X)] for every path, where law[e, k] is the chance that k players use edge e."""
    return game.incidence @ (law * _load_cost_table(game)[: game.m]).sum(axis=1)


def expected_path_costs(game: CongestionGame, flat: np.ndarray) -> np.ndarray:
    """Exact E[c_s(X)] for all paths under independent player choices.

    Player j is on edge e with probability p_{j,e}, her choice probability
    summed over her paths through e, so the number of players on e is
    Poisson-binomial; its law over 0..n follows from the recursion over
    players (Hong 2013), O(n^2) per edge.  E[c_s] is the sum over the edges of
    s of that law against c_e(k/n).
    """
    n = game.n
    probs = np.concatenate(_choice_probs(game, flat))
    on_edge = np.add.reduceat(probs[:, None] * game.incidence, game.offsets[:-1], axis=0)
    pmf = np.zeros((game.m, n + 1))
    pmf[:, 0] = 1.0
    for p in np.minimum(on_edge, 1.0)[:, :, None]:
        pmf[:, 1:] = pmf[:, 1:] * (1.0 - p) + pmf[:, :-1] * p
        pmf[:, :1] *= 1.0 - p
    return _path_costs_under(game, pmf)


def _sampled_load_law(game: CongestionGame, flat: np.ndarray, samples: int, seed: int):
    """An int64 (m, n+1) table: at (e, k), how many of `samples` joint outcomes,
    drawn from default_rng(seed), put k players on edge e."""
    n, m = game.n, game.m
    rng = np.random.default_rng(seed)
    sampler = GuideTable([p.cumsum() for p in _choice_probs(game, flat)], draws=samples)
    rows = np.arange(m + 1) * (n + 1)  # edge e's count of k players has key e*(n+1) + k
    law = np.zeros((m + 1) * (n + 1), dtype=np.int64)
    tile = _tile_steps(game)
    steps_keys = _steps_keys(game, tile)
    for done in range(0, samples, _BATCH):
        u = rng.random((n, min(_BATCH, samples - done)))
        for lo in range(0, u.shape[1], tile):
            _, counts = _edge_counts(game, sampler.picks(u[:, lo : lo + tile]), steps_keys)
            law += np.bincount((counts + rows).ravel(), minlength=law.size)
    return law.reshape(m + 1, n + 1)[:m]


def mixed_delta_gap(
    game: CongestionGame,
    flat: np.ndarray,
    mode: str = "enumerate",
    samples: int = 100_000,
    seed: int = 0,
) -> MixedDeltaResult:
    """Equilibrium gap in mixed strategies: spreads of E[c_s(X)] over used paths.

    mode "enumerate" computes E[c_s(X)] exactly from each edge's load law
    (`expected_path_costs`), at any size; "monte-carlo" takes the law from
    `samples` joint outcomes drawn from default_rng(seed).
    """
    flat = game.check_vector(flat)
    if mode == "enumerate":
        expected = expected_path_costs(game, flat)
    elif mode == "monte-carlo":
        if not _is_integer(samples) or samples < 1:
            raise ValueError(f"monte-carlo mode needs at least one sample, got {samples!r}")
        if not _is_integer(seed) or seed < 0:
            raise ValueError(f"monte-carlo mode needs a nonnegative integer seed, got {seed!r}")
        law = _sampled_load_law(game, flat, int(samples), int(seed))
        expected = _path_costs_under(game, law / samples)
    else:
        raise ValueError("mode must be 'enumerate' or 'monte-carlo'")
    return MixedDeltaResult(game.equilibrium_gap(flat, expected), expected)
