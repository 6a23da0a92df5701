"""Mirror-descent dynamics under bulletin-board feedback.

Each step every player sees the realized cost of each of her allowed paths
(which is exactly her block of the potential gradient) and applies one
constrained mirror step with her own learning rate.  The run monitors the
potential against a certified minimizer, which the caller solves and passes
in, the equilibrium gap, and both social costs, so the convergence and
price-of-anarchy guarantees can be checked step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bregman import ConfigurationError, make_geometry, resolve_learning_rates
from .game import (
    SUPPORT_TOL,
    CongestionGame,
    _heavy_floor,
    _is_integer,
    padded_equilibrium_gaps,
    path_reduction,
)
from .minimize import CertifiedMinimum


@dataclass
class BulletinConfig:
    """Run parameters; eta defaults to 1/lambda for every player."""

    geometry: str = "euclidean"
    eta: float | np.ndarray | None = None
    max_steps: int = 200_000
    target_gap: float | None = None
    x0: np.ndarray | None = None
    record_profiles: bool = False

    def resolve_etas(self, game: CongestionGame) -> np.ndarray:
        """Per-player learning rates, after rejecting a bad step cap or target gap."""
        if not _is_integer(self.max_steps):
            raise ConfigurationError(f"step cap must be an integer, got {self.max_steps!r}")
        if self.max_steps < 0:
            raise ConfigurationError("step cap must be nonnegative")
        if self.target_gap is not None and not 0.0 < self.target_gap < math.inf:
            raise ConfigurationError("target gap must be a positive finite number")
        return resolve_learning_rates(self.eta, game.n, game.smoothness_params().lam)


@dataclass
class BulletinReport:
    """Per-step trajectory of the run plus the data the theorem checks need.

    delta_gaps uses the plain used-path rule (mass above the support
    tolerance); theorem_delta_gaps additionally ignores paths too light to
    move the mass the equilibrium-gap argument shifts, which is the premise
    under which the sqrt(8*b*m*eps) ceiling is actually provable.
    """

    game: CongestionGame
    reference: CertifiedMinimum
    etas: np.ndarray
    phi: np.ndarray
    delta_gaps: np.ndarray
    theorem_delta_gaps: np.ndarray
    avg_costs: np.ndarray
    max_costs: np.ndarray
    x_final: np.ndarray
    gamma_measured: float
    target_gap: float | None
    stopped_at_target: bool
    cum_unit_costs: np.ndarray
    cum_path_costs: np.ndarray
    profiles: np.ndarray | None = None

    @property
    def steps(self) -> int:
        """Number of mirror-descent updates performed."""
        return len(self.phi) - 1

    @property
    def certified_gaps(self) -> np.ndarray:
        """Upper bounds on Phi(x^t) - min Phi, valid by the oracle's certificate."""
        return self.reference.certified_gap(self.phi)

    @property
    def max_ascent(self) -> float:
        """Largest one-step increase of Phi; monotone descent means <= 0."""
        if len(self.phi) < 2:
            return 0.0
        return float(np.diff(self.phi).max())

    @property
    def first_certified_hit(self) -> int | None:
        if self.target_gap is None:
            return None
        hits = np.nonzero(self.certified_gaps <= self.target_gap)[0]
        return int(hits[0]) if hits.size else None


# The diagnostics pass runs every _CHUNK_STEPS steps, and the potential, the
# average cost and the stop rule once per block of _STOP_BLOCK steps; both run
# more often when a chunk of padded (n, d) profiles, or a block of (m,) loads,
# would exceed _CHUNK_ENTRIES entries.  Larger temporaries are mapped afresh by
# malloc on every call, at 3x the cost per step of a block at m = 2000.
_CHUNK_STEPS = 1024
_CHUNK_ENTRIES = 8192
_STOP_BLOCK = 32


def run_bulletin(
    game: CongestionGame, config: BulletinConfig, reference: CertifiedMinimum
) -> BulletinReport:
    """Iterate the update x_i <- mirror_step(x_i, grad_i Phi, eta_i), measuring
    gaps against `reference`, the certified potential minimum.

    Each step does only what the next step needs, in the padded (n, d)
    layout: loads, edge costs, path costs and the mirror step, keeping the
    iterate and path costs in chunk buffers, loads and edge costs in block
    buffers.  Once per block the potentials and average costs of its steps
    are computed from the stored loads and edge costs, and the stop rule
    finds the block's first step within the target.  The run is cut there:
    the steps already taken past it are discarded, and the final iterate is
    the stored one of that step.  A diagnostics pass turns a full chunk, and
    the last one, into the equilibrium gaps, maximum costs and cumulative
    costs of all its steps at once.  The step count does not depend on the
    blocks or chunks, and every report field is bit for bit what a per-step
    evaluation gives: the potential of a step is the sum of its own row of
    edge primitives, the average cost one dot product per row, gaps and
    maxima take only max, min and one subtraction, and the cumulative costs
    add their per-step rows in step order.
    """
    etas = config.resolve_etas(game)
    geometry = make_geometry(config.geometry)

    if config.x0 is None:
        x0 = game.uniform_profile()
    else:
        x0 = game.check_profile(config.x0, tol=1e-9)
    if geometry.kind == "negative-entropy" and np.any(x0 <= 0.0):
        raise ConfigurationError(
            "entropy dynamics need a strictly positive start (use the uniform profile)"
        )

    gamma = max(
        geometry.divergence(
            reference.flat[game.player_slice(i)], x0[game.player_slice(i)]
        )
        for i in range(game.n)
    )

    inc = game.incidence
    mask = game.path_mask
    sel = np.flatnonzero(mask)
    step = geometry.mirror_step(mask, etas, 1.0 / game.n)
    edge_costs = game.edge_costs
    target = config.target_gap
    last = config.max_steps

    rows = max(1, min(_CHUNK_STEPS, _CHUNK_ENTRIES // mask.size, last + 1))
    Xs = np.empty((rows, *mask.shape))  # row j: the iterate of chunk step j
    PCs = np.zeros((rows, *mask.shape))  # the padding stays 0; the entropy step reads it
    block = max(1, min(_STOP_BLOCK, _CHUNK_ENTRIES // game.m, rows))
    Ls = np.empty((block, game.m))  # row j - done: the loads of the block's steps
    Es = np.empty((block, game.m))
    pc = np.empty(game.dim)  # the step's path costs, before they enter PCs
    phis = np.empty(rows)
    avgs = np.empty(rows)
    diagnostics = _Diagnostics(game, reference, config.record_profiles)
    # row views bound once: a list index is cheaper than numpy's on every step;
    # so are the functions, each called with its output positional
    X_rows, PC_rows, L_rows, E_rows = list(Xs), list(PCs), list(Ls), list(Es)
    dot, take, put = np.dot, np.ndarray.take, np.ndarray.put
    add_reduce, matmul, certified_gap = np.add.reduce, np.matmul, reference.certified_gap

    X = X_rows[0]
    X[...] = game.padded(x0)
    stopped = False
    j = done = 0  # next chunk row; rows before done have their potentials
    for t in range(last + 1):
        loads = dot(take(X, sel), inc, L_rows[j - done])
        PC = PC_rows[j]
        put(PC, sel, dot(inc, edge_costs(loads, E_rows[j - done]), pc))
        j += 1

        if j - done == block or j == rows or t == last:
            L, E = Ls[: j - done], Es[: j - done]
            phis[done:j] = add_reduce(game.edge_primitives(L), 1)
            avgs[done:j] = matmul(L[:, None, :], E[:, :, None])[:, 0, 0]
            if target is not None:
                hits = np.flatnonzero(certified_gap(phis[done:j]) <= target)
                if hits.size:
                    j = done + int(hits[0]) + 1
                    stopped = True
                    break
            if t == last:
                break
            done = j
            if j == rows:
                diagnostics.add(Xs, PCs, phis, avgs)
                j = done = 0

        X = step(X, PC, X_rows[j])  # the next step's row; X itself in a one-row chunk
    diagnostics.add(Xs[:j], PCs[:j], phis[:j], avgs[:j])

    return BulletinReport(
        game=game,
        reference=reference,
        etas=etas,
        phi=np.concatenate(diagnostics.phis),
        avg_costs=np.concatenate(diagnostics.avgs),
        x_final=Xs[j - 1][mask],
        gamma_measured=float(gamma),
        target_gap=config.target_gap,
        stopped_at_target=stopped,
        delta_gaps=np.concatenate(diagnostics.deltas),
        theorem_delta_gaps=np.concatenate(diagnostics.theorem_deltas),
        max_costs=np.concatenate(diagnostics.maxs),
        cum_unit_costs=diagnostics.cum_unit,
        cum_path_costs=diagnostics.cum_paths,
        profiles=None if diagnostics.profiles is None else np.concatenate(diagnostics.profiles),
    )


class _Diagnostics:
    """The per-step diagnostics of a run, computed a chunk of steps at a time."""

    def __init__(self, game: CongestionGame, reference: CertifiedMinimum, record_profiles: bool):
        self.game = game
        self.reference = reference
        self.phis: list[np.ndarray] = []
        self.avgs: list[np.ndarray] = []
        self.deltas: list[np.ndarray] = []
        self.theorem_deltas: list[np.ndarray] = []
        self.maxs: list[np.ndarray] = []
        self.profiles: list[np.ndarray] | None = [] if record_profiles else None
        self.cum_unit = np.zeros(game.n)
        self.cum_paths = np.zeros(game.dim)

    def add(self, X: np.ndarray, PC: np.ndarray, phi: np.ndarray, avg: np.ndarray) -> None:
        """Steps with padded profiles X and path costs PC, both (k, n, d), potentials phi
        and average costs avg; the chunk buffers are reused, so everything kept is a copy."""
        game, mask = self.game, self.game.path_mask
        self.phis.append(phi.copy())
        self.avgs.append(avg.copy())
        cert_gaps = self.reference.certified_gap(phi)
        floors = np.stack([np.full(len(phi), SUPPORT_TOL), _heavy_floor(game, cert_gaps)])
        deltas, theorem_deltas = padded_equilibrium_gaps(X, PC, mask, floors)
        self.deltas.append(deltas)
        self.theorem_deltas.append(theorem_deltas)
        self.maxs.append(path_reduction(np.maximum, np.where(mask, PC, -np.inf))().max(axis=1))
        unit = game.n * np.add.reduce(np.where(mask, PC * X, 0.0), 2)
        self.cum_unit = _add_rows(self.cum_unit, unit)
        self.cum_paths = _add_rows(self.cum_paths, PC[:, mask])
        if self.profiles is not None:
            self.profiles.append(X[:, mask])


def _add_rows(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """total + rows[0] + rows[1] + ..., added in row order as a per-step loop would."""
    return np.add.accumulate(np.concatenate([total[None], rows]), axis=0)[-1]


def regret(report: BulletinReport, player: int) -> float:
    """Average per-unit-flow cost paid minus the best fixed path in hindsight."""
    game = report.game
    sl = game.player_slice(player)  # ValueError for a player that does not exist
    T = len(report.phi)
    best_fixed = report.cum_path_costs[sl].min()
    return float((report.cum_unit_costs[player] - best_fixed) / T)
