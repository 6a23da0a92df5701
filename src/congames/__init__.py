"""Mirror-descent learning dynamics in congestion games.

Bulletin-board dynamics for nonatomic games, episode-based bandit dynamics
for atomic games, certified equilibrium oracles, and the machinery to check
the convergence, equilibrium-approximation, and social-cost guarantees.
"""

from .bandit import (
    BanditConfig,
    BanditParams,
    BanditReport,
    EpisodeRecord,
    MixedDeltaResult,
    descent_step_check,
    entropy_preset,
    episode_length,
    estimate_gradient,
    euclidean_preset,
    expected_path_costs,
    mixed_delta_bound,
    mixed_delta_gap,
    restrict_profile,
    run_bandit,
    sample_choices,
)
from .bregman import (
    ConfigurationError,
    DivergenceDomainError,
    EntropyGeometry,
    EuclideanGeometry,
    FeasibleSet,
    make_geometry,
)
from .bulletin import (
    BulletinConfig,
    BulletinReport,
    average_cost_ratio,
    delta_equilibrium_gap,
    equilibrium_gap_bound,
    max_cost_ratio,
    regret,
    run_bulletin,
    theorem_delta_gap,
)
from .costs import CostValidationError, PolynomialCost, validate_cost
from .game import (
    CongestionGame,
    GameStructureError,
    SmoothnessParams,
    parallel_links_game,
)
from .gamefile import GameFileError, parse_game, parse_game_text, render_game
from .generator import generate_random_game
from .minimize import (
    CertifiedMinimum,
    MaxCostMinimum,
    min_average_cost,
    min_max_cost,
    reference_minimizer,
)

__version__ = "0.1.0"

__all__ = [
    "BanditConfig",
    "BanditParams",
    "BanditReport",
    "BulletinConfig",
    "BulletinReport",
    "CertifiedMinimum",
    "CongestionGame",
    "ConfigurationError",
    "CostValidationError",
    "DivergenceDomainError",
    "EntropyGeometry",
    "EpisodeRecord",
    "EuclideanGeometry",
    "FeasibleSet",
    "GameFileError",
    "GameStructureError",
    "MaxCostMinimum",
    "MixedDeltaResult",
    "PolynomialCost",
    "SmoothnessParams",
    "average_cost_ratio",
    "delta_equilibrium_gap",
    "descent_step_check",
    "entropy_preset",
    "episode_length",
    "equilibrium_gap_bound",
    "estimate_gradient",
    "euclidean_preset",
    "expected_path_costs",
    "generate_random_game",
    "make_geometry",
    "max_cost_ratio",
    "min_average_cost",
    "min_max_cost",
    "mixed_delta_bound",
    "mixed_delta_gap",
    "parallel_links_game",
    "parse_game",
    "parse_game_text",
    "reference_minimizer",
    "regret",
    "render_game",
    "restrict_profile",
    "run_bandit",
    "run_bulletin",
    "sample_choices",
    "theorem_delta_gap",
    "validate_cost",
]
