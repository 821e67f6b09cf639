"""Exact-arithmetic iterated dominance elimination on finite strategic games.

Eight elimination operators (strict/weak dominance, pure/mixed dominators,
local/global candidate pools) as restriction-to-restriction maps, their
fixpoint iteration with replayable elimination certificates, and empirical
checks of the inclusion, equality and (non)monotonicity relations between
them.
"""

from .analysis import (
    BudgetExceededError,
    Exhaustive,
    FixpointRelationReport,
    MonotonicityWitness,
    PointwiseInclusionReport,
    Sampled,
    check_monotonic,
    compare_fixpoints,
    lattice_size,
    pointwise_inclusion,
)
from .dominance import (
    EliminationCertificate,
    Mode,
    NoCandidatesError,
    Pool,
    dominates,
    find_mixed_dominator,
    replay_certificate,
    solve_lp,
)
from .game_model import (
    Fraction,
    Game,
    GameFormatError,
    InvalidDistributionError,
    InvalidProfileError,
    MixedStrategy,
    Restriction,
    builtin_game,
    game_from_json_dict,
    game_to_json_dict,
    payoff,
)
from .operators import (
    ALL_OPERATORS,
    GS,
    GW,
    LS,
    LW,
    MGS,
    MGW,
    MLS,
    MLW,
    EliminationEngine,
    EliminationStep,
    IterationTrace,
    Mixing,
    OperatorKind,
    apply_operator,
    iterate,
    operator_from_name,
)
from .random_games import GeneratorConfig, generate

__version__ = "0.1.0"
