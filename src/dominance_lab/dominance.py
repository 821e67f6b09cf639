"""Strict and weak dominance decisions, pure and mixed, over game restrictions.

A candidate strictly dominates a target when its payoff is strictly higher
against every opponent profile of the restriction; it weakly dominates when
it is at least as high everywhere and strictly higher somewhere.  Both
readings are taken literally, which fixes the edge case of an empty
opponent-profile set: the universally quantified strict condition is
vacuously true, while the weak condition fails for lack of a witness.

Mixed dominators are found with an exact linear program (see
:mod:`dominance_lab.simplex`); ties are semantically meaningful for weak
dominance, so no float ever participates in a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence

from .game_model import (
    Game,
    InvalidProfileError,
    MixedStrategy,
    Restriction,
    format_rational,
    opponent_profiles,
)
from .simplex import (
    EQ,
    GE,
    Constraint,
    LinearProgram,
    LpResult,
    UnboundedProgramError,
    solve_lp,
)

__all__ = [
    "Constraint",
    "EliminationCertificate",
    "LinearProgram",
    "LpResult",
    "Mode",
    "NoCandidatesError",
    "Pool",
    "UnboundedProgramError",
    "dominates",
    "enumerate_mixtures",
    "find_mixed_dominator",
    "find_pure_dominator",
    "replay_certificate",
    "solve_lp",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Mode(Enum):
    """Dominance flavor: strict (>) everywhere, or weak (>= plus one >)."""

    STRICT = "strict"
    WEAK = "weak"


class Pool(Enum):
    """Where dominator candidates come from.

    LOCAL draws them from the current restriction's own kept-set, GLOBAL
    from the initial game's full strategy set; either way the inequalities
    are evaluated against the current restriction's opponent profiles.
    """

    LOCAL = "local"
    GLOBAL = "global"


class NoCandidatesError(ValueError):
    """Raised when a dominator is requested from an empty pool."""


def _opponent_bases(game: Game, player: int, profiles: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Flat tensor offsets contributed by each opponent profile."""
    strides = game.strides
    n = game.player_count
    others = [k for k in range(n) if k != player]
    bases = []
    for opp in profiles:
        base = 0
        for k, choice in zip(others, opp):
            base += choice * strides[k]
        bases.append(base)
    return tuple(bases)


def _column(game: Game, player: int, strategy: int, bases: Sequence[int]) -> tuple[Fraction, ...]:
    """Payoffs of a pure strategy against each opponent profile."""
    table = game.payoffs[player]
    step = strategy * game.strides[player]
    return tuple(table[b + step] for b in bases)


def _mixed_column(
    game: Game, player: int, mixed: MixedStrategy, bases: Sequence[int]
) -> tuple[Fraction, ...]:
    table = game.payoffs[player]
    stride = game.strides[player]
    out = [_ZERO] * len(bases)
    for strategy, weight in mixed.weights:
        step = strategy * stride
        for c, b in enumerate(bases):
            out[c] += weight * table[b + step]
    return tuple(out)


def _beats(candidate: Sequence[Fraction], target: Sequence[Fraction], mode: Mode) -> bool:
    if mode is Mode.STRICT:
        return all(a > b for a, b in zip(candidate, target))
    return all(a >= b for a, b in zip(candidate, target)) and any(
        a > b for a, b in zip(candidate, target)
    )


def _pure_dominator(
    game: Game,
    player: int,
    target: int,
    pool: Sequence[int],
    bases: Sequence[int],
    mode: Mode,
) -> int | None:
    if not bases:
        if mode is Mode.WEAK:
            return None
        return min(pool) if pool else None
    target_col = _column(game, player, target, bases)
    for candidate in pool:
        if _beats(_column(game, player, candidate, bases), target_col, mode):
            return candidate
    return None


def _mixed_dominator(
    game: Game,
    player: int,
    target: int,
    pool: Sequence[int],
    bases: Sequence[int],
    mode: Mode,
) -> MixedStrategy | None:
    if not pool:
        raise NoCandidatesError(f"no dominator candidates for player {player}")
    if not bases:
        # Vacuous domination: any distribution works for strict, none for weak.
        if mode is Mode.WEAK:
            return None
        return MixedStrategy.point_mass(player, min(pool))
    pure = _pure_dominator(game, player, target, pool, bases, mode)
    if pure is not None:
        return MixedStrategy.point_mass(player, pure)
    target_col = _column(game, player, target, bases)
    margins = [
        tuple(a - b for a, b in zip(_column(game, player, s, bases), target_col))
        for s in pool
    ]
    result = _solve_dominance_program(margins, len(bases), mode)
    if result.value is None or result.value <= 0:
        return None
    return MixedStrategy(
        player,
        tuple((pool[j], w) for j, w in enumerate(result.assignment[: len(pool)]) if w),
    )


def _solve_dominance_program(
    margins: list[tuple[Fraction, ...]],
    profile_count: int,
    mode: Mode,
) -> LpResult:
    """Solve the dominance program; a positive optimum means the target is dominated.

    ``margins[j][c]`` is the payoff advantage of pool strategy j over the
    target at opponent profile c.  The first ``len(margins)`` entries of an
    optimal assignment are the pool weights.
    """
    m = len(margins)
    simplex_row = Constraint((_ONE,) * m + ((_ZERO,) if mode is Mode.STRICT else ()), EQ, _ONE)
    if mode is Mode.STRICT:
        # maximize eps subject to (margins . w) - eps >= 0 per profile.
        constraints = [
            Constraint(tuple(margins[j][c] for j in range(m)) + (Fraction(-1),), GE, _ZERO)
            for c in range(profile_count)
        ]
        constraints.append(simplex_row)
        program = LinearProgram(
            objective=(_ZERO,) * m + (_ONE,),
            constraints=tuple(constraints),
            free=frozenset({m}),
        )
        result = solve_lp(program)
        assert result.status == "optimal", "strict dominance program is always feasible"
        return result
    # Weak: maximize total slack subject to every slack nonnegative.
    constraints = [
        Constraint(tuple(margins[j][c] for j in range(m)), GE, _ZERO)
        for c in range(profile_count)
    ]
    constraints.append(simplex_row)
    program = LinearProgram(
        objective=tuple(sum(margins[j], _ZERO) for j in range(m)),
        constraints=tuple(constraints),
    )
    return solve_lp(program)


def _pool_indices(restriction: Restriction, player: int, pool: Pool) -> tuple[int, ...]:
    if pool is Pool.LOCAL:
        return restriction.kept[player]
    return tuple(range(restriction.game.shape[player]))


def _check_player_strategy(game: Game, player: int, strategy: int) -> None:
    if not 0 <= player < game.player_count:
        raise InvalidProfileError(f"player index {player} out of range")
    if not 0 <= strategy < game.shape[player]:
        raise InvalidProfileError(
            f"strategy index {strategy} out of range for player {game.players[player]!r}"
        )


def _target_bases(restriction: Restriction, player: int, target: int) -> tuple[Game, tuple[int, ...]]:
    """Validate ``player`` and ``target``; the game and the restriction's opponent bases."""
    game = restriction.game
    _check_player_strategy(game, player, target)
    return game, _opponent_bases(game, player, opponent_profiles(restriction, player))


def dominates(
    candidate: int | MixedStrategy,
    target: int,
    restriction: Restriction,
    player: int,
    mode: Mode,
) -> bool:
    """Decide whether ``candidate`` dominates ``target`` on the restriction.

    The candidate may be a pure strategy index or a :class:`MixedStrategy`
    whose support can lie anywhere in the parent game's strategy set (global
    pools are legal).  Exact arithmetic, no tolerance.
    """
    game, bases = _target_bases(restriction, player, target)
    target_col = _column(game, player, target, bases)
    if isinstance(candidate, MixedStrategy):
        if candidate.player != player:
            raise ValueError(
                f"candidate belongs to player {candidate.player}, not {player}"
            )
        for s, _ in candidate.weights:
            _check_player_strategy(game, player, s)
        candidate_col = _mixed_column(game, player, candidate, bases)
    else:
        _check_player_strategy(game, player, candidate)
        candidate_col = _column(game, player, candidate, bases)
    return _beats(candidate_col, target_col, mode)


def find_pure_dominator(
    restriction: Restriction,
    player: int,
    target: int,
    pool: Pool,
    mode: Mode,
) -> int | None:
    """Lowest-index pure strategy in the pool dominating ``target``, if any."""
    game, bases = _target_bases(restriction, player, target)
    return _pure_dominator(game, player, target, _pool_indices(restriction, player, pool), bases, mode)


def find_mixed_dominator(
    restriction: Restriction,
    player: int,
    target: int,
    pool: Pool,
    mode: Mode,
) -> MixedStrategy | None:
    """A mixed strategy over the pool dominating ``target``, or None.

    When a pure dominator exists its point mass is returned directly;
    otherwise the exact dominance program decides, and its optimizer is the
    witness.  Either way the result replays against the restriction.
    """
    game, bases = _target_bases(restriction, player, target)
    return _mixed_dominator(game, player, target, _pool_indices(restriction, player, pool), bases, mode)


@dataclass(frozen=True)
class EliminationCertificate:
    """Auditable record of one strategy elimination.

    ``context`` is the restriction at which the dominance held; replaying
    the certificate re-evaluates the defining inequalities there.
    """

    player: int
    eliminated: int
    dominator: int | MixedStrategy
    mode: Mode
    pool: Pool
    context: Restriction

    def to_dict(self) -> dict:
        game = self.context.game
        labels = game.strategies[self.player]
        if isinstance(self.dominator, MixedStrategy):
            dominator: object = {
                labels[s]: format_rational(w) for s, w in self.dominator.weights
            }
        else:
            dominator = labels[self.dominator]
        return {
            "player": game.players[self.player],
            "eliminated": labels[self.eliminated],
            "dominator": dominator,
            "mode": self.mode.value,
            "pool": self.pool.value,
        }


def replay_certificate(certificate: EliminationCertificate) -> bool:
    """Re-verify a certificate exactly: pool membership plus the inequalities."""
    restriction = certificate.context
    player = certificate.player
    if certificate.eliminated not in restriction.kept[player]:
        return False
    allowed = set(_pool_indices(restriction, player, certificate.pool))
    dominator = certificate.dominator
    if isinstance(dominator, MixedStrategy):
        if not set(dominator.support) <= allowed:
            return False
    elif dominator not in allowed:
        return False
    return dominates(dominator, certificate.eliminated, restriction, player, certificate.mode)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_mixtures(
    player: int,
    pool: Sequence[int],
    max_denominator: int,
) -> Iterator[MixedStrategy]:
    """All distributions over ``pool`` with denominator at most the bound.

    A search oracle: it can confirm that a dominator exists, never that none
    does (a true witness may need a larger denominator).
    """
    seen: set[tuple[tuple[int, Fraction], ...]] = set()
    for den in range(1, max_denominator + 1):
        for combo in _compositions(den, len(pool)):
            weights = tuple(
                (s, Fraction(c, den)) for s, c in zip(pool, combo) if c
            )
            if weights in seen:
                continue
            seen.add(weights)
            yield MixedStrategy(player, weights)
