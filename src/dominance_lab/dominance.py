"""Strict and weak dominance decisions, pure and mixed, over game restrictions.

A candidate strictly dominates a target when its payoff is strictly higher
against every opponent profile of the restriction; it weakly dominates when
it is at least as high everywhere and strictly higher somewhere.  Both
readings are taken literally, which fixes the edge case of an empty
opponent-profile set: the universally quantified strict condition is
vacuously true, while the weak condition fails for lack of a witness.

Every query reads its restriction as kept-set bitmasks, through two rules
kept here once: :func:`_pool_mask` gives the dominator candidates (the
player's kept set for a local pool, all of its strategies for a global
one), and :func:`_opponent_bases` gives the opponent profiles the other
players' masks allow, as flat payoff-tensor offsets in lexicographic
order.  The one-off queries and certificate replay call both; the
elimination engine and the oracle suite call :func:`_opponent_bases`, and
read a global pool from full masks: the engine from those it computes
once, the suite from the full restriction's.  The exact GS and MGS
checks call it too.

The two kernels, :func:`_pure_dominator` and :func:`_mixed_dominator`,
read a context's columns: the scaled payoffs of each of the player's
strategies against its opponent profiles, indexed by strategy
(:func:`_columns`).  The elimination engine builds them once per (player,
opponent masks) and hands the same columns to every target it decides
there, calling a kernel once per target and context and never again for a
decision its records hold.  The exact MGS check does the same at each
opponent context, with no engine, and the exact GS check builds each
player's columns once, over the full opponent masks, and reads from them,
for each (target, dominator) pair, the profiles where the dominator misses.
The oracle suite builds each player's columns once per game, for
its grid, and calls :func:`_mixed_dominator` on them for every target and
mode.  :func:`find_mixed_dominator` builds its own per query, and
:func:`dominates` (and so certificate replay) reads only the columns it
compares, so that no check depends on the engine's cache or the suite's
columns.

Every decision reads :attr:`Game.scaled_payoffs`: each player's payoffs
times one least common denominator, as ints.  A positive factor changes no
comparison, so the decisions are those of the rational payoffs.  A mixed
candidate's weights are scaled the same way, by their common denominator,
and compared against that multiple of the target's payoffs.

A mixed-dominator query works on the margins ``a_jc``: the scaled payoff of
pool strategy ``j`` minus the target's at opponent profile ``c``.  It then
tries, in order:

- a pure dominator (a pool strategy whose margins already dominate);
- the prefilter, on the columns themselves: a profile ``c`` at which the
  largest pool payoff ``max_j col_j[c]`` is ``<= t[c]`` (strict), or
  ``< t[c]`` (weak), rules out every mixture, and the query ends without an
  LP.  Columns equal to the target's own ``t``, whose margins are all zero,
  are left out of the maximum: weight on them changes no payoff sum.  This
  is the test "every margin at ``c`` is ``<= 0`` (``< 0``)", read before
  any margin is built, so the margins are built only for the LP;
- an exact LP over the pool weights, :func:`dominance_lab.simplex.solve_lp`,
  which states the strict and the weak program.  The target is dominated
  exactly when the optimum is positive, and the optimal weights are then
  the witness.

Ties are semantically meaningful for weak dominance, so no float ever
participates in a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from operator import ge, gt, sub
from typing import Sequence

from .game_model import (
    Game,
    InvalidProfileError,
    MixedStrategy,
    Restriction,
    _check_index,
    _is_index,
    indices_of,
)
from .simplex import solve_lp

__all__ = [
    "EliminationCertificate",
    "Mode",
    "NoCandidatesError",
    "Pool",
    "dominates",
    "find_mixed_dominator",
    "replay_certificate",
    "solve_lp",
]

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


# Read once per decision by the kernels.  Before Python 3.12, ``EnumType``
# defines ``__getattr__``, and each ``Mode.STRICT`` then costs about eight
# times a module-global read (165 against 19 ns on 3.11).
_STRICT = Mode.STRICT
_LOCAL = Pool.LOCAL


class NoCandidatesError(ValueError):
    """Raised when a dominator is requested from an empty pool."""


def _require_member(name: str, value: object, enum: type[Enum]) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a member of ``enum``.

    An enum's value in its place, such as ``"strict"``, compares unequal to
    every member and would silently take another branch.
    """
    if not isinstance(value, enum):
        raise ValueError(f"{name} must be a {enum.__name__} member, got {value!r}")


def _opponent_bases(game: Game, player: int, opp_masks: Sequence[int]) -> tuple[int, ...]:
    """Flat tensor offsets of the opponent profiles that ``opp_masks`` keep.

    ``opp_masks`` holds the kept-set masks of the players other than
    ``player``, in player order.  The offsets run in lexicographic profile
    order, the last opponent's index varying fastest; the LP's pivoting
    rule sees its rows in this order.  Empty when some opponent keeps
    nothing.
    """
    strides = game.strides[:player] + game.strides[player + 1 :]
    bases = [0]
    for mask, stride in zip(opp_masks, strides):
        steps = [s * stride for s in indices_of(mask)]
        bases = [b + step for b in bases for step in steps]
    return tuple(bases)


def _pool_mask(game: Game, masks: Sequence[int], player: int, pool: Pool) -> int:
    """The mask of ``player``'s dominator candidates at the kept-set ``masks``."""
    return masks[player] if pool is _LOCAL else (1 << game.shape[player]) - 1


def _column(game: Game, player: int, strategy: int, bases: Sequence[int]) -> tuple[int, ...]:
    """Scaled payoffs of a pure strategy against each opponent profile."""
    table = game.scaled_payoffs[player]
    step = strategy * game.strides[player]
    return tuple([table[b + step] for b in bases])


def _columns(game: Game, player: int, bases: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The :func:`_column` of each of ``player``'s strategies, indexed by strategy."""
    return tuple([_column(game, player, s, bases) for s in range(game.shape[player])])


def _mixed_column(
    game: Game, player: int, mixed: MixedStrategy, bases: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """``(D, column)``: the mixture's scaled payoffs times ``D``, as ints.

    ``D`` is the common denominator of the weights, so the column compares
    with ``D`` times a pure column exactly as the mixture's payoffs do.
    """
    scale = lcm(*(w.denominator for _, w in mixed.weights))
    table = game.scaled_payoffs[player]
    stride = game.strides[player]
    out = [0] * len(bases)
    for strategy, weight in mixed.weights:
        step = strategy * stride
        factor = weight.numerator * (scale // weight.denominator)
        for c, b in enumerate(bases):
            out[c] += factor * table[b + step]
    return scale, tuple(out)


def _beats(candidate: tuple[int, ...], target: tuple[int, ...], mode: Mode) -> bool:
    """Whether column ``candidate`` dominates column ``target`` entrywise in ``mode``.

    Both are int tuples of one length.  Weak: once every entry is ``>=``,
    some entry is ``>`` exactly when the tuples differ, a test that needs
    both to be tuples (a list never equals a tuple).

    The rule is stated three times: here, for :func:`dominates` (and so
    replay and the oracle grid); inline in :func:`_pure_dominator`, which
    applies it once per pool strategy; and, strict only, in the exact GS
    check, for every opponent context at once on bit sets over a dense
    index of the contexts: ``s`` beats ``t`` at exactly the contexts that
    hold none of the opponent profiles where ``s`` does not beat ``t``
    (:func:`dominance_lab.analysis._pure_strict_dominated`).
    """
    if mode is _STRICT:
        return all(map(gt, candidate, target))
    return candidate != target and all(map(ge, candidate, target))


def _pure_dominator(
    player: int,
    target: int,
    pool: Sequence[int],
    columns: Sequence[tuple[int, ...]],
    mode: Mode,
) -> int | None:
    """The first pool strategy whose column dominates ``target``'s, or None.

    ``columns`` holds each of the player's columns, as :func:`_columns`.
    With no opponent profile every strict comparison holds vacuously and no
    weak one has a witness.  The comparison is :func:`_beats`' rule, written
    out here so that a scan makes no call per pool strategy.
    """
    target_col = columns[target]
    if mode is _STRICT:
        for strategy in pool:
            if all(map(gt, columns[strategy], target_col)):
                return strategy
        return None
    for strategy in pool:
        column = columns[strategy]
        if column != target_col and all(map(ge, column, target_col)):
            return strategy
    return None


def _mixed_dominator(
    player: int,
    target: int,
    pool: Sequence[int],
    columns: Sequence[tuple[int, ...]],
    mode: Mode,
) -> MixedStrategy | None:
    """A pool mixture that dominates ``target``, or None; ``columns`` as :func:`_columns`."""
    if not pool:
        raise NoCandidatesError(f"no dominator candidates for player {player}")
    pure = _pure_dominator(player, target, pool, columns, mode)
    if pure is not None:
        return MixedStrategy.point_mass(player, pure)
    target_col = columns[target]
    if not target_col:
        return None  # weak: no profile can witness a strict gain
    # Prefilter: a profile at which no pool column beats the target's (none
    # is > in strict mode, none >= in weak mode) refutes every mixture, so
    # no LP is needed.  Weight on a copy of the target's column changes no
    # sum, so copies are left out; when every column is a copy, nothing is
    # dominated.  ``live[0]`` is passed twice so that ``max`` always gets at
    # least two arguments.
    live = [col for col in map(columns.__getitem__, pool) if col != target_col]
    if not live:
        return None
    strict = mode is _STRICT
    if not all(map(gt if strict else ge, map(max, live[0], *live), target_col)):
        return None
    margins = [tuple(map(sub, columns[s], target_col)) for s in pool]
    result = solve_lp(margins, strict)
    if result.value <= 0:
        return None
    return MixedStrategy(player, tuple((s, w) for s, w in zip(pool, result.weights) if w))


def _check_player_strategy(game: Game, player: int, strategy: int) -> None:
    if (
        type(player) is int
        and type(strategy) is int
        and 0 <= player < game.player_count
        and 0 <= strategy < game.shape[player]
    ):
        return
    _check_index(player, game.player_count, "player index")
    where = f" for player {game.players[player]!r}"
    _check_index(strategy, game.shape[player], "strategy index", where)


def _target_bases(restriction: Restriction, player: int, target: int) -> tuple[Game, tuple[int, ...]]:
    """Validate ``player`` and ``target``; the game and the restriction's opponent bases."""
    game = restriction.game
    _check_player_strategy(game, player, target)
    masks = restriction.masks
    return game, _opponent_bases(game, player, masks[:player] + masks[player + 1 :])


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
    pools are legal).  Exact arithmetic, no tolerance.  Raises ValueError
    when ``mode`` is not a :class:`Mode` member.
    """
    _require_member("mode", mode, Mode)
    game, bases = _target_bases(restriction, player, target)
    target_col = _column(game, player, target, bases)
    if isinstance(candidate, MixedStrategy):
        if candidate.player != player:
            raise ValueError(
                f"candidate belongs to player {candidate.player}, not {player}"
            )
        for s, _ in candidate.weights:
            _check_player_strategy(game, player, s)
        scale, candidate_col = _mixed_column(game, player, candidate, bases)
        target_col = tuple(scale * t for t in target_col)
    else:
        _check_player_strategy(game, player, candidate)
        candidate_col = _column(game, player, candidate, bases)
    return _beats(candidate_col, target_col, mode)


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
    Raises ValueError when ``pool`` or ``mode`` is not a member of its enum.
    """
    _require_member("pool", pool, Pool)
    _require_member("mode", mode, Mode)
    game, bases = _target_bases(restriction, player, target)
    candidates = indices_of(_pool_mask(game, restriction.masks, player, pool))
    return _mixed_dominator(player, target, candidates, _columns(game, player, bases), mode)


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
        """The certificate with labels in place of indices.

        Raises ValueError for a player or strategy outside the game, or a
        mixture of another player: indices no label can name; and for a
        ``mode`` or ``pool`` that is not a member of its enum.
        """
        _require_member("mode", self.mode, Mode)
        _require_member("pool", self.pool, Pool)
        game = self.context.game
        mixed = isinstance(self.dominator, MixedStrategy)
        if mixed and self.dominator.player != self.player:
            raise ValueError(
                f"dominator belongs to player {self.dominator.player}, not {self.player}"
            )
        support = self.dominator.support if mixed else (self.dominator,)
        for strategy in (self.eliminated, *support):
            _check_player_strategy(game, self.player, strategy)
        labels = game.strategies[self.player]
        if mixed:
            dominator: object = {
                labels[s]: str(w) for s, w in self.dominator.weights
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
    """Re-verify a certificate exactly: pool membership plus the inequalities.

    A certificate naming a player or strategy outside the game, or a mode
    or pool that is not a member of its enum, does not replay.
    """
    restriction = certificate.context
    player = certificate.player
    if not isinstance(certificate.mode, Mode) or not isinstance(certificate.pool, Pool):
        return False
    if not _is_index(player) or not 0 <= player < restriction.game.player_count:
        return False
    if certificate.eliminated not in restriction.kept[player]:
        return False
    pool_mask = _pool_mask(restriction.game, restriction.masks, player, certificate.pool)
    allowed = set(indices_of(pool_mask))
    dominator = certificate.dominator
    if isinstance(dominator, MixedStrategy):
        if dominator.player != player or not set(dominator.support) <= allowed:
            return False
    elif dominator not in allowed:
        return False
    try:
        return dominates(dominator, certificate.eliminated, restriction, player, certificate.mode)
    except InvalidProfileError:
        # A float or bool equal to a kept index passes the membership tests above.
        return False
