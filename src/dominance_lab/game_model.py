"""Finite strategic games with exact rational payoffs, and restrictions of them.

Payoffs are ``fractions.Fraction`` throughout.  Every dominance decision in
this package is an exact comparison, so no float may enter a payoff tensor;
the JSON loader accepts integers and ``"p/q"`` strings only.

A :class:`Restriction` is a per-player subset of a fixed parent game's
strategy indices.  Components may be empty; the set of all restrictions of a
game, ordered componentwise, is a finite lattice with the full game at the
top and the all-empty restriction at the bottom.  A restriction carries each
subset twice: as the sorted index tuple ``kept``, for labels and output,
and as the bitmask ``masks``, from which every dominance query takes its
dominator pool and its opponent profiles, and by which the elimination
engine keys its memo.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import lcm
from typing import Sequence

__all__ = [
    "Fraction",
    "Game",
    "GameFormatError",
    "InvalidDistributionError",
    "InvalidProfileError",
    "MixedStrategy",
    "Restriction",
    "builtin_game",
    "game_from_json_dict",
    "game_to_json_dict",
    "parse_rational",
    "payoff",
]


class GameFormatError(ValueError):
    """Raised when a game document violates the JSON game format."""


class InvalidProfileError(ValueError):
    """Raised when a strategy profile does not fit the game it is used with."""


class InvalidDistributionError(ValueError):
    """Raised when mixed-strategy weights are negative or do not sum to 1."""


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(value: int | str) -> Fraction:
    """Parse a payoff entry: a plain integer or a ``"p/q"`` string.

    Floats are rejected unless they are integral, since they cannot express
    exact non-integer rationals; write ``"1/3"`` instead of ``0.333...``.
    """
    if isinstance(value, bool):
        raise GameFormatError(f"malformed rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value.is_integer():
            return Fraction(int(value))
        raise GameFormatError(
            f"malformed rational: {value!r} (use a 'p/q' string for non-integers)"
        )
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise GameFormatError(f"malformed rational: {value!r}")
        if "/" in value:
            num, den = value.split("/")
            if int(den) == 0:
                raise GameFormatError(f"malformed rational: {value!r} (zero denominator)")
            return Fraction(int(num), int(den))
        return Fraction(int(value))
    raise GameFormatError(f"malformed rational: {value!r}")


def _coerce_payoff(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"payoff entries must be Fraction or int, got {value!r}")


@dataclass(frozen=True)
class Game:
    """An n-player normal-form game with exact rational payoffs.

    Attributes:
        players: Player display names, one per player, all distinct.
        strategies: Per player, the ordered tuple of strategy labels;
            labels are distinct within a player and are I/O metadata only.
            Strategy identity everywhere else is (player index, strategy
            index) against this game.
        payoffs: Per player, a flat payoff tensor over full profiles,
            row-major in player order (the last player's index varies
            fastest).
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "strategies", tuple(tuple(s) for s in self.strategies))
        object.__setattr__(
            self,
            "payoffs",
            tuple(tuple(_coerce_payoff(x) for x in table) for table in self.payoffs),
        )
        n = len(self.players)
        if n < 2:
            raise GameFormatError("a game needs at least 2 players")
        if len(set(self.players)) != n:
            raise GameFormatError("duplicate player name")
        if len(self.strategies) != n:
            raise GameFormatError("one strategy list required per player")
        for name, labels in zip(self.players, self.strategies):
            if not labels:
                raise GameFormatError(f"player {name!r} has no strategies")
            if len(set(labels)) != len(labels):
                raise GameFormatError(f"duplicate strategy name for player {name!r}")
        size = 1
        for labels in self.strategies:
            size *= len(labels)
        if len(self.payoffs) != n:
            raise GameFormatError("one payoff tensor required per player")
        for name, table in zip(self.players, self.payoffs):
            if len(table) != size:
                raise GameFormatError(
                    f"payoff tensor shape mismatch for player {name!r}: "
                    f"expected {size} entries, got {len(table)}"
                )
        shape = self.shape
        strides = [1] * n
        for k in range(n - 2, -1, -1):
            strides[k] = strides[k + 1] * shape[k + 1]
        object.__setattr__(self, "_strides", tuple(strides))
        scaled = []
        for table in self.payoffs:
            # A set, so that lcm gets one argument per distinct denominator.
            scale = lcm(*{x.denominator for x in table})
            scaled.append(tuple(x.numerator * (scale // x.denominator) for x in table))
        object.__setattr__(self, "_scaled_payoffs", tuple(scaled))

    @property
    def player_count(self) -> int:
        return len(self.players)

    @property
    def strides(self) -> tuple[int, ...]:
        """Row-major strides of the payoff tensors."""
        return self._strides  # type: ignore[attr-defined]

    @property
    def scaled_payoffs(self) -> tuple[tuple[int, ...], ...]:
        """Per player, the payoff tensor times its least common denominator, as ints.

        One positive factor per player keeps every comparison between that
        player's payoffs, and the sign of every difference, so dominance
        decisions can compare these ints instead of the Fractions.
        """
        return self._scaled_payoffs  # type: ignore[attr-defined]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)

    @property
    def total_strategies(self) -> int:
        return sum(len(s) for s in self.strategies)

    def flat_index(self, profile: Sequence[int]) -> int:
        """Row-major index of a full profile into a payoff tensor."""
        if len(profile) != self.player_count:
            raise InvalidProfileError(
                f"profile has {len(profile)} entries for {self.player_count} players"
            )
        idx = 0
        strides = self.strides
        for k, (choice, count) in enumerate(zip(profile, self.shape)):
            if not 0 <= choice < count:
                raise InvalidProfileError(
                    f"strategy index {choice} out of range for player {self.players[k]!r}"
                )
            idx += choice * strides[k]
        return idx

    def strategy_index(self, player: int, label: str) -> int:
        try:
            return self.strategies[player].index(label)
        except ValueError:
            raise KeyError(
                f"player {self.players[player]!r} has no strategy named {label!r}"
            ) from None

    @classmethod
    def from_tables(
        cls,
        players: Sequence[str],
        strategies: Sequence[Sequence[str]],
        table: object,
    ) -> "Game":
        """Build a game from the nested payoff layout used by the JSON format.

        ``table`` is nested row-major in player order; each leaf is a
        sequence of one payoff per player (ints, Fractions, or "p/q"
        strings).
        """
        shape = tuple(len(s) for s in strategies)
        flat: list[list[Fraction]] = [[] for _ in players]
        _flatten_payoffs(table, shape, flat, "payoffs")
        return cls(tuple(players), tuple(tuple(s) for s in strategies), tuple(tuple(t) for t in flat))


def _flatten_payoffs(
    node: object, shape: tuple[int, ...], flat: list[list[Fraction]], path: str
) -> None:
    """Append the leaves of the nested table ``node`` to ``flat``, one list per player.

    A module-level function rather than a recursive closure, which would
    form a reference cycle that keeps every parsed table alive until a full
    garbage collection.
    """
    n = len(flat)
    if not shape:
        if not isinstance(node, (list, tuple)) or len(node) != n:
            raise GameFormatError(
                f"payoff tensor shape mismatch at {path}: "
                f"expected a list of {n} payoffs"
            )
        for i, entry in enumerate(node):
            flat[i].append(entry if isinstance(entry, Fraction) else parse_rational(entry))
        return
    if not isinstance(node, (list, tuple)) or len(node) != shape[0]:
        raise GameFormatError(
            f"payoff tensor shape mismatch at {path}: "
            f"expected {shape[0]} entries"
        )
    for j, child in enumerate(node):
        _flatten_payoffs(child, shape[1:], flat, f"{path}[{j}]")


def indices_of(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@dataclass(frozen=True)
class Restriction:
    """Per-player subsets of a parent game's strategy indices (views, not copies).

    Components may be empty.  ``kept`` is normalized to sorted index tuples,
    which fixes the deterministic enumeration order used everywhere else.
    ``masks`` holds the same subsets as bitmasks (bit ``s`` of player ``i``'s
    mask is set when strategy ``s`` is kept); it is derived from ``kept`` and
    takes no part in equality, hashing or repr.
    """

    game: Game
    kept: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.kept) != self.game.player_count:
            raise InvalidProfileError("one kept-set required per player")
        normalized = []
        masks = []
        for player, subset in enumerate(self.kept):
            indices = sorted(set(subset))
            count = self.game.shape[player]
            if indices and (indices[0] < 0 or indices[-1] >= count):
                raise InvalidProfileError(
                    f"kept-set out of range for player {self.game.players[player]!r}"
                )
            normalized.append(tuple(indices))
            masks.append(sum(1 << i for i in indices))
        object.__setattr__(self, "kept", tuple(normalized))
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def full(cls, game: Game) -> "Restriction":
        return cls(game, tuple(tuple(range(k)) for k in game.shape))

    @classmethod
    def from_masks(cls, game: Game, masks: Sequence[int]) -> "Restriction":
        """The restriction whose per-player kept-sets are the bits of ``masks``."""
        return cls(game, tuple(indices_of(m) for m in masks))

    @property
    def is_subgame(self) -> bool:
        return all(self.kept)

    def issubset(self, other: "Restriction") -> bool:
        if self.game != other.game:
            raise ValueError("restrictions of different games are not comparable")
        return all(not a & ~b for a, b in zip(self.masks, other.masks))

    def kept_names(self) -> dict[str, list[str]]:
        """Kept strategy labels keyed by player name, in player order."""
        return {
            self.game.players[i]: [self.game.strategies[i][s] for s in self.kept[i]]
            for i in range(self.game.player_count)
        }


@dataclass(frozen=True)
class MixedStrategy:
    """An exact probability distribution over one player's strategies.

    Weights are stored as a sorted tuple of (strategy index, weight) pairs
    with zero entries dropped; they must be nonnegative and sum to exactly 1.
    """

    player: int
    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        cleaned = []
        total = Fraction(0)
        seen = set()
        for strategy, weight in self.weights:
            weight = _coerce_payoff(weight)
            if strategy in seen:
                raise InvalidDistributionError(f"duplicate weight for strategy {strategy}")
            seen.add(strategy)
            if weight < 0:
                raise InvalidDistributionError(f"negative weight {weight} on strategy {strategy}")
            total += weight
            if weight > 0:
                cleaned.append((strategy, weight))
        if total != 1:
            raise InvalidDistributionError(f"weights sum to {total}, expected 1")
        cleaned.sort()
        object.__setattr__(self, "weights", tuple(cleaned))

    @classmethod
    def point_mass(cls, player: int, strategy: int) -> "MixedStrategy":
        return cls(player, ((strategy, Fraction(1)),))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.weights)


def payoff(game: Game, player: int, profile: Sequence[int]) -> Fraction:
    """Exact payoff of ``player`` at a full strategy profile."""
    if not 0 <= player < game.player_count:
        raise InvalidProfileError(f"player index {player} out of range")
    return game.payoffs[player][game.flat_index(profile)]


def game_from_json_dict(doc: object) -> Game:
    """Parse the JSON game document format.

    The document has ``players`` (a list of ``{"name": ..., "strategies":
    [...]}`` objects) and ``payoffs`` (nested lists, row-major in player
    order, whose leaves are lists of one payoff per player; payoffs are
    integers or ``"p/q"`` strings).
    """
    if not isinstance(doc, dict):
        raise GameFormatError("game document must be a JSON object")
    players_block = doc.get("players")
    if not isinstance(players_block, list) or len(players_block) < 2:
        raise GameFormatError("'players' must be a list of at least 2 player objects")
    names: list[str] = []
    strategies: list[list[str]] = []
    for entry in players_block:
        if not isinstance(entry, dict) or "name" not in entry or "strategies" not in entry:
            raise GameFormatError("each player needs 'name' and 'strategies'")
        name = entry["name"]
        labels = entry["strategies"]
        if not isinstance(name, str):
            raise GameFormatError("player 'name' must be a string")
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise GameFormatError(f"strategies of player {name!r} must be a list of strings")
        names.append(name)
        strategies.append(labels)
    if "payoffs" not in doc:
        raise GameFormatError("game document is missing 'payoffs'")
    return Game.from_tables(names, strategies, doc["payoffs"])


def game_to_json_dict(game: Game) -> dict:
    """Inverse of :func:`game_from_json_dict`, with "p/q" strings for payoffs."""
    n = game.player_count

    def build(depth: int, prefix: tuple[int, ...]) -> object:
        if depth == n:
            idx = game.flat_index(prefix)
            return [
                int(game.payoffs[i][idx])
                if game.payoffs[i][idx].denominator == 1
                else str(game.payoffs[i][idx])
                for i in range(n)
            ]
        return [build(depth + 1, prefix + (j,)) for j in range(game.shape[depth])]

    return {
        "players": [
            {"name": game.players[i], "strategies": list(game.strategies[i])}
            for i in range(n)
        ],
        "payoffs": build(0, ()),
    }


def builtin_game(name: str) -> Game:
    """Load one of the games bundled with the package (``section3``, ``example41``)."""
    path = resources.files("dominance_lab").joinpath(f"games/{name}.json")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no bundled game named {name!r}") from None
    return game_from_json_dict(json.loads(text))
