"""Finite strategic games with exact rational payoffs, and restrictions of them.

Payoffs are ``fractions.Fraction`` throughout.  Every dominance decision in
this package is an exact comparison, so no float may enter a payoff tensor;
the JSON loader accepts integers, ``"p/q"`` strings and integral floats such
as ``1.0``, which it reads as integers.  The loader flattens a well-formed
payoff table in one pass per level; a recursive walk runs only on a table
that fails those checks, to name its first fault in document order.  It
passes int and ``Fraction`` entries through as they are and parses only the
others; :class:`Game` alone turns entries into ``Fraction`` objects, one per
distinct value of the game, and into each player's scaled ints.

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
from functools import cache, lru_cache
from importlib import resources
from itertools import chain, repeat
from math import lcm, prod
from typing import Iterable, Sequence

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


_INT_ONLY = {int}
_EXACT_TYPES = (int, Fraction)
_SEQUENCES = (list, tuple)


def _is_index(value: object) -> bool:
    """Whether ``value`` can be an index or a kept-set mask: an ``int``, not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_index(value: object, count: int | None, label: str, where: str = "") -> None:
    """Raise InvalidProfileError unless ``value`` is an index in ``range(count)``.

    With ``count`` None, any index not below 0 passes.  ``label`` and
    ``where`` name the index in the message, as in "strategy index 4 out of
    range for player 'Row'".
    """
    if type(value) is not int and not _is_index(value):
        raise InvalidProfileError(f"{label} {value!r}{where} is not an int")
    if value < 0 or count is not None and value >= count:
        raise InvalidProfileError(f"{label} {value} out of range{where}")


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
        players: Player display names, one per player, all distinct
            strings.
        strategies: Per player, the ordered tuple of strategy labels;
            labels are strings, distinct within a player, and are I/O
            metadata only.
            Strategy identity everywhere else is (player index, strategy
            index) against this game.
        payoffs: Per player, a flat payoff tensor over full profiles,
            row-major in player order (the last player's index varies
            fastest).
        shape: Per player, the number of strategies.
        strides: Row-major strides of the payoff tensors.
        scaled_payoffs: Per player, the payoff tensor times its least
            common denominator, as ints.  One positive factor per player
            keeps every comparison between that player's payoffs, and the
            sign of every difference, so dominance decisions can compare
            these ints instead of the Fractions.
        scales: Per player, that least common denominator (1 for an int
            table).  A table is its scaled table over its scale, so
            ``players``, ``strategies``, ``scaled_payoffs`` and ``scales``
            are equal exactly when two games are, and hash as ints.

    ``__post_init__`` normalizes the three inputs to tuples and derives
    ``shape``, ``strides``, ``scaled_payoffs`` and ``scales`` from them at
    construction; the derived fields take no part in ``==``, ``hash`` or
    ``repr``.  It is
    the one place where payoff entries, ints or ``Fraction`` objects, become
    exact: equal entries share one ``Fraction`` across all tables.  A table
    of plain ``int`` entries is its own scaled table, so it is not coerced
    entry by entry.
    """

    players: tuple[str, ...]
    strategies: tuple[tuple[str, ...], ...]
    payoffs: tuple[tuple[Fraction, ...], ...]
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    strides: tuple[int, ...] = field(init=False, repr=False, compare=False)
    scaled_payoffs: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    scales: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        strategies = tuple(self.strategies)
        # A string is a sequence of characters, not of labels.
        if isinstance(self.players, str) or any(isinstance(s, str) for s in strategies):
            raise GameFormatError(
                "players and each strategy list must be sequences of labels, not strings"
            )
        object.__setattr__(self, "players", tuple(self.players))
        object.__setattr__(self, "strategies", tuple(tuple(s) for s in strategies))
        payoffs = []
        scaled = []
        scales = []
        # One Fraction per distinct value, shared by every table of the game.
        shared: dict[int | Fraction, Fraction] = {}
        for table in self.payoffs:
            table = tuple(table)
            if set(map(type, table)) == _INT_ONLY:
                # An int table is its own scaled table.  Keyed by int, so that
                # the lookups compare ints rather than an int with a Fraction.
                for value in set(table).difference(shared):
                    shared[value] = Fraction(value)
                payoffs.append(tuple(map(shared.__getitem__, table)))
                scaled.append(table)
                scales.append(1)
                continue
            table = tuple(map(_coerce_payoff, table))
            table = tuple(map(shared.setdefault, table, table))
            scale = lcm(*{x.denominator for x in table})
            payoffs.append(table)
            scaled.append(tuple(x.numerator * (scale // x.denominator) for x in table))
            scales.append(scale)
        object.__setattr__(self, "payoffs", tuple(payoffs))
        n = len(self.players)
        if n < 2:
            raise GameFormatError("a game needs at least 2 players")
        for name in self.players:
            if not isinstance(name, str):
                raise GameFormatError(f"player name {name!r} must be a string")
        if len(set(self.players)) != n:
            raise GameFormatError("duplicate player name")
        if len(self.strategies) != n:
            raise GameFormatError("one strategy list required per player")
        for name, labels in zip(self.players, self.strategies):
            if not labels:
                raise GameFormatError(f"player {name!r} has no strategies")
            if not all(isinstance(label, str) for label in labels):
                raise GameFormatError(f"strategy labels of player {name!r} must be strings")
            if len(set(labels)) != len(labels):
                raise GameFormatError(f"duplicate strategy name for player {name!r}")
        shape = tuple(len(labels) for labels in self.strategies)
        size = prod(shape)
        if len(self.payoffs) != n:
            raise GameFormatError("one payoff tensor required per player")
        for name, table in zip(self.players, self.payoffs):
            if len(table) != size:
                raise GameFormatError(
                    f"payoff tensor shape mismatch for player {name!r}: "
                    f"expected {size} entries, got {len(table)}"
                )
        strides = [1] * n
        for k in range(n - 2, -1, -1):
            strides[k] = strides[k + 1] * shape[k + 1]
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "strides", tuple(strides))
        object.__setattr__(self, "scaled_payoffs", tuple(scaled))
        object.__setattr__(self, "scales", tuple(scales))

    @property
    def player_count(self) -> int:
        return len(self.players)

    @property
    def total_strategies(self) -> int:
        return sum(self.shape)

    def flat_index(self, profile: Sequence[int]) -> int:
        """Row-major index of a full profile into a payoff tensor."""
        if len(profile) != self.player_count:
            raise InvalidProfileError(
                f"profile has {len(profile)} entries for {self.player_count} players"
            )
        idx = 0
        for name, choice, count, stride in zip(self.players, profile, self.shape, self.strides):
            _check_index(choice, count, "strategy index", f" for player {name!r}")
            idx += choice * stride
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
        strings).  A well-formed table is flattened one level at a time;
        only a table that fails those shape checks is walked recursively,
        in document order, so that a table with several faults reports the
        first of them.  Int and ``Fraction`` entries are passed on as they
        are, and only the others go through :func:`parse_rational`; the
        constructor makes every entry a shared ``Fraction``.
        """
        n = len(players)
        shape = tuple(len(s) for s in strategies)
        # With no strategy lists there is no table to walk; the constructor
        # rejects the game.
        values = _flat_entries(table, shape, n) if shape else []
        if values is None:
            values = []
            _flatten_payoffs(table, shape, n, values, ())
        return cls(players, strategies, [values[i::n] for i in range(n)])


def _flat_entries(table: object, shape: tuple[int, ...], n: int) -> list[int | Fraction] | None:
    """The payoff entries of a well-formed nested table in document order, or None.

    Each level is checked and flattened by C-level calls: every node must
    be a list or tuple of its level's length (``n`` for the leaves), or the
    answer is None.  Plain int entries are returned as they are; otherwise
    the entries go through :func:`_exact_entries`, which parses each
    distinct string once.
    """
    level = [table]
    for count in (*shape, n):
        if not all(map(isinstance, level, repeat(_SEQUENCES))):
            return None
        if not all(map(count.__eq__, map(len, level))):
            return None
        level = list(chain.from_iterable(level))
    if set(map(type, level)) <= _INT_ONLY:
        return level
    return _exact_entries(level)


def _exact_entries(entries: list) -> list[int | Fraction]:
    """``entries`` in order with each non-int, non-``Fraction`` one parsed, ``bool`` included.

    A string is parsed at its first occurrence only, so the first fault is raised first.
    """
    parsed: dict[str, Fraction] = {}
    values = []
    for x in entries:
        if type(x) is str:
            if x not in parsed:
                parsed[x] = parse_rational(x)
            x = parsed[x]
        elif type(x) is not int and not isinstance(x, Fraction):
            x = parse_rational(x)
        values.append(x)
    return values


def _flatten_payoffs(
    node: object,
    shape: tuple[int, ...],
    n: int,
    values: list[int | Fraction],
    prefix: tuple[int, ...],
) -> None:
    """Append the payoffs of the nested table ``node`` to ``values``, leaf by leaf.

    Each leaf goes through :func:`_exact_entries`.  The loader walks only
    a table that failed :func:`_flat_entries`' checks, to raise its first
    fault in document order.

    ``shape`` holds the lengths of ``node``'s axis and those below it,
    ``prefix`` the indices that lead to ``node``, and each leaf holds ``n``
    payoffs.  The recursion runs over the inner axes only: the leaves of
    the last axis are checked in one loop, and a path string is
    built only for the error message.  A module-level function rather than
    a recursive closure, which would form a reference cycle that keeps every
    parsed table alive until a full garbage collection.
    """
    if not isinstance(node, _SEQUENCES) or len(node) != shape[0]:
        raise GameFormatError(
            f"payoff tensor shape mismatch at {_path(prefix)}: expected {shape[0]} entries"
        )
    if len(shape) > 1:
        inner = shape[1:]
        for j, child in enumerate(node):
            _flatten_payoffs(child, inner, n, values, (*prefix, j))
        return
    for j, leaf in enumerate(node):
        if not isinstance(leaf, _SEQUENCES) or len(leaf) != n:
            raise GameFormatError(
                f"payoff tensor shape mismatch at {_path((*prefix, j))}: "
                f"expected a list of {n} payoffs"
            )
        values.extend(_exact_entries(leaf))


def _path(prefix: tuple[int, ...]) -> str:
    """The document path of the payoff node at the indices ``prefix``."""
    return "payoffs" + "".join(f"[{j}]" for j in prefix)


@lru_cache(maxsize=4096)
def indices_of(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending; one step per set bit.

    The last 4,096 masks' answers are cached: the elimination engine and the
    lattice walks unpack the same few kept-set masks over and over, and all
    of a 12-strategy player's masks fit.  A negative mask has infinitely
    many set bits and raises ``ValueError``.
    """
    if mask < 0:
        raise ValueError(f"negative mask {mask} has no finite set of bits")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class Restriction:
    """Per-player subsets of a parent game's strategy indices (views, not copies).

    Components may be empty.  ``kept`` is normalized to sorted index tuples,
    which fixes the deterministic enumeration order used everywhere else.
    ``masks`` holds the same subsets as bitmasks (bit ``s`` of player ``i``'s
    mask is set when strategy ``s`` is kept) and takes no part in equality,
    hashing or repr.  Either constructor reads ``kept`` back off the masks;
    every kept index must be an ``int`` (not a ``bool``) in range.
    """

    game: Game
    kept: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        game = self.game
        if len(self.kept) != game.player_count:
            raise InvalidProfileError("one kept-set required per player")
        masks = []
        for name, subset, count in zip(game.players, self.kept, game.shape):
            mask = 0
            for index in subset:
                if not _is_index(index):
                    raise InvalidProfileError(
                        f"kept index {index!r} of player {name!r} is not an int"
                    )
                if not 0 <= index < count:
                    raise InvalidProfileError(f"kept-set out of range for player {name!r}")
                mask |= 1 << index
            masks.append(mask)
        object.__setattr__(self, "kept", tuple(map(indices_of, masks)))
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def full(cls, game: Game) -> "Restriction":
        return cls.from_masks(game, tuple((1 << k) - 1 for k in game.shape))

    @classmethod
    def from_masks(cls, game: Game, masks: Iterable[int]) -> "Restriction":
        """The restriction whose per-player kept-sets are the bits of ``masks``.

        Each mask must be an ``int`` (not a ``bool``) with no bit at or above
        its player's strategy count.  The masks already say everything
        ``__post_init__`` would derive, so it is not run: ``kept`` is read
        off the bits, in ascending order.
        """
        masks = tuple(masks)
        if len(masks) != game.player_count:
            raise InvalidProfileError("one kept-set required per player")
        for name, mask, count in zip(game.players, masks, game.shape):
            if type(mask) is not int and not _is_index(mask):
                raise InvalidProfileError(
                    f"kept-set mask {mask!r} of player {name!r} is not an int"
                )
            if mask < 0:
                raise InvalidProfileError("kept-set masks must not be negative")
            if mask >> count:
                raise InvalidProfileError(f"kept-set out of range for player {name!r}")
        restriction = object.__new__(cls)
        object.__setattr__(restriction, "game", game)
        object.__setattr__(restriction, "kept", tuple(map(indices_of, masks)))
        object.__setattr__(restriction, "masks", masks)
        return restriction

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
    The player and every strategy index must be an ``int`` (not a ``bool``)
    and not negative; their upper bounds depend on a game.
    """

    player: int
    weights: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        _check_index(self.player, None, "player index")
        weights = tuple(self.weights)
        if len(weights) == 1:
            strategy, weight = weights[0]
            # A point mass needs neither the sum nor the sort.
            if type(weight) in _EXACT_TYPES and weight == 1:
                _check_index(strategy, None, "strategy index")
                object.__setattr__(self, "weights", ((strategy, _coerce_payoff(weight)),))
                return
        cleaned = []
        total = Fraction(0)
        seen = set()
        for strategy, weight in weights:
            _check_index(strategy, None, "strategy index")
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
    _check_index(player, game.player_count, "player index")
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
    """Inverse of :func:`game_from_json_dict`, with "p/q" strings for payoffs.

    The row-major leaves are grouped into nested lists one axis at a time,
    the last player's first.  Unlike a recursive closure, this leaves no
    reference cycle that would keep ``game`` alive until a full collection.
    """
    nodes: list = [
        [int(x) if x.denominator == 1 else str(x) for x in leaf]
        for leaf in zip(*game.payoffs)
    ]
    for k in reversed(game.shape):
        nodes = [nodes[j : j + k] for j in range(0, len(nodes), k)]
    return {
        "players": [
            {"name": name, "strategies": list(labels)}
            for name, labels in zip(game.players, game.strategies)
        ],
        "payoffs": nodes[0],
    }


@cache
def builtin_game(name: str) -> Game:
    """Load one of the games bundled with the package (``section3``, ``example41``).

    Each game is read and parsed once per process; a :class:`Game` is
    immutable, so every caller can share it.
    """
    path = resources.files("dominance_lab").joinpath(f"games/{name}.json")
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no bundled game named {name!r}") from None
    return game_from_json_dict(json.loads(text))
