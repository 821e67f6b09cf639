"""Small random games from a seed, for property suites and witness mining.

Payoffs come from a small integer grid so that found counterexamples stay
hand-auditable and LP tableaux stay tiny.  ``tie_bias`` deliberately reuses
already-drawn values: weak-dominance phenomena need payoff ties, which
uniform draws over a wide grid would almost never produce.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace

from .game_model import Game

__all__ = ["GeneratorConfig", "generate", "strategy_label"]


def strategy_label(index: int) -> str:
    letters = string.ascii_uppercase
    if index < len(letters):
        return letters[index]
    return f"S{index + 1}"


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape, payoff grid and tie behavior of one random game.

    ``players`` and ``strategies`` are inclusive ranges sampled per game.
    """

    seed: int
    players: tuple[int, int] = (2, 2)
    strategies: tuple[int, int] = (2, 4)
    payoff_range: tuple[int, int] = (-5, 5)
    tie_bias: float = 0.25

    def __post_init__(self) -> None:
        for name in ("players", "strategies", "payoff_range"):
            bounds = getattr(self, name)
            if not all(type(bound) is int for bound in bounds):
                raise ValueError(f"{name} bounds {bounds} must be ints")
        lo, hi = self.players
        if not 2 <= lo <= hi <= 4:
            raise ValueError(f"players range {self.players} must lie within 2..4")
        lo, hi = self.strategies
        if not 1 <= lo <= hi:
            raise ValueError(f"strategies range {self.strategies} is empty or invalid")
        lo, hi = self.payoff_range
        if lo > hi:
            raise ValueError(f"payoff range {self.payoff_range} is empty")
        if not 0 <= self.tie_bias <= 1:
            raise ValueError(f"tie_bias {self.tie_bias} must lie in [0, 1]")

    def with_seed(self, seed: int) -> "GeneratorConfig":
        return replace(self, seed=seed)


def generate(config: GeneratorConfig) -> Game:
    """Deterministically generate one game from the config.

    Every draw is ``rng.choice`` over a ``range`` or over the values drawn
    so far, one ``_randbelow`` each, as ``randint`` and ``randrange`` make
    it: the same seed and config give the same game on Python 3.10-3.13.
    """
    rng = random.Random(config.seed)
    choice = rng.choice
    n = choice(_inclusive(config.players))
    strategy_counts = _inclusive(config.strategies)
    counts = [choice(strategy_counts) for _ in range(n)]
    players = tuple(f"P{i + 1}" for i in range(n))
    strategies = tuple(tuple(strategy_label(j) for j in range(c)) for c in counts)
    grid = _inclusive(config.payoff_range)
    draw = rng.random
    tie_bias = config.tie_bias
    size = 1
    for c in counts:
        size *= c

    tables: list[list[int]] = []
    for _ in range(n):
        # The first value has nothing to tie with, so it draws no tie coin.
        drawn = [choice(grid)]
        for _ in range(size - 1):
            drawn.append(choice(drawn) if draw() < tie_bias else choice(grid))
        tables.append(drawn)

    return Game(players, strategies, tables)


def _inclusive(bounds: tuple[int, int]) -> range:
    lo, hi = bounds
    return range(lo, hi + 1)
