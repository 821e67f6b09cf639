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
from fractions import Fraction

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
    """Deterministically generate one game from the config."""
    rng = random.Random(config.seed)
    n = rng.randint(*config.players)
    counts = [rng.randint(*config.strategies) for _ in range(n)]
    players = tuple(f"P{i + 1}" for i in range(n))
    strategies = tuple(tuple(strategy_label(j) for j in range(c)) for c in counts)
    lo, hi = config.payoff_range
    size = 1
    for c in counts:
        size *= c

    tables: list[list[Fraction]] = []
    for _ in range(n):
        drawn: list[int] = []
        table = []
        for _ in range(size):
            if drawn and rng.random() < config.tie_bias:
                value = drawn[rng.randrange(len(drawn))]
            else:
                value = rng.randint(lo, hi)
            drawn.append(value)
            table.append(Fraction(value))
        tables.append(table)

    return Game(players, strategies, tuple(tuple(t) for t in tables))
