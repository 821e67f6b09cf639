"""The eight elimination operators and their iteration to a fixpoint.

An operator kind combines a dominance mode (strict/weak), a dominator pool
(local/global) and a mixing flavor (pure/mixed); the eight combinations are
named LS, MLS, GS, MGS, LW, MLW, GW and MGW.  Applying an operator to a
restriction removes, for every player simultaneously, each kept strategy
that has a dominator of the required flavor, evaluated against the current
restriction's opponent profiles.  Each removal carries a replayable
certificate.

:class:`EliminationEngine` memoizes dominance queries per game, keyed by
the kept-set bitmasks that every :class:`Restriction` carries as ``masks``,
so that repeated applications across a restriction lattice stay cheap.  The
public functions build a fresh engine per call and are therefore pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .dominance import (
    EliminationCertificate,
    Mode,
    Pool,
    _mixed_dominator,
    _opponent_bases,
    _pure_dominator,
)
from .game_model import Game, MixedStrategy, Restriction, indices_of

__all__ = [
    "ALL_OPERATORS",
    "EliminationEngine",
    "EliminationStep",
    "GS",
    "GW",
    "IterationTrace",
    "LS",
    "LW",
    "MGS",
    "MGW",
    "MLS",
    "MLW",
    "Mixing",
    "OperatorKind",
    "apply_operator",
    "iterate",
    "operator_from_name",
]


class Mixing(Enum):
    PURE = "pure"
    MIXED = "mixed"


@dataclass(frozen=True)
class OperatorKind:
    """One of the eight elimination operators."""

    mode: Mode
    pool: Pool
    mixing: Mixing
    # The kind's index among the eight (bits: weak, global, mixed), so that
    # per-kind caches are found without hashing three enums.
    slot: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        slot = (self.mode is Mode.WEAK) << 2 | (self.pool is Pool.GLOBAL) << 1
        object.__setattr__(self, "slot", slot | (self.mixing is Mixing.MIXED))

    @property
    def name(self) -> str:
        return (
            ("M" if self.mixing is Mixing.MIXED else "")
            + ("L" if self.pool is Pool.LOCAL else "G")
            + ("S" if self.mode is Mode.STRICT else "W")
        )

    def __str__(self) -> str:
        return self.name


LS = OperatorKind(Mode.STRICT, Pool.LOCAL, Mixing.PURE)
MLS = OperatorKind(Mode.STRICT, Pool.LOCAL, Mixing.MIXED)
GS = OperatorKind(Mode.STRICT, Pool.GLOBAL, Mixing.PURE)
MGS = OperatorKind(Mode.STRICT, Pool.GLOBAL, Mixing.MIXED)
LW = OperatorKind(Mode.WEAK, Pool.LOCAL, Mixing.PURE)
MLW = OperatorKind(Mode.WEAK, Pool.LOCAL, Mixing.MIXED)
GW = OperatorKind(Mode.WEAK, Pool.GLOBAL, Mixing.PURE)
MGW = OperatorKind(Mode.WEAK, Pool.GLOBAL, Mixing.MIXED)

ALL_OPERATORS: tuple[OperatorKind, ...] = (LS, MLS, GS, MGS, LW, MLW, GW, MGW)


def operator_from_name(name: str) -> OperatorKind:
    for kind in ALL_OPERATORS:
        if kind.name.lower() == name.lower():
            return kind
    raise ValueError(f"unknown operator {name!r} (expected one of "
                     f"{', '.join(k.name.lower() for k in ALL_OPERATORS)})")


@dataclass(frozen=True)
class EliminationStep:
    """One synchronized sweep: ``after`` is ``before`` minus the certified removals."""

    before: Restriction
    after: Restriction
    certificates: tuple[EliminationCertificate, ...]

    @property
    def changed(self) -> bool:
        return self.before.kept != self.after.kept

    def to_dict(self) -> dict:
        return {
            "before": self.before.kept_names(),
            "after": self.after.kept_names(),
            "certificates": [c.to_dict() for c in self.certificates],
        }


@dataclass(frozen=True)
class IterationTrace:
    """The full iteration of an operator from the top of the lattice.

    The final step always satisfies ``after == before`` (the fixpoint test),
    so a game with nothing to eliminate yields a single confirming step.
    """

    operator: OperatorKind
    steps: tuple[EliminationStep, ...]
    fixpoint: Restriction

    @property
    def eliminating_steps(self) -> int:
        return sum(1 for s in self.steps if s.changed)

    def certificates(self) -> tuple[EliminationCertificate, ...]:
        return tuple(c for s in self.steps for c in s.certificates)

    def to_dict(self) -> dict:
        return {
            "operator": self.operator.name,
            "eliminating_steps": self.eliminating_steps,
            "steps": [s.to_dict() for s in self.steps],
            "fixpoint": self.fixpoint.kept_names(),
        }


class EliminationEngine:
    """Per-game memo for dominance queries and operator applications.

    ``survivors`` keeps one dict per operator kind, keyed by the kept-set
    masks.  ``dominator`` keeps one dict per (mode, mixing) pair, keyed by
    (player, target, pool mask, opponent masks), so local and global pools
    share entries whenever the pools coincide.  Both are found by list
    index, not by hashing the enums.  GS and GW also keep, per (player,
    opponent masks), the mask of targets decided so far and the mask of
    those found dominated: their pool is the full strategy set, so the
    answer does not depend on the player's own kept set.  Every target is
    decided at most once per context, and only when some kept set asks.
    All answers are deterministic, so caching never changes a result, only
    its cost.
    """

    def __init__(self, game: Game) -> None:
        self.game = game
        self.full_masks = tuple((1 << k) - 1 for k in game.shape)
        self.empty_opponent_queries = 0
        self._bases: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
        # Indexed [mode is WEAK][mixing is MIXED].
        self._queries: list[list[dict[tuple, int | MixedStrategy | None]]] = [
            [{}, {}],
            [{}, {}],
        ]
        # Indexed [kind.slot].
        self._survivors: list[dict[tuple[int, ...], tuple[int, ...]]] = [{} for _ in range(8)]
        # GS and GW only, indexed [mode is WEAK]: (decided, dominated) masks.
        self._dominated: tuple[dict[tuple[int, tuple[int, ...]], tuple[int, int]], ...] = ({}, {})

    def opponent_bases(self, player: int, opp_masks: tuple[int, ...]) -> tuple[int, ...]:
        key = (player, opp_masks)
        bases = self._bases.get(key)
        if bases is None:
            bases = _opponent_bases(self.game, player, opp_masks)
            self._bases[key] = bases
        return bases

    def dominator(
        self,
        player: int,
        target: int,
        pool_mask: int,
        opp_masks: tuple[int, ...],
        mode: Mode,
        mixing: Mixing,
    ) -> int | MixedStrategy | None:
        queries = self._queries[mode is Mode.WEAK][mixing is Mixing.MIXED]
        key = (player, target, pool_mask, opp_masks)
        if key in queries:
            return queries[key]
        bases = self.opponent_bases(player, opp_masks)
        if not bases:
            self.empty_opponent_queries += 1
        pool = indices_of(pool_mask)
        if mixing is Mixing.PURE:
            found: int | MixedStrategy | None = _pure_dominator(
                self.game, player, target, pool, bases, mode
            )
        else:
            found = _mixed_dominator(self.game, player, target, pool, bases, mode)
        queries[key] = found
        return found

    def _sweep(
        self, kind: OperatorKind, masks: tuple[int, ...], targets: tuple[int, ...]
    ) -> Iterator[tuple[int, int, int | MixedStrategy]]:
        """(player, target, dominator) for each target in ``targets`` that ``kind``
        eliminates at the kept-sets ``masks``; lowest player first, then target.
        """
        pools = masks if kind.pool is Pool.LOCAL else self.full_masks
        for player, target_mask in enumerate(targets):
            opp_masks = masks[:player] + masks[player + 1 :]
            for target in indices_of(target_mask):
                found = self.dominator(
                    player, target, pools[player], opp_masks, kind.mode, kind.mixing
                )
                if found is not None:
                    yield player, target, found

    def _global_pure_survivors(self, kind: OperatorKind, masks: tuple[int, ...]) -> tuple[int, ...]:
        """``survivors`` for GS and GW, through the per-context dominated sets."""
        contexts = self._dominated[kind.mode is Mode.WEAK]
        out = []
        for player, kept in enumerate(masks):
            opp_masks = masks[:player] + masks[player + 1 :]
            key = (player, opp_masks)
            decided, dominated = contexts.get(key, (0, 0))
            undecided = kept & ~decided
            if undecided:
                pool_mask = self.full_masks[player]
                for target in indices_of(undecided):
                    if self.dominator(
                        player, target, pool_mask, opp_masks, kind.mode, kind.mixing
                    ) is not None:
                        dominated |= 1 << target
                contexts[key] = (decided | undecided, dominated)
            out.append(kept & ~dominated)
        return tuple(out)

    def survivors(self, kind: OperatorKind, masks: tuple[int, ...]) -> tuple[int, ...]:
        """Kept-set masks after one application of ``kind``."""
        cache = self._survivors[kind.slot]
        cached = cache.get(masks)
        if cached is not None:
            return cached
        if kind.pool is Pool.GLOBAL and kind.mixing is Mixing.PURE:
            result = self._global_pure_survivors(kind, masks)
        else:
            out = list(masks)
            for player, target, _ in self._sweep(kind, masks, masks):
                out[player] &= ~(1 << target)
            result = tuple(out)
        cache[masks] = result
        return result

    def step(self, kind: OperatorKind, restriction: Restriction) -> EliminationStep:
        before = restriction.masks
        after = self.survivors(kind, before)
        if after == before:
            return EliminationStep(before=restriction, after=restriction, certificates=())
        removed = tuple(b & ~a for b, a in zip(before, after))
        certificates = tuple(
            EliminationCertificate(
                player=player,
                eliminated=target,
                dominator=dominator,
                mode=kind.mode,
                pool=kind.pool,
                context=restriction,
            )
            for player, target, dominator in self._sweep(kind, before, removed)
        )
        return EliminationStep(
            before=restriction,
            after=Restriction.from_masks(self.game, after),
            certificates=certificates,
        )

    def iterate(self, kind: OperatorKind) -> IterationTrace:
        current = Restriction.full(self.game)
        steps = []
        while True:
            step = self.step(kind, current)
            steps.append(step)
            if not step.changed:
                break
            current = step.after
            assert len(steps) <= self.game.total_strategies + 1, "iteration failed to contract"
        return IterationTrace(operator=kind, steps=tuple(steps), fixpoint=steps[-1].after)


def apply_operator(kind: OperatorKind, restriction: Restriction) -> EliminationStep:
    """One synchronized application of the operator to a restriction."""
    return EliminationEngine(restriction.game).step(kind, restriction)


def iterate(kind: OperatorKind, game: Game) -> IterationTrace:
    """Iterate the operator from the full game until nothing changes."""
    return EliminationEngine(game).iterate(kind)
