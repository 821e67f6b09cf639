"""The eight elimination operators and their iteration to a fixpoint.

An operator kind combines a dominance mode (strict/weak), a dominator pool
(local/global) and a mixing flavor (pure/mixed); the eight combinations are
named LS, MLS, GS, MGS, LW, MLW, GW and MGW.  Applying an operator to a
restriction removes, for every player simultaneously, each kept strategy
that has a dominator of the required flavor, evaluated against the current
restriction's opponent profiles.  Each removal carries a replayable
certificate.

:class:`EliminationEngine` keeps two caches, so that one game's repeated
applications (an iteration's steps, the eight kinds, and the suites' checks
at the same restrictions) stay cheap: a decision record per context
(player, pool mask, and the opponents' kept-set bitmasks that every
:class:`Restriction` carries as ``masks``), shared by all eight kinds, so
that each target is decided at most once there; and the payoff columns
those decisions read, built once per (player, opponent masks).  The public
functions build a fresh engine per call and are therefore pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .dominance import (
    EliminationCertificate,
    Mode,
    Pool,
    _LOCAL,
    _STRICT,
    _columns,
    _mixed_dominator,
    _opponent_bases,
    _pure_dominator,
    _require_member,
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


# Read once per decision, like ``dominance._STRICT`` (see the cost there).
_PURE = Mixing.PURE


@dataclass(frozen=True)
class OperatorKind:
    """One of the eight elimination operators.

    Raises ValueError when a field is not a member of its enum.
    """

    mode: Mode
    pool: Pool
    mixing: Mixing

    def __post_init__(self) -> None:
        _require_member("mode", self.mode, Mode)
        _require_member("pool", self.pool, Pool)
        _require_member("mixing", self.mixing, Mixing)

    @cached_property
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
    """Per-game memo for dominance decisions, with two caches.

    Decision records: one dict per (mode, mixing) pair, found by list index
    rather than by hashing the enums, keyed by the context ``(player,
    pool_mask, opp_masks)`` on which a decision depends.  Each record holds
    the mask of targets decided there, the mask of those found dominated,
    and their dominators; a global kind shares records with its local twin
    wherever their pools coincide.  ``survivors`` reads and fills the
    records of a kept set's contexts, deciding only the kept targets a
    record has not decided; ``step`` reads its certificates' dominators
    from the same records.  Every target is decided at most once per
    context, and only when some query asks: each undecided target goes
    through ``dominator`` and one kernel call, and nothing else decides.

    Columns: ``columns`` keeps each player's scaled payoff columns per
    ``(player, opp_masks)``, built on the first query there from
    ``opponent_bases``.  Every decision at those opponent masks, for any
    target, pool or kind, reads the same columns.  ``dominator`` unpacks its
    pool mask through :func:`indices_of`, whose own cache holds a global
    pool, the same full mask in every context.  Answers are deterministic,
    so caching changes only their cost.
    """

    def __init__(self, game: Game) -> None:
        self.game = game
        self.full_masks = tuple((1 << k) - 1 for k in game.shape)
        self._columns: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, ...], ...]] = {}
        # Indexed [mode is WEAK][mixing is MIXED]; each record is
        # [decided mask, dominated mask, {target: dominator}].
        self._contexts: list[list[dict[tuple, list]]] = [[{}, {}], [{}, {}]]

    def opponent_bases(self, player: int, opp_masks: tuple[int, ...]) -> tuple[int, ...]:
        """Flat offsets of the opponent profiles ``opp_masks`` keep; uncached.

        Called once per ``columns`` miss, so that per-layer tracing can count
        the column sets built.
        """
        return _opponent_bases(self.game, player, opp_masks)

    def columns(self, player: int, opp_masks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Each of ``player``'s scaled payoff columns at ``opp_masks``, by strategy; cached."""
        key = (player, opp_masks)
        columns = self._columns.get(key)
        if columns is None:
            columns = _columns(self.game, player, self.opponent_bases(player, opp_masks))
            self._columns[key] = columns
        return columns

    def dominator(
        self,
        player: int,
        target: int,
        pool_mask: int,
        opp_masks: tuple[int, ...],
        mode: Mode,
        mixing: Mixing,
    ) -> int | MixedStrategy | None:
        """The dominator of ``target`` in the pool, or None; uncached."""
        columns = self.columns(player, opp_masks)
        kernel = _pure_dominator if mixing is _PURE else _mixed_dominator
        return kernel(player, target, indices_of(pool_mask), columns, mode)

    def survivors(self, kind: OperatorKind, masks: tuple[int, ...]) -> tuple[int, ...]:
        """Kept-set masks after one application of ``kind``."""
        pools = masks if kind.pool is _LOCAL else self.full_masks
        contexts = self._contexts[kind.mode is not _STRICT][kind.mixing is not _PURE]
        mode, mixing = kind.mode, kind.mixing
        out = []
        for player, kept in enumerate(masks):
            pool_mask, opp_masks = pools[player], masks[:player] + masks[player + 1 :]
            context = (player, pool_mask, opp_masks)
            record = contexts.get(context)
            if record is None:
                record = contexts[context] = [0, 0, {}]
            undecided = kept & ~record[0]
            if undecided:
                for target in indices_of(undecided):
                    found = self.dominator(player, target, pool_mask, opp_masks, mode, mixing)
                    if found is not None:
                        record[1] |= 1 << target
                        record[2][target] = found
                record[0] |= undecided
            out.append(kept & ~record[1])
        return tuple(out)

    def step(self, kind: OperatorKind, restriction: Restriction) -> EliminationStep:
        if restriction.game != self.game:
            raise ValueError("restrictions of different games are not comparable")
        before = restriction.masks
        after = self.survivors(kind, before)
        if after == before:
            return EliminationStep(before=restriction, after=restriction, certificates=())
        # Each removed target's dominator is in the record survivors filled.
        pools = before if kind.pool is _LOCAL else self.full_masks
        contexts = self._contexts[kind.mode is not _STRICT][kind.mixing is not _PURE]
        certificates = []
        for player, (kept, left) in enumerate(zip(before, after)):
            dominators = contexts[player, pools[player], before[:player] + before[player + 1 :]][2]
            certificates.extend(
                EliminationCertificate(
                    player=player,
                    eliminated=target,
                    dominator=dominators[target],
                    mode=kind.mode,
                    pool=kind.pool,
                    context=restriction,
                )
                for target in indices_of(kept & ~left)
            )
        return EliminationStep(
            before=restriction,
            after=Restriction.from_masks(self.game, after),
            certificates=tuple(certificates),
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
