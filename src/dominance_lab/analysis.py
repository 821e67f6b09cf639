"""Empirical verification over restriction lattices.

Monotonicity checking tests the covering pairs of a game's lattice, where
the larger restriction keeps exactly one more strategy, either above every
restriction (exhaustive, up to a configurable size cap) or above seeded
random ones.  Any comparable pair is joined by a chain of covering pairs, so
an operator preserves inclusion on all pairs exactly when it does on the
covering ones: exhaustive search finding no witness proves monotonicity on
that game's lattice.  All reports are plain data with stable field order, so
suites and CI can assert on their JSON form.

An exhaustive check of a global kind (GS, MGS, GW, MGW) walks each player's
opponent lattice instead of the nodes.  A global pool is the player's full
strategy set, so what a player loses at a node depends only on the other
players' masks: the check decides ``sum_k 2^(N - n_k)`` contexts of ``n_k``
targets, for ``N`` strategies in all, not ``2^N`` nodes and their covers.
It finds the node scan's first failing node and runs the node scan there,
so both return the same witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain, product
from typing import Iterable, Iterator

from .dominance import Pool
from .game_model import Game, Restriction, _is_index, indices_of
from .operators import EliminationEngine, OperatorKind

__all__ = [
    "BudgetExceededError",
    "Exhaustive",
    "FixpointRelationReport",
    "MonotonicityWitness",
    "PointwiseInclusionReport",
    "Sampled",
    "check_monotonic",
    "compare_fixpoints",
    "enumerate_restriction_masks",
    "lattice_size",
    "pointwise_inclusion",
    "relation_of",
]

DEFAULT_EXHAUSTIVE_CAP = 4096


class BudgetExceededError(RuntimeError):
    """The lattice is too large for exhaustive search; use a Sampled budget."""


def _at_least_one(name: str, value: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class Exhaustive:
    """Scan every restriction of the lattice; errors out above ``cap`` nodes.

    ``check_monotonic`` tests every covering pair, ``pointwise_inclusion``
    every restriction.  Raises ValueError for a cap that is not an int of at
    least 1.
    """

    cap: int = DEFAULT_EXHAUSTIVE_CAP

    def __post_init__(self) -> None:
        _at_least_one("cap", self.cap)


@dataclass(frozen=True)
class Sampled:
    """Scan ``count`` seeded random restrictions (repeats possible).

    ``check_monotonic`` tests every covering pair above each sampled
    restriction, up to one per strategy the restriction leaves out.
    Raises ValueError for a count that is not an int of at least 1: a
    budget that scans nothing would report a vacuous pass.
    """

    seed: int
    count: int

    def __post_init__(self) -> None:
        _at_least_one("count", self.count)


Budget = Exhaustive | Sampled


def lattice_size(game: Game) -> int:
    return 1 << sum(game.shape)


def _masks_in_order(count: int) -> list[int]:
    """Every mask of ``count`` bits, in lexicographic order of their ``indices_of``.

    The masks over bits ``i`` and up are the empty one, then bit ``i`` with
    each mask over bits ``i + 1`` and up, then the nonempty masks over bits
    ``i + 1`` and up.
    """
    order = [0]
    for bit in (1 << i for i in reversed(range(count))):
        order = [0, *(mask | bit for mask in order), *order[1:]]
    return order


def _ranks(shape: tuple[int, ...]) -> Iterator[Iterator[tuple[int, ...]]]:
    """Per rank, ascending, a lazy iterator over the mask tuples of that rank.

    The rank is the number of kept strategies.  Within a rank, mask tuples
    run in lexicographic order of the players' kept index tuples, player 0's
    first.  ``product`` over each player's masks in ``indices_of`` order
    runs in that order, so each rank walks the other players' masks and,
    after each head, the last player's masks of the size the rank leaves.
    """
    orders = [_masks_in_order(k) for k in shape]
    by_size: dict[int, list[int]] = {}
    for mask in orders[-1]:
        by_size.setdefault(mask.bit_count(), []).append(mask)

    def of_rank(rank: int) -> Iterator[tuple[int, ...]]:
        for head in product(*orders[:-1]):
            for last in by_size.get(rank - sum(map(int.bit_count, head)), ()):
                yield head + (last,)

    for rank in range(sum(shape) + 1):
        yield of_rank(rank)


def enumerate_restriction_masks(game: Game) -> Iterator[tuple[int, ...]]:
    """Lazily yield every restriction as per-player bitmasks, by rank then kept-sets."""
    return chain.from_iterable(_ranks(game.shape))


def _restrictions(game: Game, budget: Budget) -> Iterable[tuple[int, ...]]:
    """The restrictions a budget scans, as per-player bitmasks."""
    if isinstance(budget, Sampled):
        rng = random.Random(budget.seed)
        return (
            tuple(rng.randrange(1 << k) for k in game.shape) for _ in range(budget.count)
        )
    size = lattice_size(game)
    if size > budget.cap:
        raise BudgetExceededError(
            f"lattice has {size} restrictions, above the exhaustive cap "
            f"{budget.cap}; use a Sampled budget"
        )
    return enumerate_restriction_masks(game)


@dataclass(frozen=True)
class MonotonicityWitness:
    """A comparable pair on which the operator fails to preserve inclusion.

    ``check_monotonic`` returns covering pairs.  ``evidence`` is a (player,
    strategy) pair surviving the operator on the smaller restriction but not
    on the larger one.
    """

    operator: OperatorKind
    smaller: Restriction
    larger: Restriction
    evidence: tuple[int, int]

    def replay(self) -> bool:
        """Recompute both survivor sets.

        A witness whose restrictions belong to different games, or whose
        evidence names a player or strategy outside the game, does not replay.
        """
        game = self.smaller.game
        if (
            game != self.larger.game
            or not self._evidence_in_game()
            or not self.smaller.issubset(self.larger)
        ):
            return False
        player, strategy = self.evidence
        engine = EliminationEngine(game)
        small = engine.survivors(self.operator, self.smaller.masks)
        large = engine.survivors(self.operator, self.larger.masks)
        bit = 1 << strategy
        return bool(small[player] & bit) and not large[player] & bit

    def _evidence_in_game(self) -> bool:
        game = self.smaller.game
        player, strategy = self.evidence
        return (
            _is_index(player)
            and _is_index(strategy)
            and 0 <= player < game.player_count
            and 0 <= strategy < game.shape[player]
        )

    def to_dict(self) -> dict:
        """The witness with labels; raises ValueError for evidence outside the game."""
        if not self._evidence_in_game():
            raise ValueError(f"evidence {self.evidence} names no strategy of the game")
        game = self.smaller.game
        player, strategy = self.evidence
        return {
            "operator": self.operator.name,
            "smaller": self.smaller.kept_names(),
            "larger": self.larger.kept_names(),
            "evidence": {
                "player": game.players[player],
                "strategy": game.strategies[player][strategy],
            },
        }


def _first_excess(
    small: tuple[int, ...], large: tuple[int, ...]
) -> tuple[int, int] | None:
    """Lowest (player, strategy) present in ``small`` but not ``large``."""
    for player, (s, l) in enumerate(zip(small, large)):
        excess = s & ~l
        if excess:
            return (player, indices_of(excess)[0])
    return None


def _order_in_rank(masks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The order of a node among the nodes of its rank."""
    return tuple(map(indices_of, masks))


def _first_global_violation(
    engine: EliminationEngine, kind: OperatorKind
) -> tuple[int, ...] | None:
    """The first node in (rank, kept) order with a cover that the global ``kind`` fails.

    A global pool is the player's full strategy set, so player ``k``'s
    survivors at a node are ``kept_k & ~D_k(O)``, where ``D_k(O)`` is what
    is dominated at the other players' masks ``O``.  A cover that adds to
    ``k`` leaves ``D_k`` as it is, and one that grows ``O`` to ``O'`` fails
    exactly when ``kept_k`` meets ``D_k(O')`` outside ``D_k(O)``.  Such a
    node still fails when ``kept_k`` shrinks to one such strategy ``b``,
    and that lowers its rank unless ``kept_k`` is ``{b}`` already.
    So the first failing node keeps some ``O`` and one ``b`` for some
    ``k``, and ``b`` is :meth:`EliminationEngine.least_newly_dominated` at
    ``(k, O)``: within a rank, a node with a lower ``b`` comes first.

    The opponent lattices are walked rank by rank, every player's at one
    rank before any at the next, and the least candidate of the first
    opponent rank that has one is the answer.  A ``(k, O)`` whose least
    possible node (``b = 0``) is not below the best candidate so far is
    skipped, and so are ``k``'s later ``O`` of that rank, whose nodes come
    later still.
    """
    shape = engine.game.shape
    walks = [(k, _ranks(shape[:k] + shape[k + 1 :])) for k in range(len(shape))]
    for _ in range(sum(shape) - min(shape) + 1):
        best = best_order = None
        for k, ranks in walks:
            for opp in next(ranks, ()):
                if best is not None and _order_in_rank(opp[:k] + (1,) + opp[k:]) >= best_order:
                    break
                strategy = engine.least_newly_dominated(kind, k, opp)
                if strategy is not None:
                    node = opp[:k] + (1 << strategy,) + opp[k:]
                    order = _order_in_rank(node)
                    if best is None or order < best_order:
                        best, best_order = node, order
        if best is not None:
            return best
    return None


def check_monotonic(
    kind: OperatorKind, game: Game, budget: Budget
) -> MonotonicityWitness | None:
    """Search for a covering pair on which the operator fails to preserve inclusion.

    Exhaustive budgets test every covering pair, so ``None`` is a proof of
    monotonicity for this lattice; sampled budgets only report none-found.

    The scan holds each node and each survivor set as one int, player
    ``p``'s mask at bit offset ``sum(game.shape[:p])``.  A node's covers
    add the lowest missing bit first, so they run player-major, strategies
    ascending, and a pair fails when ``small & ~large`` is nonzero.  Nodes
    are unpacked to per-player masks only to ask the engine for survivors
    and to build the witness, whose evidence is :func:`_first_excess` of
    the two unpacked survivor sets.

    A memo holds each cover's survivors until the scan reaches that node as
    the smaller restriction, which drops its entry: in the exhaustive (rank,
    kept) order no later pair asks for it, so the memo spans at most two
    ranks.  A sampled node drawn again is answered anew from the engine.

    With an exhaustive budget, a global kind scans one node at most: the
    first node that fails, found on the opponent lattices by
    :func:`_first_global_violation`.  The scan at that node asks its covers
    in the same order as the full scan and compares the same survivor
    sets, so it returns the same pair and evidence; no node means that no
    covering pair fails.  The cap still bounds the number of nodes.
    """
    engine = EliminationEngine(game)
    offsets = tuple(accumulate(game.shape[:-1], initial=0))
    layout = tuple(zip(offsets, engine.full_masks))

    def pack(masks: tuple[int, ...]) -> int:
        packed = 0
        for offset, mask in zip(offsets, masks):
            packed |= mask << offset
        return packed

    def unpack(packed: int) -> tuple[int, ...]:
        return tuple([packed >> offset & full for offset, full in layout])

    nodes = _restrictions(game, budget)  # raises above an exhaustive cap
    if isinstance(budget, Exhaustive) and kind.pool is Pool.GLOBAL:
        first = _first_global_violation(engine, kind)
        nodes = () if first is None else (first,)
    top = lattice_size(game) - 1
    memo: dict[int, int] = {}
    for masks in nodes:
        node = pack(masks)
        small = memo.pop(node, None)
        if small is None:
            small = pack(engine.survivors(kind, masks))
        missing = top & ~node
        while missing:
            bit = missing & -missing
            missing ^= bit
            larger = node | bit
            large = memo.get(larger)
            if large is None:
                large = memo[larger] = pack(engine.survivors(kind, unpack(larger)))
            if small & ~large:
                return MonotonicityWitness(
                    operator=kind,
                    smaller=Restriction.from_masks(game, masks),
                    larger=Restriction.from_masks(game, unpack(larger)),
                    evidence=_first_excess(unpack(small), unpack(large)),
                )
    return None


@dataclass(frozen=True)
class PointwiseInclusionReport:
    """Violations of left(G) being included in right(G) over scanned restrictions."""

    left: OperatorKind
    right: OperatorKind
    checked: int
    violations: tuple[dict, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def pointwise_inclusion(
    left: OperatorKind, right: OperatorKind, game: Game, budget: Budget
) -> PointwiseInclusionReport:
    """Check left(G) included in right(G) over enumerated or sampled restrictions."""
    engine = EliminationEngine(game)
    violations = []
    checked = 0
    for masks in _restrictions(game, budget):
        checked += 1
        excess = _first_excess(engine.survivors(left, masks), engine.survivors(right, masks))
        if excess is not None:
            player, strategy = excess
            violations.append(
                {
                    "restriction": Restriction.from_masks(game, masks).kept_names(),
                    "player": game.players[player],
                    "strategy": game.strategies[player][strategy],
                }
            )
    return PointwiseInclusionReport(
        left=left, right=right, checked=checked, violations=tuple(violations)
    )


def relation_of(left: Restriction, right: Restriction) -> str:
    """Classify two restrictions: equal, subset, superset or incomparable."""
    if left == right:
        return "equal"
    if left.issubset(right):
        return "subset"
    if right.issubset(left):
        return "superset"
    return "incomparable"


@dataclass(frozen=True)
class FixpointRelationReport:
    left: OperatorKind
    right: OperatorKind
    relation: str
    left_fixpoint: Restriction
    right_fixpoint: Restriction

    def to_dict(self) -> dict:
        return {
            "left": self.left.name,
            "right": self.right.name,
            "relation": self.relation,
            "left_fixpoint": self.left_fixpoint.kept_names(),
            "right_fixpoint": self.right_fixpoint.kept_names(),
        }


def compare_fixpoints(
    left: OperatorKind, right: OperatorKind, game: Game
) -> FixpointRelationReport:
    """Compute both fixpoints from the top and classify their relation."""
    engine = EliminationEngine(game)
    lfix = engine.iterate(left).fixpoint
    rfix = engine.iterate(right).fixpoint
    return FixpointRelationReport(
        left=left,
        right=right,
        relation=relation_of(lfix, rfix),
        left_fixpoint=lfix,
        right_fixpoint=rfix,
    )
