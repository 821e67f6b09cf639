"""Exact verification over restriction lattices.

Monotonicity checking tests the covering pairs of a game's lattice, where
the larger restriction keeps exactly one more strategy.  Any comparable
pair is joined by a chain of covering pairs, so an operator preserves
inclusion on all pairs exactly when it does on the covering ones, and a
check that finds no witness proves monotonicity on that game's lattice.
The check returns the first failing pair of a scan of every node in (rank,
kept) order while visiting far fewer nodes (:func:`check_monotonic`); an
:class:`Exhaustive` cap bounds that work.  Six kinds are decided by payoff
comparisons with no operator applied.  LS, MLS, LW and MLW fail first, if
at all, at a node of rank ``P``, the number of players: a pure profile's
cover fails exactly when the added strategy pays its player more than the
kept one, and, for a weak kind, a cover that fills a node's one empty
player fails exactly when the player keeping two strategies is paid
differently by them.  GW and MGW fail first, if at all, at a node of rank
``P - 1`` whose one empty player is filled by the cover: it fails exactly
when some other player's kept strategy is paid less than another at the
one profile the cover leaves.  So each of the six has a witness exactly
when the game is non-trivial: some player strictly prefers one strategy
to another at some opponent profile.  GS and MGS, monotone by the paper's
theorem, decide every opponent context of each player once, with no
elimination engine, into one bit set ``D_t`` per target over a dense
index of the contexts (:func:`_context_index`), and test every context's
covers at once, one shift per (opponent, strategy)
(:func:`_first_strict_global_violation`).  GS fills ``D_t`` from the
payoffs with a few big-int operations per (target, dominator) pair
(:func:`_pure_strict_dominated`): ``s`` beats ``t`` at exactly the
contexts that hold none of the opponent profiles where ``s`` does not
strictly beat ``t``.  MGS builds each context's columns once and asks
the mixed kernel, whose LP is exact, about each target
(:func:`_mixed_strict_dominated`).

One lemma prunes every scan: with no opponent profile, a strict kind
eliminates every kept strategy (each strict comparison holds vacuously) and
a weak kind none (no profile shows a strict gain).  Where a player keeps
nothing, no kept strategy faces an opponent profile.  So a restriction
that keeps nothing somewhere fails only for a weak kind, with exactly one
player keeping nothing, on a cover that fills that player
(:func:`_lone_empty`), and GS and MGS never ask an opponent context where
an opponent keeps nothing.

All reports are plain data with stable field order, so suites and CI can
assert on their JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, compress, islice
from math import comb, prod
from operator import le, mul, or_
from typing import Iterator

from .dominance import _STRICT, Mode, Pool, _columns, _mixed_dominator, _opponent_bases
from .game_model import Game, Restriction, _is_index, indices_of
from .operators import EliminationEngine, Mixing, OperatorKind

__all__ = [
    "BudgetExceededError",
    "Exhaustive",
    "FixpointRelationReport",
    "MonotonicityWitness",
    "PointwiseInclusionReport",
    "check_monotonic",
    "compare_fixpoints",
    "enumerate_restriction_masks",
    "lattice_size",
    "pointwise_inclusion",
    "relation_of",
]

DEFAULT_EXHAUSTIVE_CAP = 1 << 16


class BudgetExceededError(RuntimeError):
    """The check would do more work than its exhaustive cap allows; raise the cap."""


@dataclass(frozen=True)
class Exhaustive:
    """An exact check that errors out when its work is above ``cap``.

    The work bounds what the check visits.  For ``check_monotonic`` it is
    the nodes walked by LS, MLS, LW and MLW, the ``C(N, P)`` of rank ``P``,
    and by GW and MGW, the ``C(N, P - 1)`` of rank ``P - 1``, and the
    opponent contexts decided by GS and MGS (:func:`_monotonicity_work`);
    for ``pointwise_inclusion`` it is every restriction, ``2^N``.  Raises
    ValueError for a cap that is not an int of at least 1.
    """

    cap: int = DEFAULT_EXHAUSTIVE_CAP

    def __post_init__(self) -> None:
        if not _is_index(self.cap):
            raise ValueError(f"cap must be an int, got {self.cap!r}")
        if self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")


def lattice_size(game: Game) -> int:
    return 1 << sum(game.shape)


def _ranks(shape: tuple[int, ...]) -> Iterator[Iterator[tuple[int, ...]]]:
    """Per rank, ascending, a lazy iterator over the mask tuples of that rank.

    The rank is the number of kept strategies.  Within a rank, mask tuples
    run in lexicographic order of the players' kept index tuples, player 0's
    first: the order of all kept indices read as one sequence, with a mark
    below every index after each player's.  :func:`_of_rank` builds nodes
    in that order, so walking ranks ``0..R`` costs their nodes, not ``2^N``.
    """
    rooms = tuple(sum(shape[k + 1 :]) for k in range(len(shape)))
    exact: dict[int, list[int]] = {}
    for rank in range(sum(shape) + 1):
        yield _of_rank(shape, rooms, exact, rank, 0, 0, (), 0)


def _of_rank(
    shape: tuple[int, ...], rooms: tuple[int, ...], exact: dict[int, list[int]],
    rank: int, k: int, start: int, done: tuple[int, ...], mask: int,
) -> Iterator[tuple[int, ...]]:
    """The nodes that keep ``rank`` more strategies than ``done`` and ``mask``, in order.

    ``done`` holds the masks of the players before ``k`` and ``mask``
    player ``k``'s, which adds indices from ``start`` up.  A mark or index
    is added, the mark first, only if the ``rooms[k]`` strategies after can
    still fill the rank, so every branch yields a node.  The last player's
    masks of a size are its ``combinations``, listed once in ``exact``.
    (Not a closure, which would form a reference cycle.)
    """
    if k == len(shape) - 1:
        if rank not in exact:
            exact[rank] = [sum(1 << i for i in c) for c in combinations(range(shape[k]), rank)]
        for last in exact[rank]:
            yield (*done, last)
        return
    if rank <= rooms[k]:
        yield from _of_rank(shape, rooms, exact, rank, k + 1, 0, (*done, mask), 0)
    if rank:
        for i in range(start, min(shape[k], shape[k] + rooms[k] - rank + 1)):
            yield from _of_rank(shape, rooms, exact, rank - 1, k, i + 1, done, mask | 1 << i)


def enumerate_restriction_masks(game: Game) -> Iterator[tuple[int, ...]]:
    """Lazily yield every restriction as per-player bitmasks, by rank then kept-sets."""
    return chain.from_iterable(_ranks(game.shape))


def _monotonicity_work(kind: OperatorKind, shape: tuple[int, ...]) -> tuple[int, str]:
    """What ``check_monotonic`` of ``kind`` visits at most, and its unit.

    LS, MLS, LW and MLW walk the ``C(N, P)`` nodes of rank ``P``
    (:func:`_first_local_violation`), and GW and MGW the ``C(N, P - 1)`` of
    rank ``P - 1`` (:func:`_first_weak_global_violation`).  GS and MGS
    decide the ``prod_{j != k} (2^(n_j) - 1)`` opponent contexts of each
    ``k`` where every opponent keeps something.
    """
    total, players = sum(shape), len(shape)
    if kind.pool is Pool.LOCAL:
        return comb(total, players), "nodes"
    if kind.mode is Mode.WEAK:
        return comb(total, players - 1), "nodes"
    kept = [(1 << n) - 1 for n in shape]
    return sum(prod(kept[:k] + kept[k + 1 :]) for k in range(players)), "opponent contexts"


def _require_arguments(game: object, **operators: object) -> None:
    """Raise ValueError naming the first operator that is not an OperatorKind, or else a non-Game."""
    for name, operator in operators.items():
        if not isinstance(operator, OperatorKind):
            raise ValueError(f"{name} must be an OperatorKind, got {operator!r}")
    if not isinstance(game, Game):
        raise ValueError(f"game must be a Game, got {game!r}")


def _require_within(budget: Exhaustive, work: int, unit: str) -> None:
    """Raise BudgetExceededError when ``work`` is above the budget's cap.

    Raises ValueError for a budget that is not an :class:`Exhaustive`.
    """
    if not isinstance(budget, Exhaustive):
        raise ValueError(f"budget must be an Exhaustive, got {budget!r}")
    if work > budget.cap:
        raise BudgetExceededError(
            f"the check visits {work} {unit}, above the exhaustive cap {budget.cap}; "
            "raise the cap"
        )


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

        A malformed witness (see :meth:`_fault`), or one whose restrictions
        belong to different games, does not replay.
        """
        if self._fault() is not None:
            return False
        game = self.smaller.game
        if game != self.larger.game or not self.smaller.issubset(self.larger):
            return False
        player, strategy = self.evidence
        engine = EliminationEngine(game)
        small = engine.survivors(self.operator, self.smaller.masks)
        large = engine.survivors(self.operator, self.larger.masks)
        bit = 1 << strategy
        return bool(small[player] & bit) and not large[player] & bit

    def _fault(self) -> str | None:
        """What makes the witness malformed, or None.

        Its operator must be an :class:`OperatorKind`, both restrictions
        :class:`Restriction` objects, and its evidence a (player, strategy)
        tuple of the smaller restriction's game.
        """
        if not isinstance(self.operator, OperatorKind):
            return f"operator must be an OperatorKind, got {self.operator!r}"
        for name in ("smaller", "larger"):
            if not isinstance(getattr(self, name), Restriction):
                return f"{name} must be a Restriction, got {getattr(self, name)!r}"
        evidence, game = self.evidence, self.smaller.game
        if not (
            isinstance(evidence, tuple)
            and len(evidence) == 2
            and all(map(_is_index, evidence))
            and 0 <= evidence[0] < game.player_count
            and 0 <= evidence[1] < game.shape[evidence[0]]
        ):
            return f"evidence {evidence!r} names no strategy of the game"
        return None

    def to_dict(self) -> dict:
        """The witness with labels.

        Raises ValueError for a malformed witness (see :meth:`_fault`).
        """
        fault = self._fault()
        if fault is not None:
            raise ValueError(fault)
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


def _repeat(pattern: int, period: int, total: int) -> int:
    """``pattern``, which fits in ``period`` bits, repeated to fill ``total`` bits.

    By doubling, ``pattern |= pattern << period``: a product or quotient
    of big ints would take time quadratic in ``total``.
    """
    while period < total:
        pattern |= pattern << period
        period <<= 1
    return pattern & (1 << total) - 1


@lru_cache(maxsize=8)
def _context_index(opp_shape: tuple[int, ...]) -> tuple:
    """``(count, strides, holding, covers)``: a dense index of ``opp_shape``'s opponent contexts.

    A context where every opponent ``j`` keeps something, mask ``m_j``,
    sits at ``sum_j (m_j - 1) * strides[j]``, radix ``2^(n_j) - 1`` per
    opponent and the last opponent fastest, so ascending index is ascending
    lexicographic order of the mask tuples and a one-strategy opponent
    adds nothing: ``count`` is the number of contexts, which the cap
    bounds.  ``holding[j][x]`` is the bit set of the contexts whose ``m_j``
    keeps ``x``.  Over ``m_j`` in ``0..2^(n_j) - 1``, each ``strides[j]``
    bits wide, those keeping ``x`` form runs of ``2^x`` repeated every
    ``2^(x + 1)``; dropping ``m_j = 0`` leaves one period of opponent
    ``j``'s digit, repeated over the opponents before it.  ``covers`` pairs
    ``2^x * strides[j]``, the shift from a context to its cover that adds
    ``x`` to opponent ``j``, with ``lacking``, the contexts that have that
    cover: the complement of ``holding[j][x]``, when not empty.
    """
    radices = [(1 << n) - 1 for n in opp_shape]
    count = prod(radices)
    strides = tuple(prod(radices[j + 1 :]) for j in range(len(radices)))
    holding = []
    for n, radix, stride in zip(opp_shape, radices, strides):
        holds = []
        for run in (stride << x for x in range(n)):
            digit = _repeat(~(-1 << run) << run, run << 1, stride << n) >> stride
            holds.append(_repeat(digit, radix * stride, count))
        holding.append(tuple(holds))
    full = (1 << count) - 1
    covers = tuple(
        (stride << x, full ^ hold)
        for stride, holds in zip(strides, holding)
        for x, hold in enumerate(holds)
        if hold != full
    )
    return count, strides, tuple(holding), covers


def _context_at(at: int, strides: tuple[int, ...], opp_shape: tuple[int, ...]) -> tuple[int, ...]:
    """The opponents' masks of the context at ``at`` of :func:`_context_index`."""
    return tuple(at // stride % ((1 << n) - 1) + 1 for stride, n in zip(strides, opp_shape))


def _pure_strict_dominated(game: Game, player: int, index: tuple) -> list[int]:
    """GS's ``D_t`` per strategy ``t`` of ``player``: the contexts where ``t`` is dominated.

    Bit sets over ``index`` (:func:`_context_index`).  ``sets[c]``, the
    contexts whose profile set holds opponent profile ``c``, is the AND of
    ``holding[j][c_j]``, the profiles numbered as
    :func:`~dominance_lab.dominance._opponent_bases` lists them over the
    full opponent masks, the last opponent fastest.  ``s`` strictly beats
    ``t`` at exactly the contexts that hold none of the profiles where
    ``u(s, c) <= u(t, c)``, read from ``game.scaled_payoffs``, so
    :func:`~dominance_lab.dominance._pure_dominator`'s strict rule over the
    global pool is ``D_t = OR_s ~(OR of sets[c] over those c)``.  Each bit
    is decided from its own context's profile set and the payoffs alone,
    never from another context's answer, which would presume the
    monotonicity the check tests.  (``s = t`` misses every profile, and
    every context holds one.)
    """
    count, _, holding, _ = index
    full = (1 << count) - 1
    sets = [full]
    for holds in holding:
        sets = [held & hold for held in sets for hold in holds]
    opp_full = [(1 << n) - 1 for n in game.shape[:player] + game.shape[player + 1 :]]
    columns = _columns(game, player, _opponent_bases(game, player, opp_full))
    dominated = []
    for t, target in enumerate(columns):
        beaten = 0
        for s, column in enumerate(columns):
            if s != t:
                beaten |= full ^ reduce(or_, compress(sets, map(le, column, target)), 0)
        dominated.append(beaten)
    return dominated


def _mixed_strict_dominated(game: Game, player: int, index: tuple) -> list[int]:
    """MGS's ``D_t`` per strategy of ``player``, with :func:`_pure_strict_dominated`'s contract.

    Each context, unpacked from ``index`` in ascending order, builds its
    columns once and asks :func:`~dominance_lab.dominance._mixed_dominator`
    about each target, ascending, over the global pool: an elimination
    engine's kernel calls there, in its order, so the LPs and their
    weights are the same.  Each context is decided from its own columns,
    never from another's answer.
    """
    shape = game.shape
    opp_shape, pool = shape[:player] + shape[player + 1 :], indices_of((1 << shape[player]) - 1)
    count, strides, _, _ = index
    decided = []
    for at in range(count):
        opp = _context_at(at, strides, opp_shape)
        columns = _columns(game, player, _opponent_bases(game, player, opp))
        decided.append(sum(
            1 << t for t in pool if _mixed_dominator(player, t, pool, columns, _STRICT) is not None
        ))
    # Bit i of D_t is context i's answer: a binary numeral, highest index first.
    return [int("".join("1" if d >> t & 1 else "0" for d in reversed(decided)), 2) for t in pool]


def _first_strict_global_violation(game: Game, kind: OperatorKind) -> tuple[int, ...] | None:
    """The first node in (rank, kept) order with a cover that GS or MGS fails, or None.

    A global pool is the player's full strategy set, so player ``k``'s
    survivors at a node are ``kept_k & ~D_k(O)``, where ``D_k(O)`` is what
    is dominated at the other players' masks ``O``.  A cover that adds to
    ``k`` leaves ``D_k`` as it is, and one that grows ``O`` to ``O'`` fails
    exactly when ``kept_k`` meets ``D_k(O')`` outside ``D_k(O)``.  Such a
    node still fails when ``kept_k`` shrinks to one such strategy ``t``,
    and that lowers its rank unless ``kept_k`` is ``{t}`` already.  So the
    first failing node keeps some ``O`` and one ``t`` for some ``k``.

    Every opponent context ``O`` where every opponent keeps something has
    a place in the dense index of :func:`_context_index`, and each target
    ``t`` one bit set ``D_t`` over it, with no elimination engine: for GS
    from the payoffs (:func:`_pure_strict_dominated`), and for MGS by the
    mixed kernel at each context (:func:`_mixed_strict_dominated`), the
    decider picked by ``kind.mixing``.  The index is linear in each mask,
    so the cover that adds strategy ``x`` to opponent ``j`` is the same
    shift ``2^x * strides[j]`` at every context that lacks ``x``, and one
    expression tests every cover of every context: ``F_t = OR_{j, x} (D_t
    >> 2^x * strides[j]) & lacking_{j, x} & ~D_t`` over the index's
    ``covers``.  A context where an opponent keeps nothing has no place:
    there a strict kind eliminates every strategy (:func:`_lone_empty`),
    so nothing is newly dominated above it, and no context has it as a
    cover.

    The answer is the least candidate node, ``O`` for each set bit of
    ``F_t`` with ``k`` keeping ``{t}``, by rank and then order in rank.  No
    rank order or least-first asking is needed: GS and MGS are monotone by
    the paper's theorem, so no context of a real game fails, and a walk
    that stopped at the first failing rank would decide the same (context,
    target) pairs.
    """
    shape = game.shape
    decider = _pure_strict_dominated if kind.mixing is Mixing.PURE else _mixed_strict_dominated
    candidates = []
    for k in range(len(shape)):
        opp_shape = shape[:k] + shape[k + 1 :]
        index = _context_index(opp_shape)
        _, strides, _, covers = index
        for t, here in enumerate(decider(game, k, index)):
            newly = 0
            for shift, lacking in covers:
                newly |= here >> shift & lacking
            for at in indices_of(newly & ~here):
                opp = _context_at(at, strides, opp_shape)
                candidates.append(opp[:k] + (1 << t,) + opp[k:])
    return min(
        candidates,
        key=lambda node: (sum(map(int.bit_count, node)), _order_in_rank(node)),
        default=None,
    )


def _cover(masks: tuple[int, ...], player: int, strategy: int) -> tuple[int, ...]:
    """``masks`` with ``strategy`` added to ``player``'s kept set."""
    return masks[:player] + (masks[player] | 1 << strategy,) + masks[player + 1 :]


def _lone_empty(mode: Mode, masks: tuple[int, ...]) -> int | None:
    """The player a cover of ``masks`` must fill to eliminate more, or None if none can.

    For a restriction's kept sets ``masks`` where some player keeps
    nothing, as the exact monotonicity checks of the weak kinds read them.
    A cover keeps one strategy more.

    The lemma: with no opponent profile, a strict kind eliminates every
    kept strategy, as each strict comparison holds vacuously, and a weak
    kind eliminates none, as no profile shows a strict gain.  While a
    player keeps nothing, no kept strategy faces an opponent profile.
    So at ``masks`` a strict kind has eliminated everything already, and a
    weak kind nothing, which a cover changes only if it leaves no player
    empty: when exactly one player keeps nothing and the cover fills it.
    """
    if mode is _STRICT or masks.count(0) > 1:
        return None
    return masks.index(0)


def _pair(
    kind: OperatorKind, game: Game, masks: tuple[int, ...], larger: tuple[int, ...],
    evidence: tuple[int, int],
) -> MonotonicityWitness:
    """The witness that ``kind`` fails on the covering pair ``masks`` < ``larger``."""
    return MonotonicityWitness(
        operator=kind,
        smaller=Restriction.from_masks(game, masks),
        larger=Restriction.from_masks(game, larger),
        evidence=evidence,
    )


def _gains(game: Game, profile: list[int]) -> Iterator[tuple[int, int]]:
    """Each ``(i, s)`` where ``s`` pays player ``i`` more than ``profile[i]`` at ``profile``.

    Read from ``game.scaled_payoffs``, player-major, strategies ascending.
    """
    strides, tables = game.strides, game.scaled_payoffs
    at = sum(map(mul, profile, strides))
    for i, t in enumerate(profile):
        table, stride = tables[i], strides[i]
        paid, base = table[at], at - t * stride
        for s in range(game.shape[i]):
            if table[base + s * stride] > paid:
                yield i, s


def _first_local_violation(kind: OperatorKind, game: Game) -> MonotonicityWitness | None:
    """The first covering pair that LS, MLS, LW or MLW fails, or None, with no engine.

    The two cases of :func:`check_monotonic`, decided on
    ``game.scaled_payoffs`` at each node of rank ``P`` in scan order, and
    at each node's covers in the full scan's order: player-major,
    strategies ascending.
    """
    shape, strides, tables = game.shape, game.strides, game.scaled_payoffs
    for masks in next(islice(_ranks(shape), len(shape), None)):
        if all(masks):
            profile = [mask.bit_length() - 1 for mask in masks]
            for i, s in _gains(game, profile):
                return _pair(kind, game, masks, _cover(masks, i, s), (i, profile[i]))
            continue
        j = _lone_empty(kind.mode, masks)
        if j is None:
            continue
        i = next(k for k, mask in enumerate(masks) if mask & (mask - 1))
        a, b = indices_of(masks[i])
        table, stride = tables[i], strides[i]
        base = sum(
            strides[k] * (mask.bit_length() - 1)
            for k, mask in enumerate(masks)
            if k != i and k != j
        )
        for x in range(shape[j]):
            at = base + x * strides[j]
            pay_a, pay_b = table[at + a * stride], table[at + b * stride]
            if pay_a != pay_b:
                evidence = (i, a if pay_a < pay_b else b)
                return _pair(kind, game, masks, _cover(masks, j, x), evidence)
    return None


def _first_weak_global_violation(kind: OperatorKind, game: Game) -> MonotonicityWitness | None:
    """The first covering pair that GW or MGW fails, or None, with no engine.

    The case of :func:`check_monotonic` for these kinds, decided on
    ``game.scaled_payoffs`` at each node of rank ``P - 1`` in scan order
    that has one empty player ``j``, at the covers that fill ``j``,
    strategies ascending.
    """
    shape = game.shape
    for masks in next(islice(_ranks(shape), len(shape) - 1, None)):
        j = _lone_empty(kind.mode, masks)
        if j is None:
            continue
        profile = [mask.bit_length() - 1 for mask in masks]
        for x in range(shape[j]):
            profile[j] = x
            for i, _ in _gains(game, profile):
                if i != j:
                    return _pair(kind, game, masks, _cover(masks, j, x), (i, profile[i]))
    return None


def check_monotonic(
    kind: OperatorKind, game: Game, budget: Exhaustive
) -> MonotonicityWitness | None:
    """The first covering pair on which ``kind`` fails to preserve inclusion, or None.

    ``None`` proves monotonicity on this game's lattice, and a witness is
    the first failing pair of a scan of every node in (rank, kept) order.
    Raises :class:`BudgetExceededError`, before any scan, when the work
    (:func:`_monotonicity_work`) is above ``budget.cap``, and ValueError,
    before any work, when ``kind`` is not an :class:`OperatorKind`,
    ``game`` not a :class:`Game` or ``budget`` not an :class:`Exhaustive`.

    LS, MLS, LW and MLW fail first at a node of rank ``P``, the number of
    players, and build no engine (:func:`_first_local_violation`).  If
    some player ``i`` strictly prefers ``s`` to ``t`` at an opponent
    profile ``c``, the node where ``i`` keeps ``{t}`` and each opponent its
    strategy in ``c`` has rank ``P``; everything survives there, as a pool
    of one dominates nothing, and the cover that adds ``s`` eliminates
    ``t`` under all four kinds.  If no player has such a preference,
    nothing is dominated where every player keeps a strategy, and
    elsewhere nothing is weakly dominated and every kept strategy strictly
    (vacuously), so no pair fails anywhere.  Below rank ``P`` some player
    keeps nothing, and by the lemma of :func:`_lone_empty` such a node
    fails only for a weak kind, with one player empty, on a cover that
    fills it; below rank ``P`` that cover is a pure profile or keeps
    nothing somewhere, and eliminates nothing.  So two cases decide a
    check, each by payoff comparisons, at the rank-``P`` nodes in scan
    order:

    - a pure profile, where ``i`` keeps ``{t}`` and the opponents ``c``:
      the cover adding ``s`` to ``i`` fails exactly when ``u_i(s, c) >
      u_i(t, c)``, with evidence ``(i, t)``;
    - for a weak kind, a node whose one empty player is ``j``: then one
      player ``i`` keeps ``{a, b}`` and every other player one strategy,
      and the cover filling ``j`` with ``x`` fails exactly when ``u_i(a,
      ·)`` and ``u_i(b, ·)`` differ at the profile it leaves, with the
      lower-paid strategy as evidence.

    GW and MGW fail first at a node of rank ``P - 1``, and build no engine
    either (:func:`_first_weak_global_violation`).  Below that rank two
    players keep nothing, and by the lemma no cover then eliminates
    anything under a weak kind.  A node of rank ``P - 1`` whose one empty
    player is ``j`` keeps one strategy ``t_i`` for each other player ``i``,
    and everything survives there, as no player faces an opponent profile.
    The cover filling ``j`` with ``x`` leaves ``i`` one profile ``c``, and
    a global pool eliminates ``t_i`` there exactly when some ``s`` has
    ``u_i(s, c) > u_i(t_i, c)``: for MGW too, as a mixture's payoff at one
    profile is an average of pure payoffs.  The evidence is ``(i, t_i)``
    for the least such ``i``.  So a game has a GW or MGW witness exactly
    when some player ``i`` strictly prefers ``s`` to ``t`` at some ``c``:
    the node where ``i`` keeps ``{t}``, another player ``j`` nothing and
    the rest their strategies in ``c`` fails on the cover filling ``j``
    with its strategy in ``c``.

    GS and MGS scan one node at most: the first failing node, found on the
    opponent lattices.  Its covers are asked of an
    :class:`EliminationEngine` in the full scan's order, so it returns the
    same pair and evidence, :func:`_first_excess` of the two survivor sets.
    GS and MGS decide each opponent context where every opponent keeps
    something once, for every target, into one bit set per target over a
    dense index of those contexts, and compare every context with all its
    covers at once, one shift per (opponent, strategy)
    (:func:`_first_strict_global_violation`); the lemma rules out every
    other context, and so the first failing node keeps something for every
    player.  GS fills the bit sets from the payoffs and MGS by the mixed
    kernel on each context's columns, both with no engine.  Either builds
    one only to ask a candidate node's covers, which on a real game it
    never finds.
    """
    _require_arguments(game, kind=kind)
    _require_within(budget, *_monotonicity_work(kind, game.shape))
    if kind.pool is Pool.LOCAL:
        return _first_local_violation(kind, game)
    if kind.mode is Mode.WEAK:
        return _first_weak_global_violation(kind, game)
    masks = _first_strict_global_violation(game, kind)
    if masks is None:
        return None
    engine = EliminationEngine(game)
    small = engine.survivors(kind, masks)
    for player in range(len(masks)):
        for strategy in indices_of(engine.full_masks[player] & ~masks[player]):
            larger = _cover(masks, player, strategy)
            excess = _first_excess(small, engine.survivors(kind, larger))
            if excess is not None:
                return _pair(kind, game, masks, larger, excess)
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
    left: OperatorKind, right: OperatorKind, game: Game, budget: Exhaustive
) -> PointwiseInclusionReport:
    """Check left(G) included in right(G) on every restriction.

    Raises :class:`BudgetExceededError` when the ``2^N`` restrictions are
    more than ``budget.cap``, and ValueError, before any work, when ``left``
    or ``right`` is not an :class:`OperatorKind`, ``game`` not a
    :class:`Game` or ``budget`` not an :class:`Exhaustive`.
    """
    _require_arguments(game, left=left, right=right)
    _require_within(budget, lattice_size(game), "restrictions")
    engine = EliminationEngine(game)
    violations = []
    checked = 0
    for masks in enumerate_restriction_masks(game):
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
    """Compute both fixpoints from the top and classify their relation.

    Raises ValueError, before any work, when ``left`` or ``right`` is not
    an :class:`OperatorKind` or ``game`` not a :class:`Game`.
    """
    _require_arguments(game, left=left, right=right)
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
