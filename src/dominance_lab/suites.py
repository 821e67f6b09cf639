"""Named verification suites behind the CLI's ``verify`` command.

Each suite returns a :class:`SuiteReport` whose checks are plain data; a
failed check flips the report (and the CLI's exit code), so the suites
double as CI gates.  Every certificate emitted while a suite runs is
replayed and tallied.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, repeat
from math import lcm
from operator import add, mul
from typing import Iterable, Sequence

from . import analysis, dominance, operators
from .analysis import Exhaustive
from .dominance import (
    Mode,
    _beats,
    _columns,
    _mixed_dominator,
    _opponent_bases,
    replay_certificate,
)
from .game_model import Game, Restriction, builtin_game, indices_of
from .operators import (
    ALL_OPERATORS,
    EliminationEngine,
    GS,
    GW,
    LS,
    LW,
    MGS,
    MGW,
    MLS,
    MLW,
    IterationTrace,
)
from .random_games import GeneratorConfig, generate
from .simplex import solve_lp

__all__ = [
    "DEFAULT_SEED",
    "SUITES",
    "SUITE_NAMES",
    "CheckResult",
    "SuiteReport",
    "determinism_suite",
    "monotonicity_suite",
    "oracle_suite",
    "paper_suite",
    "run_suite",
    "suite_settings",
    "theorem_suite",
]

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.details:
            out["details"] = self.details
        return out


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    certificates_emitted: int = 0
    certificates_failed: int = 0

    @property
    def passed(self) -> bool:
        return self.certificates_failed == 0 and all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **details: object) -> bool:
        self.checks.append(CheckResult(name, bool(passed), dict(details)))
        return bool(passed)

    def tally_certificates(self, traces: Iterable[IterationTrace]) -> None:
        for trace in traces:
            for certificate in trace.certificates():
                self.certificates_emitted += 1
                if not replay_certificate(certificate):
                    self.certificates_failed += 1

    def absorb(self, other: "SuiteReport") -> None:
        self.checks.extend(other.checks)
        self.certificates_emitted += other.certificates_emitted
        self.certificates_failed += other.certificates_failed

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "certificates": {
                "emitted": self.certificates_emitted,
                "replayed": self.certificates_emitted - self.certificates_failed,
                "failed": self.certificates_failed,
            },
            "checks": [c.to_dict() for c in self.checks],
        }


def paper_suite(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Golden checks on the two bundled games across all eight operators."""
    report = SuiteReport(suite="paper", seed=seed)
    g1 = builtin_game("section3")
    g2 = builtin_game("example41")
    engine1 = EliminationEngine(g1)
    engine2 = EliminationEngine(g2)

    # Payoff spot values.
    report.add(
        "g1 payoffs", g1.payoffs[0][0] == 1 and g1.payoffs[1][0] == 0,
        expected="Row (A,X)=1, Column (A,X)=0",
    )
    from .game_model import payoff

    report.add("g2 payoff Row at (B,Y)", payoff(g2, 0, (1, 1)) == 2)

    # One application on g1.
    top1 = Restriction.full(g1)
    ls_after = engine1.step(LS, top1).after
    mls_after = engine1.step(MLS, top1).after
    expected = ((0,), (0,))
    report.add(
        "LS and MLS reduce g1 to A x X",
        ls_after.kept == expected and mls_after.kept == expected,
        got={"LS": ls_after.kept_names(), "MLS": mls_after.kept_names()},
    )
    frozen = Restriction(g1, ((1,), (0,)))
    report.add(
        "B x X is a fixpoint of LS and MLS on g1",
        engine1.step(LS, frozen).after.kept == frozen.kept
        and engine1.step(MLS, frozen).after.kept == frozen.kept,
    )

    # One application and idempotence of MLW on g2.
    top2 = Restriction.full(g2)
    mlw_step = engine2.step(MLW, top2)
    report.add(
        "MLW reduces g2 to AB x XY",
        mlw_step.after.kept == ((0, 1), (0, 1)),
        got=mlw_step.after.kept_names(),
    )
    report.add(
        "MLW fixes AB x XY",
        engine2.step(MLW, mlw_step.after).after.kept == mlw_step.after.kept,
    )

    # Iterations.
    traces1 = {kind.name: engine1.iterate(kind) for kind in ALL_OPERATORS}
    traces2 = {kind.name: engine2.iterate(kind) for kind in ALL_OPERATORS}
    report.add(
        "iterate(MLW) on g2: one eliminating step to AB x XY",
        traces2["MLW"].fixpoint.kept == ((0, 1), (0, 1))
        and traces2["MLW"].eliminating_steps == 1,
    )
    report.add(
        "iterate(LW) on g2: three eliminating steps to A x X",
        traces2["LW"].fixpoint.kept == ((0,), (0,))
        and traces2["LW"].eliminating_steps == 3,
        steps=[s.after.kept_names() for s in traces2["LW"].steps],
    )
    report.add(
        "iterate(LS) on g1 ends at A x X in one eliminating step",
        traces1["LS"].fixpoint.kept == ((0,), (0,))
        and traces1["LS"].eliminating_steps == 1,
    )

    # Monotonicity: LS/MLS fail on g1 at the documented pair, GS/MGS never fail.
    for kind in (LS, MLS):
        witness = analysis.check_monotonic(kind, g1, Exhaustive())
        report.add(
            f"{kind.name} nonmonotonic on g1 at (B x X, full)",
            witness is not None
            and witness.smaller.kept == ((1,), (0,))
            and witness.larger.kept == ((0, 1), (0,))
            and witness.replay(),
            witness=witness.to_dict() if witness else None,
        )
    monotonic = {}
    for game_name, game in (("g1", g1), ("g2", g2)):
        for kind in (GS, MGS):
            monotonic[game_name, kind] = analysis.check_monotonic(kind, game, Exhaustive()) is None
            report.add(f"{kind.name} monotonic on {game_name}", monotonic[game_name, kind])

    # Pointwise inclusion and the fixpoint reversal on g2.
    pw = analysis.pointwise_inclusion(MLW, LW, g2, Exhaustive())
    report.add("MLW(G) within LW(G) across g2 lattice", pw.holds, checked=pw.checked)
    rel = analysis.compare_fixpoints(MLW, LW, g2)
    report.add(
        "MLW fixpoint strictly above LW fixpoint on g2",
        rel.relation == "superset"
        and rel.left_fixpoint.kept == ((0, 1), (0, 1))
        and rel.right_fixpoint.kept == ((0,), (0,)),
        report=rel.to_dict(),
    )

    # Inclusion lemma: T(G) within U(G) on every G, and T or U monotonic,
    # give fix T within fix U.
    report.add(
        "lemma hypotheses and conclusion hold for (MGS, GS) on g1",
        analysis.pointwise_inclusion(MGS, GS, g1, Exhaustive()).holds
        and (monotonic["g1", MGS] or monotonic["g1", GS])
        and traces1["MGS"].fixpoint.issubset(traces1["GS"].fixpoint),
    )
    report.add(
        "lemma hypotheses fail and conclusion fails for (MLW, LW) on g2",
        pw.holds
        and analysis.check_monotonic(MLW, g2, Exhaustive()) is not None
        and analysis.check_monotonic(LW, g2, Exhaustive()) is not None
        and not traces2["MLW"].fixpoint.issubset(traces2["LW"].fixpoint),
    )

    # Global/local fixpoint equalities.
    for game_name, traces in (("g1", traces1), ("g2", traces2)):
        equalities = _global_local_equalities(traces)
        report.add(f"global/local fixpoint equalities on {game_name}",
                   all(equalities.values()), equalities=equalities)
    report.add(
        "GW and LW fixpoints on g2 equal A x X",
        traces2["GW"].fixpoint.kept == ((0,), (0,))
        and traces2["LW"].fixpoint.kept == ((0,), (0,)),
    )

    report.tally_certificates(traces1.values())
    report.tally_certificates(traces2.values())
    return report


def monotonicity_suite(seed: int = DEFAULT_SEED, games: int = 100) -> SuiteReport:
    """GS/MGS stay monotonic everywhere; the weak family fails somewhere."""
    report = SuiteReport(suite="monotonicity", seed=seed)
    g1 = builtin_game("section3")
    g2 = builtin_game("example41")

    for game_name, game in (("g1", g1), ("g2", g2)):
        for kind in (GS, MGS):
            witness = analysis.check_monotonic(kind, game, Exhaustive())
            report.add(f"{kind.name} monotonic on {game_name} (exhaustive)", witness is None)

    for kind in (LW, MLW, GW, MGW):
        witness = analysis.check_monotonic(kind, g2, Exhaustive())
        report.add(
            f"{kind.name} has a monotonicity witness in the g2 lattice",
            witness is not None and witness.replay(),
            witness=witness.to_dict() if witness else None,
        )

    config = GeneratorConfig(
        seed=seed, players=(2, 2), strategies=(2, 4), payoff_range=(-5, 5), tie_bias=0.25
    )
    failures = []
    for i in range(games):
        game = generate(config.with_seed(seed + i))
        for kind in (GS, MGS):
            witness = analysis.check_monotonic(kind, game, Exhaustive())
            if witness is not None:
                failures.append({"seed": seed + i, "operator": kind.name,
                                 "witness": witness.to_dict()})
    report.add(
        f"GS and MGS monotonic on {games} random games (exhaustive)",
        not failures,
        failures=failures,
    )
    return report


_CHAIN_TRIPLES = (
    (MLW, LW, LS),
    (MLW, MLS, LS),
    (MGW, GW, GS),
    (MGW, MGS, GS),
)

_FIXPOINT_INCLUSIONS = ((MLS, LS), (LW, LS), (MLW, MLS))

_EQUALITY_PAIRS = ((GS, LS), (MGS, MLS), (GW, LW), (MGW, MLW))


def _global_local_equalities(traces: dict[str, IterationTrace]) -> dict[str, bool]:
    """Whether each global operator reaches its local twin's fixpoint, keyed ``"GS=LS"``."""
    return {
        f"{g.name}={l.name}": traces[g.name].fixpoint.kept == traces[l.name].fixpoint.kept
        for g, l in _EQUALITY_PAIRS
    }


def _check_one_game(game: Game) -> tuple[list[str], dict[str, IterationTrace]]:
    """Theorem checks for a single game: its failure descriptions and traces."""
    engine = EliminationEngine(game)
    traces = {kind.name: engine.iterate(kind) for kind in ALL_OPERATORS}
    failures = []

    for left, right in _FIXPOINT_INCLUSIONS:
        if not traces[left.name].fixpoint.issubset(traces[right.name].fixpoint):
            failures.append(f"{left.name} fixpoint not within {right.name} fixpoint")
    for name, equal in _global_local_equalities(traces).items():
        if not equal:
            global_name, local_name = name.split("=")
            failures.append(f"{global_name} fixpoint differs from {local_name}")

    iterates = {}
    for trace in traces.values():
        for step in trace.steps:
            iterates[step.before.masks] = None
        iterates[trace.fixpoint.masks] = None
    for masks in iterates:
        results = {
            kind.name: engine.survivors(kind, masks)
            for kind in ALL_OPERATORS
        }
        for first, second, third in _CHAIN_TRIPLES:
            a, b, c = results[first.name], results[second.name], results[third.name]
            if any(x & ~y for x, y in zip(a, b)) or any(x & ~y for x, y in zip(b, c)):
                failures.append(
                    f"chain {first.name} <= {second.name} <= {third.name} fails at {masks}"
                )

    for kind in (LS, MLS):
        for step in traces[kind.name].steps:
            if not step.after.is_subgame:
                failures.append(f"{kind.name} emptied a component")
    return failures, traces


def _game_key(game: Game) -> tuple:
    """A key of strings and ints, equal exactly when the games are equal.

    Hashing it skips ``Fraction.__hash__``: the payoffs are fixed by the
    scaled tables and each player's scale (:class:`Game`).
    """
    return game.players, game.strategies, game.scaled_payoffs, game.scales


def theorem_suite(
    seed: int = DEFAULT_SEED,
    games: int = 500,
    players: tuple[int, int] = (2, 3),
    strategies: tuple[int, int] = (2, 4),
    payoff_range: tuple[int, int] = (-5, 5),
    tie_bias: float = 0.25,
) -> SuiteReport:
    """Fixpoint inclusions/equalities and per-iterate chains over random games."""
    report = SuiteReport(suite="theorems", seed=seed)
    config = GeneratorConfig(
        seed=seed,
        players=players,
        strategies=strategies,
        payoff_range=payoff_range,
        tie_bias=tie_bias,
    )
    failures: list[str] = []
    seen: set[tuple] = set()
    for i in range(games):
        game = generate(config.with_seed(seed + i))
        seen.add(_game_key(game))
        rows, traces = _check_one_game(game)
        if rows:
            failures.append(f"seed {seed + i}: " + "; ".join(rows))
        report.tally_certificates(traces.values())
    report.add(
        f"theorem and chain properties on {games} random games",
        not failures,
        failures=failures[:10],
        distinct_games=len(seen),
        collisions=games - len(seen),
    )
    return report


def _hand_lp_checks(report: SuiteReport) -> None:
    """The two hand-derived dominance programs with known optima."""
    # Strict: rows T=(3,0), M=(0,3), B=(1,1); target B; pool T, M, B.
    strict = solve_lp([(2, -1), (-1, 2), (0, 0)], True)
    report.add(
        "hand LP: strict 3x2 program has optimum 1/2",
        strict.value == Fraction(1, 2),
        value=str(strict.value),
    )

    # Weak: example41 rows vs target C; margins per profile X, Y, Z.  Its
    # payoffs are ints, so the scaled margins are the payoff margins.
    g2 = builtin_game("example41")
    table = g2.scaled_payoffs[0]
    rows = [[table[g2.flat_index((s, c))] for c in range(3)] for s in range(4)]
    margins = [tuple(a - b for a, b in zip(row, rows[2])) for row in rows]
    weak = solve_lp(margins, False)
    report.add(
        "hand LP: weak target-C program has optimum 1",
        weak.value == 1,
        value=str(weak.value),
    )


@lru_cache(maxsize=None)
def _grid_weights(count: int, max_denominator: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Every mixture of ``count`` strategies with denominators ``<= max_denominator``.

    Returns ``(scale, weights)`` with ``scale = lcm(1..max_denominator)``: the
    mixture giving strategy ``j`` the weight ``k_j / den`` is the int weight
    vector ``k * (scale // den)``, which sums to ``scale``.  Each distinct
    mixture is listed once, where it is first reached (counts with a common
    factor reach a mixture again at a larger ``den``).  The table depends on
    no game, so it is built once per ``(count, max_denominator)``.
    """
    scale = lcm(*range(1, max_denominator + 1))
    weights = {}
    for den in range(1, max_denominator + 1):
        step = scale // den
        for picks in combinations_with_replacement(range(count), den):
            weights[tuple(step * picks.count(j) for j in range(count))] = None
    return scale, tuple(weights)


@lru_cache(maxsize=None)
def _grid_weight_columns(
    count: int, max_denominator: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """:func:`_grid_weights` transposed: ``(scale, columns)``, one column per strategy.

    ``columns[j][m]`` is the weight of strategy ``j`` in the grid's ``m``-th
    mixture.  Built once per ``(count, max_denominator)``.
    """
    scale, weights = _grid_weights(count, max_denominator)
    return scale, tuple(zip(*weights))


def _grid_mixtures(
    columns: Sequence[Sequence[int]], max_denominator: int
) -> tuple[int, list[tuple[int, ...]]]:
    """The grid of mixtures of the pure ``columns``, as ``(scale, mixed columns)``.

    The grid holds every mixture with denominators ``<= max_denominator``,
    as int weights over ``scale = lcm(1..max_denominator)`` (see
    :func:`_grid_weights`); its mixed column ``sum_j w_j col_j`` compares
    with ``scale`` times a target's column exactly as the mixture's payoffs
    compare with the target's.  Each distinct mixed column is listed once,
    in a deterministic order: mixtures of equal columns repeat a column
    already listed and would decide nothing new.
    """
    scale, weight_columns = _grid_weight_columns(len(columns), max_denominator)
    # One row per opponent profile, holding every mixture's payoff there:
    # the sum over strategies of the strategy's weight column times its
    # payoff at the profile, added up one strategy at a time.
    sums = []
    for row in zip(*columns):
        mixed = map(mul, weight_columns[0], repeat(row[0]))
        for weight_column, value in zip(weight_columns[1:], row[1:]):
            mixed = map(add, mixed, map(mul, weight_column, repeat(value)))
        sums.append(tuple(mixed))
    if not sums:
        # No opponent profiles: every mixed column is the empty column.
        return scale, [()]
    return scale, list(dict.fromkeys(zip(*sums)))


def _grid_dominated(
    grid: tuple[int, Sequence[tuple[int, ...]]], target_col: Sequence[int], mode: Mode
) -> bool:
    """Whether some mixture of ``grid`` (see :func:`_grid_mixtures`) dominates ``target_col``.

    A search oracle: it can confirm that a dominator exists, never that none
    does (a true witness may need a larger denominator).
    """
    scale, mixtures = grid
    scaled_target = tuple(scale * t for t in target_col)
    return any(map(_beats, mixtures, repeat(scaled_target), repeat(mode)))


def oracle_suite(
    seed: int = DEFAULT_SEED, games: int = 100, max_denominator: int = 6
) -> SuiteReport:
    """Grid-enumerated mixed dominators versus the LP, plus hand-derived optima.

    The grid holds every mixture with denominators ``<= max_denominator``,
    as int weights over ``lcm(1..max_denominator)`` (``lcm(1..6) = 60`` by
    default), and tries each one with :func:`dominance._beats`.  The grid can
    only confirm that a dominator exists, so the assertion is one-sided:
    grid found implies LP found, and every LP witness replays.

    Grid and LP share each player's payoff columns, built once per player:
    the LP side calls :func:`dominance._mixed_dominator` on them with the
    player's full strategy set as the pool, the call that
    ``find_mixed_dominator(top, player, target, Pool.GLOBAL, mode)`` ends
    in.  What stays independent of the LP is the grid's decision, ``_beats``
    against its own mixtures of those columns, and the replay: each LP
    witness goes through :func:`dominance.dominates`, which rebuilds its
    columns from the restriction.
    """
    report = SuiteReport(suite="oracle", seed=seed)
    _hand_lp_checks(report)

    config = GeneratorConfig(
        seed=seed, players=(2, 2), strategies=(2, 3), payoff_range=(-3, 3), tie_bias=0.3
    )
    mismatches = []
    replay_failures = []
    grid_hits = 0
    lp_hits = 0
    for i in range(games):
        game = generate(config.with_seed(seed * 31 + i))
        top = Restriction.full(game)
        for player in range(game.player_count):
            bases = _opponent_bases(game, player, top.masks[:player] + top.masks[player + 1 :])
            columns = _columns(game, player, bases)
            pool = indices_of(top.masks[player])
            grid = _grid_mixtures(columns, max_denominator)
            for target, target_col in enumerate(columns):
                for mode in (Mode.STRICT, Mode.WEAK):
                    grid_found = _grid_dominated(grid, target_col, mode)
                    lp_witness = _mixed_dominator(player, target, pool, columns, mode)
                    grid_hits += grid_found
                    lp_hits += lp_witness is not None
                    if grid_found and lp_witness is None:
                        mismatches.append(
                            {"seed": seed * 31 + i, "player": player,
                             "target": target, "mode": mode.value}
                        )
                    if lp_witness is not None and not dominance.dominates(
                        lp_witness, target, top, player, mode
                    ):
                        replay_failures.append(
                            {"seed": seed * 31 + i, "player": player,
                             "target": target, "mode": mode.value}
                        )
    report.add(
        f"grid dominators matched by the LP on {games} games",
        not mismatches,
        grid_hits=grid_hits,
        lp_hits=lp_hits,
        mismatches=mismatches,
    )
    report.add("every LP witness replays", not replay_failures, failures=replay_failures)
    return report


def determinism_suite(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Repeat representative computations and require identical serialized output."""
    import json

    report = SuiteReport(suite="determinism", seed=seed)
    g2 = builtin_game("example41")

    first = operators.iterate(MLW, g2).to_dict()
    second = operators.iterate(MLW, g2).to_dict()
    report.add("repeated MLW iteration serializes identically",
               json.dumps(first) == json.dumps(second))

    witnesses = [analysis.check_monotonic(LW, g2, Exhaustive()) for _ in range(2)]
    report.add("repeated exhaustive LW witness serializes identically",
               None not in witnesses and len({json.dumps(w.to_dict()) for w in witnesses}) == 1)

    config = GeneratorConfig(seed=seed)
    report.add("random game generation is seed-deterministic",
               generate(config) == generate(config))
    return report


SUITES = {
    "paper": paper_suite,
    "monotonicity": monotonicity_suite,
    "theorems": theorem_suite,
    "oracle": oracle_suite,
    "determinism": determinism_suite,
}

SUITE_NAMES = (*SUITES, "all")


def suite_settings(name: str) -> frozenset[str]:
    """The keyword parameters of suite ``name`` other than ``seed``; under ``all``, every suite's."""
    if name == "all":
        return frozenset().union(*map(suite_settings, SUITES))
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITE_NAMES)})")
    return frozenset(inspect.signature(SUITES[name]).parameters) - {"seed"}


def run_suite(name: str, seed: int = DEFAULT_SEED, **settings: object) -> SuiteReport:
    """Run one named suite, or every suite in turn under ``all``.

    Each suite gets only the ``settings`` it takes (:func:`suite_settings`);
    one given as None keeps the suite's default.  A setting no suite takes
    raises TypeError.
    """
    unknown = settings.keys() - suite_settings("all")
    if unknown:
        raise TypeError(f"no suite takes {', '.join(sorted(unknown))}")
    if name == "all":
        combined = SuiteReport(suite="all", seed=seed)
        for part in SUITES:
            combined.absorb(run_suite(part, seed, **settings))
        return combined
    taken = suite_settings(name)
    return SUITES[name](seed, **{k: v for k, v in settings.items() if k in taken and v is not None})
