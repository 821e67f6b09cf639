"""Named verification suites behind the CLI's ``verify`` command.

Each suite returns a :class:`SuiteReport` whose checks are plain data; a
failed check flips the report (and the CLI's exit code), so the suites
double as CI gates.  Every certificate emitted while a suite runs is
replayed and tallied.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import analysis, dominance, operators
from .analysis import Exhaustive, Sampled
from .dominance import (
    Mode,
    Pool,
    _beats,
    _column,
    _opponent_bases,
    find_mixed_dominator,
    replay_certificate,
)
from .game_model import Game, Restriction, builtin_game
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

__all__ = [
    "DEFAULT_SEED",
    "SUITE_NAMES",
    "CheckResult",
    "SuiteReport",
    "default_seed",
    "determinism_suite",
    "monotonicity_suite",
    "oracle_suite",
    "paper_suite",
    "run_suite",
    "theorem_suite",
]

DEFAULT_SEED = 1729

SUITE_NAMES = ("paper", "monotonicity", "theorems", "oracle", "determinism", "all")


def default_seed() -> int:
    """The built-in suite seed, overridable via DOMINANCE_LAB_SEED."""
    raw = os.environ.get("DOMINANCE_LAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DOMINANCE_LAB_SEED must be an integer, got {raw!r}") from None


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
    empty_opponent_queries: int = 0

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
        self.empty_opponent_queries += other.empty_opponent_queries

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
            "empty_opponent_queries": self.empty_opponent_queries,
            "checks": [c.to_dict() for c in self.checks],
        }


def paper_suite(seed: int | None = None) -> SuiteReport:
    """Golden checks on the two bundled games across all eight operators."""
    report = SuiteReport(suite="paper", seed=seed if seed is not None else default_seed())
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
    report.empty_opponent_queries += engine1.empty_opponent_queries
    report.empty_opponent_queries += engine2.empty_opponent_queries
    return report


def monotonicity_suite(seed: int | None = None, games: int = 100) -> SuiteReport:
    """GS/MGS stay monotonic everywhere; the weak family fails somewhere."""
    seed = seed if seed is not None else default_seed()
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


def _check_one_game(game: Game) -> tuple[list[str], EliminationEngine, dict[str, IterationTrace]]:
    """Theorem checks for a single game: its failure descriptions, engine and traces."""
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
    return failures, engine, traces


def theorem_suite(
    seed: int | None = None,
    games: int = 500,
    players: tuple[int, int] = (2, 3),
    strategies: tuple[int, int] = (2, 4),
    payoff_range: tuple[int, int] = (-5, 5),
    tie_bias: float = 0.25,
) -> SuiteReport:
    """Fixpoint inclusions/equalities and per-iterate chains over random games."""
    seed = seed if seed is not None else default_seed()
    report = SuiteReport(suite="theorems", seed=seed)
    config = GeneratorConfig(
        seed=seed,
        players=players,
        strategies=strategies,
        payoff_range=payoff_range,
        tie_bias=tie_bias,
    )
    failures: list[str] = []
    seen: set[Game] = set()
    for i in range(games):
        game = generate(config.with_seed(seed + i))
        seen.add(game)
        rows, engine, traces = _check_one_game(game)
        if rows:
            failures.append(f"seed {seed + i}: " + "; ".join(rows))
        report.tally_certificates(traces.values())
        report.empty_opponent_queries += engine.empty_opponent_queries
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
    margins = [tuple(map(Fraction, row)) for row in ((2, -1), (-1, 2), (0, 0))]
    strict = dominance._solve_dominance_program(margins, 2, Mode.STRICT)
    report.add(
        "hand LP: strict 3x2 program has optimum 1/2",
        strict.value == Fraction(1, 2),
        value=str(strict.value),
    )

    # Weak: example41 rows vs target C; margins per profile X, Y, Z.
    g2 = builtin_game("example41")
    rows = [[g2.payoffs[0][g2.flat_index((s, c))] for c in range(3)] for s in range(4)]
    margins = [tuple(a - b for a, b in zip(row, rows[2])) for row in rows]
    weak = dominance._solve_dominance_program(margins, 3, Mode.WEAK)
    report.add(
        "hand LP: weak target-C program has optimum 1",
        weak.value == 1,
        value=str(weak.value),
    )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every tuple of ``parts`` nonnegative ints summing to ``total``, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _grid_dominated(
    columns: Sequence[Sequence[int]], target_col: Sequence[int], mode: Mode, max_denominator: int
) -> bool:
    """Whether a mixture of the pure ``columns``, each weight a multiple of
    ``1/den`` for some ``den <= max_denominator``, dominates ``target_col``.

    A search oracle: it can confirm that a dominator exists, never that none
    does (a true witness may need a larger denominator).  The mixture with
    counts ``k`` over ``den`` dominates exactly when ``sum_j k_j col_j``
    beats ``den`` times the target's column, so every comparison is on ints.
    """
    profiles = range(len(target_col))
    for den in range(1, max_denominator + 1):
        scaled_target = [den * t for t in target_col]
        for counts in _compositions(den, len(columns)):
            mixed = [sum(k * col[c] for k, col in zip(counts, columns)) for c in profiles]
            if _beats(mixed, scaled_target, mode):
                return True
    return False


def oracle_suite(
    seed: int | None = None, games: int = 100, max_denominator: int = 6
) -> SuiteReport:
    """Grid-enumerated mixed dominators versus the LP, plus hand-derived optima.

    The grid can only confirm that a dominator exists, so the assertion is
    one-sided: grid found implies LP found, and every LP witness replays.
    """
    seed = seed if seed is not None else default_seed()
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
            columns = [_column(game, player, s, bases) for s in range(game.shape[player])]
            for target, target_col in enumerate(columns):
                for mode in (Mode.STRICT, Mode.WEAK):
                    grid_found = _grid_dominated(columns, target_col, mode, max_denominator)
                    lp_witness = find_mixed_dominator(top, player, target, Pool.GLOBAL, mode)
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


def determinism_suite(seed: int | None = None) -> SuiteReport:
    """Repeat representative computations and require identical serialized output."""
    import json

    seed = seed if seed is not None else default_seed()
    report = SuiteReport(suite="determinism", seed=seed)
    g2 = builtin_game("example41")

    first = operators.iterate(MLW, g2).to_dict()
    second = operators.iterate(MLW, g2).to_dict()
    report.add("repeated MLW iteration serializes identically",
               json.dumps(first) == json.dumps(second))

    w1 = analysis.check_monotonic(LW, g2, Sampled(seed=seed, count=300))
    w2 = analysis.check_monotonic(LW, g2, Sampled(seed=seed, count=300))
    report.add(
        "sampled monotonicity search is seed-deterministic",
        (w1 is None) == (w2 is None)
        and (w1 is None or json.dumps(w1.to_dict()) == json.dumps(w2.to_dict())),
    )

    config = GeneratorConfig(seed=seed)
    report.add("random game generation is seed-deterministic",
               generate(config) == generate(config))
    return report


def run_suite(
    name: str,
    seed: int | None = None,
    games: int | None = None,
    theorem_config: dict | None = None,
) -> SuiteReport:
    """Run one named suite (or every suite under ``all``).

    ``games`` overrides each suite's own random-game count when it is not None.
    """
    seed = seed if seed is not None else default_seed()
    count = {} if games is None else {"games": games}
    if name == "paper":
        return paper_suite(seed)
    if name == "monotonicity":
        return monotonicity_suite(seed, **count)
    if name == "theorems":
        return theorem_suite(seed, **count, **(theorem_config or {}))
    if name == "oracle":
        return oracle_suite(seed, **count)
    if name == "determinism":
        return determinism_suite(seed)
    if name == "all":
        combined = SuiteReport(suite="all", seed=seed)
        combined.absorb(paper_suite(seed))
        combined.absorb(monotonicity_suite(seed, **count))
        combined.absorb(theorem_suite(seed, **count, **(theorem_config or {})))
        combined.absorb(oracle_suite(seed, **count))
        combined.absorb(determinism_suite(seed))
        return combined
    raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITE_NAMES)})")
