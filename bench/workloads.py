"""The four benchmark workloads: seeded inputs, one item at a time, checked.

Every workload is driven through public functions of ``dominance_lab`` only.
``setup`` imports the package and builds the seeded inputs; it is what the
``setup_s`` metric times, so it must stay the first place the package is
imported.  ``item(i)`` returns the i-th closed-loop item.  Its ``run`` is the
timed call; its check runs afterwards, outside the clock and outside any
trace.

Inputs come from finite pools so that every item has decisions recorded in
``reference/<workload>.json`` (see ``run.py --record-reference``).  The
benchmark seed picks the inputs from the pool, so the same seed always gives
the same inputs.  A run repeats one round of items; every seed's round costs
about the same, so that runs with different seeds measure the same amount of
work (see ``stratified_pick`` and ``payoff_variant``).
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: Game seeds with a recorded reference, per workload.  Suite workloads draw
#: one game per cost stratum of their pool (see ``stratified_pick``).  Lattice
#: and solve workloads take base games from pool member ``seed // VARIANTS``
#: and give them seed-specific payoffs that keep every decision (see
#: ``payoff_variant``).
POOLS = {"theorems": 1000, "oracle": 1000, "lattice": 16, "solve": 16}
VARIANTS = 1000
#: Games in one round of a suite workload: one from each cost stratum.
STRATA = 40

#: Acceptance-criterion generator config of the theorem suite.
THEOREM_CONFIG = dict(players=(2, 3), strategies=(2, 4), payoff_range=(-5, 5), tie_bias=0.25)

LATTICE_SHAPES = (("4x4", 2, 4), ("3x3x3", 3, 3), ("5x5", 2, 5))
LATTICE_KINDS = ("GS", "LS", "GW", "LW")
SOLVE_SHAPES = (("6x6", 2, 6), ("8x8", 2, 8), ("4x4x4", 3, 4), ("5x5x5", 3, 5),
                ("3x3x3x3", 4, 3))
SOLVE_OPERATORS = ("mls", "mgs", "mlw", "mgw")


@dataclass
class Item:
    """One closed-loop item.

    ``run`` is the timed call.  ``decide`` reduces its result to the
    decisions stored in the reference; ``verify`` replays what the result
    claims and returns the problems found (empty when it holds).
    """

    key: str  # the same input always has the same key
    run: Callable[[], object]
    decide: Callable[[object], object]
    verify: Callable[[object], list]

    def check(self, result: object, reference: dict) -> list:
        problems = self.verify(result)
        if self.key not in reference:
            return problems + [f"{self.key}: no recorded reference"]
        got = self.decide(result)
        if got != reference[self.key]:
            problems.append(f"{self.key}: decisions {got!r} differ from {reference[self.key]!r}")
        return problems


def restriction_text(kept_names: dict) -> str:
    """Compact form of a restriction's kept labels: 'AB|C' for two players."""
    return "|".join("".join(labels) for labels in kept_names.values())


class Workload:
    """A round of ``round_size`` distinct items, built by ``setup``.

    A run repeats the round; ``item(i)`` is the i-th item of the round.
    """

    name = ""
    round_size = 1
    #: Whether ``run.py --record-reference`` also records each pool item's
    #: cost, for ``stratified_pick``.
    records_cost = False

    def __init__(self, seed: int, workdir: str, costs: dict | None) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Recorded cost per pool key (``reference/<name>.json``), or None.
        self.costs = costs

    def setup(self) -> None:
        # The CLI module imports every other module of the package.
        importlib.import_module("dominance_lab.cli")
        self.dl = importlib.import_module("dominance_lab")

    def item(self, i: int) -> Item:
        raise NotImplementedError

    def pool_items(self) -> list:
        """One item per input of the pool, for recording the reference."""
        raise NotImplementedError


def stratified_pick(costs: dict, strata: int, seed: int) -> list:
    """One pool key from each of ``strata`` cost strata, in a seeded order.

    The pool, sorted by recorded cost, is cut into ``strata`` runs of equal
    size and the seed draws one key from each.  Every seed's selection then
    holds the same mix of cheap and expensive inputs, so its total cost
    varies only within the strata.
    """
    ranked = sorted(costs, key=lambda key: (costs[key], int(key)))
    rng = random.Random(f"strata/{seed}")
    picked = [
        rng.choice(ranked[j * len(ranked) // strata:(j + 1) * len(ranked) // strata])
        for j in range(strata)
    ]
    rng.shuffle(picked)
    return picked


class _SuiteWorkload(Workload):
    """One game of a verify suite per item: a round is one game per cost stratum."""

    round_size = STRATA
    records_cost = True

    def setup(self) -> None:
        super().setup()
        self.game_seeds = [int(key) for key in stratified_pick(self.costs, STRATA, self.seed)]

    def item(self, i: int) -> Item:
        return self._item(self.game_seeds[i])

    def pool_items(self) -> list:
        return [self._item(s) for s in range(POOLS[self.name])]


class Theorems(_SuiteWorkload):
    """``theorem_suite`` on one game per item: many tiny LPs on cold engines."""

    name = "theorems"

    def _item(self, game_seed: int) -> Item:
        suites = self.dl.suites

        def run():
            return suites.theorem_suite(seed=game_seed, games=1, **THEOREM_CONFIG)

        return Item(str(game_seed), run, _suite_decisions("certificates_emitted"), _suite_passed)


class Oracle(_SuiteWorkload):
    """``oracle_suite`` on one game per item: grid candidates checked by ``dominates``."""

    name = "oracle"

    def _item(self, game_seed: int) -> Item:
        suites = self.dl.suites

        def run():
            return suites.oracle_suite(seed=game_seed, games=1, max_denominator=6)

        return Item(str(game_seed), run, _suite_decisions("grid_hits", "lp_hits"), _suite_passed)


def _suite_decisions(*fields: str) -> Callable[[object], list]:
    """A suite report's verdict plus the named counts (attributes or check details)."""

    def decide(report) -> list:
        details = {k: v for c in report.checks for k, v in c.details.items()}
        return [report.passed] + [
            getattr(report, f) if hasattr(report, f) else details[f] for f in fields
        ]

    return decide


def _suite_passed(report) -> list:
    return [] if report.passed else [f"suite {report.suite} seed {report.seed} failed"]


def _pool_game(dl, game_seed: int, players: int, strategies: int, payoffs: tuple) -> object:
    config = dl.GeneratorConfig(
        seed=game_seed,
        players=(players, players),
        strategies=(strategies, strategies),
        payoff_range=payoffs,
        tie_bias=0.25,
    )
    return dl.generate(config)


def payoff_variant(dl, game, rng: random.Random):
    """The game with each player's payoffs scaled by a positive integer and
    shifted by an integer per opponent profile.

    Both changes preserve every strict and weak dominance relation, pure or
    mixed (the shift cancels in every payoff difference at a fixed opponent
    profile, and mixtures have total weight 1).  A variant therefore has
    exactly the decisions of its base game, while its payoffs, and so every
    input the package sees, depend on the benchmark seed.  Runs with
    different seeds then measure the same amount of work.
    """
    tables = []
    for player, table in enumerate(game.payoffs):
        scale = rng.randint(1, 3)
        stride, count = game.strides[player], game.shape[player]
        shifts: dict[int, int] = {}
        variant = []
        for index, value in enumerate(table):
            opponents = index - (index // stride % count) * stride
            if opponents not in shifts:
                shifts[opponents] = rng.randint(-5, 5)
            variant.append(scale * value + shifts[opponents])
        tables.append(tuple(variant))
    return dl.Game(game.players, game.strategies, tuple(tables))


class _VariantWorkload(Workload):
    """A round is every (shape, operation) pair on one game per shape.

    The games are seed-specific variants of the base games of pool member
    ``seed // VARIANTS``, so every seed's round has the same mix.
    """

    shapes: tuple = ()
    operations: tuple = ()
    payoffs = (-5, 5)

    @property
    def round_size(self) -> int:
        return len(self.shapes) * len(self.operations)

    @property
    def base(self) -> int:
        return self.seed // VARIANTS % POOLS[self.name]

    def setup(self) -> None:
        super().setup()
        self.games = self._prepare(self.base, self.seed)

    def _games(self, base: int, seed: int | None) -> dict:
        """Games per shape: the base games, or their variants for ``seed``."""
        games = {}
        for shape, players, strategies in self.shapes:
            game = _pool_game(self.dl, base, players, strategies, self.payoffs)
            if seed is not None:
                game = payoff_variant(self.dl, game, random.Random(f"{seed}/{shape}"))
            games[shape] = game
        return games

    def _prepare(self, base: int, seed: int | None) -> dict:
        return self._games(base, seed)

    def item(self, i: int) -> Item:
        shape = self.shapes[i // len(self.operations)][0]
        operation = self.operations[i % len(self.operations)]
        return self._item(self.games, self.base, shape, operation)

    def pool_items(self) -> list:
        items = []
        for base in range(POOLS[self.name]):
            games = self._prepare(base, None)
            items += [self._item(games, base, shape, operation)
                      for shape, _, _ in self.shapes for operation in self.operations]
        return items


class Lattice(_VariantWorkload):
    """Exhaustive ``check_monotonic`` of GS, LS, GW and LW over one game per shape."""

    name = "lattice"
    shapes = LATTICE_SHAPES
    operations = LATTICE_KINDS

    def _item(self, games: dict, base: int, shape: str, kind_name: str) -> Item:
        dl = self.dl
        analysis = dl.analysis
        game = games[shape]
        kind = dl.operator_from_name(kind_name)
        key = f"{shape}/{base}/{kind_name}"

        def run():
            return analysis.check_monotonic(kind, game, dl.Exhaustive())

        def decide(witness):
            return "none" if witness is None else "witness"

        def verify(witness):
            if witness is None:
                return []
            problems = []
            if not (witness.smaller.issubset(witness.larger)
                    and witness.smaller.kept != witness.larger.kept):
                problems.append(f"{key}: witness pair is not a proper inclusion")
            if not witness.replay():
                problems.append(f"{key}: witness does not replay")
            return problems

        return Item(key, run, decide, verify)


class Solve(_VariantWorkload):
    """In-process ``solve --trace`` of the mixed operators on game files."""

    name = "solve"
    shapes = SOLVE_SHAPES
    operations = SOLVE_OPERATORS
    payoffs = (-9, 9)

    def _prepare(self, base: int, seed: int | None) -> dict:
        """Write each game as a game file; return {shape: (game, path)}."""
        games = {}
        for shape, game in self._games(base, seed).items():
            path = os.path.join(self.workdir, f"{shape}-{base}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.dl.game_to_json_dict(game), handle)
            games[shape] = (game, path)
        return games

    def _item(self, games: dict, base: int, shape: str, op: str) -> Item:
        cli = self.dl.cli
        game, path = games[shape]
        key = f"{shape}/{base}/{op}"

        def run():
            out = io.StringIO()
            code = cli.run(["solve", "--operator", op, path, "--trace"], out)
            return code, out.getvalue()

        def decide(result):
            code, text = result
            if code != 0:
                return {"exit": code}
            doc = json.loads(text)
            return {
                "fixpoint": restriction_text(doc["fixpoint"]),
                "eliminating_steps": doc["eliminating_steps"],
                "after": [restriction_text(step["after"]) for step in doc["steps"]],
            }

        def verify(result):
            code, text = result
            if code != 0:
                return [f"{key}: solve exited with {code}"]
            problems = []
            for number, step in enumerate(json.loads(text)["steps"]):
                problems += [f"{key} step {number}: {p}" for p in self._check_step(game, step)]
            return problems

        return Item(key, run, decide, verify)

    def _check_step(self, game, step: dict) -> list:
        """Replay every certificate of one step, parsed back from its JSON."""
        dl = self.dl
        before = self._restriction(game, step["before"])
        after = self._restriction(game, step["after"])
        removed = {
            (p, s) for p, kept in enumerate(before.kept) for s in kept if s not in after.kept[p]
        }
        certified = set()
        problems = []
        for cert in step["certificates"]:
            player = game.players.index(cert["player"])
            labels = game.strategies[player]
            target = labels.index(cert["eliminated"])
            certified.add((player, target))
            if isinstance(cert["dominator"], dict):
                candidate = dl.MixedStrategy(player, tuple(
                    (labels.index(label), Fraction(weight))
                    for label, weight in cert["dominator"].items()
                ))
                support = set(candidate.support)
            else:
                candidate = labels.index(cert["dominator"])
                support = {candidate}
            pool = before.kept[player] if cert["pool"] == "local" else range(len(labels))
            mode = dl.Mode(cert["mode"])
            if not support <= set(pool) or not dl.dominates(candidate, target, before, player, mode):
                problems.append(f"certificate for {cert['eliminated']} does not replay")
        if certified != removed:
            problems.append("certificates do not match the removed strategies")
        return problems

    def _restriction(self, game, kept_names: dict):
        return self.dl.Restriction(game, tuple(
            tuple(game.strategy_index(p, label) for label in kept_names[name])
            for p, name in enumerate(game.players)
        ))


WORKLOADS = {w.name: w for w in (Theorems, Lattice, Oracle, Solve)}
