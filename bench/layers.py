"""Per-layer tracing of dominance_lab from outside the package.

Each public entry point of a layer is wrapped at the name its caller looks
up, for the duration of one traced item only.  A wrapped call is a span:
it knows its parent span, its duration and the time its child spans cover
(so self time is duration minus child time).  Spans are aggregated per item
and per span kind as they close, so a workload with a million calls keeps a
few counters, not a million records.

A target that no longer exists is reported as missing; every metric that
needs one of its span kinds is then left out instead of reported as zero.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (span kind, module of dominance_lab, attribute path).  Two targets may feed
# one kind when two callers look the same function up under different names.
TARGETS = (
    ("simplex.solve", "dominance", "solve_lp"),
    ("simplex.solve", "suites", "solve_lp"),
    ("simplex.pivot", "simplex", "_pivot"),
    ("dominance.pure", "operators", "_pure_dominator"),
    ("dominance.mixed", "operators", "_mixed_dominator"),
    ("dominance.dominates", "dominance", "dominates"),
    ("dominance.replay", "suites", "replay_certificate"),
    ("operators.engine", "operators", "EliminationEngine.__init__"),
    ("operators.survivors", "operators", "EliminationEngine.survivors"),
    ("operators.dominator", "operators", "EliminationEngine.dominator"),
    ("operators.bases", "operators", "EliminationEngine.opponent_bases"),
    ("operators.iterate", "operators", "EliminationEngine.iterate"),
    ("analysis.check", "analysis", "check_monotonic"),
    ("game_model.mixed_strategy", "game_model", "MixedStrategy.__post_init__"),
    ("random_games.generate", "suites", "generate"),
    ("suites.suite", "suites", "theorem_suite"),
    ("suites.suite", "suites", "oracle_suite"),
    ("cli.load_game", "cli", "load_game"),
    ("cli.run", "cli", "run"),
)

# A call of the key kind is a miss when it made a call of one of these kinds:
# for a cache layer, a call that reached the layer below.
MISS_CHILDREN = {
    "operators.survivors": frozenset({"operators.dominator"}),
    "operators.dominator": frozenset({"dominance.pure", "dominance.mixed"}),
    "dominance.mixed": frozenset({"simplex.solve"}),
}

# Calls of the key kind whose result satisfies the predicate are flagged.
FLAGS = {
    "simplex.solve": lambda result: result.value is not None and result.value > 0,
    "dominance.replay": lambda result: not result,
}

CALLS, BUSY, SELF, MISSES, FLAGGED = range(5)
COUNT_FIELDS = (CALLS, MISSES, FLAGGED)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _field(kind: str, field: int):
    return (kind,), lambda s, p: s[kind][field]


def _hit_ratio(kind: str, *below: str):
    """Share of ``kind`` calls that made no call into the layer below."""
    return (kind, *below), lambda s, p: _ratio(s[kind][CALLS] - s[kind][MISSES], s[kind][CALLS])


# Per-layer metric name -> (span kinds it needs, function of the totals).
# ``s`` maps span kind -> [calls, busy, self, misses, flagged]; ``p`` maps
# (parent kind, kind) -> calls.
METRICS = {
    "simplex.lp_solves": _field("simplex.solve", CALLS),
    "simplex.lp_found": _field("simplex.solve", FLAGGED),
    "simplex.lp_useful_ratio": (
        ("simplex.solve",),
        lambda s, p: _ratio(s["simplex.solve"][FLAGGED], s["simplex.solve"][CALLS]),
    ),
    "simplex.pivots": _field("simplex.pivot", CALLS),
    "simplex.busy_s": _field("simplex.solve", BUSY),
    "dominance.pure_scans": _field("dominance.pure", CALLS),
    "dominance.pure_self_s": _field("dominance.pure", SELF),
    "dominance.mixed_queries": _field("dominance.mixed", CALLS),
    "dominance.mixed_self_s": _field("dominance.mixed", SELF),
    "dominance.mixed_without_lp": (
        ("dominance.mixed", "simplex.solve"),
        lambda s, p: s["dominance.mixed"][CALLS] - s["dominance.mixed"][MISSES],
    ),
    "dominance.dominates_calls": _field("dominance.dominates", CALLS),
    "dominance.dominates_busy_s": _field("dominance.dominates", BUSY),
    "dominance.replays": _field("dominance.replay", CALLS),
    "dominance.replay_failed": _field("dominance.replay", FLAGGED),
    "dominance.replay_busy_s": _field("dominance.replay", BUSY),
    "operators.engines": _field("operators.engine", CALLS),
    "operators.survivors_calls": _field("operators.survivors", CALLS),
    "operators.survivors_hit_ratio": _hit_ratio("operators.survivors", "operators.dominator"),
    "operators.survivors_self_s": _field("operators.survivors", SELF),
    "operators.dominator_calls": _field("operators.dominator", CALLS),
    "operators.dominator_hit_ratio": _hit_ratio(
        "operators.dominator", "dominance.pure", "dominance.mixed"
    ),
    "operators.dominator_self_s": _field("operators.dominator", SELF),
    "operators.bases_calls": _field("operators.bases", CALLS),
    "operators.bases_self_s": _field("operators.bases", SELF),
    "operators.iterate_self_s": _field("operators.iterate", SELF),
    "analysis.checks": _field("analysis.check", CALLS),
    "analysis.survivor_lookups": (
        ("analysis.check", "operators.survivors"),
        lambda s, p: p.get(("analysis.check", "operators.survivors"), 0),
    ),
    "analysis.self_s": _field("analysis.check", SELF),
    "game_model.mixed_strategies": _field("game_model.mixed_strategy", CALLS),
    "game_model.mixed_strategy_busy_s": _field("game_model.mixed_strategy", BUSY),
    "random_games.games": _field("random_games.generate", CALLS),
    "random_games.busy_s": _field("random_games.generate", BUSY),
    "suites.self_s": _field("suites.suite", SELF),
    "cli.commands": _field("cli.run", CALLS),
    "cli.load_game_busy_s": _field("cli.load_game", BUSY),
    "cli.self_s": _field("cli.run", SELF),
}


def _resolve(module: str, path: str) -> tuple[object, str] | None:
    """The object holding the target attribute and its name, or None if gone."""
    try:
        owner = importlib.import_module(f"dominance_lab.{module}")
    except ImportError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


class Tracer:
    """Wraps the targets while a traced item runs and aggregates its spans."""

    def __init__(self) -> None:
        self.stack: list = []
        self.parents: dict[tuple[str, str], int] = {}
        self.stats: dict[str, list] = {}
        self.missing: list[str] = []
        self.wrappers: list[tuple[object, str, object, object]] = []
        for kind, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, name = found
            original = vars(owner)[name]
            stats = self.stats.setdefault(kind, [0, 0.0, 0.0, 0, 0])
            self.wrappers.append((owner, name, original, self._wrap(original, kind, stats)))
        self.present = frozenset(self.stats)

    def _wrap(self, fn, kind: str, stats: list):
        stack = self.stack
        parents = self.parents
        miss_children = MISS_CHILDREN.get(kind, frozenset())
        flag = FLAGS.get(kind)

        def span(*args, **kwargs):
            # [kind, child time, missed, kinds that make it a miss]
            frame = [kind, 0.0, False, miss_children]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[CALLS] += 1
                stats[BUSY] += elapsed
                stats[SELF] += elapsed - frame[1]
                if frame[2]:
                    stats[MISSES] += 1
                if parent is not None:
                    parent[1] += elapsed
                    if kind in parent[3]:
                        parent[2] = True
                    edge = (parent[0], kind)
                    parents[edge] = parents.get(edge, 0) + 1
            if flag is not None and flag(result):
                stats[FLAGGED] += 1
            return result

        span.__wrapped__ = fn
        return span

    def run(self, call):
        """Run one item with every target wrapped; return (result, spans, edges).

        ``spans`` maps span kind -> [calls, busy, self, misses, flagged] and
        ``edges`` maps (parent kind, kind) -> calls.
        """
        for owner, name, _, wrapper in self.wrappers:
            setattr(owner, name, wrapper)
        try:
            result = call()
        finally:
            for owner, name, original, _ in self.wrappers:
                setattr(owner, name, original)
            self.stack.clear()
        spans = {kind: list(values) for kind, values in self.stats.items()}
        edges = dict(self.parents)
        for values in self.stats.values():
            values[:] = [0, 0.0, 0.0, 0, 0]
        self.parents.clear()
        return result, spans, edges


class Totals:
    """Spans summed over the items of one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.parents: dict[tuple[str, str], int] = {}

    def add(self, spans: dict, edges: dict) -> None:
        for kind, values in spans.items():
            total = self.stats.setdefault(kind, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(values):
                total[i] += v
        for edge, calls in edges.items():
            self.parents[edge] = self.parents.get(edge, 0) + calls

    def counts(self) -> dict:
        """Every count the pass produced; two passes over the same items must agree."""
        out = {f"{k}[{i}]": v[i] for k, v in self.stats.items() for i in COUNT_FIELDS}
        out.update({f"{a}>{b}": n for (a, b), n in self.parents.items()})
        return out

    def metrics(self, present: frozenset) -> dict:
        """Per-layer metrics whose span kinds all exist; the rest are left out."""
        return {
            name: fn(self.stats, self.parents)
            for name, (needs, fn) in METRICS.items()
            if all(kind in present for kind in needs)
        }

    def layer_self_seconds(self) -> dict:
        """Self time per layer (the part of a span kind before the dot)."""
        out: dict[str, float] = {}
        for kind, values in self.stats.items():
            layer = kind.split(".")[0]
            out[layer] = out.get(layer, 0.0) + values[SELF]
        return out
