"""dominance-lab benchmark: closed-loop workloads timed end to end, or traced per layer.

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing):

    python3 bench/run.py --workload theorems --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

One process, one thread, one item at a time: the next item starts only when
the previous one has returned and been checked.  The seed picks one round of
distinct items.  With ``--trace 0`` the run repeats the round for
``--seconds`` seconds and reports the end-to-end metrics over each item's
median latency.  Every end-to-end time is scaled to reference speed: a
fixed calibration loop is timed before and after each item and set-up, and
the time is multiplied by the loop's reference time over its measured time
(see ``CALIBRATION_REFERENCE_S``).  With ``--trace 1`` it runs the round
untraced and with every layer's entry points wrapped, item by item, then
traces its first half once more; it reports the per-layer metrics of the
first traced pass and fails unless the repeated items produced identical
counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every item is
checked against the decisions recorded in ``reference/`` and by replaying
what it claims; a run with any failed item is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

#: Set-up is timed this many times per run: once here, the rest in fresh
#: processes (an import is only cold once per process) spread evenly over the
#: run, so that the median is not that of one moment of a shared machine.
SETUP_SAMPLES = 11
#: A run repeats its round at least this often, however slow it is.
MIN_ROUNDS = 3
#: The tail is the highest percentile with this many items above it.
TAIL_BEYOND = 10
#: The calibration loop's work, and its time on the reference machine (one
#: unloaded core of a shared 2-core Intel Xeon VM, Python 3.11.7).  Such a
#: host runs all code up to 1.8 times slower for seconds to minutes at a
#: time; scaling each time by the loop's reference time over the loop's
#: measured time around it takes that out, and leaves what the program
#: itself does.  The loop is the benchmark's own code: a change to the
#: program does not change it.
CALIBRATION_STEPS = 6000
CALIBRATION_REFERENCE_S = 0.00086
#: Passes over the pool when recording costs; each item's median scaled
#: latency is kept.
COST_PASSES = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _use_checkout_sources() -> bool:
    if not (SRC / "dominance_lab" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def _workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, str(workdir), _load_reference(name).get("cost_ms"))


def _calibration_work() -> int:
    """Fixed pure-Python work: dictionary updates and integer arithmetic."""
    table: dict[int, int] = {}
    total = 0
    for i in range(CALIBRATION_STEPS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


def _calibrate() -> float:
    """Seconds that one calibration loop takes now."""
    start = perf_counter()
    _calibration_work()
    return perf_counter() - start


def _scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, from the calibration times around them."""
    return seconds * 2 * CALIBRATION_REFERENCE_S / (before + after)


def _scaled_setup(workload) -> float:
    """One set-up, timed and scaled to reference speed."""
    _calibrate()  # the loop's first run in a process is not representative
    before = _calibrate()
    elapsed = _timed_setup(workload)
    return _scale(elapsed, before, _calibrate())


def _timed_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    elapsed = perf_counter() - start
    # The package must come from this checkout, never from an installed copy.
    package = Path(sys.modules["dominance_lab"].__file__).resolve()
    if SRC not in package.parents:
        raise RuntimeError(f"dominance_lab was imported from {package}, not from {SRC}")
    return elapsed


def _probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Time one set-up in a fresh process, scaled to reference speed."""
    probe = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
    return float(probe.stdout.split()[-1])


def _load_reference(name: str) -> dict:
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


class Loop:
    """Item latencies and failures of one closed-loop pass."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.latencies: list[float] = []
        self.failed = 0

    def step(self, item, call=None):
        """Run one item (through ``call`` when traced), time it, then check it."""
        start = perf_counter()
        try:
            outcome = call(item.run) if call else item.run()
        except Exception:
            self.latencies.append(perf_counter() - start)
            self.failed += 1
            traceback.print_exc()
            return None
        self.latencies.append(perf_counter() - start)
        result = outcome[0] if call else outcome
        try:
            problems = item.check(result, self.reference)
        except Exception:
            traceback.print_exc()
            problems = [f"{item.key}: check raised"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {problem}", file=sys.stderr)
        return outcome

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class Run:
    """What an untraced run measured: every item's scaled latencies, the
    calibration times and the scaled set-up times."""

    def __init__(self, size: int) -> None:
        self.scaled: list[list[float]] = [[] for _ in range(size)]
        self.calibrations: list[float] = []
        self.setups: list[float] = []
        self.rounds = 0


def _run_untraced(workload, reference: dict, seconds: int, probe) -> tuple[Loop, Run]:
    """Repeat the round for ``seconds`` (at least ``MIN_ROUNDS`` times).

    ``probe()`` times one scaled set-up in a fresh process; the probes are
    spread evenly over the run, between rounds, outside every item's clock.
    """
    items = [workload.item(i) for i in range(workload.round_size)]
    loop, run = Loop(reference), Run(len(items))
    probes = SETUP_SAMPLES - 1
    start = perf_counter()
    while run.rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        while (len(run.setups) < probes
               and perf_counter() - start >= seconds * len(run.setups) / probes):
            run.setups.append(probe())
        before = _calibrate()
        for i, item in enumerate(items):
            loop.step(item)
            after = _calibrate()
            run.scaled[i].append(_scale(loop.latencies[-1], before, after))
            run.calibrations.append(after)
            before = after
        run.rounds += 1
    while len(run.setups) < probes:
        run.setups.append(probe())
    return loop, run


def _end_to_end(loop: Loop, run: Run) -> tuple[dict, list]:
    """The end-to-end metrics, and notes to print next to some of them."""
    ordered = sorted(statistics.median(latencies) for latencies in run.scaled)
    n = len(ordered)
    tail = max(n - TAIL_BEYOND - 1, 0)
    metrics = {
        "setup_s": statistics.median(run.setups),
        "items_per_s": n / sum(ordered),
        "item_ms_p50": statistics.median(ordered) * 1000,
        # The highest percentile that still has TAIL_BEYOND items above it.
        "item_ms_tail": ordered[tail] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (loop.attempted - loop.failed) / loop.attempted,
    }
    wall = sorted(statistics.median(loop.latencies[i::n]) for i in range(n))
    notes = {
        "items_per_s": f"unscaled {n / sum(wall):.3f}",
        "item_ms_p50": f"unscaled {statistics.median(wall) * 1000:.3f}",
        "item_ms_tail": (f"p{100 * (tail + 1) / n:.2f}, {n - tail - 1} of {n} items above it, "
                         f"each item's median of {run.rounds} rounds"),
        "setup_s": f"median of {len(run.setups)}",
    }
    calibration = statistics.median(run.calibrations) * 1000
    print(f"calibration loop: median {calibration:.4f} ms, reference "
          f"{CALIBRATION_REFERENCE_S * 1000:.4f} ms")
    return metrics, notes


def _traced_pass(items: list, loop: Loop, tracer, untraced: Loop | None = None) -> list:
    """One traced pass over ``items``; returns (key, seconds, spans, edges) per item.

    With ``untraced``, each item also runs once untraced, alternately before
    and after its traced run, so that drift in machine speed and warm-up
    affect both sides of the overhead ratio alike.
    """
    spans = []
    for number, item in enumerate(items):
        if untraced is not None and number % 2 == 0:
            untraced.step(item)
        outcome = loop.step(item, tracer.run)
        if untraced is not None and number % 2 == 1:
            untraced.step(item)
        if outcome is not None:
            spans.append((item.key, loop.latencies[-1], outcome[1], outcome[2]))
    return spans


def _totals(spans: list):
    from layers import Totals

    totals = Totals()
    for _, _, item_spans, edges in spans:
        totals.add(item_spans, edges)
    return totals


def _run_traced(workload, reference: dict, out_dir: Path) -> tuple[dict, int, int, bool]:
    """Per-layer metrics of one round; returns them with the
    items attempted, the items failed and whether the counts repeated exactly.

    The first half of the items is traced a second time: every count of an
    item must repeat exactly.
    """
    from layers import Tracer

    items = [workload.item(i) for i in range(workload.round_size)]
    tracer = Tracer()
    for target in tracer.missing:
        print(f"missing trace target: {target} (its layer metrics are left out)")
    untraced, first, second = Loop(reference), Loop(reference), Loop(reference)
    spans = _traced_pass(items, first, tracer, untraced)
    repeat = _traced_pass(items[:max(1, len(items) // 2)], second, tracer)

    counts = _totals(spans[:len(repeat)]).counts()
    repeated = _totals(repeat).counts()
    for key in sorted(set(counts) | set(repeated)):
        if counts.get(key) != repeated.get(key):
            print(f"count differs between traced passes: {key} "
                  f"{counts.get(key)} vs {repeated.get(key)}", file=sys.stderr)

    totals = _totals(spans)
    traced_s, untraced_s = sum(first.latencies), sum(untraced.latencies)
    metrics = totals.metrics(tracer.present)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    shares = {layer: s / traced_s for layer, s in totals.layer_self_seconds().items()}
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  self-time share {layer:<14} {share:7.1%}")

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace-{workload.name}-seed{workload.seed}.json", "w") as handle:
        json.dump({
            "workload": workload.name,
            "seed": workload.seed,
            "missing_targets": tracer.missing,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "layer_self_share": shares,
            "metrics": metrics,
            "counts": totals.counts(),
            "items": [
                {"key": key, "seconds": seconds, "spans": item_spans,
                 "edges": {f"{a}>{b}": n for (a, b), n in edges.items()}}
                for key, seconds, item_spans, edges in spans
            ],
        }, handle, indent=1)

    loops = (untraced, first, second)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    return metrics, attempted, failed, counts == repeated


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "ratio" if "ratio" in name else "count"


def _environment() -> str:
    with open(REFERENCE / "RECORDED.json", encoding="utf-8") as handle:
        recorded = json.load(handle)
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"reference recorded at commit {recorded['commit']}")


def _run_one(args: argparse.Namespace) -> int:
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = _workload(args.workload, args.seed, workdir)
        first_setup = _scaled_setup(workload)
        reference = _load_reference(args.workload)["decisions"]
        print(f"workload {args.workload}, seed {args.seed}, {_environment()}")
        if args.trace:
            metrics, attempted, failed, exact = _run_traced(
                workload, reference, ROOT / ".bench_out")
            notes = {}
        else:
            loop, run = _run_untraced(
                workload, reference, args.seconds,
                lambda: _probe_setup(args.workload, args.seed, workdir / "probe"))
            run.setups.insert(0, first_setup)
            metrics, notes = _end_to_end(loop, run)
            attempted, failed, exact = loop.attempted, loop.failed, True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:14.6f} {_unit(name)}{extra}")
    print(json.dumps({
        "correct": failed == 0 and exact,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": _unit(name)} for name, v in metrics.items()},
    }))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process (so peak RSS is its own)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return head.stdout.strip() or "unknown"


def _record_reference(args: argparse.Namespace) -> int:
    """Record the decisions of every pool item of one workload, and for
    workloads that pick their inputs by cost, each item's median latency over
    ``COST_PASSES`` passes, scaled to reference speed, in milliseconds."""
    from workloads import WORKLOADS, Workload

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    records_cost = WORKLOADS[args.workload].records_cost
    try:
        # The pool needs the package only, not the seeded picks of a run.
        workload = WORKLOADS[args.workload](0, str(workdir), costs=None)
        Workload.setup(workload)
        items = workload.pool_items()
        decisions, scaled = {}, {}
        for _ in range(COST_PASSES if records_cost else 1):
            for item in items:
                before = _calibrate()
                start = perf_counter()
                result = item.run()
                elapsed = perf_counter() - start
                scaled.setdefault(item.key, []).append(_scale(elapsed, before, _calibrate()))
                problems = item.verify(result)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                decision = item.decide(result)
                if decisions.setdefault(item.key, decision) != decision:
                    print(f"{item.key}: decisions differ between passes", file=sys.stderr)
                    return 1
        costs = {key: round(statistics.median(s) * 1000, 3) for key, s in scaled.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    with open(REFERENCE / "RECORDED.json", "w", encoding="utf-8") as handle:
        json.dump({"commit": _commit(), "python": platform.python_version()}, handle)
        handle.write("\n")
    blocks = {"decisions": decisions}
    if records_cost:
        blocks["cost_ms"] = costs
    with open(REFERENCE / f"{args.workload}.json", "w", encoding="utf-8") as handle:
        handle.write("{" + ",\n".join(
            f"{json.dumps(name)}: {{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
                for key, value in block.items()
            ) + "\n}"
            for name, block in blocks.items()
        ) + "}\n")
    print(f"recorded {len(decisions)} {args.workload} decisions")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("theorems", "lattice", "oracle", "solve", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the decisions of the workload's whole input pool")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not _use_checkout_sources():
        print(f"error: no dominance_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        args.workdir.mkdir(parents=True, exist_ok=True)
        print(_scaled_setup(_workload(args.workload, args.seed, args.workdir)))
        return 0
    if args.record_reference:
        return _record_reference(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
