"""Per-layer metrics of the traced run.

The layers are the package's modules.  Spans are recorded at the names
through which one layer calls the next, so a span's parent is the layer that
made the call.  Counters are computed from each call's arguments and result
with the recorder's clock stopped.  Metrics named ``*_s`` are seconds per
pass at reference speed (see ``workloads.REFERENCE_NOMINAL_S``), summed over
every call in the pass; counts are summed the same way.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from basincycles import cli, equivalence, graphcycles, simulate

from .spans import Recorder, Tracing, self_times
from .workloads import (
    FUZZ_CAMPAIGNS,
    FUZZ_COUNT,
    REFERENCE_NOMINAL_S,
    Measurement,
    batch_seconds,
)

# (module, attribute looked up at call time, span name)
TARGETS = [
    (cli, "load_landscape", "landscape.load"),
    (cli, "enumerate_path_cycles", "pathcycles.enumerate"),
    (cli, "tree_to_dict", "pathcycles.export_dict"),
    (cli, "run_decomposition", "graphcycles.run"),
    (cli, "trace_to_dict", "graphcycles.export_dict"),
    (cli, "verify_equivalence", "equivalence.verify"),
    (cli, "random_landscape", "equivalence.generate"),
    (cli, "check_exit_window", "simulate.exit"),
    (cli, "check_visit_before_exit", "simulate.visit"),
    (cli, "_emit_doc", "cli.emit"),
    (equivalence, "enumerate_path_cycles", "pathcycles.enumerate"),
    (equivalence, "run_decomposition", "graphcycles.run"),
    (equivalence, "make_landscape", "landscape.make"),
    (graphcycles, "initial_level", "graphcycles.initial"),
    (graphcycles, "advance", "graphcycles.advance"),
    (simulate, "transition_matrix", "landscape.kernel"),
]

COMMANDS = ("validate", "path-cycles", "graph-cycles", "verify", "fuzz", "simulate")

# the JSON emit of these commands is their layer's export, not CLI overhead
EXPORTED_BY = {"cli.path-cycles": "pathcycles.export_s", "cli.graph-cycles": "graphcycles.export_s"}

# name -> (unit, better)
METRICS = {
    "landscape.load_s": ("s", "lower"),
    "landscape.states": ("count", "lower"),
    "landscape.edges": ("count", "lower"),
    "landscape.kernel_s": ("s", "lower"),
    "landscape.kernel_bytes": ("bytes", "lower"),
    "pathcycles.enumerate_s": ("s", "lower"),
    "pathcycles.levels": ("count", "lower"),
    "pathcycles.cycles": ("count", "lower"),
    "pathcycles.nontrivial": ("count", "lower"),
    "pathcycles.member_sum": ("count", "lower"),
    "pathcycles.export_s": ("s", "lower"),
    "graphcycles.initial_s": ("s", "lower"),
    "graphcycles.rounds": ("count", "lower"),
    "graphcycles.advance_s": ("s", "lower"),
    "graphcycles.advance_max_s": ("s", "lower"),
    "graphcycles.classes_sum": ("count", "lower"),
    "graphcycles.cost_entries_sum": ("count", "lower"),
    "graphcycles.block_max": ("count", "lower"),
    "graphcycles.merged_share": ("ratio", "higher"),
    "graphcycles.finalize_s": ("s", "lower"),
    "graphcycles.export_s": ("s", "lower"),
    "equivalence.verify_s": ("s", "lower"),
    "equivalence.checks_s": ("s", "lower"),
    "equivalence.generate_s": ("s", "lower"),
    "equivalence.verify_p50_s": ("s", "lower"),
    "equivalence.verify_p99_s": ("s", "lower"),
    "simulate.exit_s": ("s", "lower"),
    "simulate.visit_s": ("s", "lower"),
    "simulate.steps": ("count", "lower"),
    "simulate.replicas": ("count", "lower"),
    "simulate.censored_share": ("ratio", "lower"),
    "simulate.steps_per_s": ("1/s", "higher"),
    **{f"cli.{c.replace('-', '_')}_s": ("s", "lower") for c in COMMANDS},
    **{f"cli.{c.replace('-', '_')}_bytes": ("bytes", "lower") for c in COMMANDS},
    "cli.fuzz_landscapes_per_s": ("1/s", "higher"),
    "cli.overhead_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def count_call(counts: dict, name: str, args: tuple, result) -> None:
    """Counters of one wrapped call; ``_``-prefixed keys are parts of ratios."""
    if name in ("landscape.load", "landscape.make"):
        counts["landscape.states"] += result.n
        counts["landscape.edges"] += len(result.edge_pairs())
    elif name == "landscape.kernel":
        counts["landscape.kernel_bytes"] = max(counts["landscape.kernel_bytes"], 8.0 * args[0].n ** 2)
    elif name == "pathcycles.enumerate":
        landscape = args[0]
        counts["pathcycles.levels"] += len({landscape.energy(s) for s in landscape.states})
        counts["pathcycles.cycles"] += len(result.nodes)
        counts["pathcycles.nontrivial"] += sum(node.nontrivial for node in result.nodes)
        counts["pathcycles.member_sum"] += sum(len(node.members) for node in result.nodes)
    elif name in ("graphcycles.initial", "graphcycles.advance"):
        level = result if name == "graphcycles.initial" else result[0]
        counts["graphcycles.classes_sum"] += len(level.classes)
        counts["graphcycles.cost_entries_sum"] += sum(len(row) for row in level.cost.values())
        if name == "graphcycles.advance":
            counts["graphcycles.rounds"] += 1
            before = args[0].class_set()
            _, blocks, minimal = result
            multi = [b for b in blocks if b not in before]
            counts["_blocks_multi"] += len(multi)
            counts["_minimal_multi"] += sum(1 for b in minimal if b not in before)
            for block in multi:
                counts["graphcycles.block_max"] = max(counts["graphcycles.block_max"], len(block))
    elif name in ("simulate.exit", "simulate.visit"):
        for row in result:
            counts["simulate.steps"] += sum(row.stats.samples)
            counts["simulate.replicas"] += row.stats.replicas
            if name == "simulate.exit":
                # visit rows stop at the visit bound by design; only an exit
                # replica that never exits is wasted
                counts["_exit_replicas"] += row.stats.replicas
                counts["_exit_censored"] += row.stats.censored_count


def pass_metrics(recorder: Recorder) -> dict[str, float]:
    """The span- and counter-based metrics of one traced pass."""
    spans = recorder.spans
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    durations: dict[str, list] = defaultdict(list)
    emit_by_command: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.duration
        own[span.name] += self_s
        durations[span.name].append(span.duration)
        if span.name == "cli.emit" and span.parent is not None:
            emit_by_command[spans[span.parent].name] += span.duration

    counts = recorder.counts
    metrics = {name: 0.0 for name in METRICS}
    metrics.update((k, v) for k, v in counts.items() if not k.startswith("_"))
    metrics["graphcycles.merged_share"] = _ratio(counts["_minimal_multi"], counts["_blocks_multi"])
    metrics["simulate.censored_share"] = _ratio(counts["_exit_censored"], counts["_exit_replicas"])
    advances = durations["graphcycles.advance"]
    verifies = durations["equivalence.verify"]
    metrics.update(
        {
            "landscape.load_s": total["landscape.load"] + total["landscape.make"],
            "landscape.kernel_s": total["landscape.kernel"],
            "pathcycles.enumerate_s": total["pathcycles.enumerate"],
            "pathcycles.export_s": total["pathcycles.export_dict"],
            "graphcycles.initial_s": total["graphcycles.initial"],
            "graphcycles.advance_s": total["graphcycles.advance"],
            "graphcycles.advance_max_s": max(advances, default=0.0),
            # derived: run_decomposition minus initial_level and every advance
            "graphcycles.finalize_s": own["graphcycles.run"],
            "graphcycles.export_s": total["graphcycles.export_dict"],
            "equivalence.verify_s": total["equivalence.verify"],
            # derived: verify_equivalence minus both enumerations it calls
            "equivalence.checks_s": own["equivalence.verify"],
            "equivalence.generate_s": total["equivalence.generate"],
            "equivalence.verify_p50_s": percentile(verifies, 0.50),
            "equivalence.verify_p99_s": percentile(verifies, 0.99),
            "simulate.exit_s": total["simulate.exit"],
            "simulate.visit_s": total["simulate.visit"],
            "trace.spans": float(len(spans)),
        }
    )
    overhead = 0.0
    for command in (f"cli.{c}" for c in COMMANDS):
        overhead += own[command]
        if command in EXPORTED_BY:
            metrics[EXPORTED_BY[command]] += emit_by_command[command]
        else:
            overhead += emit_by_command[command]
    metrics["cli.overhead_s"] = overhead
    return metrics


def traced_metrics(measurement: Measurement) -> dict[str, float]:
    """Medians over the traced passes, with command times, output sizes and
    the tracing overhead taken from the untraced passes of the same run.
    Every time is in seconds at reference speed: a traced pass's span times
    are scaled by the median reference time around its commands."""
    per_pass = []
    for results, _, summary in measurement.traced:
        scale = REFERENCE_NOMINAL_S / statistics.median(r.reference for r in results)
        per_pass.append({k: v * scale if k.endswith("_s") else v for k, v in summary.items()})
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in METRICS}
    untraced = measurement.untraced
    for command in COMMANDS:
        key = command.replace("-", "_")
        metrics[f"cli.{key}_s"] = batch_seconds(untraced, command)
        metrics[f"cli.{key}_bytes"] = float(
            max((r.output_bytes for r in untraced[0] if r.name == command), default=0)
        )
    fuzzed = FUZZ_CAMPAIGNS * FUZZ_COUNT if metrics["cli.fuzz_s"] else 0
    metrics["cli.fuzz_landscapes_per_s"] = _ratio(fuzzed, metrics["cli.fuzz_s"])
    metrics["simulate.steps_per_s"] = _ratio(metrics["simulate.steps"], metrics["cli.simulate_s"])
    traced = [results for results, _, _ in measurement.traced]
    metrics["trace.overhead_s"] = batch_seconds(traced) - batch_seconds(untraced)
    return metrics


TRACING = Tracing(TARGETS, count_call, pass_metrics)
