"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from basincycles import dumps_landscape, random_landscape  # noqa: E402
from basincycles import cli  # noqa: E402
from perfbench import inputs, layers, run, workloads  # noqa: E402
from perfbench.spans import Recorder, Span, instrument, self_times  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 4.0, 8.0, 0),
        Span("b.inner", 5.0, 6.0, 2),
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("x", 2.0, 6.0, 0),
        Span("y", 4.0, 7.0, 0),  # overlaps x on [4, 6]
        Span("z", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_spans_and_counts_off_the_clock():
    def count(counts, name, args, result):
        counts[name] += result

    # ticks: outer opens, inner opens, inner closes, counting starts and ends
    # (one second, not seen by any span), outer closes
    rec = Recorder(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 6.0), count=count)
    square = rec.wrap("inner", lambda v: v * v)
    with rec.span("outer"):
        assert square(3) == 9
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("outer", 0.0, 5.0, None),
        ("inner", 1.0, 2.0, 0),
    ]
    assert rec.counts == {"inner": 9}
    assert self_times(rec.spans) == [4.0, 1.0]


def test_instrument_restores_the_original():
    module = types.SimpleNamespace(f=lambda: 1)
    original = module.f
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with instrument(rec, [(module, "f", "m.f")]):
            assert module.f is not original and module.f() == 1
            raise RuntimeError
    assert module.f is original
    assert [s.name for s in rec.spans] == ["m.f"]


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert layers.percentile(values, 0.5) == 50.0
    assert layers.percentile(values, 0.99) == 99.0
    assert layers.percentile([], 0.99) == 0.0


def test_grid_generator_is_deterministic_per_seed():
    one = inputs.grid_document(6, 1000, 1)
    assert one == inputs.grid_document(6, 1000, 1)
    assert one != inputs.grid_document(6, 1000, 2)
    assert len(one["states"]) == 36 and len(one["edges"]) == 2 * 6 * 5
    energies = {int(s["energy"]) for s in inputs.grid_document(20, 2, 7)["states"]}
    assert energies == {0, 1, 2}


def test_fuzz_corpus_is_deterministic_per_seed():
    def corpus(seed):
        campaigns = inputs.fuzz_campaigns(seed, 2)
        return [dumps_landscape(x) for x in inputs.fuzz_corpus(campaigns, 10, random_landscape)]

    assert corpus(5) == corpus(5) and corpus(5) != corpus(6)
    assert inputs.fuzz_campaigns(5, 2) == [10, 11]
    # the seed formula of ``fuzz``, which names failures by campaign and index
    assert inputs.fuzz_seeds(10, 3) == [10 * 1_000_003 + i for i in range(3)]


class TinyGrid(workloads.GridWorkload):
    name = "tiny"
    side = 3
    max_energy = 2
    batch = ("validate", "path-cycles", "graph-cycles", "verify")


def test_tiny_grid_passes_every_check(tmp_path):
    workload = TinyGrid(workloads.DEFAULT_SEED, tmp_path)
    m = workloads.measure(workload, 0.0)
    assert m.tally.attempted >= 4 and m.tally.failed == 0, m.tally.reasons


def test_failing_digest_counts_in_error_rate(tmp_path):
    wrong = {"path-cycles": "0" * 64, "graph-cycles": "0" * 64}
    workload = TinyGrid(workloads.DEFAULT_SEED, tmp_path, wrong)
    m = workloads.measure(workload, 0.0)
    # both digested commands of the one pass fail; validate and verify pass
    assert m.tally.failed == 2
    assert any("sha256" in reason for reason in m.tally.reasons)
    # on another seed no digest is recorded, so nothing fails
    workload = TinyGrid(workloads.DEFAULT_SEED + 1, tmp_path, wrong)
    assert workloads.measure(workload, 0.0).tally.failed == 0


def test_crashing_command_counts_as_failed(tmp_path, monkeypatch):
    def boom(landscape):
        raise MemoryError("simulated")

    monkeypatch.setattr(cli, "run_decomposition", boom)
    m = workloads.measure(TinyGrid(2, tmp_path), 0.0)
    assert m.tally.failed == 1
    assert "graph-cycles: raised MemoryError: simulated" in m.tally.reasons


def _simulate_result(fraction, log_median, visit):
    doc = {
        "exit_window": [
            {"beta": 2.0, "window_fraction": 0.1, "log_median_over_beta": 9.0},
            {"beta": 3.0, "window_fraction": fraction, "log_median_over_beta": log_median},
        ],
        "visit_before_exit": [{"beta": 3.0, "fraction": visit}],
    }
    text = json.dumps(doc)
    return workloads.CommandResult("simulate", 1.0, 0, text, len(text))


@pytest.mark.parametrize(
    "fraction, log_median, visit, failed",
    [(0.95, 3.1, 0.99, 0), (0.80, 3.1, 0.99, 1), (0.95, 3.7, 0.99, 1), (0.95, 3.1, 0.90, 1)],
)
def test_exit_law_checks(tmp_path, fraction, log_median, visit, failed):
    workload = workloads.ExitFig1(1, tmp_path)
    result = _simulate_result(fraction, log_median, visit)
    tally = workloads.Tally()
    workload.check([result])
    workload.tally([result], tally)
    assert (tally.attempted, tally.failed) == (1, failed)


def test_traced_pass_reports_every_layer_metric(tmp_path):
    workload = TinyGrid(3, tmp_path)
    m = workloads.measure(workload, 0.0, layers.TRACING)
    assert len(m.untraced) == len(m.traced) == 1 and m.tally.failed == 0
    metrics = layers.traced_metrics(m)
    assert set(metrics) == set(layers.METRICS)
    assert metrics["landscape.states"] == 9 * 4  # loaded once per command
    assert metrics["graphcycles.rounds"] >= 1
    assert metrics["pathcycles.cycles"] > 0 and metrics["equivalence.verify_s"] > 0
    assert metrics["cli.overhead_s"] > 0
    assert cli.run_decomposition.__module__ == "basincycles.graphcycles"


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
