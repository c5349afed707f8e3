"""The four workloads, their output checks and the closed measuring loop.

Each command runs in-process through ``basincycles.cli.main`` with ``--out``
pointing at a scratch file, one after another, as a batch user runs them.
An operation is one command, or one corpus landscape in ``fuzz-small``; it
fails when it raises, exits non-zero or fails an output check.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from basincycles import cli
from basincycles.equivalence import random_landscape

from . import inputs
from .spans import Recorder, Tracing, instrument

DEFAULT_SEED = 1
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# set-ups before the first pass; one more follows every pass
SETUP_FIRST_REPS = 3

# 3000 landscapes a pass, as ten campaigns so that no command is long
FUZZ_CAMPAIGNS = 10
FUZZ_COUNT = 300
REFERENCE_REPS = 9
# Reported times are in seconds of a host on which the reference loop takes
# this long, about what it takes on a quiet 2 GHz Xeon core.
REFERENCE_NOMINAL_S = 0.002
SIM_BETA_CHECKED = 3.0
# The sampler walks all replicas of a row in lockstep, so an uncapped run lasts
# as long as its slowest replica, whose length spreads by about 17% from seed
# to seed, and one run of 1000 replicas takes seconds.  A pass is instead four
# runs of 250 replicas with their own seeds, capped at about 2.4 times the
# exact mean exit time at beta = 3 (16,971 steps): every run walks to the cap,
# under a tenth of the beta = 3 replicas are censored, and beta = 2 (mean 900
# steps) never is.
SIM_MAX_STEPS = 40_000
SIM_RUNS = 4
SIM_REPLICAS = 250

@dataclass
class CommandResult:
    name: str
    seconds: float
    code: Optional[int]
    text: str
    output_bytes: int
    error: Optional[str] = None
    problems: list = field(default_factory=list)
    reference: float = 0.0  # host speed around the command, see reference_seconds

    @property
    def normalized(self) -> float:
        return self.seconds / self.reference

    def doc(self) -> Optional[dict]:
        try:
            return json.loads(self.text)
        except ValueError:
            self.problems.append("output is not JSON")
            return None


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, attempted: int, failed: int, reasons=()) -> None:
        self.attempted += attempted
        self.failed += failed
        if len(self.reasons) < 20:
            self.reasons.extend(list(reasons)[: 20 - len(self.reasons)])


def run_command(argv: list[str], out_path: Path, recorder: Optional[Recorder] = None) -> CommandResult:
    """One CLI command with stdout sent to ``out_path``; only the command is timed."""
    out_path.unlink(missing_ok=True)
    name = argv[0]
    error = None
    code = None
    start = time.perf_counter()
    try:
        if recorder is None:
            code = cli.main(argv + ["--out", str(out_path)])
        else:
            with recorder.span(f"cli.{name}"):
                code = cli.main(argv + ["--out", str(out_path)])
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    result = CommandResult(name, seconds, code, text, len(text.encode("utf-8")), error)
    if error:
        result.problems.append(f"raised {error}")
    elif code != 0:
        result.problems.append(f"exit code {code}")
    return result


def digest(results: list[CommandResult]) -> str:
    """sha256 of the outputs in order.  The generator header carries the
    package version; the byte gate is about everything else."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(result.text.replace(cli._HEADER, "basincycles").encode("utf-8"))
    return sha.hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


class Workload:
    """Base: ``prepare`` writes the inputs, ``setup_once`` is the timed set-up,
    ``commands`` is one pass of the batch, ``check`` judges one pass."""

    name = ""
    digested: tuple = ()

    def __init__(self, seed: int, workdir: Path, digests: Optional[dict] = None):
        self.seed = seed
        self.workdir = workdir
        self.out_path = workdir / "stdout.txt"
        self.digests = digests if digests is not None else {}
        self.first_digest: dict = {}

    def prepare(self) -> None:
        pass

    def setup_once(self, tally: Tally) -> float:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def ops(self, result: CommandResult) -> int:
        return 1

    def check(self, results: list[CommandResult]) -> None:
        """Add problems to each result; the base checks the digest of each
        command's outputs over the pass and that they repeat on every pass."""
        for name in self.digested:
            group = [r for r in results if r.name == name]
            if not group or not all(r.text for r in group):
                continue
            got = digest(group)
            expected = self.digests.get(name) if self.seed == DEFAULT_SEED else None
            problems = []
            if expected is not None and got != expected:
                problems.append(f"sha256 {got[:12]} != recorded {expected[:12]}")
            if got != self.first_digest.setdefault(name, got):
                problems.append("output differs from the first pass")
            for result in group:
                result.problems.extend(problems)

    def tally(self, results: list[CommandResult], tally: Tally) -> None:
        for result in results:
            ops = self.ops(result)
            failed = ops if result.problems else self.partial_failures(result)
            tally.add(ops, failed, (f"{result.name}: {p}" for p in result.problems))

    def partial_failures(self, result: CommandResult) -> int:
        return 0


class GridWorkload(Workload):
    """A batch of ``grids`` random grids; a pass runs ``batch`` on each."""

    side = 0
    max_energy = 0
    grids = 1
    batch = ("validate", "path-cycles", "graph-cycles")

    @property
    def digested(self):
        return tuple(c for c in self.batch if c != "validate")

    def prepare(self) -> None:
        self.input_paths = []
        for index in range(self.grids):
            path = self.workdir / f"landscape-{index}.json"
            doc = inputs.grid_document(self.side, self.max_energy, self.seed, index)
            path.write_text(inputs.dumps(doc), encoding="utf-8")
            self.input_paths.append(path)

    def setup_once(self, tally: Tally) -> float:
        results = [run_command(["validate", str(p)], self.out_path) for p in self.input_paths]
        for result in results:
            self._check_validate(result)
        self.tally(results, tally)
        return pass_seconds(results)

    def commands(self) -> list[list[str]]:
        return [[name, str(path)] for path in self.input_paths for name in self.batch]

    def _check_validate(self, result: CommandResult) -> None:
        if result.problems:
            return
        doc = result.doc()
        if doc is None:
            return
        want = (True, self.side**2, 2 * self.side * (self.side - 1))
        got = (doc.get("valid"), doc.get("states"), doc.get("edges"))
        if got != want:
            result.problems.append(f"validate reported {got}, expected {want}")

    def check(self, results: list[CommandResult]) -> None:
        super().check(results)
        width = len(self.batch)
        for start in range(0, len(results), width):
            self._check_grid(results[start : start + width])

    def _check_grid(self, results: list[CommandResult]) -> None:
        counts = {}
        for result in results:
            if result.name == "validate":
                self._check_validate(result)
                continue
            if result.problems:
                continue
            doc = result.doc()
            if doc is None:
                continue
            if result.name == "path-cycles":
                counts[result.name] = len(doc.get("nodes", []))
            elif result.name == "graph-cycles":
                counts[result.name] = len(doc.get("cycles", []))
            elif result.name == "verify":
                counts[result.name] = doc.get("cycles")
                if doc.get("ok") is not True:
                    result.problems.append("verify did not report ok")
        if len(set(counts.values())) > 1:
            for result in results:
                if result.name in counts:
                    result.problems.append(f"cycle counts disagree: {counts}")


class GridPlateau(GridWorkload):
    name = "grid-plateau"
    side = 24
    max_energy = 2
    grids = 8
    batch = ("validate", "path-cycles", "graph-cycles", "verify")


class GridDeep(GridWorkload):
    name = "grid-deep"
    side = 18
    max_energy = 1000
    grids = 8


class FuzzSmall(Workload):
    name = "fuzz-small"
    digested = ("fuzz",)

    def prepare(self) -> None:
        self.campaigns = inputs.fuzz_campaigns(self.seed, FUZZ_CAMPAIGNS)

    def setup_once(self, tally: Tally) -> float:
        start = time.perf_counter()
        corpus = inputs.fuzz_corpus(self.campaigns, FUZZ_COUNT, random_landscape)
        seconds = time.perf_counter() - start
        if len(corpus) != FUZZ_CAMPAIGNS * FUZZ_COUNT:
            raise RuntimeError("corpus has the wrong size")
        return seconds

    def commands(self) -> list[list[str]]:
        return [["fuzz", "--count", str(FUZZ_COUNT), "--seed", str(c)] for c in self.campaigns]

    def ops(self, result: CommandResult) -> int:
        return FUZZ_COUNT

    def check(self, results: list[CommandResult]) -> None:
        super().check(results)
        for result in results:
            if result.problems:
                continue
            doc = result.doc()
            if doc is None:
                continue
            if doc.get("count") != FUZZ_COUNT:
                result.problems.append(f"fuzz reported count {doc.get('count')}")

    def partial_failures(self, result: CommandResult) -> int:
        return len(json.loads(result.text).get("failures", []))


class ExitFig1(Workload):
    name = "exit-fig1"

    def prepare(self) -> None:
        self.input_path = self.workdir / "fig1.json"
        self.input_path.write_text(inputs.dumps(inputs.fig1_document()), encoding="utf-8")

    def setup_once(self, tally: Tally) -> float:
        result = run_command(["validate", str(self.input_path)], self.out_path)
        if not result.problems:
            doc = result.doc()
            if doc is not None and (doc.get("states"), doc.get("edges")) != (11, 10):
                result.problems.append("validate miscounted the figure")
        self.tally([result], tally)
        return result.seconds

    def commands(self) -> list[list[str]]:
        return [
            [
                "simulate", str(self.input_path),
                "--cycle", "i,j", "--betas", "2,3", "--replicas", str(SIM_REPLICAS),
                "--start", "i", "--visit", "j", "--seed", str(self.seed * SIM_RUNS + k),
                "--max-steps", str(SIM_MAX_STEPS),
            ]
            for k in range(SIM_RUNS)
        ]

    def check(self, results: list[CommandResult]) -> None:
        # checked against the exit-time laws, not a digest: a faster sampler
        # may change the random stream
        super().check(results)
        for result in results:
            if result.problems:
                continue
            doc = result.doc()
            if doc is None:
                continue
            exits = [r for r in doc.get("exit_window", []) if r["beta"] == SIM_BETA_CHECKED]
            visits = [r for r in doc.get("visit_before_exit", []) if r["beta"] == SIM_BETA_CHECKED]
            if len(exits) != 1 or len(visits) != 1:
                result.problems.append("no single beta = 3 exit and visit row")
                continue
            fraction = exits[0]["window_fraction"]
            log_median = exits[0]["log_median_over_beta"]
            if fraction is None or fraction < 0.90:
                result.problems.append(f"exit window fraction {fraction} < 0.90")
            if log_median is None or abs(log_median - 3.0) > 0.6:
                result.problems.append(f"log median / beta {log_median} not within 0.6 of 3")
            if visits[0]["fraction"] < 0.95:
                result.problems.append(f"visit fraction {visits[0]['fraction']} < 0.95")


WORKLOADS = {w.name: w for w in (GridPlateau, GridDeep, FuzzSmall, ExitFig1)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    setup: list = field(default_factory=list)  # (seconds, reference seconds)
    untraced: list = field(default_factory=list)  # list of passes (lists of CommandResult)
    traced: list = field(default_factory=list)  # (pass, Recorder, its summary)
    peak_rss_mb: float = 0.0
    tally: Tally = field(default_factory=Tally)


def pass_seconds(results: list[CommandResult]) -> float:
    return sum(r.seconds for r in results)


def _reference_loop() -> int:
    table = {}
    for i in range(4000):
        key = frozenset((i % 211, i % 199, i))
        table[key] = table.get(key, 0) + (i * i) % 7
    return sum(sorted(table.values())[::97])


def reference_seconds() -> float:
    """Median of several timings of a fixed pure-Python loop that shares no
    code with the package (about 2 ms each): the host's speed at this moment."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _timed_setup(workload: Workload, tally: Tally) -> tuple[float, float]:
    before = reference_seconds()
    seconds = workload.setup_once(tally)
    return seconds, (before + reference_seconds()) / 2


def _run_pass(workload: Workload, recorder: Optional[Recorder]) -> list[CommandResult]:
    results = []
    before = reference_seconds()
    for argv in workload.commands():
        result = run_command(argv, workload.out_path, recorder)
        after = reference_seconds()
        result.reference = (before + after) / 2
        results.append(result)
        before = after
    return results


def measure(workload: Workload, seconds: float, tracing: Optional[Tracing] = None) -> Measurement:
    """Run passes until the next one would overrun ``seconds``, with a set-up
    after each pass so that set-up is sampled across the whole run.  With
    ``tracing``, untraced and traced passes alternate."""
    m = Measurement()
    workload.prepare()
    for _ in range(SETUP_FIRST_REPS):
        m.setup.append(_timed_setup(workload, m.tally))
    deadline = time.perf_counter() + seconds
    walls = []
    while True:
        use_trace = tracing is not None and len(m.traced) < len(m.untraced)
        recorder = Recorder(count=tracing.count) if use_trace else None
        started = time.perf_counter()
        if recorder is None:
            results = _run_pass(workload, None)
        else:
            with instrument(recorder, tracing.targets):
                results = _run_pass(workload, recorder)
        if not m.peak_rss_mb:
            # before any output is parsed, so that checking does not count
            m.peak_rss_mb = peak_rss_mb()
        workload.check(results)
        workload.tally(results, m.tally)
        for result in results:
            result.text = ""  # checked; only its size is kept
        if recorder is None:
            m.untraced.append(results)
        else:
            m.traced.append((results, recorder, tracing.summarize(recorder)))
        m.setup.append(_timed_setup(workload, m.tally))
        walls.append(time.perf_counter() - started)
        balanced = tracing is None or len(m.traced) == len(m.untraced)
        if balanced and time.perf_counter() + max(walls) > deadline:
            break
    return m


def setup_seconds(m: Measurement) -> float:
    """The median set-up in seconds at reference speed."""
    return REFERENCE_NOMINAL_S * statistics.median(s / r for s, r in m.setup)


def batch_seconds(passes: list, name: Optional[str] = None) -> float:
    """One pass in seconds at reference speed: for each command of the pass
    (or each that runs ``name``), the median over passes of its time over the
    reference time around it, summed."""
    return REFERENCE_NOMINAL_S * sum(
        statistics.median(r.normalized for r in column)
        for column in zip(*passes)
        if name is None or column[0].name == name
    )
