"""Batch command-line front end.

Exit codes are a stable contract: 0 success, 1 usage error, 2 input
validation failure, 3 theorem violation detected (verify/fuzz), 4 simulation
infeasible (every replica censored).  Identical invocations with identical
seeds produce byte-identical stdout, modulo the versioned header field.

Output goes to stdout, or to the ``--out`` file, piece by piece as it is
rendered.  The file is opened only once the input is loaded and the result
computed, so invalid input exits 2 whatever ``--out`` names.  A file that
cannot be opened or written is a usage error, with nothing on stdout; a
write that fails part-way may leave a partial file, as one whole-text write
already could.  A stdout that cannot be written, a full device or a pipe
whose reader has gone, is the same usage error: one line on stderr and exit
1, with no traceback.  There is no temporary file renamed into place: the
rename would replace a ``/dev/stdout``, ``/dev/null`` or FIFO given as
``--out`` instead of writing to it.

An energy past ``energy.MAX_UNITS`` (2**1000 units of ``1/scale``) is an
input validation failure, exit 2 with one line on stderr, like any malformed
document: the exact rounds and the sampler's floats keep their sums inside
float range only below it.

``fuzz`` checks its campaign in up to one process per available CPU: this
one and forked children, each over a contiguous range of at least 64
landscape indices, each child reporting its records or its exception over
its own pipe.  Its stdout and failure files are byte-identical to a
one-process run, and the failure files are written after the campaign, in
index order.  A worker's exception is re-raised here as it is; a worker
that dies without a whole result, killed by a signal say, is one stderr
line and exit 1.  No worker outlives the command.  No command loads
``multiprocessing``, and only a campaign split this way loads ``pickle``.

No command but ``simulate`` loads numpy: the cycle commands are exact
integer work, and numpy is imported only where the kernel is built and
sampled.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import threading
from pathlib import Path

from . import __version__
from .equivalence import random_landscape, report_to_dict, verify_equivalence
from .errors import (
    BasincyclesError,
    ValidationError,
    WorkerFailed,
)
from .graphcycles import run_decomposition, trace_document
from .landscape import Landscape, landscape_to_dict, load_landscape, write_json
from .pathcycles import enumerate_path_cycles, tree_document, tree_to_dot
from .simulate import check_laws

# perfbench/layers.py wraps these by name; the commands call ``tree_document``,
# ``trace_document`` and ``check_laws`` instead
from .graphcycles import trace_to_dict  # noqa: F401
from .pathcycles import tree_to_dict  # noqa: F401
from .simulate import check_exit_window, check_visit_before_exit  # noqa: F401

_HEADER = f"basincycles {__version__}"

# the fewest landscapes of a fuzz campaign that pay for a forked worker
_FUZZ_PER_PROCESS = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_landscape(path: str) -> Landscape:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return load_landscape(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc}") from exc


@contextlib.contextmanager
def _output(path):
    """A ``write`` that sends each piece to the file ``path`` as it comes,
    or to stdout when there is none, flushed at the end.  A file or stdout
    that cannot be opened or written is a usage error.  A failed stdout is
    first pointed at the null device, so the interpreter's last flush of
    what it still buffers cannot fail again on the way out."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                yield handle.write
        else:
            yield sys.stdout.write
            sys.stdout.flush()
    except OSError as exc:
        if path:
            raise UsageError(f"cannot write {str(path)!r}: {exc}") from exc
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise UsageError(f"cannot write stdout: {exc}") from exc


def _emit_doc(doc: dict, out_path):
    with _output(out_path) as write:
        write_json({"generator": _HEADER, **doc}, write)
        write("\n")


def _parse_betas(text: str) -> list[float]:
    try:
        betas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --betas value: {text!r}") from exc
    if not betas:
        raise UsageError("--betas needs at least one value")
    return betas


def _cmd_validate(args) -> int:
    landscape = _read_landscape(args.input)
    _emit_doc(
        {
            "kind": "landscape-summary",
            "valid": True,
            "states": landscape.n,
            "edges": landscape.edge_count,
            "energy_scale": landscape.scale,
        },
        args.out,
    )
    return 0


def _cmd_path_cycles(args) -> int:
    landscape = _read_landscape(args.input)
    tree = enumerate_path_cycles(landscape)
    if args.dot:
        with _output(args.out) as write:
            write(f"// {_HEADER}\n")
            for line in tree_to_dot(tree):
                write(line)
    else:
        _emit_doc({"kind": "cycle-tree", **tree_document(tree)}, args.out)
    return 0


def _cmd_graph_cycles(args) -> int:
    landscape = _read_landscape(args.input)
    trace = run_decomposition(landscape)
    doc = trace_document(trace, include_levels=args.iterations)
    _emit_doc({"kind": "decomposition-trace", **doc}, args.out)
    return 0


def _cmd_verify(args) -> int:
    landscape = _read_landscape(args.input)
    report = verify_equivalence(landscape)
    _emit_doc({"kind": "equivalence-report", **report_to_dict(report)}, args.out)
    return 0 if report.ok else 3


def _check_fuzz_args(args) -> None:
    """The generator's shape must describe at least one landscape."""
    if args.count < 0:
        raise UsageError(f"--count must be at least 0, got {args.count}")
    if args.min_states < 1:
        raise UsageError(f"--min-states must be at least 1, got {args.min_states}")
    if args.max_states < args.min_states:
        raise UsageError(f"--max-states {args.max_states} is below --min-states {args.min_states}")
    if args.max_energy < 0:
        raise UsageError(f"--max-energy must be at least 0, got {args.max_energy}")
    if not 0 <= args.extra_edges <= 1:
        raise UsageError(f"--extra-edges must lie in [0, 1], got {args.extra_edges}")


def _fuzz_range(shape: tuple, start: int, stop: int) -> list:
    """The failure records of landscapes ``start`` to ``stop - 1`` of the
    campaign ``shape``, ``(seed, min_states, max_states, max_energy,
    extra_edges)``, in index order.  Landscape ``i`` depends on nothing but
    ``shape`` and ``i``."""
    seed, min_states, max_states, max_energy, extra_edges = shape
    failures = []
    for i in range(start, stop):
        landscape = random_landscape(
            seed=seed * 1_000_003 + i,
            min_states=min_states,
            max_states=max_states,
            max_energy=max_energy,
            extra_edge_prob=extra_edges,
        )
        report = verify_equivalence(landscape)
        if not report.ok:
            doc = landscape_to_dict(landscape)
            failures.append({"index": i, "report": report_to_dict(report), "landscape": doc})
    return failures


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fuzz_worker(shape: tuple, start: int, stop: int, read: int, write: int):
    """The body of a forked worker over the pipe ``read``/``write``: pickle
    ``(True, records)`` of ``_fuzz_range(shape, start, stop)``, or ``(False,
    exception)``, into ``write``.  An exception that cannot make the round
    trip through pickle is sent as a ``WorkerFailed`` with its type name and
    message.  The worker leaves only through ``os._exit``, so it never
    returns into the caller's frames, runs no ``atexit`` handler and flushes
    no stdio buffer inherited from the parent; it exits 0 only once the
    whole result is written."""
    code = 1
    try:
        import pickle

        os.close(read)
        try:
            data = pickle.dumps((True, _fuzz_range(shape, start, stop)))
        except Exception as exc:
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                where = f"the worker for landscapes {start} to {stop - 1}"
                stand_in = WorkerFailed(f"{where} raised {type(exc).__name__}: {exc}")
                data = pickle.dumps((False, stand_in))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _fuzz_campaign(shape: tuple, count: int) -> list:
    """``_fuzz_range`` over the whole campaign, split into up to one
    contiguous range per available CPU, each of at least
    ``_FUZZ_PER_PROCESS`` landscapes.  This process checks the first range
    and one forked ``_fuzz_worker`` each of the others; their pipes are read
    and the workers reaped in range order, which is index order, so the
    records and the first exception are the one-process ones.  A worker
    that exits without a whole result is a ``WorkerFailed`` naming its
    range and how it ended.  Whatever raises here, every worker not yet
    reaped is killed and reaped, and every pipe closed.  The campaign stays
    in this process when there is one range, when there is no ``os.fork``,
    or when another thread is alive, which a fork could deadlock."""
    k = min(_cpus(), count // _FUZZ_PER_PROCESS)
    if k <= 1 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return _fuzz_range(shape, 0, count)
    import pickle
    import signal

    bounds = [count * j // k for j in range(k + 1)]
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    pids, reads = [], []  # a reaped worker's pid is None
    try:
        for start, stop in ranges:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _fuzz_worker(shape, start, stop, read, write)
            finally:
                os.close(write)
            pids.append(pid)
        failures = _fuzz_range(shape, 0, bounds[1])
        for j, (start, stop) in enumerate(ranges):
            with open(reads[j], "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[j], 0)[1])
            pids[j] = None
            if code:
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise WorkerFailed(
                    f"the worker for landscapes {start} to {stop - 1} "
                    f"ended without a result ({how})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            failures += value
        return failures
    finally:
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for read in reads:
            os.close(read)


def _cmd_fuzz(args) -> int:
    _check_fuzz_args(args)
    shape = (args.seed, args.min_states, args.max_states, args.max_energy, args.extra_edges)
    failures = _fuzz_campaign(shape, args.count)
    if args.failure_dir:
        for record in failures:
            path = Path(args.failure_dir) / f"fuzz-failure-{args.seed}-{record['index']}.json"
            with _output(path) as write:
                write_json(record["landscape"], write)
                write("\n")
    _emit_doc(
        {
            "kind": "fuzz-report",
            "count": args.count,
            "seed": args.seed,
            "min_states": args.min_states,
            "max_states": args.max_states,
            "max_energy": args.max_energy,
            "extra_edges": args.extra_edges,
            "failures": failures,
            "ok": not failures,
        },
        args.out,
    )
    return 0 if not failures else 3


def _cmd_simulate(args) -> int:
    landscape = _read_landscape(args.input)
    members = [part for part in args.cycle.split(",") if part]
    betas = _parse_betas(args.betas)
    try:
        cycle = landscape.subset(members)
        exit_rows, visit_rows = check_laws(
            landscape,
            cycle,
            betas,
            args.epsilon,
            args.replicas,
            args.seed,
            starts=[args.start] if args.start else None,
            visit=args.visit or None,
            max_steps=args.max_steps,
        )
    except BasincyclesError as exc:
        raise UsageError(f"{type(exc).__name__}: {exc}") from exc

    exit_docs = [
        {
            "beta": row.beta,
            "start": row.start,
            "depth": str(row.depth),
            "epsilon": row.epsilon,
            "replicas": row.stats.replicas,
            "censored": row.stats.censored_count,
            "mean": row.stats.mean,
            "median": row.stats.median,
            "window": list(row.stats.window),
            "window_fraction": row.stats.window_fraction,
            "log_median_over_beta": row.stats.log_median_over_beta,
        }
        for row in exit_rows
    ]
    visit_docs = [
        {
            "beta": row.beta,
            "start": row.start,
            "visit": row.visit,
            "resistance_height": str(row.resistance),
            "epsilon": row.epsilon,
            "replicas": row.stats.replicas,
            "bound": row.bound,
            "fraction": row.fraction,
        }
        for row in visit_rows
    ]

    if args.tsv:
        lines = [f"# {_HEADER}"]
        lines.append(
            "check\tbeta\tstart\treplicas\tcensored\tmean\tmedian\twindow_fraction\tlog_median_over_beta"
        )
        for row in exit_docs:
            lines.append(
                "exit\t{beta}\t{start}\t{replicas}\t{censored}\t{mean}\t{median}\t"
                "{window_fraction}\t{log_median_over_beta}".format(**row)
            )
        for row in visit_docs:
            lines.append(
                f"visit\t{row['beta']}\t{row['start']}\t{row['replicas']}\t-\t-\t-\t"
                f"{row['fraction']}\t-"
            )
        with _output(args.out) as write:
            write("\n".join(lines) + "\n")
    else:
        _emit_doc(
            {
                "kind": "simulation-report",
                "cycle": sorted(cycle),
                "seed": args.seed,
                "exit_window": exit_docs,
                "visit_before_exit": visit_docs,
            },
            args.out,
        )

    # visit rows censor the exit clock at the visit bound by design; only
    # exit-window sampling can be infeasible
    infeasible = any(row.stats.all_censored for row in exit_rows)
    return 4 if infeasible else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="basincycles",
        description=(
            "Cycle decompositions of finite energy landscapes under Metropolis "
            "dynamics, plus Monte Carlo checks of the exit-time laws."
        ),
        epilog=(
            "exit codes: 0 ok, 1 usage error, 2 input validation failure, "
            "3 theorem violation, 4 simulation infeasible"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("validate", help="load and validate a landscape file")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("path-cycles", help="enumerate path cycles as a tree")
    p.add_argument("input")
    p.add_argument("--dot", action="store_true", help="emit graph-description text")
    add_common(p)
    p.set_defaults(func=_cmd_path_cycles)

    p = sub.add_parser("graph-cycles", help="run the recursive decomposition")
    p.add_argument("input")
    p.add_argument(
        "--iterations",
        action="store_true",
        help="include every round's cost matrices and heights",
    )
    add_common(p)
    p.set_defaults(func=_cmd_graph_cycles)

    p = sub.add_parser("verify", help="cross-validate the two decompositions")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "fuzz",
        help="equivalence campaign over random landscapes",
        description=(
            "Verify the equivalence on --count random landscapes, landscape i "
            "from seed SEED*1000003+i.  The campaign runs in up to one process "
            "per available CPU; stdout and failure files are byte-identical "
            "to a one-process run."
        ),
    )
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-states", type=int, default=2)
    p.add_argument("--max-states", type=int, default=10)
    p.add_argument("--max-energy", type=int, default=6)
    p.add_argument("--extra-edges", type=float, default=0.25)
    p.add_argument("--failure-dir", help="also write failing landscapes here")
    add_common(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("simulate", help="exit-window and visit-before-exit checks")
    p.add_argument("input")
    p.add_argument("--cycle", required=True, help="comma-separated cycle members")
    p.add_argument("--betas", required=True, help="comma-separated inverse temperatures")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", help="start state (default: every cycle member)")
    p.add_argument("--visit", help="also check visits to this state before exit")
    p.add_argument(
        "--max-steps",
        type=int,
        help="override the censoring threshold; also caps the visit check's budget, "
        "exp(beta*(resistance+epsilon)) steps",
    )
    p.add_argument("--tsv", action="store_true", help="plot-ready tab-separated output")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export-tree", help="cycle hierarchy as graph-description text")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=_cmd_path_cycles, dot=True)

    return parser


# main only parses with the tree, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BasincyclesError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
