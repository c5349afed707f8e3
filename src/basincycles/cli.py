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
from pathlib import Path

from . import __version__
from .equivalence import random_landscape, report_to_dict, verify_equivalence
from .errors import (
    BasincyclesError,
    ValidationError,
)
from .graphcycles import run_decomposition, trace_document
from .landscape import Landscape, landscape_to_dict, load_landscape, write_json
from .pathcycles import enumerate_path_cycles, tree_document, tree_to_dot

# the commands write ``tree_document`` and ``trace_document``; the plain-list
# exports stay importable here, where perfbench/layers.py wraps them by name
from .graphcycles import trace_to_dict  # noqa: F401
from .pathcycles import tree_to_dict  # noqa: F401
from .simulate import check_exit_window, check_visit_before_exit, sharing_kernels

_HEADER = f"basincycles {__version__}"


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


def _cmd_fuzz(args) -> int:
    _check_fuzz_args(args)
    failures = []
    for i in range(args.count):
        landscape = random_landscape(
            seed=args.seed * 1_000_003 + i,
            min_states=args.min_states,
            max_states=args.max_states,
            max_energy=args.max_energy,
            extra_edge_prob=args.extra_edges,
        )
        report = verify_equivalence(landscape)
        if not report.ok:
            doc = landscape_to_dict(landscape)
            failures.append({"index": i, "report": report_to_dict(report), "landscape": doc})
            if args.failure_dir:
                path = Path(args.failure_dir) / f"fuzz-failure-{args.seed}-{i}.json"
                with _output(path) as write:
                    write_json(doc, write)
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
        starts = [args.start] if args.start else None
        with sharing_kernels():
            exit_rows = check_exit_window(
                landscape,
                cycle,
                betas,
                args.epsilon,
                args.replicas,
                args.seed,
                starts=starts,
                max_steps=args.max_steps,
            )
            visit_rows = []
            if args.visit:
                for start in starts or sorted(cycle):
                    visit_rows.extend(
                        check_visit_before_exit(
                            landscape,
                            cycle,
                            start,
                            args.visit,
                            betas,
                            args.epsilon,
                            args.replicas,
                            args.seed,
                        )
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

    p = sub.add_parser("fuzz", help="equivalence campaign over random landscapes")
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
    p.add_argument("--max-steps", type=int, help="override the censoring threshold")
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
