"""Fixed-seed benchmark of the basincycles command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload grid-deep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with its metadata and the traced spans, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "peak_rss_mb": "MB",
}


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "basincycles").glob("*.py"))
    )


def commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "basincycles" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    digests = workloads.load_digests().get(args.workload, {})

    OUT.mkdir(parents=True, exist_ok=True)
    started = time.time()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = workloads.WORKLOADS[args.workload](seed, Path(workdir), digests)
        m = workloads.measure(workload, args.seconds, layers.TRACING if args.trace else None)

    tally = m.tally
    batch = [workloads.pass_seconds(results) for results in m.untraced]
    if args.trace:
        values = layers.traced_metrics(m)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in layers.METRICS.items()
        }
    else:
        values = {
            "setup_s": workloads.setup_seconds(m),
            "batch_s": workloads.batch_seconds(m.untraced),
            "peak_rss_mb": m.peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    commands = sorted({r.name for results in m.untraced for r in results})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": {"src_lines": src_lines(), "commit": commit(), "started": started},
        "error_rate": tally.failed / tally.attempted if tally.attempted else None,
        "failure_reasons": tally.reasons,
        "digests": workload.first_digest,
        "passes": len(m.untraced),
        "setup_samples": [seconds for seconds, _ in m.setup],
        "setup_median_s": statistics.median(seconds for seconds, _ in m.setup),
        "setup_reference_samples": [reference for _, reference in m.setup],
        "batch_samples": batch,
        "batch_median_s": statistics.median(batch),
        "reference_samples": [[r.reference for r in results] for results in m.untraced],
        "command_samples": {
            name: [r.seconds for results in m.untraced for r in results if r.name == name]
            for name in commands
        },
    }
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans = [recorder.to_rows() for _, recorder, _ in m.traced]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    for name in commands:
        print(f"{name}: {workloads.batch_seconds(m.untraced, name):.4f} s per pass at reference "
              f"speed, {len(m.untraced)} passes")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
