"""``repro bench`` — take, inspect and gate on perf-trajectory snapshots.

Subcommands (registered into the main ``repro`` parser)::

    repro bench snapshot   write the next committed BENCH_NNNN.json
    repro bench check      gate current numbers against the latest snapshot
    repro bench list       print the committed trajectory

Current numbers come from a recorded-metrics file (``--from``), written
by the benchmark suite's ``--bench-record`` option: ``benchmarks/`` is the
only producer of BENCH metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs import metrics, tracing, trajectory
from repro.obs.log import get_logger

logger = get_logger("obs.bench")


def enable_observability(args: argparse.Namespace) -> None:
    """Turn on tracing/metrics per the ``--trace``/``--metrics`` CLI flags."""
    if getattr(args, "trace", None):
        tracing.enable()
    if getattr(args, "metrics", False):
        metrics.enable()


def finish_trace(args: argparse.Namespace) -> None:
    """Drain collected spans into the ``--trace`` Chrome trace file."""
    if not getattr(args, "trace", None):
        return
    n = tracing.write_chrome_trace(args.trace, tracing.drain())
    get_logger("obs.trace").info(
        "wrote %d spans to %s (chrome://tracing / Perfetto)", n, args.trace
    )


def _current_metrics(args: argparse.Namespace) -> dict[str, dict] | None:
    """The current metric set recorded in ``--from`` (None without it)."""
    if args.from_path:
        return trajectory.load_recorded(args.from_path)["metrics"]
    return None


def cmd_snapshot(args: argparse.Namespace) -> int:
    """``bench snapshot``: persist current numbers as the next BENCH file."""
    metrics = _current_metrics(args)
    if metrics is None:
        logger.error("error: bench snapshot needs --from FILE")
        return 2
    out = Path(args.out) if args.out else trajectory.next_snapshot_path(args.dir)
    if out.exists() and not args.force:
        logger.error(
            "error: %s already exists — snapshots are committed history; "
            "rerun with --force to overwrite, or drop --out to auto-pick "
            "the next free label (%s)",
            out,
            trajectory.next_snapshot_path(args.dir).name,
        )
        return 2
    label = out.stem if hasattr(out, "stem") else str(out)
    tolerance = (
        args.tolerance if args.tolerance is not None else trajectory.DEFAULT_TOLERANCE
    )
    snapshot = trajectory.make_snapshot(metrics, label=label, tolerance=tolerance)
    trajectory.save_snapshot(out, snapshot)
    print(f"wrote {len(metrics)} metrics to {out}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``bench check``: the regression gate (nonzero exit on regression)."""
    latest = trajectory.latest_snapshot(args.dir)
    if latest is None:
        logger.error("error: no committed BENCH_*.json under %s", args.dir)
        return 2
    path, baseline = latest
    metrics = _current_metrics(args)
    if metrics is None:
        logger.error("error: bench check needs --from FILE")
        return 2
    report = trajectory.compare(metrics, baseline, tolerance=args.tolerance)
    print(report.format())
    if not report.ok:
        logger.error(
            "%d metric(s) regressed vs. %s", len(report.regressions), path
        )
        return 1
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    """``bench list``: the committed trajectory, one line per gated metric."""
    paths = trajectory.snapshot_paths(args.dir)
    if not paths:
        print(f"no committed BENCH_*.json under {args.dir}")
        return 1
    for path in paths:
        snapshot = trajectory.load_snapshot(path)
        print(f"{snapshot.get('label', path.stem)}  ({snapshot.get('created', '?')})")
        for name in sorted(snapshot["metrics"]):
            entry = snapshot["metrics"][name]
            flag = "" if entry.get("gate", True) else "  [info]"
            print(f"  {name:<28} {entry['value']:g}{entry.get('unit', '')}{flag}")
    return 0


def add_bench_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``bench`` subcommand tree on the main ``repro`` parser."""
    bench = sub.add_parser(
        "bench", help="perf-trajectory snapshots and the regression gate"
    )
    bench_sub = bench.add_subparsers(dest="subcommand", required=True)

    def add_source(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--from",
            dest="from_path",
            default=None,
            metavar="FILE",
            help="recorded-metrics JSON (written via pytest --bench-record)",
        )
        parser.add_argument(
            "--dir", default=".", help="directory holding BENCH_*.json snapshots"
        )
        parser.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="relative tolerance band override for gated metrics",
        )

    snapshot = bench_sub.add_parser(
        "snapshot", help="write the next committed BENCH_NNNN.json"
    )
    add_source(snapshot)
    snapshot.add_argument(
        "--out", default=None, help="explicit output path (default: next number)"
    )
    snapshot.add_argument(
        "--force",
        action="store_true",
        help="allow overwriting an existing snapshot file",
    )
    snapshot.set_defaults(func=cmd_snapshot)

    check = bench_sub.add_parser(
        "check", help="gate current numbers against the latest snapshot"
    )
    add_source(check)
    check.set_defaults(func=cmd_check)

    listing = bench_sub.add_parser("list", help="print the committed trajectory")
    listing.add_argument(
        "--dir", default=".", help="directory holding BENCH_*.json snapshots"
    )
    listing.set_defaults(func=cmd_list)
