"""``python -m repro`` / ``repro`` — the campaign command-line interface.

Subcommands::

    repro campaign run      expand a grid and simulate it (parallel, cached)
    repro campaign serve    coordinate the grid over remote lease workers
    repro campaign worker   join a coordinator and execute leased jobs
    repro campaign status   compare the stored spec against results on disk
    repro campaign export   flatten stored results to CSV
    repro campaign diff     compare two stores cell-by-cell (drift check)
    repro campaign compact  rewrite a store without its stale and torn lines
    repro study ...         run/list/export declarative studies
    repro bench ...         perf-trajectory snapshots and the regression gate
    repro version           print the package version

The top-level ``--log-level``/``-q`` flags control the progress and
diagnostic lines (always stderr, via the ``repro`` logger hierarchy);
stdout stays reserved for command output.  ``campaign run``/``study run``
accept ``--trace out.json`` (Chrome trace-event timeline across the main
process and every worker) and ``campaign run`` ``--metrics`` (per-job
counter/value snapshots, aggregated by ``campaign status --metrics``).

A campaign directory is self-describing: ``campaign.json`` holds the spec,
``results.jsonl`` the content-addressed results.  Re-running ``campaign
run`` on the same directory only simulates grid cells that are missing;
the commands that only read a store refuse a ``--dir`` that does not exist.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import deque

from repro._version import __version__
from repro.campaign.executor import CampaignResult, run_campaign
from repro.campaign.remote import run_worker
from repro.campaign.service import CampaignCoordinator
from repro.campaign.spec import PAPER_SCHEMES, CampaignSpec
from repro.campaign.store import JobRecord, ResultStore, open_store
from repro.obs import metrics, tracing
from repro.obs.cli import add_bench_parser, enable_observability, finish_trace
from repro.obs.log import LOG_LEVELS, get_logger, setup_logging
from repro.studies.cli import add_study_parser
from repro.workloads.registry import PAPER_WORKLOAD_ORDER

_log = get_logger("campaign")

#: default sink of per-job progress lines (stderr via the repro logger)
_progress_log = get_logger("campaign.progress")

#: flat CSV columns: job axes then headline result metrics
EXPORT_COLUMNS = (
    "workload",
    "scheme",
    "lossy_threshold_bytes",
    "mag_bytes",
    "scale",
    "seed",
    "config_overrides",
    "status",
    "exec_time_s",
    "compute_time_s",
    "memory_time_s",
    "error_percent",
    "total_bursts",
    "dram_bytes",
    "l2_hit_rate",
    "stored_blocks",
    "lossy_blocks",
    "energy_j",
    "edp",
    "elapsed_s",
)


def _comma_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_mags(raw: str) -> tuple[int | None, ...]:
    mags: list[int | None] = []
    for item in _comma_list(raw):
        mags.append(None if item.lower() in ("config", "default") else int(item))
    return tuple(mags)


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec(
        name=args.name,
        workloads=tuple(w.upper() for w in _comma_list(args.workloads)),
        schemes=tuple(_comma_list(args.schemes)),
        lossy_thresholds=tuple(int(t) for t in _comma_list(args.thresholds)),
        mags=_parse_mags(args.mags),
        scales=(args.scale,),
        seeds=tuple(int(s) for s in _comma_list(args.seeds)),
        compute_error=not args.no_error,
    )


def _format_duration(seconds: float) -> str:
    """Compact duration: ``42s`` below a minute, ``m:ss`` / ``h:mm:ss`` above."""
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}:{secs:02d}"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


class ProgressReporter:
    """Per-job progress lines with a rolling-mean ETA for the campaign.

    Long sweeps print ``[done/total]`` plus a summary suffix: once at least
    one job has actually simulated, the rolling mean job time and the
    estimated time remaining (``remaining jobs x mean / workers``), and
    always the cache-hit count so far (when any) and the campaign's total
    wall time.  Cached cells and failed jobs don't feed the mean — both
    finish much faster than a real simulation and would make the ETA wildly
    optimistic.

    Args:
        workers: worker process count the ETA divides by.
        window: number of recent job times in the rolling mean.
        stream: output stream (stderr by default, like the progress lines).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, workers: int = 1, window: int = 16, stream=None,
                 clock=time.monotonic) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.workers = max(1, workers)
        self._recent: deque[float] = deque(maxlen=window)
        self._stream = stream
        self._clock = clock
        self._start = clock()
        self.n_cached = 0

    @property
    def wall_time_s(self) -> float:
        """Seconds since the reporter (i.e. the campaign) started."""
        return self._clock() - self._start

    def __call__(self, record: JobRecord, done: int, total: int) -> None:
        """The :data:`~repro.campaign.executor.ProgressFn` hook."""
        if record.cached:
            detail = "cached"
            self.n_cached += 1
        elif record.ok:
            detail = f"ran in {record.elapsed_s:.2f}s"
        else:
            detail = "FAILED"
        if not record.cached and record.ok:
            # Failed jobs abort early; their elapsed time would drag the
            # mean toward zero and make the ETA wildly optimistic.
            self._recent.append(record.elapsed_s)
        parts = []
        remaining = total - done
        if self._recent and remaining:
            mean_s = sum(self._recent) / len(self._recent)
            estimate = remaining * mean_s / self.workers
            parts.append(f"avg {mean_s:.2f}s/job, ETA {_format_duration(estimate)}")
        if self.n_cached:
            parts.append(f"{self.n_cached} cached")
        parts.append(f"{_format_duration(self.wall_time_s)} elapsed")
        suffix = f" ({', '.join(parts)})"
        line = f"[{done}/{total}] {record.job.label()}: {detail}{suffix}"
        if self._stream is not None:
            print(line, file=self._stream)
        else:
            # Default path: the repro logger (stderr), so --log-level/-q
            # controls progress verbosity like every other line.
            _progress_log.info(line)


def _summarize(outcome: CampaignResult, spec: CampaignSpec, store: ResultStore,
               wall: str, args: argparse.Namespace) -> int:
    """Shared ``run``/``serve`` epilogue: summary lines, metrics, exit code."""
    if outcome.interrupted:
        # Graceful Ctrl-C: everything that finished is already persisted;
        # tell the user how to pick the campaign back up.
        print(
            f"campaign '{spec.name}' interrupted: "
            f"{len(outcome.records)}/{outcome.n_total} cells in the store "
            f"({outcome.n_cached} cached) after {wall} — re-run the same "
            f"command to resume from {store.directory}"
        )
        return 130
    print(
        f"campaign '{spec.name}': {outcome.n_total} jobs — "
        f"{outcome.n_cached} cached, {outcome.n_executed} executed, "
        f"{outcome.n_failed} failed in {wall} ({store.directory})"
    )
    if outcome.queue_stats:
        stats = outcome.queue_stats
        print(
            f"  distributed: {stats['leases_granted']} leases granted, "
            f"{stats['leases_expired']} expired, {stats['retries']} re-leased, "
            f"{stats['duplicates']} duplicate completions, "
            f"{stats['workers_joined']} workers "
            f"({stats['workers_quarantined']} quarantined)"
        )
    for record in outcome.failures():
        tail = (record.error or "").strip().splitlines()[-1:]
        print(f"  FAILED {record.job.label()}: {tail[0] if tail else '?'}")
    if getattr(args, "metrics", False):
        merged = metrics.merge(
            metrics.snapshot(),
            *(r.metrics for r in outcome.records.values() if r.metrics),
        )
        print("campaign metrics:")
        print(metrics.format_metrics(merged))
    finish_trace(args)
    return 1 if (outcome.n_failed or outcome.n_missing) else 0


def cmd_run(args: argparse.Namespace) -> int:
    """``campaign run``: expand, simulate, persist, summarize."""
    try:
        spec = _spec_from_args(args)
        store = ResultStore(args.dir)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        _log.error("error: %s", message)
        return 2
    store.save_spec(spec)
    enable_observability(args)
    start = time.monotonic()
    progress = None if args.quiet else ProgressReporter(workers=args.workers)
    with tracing.span("campaign.run", cat="campaign", campaign=spec.name):
        outcome = run_campaign(
            spec, store=store, workers=args.workers, progress=progress,
            job_timeout=args.job_timeout,
        )
    wall = _format_duration(time.monotonic() - start)
    return _summarize(outcome, spec, store, wall, args)


def cmd_serve(args: argparse.Namespace) -> int:
    """``campaign serve``: coordinate the grid over remote lease workers."""
    try:
        spec = _spec_from_args(args)
        store = ResultStore(args.dir)
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        _log.error("error: %s", message)
        return 2
    store.save_spec(spec)
    enable_observability(args)
    start = time.monotonic()
    progress = None if args.quiet else ProgressReporter()
    coordinator = CampaignCoordinator(
        spec.expand(),
        spec=spec,
        store=store,
        host=args.host,
        port=args.port,
        lease_timeout_s=args.lease_timeout,
        max_attempts=args.max_attempts,
        quarantine_strikes=args.quarantine_strikes,
        job_timeout=args.job_timeout,
        grace_s=args.grace,
        fallback_workers=args.fallback_workers,
        progress=progress,
    )
    coordinator.start()
    print(f"coordinator listening on {coordinator.url} "
          f"— start workers with: repro campaign worker --url {coordinator.url}",
          file=sys.stderr)
    try:
        with tracing.span("campaign.run", cat="campaign", campaign=spec.name):
            outcome = coordinator.serve()
    except KeyboardInterrupt:
        coordinator.stop()
        outcome = coordinator.outcome
        outcome.interrupted = True
    wall = _format_duration(time.monotonic() - start)
    return _summarize(outcome, spec, store, wall, args)


def cmd_worker(args: argparse.Namespace) -> int:
    """``campaign worker``: join a coordinator and execute leased jobs."""
    try:
        store = ResultStore(args.dir) if args.dir else None
    except ValueError as exc:
        _log.error("error: %s", exc)
        return 2
    try:
        summary = run_worker(
            args.url,
            worker_id=args.worker_id,
            store=store,
            poll_s=args.poll,
            max_idle_s=args.max_idle,
        )
    except KeyboardInterrupt:
        print("worker interrupted", file=sys.stderr)
        return 130
    print(
        f"worker {summary.worker_id} ({summary.reason}): "
        f"{summary.executed} executed, {summary.failed} failed, "
        f"{summary.duplicates} duplicate, "
        f"{summary.transport_retries} transport retries"
    )
    return 0 if summary.reason in ("done", "idle", "coordinator gone") else 1


def _existing_store(path: str) -> ResultStore | None:
    """The store of an existing campaign directory, or None after ``error:``.

    ``status`` and ``export`` only read: a typo'd ``--dir`` must not be
    created as an empty campaign and reported on.
    """
    if not os.path.exists(path):
        _log.error("error: no campaign directory at %s", path)
        return None
    try:
        return ResultStore(path)
    except ValueError as exc:
        _log.error("error: %s", exc)
        return None


def cmd_status(args: argparse.Namespace) -> int:
    """``campaign status``: diff the saved spec against stored results."""
    store = _existing_store(args.dir)
    if store is None:
        return 2
    spec = store.load_spec()
    if spec is None:
        print(f"no campaign.json under {store.directory} "
              f"({len(store)} results on disk)")
        return 1
    jobs = spec.expand()
    ok = failed = missing = 0
    for job in jobs:
        # same cache policy as the executor (incl. the compute_error twin)
        record = store.lookup(job)
        if record is not None:
            ok += 1
        elif (stored := store.get(job.content_hash)) is not None and not stored.ok:
            failed += 1
            print(f"  FAILED {job.label()}")
        else:
            missing += 1
    print(
        f"campaign '{spec.name}': {len(jobs)} jobs — "
        f"{ok} complete, {failed} failed, {missing} missing"
    )
    if args.metrics:
        snapshots = [r.metrics for r in store.records() if r.metrics]
        if snapshots:
            print(f"stored metrics ({len(snapshots)} records):")
            print(metrics.format_metrics(metrics.merge(*snapshots)))
        else:
            print("stored metrics: none (run with --metrics to collect)")
    return 0 if (failed == 0 and missing == 0) else 1


def _export_row(record: JobRecord) -> dict:
    job = record.job
    row = {
        "workload": job.workload,
        "scheme": job.scheme,
        "lossy_threshold_bytes": job.lossy_threshold_bytes,
        "mag_bytes": job.mag_bytes,
        "scale": job.scale,
        "seed": job.seed,
        "config_overrides": json.dumps(dict(job.config_overrides), sort_keys=True)
        if job.config_overrides
        else "",
        "status": record.status,
        "elapsed_s": record.elapsed_s,
    }
    if record.result is not None:
        result = record.result
        row.update(
            exec_time_s=result.exec_time_s,
            compute_time_s=result.compute_time_s,
            memory_time_s=result.memory_time_s,
            error_percent=result.error_percent,
            total_bursts=result.total_bursts,
            dram_bytes=result.dram_bytes,
            l2_hit_rate=result.l2_hit_rate,
            stored_blocks=result.stored_blocks,
            lossy_blocks=result.lossy_blocks,
            energy_j=result.energy_j,
            edp=result.edp,
        )
    return row


def cmd_export(args: argparse.Namespace) -> int:
    """``campaign export``: flatten stored results to CSV."""
    store = _existing_store(args.dir)
    if store is None:
        return 2
    records = store.records()
    handle = sys.stdout if args.csv == "-" else open(args.csv, "w", newline="")
    try:
        writer = csv.DictWriter(handle, fieldnames=EXPORT_COLUMNS, restval="")
        writer.writeheader()
        for record in records:
            writer.writerow(_export_row(record))
    finally:
        if handle is not sys.stdout:
            handle.close()
    if args.csv != "-":
        print(f"wrote {len(records)} rows to {args.csv}")
    return 0


def _record_drift(a: JobRecord, b: JobRecord) -> list[str]:
    """Field labels in which two records of the same cell disagree.

    Compared is every field of the result's ``to_dict`` (the energy as one
    field) and every extra metric.  One record lacking an extra metric the
    other has is drift, except the payload digest, which only runs asked
    for it carry.
    """
    if a.status != b.status:
        return [f"status {a.status}->{b.status}"]
    if a.result is None or b.result is None:
        return []
    fields_a, fields_b = a.result.to_dict(), b.result.to_dict()
    extra_a, extra_b = fields_a.pop("extra_metrics"), fields_b.pop("extra_metrics")
    drift = [field for field in fields_a if fields_a[field] != fields_b[field]]
    drift.extend(
        key
        for key in sorted({*extra_a, *extra_b})
        if extra_a.get(key) != extra_b.get(key)
        and (key != "payload_sha256" or (key in extra_a and key in extra_b))
    )
    return drift


def cmd_diff(args: argparse.Namespace) -> int:
    """``campaign diff``: compare two stores cell-by-cell, nonzero on drift.

    Reports cells missing from either store and cells whose results
    disagree in any field or extra metric (:func:`_record_drift`) — the
    check to run after a model change (same grid, before/after stores) or
    between two hosts' sweeps.  A path with
    no results is an error, not an empty store: a typo must not turn the
    drift check into a vacuous pass.
    """
    try:
        store_a = open_store(args.store_a)
        store_b = open_store(args.store_b)
    except (FileNotFoundError, ValueError) as exc:
        _log.error("error: %s", exc)
        return 2
    records_a = {r.job.content_hash: r for r in store_a.records()}
    records_b = {r.job.content_hash: r for r in store_b.records()}

    only_a = [records_a[h] for h in records_a.keys() - records_b.keys()]
    only_b = [records_b[h] for h in records_b.keys() - records_a.keys()]
    changed: list[tuple[JobRecord, list[str]]] = []
    for job_hash in records_a.keys() & records_b.keys():
        drift = _record_drift(records_a[job_hash], records_b[job_hash])
        if drift:
            changed.append((records_a[job_hash], drift))

    for record in sorted(only_a, key=lambda r: r.job.label()):
        print(f"  only in {args.store_a}: {record.job.label()}")
    for record in sorted(only_b, key=lambda r: r.job.label()):
        print(f"  only in {args.store_b}: {record.job.label()}")
    for record, drift in sorted(changed, key=lambda item: item[0].job.label()):
        print(f"  changed {record.job.label()}: {', '.join(drift)}")
    common = len(records_a.keys() & records_b.keys())
    print(
        f"diff: {common} common cells — {len(changed)} changed, "
        f"{len(only_a)} only in A, {len(only_b)} only in B"
    )
    if args.allow_missing:
        # Subset mode: a worker's local store only holds the cells that
        # worker executed, so "missing elsewhere" is expected — the check
        # is that nothing the stores *share* disagrees.
        return 1 if changed else 0
    return 1 if (changed or only_a or only_b) else 0


def cmd_compact(args: argparse.Namespace) -> int:
    """``campaign compact``: rewrite a store without its stale and torn lines."""
    try:
        store = open_store(args.dir)
    except (FileNotFoundError, ValueError) as exc:
        _log.error("error: %s", exc)
        return 2
    kept, dropped = store.compact()
    print(
        f"compacted {store.results_path}: kept {kept} records, "
        f"dropped {dropped} stale entries"
    )
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    """``trace export``: capture a registry workload into an interchange file."""
    from repro.workloads.registry import get_workload
    from repro.workloads.traceio import capture_trace, save_trace

    kwargs: dict = {"seed": args.seed}
    if args.scale is not None:
        kwargs["scale"] = args.scale
    try:
        workload = get_workload(args.workload, **kwargs)
    except KeyError as exc:
        _log.error("error: %s", exc.args[0] if exc.args else exc)
        return 2
    bundle = capture_trace(workload)
    path = save_trace(args.out, bundle)
    accesses = len(bundle.trace)
    print(
        f"captured {bundle.name}: {len(bundle.regions)} regions, "
        f"{accesses} trace entries @ {bundle.block_size_bytes} B blocks "
        f"-> {path}"
    )
    return 0


def cmd_trace_ingest(args: argparse.Namespace) -> int:
    """``trace ingest``: replay an interchange file through the simulator."""
    from repro.campaign.worker import build_backend
    from repro.gpu.config import GPUConfig
    from repro.gpu.simulator import GPUSimulator
    from repro.workloads.traceio import load_trace

    try:
        workload = load_trace(args.path, seed=args.seed)
    except (FileNotFoundError, ValueError) as exc:
        _log.error("error: %s", exc)
        return 2
    config = GPUConfig()
    try:
        backend = build_backend(
            args.scheme.upper(),
            config,
            lossy_threshold_bytes=args.threshold,
            mag_bytes=args.mag,
        )
    except KeyError as exc:
        _log.error("error: %s", exc.args[0] if exc.args else exc)
        return 2
    simulator = GPUSimulator(config=config, payload_digest=True)
    result = simulator.run(workload, backend, compute_error=not args.no_error)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"replayed {workload.name} under {args.scheme.upper()}:")
    print(f"  exec_time_s    {result.exec_time_s:.6f}")
    print(f"  total_bursts   {result.total_bursts}")
    print(f"  dram_bytes     {result.dram_bytes}")
    print(f"  l2_hit_rate    {result.l2_hit_rate:.4f}")
    print(f"  stored_blocks  {result.stored_blocks}")
    print(f"  lossy_blocks   {result.lossy_blocks}")
    for key in sorted(result.extra_metrics):
        value = result.extra_metrics[key]
        if isinstance(value, float):
            print(f"  {key:<14} {value:.6g}")
        else:
            print(f"  {key:<14} {value}")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    """``trace info``: describe an interchange file without simulating."""
    from repro.workloads.traceio import load_bundle

    try:
        bundle = load_bundle(args.path)
    except (FileNotFoundError, ValueError) as exc:
        _log.error("error: %s", exc)
        return 2
    print(f"{bundle.name}: block size {bundle.block_size_bytes} B, "
          f"{len(bundle.trace)} trace entries")
    for region in bundle.regions:
        flags = []
        if region.approximable:
            flags.append("approximable")
        flags.append("output" if region.is_output else "input")
        print(
            f"  {region.name}: {region.array.dtype} "
            f"{'x'.join(str(d) for d in region.array.shape)} "
            f"({', '.join(flags)})"
        )
    return 0


def cmd_version(args: argparse.Namespace) -> int:
    """``version``: print the package version."""
    print(__version__)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLC reproduction toolkit (Lal/Lucas/Juurlink, DATE'19)",
    )
    parser.add_argument(
        "--log-level",
        choices=tuple(LOG_LEVELS),
        default="info",
        help="logging verbosity for progress/diagnostic lines (default: info)",
    )
    parser.add_argument(
        "-q",
        dest="log_quiet",
        action="store_true",
        help="shorthand for --log-level warning (mute progress lines)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    version = sub.add_parser("version", help="print the package version")
    version.set_defaults(func=cmd_version)

    campaign = sub.add_parser("campaign", help="run and inspect simulation sweeps")
    campaign_sub = campaign.add_subparsers(dest="subcommand", required=True)

    def add_grid_options(parser: argparse.ArgumentParser) -> None:
        """Grid axes + observability flags shared by ``run`` and ``serve``."""
        parser.add_argument(
            "--dir", required=True, help="campaign directory (spec + results)"
        )
        parser.add_argument("--name", default="campaign", help="campaign name")
        parser.add_argument(
            "--workloads",
            default=",".join(PAPER_WORKLOAD_ORDER),
            help="comma-separated benchmarks (default: all nine, paper order)",
        )
        parser.add_argument(
            "--schemes",
            default=",".join(PAPER_SCHEMES),
            help="comma-separated schemes (default: E2MC + all TSLC variants)",
        )
        parser.add_argument(
            "--thresholds", default="16",
            help="comma-separated lossy thresholds in bytes",
        )
        parser.add_argument(
            "--mags",
            default="config",
            help="comma-separated MAGs in bytes, or 'config' for the GPU default",
        )
        parser.add_argument(
            "--scale", type=float, default=None,
            help="workload input scale (default: native)",
        )
        parser.add_argument("--seeds", default="2019", help="comma-separated RNG seeds")
        parser.add_argument(
            "--no-error",
            action="store_true",
            help="skip re-running kernels on degraded inputs (timing-only sweep)",
        )
        parser.add_argument(
            "--job-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-job wall-clock cap; a wedged job becomes a captured "
            "error record instead of stalling the campaign (default: none)",
        )
        parser.add_argument(
            "--quiet", action="store_true", help="suppress per-job progress"
        )
        parser.add_argument(
            "--trace",
            default=None,
            metavar="OUT.json",
            help="collect per-phase spans and write a Chrome trace-event file",
        )
        parser.add_argument(
            "--metrics",
            action="store_true",
            help="collect counters/histograms per job and print the aggregate",
        )

    run = campaign_sub.add_parser(
        "run", help="expand a parameter grid and simulate every missing cell"
    )
    add_grid_options(run)
    run.add_argument("--workers", type=int, default=1, help="worker process count")
    run.set_defaults(func=cmd_run)

    serve = campaign_sub.add_parser(
        "serve",
        help="coordinate the grid as a lease-based work queue for remote "
        "'campaign worker' processes",
    )
    add_grid_options(serve)
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port; 0 picks an ephemeral one (default: 8765)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="lease lifetime without a heartbeat before a job is re-queued",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3,
        help="total attempts (expiries + failures) before a job is recorded "
        "as failed",
    )
    serve.add_argument(
        "--quarantine-strikes", type=int, default=3,
        help="expired/failed jobs before a worker is quarantined",
    )
    serve.add_argument(
        "--grace", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait without live workers before degrading to the "
        "in-process pool",
    )
    serve.add_argument(
        "--fallback-workers", type=int, default=1,
        help="in-process pool size for the degraded path; 0 waits for remote "
        "workers forever",
    )
    serve.set_defaults(func=cmd_serve)

    worker = campaign_sub.add_parser(
        "worker", help="join a 'campaign serve' coordinator and execute leased jobs"
    )
    worker.add_argument(
        "--url", required=True, help="coordinator endpoint (http://host:port)"
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable worker identity (default: hostname-pid)",
    )
    worker.add_argument(
        "--dir", default=None,
        help="optional local store mirroring every record this worker "
        "executed (checkable via 'campaign diff --allow-missing')",
    )
    worker.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="delay between lease polls while the queue is empty",
    )
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="SECONDS",
        help="exit after this long without work (default: stay until done)",
    )
    worker.set_defaults(func=cmd_worker)

    status = campaign_sub.add_parser(
        "status", help="compare the saved spec against results on disk"
    )
    status.add_argument("--dir", required=True, help="campaign directory")
    status.add_argument(
        "--metrics",
        action="store_true",
        help="also aggregate and print the stored records' metric snapshots",
    )
    status.set_defaults(func=cmd_status)

    export = campaign_sub.add_parser("export", help="flatten stored results to CSV")
    export.add_argument("--dir", required=True, help="campaign directory")
    export.add_argument("--csv", default="-", help="output path, or '-' for stdout")
    export.set_defaults(func=cmd_export)

    diff = campaign_sub.add_parser(
        "diff", help="compare two result stores cell-by-cell (nonzero on drift)"
    )
    diff.add_argument("store_a", help="first store (campaign directory)")
    diff.add_argument("store_b", help="second store (campaign directory)")
    diff.add_argument(
        "--allow-missing",
        action="store_true",
        help="only count cells both stores hold (subset check, e.g. a "
        "worker's local store vs the coordinator's)",
    )
    diff.set_defaults(func=cmd_diff)

    compact = campaign_sub.add_parser(
        "compact", help="rewrite a store without its stale and torn lines"
    )
    compact.add_argument("--dir", required=True, help="campaign directory")
    compact.set_defaults(func=cmd_compact)

    trace = sub.add_parser(
        "trace", help="export, inspect and replay address/data trace files"
    )
    trace_sub = trace.add_subparsers(dest="subcommand", required=True)

    trace_export = trace_sub.add_parser(
        "export", help="capture a registry workload into a .npz interchange file"
    )
    trace_export.add_argument(
        "--workload", required=True, help="registry workload to capture"
    )
    trace_export.add_argument(
        "--scale", type=float, default=None,
        help="workload input scale (default: native)",
    )
    trace_export.add_argument("--seed", type=int, default=2019, help="RNG seed")
    trace_export.add_argument(
        "--out", required=True, help="output path (.npz appended when missing)"
    )
    trace_export.set_defaults(func=cmd_trace_export)

    trace_ingest = trace_sub.add_parser(
        "ingest",
        help="replay an interchange file through the vectorized engine",
    )
    trace_ingest.add_argument("path", help="trace interchange file (.npz)")
    trace_ingest.add_argument(
        "--scheme", default="TSLC-OPT",
        help="compression scheme to replay under (default: TSLC-OPT)",
    )
    trace_ingest.add_argument(
        "--mag", type=int, default=None,
        help="memory access granularity in bytes (default: GPU config)",
    )
    trace_ingest.add_argument(
        "--threshold", type=int, default=16,
        help="SLC lossy threshold in bytes (default: 16)",
    )
    trace_ingest.add_argument(
        "--seed", type=int, default=2019, help="RNG seed (degradation path)"
    )
    trace_ingest.add_argument(
        "--no-error",
        action="store_true",
        help="skip the degraded-data pass (timing-only replay)",
    )
    trace_ingest.add_argument(
        "--json", action="store_true", help="print the full result as JSON"
    )
    trace_ingest.set_defaults(func=cmd_trace_ingest)

    trace_info = trace_sub.add_parser(
        "info", help="describe an interchange file without simulating"
    )
    trace_info.add_argument("path", help="trace interchange file (.npz)")
    trace_info.set_defaults(func=cmd_trace_info)

    add_study_parser(sub)
    add_bench_parser(sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (console script ``repro`` / ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    setup_logging("warning" if args.log_quiet else args.log_level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
