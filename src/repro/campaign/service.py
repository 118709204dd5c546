"""The ``repro campaign serve`` coordinator: a work-queue over loopback/LAN.

One coordinator process owns the campaign: it expands the grid, serves
cached cells from the result store, parks the remainder in a
:class:`~repro.campaign.queue.LeaseQueue`, and exposes a tiny JSON-over-HTTP
protocol (stdlib ``http.server``, zero new dependencies) that
``repro campaign worker`` processes drive::

    POST /join       {worker_id, host, pid}        -> lease timings + obs state
    POST /lease      {worker_id, max_jobs}         -> {state, jobs: [...]}
    POST /heartbeat  {worker_id}                   -> {ok, renewed}
    POST /complete   {worker_id, record}           -> {accepted, final}
    POST /leave      {worker_id}                   -> {ok}
    GET  /status                                   -> queue counts + stats

The wire format is exactly the job/record dict format the stores persist,
so a record that crosses the network is byte-identical to one produced
in-process — which is what lets ``campaign diff`` verify a distributed run
against a single-process run bit for bit.

Failure handling lives in the queue (lease expiry, strikes, quarantine);
the service layer adds graceful degradation: if no worker shows up (or all
of them die) within the grace period, the coordinator falls back to the
local process pool (:func:`~repro.campaign.executor.run_jobs`) for
whatever is left, so a campaign started as distributed always completes.

:class:`CampaignService` is transport-free (``handle(method, path,
payload)``), so the protocol is unit-testable without sockets; the HTTP
handler is a thin shim over it.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro.obs as obs
from repro.campaign import faults
from repro.campaign.executor import (
    CampaignResult,
    ProgressFn,
    make_collector,
    run_jobs,
    serve_cached,
)
from repro.campaign.queue import LeaseQueue
from repro.campaign.spec import CampaignSpec, Job
from repro.campaign.store import ResultStore
from repro.obs import metrics, tracing
from repro.obs.log import get_logger

_log = get_logger("campaign.serve")


class CampaignService:
    """Transport-free protocol logic behind the coordinator endpoints."""

    def __init__(self, queue: LeaseQueue,
                 injector: faults.FaultInjector | None = None) -> None:
        self.queue = queue
        self._faults = injector if injector is not None else faults.active()

    def handle(self, method: str, path: str, payload: dict) -> tuple[int, dict]:
        """Route one request; returns ``(http_status, response_dict)``."""
        try:
            if method == "GET" and path == "/status":
                return 200, self.queue.counts()
            if method != "POST":
                return 405, {"error": f"method {method} not allowed"}
            handler = {
                "/join": self._join,
                "/lease": self._lease,
                "/heartbeat": self._heartbeat,
                "/complete": self._complete,
                "/leave": self._leave,
            }.get(path)
            if handler is None:
                return 404, {"error": f"unknown endpoint {path}"}
            worker_id = payload.get("worker_id")
            if not worker_id:
                return 400, {"error": "worker_id is required"}
            return handler(str(worker_id), payload)
        except Exception as exc:  # never kill the server thread on a bad request
            _log.exception("coordinator error handling %s %s", method, path)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _join(self, worker_id: str, payload: dict) -> tuple[int, dict]:
        meta = {k: payload[k] for k in ("host", "pid") if k in payload}
        self.queue.register(worker_id, meta)
        return 200, {
            "ok": True,
            "state": self.queue.state,
            "lease_timeout_s": self.queue.lease_timeout_s,
            # workers renew well inside the lease window
            "heartbeat_s": self.queue.lease_timeout_s / 3.0,
            # workers mirror the coordinator's tracing/metrics switches so
            # their spans/snapshots ride back on every record
            "obs": obs.state(),
        }

    def _lease(self, worker_id: str, payload: dict) -> tuple[int, dict]:
        jobs = self.queue.lease(worker_id, int(payload.get("max_jobs", 1)))
        info = next((w for w in self.queue.workers()
                     if w.worker_id == worker_id), None)
        return 200, {
            "state": self.queue.state,
            "quarantined": bool(info is not None and info.quarantined),
            "jobs": [job.to_dict() for job in jobs],
            "lease_timeout_s": self.queue.lease_timeout_s,
        }

    def _heartbeat(self, worker_id: str, payload: dict) -> tuple[int, dict]:
        result = self.queue.heartbeat(worker_id)
        result["state"] = self.queue.state
        return 200, result

    def _complete(self, worker_id: str, payload: dict) -> tuple[int, dict]:
        if self._faults.fire(faults.DROP_RESPONSE):
            # fault injection: the acknowledgment is lost in transit — the
            # worker must retry and the retry must be idempotent
            _log.warning("fault: dropping /complete response from %s", worker_id)
            return 503, {"error": "injected drop-response fault"}
        record = payload.get("record")
        if not isinstance(record, dict):
            return 400, {"error": "record is required"}
        result = self.queue.complete(worker_id, record)
        result["state"] = self.queue.state
        return 200, result

    def _leave(self, worker_id: str, payload: dict) -> tuple[int, dict]:
        requeued = self.queue.release(worker_id)
        return 200, {"ok": True, "requeued": requeued}


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :meth:`CampaignService.handle`."""

    server: "CampaignHTTPServer"
    protocol_version = "HTTP/1.1"

    def _dispatch(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
            payload = json.loads(body) if body else {}
            if not isinstance(payload, dict):
                raise ValueError("payload must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._respond(400, {"error": f"bad request body: {exc}"})
            return
        status, response = self.server.service.handle(method, self.path, payload)
        self._respond(status, response)

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def log_message(self, format: str, *args) -> None:
        # route http.server's access lines through the repro logger so -q
        # and --log-level govern them like everything else
        _log.debug("%s %s", self.address_string(), format % args)


class CampaignHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying a :class:`CampaignService` reference."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: CampaignService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class CampaignCoordinator:
    """Owns one distributed campaign from cache pass to final record.

    Construction performs the store cache pass and builds the lease queue;
    :meth:`start` binds the HTTP endpoint (``port=0`` picks an ephemeral
    port, readable via :attr:`port` — how tests avoid collisions); and
    :meth:`serve` blocks until every cell has a record, persisting results
    as they stream in from workers.

    Args:
        jobs: expanded campaign jobs (deduplicated here by content hash).
        spec: the campaign spec the jobs came from (kept on the result).
        store: shared result store; cached cells are served before any
            lease is granted, making worker retries free for finished work.
        host/port: bind address of the coordinator endpoint.
        lease_timeout_s: lease lifetime without a heartbeat.
        max_attempts: attempts before a job is finalized as an error.
        quarantine_strikes: strikes before a worker is quarantined.
        job_timeout: hard cap on one lease's total lifetime (heartbeats
            renew but never extend past it) *and* the per-job timeout of
            the in-process fallback path.
        grace_s: how long to wait with work outstanding but no live worker
            before degrading to the in-process pool.
        fallback_workers: process count for the degraded path; 0 disables
            fallback (the coordinator then waits for workers forever).
        progress: the usual campaign progress callback.
        poll_s: serve-loop tick (lease expiry sweep + record drain).
        linger_s: after the last cell completes, keep the endpoint up this
            long (at most) so polling workers observe ``state: "done"`` and
            exit immediately, instead of burning their whole transport-retry
            budget against a vanished coordinator.  Workers that already
            left, are quarantined, or have gone silent past the lease
            window are not waited for.
    """

    def __init__(
        self,
        jobs: list[Job],
        spec: CampaignSpec | None = None,
        store: ResultStore | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: float = 30.0,
        max_attempts: int = 3,
        quarantine_strikes: int = 3,
        job_timeout: float | None = None,
        grace_s: float = 30.0,
        fallback_workers: int = 1,
        progress: ProgressFn | None = None,
        poll_s: float = 0.1,
        linger_s: float = 5.0,
        injector: faults.FaultInjector | None = None,
    ) -> None:
        self.outcome = CampaignResult(
            spec=spec, jobs=list({j.content_hash: j for j in jobs}.values())
        )
        self._store = store
        self._progress = progress
        self._collect = make_collector(self.outcome, store, progress)
        pending = serve_cached(self.outcome, store, progress)
        self.queue = LeaseQueue(
            pending,
            lease_timeout_s=lease_timeout_s,
            max_attempts=max_attempts,
            quarantine_strikes=quarantine_strikes,
            max_lease_s=job_timeout,
        )
        self.service = CampaignService(self.queue, injector=injector)
        self._host = host
        self._requested_port = port
        self._grace_s = float(grace_s)
        self._fallback_workers = int(fallback_workers)
        self._job_timeout = job_timeout
        self._poll_s = float(poll_s)
        self._linger_s = float(linger_s)
        self._server: CampaignHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.fell_back = False

    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound TCP port (call after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("coordinator not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """The coordinator endpoint workers should connect to."""
        return f"http://{self._host}:{self.port}"

    def start(self) -> "CampaignCoordinator":
        """Bind the endpoint and start serving requests in a thread."""
        self._server = CampaignHTTPServer(
            (self._host, self._requested_port), self.service
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="campaign-coordinator",
            daemon=True,
        )
        self._thread.start()
        _log.info("campaign coordinator listening on %s (%d jobs pending, "
                  "%d cached)", self.url, len(self.queue.remaining_jobs()),
                  self.outcome.n_cached)
        return self

    def stop(self) -> None:
        """Shut the HTTP endpoint down (idempotent)."""
        self.queue.close()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------ #

    def serve(self) -> CampaignResult:
        """Block until every cell has a record; returns the outcome.

        The loop sweeps expired leases, drains finished records into the
        store, and watches worker liveness: with work outstanding, no
        fresh cached/leased activity for ``grace_s`` triggers the
        in-process fallback (when enabled).
        """
        outcome = self.outcome
        try:
            with tracing.span("campaign.serve", cat="campaign",
                              jobs=outcome.n_total):
                started = time.monotonic()
                while not self.queue.finished():
                    self.queue.expire()
                    for record in self.queue.drain_done():
                        self._collect(record)
                    if self._should_fall_back(started):
                        break
                    time.sleep(self._poll_s)
                for record in self.queue.drain_done():
                    self._collect(record)
                if not self.queue.finished() and self._fallback_workers > 0:
                    self._run_fallback()
                self._await_goodbyes()
        except KeyboardInterrupt:
            outcome.interrupted = True
            _log.warning("coordinator interrupted — %d of %d cells stored",
                         len(outcome.records), outcome.n_total)
        finally:
            self.stop()
        outcome.queue_stats = dict(self.queue.stats)
        if metrics.enabled():
            metrics.inc("campaign.jobs", outcome.n_total)
            metrics.inc("campaign.cache_hits", outcome.n_cached)
            metrics.inc("campaign.executed", outcome.n_executed)
            metrics.inc("campaign.failed", outcome.n_failed)
        return outcome

    def _await_goodbyes(self) -> None:
        """Give polling workers a beat to see ``done`` and leave cleanly.

        Without this, a worker whose lease poll lands just after the HTTP
        endpoint closes spends its entire transport-retry backoff budget
        discovering the campaign is over.  Dead workers don't stall the
        wind-down: anyone silent past the lease window is skipped.
        """
        self.queue.close()
        deadline = time.monotonic() + self._linger_s
        while time.monotonic() < deadline:
            now = time.monotonic()
            if all(
                info.left or info.quarantined
                or now - info.last_seen > self.queue.lease_timeout_s
                for info in self.queue.workers()
            ):
                return
            time.sleep(self._poll_s)

    def _should_fall_back(self, started: float) -> bool:
        if self._fallback_workers <= 0:
            return False
        if self.queue.active_workers(self._grace_s):
            return False
        # no live worker within the grace horizon; also require the grace
        # period itself to have elapsed so a slow first join isn't punished
        if time.monotonic() - started < self._grace_s:
            return False
        return not self.queue.finished()

    def _run_fallback(self) -> None:
        """Degrade to the in-process pool for everything still unfinished."""
        self.fell_back = True
        remaining = self.queue.remaining_jobs()
        self.queue.close()  # late workers are told "done" and exit
        _log.warning(
            "no live workers within %.0fs grace — running %d remaining "
            "job(s) on the in-process pool (%d workers)",
            self._grace_s, len(remaining), self._fallback_workers,
        )
        if metrics.enabled():
            metrics.inc("campaign.fallback", len(remaining))
        outcome = self.outcome

        def relay(record, done, total):
            # re-emit with campaign-level counts: the sub-run only knows
            # about the remaining jobs
            if self._progress is not None:
                self._progress(record, len(outcome.records), outcome.n_total)

        sub = run_jobs(
            None,
            remaining,
            store=self._store,
            workers=self._fallback_workers,
            progress=relay,
            job_timeout=self._job_timeout,
        )
        outcome.records.update(sub.records)
        outcome.interrupted = outcome.interrupted or sub.interrupted


def serve_campaign(
    spec: CampaignSpec,
    store: ResultStore | None = None,
    **kwargs,
) -> CampaignResult:
    """Expand a spec and run it as a distributed campaign (blocking).

    Convenience wrapper over :class:`CampaignCoordinator` for callers that
    don't need the endpoint before serving (e.g. workers are already
    pointed at a well-known host:port).  Keyword arguments are forwarded
    to the coordinator.
    """
    coordinator = CampaignCoordinator(spec.expand(), spec=spec, store=store,
                                      **kwargs)
    coordinator.start()
    return coordinator.serve()
