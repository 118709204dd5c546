"""The persistent, content-addressed store of campaign job results.

:class:`ResultStore` maps job content hash to :class:`JobRecord` through an
append-only ``results.jsonl`` under the campaign directory, one JSON record
per line.  Append-only writes make crashes benign (a torn final line is
skipped on load and healed by the next append) and keep the full history
greppable; the in-memory index is a plain dict, last write wins, in
first-insertion order.  Re-runs grow the file unboundedly, so
:meth:`ResultStore.compact` rewrites it keeping only the record each hash
currently resolves to.  Every write path has one writer: the local pool's
parent process collects every record, and the distributed coordinator
drains completions into its own store.

The campaign spec itself is persisted next to the results
(``campaign.json``) so ``campaign status`` can diff the grid against the
results on disk.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.campaign import faults
from repro.campaign.spec import CampaignSpec, Job
from repro.gpu.simulator import SimulationResult
from repro.obs.log import get_logger

_log = get_logger("campaign.store")


@dataclass
class JobRecord:
    """Outcome of one job: its result, or the captured failure."""

    job: Job
    status: str
    result: SimulationResult | None = None
    error: str | None = None
    elapsed_s: float = 0.0
    #: True when this record was served from the store instead of simulated
    #: in the current invocation (never persisted).
    cached: bool = False
    #: where/when the job ran: hostname, pid, ISO-8601 ``started_at``.
    #: Forensics for ``campaign diff`` between hosts and groundwork for the
    #: distributed executor; empty for records from pre-provenance stores.
    provenance: dict = field(default_factory=dict)
    #: per-job :mod:`repro.obs.metrics` snapshot (collected only when the
    #: campaign ran with metrics enabled; empty otherwise)
    metrics: dict = field(default_factory=dict)
    #: per-job :mod:`repro.obs.tracing` span dicts (collected only when the
    #: campaign ran with tracing enabled; empty otherwise)
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the job completed successfully."""
        return self.status == "ok"

    def to_dict(self) -> dict:
        """The record as a JSON-serializable dict (one JSONL line).

        The observability fields are emitted only when present, so stores
        written with instrumentation off are byte-identical to pre-obs ones.
        """
        data = {
            "job_hash": self.job.content_hash,
            "job": self.job.to_dict(),
            "status": self.status,
            "result": None if self.result is None else self.result.to_dict(),
            "error": self.error,
            "elapsed_s": self.elapsed_s,
        }
        if self.provenance:
            data["provenance"] = dict(self.provenance)
        if self.metrics:
            data["metrics"] = self.metrics
        if self.spans:
            data["spans"] = self.spans
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        """Reconstruct a record produced by :meth:`to_dict`.

        Records from older stores carry no provenance/metrics/spans keys;
        they default to empty.
        """
        result = data.get("result")
        return cls(
            job=Job.from_dict(data["job"]),
            status=data["status"],
            result=None if result is None else SimulationResult.from_dict(result),
            error=data.get("error"),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            provenance=dict(data.get("provenance") or {}),
            metrics=dict(data.get("metrics") or {}),
            spans=list(data.get("spans") or []),
        )


class ResultStore:
    """Map from job content hash to :class:`JobRecord`, one JSONL line each.

    Opening a directory creates it when missing; a path that cannot be a
    directory (a regular file, or one below a file) raises ``ValueError``.
    """

    RESULTS_FILE = "results.jsonl"
    SPEC_FILE = "campaign.json"

    def __init__(self, directory: str | Path) -> None:
        #: campaign directory (spec + results live under it)
        self.directory = Path(directory)
        if (self.directory / "results.sqlite").exists():
            # A store written by the retired SQLite backend: opening it here
            # would silently start an empty JSONL store next to it.
            raise ValueError(
                f"{self.directory} holds a results.sqlite store, which is no "
                "longer supported"
            )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise ValueError(f"{self.directory} is not a directory") from None
        except OSError as exc:  # e.g. a regular file above it, no permission
            raise ValueError(
                f"cannot create {self.directory}: {exc.strerror}"
            ) from None
        self.results_path = self.directory / self.RESULTS_FILE
        self._index: dict[str, JobRecord] = {}
        #: lines that failed to parse on load (torn writes, foreign junk);
        #: they survive on disk until :meth:`compact` rewrites the file
        self.corrupt_lines = 0
        #: True when the file ends mid-record (writer killed mid-append);
        #: the next :meth:`put` then starts on a fresh line so the partial
        #: record cannot corrupt the one being written
        self._needs_newline = False
        self._load()

    def _load(self) -> None:
        if not self.results_path.exists():
            return
        raw_line = ""
        with self.results_path.open("r", encoding="utf-8") as handle:
            for lineno, raw_line in enumerate(handle, 1):
                line = raw_line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    record = JobRecord.from_dict(data)
                except Exception:
                    # A worker killed mid-append leaves a truncated final
                    # line; a partial record is a casualty, not a disaster —
                    # tolerate it, say so, and let compact() drop it.
                    self.corrupt_lines += 1
                    _log.warning(
                        "%s:%d: skipping unreadable record (%d bytes, "
                        "truncated write?) — 'campaign compact' will drop it",
                        self.results_path, lineno, len(line),
                    )
                    continue
                self._index[record.job.content_hash] = record
        self._needs_newline = bool(raw_line) and not raw_line.endswith("\n")

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, job_hash: str) -> bool:
        return job_hash in self._index

    def get(self, job_hash: str) -> JobRecord | None:
        """The stored record for a job hash, or None."""
        return self._index.get(job_hash)

    def records(self) -> list[JobRecord]:
        """All stored records, in first-insertion order."""
        return list(self._index.values())

    def put(self, record: JobRecord) -> None:
        """Append a record (last write per job hash wins)."""
        payload = json.dumps(record.to_dict())
        with self.results_path.open("a", encoding="utf-8") as handle:
            if self._needs_newline:
                # heal a torn trailing write: without this, appending would
                # glue the new record onto the partial line and lose both
                handle.write("\n")
                self._needs_newline = False
            if faults.fire(faults.TRUNCATE_STORE_WRITE):
                # fault injection: die mid-append — half the payload, no
                # newline, nothing indexed (the record is simply lost)
                handle.write(payload[: max(1, len(payload) // 2)])
                self._needs_newline = True
                self.corrupt_lines += 1
                _log.warning("fault: truncated store write for %s",
                             record.job.label())
                return
            handle.write(payload + "\n")
        self._index[record.job.content_hash] = record

    def compact(self) -> tuple[int, int]:
        """Rewrite the JSONL file keeping only the current record per hash.

        The in-memory index is already last-write-wins, but the append-only
        file grows by one line per re-run; compaction rewrites it from the
        index (atomically, via a temp file + rename) and reports how many
        stale lines were dropped — a count that includes any unreadable
        partial lines left behind by writers killed mid-append.
        """
        stale = 0
        if self.results_path.exists():
            with self.results_path.open("r", encoding="utf-8") as handle:
                stale = sum(1 for line in handle if line.strip())
        stale -= len(self._index)
        tmp_path = self.results_path.with_suffix(".jsonl.tmp")
        with tmp_path.open("w", encoding="utf-8") as handle:
            for record in self._index.values():
                handle.write(json.dumps(record.to_dict()) + "\n")
        os.replace(tmp_path, self.results_path)
        self.corrupt_lines = 0
        self._needs_newline = False
        return len(self._index), max(0, stale)

    def lookup(self, job: Job) -> JobRecord | None:
        """Find a successful record that can serve ``job`` without simulating.

        This is the store's cache policy, shared by the executor and the
        ``campaign status`` CLI.  Besides the exact content hash, a
        timing-only job (``compute_error=False``) is served from its
        error-computing twin: that record holds a strict superset of the
        requested metrics (its ``error_percent`` is the real application
        error instead of the 0.0 a timing-only run reports).  Failed
        records are never served — they get retried.
        """
        record = self.get(job.content_hash)
        if record is not None and record.ok:
            return record
        if not job.compute_error:
            twin = replace(job, compute_error=True)
            record = self.get(twin.content_hash)
            if record is not None and record.ok:
                return record
        return None

    # ------------------------------------------------------------------ #
    # campaign spec persistence

    def save_spec(self, spec: CampaignSpec) -> None:
        """Write the campaign spec next to the results."""
        path = self.directory / self.SPEC_FILE
        path.write_text(json.dumps(spec.to_dict(), indent=2) + "\n", encoding="utf-8")

    def load_spec(self) -> CampaignSpec | None:
        """Read back the campaign spec, if one was saved."""
        path = self.directory / self.SPEC_FILE
        if not path.exists():
            return None
        return CampaignSpec.from_dict(json.loads(path.read_text(encoding="utf-8")))


def open_store(path: str | Path) -> ResultStore:
    """Open the existing result store at ``path``.

    Refuses a path holding no results file — the right mode for commands
    that only read or rewrite a store (``campaign diff``/``compact``), where
    silently creating an empty store would turn a typo'd path into a
    vacuous result.
    """
    results = Path(path) / ResultStore.RESULTS_FILE
    if not results.exists():
        raise FileNotFoundError(f"no result store at {path} ({results} is missing)")
    return ResultStore(path)
