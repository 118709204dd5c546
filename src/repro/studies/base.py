"""The declarative Study framework: grid + reduction + export in one object.

A :class:`Study` describes one evaluation artefact (a paper figure, a table,
a sweep) through three declarative hooks:

* :meth:`Study.spec` — the parameter grid as a
  :class:`~repro.campaign.CampaignSpec` (or ``jobs()`` for coupled grids no
  cross product can express, or nothing at all for analysis-only studies
  that never touch the simulator);
* :meth:`Study.aggregate` — the reduction from the grid's
  :class:`~repro.campaign.JobRecord` list to a :class:`StudyResult`
  (normalized metrics, geomeans, per-seed statistics);
* :meth:`Study.export` — the result flattened to plain rows for CSV.

:meth:`Study.run` drives the pipeline on the campaign engine, so every study
inherits parallel execution (``workers=``), persistent caching (``store=``,
a :class:`~repro.campaign.ResultStore` or its directory) and per-job failure
capture without writing any orchestration code.  Studies are dataclasses:
their fields are the tuning knobs (workloads, scale, seed, sweep axes) the
``repro study`` CLI exposes as ``--set field=value``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

from repro.campaign.executor import ProgressFn, run_jobs
from repro.campaign.spec import CampaignSpec, Job
from repro.campaign.store import JobRecord, ResultStore


@dataclass
class StudyResult:
    """What one study run produced.

    ``rows`` is the flat, CSV-ready view (one dict per row, plain scalars);
    ``data`` is the study-specific payload (typed row objects, an
    :class:`~repro.studies.slc.SLCStudy`, a distribution …) for callers that
    want more than the table.
    """

    study: str
    title: str
    rows: list[dict] = field(default_factory=list)
    data: Any = None
    #: run bookkeeping (cells simulated/cached, …), not part of the table
    meta: dict = field(default_factory=dict)

    def columns(self) -> list[str]:
        """Union of row keys, in first-seen order."""
        columns: dict[str, None] = {}
        for row in self.rows:
            for key in row:
                columns.setdefault(key, None)
        return list(columns)

    def format(self) -> str:
        """The rows as an aligned text table (generic fallback renderer)."""
        columns = self.columns()
        if not columns:
            return self.title
        cells = [[_format_cell(row.get(c, "")) for c in columns] for row in self.rows]
        widths = [
            max(len(c), *(len(line[i]) for line in cells)) if cells else len(c)
            for i, c in enumerate(columns)
        ]
        lines = [self.title, "  ".join(c.ljust(w) for c, w in zip(columns, widths))]
        for line in cells:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


class Study(ABC):
    """Base class of every declarative study (see the module docstring).

    Subclasses are dataclasses whose fields are the study's knobs, declare a
    unique ``name`` (the CLI identifier) and a human ``title``, and implement
    at least :meth:`aggregate`.  Simulation-backed studies override
    :meth:`spec` (or :meth:`jobs` when the grid couples axes); analysis-only
    studies override neither and do their computation in :meth:`aggregate`.
    """

    #: CLI identifier, unique across the registry
    name: ClassVar[str]
    #: one-line human description (shown by ``repro study list``)
    title: ClassVar[str]

    # ------------------------------------------------------------------ #
    # declarative hooks

    def spec(self) -> CampaignSpec | None:
        """The study's parameter grid; None for analysis-only studies."""
        return None

    def jobs(self) -> list[Job]:
        """The grid as explicit jobs (override for coupled axes)."""
        spec = self.spec()
        return spec.expand() if spec is not None else []

    @abstractmethod
    def aggregate(self, records: list[JobRecord]) -> StudyResult:
        """Reduce the grid's records (empty for analysis-only studies)."""

    def export(self, result: StudyResult) -> list[dict]:
        """The result as flat CSV rows (defaults to ``result.rows``)."""
        return result.rows

    def format(self, result: StudyResult) -> str:
        """Render the result as text (defaults to the generic table)."""
        return result.format()

    # ------------------------------------------------------------------ #
    # the driver

    def run(
        self,
        store: ResultStore | str | Path | None = None,
        workers: int = 1,
        progress: ProgressFn | None = None,
    ) -> StudyResult:
        """Execute the study on the campaign engine and aggregate.

        Args:
            store: result store (or the campaign directory to open one in);
                grid cells already stored are served from it instead of
                simulating.
            workers: worker processes for the grid (1 = in-process).
            progress: per-job campaign progress hook.
        """
        jobs = self.jobs()
        records: list[JobRecord] = []
        meta: dict = {"n_jobs": len(jobs)}
        if jobs:
            if isinstance(store, (str, Path)):
                store = ResultStore(store)
            outcome = run_jobs(
                self.spec(), jobs, store=store, workers=workers, progress=progress
            )
            outcome.raise_for_failures()
            records = [record for _, record in outcome.iter_records()]
            meta.update(n_cached=outcome.n_cached, n_executed=outcome.n_executed)
        result = self.aggregate(records)
        result.meta.update(meta)
        return result

    def make_result(self, rows: list[dict], data: Any = None) -> StudyResult:
        """A :class:`StudyResult` stamped with this study's name and title."""
        return StudyResult(study=self.name, title=self.title, rows=rows, data=data)
