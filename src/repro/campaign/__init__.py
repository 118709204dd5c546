"""Campaign orchestration: declarative, parallel, cacheable simulation sweeps.

The experiment grids of the paper (workload × scheme × MAG × threshold ×
seed) are expressed as a :class:`CampaignSpec`, expanded into
content-addressed :class:`Job` descriptions, executed in parallel worker
processes by :func:`run_campaign`, and persisted in a :class:`ResultStore`
keyed by job hash — so re-running a figure only simulates cells that have
never been computed.  The ``repro`` CLI (``python -m repro``) drives the
same engine from the command line.

Campaigns also run distributed: :func:`serve_campaign` (CLI: ``repro
campaign serve``) coordinates the same jobs over a lease-based work queue
(:class:`LeaseQueue`) that remote :func:`run_worker` processes (``repro
campaign worker``) drain, surviving worker death via lease expiry +
idempotent re-execution, with per-worker quarantine and graceful fallback
to the in-process pool.  :mod:`repro.campaign.faults` injects
deterministic failures for the robustness test suite.
"""

from repro.campaign import faults
from repro.campaign.executor import CampaignResult, run_campaign, run_jobs
from repro.campaign.queue import Lease, LeaseQueue, WorkerInfo
from repro.campaign.remote import (
    CoordinatorClient,
    CoordinatorUnreachable,
    WorkerSummary,
    run_worker,
)
from repro.campaign.service import (
    CampaignCoordinator,
    CampaignService,
    serve_campaign,
)
from repro.campaign.spec import (
    BASELINE_SCHEME,
    KNOWN_SCHEMES,
    LOSSLESS_SCHEMES,
    PAPER_SCHEMES,
    SCHEME_VARIANTS,
    CampaignSpec,
    Job,
    config_to_overrides,
    expand_specs,
    overrides_to_config,
)
from repro.campaign.store import JobRecord, ResultStore, open_store
from repro.campaign.worker import (
    InputCache,
    build_backend,
    execute_job,
    simulate_job,
)

__all__ = [
    "faults",
    "Lease",
    "LeaseQueue",
    "WorkerInfo",
    "CampaignCoordinator",
    "CampaignService",
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "WorkerSummary",
    "serve_campaign",
    "run_worker",
    "BASELINE_SCHEME",
    "KNOWN_SCHEMES",
    "LOSSLESS_SCHEMES",
    "PAPER_SCHEMES",
    "SCHEME_VARIANTS",
    "CampaignSpec",
    "Job",
    "JobRecord",
    "CampaignResult",
    "ResultStore",
    "open_store",
    "run_campaign",
    "run_jobs",
    "expand_specs",
    "build_backend",
    "execute_job",
    "simulate_job",
    "InputCache",
    "config_to_overrides",
    "overrides_to_config",
]
