"""Declarative campaign specifications and content-addressed jobs.

A campaign is a parameter grid — workloads × compression schemes × MAG ×
lossy threshold × scale × seed (× GPU config overrides) — that expands into
a deterministic list of :class:`Job` descriptions.  Every job carries a
stable content hash over its parameters, which is the key the result store
uses: two campaigns that share grid cells share cached results, and
re-running an identical campaign re-runs nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

from repro.core.config import SLCVariant
from repro.gpu.config import GPUConfig, LatencyConfig
from repro.workloads.registry import (
    EXTENDED_WORKLOAD_ORDER,
    PAPER_WORKLOAD_ORDER,
    available_workloads,
)

#: the paper's nine benchmarks — the default grid of every paper study
PAPER_WORKLOADS = PAPER_WORKLOAD_ORDER

#: the extended families beyond the paper (scientific fields, DNN tensors)
EXTENDED_WORKLOADS = EXTENDED_WORKLOAD_ORDER

#: every built-in workload: paper taxonomy first, then the extensions
ALL_WORKLOADS = (*PAPER_WORKLOADS, *EXTENDED_WORKLOADS)

#: scheme label of the E2MC lossless baseline
BASELINE_SCHEME = "E2MC"

#: TSLC scheme labels mapped to their :class:`SLCVariant`, in plotting order
SCHEME_VARIANTS = {
    "TSLC-SIMP": SLCVariant.SIMP,
    "TSLC-PRED": SLCVariant.PRED,
    "TSLC-OPT": SLCVariant.OPT,
}

#: purely lossless schemes (beyond the E2MC baseline) that jobs may carry —
#: these dispatch through :class:`~repro.gpu.backends.LosslessBackend` and the
#: compression registry, with no lossy threshold and no application error
LOSSLESS_SCHEMES = ("BDI", "FPC", "CPACK", "BPC")

#: the schemes the paper itself sweeps (baseline first) — the default grid
PAPER_SCHEMES = (BASELINE_SCHEME, *SCHEME_VARIANTS)

#: every scheme label a job may carry
KNOWN_SCHEMES = (*PAPER_SCHEMES, *LOSSLESS_SCHEMES)

#: bumped whenever job execution semantics change, so stale cached results
#: from an older engine are never mistaken for current ones
JOB_FORMAT_VERSION = 1

#: flat override tuple: sorted ("field", value) pairs; latency fields are
#: spelled "latency.<field>"
Overrides = tuple[tuple[str, object], ...]


def config_to_overrides(config: GPUConfig | None) -> Overrides:
    """Diff ``config`` against the Table II defaults into a flat override tuple.

    The tuple is hashable and JSON-friendly, so jobs stay content-addressable
    and picklable even when they carry a customized GPU configuration.
    """
    if config is None:
        return ()
    overrides: dict[str, object] = {}
    default = GPUConfig()
    for f in dataclasses.fields(GPUConfig):
        if f.name == "latency":
            continue
        value = getattr(config, f.name)
        if value != getattr(default, f.name):
            overrides[f.name] = value
    default_latency = LatencyConfig()
    for f in dataclasses.fields(LatencyConfig):
        value = getattr(config.latency, f.name)
        if value != getattr(default_latency, f.name):
            overrides[f"latency.{f.name}"] = value
    return tuple(sorted(overrides.items()))


def overrides_to_config(overrides: Overrides | Mapping[str, object]) -> GPUConfig:
    """Rebuild a :class:`GPUConfig` from :func:`config_to_overrides` output."""
    items = dict(overrides if isinstance(overrides, Mapping) else dict(overrides))
    latency_items = {
        key.split(".", 1)[1]: value
        for key, value in items.items()
        if key.startswith("latency.")
    }
    plain_items = {
        key: value for key, value in items.items() if not key.startswith("latency.")
    }
    latency = replace(LatencyConfig(), **latency_items)
    return replace(GPUConfig(), latency=latency, **plain_items)


@dataclass(frozen=True)
class Job:
    """One grid cell: simulate ``workload`` under ``scheme`` with these knobs.

    Jobs are frozen, hashable and fully described by JSON scalars, so they
    can cross process boundaries and be rebuilt from the result store.
    """

    workload: str
    scheme: str
    lossy_threshold_bytes: int = 16
    mag_bytes: int | None = None
    scale: float | None = None
    seed: int = 2019
    compute_error: bool = True
    config_overrides: Overrides = ()

    def __post_init__(self) -> None:
        # Normalize case and numeric types at the hash boundary: "bs"/"BS"
        # and scale=1 vs. 1.0 must address the same cache entry (canonical
        # JSON spells 1 and 1.0 differently, and from_dict coerces types,
        # so unnormalized jobs would change hash across the worker round
        # trip).
        object.__setattr__(self, "workload", self.workload.upper())
        object.__setattr__(self, "scheme", self.scheme.upper())
        object.__setattr__(self, "lossy_threshold_bytes", int(self.lossy_threshold_bytes))
        if self.mag_bytes is not None:
            object.__setattr__(self, "mag_bytes", int(self.mag_bytes))
        if self.scale is not None:
            object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "compute_error", bool(self.compute_error))
        if self.scheme == BASELINE_SCHEME or self.scheme in LOSSLESS_SCHEMES:
            # Lossless schemes ignore the lossy threshold and have no
            # application error by construction; pin both so every threshold
            # of a sweep addresses the one lossless cell per scheme.
            object.__setattr__(self, "lossy_threshold_bytes", 0)
            object.__setattr__(self, "compute_error", False)

    def to_dict(self) -> dict:
        """The job as a JSON-serializable dict."""
        return {
            "workload": self.workload,
            "scheme": self.scheme,
            "lossy_threshold_bytes": self.lossy_threshold_bytes,
            "mag_bytes": self.mag_bytes,
            "scale": self.scale,
            "seed": self.seed,
            "compute_error": self.compute_error,
            "config_overrides": dict(self.config_overrides),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        """Reconstruct a job produced by :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            scheme=data["scheme"],
            lossy_threshold_bytes=int(data["lossy_threshold_bytes"]),
            mag_bytes=None if data["mag_bytes"] is None else int(data["mag_bytes"]),
            scale=None if data["scale"] is None else float(data["scale"]),
            seed=int(data["seed"]),
            compute_error=bool(data["compute_error"]),
            config_overrides=tuple(sorted(data["config_overrides"].items())),
        )

    @property
    def content_hash(self) -> str:
        """Stable hex digest over the job parameters and engine format."""
        payload = {"format": JOB_FORMAT_VERSION, **self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @cached_property
    def config(self) -> GPUConfig:
        """The GPU configuration of :attr:`config_overrides`, built once per
        job object (:func:`overrides_to_config`)."""
        return overrides_to_config(self.config_overrides)

    @property
    def input_key(self) -> tuple:
        """(workload, scale, seed, block size): what the job's input depends on.

        Jobs with equal keys differ only in how the input is compressed, so
        a worker prepares that input once for all of them (see
        :class:`repro.campaign.worker.InputCache`).
        """
        return (self.workload, self.scale, self.seed, self.config.block_size_bytes)

    def label(self) -> str:
        """Short human-readable identifier used in progress lines."""
        parts = [self.workload, self.scheme, f"thr{self.lossy_threshold_bytes}"]
        if self.mag_bytes is not None:
            parts.append(f"mag{self.mag_bytes}")
        return "/".join(parts)


@dataclass(frozen=True)
class CampaignSpec:
    """A parameter grid that expands into the cross product of its axes.

    ``expand()`` enumerates jobs deterministically (seed, scale, MAG,
    threshold, workload, scheme — innermost last), so the scheme order of a
    study and the progress order of a sweep are both predictable.
    """

    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER
    schemes: tuple[str, ...] = PAPER_SCHEMES
    lossy_thresholds: tuple[int, ...] = (16,)
    mags: tuple[int | None, ...] = (None,)
    scales: tuple[float | None, ...] = (None,)
    seeds: tuple[int, ...] = (2019,)
    compute_error: bool = True
    config_overrides: Overrides = ()
    name: str = "campaign"

    def __post_init__(self) -> None:
        # Validate against the live registry, not a hardcoded list, so the
        # extended families and user-registered workloads (plugins,
        # ingested traces) are first-class grid axes.
        known = {w.upper() for w in available_workloads()}
        for workload in self.workloads:
            if workload.upper() not in known:
                raise KeyError(
                    f"unknown workload {workload!r}; "
                    f"available: {', '.join(available_workloads())}"
                )
        for scheme in self.schemes:
            if scheme.upper() not in KNOWN_SCHEMES:
                raise KeyError(
                    f"unknown scheme {scheme!r}; available: {', '.join(KNOWN_SCHEMES)}"
                )
        if not (self.workloads and self.schemes and self.lossy_thresholds
                and self.mags and self.scales and self.seeds):
            raise ValueError("every campaign axis needs at least one value")

    def expand(self) -> list[Job]:
        """Enumerate the grid as deterministic, unique job descriptions.

        :class:`Job` normalizes baseline cells (the lossless baseline is
        threshold-independent and has no application error), so a threshold
        sweep aliases its baseline across thresholds; the aliased cells are
        deduplicated here, keeping the first occurrence.
        """
        jobs: dict[str, Job] = {}
        for seed in self.seeds:
            for scale in self.scales:
                for mag in self.mags:
                    for threshold in self.lossy_thresholds:
                        for workload in self.workloads:
                            for scheme in self.schemes:
                                job = Job(
                                    workload=workload,
                                    scheme=scheme,
                                    lossy_threshold_bytes=threshold,
                                    mag_bytes=mag,
                                    scale=scale,
                                    seed=seed,
                                    compute_error=self.compute_error,
                                    config_overrides=self.config_overrides,
                                )
                                jobs.setdefault(job.content_hash, job)
        return list(jobs.values())

    def to_dict(self) -> dict:
        """The spec as a JSON-serializable dict (persisted as campaign.json)."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "schemes": list(self.schemes),
            "lossy_thresholds": list(self.lossy_thresholds),
            "mags": list(self.mags),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "compute_error": self.compute_error,
            "config_overrides": dict(self.config_overrides),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Reconstruct a spec produced by :meth:`to_dict`."""
        return cls(
            name=data.get("name", "campaign"),
            workloads=tuple(data["workloads"]),
            schemes=tuple(data["schemes"]),
            lossy_thresholds=tuple(int(t) for t in data["lossy_thresholds"]),
            mags=tuple(None if m is None else int(m) for m in data["mags"]),
            scales=tuple(None if s is None else float(s) for s in data["scales"]),
            seeds=tuple(int(s) for s in data["seeds"]),
            compute_error=bool(data["compute_error"]),
            config_overrides=tuple(sorted(data["config_overrides"].items())),
        )


def expand_specs(specs: "list[CampaignSpec] | tuple[CampaignSpec, ...]") -> list[Job]:
    """Union of several grids as one deduplicated, deterministic job list.

    A single :class:`CampaignSpec` is a pure cross product; grids whose axes
    are *coupled* — Fig. 9 ties the lossy threshold to the MAG (MAG/2), a
    GPU-scaling sweep ties ``config_overrides`` to the scaling point — are
    expressed as one sub-spec per coupling and expanded here.  Cells shared
    between sub-specs (e.g. a common baseline) run once: deduplication is by
    content hash, keeping the first occurrence.
    """
    jobs: dict[str, Job] = {}
    for spec in specs:
        for job in spec.expand():
            jobs.setdefault(job.content_hash, job)
    return list(jobs.values())
