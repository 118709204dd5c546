"""The (workload × scheme) SLC simulation sweep every figure study rides.

:class:`SLCStudy` is the results container of the paper's evaluation — for
each benchmark the E2MC lossless baseline plus TSLC variants on the same
workload data — exposing the normalized metrics of Figs. 7–9 (speedup,
application error, bandwidth, energy, EDP) and their geometric means.

:class:`SLCSweepStudy` is the declarative study producing it: its grid is
one :class:`~repro.campaign.CampaignSpec`, its aggregation groups the
records back into an :class:`SLCStudy`.  :func:`run_slc_study` is the
function-call form of it (variants, ``workers=``, ``store_dir=``) and returns
identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.spec import (
    BASELINE_SCHEME,
    SCHEME_VARIANTS,
    CampaignSpec,
    Overrides,
    config_to_overrides,
)
from repro.campaign.store import JobRecord
from repro.compression.stats import geometric_mean
from repro.core.config import SLCVariant
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimulationResult
from repro.studies.base import Study, StudyResult
from repro.studies.registry import register_study
from repro.workloads.registry import PAPER_WORKLOAD_ORDER

#: backend label used for the lossless baseline in every study
BASELINE_LABEL = BASELINE_SCHEME

#: the three TSLC variants of Fig. 7/8, in plotting order
VARIANT_LABELS = {variant: label for label, variant in SCHEME_VARIANTS.items()}


@dataclass
class SLCStudy:
    """Results of simulating all benchmarks under the baseline and variants.

    ``results[workload][scheme]`` holds the :class:`SimulationResult` of one
    (workload, scheme) pair; ``scheme`` is :data:`BASELINE_LABEL` or one of
    the variant labels.
    """

    baseline_label: str = BASELINE_LABEL
    results: dict[str, dict[str, SimulationResult]] = field(default_factory=dict)

    def workloads(self) -> list[str]:
        """Benchmarks in the order they were simulated."""
        return list(self.results)

    def schemes(self) -> list[str]:
        """Union of scheme labels across all workloads (baseline first)."""
        labels: list[str] = []
        for per_scheme in self.results.values():
            for label in per_scheme:
                if label not in labels:
                    labels.append(label)
        if self.baseline_label in labels:
            labels.remove(self.baseline_label)
            labels.insert(0, self.baseline_label)
        return labels

    # ------------------------------------------------------------------ #
    # normalized metrics (the y-axes of Figs. 7–9)

    def speedup(self, workload: str, scheme: str) -> float:
        """Execution-time speedup of ``scheme`` over the baseline."""
        baseline = self.results[workload][self.baseline_label]
        return self.results[workload][scheme].speedup_over(baseline)

    def error_percent(self, workload: str, scheme: str) -> float:
        """Application error of ``scheme`` in percent."""
        return self.results[workload][scheme].error_percent

    def normalized_bandwidth(self, workload: str, scheme: str) -> float:
        """Off-chip traffic normalized to the baseline (lower is better)."""
        baseline = self.results[workload][self.baseline_label]
        return self.results[workload][scheme].bandwidth_ratio_over(baseline)

    def normalized_energy(self, workload: str, scheme: str) -> float:
        """Energy normalized to the baseline (lower is better)."""
        baseline = self.results[workload][self.baseline_label]
        return self.results[workload][scheme].energy_ratio_over(baseline)

    def normalized_edp(self, workload: str, scheme: str) -> float:
        """EDP normalized to the baseline (lower is better)."""
        baseline = self.results[workload][self.baseline_label]
        return self.results[workload][scheme].edp_ratio_over(baseline)

    def metric(self, metric: str, workload: str, scheme: str) -> float:
        """One normalized metric by name (the keys of :meth:`geomean`)."""
        return self._getters()[metric](workload, scheme)

    def geomean(self, metric: str, scheme: str) -> float:
        """Geometric mean of a normalized metric over all benchmarks."""
        getter = self._getters()[metric]
        return geometric_mean([getter(w, scheme) for w in self.workloads()])

    def _getters(self):
        return {
            "speedup": self.speedup,
            "bandwidth": self.normalized_bandwidth,
            "energy": self.normalized_energy,
            "edp": self.normalized_edp,
        }


def slc_study_from_records(
    records: list[JobRecord], workload_names: list[str] | None = None
) -> SLCStudy:
    """Group campaign records back into an :class:`SLCStudy`.

    ``workload_names`` restores the caller's spelling (jobs normalize
    workload names to uppercase internally), so e.g. a study over ``["bs"]``
    keys its results by ``"bs"``.
    """
    names_by_upper: dict[str, str] = {}
    for name in workload_names or []:
        names_by_upper.setdefault(name.upper(), name)
    study = SLCStudy()
    for record in records:
        job = record.job
        name = names_by_upper.get(job.workload, job.workload)
        study.results.setdefault(name, {})[job.scheme] = record.result
    return study


@register_study
@dataclass
class SLCSweepStudy(Study):
    """The generic (workload × scheme) sweep behind ``run_slc_study``.

    One grid cell per (workload, scheme) at a single threshold/MAG/seed;
    aggregates into an :class:`SLCStudy` (``result.data``) plus flat rows of
    every normalized metric.
    """

    name = "slc-sweep"
    title = "SLC sweep — per-(workload, scheme) normalized metrics"

    workloads: tuple[str, ...] = PAPER_WORKLOAD_ORDER
    schemes: tuple[str, ...] = (BASELINE_SCHEME, *SCHEME_VARIANTS)
    lossy_threshold_bytes: int = 16
    mag_bytes: int | None = None
    scale: float | None = None
    seed: int = 2019
    compute_error: bool = True
    config_overrides: Overrides = ()

    def __post_init__(self) -> None:
        self.schemes = tuple(s.upper() for s in self.schemes)
        # Every metric is normalized to the baseline; catch its absence at
        # construction time, not as a KeyError after the grid has simulated.
        if BASELINE_SCHEME not in self.schemes:
            raise ValueError(
                f"schemes must include the {BASELINE_SCHEME} baseline "
                "(every metric is normalized to it)"
            )

    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="slc-study",
            workloads=tuple(self.workloads),
            schemes=tuple(self.schemes),
            lossy_thresholds=(self.lossy_threshold_bytes,),
            mags=(self.mag_bytes,),
            scales=(self.scale,),
            seeds=(self.seed,),
            compute_error=self.compute_error,
            config_overrides=tuple(self.config_overrides),
        )

    def aggregate(self, records: list[JobRecord]) -> StudyResult:
        study = slc_study_from_records(records, list(self.workloads))
        rows: list[dict] = []
        schemes = [s for s in study.schemes() if s != study.baseline_label]
        for workload in study.workloads():
            for scheme in schemes:
                rows.append(
                    {
                        "workload": workload,
                        "scheme": scheme,
                        "speedup": study.speedup(workload, scheme),
                        "error_percent": study.error_percent(workload, scheme),
                        "normalized_bandwidth": study.normalized_bandwidth(
                            workload, scheme
                        ),
                        "normalized_energy": study.normalized_energy(workload, scheme),
                        "normalized_edp": study.normalized_edp(workload, scheme),
                    }
                )
        for scheme in schemes:
            rows.append(
                {
                    "workload": "GM",
                    "scheme": scheme,
                    "speedup": study.geomean("speedup", scheme),
                    "error_percent": None,
                    "normalized_bandwidth": study.geomean("bandwidth", scheme),
                    "normalized_energy": study.geomean("energy", scheme),
                    "normalized_edp": study.geomean("edp", scheme),
                }
            )
        return self.make_result(rows, data=study)


def run_slc_study(
    workload_names: list[str] | None = None,
    variants: list[SLCVariant] | None = None,
    lossy_threshold_bytes: int = 16,
    mag_bytes: int | None = None,
    scale: float | None = None,
    seed: int = 2019,
    config: GPUConfig | None = None,
    compute_error: bool = True,
    workers: int = 1,
    store_dir: str | Path | None = None,
) -> SLCStudy:
    """Simulate every benchmark under E2MC and the requested TSLC variants.

    Args:
        workload_names: benchmarks to include (default: all nine, paper order).
        variants: TSLC variants to simulate (default: SIMP, PRED, OPT).
        lossy_threshold_bytes: the SLC lossy threshold (16 B in Fig. 7/8).
        mag_bytes: memory access granularity (default: the GPU config's 32 B).
        scale: workload input scale (default: each workload's default).
        seed: RNG seed for data generation.
        config: GPU configuration (Table II defaults).
        compute_error: whether to re-run kernels on degraded inputs to obtain
            the application error (disable for timing-only studies).
        workers: worker processes for the sweep (1 = in-process, serial).
        store_dir: optional campaign directory; when set, already-computed
            (workload, scheme) cells are served from the persistent store.
    """
    workload_names = list(workload_names or PAPER_WORKLOAD_ORDER)
    variants = list(variants or [SLCVariant.SIMP, SLCVariant.PRED, SLCVariant.OPT])
    study = SLCSweepStudy(
        workloads=tuple(workload_names),
        schemes=(BASELINE_SCHEME, *(VARIANT_LABELS[v] for v in variants)),
        lossy_threshold_bytes=lossy_threshold_bytes,
        mag_bytes=mag_bytes,
        scale=scale,
        seed=seed,
        compute_error=compute_error,
        config_overrides=config_to_overrides(config),
    )
    return study.run(store=store_dir, workers=workers).data
