"""Declarative studies: every evaluation artefact as grid + reduction + export.

A :class:`Study` couples a campaign grid (:meth:`~Study.spec` /
:meth:`~Study.jobs`), a reduction over the grid's records
(:meth:`~Study.aggregate`) and a flat export (:meth:`~Study.export`); the
campaign engine supplies parallel execution, persistent caching (JSONL or
SQLite result stores) and failure capture.  All paper figures/tables are
registered studies, as are the sweep-shaped studies beyond the paper
(response surface, seed variance, GPU scaling).  ``repro study
list|run|export`` drives them from the command line.
"""

from repro.studies.ablation import ThresholdAblationStudy
from repro.studies.base import Study, StudyResult
from repro.studies.compression import (
    Fig1Row,
    Fig1Study,
    Fig2Distribution,
    Fig2Study,
    effective_ratio_by_mag,
    fig1_rows,
    format_fig1,
    format_fig2,
    workload_blocks,
)
from repro.studies.fidelity import FidelityStudy
from repro.studies.hardware import Table1Study, format_table1
from repro.studies.performance import (
    Fig7Row,
    Fig7Study,
    Fig8Row,
    Fig8Study,
    Fig9Row,
    Fig9Study,
    fig7_rows,
    fig8_rows,
    format_fig7,
    format_fig8,
    format_fig9,
)
from repro.studies.registry import (
    available_studies,
    get_study,
    register_study,
    study_class,
)
from repro.studies.slc import SLCStudy, SLCSweepStudy, run_slc_study
from repro.studies.sweeps import (
    GPUScalingStudy,
    ResponseSurfaceStudy,
    SeedVarianceStudy,
)
from repro.studies.tournament import TournamentStudy, pareto_frontier

__all__ = [
    "Study",
    "StudyResult",
    "register_study",
    "get_study",
    "study_class",
    "available_studies",
    "SLCStudy",
    "SLCSweepStudy",
    "run_slc_study",
    "Fig1Study",
    "Fig1Row",
    "fig1_rows",
    "format_fig1",
    "Fig2Study",
    "Fig2Distribution",
    "format_fig2",
    "Table1Study",
    "format_table1",
    "Fig7Study",
    "Fig7Row",
    "fig7_rows",
    "format_fig7",
    "Fig8Study",
    "Fig8Row",
    "fig8_rows",
    "format_fig8",
    "Fig9Study",
    "Fig9Row",
    "format_fig9",
    "ThresholdAblationStudy",
    "ResponseSurfaceStudy",
    "SeedVarianceStudy",
    "GPUScalingStudy",
    "FidelityStudy",
    "TournamentStudy",
    "pareto_frontier",
    "effective_ratio_by_mag",
    "workload_blocks",
]
