"""SLC reproduction library.

This package reproduces *SLC: Memory Access Granularity Aware Selective Lossy
Compression for GPUs* (Lal, Lucas, Juurlink — DATE 2019).  It contains:

* ``repro.compression`` — lossless block compressors (BDI, FPC, C-PACK, E2MC,
  BPC) and raw/effective compression-ratio accounting.
* ``repro.core`` — the paper's contribution: the MAG-aware selective lossy
  compression (SLC) scheme with its tree-based symbol selector (TSLC), the
  value-similarity predictor and the optimized tree (TSLC-OPT).
* ``repro.gpu`` — a trace-driven GPU performance and energy model standing in
  for GPGPU-Sim / GPUSimPow (caches, GDDR5 burst accounting, memory
  controllers with integrated compression, timing and energy models).
* ``repro.hardware`` — an analytic 32 nm hardware cost model for the SLC logic.
* ``repro.workloads`` — NumPy re-implementations of the nine benchmarks used in
  the paper's evaluation, including data generation and per-kernel error
  metrics.
* ``repro.metrics`` — error and performance metrics (MRE, NRMSE, image diff,
  miss rate, speedup, bandwidth, energy, EDP).
* ``repro.approx`` — the safe-to-approximate memory-region model (the paper's
  extended ``cudaMalloc``).
* ``repro.campaign`` — the sweep engine: declarative campaign specs expand a
  (workload × scheme × MAG × threshold × seed) grid into content-hashed
  jobs, a process-pool executor fans them out with per-job failure capture,
  and a JSONL result store keyed by job hash makes re-runs free.  Driven
  from Python or via the ``repro`` CLI (``python -m repro campaign run``).
* ``repro.studies`` — the declarative Study framework: every evaluation
  artefact (paper figure/table, ablation, response surface, seed-variance
  bands, GPU-scaling curves) is a registered ``Study`` whose grid rides the
  campaign engine; ``python -m repro study run|list|export`` drives them.
  Figs. 7/8 are the (9 workloads × {E2MC, TSLC-SIMP/PRED/OPT}) grid at
  threshold 16 B, Fig. 9 one sub-grid per MAG ∈ {16, 32, 64} B with
  threshold MAG/2.  ``Fig7Study(...).run(store=..., workers=...)``
  parallelizes and caches any of them; ``fig7_rows``/``format_fig7`` and
  friends reduce and render an existing :class:`~repro.studies.SLCStudy`.
"""

from repro._version import __version__
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.compression import (
    BDICompressor,
    BPCCompressor,
    CPackCompressor,
    E2MCCompressor,
    FPCCompressor,
    available_compressors,
    get_compressor,
)
from repro.core import (
    SLCCompressor,
    SLCConfig,
    SLCMode,
    SLCVariant,
)
from repro.gpu import GPUConfig, GPUSimulator, SimulationResult
from repro.workloads import available_workloads, get_workload

__all__ = [
    "__version__",
    "CampaignSpec",
    "ResultStore",
    "run_campaign",
    "BDICompressor",
    "FPCCompressor",
    "CPackCompressor",
    "E2MCCompressor",
    "BPCCompressor",
    "available_compressors",
    "get_compressor",
    "SLCCompressor",
    "SLCConfig",
    "SLCMode",
    "SLCVariant",
    "GPUConfig",
    "GPUSimulator",
    "SimulationResult",
    "available_workloads",
    "get_workload",
]
