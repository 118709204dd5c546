"""The paper's nine benchmarks (Table III) plus extended workload families.

Each workload is a NumPy re-implementation of the corresponding CUDA kernel
(AxBench / CUDA SDK / Rodinia), together with:

* synthetic-but-realistic input data generation (the value distributions are
  what drives compressibility),
* the set of memory regions it allocates, with the safe-to-approximate
  annotation the paper expresses through its extended ``cudaMalloc`` (the
  ``#AR`` column of Table III),
* a block-granular memory trace approximating the kernel's DRAM traffic,
* the kernel itself, re-runnable on degraded inputs, and
* the application-specific error metric of Table III.
"""

from repro.workloads.backprop import BackpropWorkload
from repro.workloads.base import Region, Workload, WorkloadOutput
from repro.workloads.blackscholes import BlackScholesWorkload
from repro.workloads.dct import DCTWorkload
from repro.workloads.dnnact import DNNActivationWorkload
from repro.workloads.fwt import FastWalshTransformWorkload
from repro.workloads.jmeint import JMeintWorkload
from repro.workloads.nn import NearestNeighborWorkload
from repro.workloads.registry import (
    EXTENDED_WORKLOAD_ORDER,
    PAPER_WORKLOAD_ORDER,
    available_workloads,
    get_workload,
    register_workload,
    table3_rows,
    unregister_workload,
    workload_factory,
    workload_family,
)
from repro.workloads.srad import SRAD1Workload, SRAD2Workload
from repro.workloads.traceio import (
    TraceBundle,
    TraceWorkload,
    capture_trace,
    load_trace,
    register_trace,
    save_trace,
)
from repro.workloads.transpose import TransposeWorkload
from repro.workloads.weather import WeatherWorkload

__all__ = [
    "Workload",
    "Region",
    "WorkloadOutput",
    "JMeintWorkload",
    "BlackScholesWorkload",
    "DCTWorkload",
    "FastWalshTransformWorkload",
    "TransposeWorkload",
    "BackpropWorkload",
    "NearestNeighborWorkload",
    "SRAD1Workload",
    "SRAD2Workload",
    "WeatherWorkload",
    "DNNActivationWorkload",
    "TraceBundle",
    "TraceWorkload",
    "capture_trace",
    "save_trace",
    "load_trace",
    "register_trace",
    "available_workloads",
    "get_workload",
    "register_workload",
    "unregister_workload",
    "workload_factory",
    "workload_family",
    "table3_rows",
    "PAPER_WORKLOAD_ORDER",
    "EXTENDED_WORKLOAD_ORDER",
]
