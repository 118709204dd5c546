"""Workload registry: the nine paper benchmarks plus extended families.

The paper's nine kernels register first, in the order every figure plots
them (:data:`PAPER_WORKLOAD_ORDER`); the extended families (scientific
fields, DNN tensors) follow (:data:`EXTENDED_WORKLOAD_ORDER`).  User code
adds its own workloads — including ingested traces — through the same
:func:`register_workload` plugin hook, which rejects duplicate names the
way the compression-scheme registry does.
"""

from __future__ import annotations

from typing import Callable

from repro.workloads.backprop import BackpropWorkload
from repro.workloads.base import Workload
from repro.workloads.blackscholes import BlackScholesWorkload
from repro.workloads.dct import DCTWorkload
from repro.workloads.dnnact import DNNActivationWorkload
from repro.workloads.fwt import FastWalshTransformWorkload
from repro.workloads.jmeint import JMeintWorkload
from repro.workloads.nn import NearestNeighborWorkload
from repro.workloads.srad import SRAD1Workload, SRAD2Workload
from repro.workloads.transpose import TransposeWorkload
from repro.workloads.weather import WeatherWorkload

#: x-axis order of every figure in the paper
PAPER_WORKLOAD_ORDER = ("JM", "BS", "DCT", "FWT", "TP", "BP", "NN", "SRAD1", "SRAD2")

#: the extended families beyond the paper, in registration order
EXTENDED_WORKLOAD_ORDER = ("WEATHER", "DNNACT")

_REGISTRY: dict[str, Callable[..., Workload]] = {}
_FAMILIES: dict[str, str] = {}


def register_workload(
    name: str, factory: Callable[..., Workload], family: str = "user"
) -> Callable[..., Workload]:
    """Register a workload factory under ``name`` (case-insensitive).

    The plugin hook every family uses — the nine paper benchmarks, the
    extended families and user workloads all register the same way, so
    studies and campaign validation treat them uniformly.  ``factory`` is
    typically a :class:`Workload` subclass; any callable accepting the
    constructor keywords (``scale``, ``seed``) works.

    Raises:
        ValueError: if ``name`` is already registered (like the
            compression-scheme registry, duplicates are a programming
            error, not a silent override).
    """
    key = name.upper()
    if key in _REGISTRY:
        raise ValueError(
            f"workload {name!r} is already registered (as {_REGISTRY[key]!r})"
        )
    _REGISTRY[key] = factory
    _FAMILIES[key] = family
    return factory


def unregister_workload(name: str) -> None:
    """Remove a registered workload (tests and ad-hoc trace ingestion)."""
    key = name.upper()
    if key in PAPER_WORKLOAD_ORDER or key in EXTENDED_WORKLOAD_ORDER:
        raise ValueError(f"built-in workload {name!r} cannot be unregistered")
    _REGISTRY.pop(key, None)
    _FAMILIES.pop(key, None)


for _name, _factory in {
    "JM": JMeintWorkload,
    "BS": BlackScholesWorkload,
    "DCT": DCTWorkload,
    "FWT": FastWalshTransformWorkload,
    "TP": TransposeWorkload,
    "BP": BackpropWorkload,
    "NN": NearestNeighborWorkload,
    "SRAD1": SRAD1Workload,
    "SRAD2": SRAD2Workload,
}.items():
    register_workload(_name, _factory, family="paper")
register_workload("WEATHER", WeatherWorkload, family="science")
register_workload("DNNACT", DNNActivationWorkload, family="dnn")


def available_workloads() -> list[str]:
    """All registered workload names: paper order first, then extensions."""
    return list(_REGISTRY)


def workload_family(name: str) -> str:
    """Family tag of a registered workload (``paper``/``science``/``dnn``/...)."""
    key = name.upper()
    if key not in _FAMILIES:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        )
    return _FAMILIES[key]


def workload_factory(name: str) -> Callable[..., Workload]:
    """The factory registered under ``name`` (case-insensitive).

    Its identity tells two registrations of one name apart, which is how
    the campaign worker's input cache notices a re-registered workload.
    """
    key = name.upper()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        )
    return _REGISTRY[key]


def get_workload(name: str, **kwargs) -> Workload:
    """Instantiate a benchmark by its short name (case-insensitive).

    Args:
        name: one of :func:`available_workloads`.
        **kwargs: forwarded to the workload constructor (``scale``, ``seed``).
    """
    return workload_factory(name)(**kwargs)


def table3_rows(scale: float | None = None) -> list[tuple[str, str, str, str, int]]:
    """Rows of Table III (name, description, input, error metric, #AR).

    The paper's nine rows come first; the extended families append their
    rows in registration order, so the table doubles as the registry
    listing.
    """
    rows = []
    for name in (*PAPER_WORKLOAD_ORDER, *EXTENDED_WORKLOAD_ORDER):
        workload = _REGISTRY[name]() if scale is None else _REGISTRY[name](scale=scale)
        rows.append(workload.table3_row())
    return rows
