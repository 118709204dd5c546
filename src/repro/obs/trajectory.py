"""Committed performance snapshots and the regression gate over them.

The perf trajectory is a sequence of ``BENCH_NNNN.json`` files committed at
the repository root — one per PR that moved a performance number — each
holding named metrics::

    {
      "label": "BENCH_0006",
      "created": "2026-08-08T12:00:00+00:00",
      "tolerance": 0.35,
      "metrics": {
        "kernels_gm_speedup": {"value": 19.2, "unit": "x",
                               "higher_is_better": true, "gate": true},
        "job_nn_tslc_opt_s":  {"value": 0.61, "unit": "s",
                               "higher_is_better": false, "gate": false}
      }
    }

**Gated** metrics are dimensionless speedup ratios (batched vs. scalar GM
speedups), which transfer across machines; :func:`compare` fails a gated
metric whose current value falls outside the tolerance band of the latest
committed snapshot.  Absolute times (end-to-end job seconds) are recorded
``gate: false`` — trajectory context, not portable pass/fail signals.

``repro bench`` (see :mod:`repro.obs.cli`) is the front end: ``snapshot``
writes the next numbered file, ``check`` is the CI regression gate, and
the benchmark suite feeds it through ``--bench-record`` (see
``benchmarks/conftest.py``) via :func:`record`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "DEFAULT_TOLERANCE",
    "SNAPSHOT_PATTERN",
    "metric",
    "record",
    "load_recorded",
    "make_snapshot",
    "save_snapshot",
    "load_snapshot",
    "snapshot_paths",
    "latest_snapshot",
    "next_snapshot_path",
    "compare",
    "TrajectoryReport",
]

#: default relative tolerance band for gated metrics; generous because the
#: gate compares runs from different machines (CI runner vs. the snapshot's)
DEFAULT_TOLERANCE = 0.35

#: committed snapshot file names: BENCH_0006.json, BENCH_0007.json, …
SNAPSHOT_PATTERN = re.compile(r"^BENCH_(\d{4})\.json$")


def metric(
    value: float,
    unit: str = "",
    higher_is_better: bool = True,
    gate: bool = True,
    tolerance: float | None = None,
) -> dict:
    """One snapshot metric entry (``tolerance`` overrides the snapshot's)."""
    entry = {
        "value": float(value),
        "unit": unit,
        "higher_is_better": bool(higher_is_better),
        "gate": bool(gate),
    }
    if tolerance is not None:
        entry["tolerance"] = float(tolerance)
    return entry


# --------------------------------------------------------------------- #
# recorded-metrics files (what a benchmark run measures *now*)


def record(
    path: str | Path,
    name: str,
    value: float,
    unit: str = "",
    higher_is_better: bool = True,
    gate: bool = True,
    tolerance: float | None = None,
) -> None:
    """Merge one measured metric into the recorded-metrics file at ``path``.

    The file accumulates across pytest invocations (CI runs the kernels,
    replay and codec smokes as separate steps), so it is read-modify-write
    rather than truncate-on-first-use.  ``tolerance`` is kept with the
    metric, so a snapshot taken from the file gates it with that band.
    """
    path = Path(path)
    data = load_recorded(path) if path.exists() else {"metrics": {}}
    data["metrics"][name] = metric(
        value, unit=unit, higher_is_better=higher_is_better, gate=gate,
        tolerance=tolerance,
    )
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def load_recorded(path: str | Path) -> dict:
    """Read a recorded-metrics file (also accepts a full snapshot)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "metrics" not in data:
        raise ValueError(f"{path} holds no 'metrics' object")
    return data


# --------------------------------------------------------------------- #
# committed snapshots


def make_snapshot(
    metrics: dict[str, dict],
    label: str,
    tolerance: float = DEFAULT_TOLERANCE,
    created: str | None = None,
) -> dict:
    """Assemble a snapshot document from metric entries."""
    if created is None:
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        "label": label,
        "created": created,
        "tolerance": float(tolerance),
        "metrics": dict(metrics),
    }


def save_snapshot(path: str | Path, snapshot: dict) -> None:
    """Write a snapshot document as pretty-printed JSON."""
    Path(path).write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")


def load_snapshot(path: str | Path) -> dict:
    """Read one committed snapshot."""
    return load_recorded(path)


def snapshot_paths(directory: str | Path = ".") -> list[Path]:
    """Every committed ``BENCH_NNNN.json`` under ``directory``, in order."""
    directory = Path(directory)
    found = [
        (int(m.group(1)), path)
        for path in directory.glob("BENCH_*.json")
        if (m := SNAPSHOT_PATTERN.match(path.name))
    ]
    return [path for _, path in sorted(found)]


def latest_snapshot(directory: str | Path = ".") -> tuple[Path, dict] | None:
    """The newest committed snapshot (path, document), or None."""
    paths = snapshot_paths(directory)
    if not paths:
        return None
    return paths[-1], load_snapshot(paths[-1])


def next_snapshot_path(directory: str | Path = ".") -> Path:
    """The path the next numbered snapshot should be written to."""
    paths = snapshot_paths(directory)
    number = 1
    if paths:
        number = int(SNAPSHOT_PATTERN.match(paths[-1].name).group(1)) + 1
    return Path(directory) / f"BENCH_{number:04d}.json"


# --------------------------------------------------------------------- #
# the regression gate


@dataclass
class TrajectoryReport:
    """Outcome of comparing current metrics against a committed snapshot."""

    baseline_label: str
    #: (name, current, baseline, bound) for gated metrics outside tolerance
    regressions: list[tuple[str, float, float, float]] = field(default_factory=list)
    #: (name, current, baseline) for gated metrics inside tolerance
    passed: list[tuple[str, float, float]] = field(default_factory=list)
    #: (name, current) for ungated or baseline-missing metrics
    informational: list[tuple[str, float]] = field(default_factory=list)
    #: (name, baseline) for gated baseline metrics the current set lacks
    missing: list[tuple[str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether no gated metric regressed."""
        return not self.regressions

    def format(self) -> str:
        """Human-readable gate report."""
        lines = [f"perf trajectory vs. {self.baseline_label}:"]
        for name, current, baseline, bound in self.regressions:
            lines.append(
                f"  REGRESSION {name}: {current:g} vs. baseline {baseline:g} "
                f"(bound {bound:g})"
            )
        for name, current, baseline in self.passed:
            lines.append(f"  ok {name}: {current:g} (baseline {baseline:g})")
        for name, current in self.informational:
            lines.append(f"  info {name}: {current:g}")
        for name, baseline in self.missing:
            lines.append(f"  missing {name}: not measured (baseline {baseline:g})")
        if not self.regressions and not self.passed:
            lines.append("  (no gated metrics in common — nothing checked)")
        return "\n".join(lines)


def compare(
    current: dict[str, dict],
    baseline: dict,
    tolerance: float | None = None,
) -> TrajectoryReport:
    """Gate ``current`` metric entries against a ``baseline`` snapshot.

    A gated metric regresses when it falls outside the tolerance band around
    the baseline value — below ``baseline * (1 - tol)`` for
    higher-is-better metrics, above ``baseline * (1 + tol)`` otherwise.
    Tolerance resolution order: per-metric ``tolerance`` in the baseline
    entry, then the explicit ``tolerance`` argument, then the snapshot's
    document-level tolerance, then :data:`DEFAULT_TOLERANCE`.  Metrics
    marked ``gate: false`` (in either side) or absent from the baseline are
    reported as informational, never failed.  Gated baseline metrics absent
    from ``current`` are listed as missing, not failed: a run records only
    what it measured (CI records only the ``_quick`` variants), but a
    renamed or skipped benchmark must not leave the gate silently.
    """
    report = TrajectoryReport(baseline_label=baseline.get("label", "?"))
    base_metrics = baseline.get("metrics", {})
    doc_tolerance = tolerance if tolerance is not None else baseline.get(
        "tolerance", DEFAULT_TOLERANCE
    )
    for name in sorted(current):
        entry = current[name]
        value = float(entry["value"])
        base = base_metrics.get(name)
        gated = entry.get("gate", True) and (base or {}).get("gate", True)
        if base is None or not gated:
            report.informational.append((name, value))
            continue
        base_value = float(base["value"])
        tol = float(base.get("tolerance", doc_tolerance))
        if entry.get("higher_is_better", True):
            bound = base_value * (1.0 - tol)
            regressed = value < bound
        else:
            bound = base_value * (1.0 + tol)
            regressed = value > bound
        if regressed:
            report.regressions.append((name, value, base_value, bound))
        else:
            report.passed.append((name, value, base_value))
    report.missing = [
        (name, float(entry["value"]))
        for name, entry in sorted(base_metrics.items())
        if entry.get("gate", True) and name not in current
    ]
    return report
