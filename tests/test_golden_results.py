"""Golden-result regression suite for the store paths and simulator.

Pins every :class:`SimulationResult` counter *and* a SHA-256 digest of the
stored state (address, bursts, stored bits, lossy flag, degraded data) for
the 9-workload × {E2MC, TSLC-SIMP, TSLC-PRED, TSLC-OPT} × MAG {16, 32, 64}
grid — plus a lossless-scheme slice and the extended families (WEATHER,
DNNACT) × {E2MC, TSLC-OPT} — at a reduced input scale, against values
produced by the fully scalar reference pipeline (per-block stores,
per-access trace replay).  Both the scalar and the fully batched path
(vectorized size and decision kernels, batched reconstruction, replay
engine) must reproduce the checked-in fixture bit-exactly, so any drift in
either pipeline — or any divergence between them — fails loudly.

Regenerate the fixture (only when simulation semantics intentionally
change) with::

    PYTHONPATH=src python tests/test_golden_results.py

which reruns the scalar reference over the grid and rewrites
``tests/golden_results.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.spec import (
    BASELINE_SCHEME,
    LOSSLESS_SCHEMES,
    SCHEME_VARIANTS,
    Job,
)
from repro.campaign.worker import simulate_job
from repro.workloads.registry import EXTENDED_WORKLOAD_ORDER, PAPER_WORKLOAD_ORDER

FIXTURE_PATH = Path(__file__).parent / "golden_results.json"

#: reduced input scale: big enough that every workload exercises the lossy
#: path somewhere in the grid, small enough that the whole suite stays fast
SCALE = 1.0 / 2048.0
SEED = 2019

SCHEMES = (BASELINE_SCHEME, *SCHEME_VARIANTS)
MAGS = (16, 32, 64)
#: representative slice for the classic lossless schemes (BDI/FPC/CPACK/BPC):
#: one float-heavy, one integer-heavy and one mixed benchmark — full workload
#: coverage for them would double the suite for schemes whose size analysis
#: is already pinned exhaustively by tests/test_lossless_batch.py
LOSSLESS_WORKLOADS = ("BS", "NN", "SRAD1")
#: the extended families are pinned against the baseline and the strongest
#: TSLC variant — enough to catch drift in their data generation and in the
#: lossy path over their distributions without doubling the suite
EXTENDED_SCHEMES = (BASELINE_SCHEME, "TSLC-OPT")
GRID = [
    (workload, scheme, mag)
    for workload in PAPER_WORKLOAD_ORDER
    for scheme in SCHEMES
    for mag in MAGS
] + [
    (workload, scheme, mag)
    for workload in LOSSLESS_WORKLOADS
    for scheme in LOSSLESS_SCHEMES
    for mag in MAGS
] + [
    (workload, scheme, mag)
    for workload in EXTENDED_WORKLOAD_ORDER
    for scheme in EXTENDED_SCHEMES
    for mag in MAGS
]


def cell_key(workload: str, scheme: str, mag: int) -> str:
    return f"{workload}/{scheme}/mag{mag}"


def cell_job(workload: str, scheme: str, mag: int) -> Job:
    # Fig. 9 semantics: the lossy threshold scales with the MAG (MAG/2).
    return Job(
        workload=workload,
        scheme=scheme,
        scale=SCALE,
        seed=SEED,
        compute_error=False,
        mag_bytes=mag,
        lossy_threshold_bytes=mag // 2,
    )


def run_cell(workload: str, scheme: str, mag: int, scalar: bool) -> dict:
    """One grid cell through the scalar reference or the batched pipeline."""
    return simulate_job(
        cell_job(workload, scheme, mag),
        batch_store=not scalar,
        replay_mode="scalar" if scalar else "vectorized",
        payload_digest=True,
    ).to_dict()


@pytest.fixture(scope="module")
def golden() -> dict:
    if not FIXTURE_PATH.exists():  # pragma: no cover - developer guidance
        pytest.fail(
            "tests/golden_results.json is missing; regenerate it with "
            "`PYTHONPATH=src python tests/test_golden_results.py`"
        )
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_matches_grid(golden):
    """The fixture covers exactly the declared grid at the declared scale."""
    assert golden["scale"] == SCALE
    assert golden["seed"] == SEED
    assert sorted(golden["cells"]) == sorted(cell_key(*cell) for cell in GRID)


def test_fixture_exercises_lossy_path(golden):
    """The grid would be meaningless if no cell ever truncated a symbol."""
    lossy = {
        key: cell["lossy_blocks"]
        for key, cell in golden["cells"].items()
        if "TSLC" in key
    }
    assert sum(lossy.values()) > 0
    # every TSLC variant truncates somewhere in the grid
    for scheme in SCHEME_VARIANTS:
        assert any(count for key, count in lossy.items() if scheme in key), scheme


@pytest.mark.parametrize(
    ("workload", "scheme", "mag"),
    GRID,
    ids=[cell_key(*cell) for cell in GRID],
)
def test_golden_cell(golden, workload, scheme, mag):
    """Scalar and batched pipelines both reproduce the fixture bit-exactly."""
    expected = golden["cells"][cell_key(workload, scheme, mag)]
    batched = run_cell(workload, scheme, mag, scalar=False)
    assert batched == expected, "batched pipeline diverged from golden fixture"
    scalar = run_cell(workload, scheme, mag, scalar=True)
    assert scalar == expected, "scalar reference diverged from golden fixture"


def regenerate() -> None:  # pragma: no cover - manual fixture refresh
    cells = {}
    for index, (workload, scheme, mag) in enumerate(GRID, 1):
        key = cell_key(workload, scheme, mag)
        cells[key] = run_cell(workload, scheme, mag, scalar=True)
        print(
            f"[{index:>3}/{len(GRID)}] {key:<22} "
            f"stored={cells[key]['stored_blocks']:>5} "
            f"lossy={cells[key]['lossy_blocks']:>5}"
        )
    payload = {"scale": SCALE, "seed": SEED, "cells": cells}
    FIXTURE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    lossy_total = sum(c["lossy_blocks"] for k, c in cells.items() if "TSLC" in k)
    print(f"wrote {FIXTURE_PATH} ({len(cells)} cells, {lossy_total} lossy blocks)")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
