"""The process-wide pin of numpy's BLAS to one thread (repro.utils.blas)."""

from __future__ import annotations

import logging
import sys
import threading
import time

import numpy as np
import pytest

from repro.metrics import fidelity
from repro.obs import metrics
from repro.utils import blas


@pytest.fixture
def metrics_on():
    metrics.clear()
    metrics.enable()
    yield
    metrics.disable()
    metrics.clear()


def _blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif("openblas" not in _blas_name(), reason="numpy is not on OpenBLAS")
def test_numpy_openblas_pins_once_and_counts_nothing(metrics_on):
    assert blas.pin_one_thread() is True
    assert blas.pin_one_thread() is True
    assert "blas.unpinned" not in metrics.snapshot()["counters"]


def test_an_unresolved_setter_warns_once_and_counts_every_request(
    monkeypatch, caplog, metrics_on
):
    monkeypatch.setattr(blas, "SETTER_NAMES", ("no_such_blas_set_num_threads",))
    monkeypatch.setattr(blas, "_pinned", None)
    # setup_logging() (run by any earlier CLI test) disables propagation on
    # the repro logger; caplog needs it back on to observe the warning
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(2, 20_001))
    with caplog.at_level(logging.WARNING, logger="repro.utils.blas"):
        assert blas.pin_one_thread() is False
        assert blas.pin_one_thread() is False
        # the sums of products still take the two-way split, unpinned
        split = fidelity._sum_of_products(x, y)
    assert split == (0.0 + float(np.dot(x[:10_001], y[:10_001]))) + float(
        np.dot(x[10_001:], y[10_001:])
    )
    assert len(caplog.records) == 1
    assert "cannot pin" in caplog.messages[0]
    assert metrics.snapshot()["counters"]["blas.unpinned"] == 3


def test_racing_threads_resolve_and_pin_once(monkeypatch):
    pinned_to = []

    def slow_setter():
        time.sleep(0.01)  # widens the window between the check and the pin
        return pinned_to.append

    monkeypatch.setattr(blas, "_setter", slow_setter)
    monkeypatch.setattr(blas, "_pinned", None)
    threads = [threading.Thread(target=blas.pin_one_thread) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert pinned_to == [1]
