"""Tests for the JSONL result store (order, compaction, torn writes) and its CLI."""

from __future__ import annotations

import pytest

from repro.campaign import Job, JobRecord, ResultStore, simulate_job
from repro.campaign.cli import main as cli_main

TINY = 1.0 / 1024.0


@pytest.fixture(scope="module")
def sample_record():
    """One real simulated record, shared by every store test in the module."""
    job = Job(workload="NN", scheme="E2MC", scale=TINY, compute_error=False)
    return JobRecord(job=job, status="ok", result=simulate_job(job), elapsed_s=0.25)


def _error_record(seed: int = 7) -> JobRecord:
    job = Job(workload="BS", scheme="TSLC-OPT", scale=TINY, seed=seed)
    return JobRecord(job=job, status="error", error="boom")


# --------------------------------------------------------------------- #
# record order: last write wins, first insertion keeps its place


def _hashes(store: ResultStore) -> list[str]:
    return [record.job.content_hash for record in store.records()]


def test_jsonl_last_write_wins_and_insertion_order(tmp_path, sample_record):
    """records(), campaign export and campaign diff rely on this order."""
    store = ResultStore(tmp_path / "camp")
    first_error = _error_record()
    store.put(first_error)
    store.put(sample_record)
    # overwrite the first record: position is preserved, content replaced
    retried = JobRecord(job=first_error.job, status="ok", result=sample_record.result)
    store.put(retried)
    order = [first_error.job.content_hash, sample_record.job.content_hash]
    assert len(store) == 2
    assert _hashes(store) == order
    assert store.records()[0].ok

    reopened = ResultStore(tmp_path / "camp")
    assert _hashes(reopened) == order and reopened.records()[0].ok
    assert reopened.compact() == (2, 1)
    compacted = ResultStore(tmp_path / "camp")
    assert _hashes(compacted) == order and compacted.records()[0].ok


# --------------------------------------------------------------------- #
# compaction


def test_jsonl_compact_drops_stale_lines(tmp_path, sample_record):
    store = ResultStore(tmp_path)
    store.put(_error_record())
    store.put(sample_record)
    # re-put the same hash three times: the file grows, the index doesn't
    for _ in range(3):
        store.put(sample_record)
    assert len(store) == 2
    assert sum(1 for _ in store.results_path.open()) == 5

    kept, dropped = store.compact()
    assert (kept, dropped) == (2, 3)
    assert sum(1 for _ in store.results_path.open()) == 2

    reloaded = ResultStore(tmp_path)
    assert len(reloaded) == 2
    assert reloaded.get(sample_record.job.content_hash).result == sample_record.result


def test_jsonl_compact_is_idempotent_and_preserves_index(tmp_path, sample_record):
    store = ResultStore(tmp_path)
    store.put(sample_record)
    before = {r.job.content_hash: r.to_dict() for r in store.records()}
    assert store.compact() == (1, 0)
    assert store.compact() == (1, 0)
    after = {r.job.content_hash: r.to_dict() for r in ResultStore(tmp_path).records()}
    assert before == after


def test_cli_compact(tmp_path, capsys, sample_record):
    store = ResultStore(tmp_path)
    store.put(sample_record)
    store.put(sample_record)
    assert cli_main(["campaign", "compact", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "kept 1 records" in out and "dropped 1" in out


# --------------------------------------------------------------------- #
# campaign diff


def _populated_store(path, records) -> ResultStore:
    store = ResultStore(path)
    for record in records:
        store.put(record)
    return store


def test_cli_diff_and_compact_refuse_missing_stores(tmp_path, capsys, sample_record):
    """A typo'd path must not become an empty store and a vacuous verdict."""
    _populated_store(tmp_path / "real", [sample_record])
    missing = tmp_path / "no-such-store"
    code = cli_main(["campaign", "diff", str(tmp_path / "real"), str(missing)])
    assert code == 2
    assert "result store at" in capsys.readouterr().err
    assert not missing.exists()  # nothing was created as a side effect
    assert cli_main(["campaign", "compact", "--dir", str(missing)]) == 2
    assert "result store at" in capsys.readouterr().err
    assert not missing.exists()


def test_cli_diff_identical_stores_exit_zero(tmp_path, capsys, sample_record):
    _populated_store(tmp_path / "a", [sample_record])
    _populated_store(tmp_path / "b", [sample_record])
    code = cli_main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")])
    assert code == 0
    assert "1 common cells — 0 changed, 0 only in A, 0 only in B" in capsys.readouterr().out


def test_cli_diff_detects_missing_and_changed(tmp_path, capsys, sample_record):
    changed = JobRecord(
        job=sample_record.job,
        status="ok",
        result=sample_record.result.__class__.from_dict(
            {**sample_record.result.to_dict(), "total_bursts": 123456}
        ),
    )
    extra = _error_record()
    _populated_store(tmp_path / "a", [sample_record, extra])
    _populated_store(tmp_path / "b", [changed])
    code = cli_main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert code == 1
    assert "only in" in out
    assert "changed" in out and "total_bursts" in out


def test_cli_diff_detects_fidelity_drift(tmp_path, capsys, sample_record):
    """Two records equal but for a fidelity metric's last bits differ."""
    result = sample_record.result.to_dict()
    panel = {"fidelity_pearson": 0.9991290038006524, "fidelity_ks": 0.01}

    def record(**extra) -> JobRecord:
        extra_metrics = {**result["extra_metrics"], **panel, **extra}
        return JobRecord(
            job=sample_record.job,
            status="ok",
            result=sample_record.result.__class__.from_dict(
                {**result, "extra_metrics": extra_metrics}
            ),
        )

    _populated_store(tmp_path / "a", [record()])
    _populated_store(tmp_path / "b", [record(fidelity_pearson=0.9991290038006523)])
    _populated_store(tmp_path / "c", [record()])
    code = cli_main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert code == 1
    assert "fidelity_pearson" in out and "1 changed" in out
    assert "fidelity_ks" not in out
    assert cli_main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "c")]) == 0
    capsys.readouterr()
    # a fidelity metric on one side only is drift too
    _populated_store(tmp_path / "d", [record(fidelity_iqr_max=0.5)])
    assert cli_main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "d")]) == 1
    assert "fidelity_iqr_max" in capsys.readouterr().out


def _changed_record(sample_record, **fields) -> JobRecord:
    """``sample_record`` with some result fields (or extra metrics) replaced."""
    result = sample_record.result.to_dict()
    extra = {**result["extra_metrics"], **fields.pop("extra_metrics", {})}
    return JobRecord(
        job=sample_record.job,
        status="ok",
        result=sample_record.result.__class__.from_dict(
            {**result, **fields, "extra_metrics": extra}
        ),
    )


@pytest.mark.parametrize("fields, label", [
    ({"mdc_hit_rate": 0.5}, "mdc_hit_rate"),
    ({"exposed_latency_s": 1e-3}, "exposed_latency_s"),
    ({"compute_ops": 12345.0}, "compute_ops"),
    ({"extra_metrics": {"stored_bits": 7}}, "stored_bits"),
    ({"extra_metrics": {"mdc_extra_bursts": 9}}, "mdc_extra_bursts"),
], ids=["mdc_hit_rate", "exposed_latency_s", "compute_ops", "stored_bits",
        "mdc_extra_bursts"])
def test_cli_diff_compares_every_result_field_and_extra_metric(
    tmp_path, capsys, sample_record, fields, label
):
    """Two records that differ in one field or extra metric alone drift."""
    changed = _changed_record(sample_record, **fields)
    assert changed.result != sample_record.result
    _populated_store(tmp_path / "a", [sample_record])
    _populated_store(tmp_path / "b", [changed])
    code = cli_main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert code == 1
    assert f"changed {sample_record.job.label()}: {label}\n" in out


def test_cli_diff_ignores_a_payload_digest_one_record_lacks(tmp_path, capsys, sample_record):
    """Only runs that ask for it carry the payload digest: one record with
    it and one without are not drift, two different digests are."""
    digest = "0" * 64
    _populated_store(tmp_path / "a", [sample_record])
    _populated_store(tmp_path / "b", [
        _changed_record(sample_record, extra_metrics={"payload_sha256": digest})
    ])
    _populated_store(tmp_path / "c", [
        _changed_record(sample_record, extra_metrics={"payload_sha256": "1" * 64})
    ])
    assert cli_main(["campaign", "diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert cli_main(["campaign", "diff", str(tmp_path / "b"), str(tmp_path / "c")]) == 1
    assert "payload_sha256" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# a bad --dir is refused: exit 2, one error line naming it, nothing created

#: commands that open a store from a path: the argv (``{dir}`` stands for
#: the path) and whether a missing path is refused instead of created
STORE_COMMANDS = {
    "campaign-run": (
        ["campaign", "run", "--dir", "{dir}", "--workloads", "NN",
         "--schemes", "E2MC", "--scale", str(TINY), "--no-error", "--quiet"],
        False,
    ),
    "campaign-status": (["campaign", "status", "--dir", "{dir}"], True),
    "campaign-export": (["campaign", "export", "--dir", "{dir}", "--csv", "-"], True),
    "campaign-diff": (["campaign", "diff", "{dir}", "{dir}"], True),
    "campaign-compact": (["campaign", "compact", "--dir", "{dir}"], True),
    "study-run": (
        ["study", "run", "fig7", "--dir", "{dir}", "--set", "workloads=NN",
         "--set", f"scale={TINY}", "--quiet"],
        False,
    ),
}


@pytest.fixture(params=STORE_COMMANDS.values(), ids=STORE_COMMANDS.keys())
def store_command(request: pytest.FixtureRequest) -> tuple[list[str], bool]:
    return request.param


def test_cli_refuses_bad_dir(store_command, tmp_path, capsys):
    argv, refuses_missing = store_command
    regular_file = tmp_path / "camp.sqlite"  # e.g. a former SQLite store path
    regular_file.write_bytes(b"SQLite format 3\x00")
    old_store = tmp_path / "old"  # a directory the SQLite backend wrote
    old_store.mkdir()
    (old_store / "results.sqlite").write_bytes(b"SQLite format 3\x00")
    bad_paths = [regular_file, regular_file / "sub", old_store]
    if refuses_missing:
        bad_paths.append(tmp_path / "no-such-dir")
    for path in bad_paths:
        before = sorted(tmp_path.rglob("*"))
        code = cli_main([arg.replace("{dir}", str(path)) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2, path
        assert "Traceback" not in captured.err
        errors = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0], captured.err
        assert sorted(tmp_path.rglob("*")) == before  # nothing was created
        assert regular_file.read_bytes() == b"SQLite format 3\x00"


def test_progress_reporter_reports_cache_hits_and_wall_time():
    import io

    from repro.campaign.cli import ProgressReporter

    clock_values = iter([0.0, 10.0, 20.0, 30.0])
    stream = io.StringIO()
    reporter = ProgressReporter(workers=1, stream=stream, clock=lambda: next(clock_values))
    job = Job(workload="NN", scheme="E2MC", compute_error=False)
    reporter(JobRecord(job=job, status="ok", cached=True), 1, 3)
    reporter(JobRecord(job=job, status="ok", elapsed_s=4.0), 2, 3)
    lines = stream.getvalue().splitlines()
    assert "1 cached" in lines[0] and "10s elapsed" in lines[0]
    assert "ETA" not in lines[0]
    assert "avg 4.00s/job" in lines[1] and "ETA 4s" in lines[1]
    assert "1 cached" in lines[1] and "20s elapsed" in lines[1]
    assert reporter.n_cached == 1


# --------------------------------------------------------------------- #
# JSONL torn-write tolerance (a worker killed mid-append)


def test_jsonl_tolerates_truncated_final_line(tmp_path, caplog, monkeypatch):
    import logging

    # setup_logging() (run by any earlier CLI test) disables propagation on
    # the repro logger; caplog needs it back on to observe the warning
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    store = ResultStore(tmp_path / "camp")
    store.put(_error_record(1))
    store.put(_error_record(2))
    text = store.results_path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    # tear the final line in half and drop its newline: the signature a
    # SIGKILLed writer leaves behind
    store.results_path.write_text(
        lines[0] + lines[1][: len(lines[1]) // 2], encoding="utf-8")

    with caplog.at_level(logging.WARNING, logger="repro.campaign.store"):
        reopened = ResultStore(tmp_path / "camp")
    assert len(reopened) == 1  # the torn record is a casualty, not a crash
    assert reopened.corrupt_lines == 1
    assert any("truncated write" in message for message in caplog.messages)

    # the next put heals the tail: it must not glue onto the partial line
    reopened.put(_error_record(3))
    again = ResultStore(tmp_path / "camp")
    assert len(again) == 2
    assert again.corrupt_lines == 1  # the torn line is still on disk

    # compact drops the partial line for good
    kept, _ = again.compact()
    assert kept == 2
    final = ResultStore(tmp_path / "camp")
    assert len(final) == 2 and final.corrupt_lines == 0


def test_jsonl_truncate_store_write_fault(tmp_path):
    from repro.campaign import faults

    store = ResultStore(tmp_path / "camp")
    store.put(_error_record(1))
    faults.activate(f"{faults.TRUNCATE_STORE_WRITE}:1")
    try:
        store.put(_error_record(2))  # dies mid-append: half a line, no index
    finally:
        faults.activate("")
    assert len(store) == 1  # the lost record is not pretended into the index
    reopened = ResultStore(tmp_path / "camp")
    assert len(reopened) == 1 and reopened.corrupt_lines == 1
    # both the faulted store object and a reopened one heal on the next put
    store.put(_error_record(3))
    assert len(ResultStore(tmp_path / "camp")) == 2


def test_cli_diff_allow_missing_subset(tmp_path, capsys, sample_record):
    """--allow-missing: a worker-local store holding a strict subset of the
    coordinator's cells is drift-free as long as shared cells agree."""
    full = [sample_record, _error_record()]
    _populated_store(tmp_path / "coordinator", full)
    _populated_store(tmp_path / "worker", [sample_record])
    strict = cli_main(["campaign", "diff",
                       str(tmp_path / "worker"), str(tmp_path / "coordinator")])
    assert strict == 1  # the missing cell is drift in strict mode
    relaxed = cli_main(["campaign", "diff", "--allow-missing",
                        str(tmp_path / "worker"), str(tmp_path / "coordinator")])
    assert relaxed == 0
    capsys.readouterr()
