"""Study benchmark: cold end-to-end runs of three paper studies, layer by layer.

Run from the repository root; it needs Python 3.10+ and numpy::

    python3 studybench/run.py --workload fig7 --seed 2019 --seconds 60 --trace 0
    python3 studybench/run.py --workload all

``BENCHMARK.json`` gates ``fig7`` and ``tournament``; ``trace-heavy`` runs
the same way but is left out of it, because its cold runs drift with the
host's CPU speed by more than a bound allows (see ``workloads.json``).

Both modes start with an untimed warm-up that byte-compiles the sources and
imports them once.  ``--trace 0`` then repeats cold runs for about
``--seconds`` (each a fresh interpreter with an empty result store, see
``child.py``) and reports the median of every end-to-end metric.
``--trace 1`` makes one untraced and one traced cold run and reports the
per-layer metrics.  A run of a single-process workload is moved from CPU to
CPU while it lasts (see ``_wait``).
``--workload all`` does both for every workload.  Every run checks the
simulated results: per-job digests against ``expected.json`` where it
records the seed, invariants of every result, and agreement between runs of
one seed.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``BENCHMARK.json``
lists the metrics; ``workloads.json`` defines the workloads and says why
each exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: run artefacts: result stores while a run lasts, then summaries and spans
WORK = ROOT / ".studybench"

DEFAULT_SEED = 2019
#: one invocation must end within 180 s; this leaves room for the report
RUN_BUDGET_S = 165.0
#: cold runs a timed measurement makes at least, however long each one is
MIN_REPEATS = 3
#: how often a run is polled and a single-process run moves to the next CPU
SLICE_S = 0.1
#: the warm-up: byte-compile every source and import what a run imports
WARM_UP = ("import compileall, sys; compileall.compile_dir('src', quiet=1); "
           "sys.path[:0] = ['src', 'studybench']; import layers; layers.install()")

MODEL_NOTE = ("simulated GPU, unvalidated: the repository holds no hardware "
              "reference measurements, so no accuracy figure is given")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Cold end-to-end study benchmark with per-layer attribution.")
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.json, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed forwarded to every job")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="how long the timed cold runs of --trace 0 last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    return parser.parse_args(argv)


def _wait(proc: subprocess.Popen, deadline: float, rotate: bool = False) -> tuple[int, object]:
    """Reap ``proc`` with ``wait4``, whose rusage covers every worker it reaped.

    With ``rotate`` the child moves to the next CPU every SLICE_S.  The CPUs
    of a shared host can differ in speed by a third, and which is faster
    changes within seconds, so a single process left where it started
    measures one CPU, while one that visits them all measures their mean,
    as a pool that keeps every CPU busy does.  Only this loop reaps the
    child, so its pid cannot name another process while the loop moves it.

    The child's whole process group is killed at the deadline, and again
    once the child has exited, so no worker outlives the run.
    """
    cpus = sorted(os.sched_getaffinity(0)) if rotate else []

    def kill() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    try:
        turn = 0
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            if len(cpus) > 1:
                turn += 1
                try:
                    os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
                except ProcessLookupError:  # exiting; reaped on the next poll
                    pass
            time.sleep(SLICE_S)
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        kill()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_child(workload: str, seed: int, deadline: float, spans: Path | None = None,
              rotate: bool = False) -> dict:
    """One cold run in a fresh interpreter with an empty result store.

    Returns the child's summary plus ``cpu_s`` (user and system time of the
    child and of the pool workers it reaped) and ``peak_rss_mib`` (the
    largest resident set among them), both taken from ``wait4``.  ``rotate``
    moves the child from CPU to CPU while it runs (see ``_wait``).
    """
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        out, log = scratch / "summary.json", scratch / "child.log"
        command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
                   "--seed", str(seed), "--store", str(scratch / "store"), "--out", str(out)]
        if spans is not None:
            command += ["--trace", str(spans)]
        with log.open("wb") as handle:
            launch = time.monotonic()
            proc = subprocess.Popen(
                [*command, "--launch", repr(launch)], cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=handle, stderr=subprocess.STDOUT, start_new_session=True,
            )
            status, usage = _wait(proc, deadline, rotate)
        if status != 0 or not out.is_file():
            tail = log.read_text(errors="replace").strip().splitlines()[-20:]
            raise RuntimeError(
                f"{workload} run (seed {seed}) exited with status {status}:\n" + "\n".join(tail)
            )
        summary = json.loads(out.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary["cpu_s"] = usage.ru_utime + usage.ru_stime
    summary["peak_rss_mib"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return summary


def warm_up(deadline: float) -> None:
    """Byte-compile and import once, untimed, in an interpreter of its own.

    Users pay that once per install, not on every study.  It is far cheaper
    than a cold run, which leaves the timed runs more of ``--seconds``.
    """
    proc = subprocess.Popen([sys.executable, "-c", WARM_UP], cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    status, _ = _wait(proc, deadline)
    if status != 0:
        raise RuntimeError(f"the warm-up exited with status {status}")


def timed_runs(workload: str, seed: int, seconds: float, deadline: float,
               rotate: bool) -> list[dict]:
    """Cold runs for about ``seconds``: at least MIN_REPEATS while the deadline allows."""
    start = time.monotonic()
    runs: list[dict] = []
    while True:
        runs.append(run_child(workload, seed, deadline, rotate=rotate))
        elapsed = time.monotonic() - start
        per_run = elapsed / len(runs)
        if len(runs) >= MIN_REPEATS and elapsed + per_run > seconds:
            return runs
        if time.monotonic() + per_run > deadline:
            return runs


def check(runs: list[dict], definition: dict, recorded: dict | None) -> tuple[int, int, list[str]]:
    """Jobs attempted and failed over ``runs``, and what went wrong.

    A job fails when it raised or is missing, breaks an invariant, differs
    from the digest recorded for this seed, or differs between runs of the
    seed.  Every run must also be cold and expand to the expected grid.
    """
    attempted = failed = 0
    notes: list[str] = []
    first: dict[str, str | None] = {}
    for run in runs:
        if run["n_jobs"] != definition["jobs"]:
            notes.append(f"expected {definition['jobs']} jobs, the grid has {run['n_jobs']}")
        if run["n_cached"]:
            notes.append(f"{run['n_cached']} cells came from the result store; runs must be cold")
        if run["failure"]:
            notes.append(run["failure"])
        for job in run["jobs"]:
            attempted += 1
            label, digest = job["label"], job.get("digest")
            if job["status"] != "ok":
                why = f"{job['status']} {' '.join(job.get('error', []))}".strip()
            elif job["problems"]:
                why = "; ".join(job["problems"])
            elif recorded is not None and recorded.get(label) != digest:
                why = "result digest differs from the recorded one"
            elif first.setdefault(label, digest) != digest:
                why = "result digest differs between runs of one seed"
            else:
                continue
            failed += 1
            notes.append(f"{label}: {why}")
    return attempted, failed, notes


def campaign_metrics(run: dict, workers: int) -> tuple[dict[str, float], str]:
    """Job-time statistics from the records of an untraced run.

    The tail is the highest whole percentile with at least ten jobs beyond
    it; grids too small for one report the median.
    """
    times = sorted(job["elapsed_s"] for job in run["jobs"] if "elapsed_s" in job)
    pct = max(50, math.floor(100 * (1 - 10 / len(times))))
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return {
        "campaign.job_p50_s": statistics.median(times),
        "campaign.job_tail_s": tail,
        "campaign.worker_idle_frac": 1 - sum(times) / (workers * run["study_s"]),
    }, f"p{pct} of {len(times)} jobs"


def git_sha() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(definition: dict, versions: dict) -> dict:
    """What the numbers were measured on; seconds compare only between matching hosts."""
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": sources.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "workers": definition["workers"],
        "cpu_rotation_s": SLICE_S if definition["workers"] == 1 else None,
        "grid": definition["grid"],
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def print_model(model: dict) -> None:
    print(f"  model outputs ({MODEL_NOTE}):")
    for mag, speedup in model["gm_speedup"].items():
        print(f"    MAG {mag} B: TSLC-OPT vs E2MC GM speedup {speedup:.4f}x, "
              f"GM normalized bandwidth {model['gm_bandwidth'][mag]:.4f}")
    if not model["gm_speedup"]:
        print("    no E2MC baseline in this grid, so no speedup or normalized bandwidth")
    print(f"    worst error_percent {model['worst_error_percent']:.4f} %")


def measure(name: str, definition: dict, seed: int, seconds: float, trace: int,
            bench: dict, recorded: dict | None) -> dict:
    """One workload in one mode: the runs, their check and the report."""
    deadline = time.monotonic() + RUN_BUDGET_S
    rotate = definition["workers"] == 1
    warm_up(deadline)
    if trace:
        plain = run_child(name, seed, deadline, rotate=rotate)
        spans = WORK / f"spans-{name}-seed{seed}.json"
        traced = run_child(name, seed, deadline, spans=spans, rotate=rotate)
        runs = [plain, traced]
        values = dict(traced["layers"])
        campaign, tail = campaign_metrics(plain, definition["workers"])
        values.update(campaign)
        values["obs.trace_overhead_frac"] = traced["study_s"] / plain["study_s"] - 1
        catalogue = bench["per_layer"]
    else:
        runs = timed_runs(name, seed, seconds, deadline, rotate)
        catalogue = bench["end_to_end"]
        values = {entry["name"]: statistics.median(run[entry["name"]] for run in runs)
                  for entry in catalogue}
    attempted, failed, notes = check(runs, definition, recorded)
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
               for entry in catalogue}

    mode = "per layer: one untraced and one traced cold run" if trace else (
        f"tracing off: {len(runs)} cold runs, medians")
    print(f"== {name}  seed {seed}  {mode}")
    for metric, entry in metrics.items():
        spread = ""
        if not trace:
            low, high = min(r[metric] for r in runs), max(r[metric] for r in runs)
            spread = f"  (runs {low:.4f} .. {high:.4f})"
        print(f"  {metric:<32} {entry['value']:14.6f} {entry['unit']}{spread}")
    print(f"  {'job_fail_frac':<32} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} jobs)")
    if trace:
        detail = traced["layer_detail"]
        named = values["obs.traced_job_s"] - values["other_s"]
        print(f"  accounting: named layers {named:.4f} s + other_s {values['other_s']:.4f} s "
              f"= traced job seconds {values['obs.traced_job_s']:.4f} s "
              f"(residual {detail['accounting_residual_s']:.2e} s)")
        print(f"  campaign.job_tail_s is the {tail}; "
              f"replay.mdc_exact_frac is {detail['mdc_exact']}/{detail['mdc_replays']} MDC replays; "
              f"metrics.unchanged_region_frac is {detail['regions_unchanged']}/"
              f"{detail['regions_compared']} regions; "
              f"{detail['distinct_inputs']} distinct inputs; spans in {spans.relative_to(ROOT)}")
        counts = definition.get("counts", {})
        if seed == DEFAULT_SEED and counts:
            drift = {k: (values[k], v) for k, v in counts.items() if values[k] != v}
            print("  deterministic counts " + (
                "equal the recorded ones" if not drift else f"differ from the recorded ones: {drift}"))
    print_model(runs[0]["model"])
    if recorded is None:
        print(f"  output check: no digests recorded for seed {seed}; "
              "checked invariants and agreement between runs only")
    elif not failed:
        print(f"  output check: all {attempted} job results equal the digests "
              f"recorded for seed {seed}")
    for note in notes[:10]:
        print(f"  FAILED {note}")
    facts = provenance(definition, runs[0]["versions"])
    print(f"  provenance: {json.dumps(facts)}")

    result = {"correct": not notes, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(
        {**result, "notes": notes, "provenance": facts,
         "runs": [{k: v for k, v in run.items() if k != "jobs"} for run in runs]},
        indent=1,
    ) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"studybench: no repro sources under {ROOT / 'src'}; "
              "run it from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    expected = json.loads((HERE / "expected.json").read_text())["digests"]
    if args.workload != "all" and args.workload not in workloads:
        print(f"studybench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)} or all", file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            recorded = expected.get(name, {}).get(str(args.seed))
            for trace in modes:
                part = measure(name, workloads[name], args.seed, args.seconds, trace,
                               bench, recorded)
                total["correct"] = total["correct"] and part["correct"]
                total["attempted"] += part["attempted"]
                total["failed"] += part["failed"]
                prefix = f"{name}." if len(names) > 1 else ""
                total["metrics"].update(
                    {prefix + metric: value for metric, value in part["metrics"].items()})
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"studybench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
