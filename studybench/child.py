"""One cold run of a benchmark workload, in a fresh interpreter.

``run.py`` launches this script once per repetition, each time with an empty
result store, so no run can serve another's cells.  It times the set-up
(interpreter launch to the first job submitted: imports, study construction,
grid expansion, opening the store) and the study (first job submitted to the
aggregated result), reads every record back from the store and writes a
JSON summary: per-job result digests, elapsed times and invariant
violations, the modelled GPU's headline numbers and, with ``--trace``, the
per-layer metrics of the :mod:`layers` wrappers::

    python3 studybench/child.py --workload fig7 --seed 2019 \\
        --store .studybench/store --out .studybench/summary.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="One cold run of a studybench workload.")
    parser.add_argument("--workload", required=True, help="a workload of workloads.json")
    parser.add_argument("--seed", type=int, required=True, help="workload seed of every job")
    parser.add_argument("--store", required=True, help="result store directory, empty")
    parser.add_argument("--out", required=True, help="where to write the JSON summary")
    parser.add_argument("--launch", type=float, default=None,
                        help="time.monotonic() just before this interpreter was launched")
    parser.add_argument("--trace", default=None, metavar="SPANS.json",
                        help="wrap the layers and write their spans to this file")
    return parser.parse_args(argv)


def result_digest(result) -> str:
    """A :class:`SimulationResult`'s ``to_dict()`` as canonical JSON, hashed."""
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def invariant_problems(job, result) -> list[str]:
    """What every correct result satisfies, whatever the seed."""
    from repro.campaign import BASELINE_SCHEME, LOSSLESS_SCHEMES

    checks = {
        "read + write bursts differ from total bursts":
            result.total_bursts == result.read_bursts + result.write_bursts,
        "lossy blocks outside [0, stored blocks]":
            0 <= result.lossy_blocks <= result.stored_blocks,
        "hit rate outside [0, 1]":
            0 <= result.l2_hit_rate <= 1 and 0 <= result.mdc_hit_rate <= 1,
        "execution time not positive":
            math.isfinite(result.exec_time_s) and result.exec_time_s > 0,
        "error_percent negative or not finite":
            math.isfinite(result.error_percent) and result.error_percent >= 0,
        "error_percent without an error phase":
            job.compute_error or result.error_percent == 0,
        "lossy blocks under a lossless scheme":
            job.scheme not in (BASELINE_SCHEME, *LOSSLESS_SCHEMES) or not result.lossy_blocks,
    }
    return [problem for problem, holds in checks.items() if not holds]


def job_row(job, record) -> dict:
    """One job's outcome, as the harness checks it."""
    if record is None:
        return {"label": job.label(), "status": "missing"}
    row = {"label": job.label(), "status": record.status, "elapsed_s": record.elapsed_s}
    if record.ok:
        row["digest"] = result_digest(record.result)
        row["problems"] = invariant_problems(job, record.result)
    else:
        row["error"] = (record.error or "").strip().splitlines()[-1:]
    return row


def model_outputs(jobs, records, default_mag: int) -> dict:
    """The modelled GPU's headline numbers.

    Per MAG, the geometric-mean TSLC-OPT speedup and normalized off-chip
    bandwidth over the E2MC baseline (over workloads with both cells), and
    the worst application error of any job.
    """
    from repro.campaign import BASELINE_SCHEME

    cells: dict = defaultdict(dict)
    worst_error = 0.0
    for job in jobs:
        record = records.get(job.content_hash)
        if record is not None and record.ok:
            cells[job.mag_bytes or default_mag, job.workload][job.scheme] = record.result
            worst_error = max(worst_error, record.result.error_percent)
    speedup: dict = defaultdict(list)
    bandwidth: dict = defaultdict(list)
    for (mag, _), results in cells.items():
        if BASELINE_SCHEME in results and "TSLC-OPT" in results:
            base, opt = results[BASELINE_SCHEME], results["TSLC-OPT"]
            speedup[mag].append(opt.speedup_over(base))
            bandwidth[mag].append(opt.bandwidth_ratio_over(base))
    return {
        "gm_speedup": {str(m): statistics.geometric_mean(v) for m, v in speedup.items()},
        "gm_bandwidth": {str(m): statistics.geometric_mean(v) for m, v in bandwidth.items()},
        "worst_error_percent": worst_error,
    }


class LayerTotals:
    """Per-layer sums over a traced run's spans (see :mod:`layers`)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: the simulator's own metric counters (MDC paths, replayed accesses)
        self.counters: dict[str, int] = defaultdict(int)
        self.inputs: set[str] = set()
        self.regions = [0, 0]  # fidelity regions compared, unchanged
        self.blocks = 0
        self.replay_s = 0.0
        self.job_s = 0.0
        self.job_self_s = 0.0
        self.timeline: list[dict] = []

    def add_record(self, record) -> None:
        """A job's spans and counts, as its record carries them."""
        bench = record.metrics[layers.RECORD_KEY]
        for name, value in bench["counts"].items():
            self.counts[name] += value
        for name, value in (record.metrics.get("counters") or {}).items():
            self.counters[name] += value
        spans = bench["spans"]
        self.job_s += spans[0][2] - spans[0][1]
        self.add(spans, job=record.job.label(), pid=bench["pid"], in_job=True)

    def add(self, spans: list[list], job: str | None, pid: int, in_job: bool) -> None:
        base = len(self.timeline)
        for span, own in zip(spans, layers.self_times(spans)):
            name, start, end, parent, info = span
            self.self_s[name] += own
            if in_job:
                self.job_self_s += own
            if parent < 0 or spans[parent][0] != name:
                self.calls[name] += 1
                if name == "workloads.generate":
                    self.inputs.add(info)
                elif name == "compression.store_batch":
                    self.blocks += info
                elif name == "replay.replay":
                    self.replay_s += end - start
                elif name == "metrics.fidelity":
                    self.regions[0] += info[0]
                    self.regions[1] += info[1]
            self.timeline.append({
                "name": name, "start": start, "end": end,
                "parent": None if parent < 0 else base + parent,
                "job": job, "pid": pid, "info": info,
            })

    def metrics(self) -> dict[str, float]:
        s, calls, counts, counters = self.self_s, self.calls, self.counts, self.counters
        mdc_replays = counters["mdc.fallback"] + counters["mdc.fast_path"]
        accesses = counters["replay.accesses"]
        compared, unchanged = self.regions
        return {
            "workloads.generate_s": s["workloads.generate"],
            "workloads.generate_calls": calls["workloads.generate"],
            "workloads.input_reuse": calls["workloads.generate"] / max(1, len(self.inputs)),
            "compression.train_s": s["compression.train"],
            "compression.train_calls": calls["compression.train"],
            "workloads.run_s": s["workloads.run"],
            "workloads.run_calls": calls["workloads.run"],
            "workloads.error_s": s["workloads.error"],
            "workloads.trace_s": s["workloads.trace"],
            "metrics.fidelity_s": s["metrics.fidelity"],
            "metrics.ks_s": s["metrics.ks"],
            "metrics.unchanged_region_frac": unchanged / compared if compared else 0.0,
            "utils.array_to_blocks_s": s["utils.array_to_blocks"],
            "utils.blocks_to_array_s": s["utils.blocks_to_array"],
            "gpu.simulator_self_s": s["gpu.simulator"],
            "gpu.record_stored_calls": counts["gpu.record_stored"],
            "gpu.stored_data_calls": counts["gpu.stored_data"],
            "gpu.mdc_update_calls": counts["gpu.mdc_update"],
            "compression.store_batch_s": s["compression.store_batch"],
            "compression.store_batch_blocks": self.blocks,
            "replay.replay_s": s["replay.replay"],
            "replay.accesses": accesses,
            "replay.us_per_access": 1e6 * self.replay_s / accesses if accesses else 0.0,
            "replay.mdc_exact_frac": counters["mdc.fallback"] / mdc_replays if mdc_replays else 0.0,
            "kernels.lossless_s": s["kernels.lossless"],
            "kernels.decode_calls": counts["kernels.decode"],
            "campaign.store_put_s": s["campaign.store_put"],
            "studies.aggregate_s": s["studies.aggregate"],
            "obs.traced_job_s": self.job_s,
            "other_s": s["job"],
        }

    def detail(self) -> dict:
        """The counts behind the ratios, for the report."""
        return {
            "mdc_exact": self.counters["mdc.fallback"],
            "mdc_replays": self.counters["mdc.fallback"] + self.counters["mdc.fast_path"],
            "regions_compared": self.regions[0],
            "regions_unchanged": self.regions[1],
            "distinct_inputs": len(self.inputs),
            "accounting_residual_s": self.job_s - self.job_self_s,
        }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    launch = time.monotonic() if args.launch is None else args.launch
    definition = json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]
    if args.trace:
        layers.install()
        from repro.obs import metrics

        # the simulator's own MDC-path and replay counters ride on each record
        metrics.enable()

    import numpy
    import repro
    from repro.campaign import CampaignSpec, ResultStore, run_campaign
    from repro.gpu.config import GPUConfig
    from repro.studies import study_class

    grid, workers = definition["grid"], definition["workers"]
    store = ResultStore(args.store)
    failure = None
    n_cached = 0
    if "study" in grid:
        study = study_class(grid["study"])(**grid["params"], seed=args.seed)
        jobs = study.jobs()
        submitted = time.monotonic()
        try:
            n_cached = study.run(store=store, workers=workers).meta.get("n_cached", 0)
        except RuntimeError as exc:  # failed jobs; their error records are in the store
            failure = str(exc).splitlines()[0]
    else:
        axes = {key: tuple(value) if isinstance(value, list) else value
                for key, value in grid["campaign"].items()}
        spec = CampaignSpec(name=args.workload, seeds=(args.seed,), **axes)
        jobs = spec.expand()
        submitted = time.monotonic()
        n_cached = run_campaign(spec, store=store, workers=workers).n_cached
    done = time.monotonic()

    records = {record.job.content_hash: record for record in store.records()}
    unique = list({job.content_hash: job for job in jobs}.values())
    summary = {
        "setup_s": submitted - launch,
        "study_s": done - submitted,
        "n_jobs": len(unique),
        "n_cached": n_cached,
        "failure": failure,
        "jobs": [job_row(job, records.get(job.content_hash)) for job in unique],
        "model": model_outputs(unique, records, GPUConfig().mag_bytes),
        "versions": {"numpy": numpy.__version__, "repro": repro.__version__},
    }
    if args.trace:
        totals = LayerTotals()
        for record in records.values():
            if layers.RECORD_KEY in record.metrics:
                totals.add_record(record)
        totals.add(layers.TRACER.spans, job=None, pid=os.getpid(), in_job=False)
        summary["layers"] = totals.metrics()
        summary["layer_detail"] = totals.detail()
        Path(args.trace).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": totals.timeline}
        ))
    Path(args.out).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
