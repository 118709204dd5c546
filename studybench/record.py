"""Record every job's expected result digest in ``expected.json``.

Runs each workload of ``workloads.json`` once per recorded seed (the default
seed, and one held out so a claim tuned on the default can be re-checked)
and stores the per-job digests ``run.py`` compares against.  Re-record only
for a change that is meant to alter simulated results::

    python3 studybench/record.py
"""

from __future__ import annotations

import json
import time

from run import DEFAULT_SEED, HERE, run_child

#: the default seed and the held-out one
SEEDS = (DEFAULT_SEED, 7331)


def main() -> int:
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    digests: dict = {}
    for name in workloads:
        for seed in SEEDS:
            summary = run_child(name, seed, time.monotonic() + 900)
            bad = [job["label"] for job in summary["jobs"]
                   if job["status"] != "ok" or job["problems"]]
            if bad:
                raise SystemExit(f"{name} seed {seed}: not recording failed jobs {bad}")
            digests.setdefault(name, {})[str(seed)] = {
                job["label"]: job["digest"] for job in summary["jobs"]
            }
            print(f"{name} seed {seed}: {len(summary['jobs'])} digests")
    document = {"seeds": list(SEEDS), "digests": digests}
    (HERE / "expected.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
