"""Record the digest of every job's exact results in digests.json.

    python3 perfbench/record_digests.py

Runs every job once, untraced, the whole group_law pool included, and
writes nothing when a job raises or an oracle check fails.  Record again
only when the workload sizes change, or when a change to the library is
meant to change its exact results.
"""

import json
import sys

import workloads
from results import digest
from tracing import Tracer


def main() -> int:
    tracer = Tracer(workloads.LAYER_FUNCS, False)
    digests, problems = {}, []
    for workload in workloads.WORKLOADS:
        for job in workloads.all_jobs(workload):
            workloads.clear_caches()
            results = job.run(tracer)
            problems += [(job.key, layer, msg) for layer, msg in job.check(results)]
            digests[job.key] = digest(results)
    for key, layer, msg in problems:
        print(f"FAILED {key}: {layer}: {msg}", file=sys.stderr)
    if problems:
        return 1
    with open(workloads.DIGESTS_FILE, "w") as fh:
        json.dump({"sizes": workloads.SIZES, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
