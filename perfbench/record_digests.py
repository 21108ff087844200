"""Record the stdout digests of the extract jobs for the default seed.

    python3 perfbench/record_digests.py

Run it only at a commit whose outputs are trusted: the benchmark fails any
later extract job on seed 1 whose stdout differs from the recorded digest.
Every job is also spot-checked here before its digest is kept.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import lagrange_kit as lk
    import lagrange_kit.cli
    import workloads

    digests = []
    for job in workloads.make_jobs("extract", DEFAULT_SEED):
        output = workloads.run_job("extract", lk, job)
        ok, reason, _ = workloads.check_job("extract", lk, job, output)
        if not ok:
            raise SystemExit("job %d fails its spot check: %s" % (job.index, reason))
        digests.append(workloads.output_digest(output))
    path = HERE / "digests.json"
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n")
    print("recorded %d digests in %s" % (len(digests), path.name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
