"""lagrange-kit benchmark: one workload, one seed, one run length.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 20 --trace 0

Workloads: extract, verify, census (see perfbench/README.md).  Every run is
made in a fresh interpreter (perfbench/worker.py), which clears the caches
in ``trees`` between passes, so every pass starts cold.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the job list untraced for half the time, then traced for
the other half, and reports the per-layer metrics of the traced first pass.
Stdout ends with one JSON line; the full result, with the host it ran on, is
written to .bench_results/.  Results from different hosts are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("extract", "verify", "census")
SETUP_PROBES = 10
# a run must end within 180 s; a worker that outlives its budget is killed
# and the run fails without a result
MEASURED_BUDGET_S = 150.0
TRACED_BUDGET_S = 80.0
E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
             "job_tail_s": "s", "peak_rss_mb": "MB"}


def _worker(args, seconds, extra, timeout):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker exited with code %s" % proc.returncode)
    return json.loads(lines[-1])


def _per_job(run, column=1):
    """Each job's median calibrated time (column 2: raw time) over the
    passes of a run, which drops the spikes calibration does not see."""
    times = {}
    for sample in run["samples"]:
        times.setdefault(sample[0], []).append(sample[column])
    return {index: statistics.median(values) for index, values in times.items()}


def _tail(latencies):
    """(value, percentile, n): the highest percentile with at least ten
    jobs beyond it, by nearest rank; the maximum if there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _host(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_head": _git_head(),
        "seed": seed,
    }


def _git_head():
    """HEAD of the checkout, read from .git without running git; the
    benchmark also runs from exported trees that have no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _end_to_end(args):
    probes = [_worker(args, 0, ["--probe"], 60) for _ in range(SETUP_PROBES)]
    run = _worker(args, args.seconds, [], MEASURED_BUDGET_S)
    probes.append(run)
    raw = _per_job(run, column=2)
    run["uncalibrated"] = {
        "setup_s": statistics.median(p["setup_raw_s"] for p in probes),
        "jobs_per_s": (len(raw) - len(run["failed_jobs"])) / sum(raw.values()),
        "job_p50_s": statistics.median(raw.values()),
        "job_tail_s": _tail(raw.values())[0],
    }
    best = _per_job(run)
    tail, pct, n = _tail(best.values())
    done = len(best) - len(run["failed_jobs"])
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "jobs_per_s": done / sum(best.values()),
        "job_p50_s": statistics.median(best.values()),
        "job_tail_s": tail,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    passes = run["attempted"] / run["jobs"]
    notes = {
        "setup_s": "median of %d interpreter starts" % len(probes),
        "jobs_per_s": "%d jobs over the sum of their median times; %.1f passes in %.1f s"
                      % (done, passes, run["wall_s"]),
        "job_p50_s": "median of %d jobs' median times" % n,
        "job_tail_s": "p%.1f of %d jobs' median times, %d beyond it"
                      % (pct, n, min(10, n - 1)),
        "peak_rss_mb": "ru_maxrss of the measured interpreter",
    }
    return run, metrics, dict(E2E_UNITS), notes


def _per_layer(args):
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    half = args.seconds / 2.0
    plain = _worker(args, half, [], TRACED_BUDGET_S)
    RESULTS.mkdir(exist_ok=True)
    spans_out = RESULTS / ("spans-%s.json.gz" % args.workload)
    traced = _worker(args, half, ["--trace", "--spans-out", str(spans_out)],
                     TRACED_BUDGET_S)
    plain_best, traced_best = _per_job(plain), _per_job(traced)
    common = plain_best.keys() & traced_best.keys()
    metrics = traced["layers"]
    metrics["trace.overhead_ratio"] = (sum(traced_best[j] for j in common)
                                       / sum(plain_best[j] for j in common))
    units = dict(tracing.layer_metric_units(workloads.IDENTITY_NAMES,
                                            workloads.TREE_FAMILIES))
    notes = {"trace.overhead_ratio": "traced / untraced median times of the same %d jobs"
                                     % len(common),
             "trees.items_scanned": "computed from the enumeration size each query covers",
             "series.mul.dense_ops": "computed: sum of order^2/2 over series products",
             "scalars.coeff_max_bits": "largest numerator or denominator in checked outputs"}
    run = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"],
           "failures": plain["failures"] + traced["failures"],
           "spans": traced["spans"], "spans_file": str(spans_out.relative_to(ROOT)),
           "untraced_targets": traced["untraced_targets"]}
    return run, metrics, units, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lagrange_kit" / "__init__.py").is_file():
        print("error: no lagrange_kit sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        run, metrics, units, notes = (_per_layer if args.trace else _end_to_end)(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    host = _host(args.seed)
    failed_ratio = run["failed"] / run["attempted"]
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(host=host, workload=args.workload, seconds=args.seconds,
                  trace=args.trace, failed_ratio=failed_ratio, notes=notes,
                  run=run, result=result)
    path = RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("lagrange-kit benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host: Python %s, nproc %d, %s, git %s" % (
        host["python"], host["nproc"], host["cpu_model"], host["git_head"]))
    for name, value in metrics.items():
        print("  %-44s %14.6g %-6s %s" % (name, value, units[name], notes.get(name, "")))
    print("  %-44s %14.6g %-6s %d of %d jobs failed" % (
        "failed_ratio", failed_ratio, "ratio", run["failed"], run["attempted"]))
    if "uncalibrated" in run:
        print("  host %.2fx slower than the reference; uncalibrated: %s" % (
            run["host_slowdown"], ", ".join("%s %.6g" % item for item in run["uncalibrated"].items())))
    for failure in run["failures"]:
        print("  failure: %s" % failure)
    print("  result file: %s" % path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
