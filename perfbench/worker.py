"""One measured run in a fresh interpreter.

Imports lagrange_kit from the checkout's ``src``, builds the seed's job list,
then runs it closed-loop (one client; each job starts when the previous one
returns), pass after pass, until ``--seconds`` have passed and at least one
pass is complete.  The package's caches are cleared between passes.  Every
output is checked after the timed loop.  Prints one JSON object.  With
``--probe`` it stops after set-up and prints only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
# far above any normal run; stops a pass whose jobs all fail at once from
# filling memory with records
MAX_JOBS = 100_000
# a job or check running longer than this fails
JOB_DEADLINE_S = 20.0
# The host's speed drifts by up to 2x for tens of seconds at a time (other
# tenants), far beyond any bound a regression check could use.  A fixed
# stdlib Fraction kernel runs between jobs every CAL_INTERVAL_S; each time is
# scaled by CAL_REFERENCE_S over the median kernel time within CAL_WINDOW_S
# of the job, so figures read as seconds on the host at its fastest.
CAL_REFERENCE_S = 0.0048  # fastest kernel time on the 2-core Xeon host
CAL_INTERVAL_S = 0.25
CAL_WINDOW_S = 1.0


def _calibration_kernel():
    a = Fraction(1, 3)
    for i in range(1, 1001):
        a = a * Fraction(i, i + 1) + Fraction(1, i)
    return a


def _calibrate():
    t0 = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t0


def _speed_factor(samples, start, end):
    """CAL_REFERENCE_S over the median kernel time near [start, end]."""
    near = [d for t, d in samples if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S]
    if not near:
        near = [min(samples, key=lambda s: abs(s[0] - start))[1]]
    return CAL_REFERENCE_S / statistics.median(near)


class JobTimeout(BaseException):
    """Raised by SIGALRM when a job or a check passes its deadline; a
    BaseException so that no ``except Exception`` in the program hides it."""


class Watchdog:
    """Deadline for each job from one periodic ITIMER_REAL, with no extra
    thread; arming the timer per job would add two system calls to jobs
    that take microseconds."""

    TICK_S = 0.5

    def __init__(self):
        self.started = None
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def _on_alarm(self, signum, frame):
        started = self.started
        if started is not None and time.perf_counter() - started > JOB_DEADLINE_S:
            self.started = None
            raise JobTimeout()

    def run(self, fn, *args):
        """(value, error) of fn(*args); a timeout or exception is an error."""
        try:
            try:
                self.started = time.perf_counter()
                return fn(*args), None
            finally:
                self.started = None
        except JobTimeout:
            return None, "timeout after %g s" % JOB_DEADLINE_S
        except SystemExit as exc:  # argparse exits on a malformed command line
            return None, "SystemExit(%s)" % exc.code
        except Exception as exc:  # a raising job is a failed job, not a failed run
            return None, "%s: %s" % (type(exc).__name__, exc)

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _package_caches():
    """The cache_clear of every lru_cache in the package, found before
    tracing wraps any of them."""
    clears = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("lagrange_kit"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    clears[id(value)] = value.cache_clear
    return list(clears.values())


def _run_loop(workloads, workload, lk, jobs, seconds, watchdog, tracer, caches):
    """Records [job, seconds, output, error, start, calibrated seconds].
    The package's caches are cleared before every pass after the first,
    outside the timed interval, so each pass starts as cold as the first."""
    records = []
    calibration = []
    start = time.perf_counter()
    next_calibration = start
    i = 0
    # at least one whole pass, so every job is measured and traced once
    while (time.perf_counter() - start < seconds or i < len(jobs)) and i < MAX_JOBS:
        now = time.perf_counter()
        if now >= next_calibration:
            calibration.append((now, _calibrate()))
            next_calibration = now + CAL_INTERVAL_S
        if i and i % len(jobs) == 0:
            for cache_clear in caches:
                cache_clear()
        job = jobs[i % len(jobs)]
        if tracer is not None:
            tracer.job = i
        fn, args = workloads.run_job, (workload, lk, job)
        if tracer is not None and job.kind == "identity":
            fn, args = tracer.call, ("identities." + job.params["name"],) + (fn,) + args
        t0 = time.perf_counter()
        output, error = watchdog.run(fn, *args)
        records.append([job, time.perf_counter() - t0, output, error, t0])
        i += 1
    wall = time.perf_counter() - start
    calibration.append((time.perf_counter(), _calibrate()))
    for record in records:
        start_t, latency = record[4], record[1]
        record.append(latency * _speed_factor(calibration, start_t, start_t + latency))
    return records, wall, calibration


def _check(workloads, workload, lk, seed, records, watchdog):
    expected = None
    if workload == "extract":
        saved = json.loads(DIGESTS.read_text())
        if saved["seed"] == seed:
            expected = saved["digests"]
    failures = []
    bits = 0
    for record in records:
        job, output, error = record[0], record[2], record[3]
        if error is None:
            verdict, error = watchdog.run(workloads.check_job, workload, lk, job, output)
            if verdict is not None:
                ok, reason, job_bits = verdict
                bits = max(bits, job_bits)
                error = None if ok else reason
        if error is None and expected is not None and job.index < len(expected):
            if workloads.output_digest(output) != expected[job.index]:
                error = "stdout digest differs from the recorded one"
        record[3] = error
        if error is not None:
            failures.append("job %d (%s): %s" % (job.index, job.kind, error))
    return failures, bits, sorted({r[0].index for r in records if r[3] is not None})


def _layer_values(tracing, workloads, tracer, records, block, bits):
    """Per-layer figures of the first pass over the job list (its spans are
    a prefix of the span list, so parent indices stay valid)."""
    records = records[:block]
    spans = [s for s in tracer.spans if s[2] < block]
    stats = tracing.span_stats(tracer.names, spans)
    values = {}
    for name, unit in tracing.layer_metric_units(workloads.IDENTITY_NAMES,
                                                 workloads.TREE_FAMILIES):
        values[name] = 0
    for name, (calls, total, self_s, size) in stats.items():
        if name in ("cli",) or name.startswith(("trees.", "identities.")):
            continue
        values[name + ".calls"] = calls
        values[name + ".total_s"] = total
        values[name + ".self_s"] = self_s
    mul = stats.get("series.mul")
    if mul and mul[3]:
        values["series.mul.dense_ops"] = mul[3]
        values["series.mul.ns_per_dense_op"] = mul[2] * 1e9 / mul[3]
    values["scalars.coeff_max_bits"] = bits
    values["identities.self_s"] = sum(
        st[2] for name, st in stats.items() if name.startswith("identities."))
    for name in workloads.IDENTITY_NAMES:
        if "identities." + name in stats:
            values["identities.%s.total_s" % name] = stats["identities." + name][1]
    values["cli.self_s"] = stats.get("cli", [0, 0, 0])[2]

    tag_of = [record[0].tag for record in records]
    family_time = {}
    band_times = {}
    for s in spans:
        if s[1] != -1:
            continue
        name = tracer.names[s[0]]
        tag = tag_of[s[2]]
        if name.startswith("trees."):
            family_time[tag] = family_time.get(tag, 0.0) + s[4] - s[3]
        elif name == "cli":
            band_times.setdefault("cli.%s_s" % tag, []).append(s[4] - s[3])
    for family, total in family_time.items():
        values["trees.%s.total_s" % family] = total
    for band, times in band_times.items():
        values[band] = statistics.median(times)

    census = [(record[0], record[2]) for record in records
              if record[0].tag in workloads.TREE_FAMILIES]
    items = sum(workloads.census_scan(job)[0] for job, _ in census)
    matches = sum(output for _, output in census if isinstance(output, int))
    values["trees.queries"] = len(census)
    values["trees.items_scanned"] = items
    values["trees.match_ratio"] = matches / items if items else 0
    values.pop("trace.overhead_ratio")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lagrange_kit as lk
    import lagrange_kit.cli
    import lagrange_kit.trees
    import workloads

    if not Path(lk.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit("lagrange_kit was imported from %s, not %s" % (lk.__file__, src))
    jobs = workloads.make_jobs(args.workload, args.seed)
    setup_raw_s = time.monotonic() - args.spawned_at
    setup_s = setup_raw_s * CAL_REFERENCE_S / statistics.median(
        _calibrate() for _ in range(3))
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    caches = _package_caches()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        skipped = tracing.install(tracer, lk)
        tracer.active = True
    watchdog = Watchdog()
    t0 = time.perf_counter()
    records, wall, calibration = _run_loop(workloads, args.workload, lk, jobs,
                                           args.seconds, watchdog, tracer, caches)
    if tracer is not None:
        tracer.active = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, bits, failed_jobs = _check(workloads, args.workload, lk, args.seed,
                                         records, watchdog)
    watchdog.close()
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:10],
        "failed_jobs": failed_jobs,
        "jobs": len(jobs),
        "samples": [[record[0].index, record[5], record[1]] for record in records],
        "setup_raw_s": setup_raw_s,
        "host_slowdown": statistics.median(d for _, d in calibration) / CAL_REFERENCE_S,
        "peak_rss_mb": peak_rss_mb,
        "coeff_max_bits": bits,
    }
    if tracer is not None:
        result["layers"] = _layer_values(tracing, workloads, tracer, records, len(jobs), bits)
        result["spans"] = len(tracer.spans)
        result["untraced_targets"] = skipped
        if args.spans_out:
            tracer.write(args.spans_out, t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
