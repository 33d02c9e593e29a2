#!/usr/bin/env python3
"""Benchmark the verification driver: serial vs parallel vs warm cache.

Verifies every case study five ways —

  1. ``jobs=1``, no cache          (the serial reference),
  2. ``jobs=N`` (default 4)        (the process-pool scheduler),
  3. ``jobs=1``, warm cache        (every function a cache hit),
  4. incremental, cold state       (everything dirty: the full first run),
  5. incremental, no-op rerun      (nothing changed: 0 re-checks),

asserts that all five produce identical ``ProgramResult`` contents
(per-function ok / Stats counters / error text), that the no-op
incremental rerun re-checks **zero** functions, and prints the
wall-clock speedups.  On a multi-core machine the parallel run shows a
>=2x speedup and the warm-cache run a >=5x speedup over the serial
reference; on a single-core machine only the cache speedup is physically
available, and the parallel assertion is skipped (reported as such).

Run:  PYTHONPATH=src python scripts/bench_driver.py [--jobs N] [--repeat K]
                                                    [--json PATH]

``--json`` writes a ``BENCH_driver.json`` artifact in the shared
benchmark schema (see ``repro.driver.benchio`` and
``scripts/bench_solver.py``).
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.frontend import verify_files                    # noqa: E402
from repro.obs import record_run                           # noqa: E402
from repro.report import (EXTRA_STUDIES, FIGURE7_STUDIES,  # noqa: E402
                          casestudies_dir)


def fingerprint(outcomes):
    """The driver-visible contents of every ProgramResult: function
    order, outcome, deterministic stats, and exact error text."""
    fp = {}
    for study, out in outcomes.items():
        fp[study] = [(name, fr.ok, fr.stats.counters(), fr.format_error())
                     for name, fr in out.result.functions.items()]
    return fp


def run(paths, label, repeat, samples_out=None, **kwargs):
    best, outcomes = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        outcomes = verify_files(paths, **kwargs)
        dt = time.perf_counter() - t0
        if samples_out is not None:
            samples_out.append(dt)
        best = dt if best is None else min(best, dt)
    ok = all(o.ok for o in outcomes.values())
    print(f"  {label:<28} {best * 1e3:8.1f}ms   "
          f"{'all verified' if ok else 'FAILURES'}")
    return best, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3,
                    help="take the best of K runs (warm-machine timing)")
    ap.add_argument("--json", dest="json_path", default="",
                    help="write a BENCH_driver.json artifact to PATH")
    args = ap.parse_args(argv)

    base = casestudies_dir()
    paths = [base / f"{stem}.c"
             for stem, _cls in FIGURE7_STUDIES + EXTRA_STUDIES]
    cores = os.cpu_count() or 1
    print(f"bench_driver: {len(paths)} case studies, "
          f"{cores} CPU core(s), jobs={args.jobs}")

    s_serial, s_par, s_warm = [], [], []
    t_serial, serial = run(paths, "serial (jobs=1)", args.repeat, jobs=1,
                           samples_out=s_serial)
    t_par, parallel = run(paths, f"parallel (jobs={args.jobs})",
                          args.repeat, jobs=args.jobs, samples_out=s_par)

    cache_dir = tempfile.mkdtemp(prefix="rc-cache-bench-")
    try:
        run(paths, "cold cache (jobs=1)", 1, jobs=1, cache=True,
            cache_dir=cache_dir)
        t_warm, warm = run(paths, "warm cache (jobs=1)", args.repeat,
                           jobs=1, cache=True, cache_dir=cache_dir,
                           samples_out=s_warm)
        hits = sum(o.metrics.cache_hits for o in warm.values())
        misses = sum(o.metrics.cache_misses for o in warm.values())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    s_incr_cold, s_incr_noop = [], []
    incr_dir = tempfile.mkdtemp(prefix="rc-incr-bench-")
    try:
        _t, incr_cold = run(paths, "incremental cold (jobs=1)", 1,
                            jobs=1, cache_dir=incr_dir,
                            samples_out=s_incr_cold)
        t_noop, incr_noop = run(paths, "incremental no-op (jobs=1)",
                                args.repeat, jobs=1, cache_dir=incr_dir,
                                samples_out=s_incr_noop)
        noop_rechecked = sum(o.metrics.functions_dirty
                             for o in incr_noop.values())
        noop_clean = sum(o.metrics.functions_clean
                         for o in incr_noop.values())
    finally:
        shutil.rmtree(incr_dir, ignore_errors=True)

    failures = []
    if fingerprint(serial) != fingerprint(parallel):
        failures.append("parallel results differ from serial results")
    if fingerprint(serial) != fingerprint(warm):
        failures.append("warm-cache results differ from serial results")
    if misses != 0:
        failures.append(f"warm cache had {misses} misses (expected 0)")
    if fingerprint(serial) != fingerprint(incr_cold):
        failures.append("incremental cold results differ from serial")
    if fingerprint(serial) != fingerprint(incr_noop):
        failures.append("incremental no-op results differ from serial")
    if noop_rechecked != 0:
        failures.append(f"no-op incremental rerun re-checked "
                        f"{noop_rechecked} function(s) (expected 0)")

    speedup_par = t_serial / t_par if t_par else float("inf")
    speedup_warm = t_serial / t_warm if t_warm else float("inf")
    speedup_noop = t_serial / t_noop if t_noop else float("inf")
    print()
    print(f"  parallel speedup:   {speedup_par:5.2f}x  "
          f"(jobs={args.jobs} vs jobs=1)")
    print(f"  warm-cache speedup: {speedup_warm:5.2f}x  "
          f"({hits} hits / {misses} misses)")
    print(f"  incremental no-op:  {speedup_noop:5.2f}x  "
          f"({noop_clean} clean / {noop_rechecked} re-checked)")

    if speedup_warm < 5.0:
        failures.append(f"warm-cache speedup {speedup_warm:.2f}x < 5x")
    if cores >= 2:
        if speedup_par < 2.0:
            failures.append(f"parallel speedup {speedup_par:.2f}x < 2x "
                            f"on a {cores}-core machine")
    else:
        print("  (single core: the >=2x parallel target needs >=2 cores; "
              "equality still asserted)")

    if args.json_path:
        from repro.driver.benchio import (bench_envelope, sample_stats,
                                          write_bench_json)
        payload = bench_envelope(
            "driver", [stem for stem, _cls in
                       FIGURE7_STUDIES + EXTRA_STUDIES], args.repeat)
        payload["configs"] = {
            "serial": {"total_wall_s": sample_stats(s_serial)},
            f"parallel_jobs{args.jobs}":
                {"total_wall_s": sample_stats(s_par)},
            "warm_cache": {"total_wall_s": sample_stats(s_warm),
                           "cache_hits": hits, "cache_misses": misses},
            "incremental_cold": {"total_wall_s": sample_stats(s_incr_cold)},
            "incremental_noop": {"total_wall_s": sample_stats(s_incr_noop),
                                 "functions_clean": noop_clean,
                                 "functions_rechecked": noop_rechecked},
        }
        payload["speedup"] = {
            "basis": "min-of-repetitions",
            "parallel": round(speedup_par, 3),
            "warm_cache": round(speedup_warm, 3),
            "incremental_noop": round(speedup_noop, 3),
        }
        payload["checks"] = {
            "fingerprint_identical":
                fingerprint(serial) == fingerprint(parallel)
                and fingerprint(serial) == fingerprint(warm)
                and fingerprint(serial) == fingerprint(incr_cold)
                and fingerprint(serial) == fingerprint(incr_noop),
            "noop_rechecks_zero": noop_rechecked == 0,
            "all_verified": all(o.ok for o in serial.values()),
            "passed": not failures,
        }
        path = write_bench_json(args.json_path, payload)
        print(f"  wrote {path}")

    # One summarising run-ledger record (no-op unless RC_LEDGER is set).
    # The individual verify_files passes above already appended their own
    # "verify" records, each in its own comparability pool; this one
    # tracks the serial reference wall plus the headline speedups.
    record_run("bench", wall_s=t_serial, jobs=1,
               suite=[stem for stem, _cls in
                      FIGURE7_STUDIES + EXTRA_STUDIES],
               extra={"script": "bench_driver",
                      "parallel_jobs": args.jobs,
                      "speedup_parallel": round(speedup_par, 3),
                      "speedup_warm_cache": round(speedup_warm, 3),
                      "speedup_incremental_noop": round(speedup_noop, 3)})

    if failures:
        print("\nFAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nOK: identical results across modes, speedup targets met.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
