#!/usr/bin/env python3
"""Benchmark the pure engine on the case-study suite.

Verifies the Figure-7 case studies with the pure engine — hash-consed
terms, memo tables, node-stamped compiled forms, flat rule dispatch,
integer-row Fourier–Motzkin — and

  1. records the per-function fingerprint (outcome, ``Stats.counters()``,
     exact error text) of every study, and asserts that every pass —
     cold, warm-up and traced — produced the identical fingerprint
     (``scripts/ci_checks.py bench-artifact`` then compares it with the
     golden file ``tests/golden/fingerprints.json``);
  2. times ``--repeat`` cold passes and writes a ``BENCH_solver.json``
     artifact (schema shared with ``bench_driver.py`` — see
     ``repro.driver.benchio``);
  3. guards the no-op fast path of ``repro.trace``: with tracing *off*
     (the default) the checking wall must not regress more than
     ``--max-trace-overhead`` (2%) against the previously recorded
     ``BENCH_solver.json`` — asserted only when that baseline was
     recorded on the same platform, so CI runners skip it — and a
     tracing-*on* pass is timed for information;
  4. guards the observability layer the same way: per traced pass the
     run-ledger record is built (rule-cost aggregation included,
     ``repro.obs``) against a scratch ledger and its cost is asserted to
     stay under ``--max-trace-overhead`` of the checking wall.

Timings are the *checking-phase* wall (``search_s + solver_s``) — the
phase the pure engine runs in — with the total process wall alongside.
Every repetition starts cold (``clear_pure_caches()``, which also drops
the node-stamped compiled forms via the intern tables), so the numbers
reflect within-suite redundancy only, not warm re-runs.

Run:  PYTHONPATH=src python scripts/bench_solver.py [--quick] [--json PATH]
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.driver.benchio import (bench_envelope, sample_stats,  # noqa: E402
                                  write_bench_json)
from repro.frontend import verify_file                         # noqa: E402
from repro.obs import costs_of_outcomes, record_run            # noqa: E402
from repro.pure.memo import clear_pure_caches                  # noqa: E402
from repro.report import (EXTRA_STUDIES, FIGURE7_STUDIES,      # noqa: E402
                          casestudies_dir)


def fingerprint(outcomes):
    """``{study: [[name, ok, counters, error text], ...]}`` — the same
    row shape as the golden fingerprint file."""
    return {study: [[name, fr.ok, fr.stats.counters(), fr.format_error()]
                    for name, fr in out.result.functions.items()]
            for study, out in outcomes.items()}


def run_suite(paths, traced=False):
    """One cold pass over the suite; returns (total_wall, check_wall,
    outcomes)."""
    clear_pure_caches()
    t0 = time.perf_counter()
    check = 0.0
    outcomes = {}
    for p in paths:
        out = verify_file(p, trace=traced)
        check += out.metrics.phases.search_s + out.metrics.phases.solver_s
        outcomes[p.stem] = out
    return time.perf_counter() - t0, check, outcomes


def load_baseline(path):
    """The previously recorded artifact at ``path``, or None."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="2 repetitions — the CI smoke mode")
    ap.add_argument("--repeat", type=int, default=None,
                    help="repetitions (default 5; 2 with --quick)")
    ap.add_argument("--extras", action="store_true",
                    help="also measure the non-Figure-7 extra studies")
    ap.add_argument("--json", dest="json_path", default="BENCH_solver.json",
                    help="where to write the benchmark artifact "
                         "('' disables)")
    ap.add_argument("--max-trace-overhead", type=float, default=2.0,
                    metavar="PCT",
                    help="max tracing-off checking-wall regression vs the "
                         "existing artifact, in percent (same-platform "
                         "baselines only; default 2.0)")
    args = ap.parse_args(argv)
    repeat = args.repeat or (2 if args.quick else 5)

    studies = [stem for stem, _cls in FIGURE7_STUDIES]
    if args.extras:
        studies += [stem for stem, _cls in EXTRA_STUDIES]
    base = casestudies_dir()
    paths = [base / f"{stem}.c" for stem in studies]
    print(f"bench_solver: {len(paths)} case studies, "
          f"{repeat} repetition(s){' (quick)' if args.quick else ''}")

    # Warmup pass (interpreter/import effects), capturing the fingerprint
    # and the telemetry outside the timing.
    _, _, outcomes = run_suite(paths)
    fp = fingerprint(outcomes)
    identical = True
    functions = [f for o in outcomes.values() for f in o.metrics.functions]
    hits = sum(f.solver_cache_hits for f in functions)
    interned = sum(f.terms_interned for f in functions)
    dispatch_hits = sum(f.dispatch_table_hits for f in functions)
    compiled_terms = sum(f.terms_compiled for f in functions)

    totals, checks = [], []
    for _ in range(repeat):
        t, c, outs = run_suite(paths)
        totals.append(t)
        checks.append(c)
        identical = identical and fingerprint(outs) == fp
    # Tracing-on cost, for information (same work, plus the event
    # stream); the *off* path is what the baseline guards.  Each traced
    # pass also builds the full observability record — rule-cost
    # aggregation plus a ledger append to a scratch file — and times
    # that separately: the ledger must stay inside the trace budget too.
    run_suite(paths, traced=True)     # warmup
    traced_check, ledger_extra = [], []
    fd, scratch_ledger = tempfile.mkstemp(suffix=".rc-ledger.jsonl")
    os.close(fd)

    def traced_pass():
        nonlocal identical
        _, c, outs = run_suite(paths, traced=True)
        traced_check.append(c)
        identical = identical and fingerprint(outs) == fp
        t_obs = time.perf_counter()
        record_run("bench", wall_s=c,
                   metrics=[o.metrics for o in outs.values()],
                   costs=costs_of_outcomes(outs.values()),
                   path=scratch_ledger)
        ledger_extra.append(time.perf_counter() - t_obs)

    try:
        for _ in range(repeat):
            traced_pass()

        def ledger_overhead():
            return min(ledger_extra) / min(traced_check) * 100.0

        # Same retry discipline as the baseline guard: a load spike
        # during one pass is likelier than a real aggregation slowdown.
        retries = 0
        while ledger_overhead() > args.max_trace_overhead and retries < 3:
            traced_pass()
            retries += 1
        ledger_cost = ledger_overhead()
    finally:
        try:
            os.unlink(scratch_ledger)
        except OSError:
            pass

    baseline = load_baseline(args.json_path) if args.json_path else None
    trace_regress = None
    if baseline is not None \
            and baseline.get("platform") == platform.platform() \
            and "check_wall_s" in baseline.get("configs", {}).get(
                "engine", {}):
        # Best-of-now vs *median*-of-baseline: robust to the baseline
        # having caught one lucky sample, still trips on a real slowdown
        # of the instrumented-but-off fast path.  A pending failure gets
        # extra cold passes first — on shared hardware a single load
        # spike is far more likely than a genuine regression of a few
        # `is None` checks.
        base_stats = baseline["configs"]["engine"]["check_wall_s"]
        base_check = base_stats.get("median", base_stats["min"])

        def regress():
            return (min(checks) / base_check - 1.0) * 100.0

        retries = 0
        while regress() > args.max_trace_overhead and retries < 3:
            checks.append(run_suite(paths)[1])
            retries += 1
        trace_regress = regress()

    all_verified = all(o.ok for o in outcomes.values())
    print(f"  engine:    check {min(checks) * 1e3:8.1f}ms   "
          f"total {min(totals) * 1e3:8.1f}ms   (best of {repeat})")
    print(f"  telemetry: {hits} solver-cache hits, "
          f"{interned} terms interned, {len(functions)} functions")
    print(f"             {dispatch_hits} dispatch-table hits, "
          f"{compiled_terms} terms compiled")
    trace_cost = (min(traced_check) / min(checks) - 1.0) * 100.0
    print(f"  tracing:   on {min(traced_check) * 1e3:8.1f}ms   "
          f"({trace_cost:+.1f}% vs off)")
    print(f"  ledger:    +{min(ledger_extra) * 1e3:.2f}ms per pass   "
          f"({ledger_cost:+.2f}% of checking wall, "
          f"limit +{args.max_trace_overhead:.1f}%)")
    if trace_regress is not None:
        print(f"  trace-off overhead vs baseline: {trace_regress:+.1f}% "
              f"(limit +{args.max_trace_overhead:.1f}%)")
    else:
        print("  trace-off overhead vs baseline: skipped "
              "(no same-platform baseline artifact)")

    failures = []
    if not identical:
        failures.append("the fingerprint differs between passes "
                        "(cold, warm-up or traced)")
    if not all_verified:
        failures.append("the suite has verification failures")
    if trace_regress is not None and trace_regress > args.max_trace_overhead:
        failures.append(
            f"tracing-off checking wall regressed {trace_regress:+.1f}% "
            f"vs baseline (> +{args.max_trace_overhead:.1f}%): the no-op "
            "fast path of repro.trace must stay free")
    if ledger_cost > args.max_trace_overhead:
        failures.append(
            f"ledger+aggregation overhead {ledger_cost:+.2f}% of the "
            f"checking wall (> +{args.max_trace_overhead:.1f}%): the "
            "observability layer must stay inside the trace budget")

    if args.json_path:
        payload = bench_envelope("solver", studies, repeat)
        payload["configs"] = {
            "engine": {
                "total_wall_s": sample_stats(totals),
                "check_wall_s": sample_stats(checks),
                "solver_cache_hits": hits,
                "terms_interned": interned,
                "dispatch_table_hits": dispatch_hits,
                "terms_compiled": compiled_terms,
            },
            "trace_on": {
                "check_wall_s": sample_stats(traced_check),
            },
        }
        payload["trace_overhead"] = {
            "on_vs_off_pct": round(trace_cost, 2),
            "off_vs_baseline_pct": (round(trace_regress, 2)
                                    if trace_regress is not None else None),
            "limit_pct": args.max_trace_overhead,
            "asserted": trace_regress is not None,
        }
        payload["ledger_overhead"] = {
            "extra_ms_per_pass": round(min(ledger_extra) * 1e3, 3),
            "pct_of_check_wall": round(ledger_cost, 3),
            "limit_pct": args.max_trace_overhead,
            "asserted": True,
        }
        payload["checks"] = {
            "fingerprint_identical": identical,
            "all_verified": all_verified,
            "functions": len(functions),
        }
        payload["fingerprint"] = fp
        path = write_bench_json(args.json_path, payload)
        print(f"  wrote {path}")

    # One run-ledger record (no-op unless RC_LEDGER is set).
    record_run("bench", wall_s=min(checks), jobs=1, suite=studies,
               extra={"script": "bench_solver", "quick": args.quick,
                      "check_wall_s": round(min(checks), 6),
                      "ledger_overhead_pct": round(ledger_cost, 3)})

    if failures:
        print("\nFAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nOK: every pass gave the same fingerprint.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
