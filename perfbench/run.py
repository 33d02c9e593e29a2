#!/usr/bin/env python3
"""The verifier's benchmark: end to end, and layer by layer.

    python3 perfbench/run.py --workload ci_full|edit_loop|fuzz_campaign
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload drives the entry point
a user types (``scripts/verify.py``, ``scripts/rcd.py``,
``scripts/fuzz.py``) in fresh processes, on inputs made from ``--seed``
whose verdicts are known, for about ``--seconds`` seconds (``edit_loop``
and ``fuzz_campaign`` make a number of edits or campaigns that
``--seconds`` fixes, so their inputs never depend on timing).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
times the layers from outside the program and prints the per-layer
table.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

A command that hangs is killed and its operations count as failed.
Exit status: 0 with a result; 2 without one (not a checkout of the
verifier, or a daemon that would not start or stop).
"""

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from harness import BenchError, Run, require_checkout  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.
        RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec["default_seed"])
    ap.add_argument("--seconds", type=float,
                    default=layers.BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        require_checkout()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # a run that is terminated still stops what it started (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run()
    try:
        res = WORKLOADS[args.workload](run, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        survivors = run.close()
    if survivors:
        res.wrong(f"processes outlived the run: {survivors}")

    print(f"== {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'} ==")
    for line in res.report:
        print(line)
    if args.trace:
        print(layers.render_table(args.workload,
                                  {k: v for k, (v, _u) in
                                   res.metrics.items()},
                                  {name: "; ".join(t) for name, t
                                   in spec["layers"].items()}))
    else:
        for name, (value, unit) in res.metrics.items():
            print(f"  {name:20} {value:12.6g} {unit}")
    print(f"operations: {res.attempted} attempted, {res.failed} failed")
    for note in res.notes:
        print(f"  ! {note}")
    print(json.dumps({
        "correct": res.correct and res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
