"""Per-layer metrics from the span dumps of a traced run.

A layer's self time is the time its spans cover minus the part their
child spans cover.  The accounted time of a run is the interpreter
start plus the self time of every layer span in the process that served
the operations; ``unaccounted_share`` is what is left of the traced wall
(harness spans excluded).  Work done in pool workers happens while the
main process waits inside ``run_units``, so in the share it sits in the
pool layer's self time; the per-layer times below (``lithium.check_s``,
``pure.prove_s``...) sum every process, workers included.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

#: span-name prefixes that count as a layer (everything else is harness)
LAYERS = ("startup", "lang", "pool", "incremental", "depgraph", "cache",
          "lithium", "pure", "caesium", "trace", "fuzz", "serve")

#: the benchmark's declaration: run_seconds, workloads, metrics
BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

#: name -> unit of every per-layer metric, in table order
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class Dumps:
    """The span files of one traced process and its pool workers."""

    def __init__(self, out_dir: Path) -> None:
        self.main: dict = {}
        self.workers: list[dict] = []
        for path in sorted(Path(out_dir).glob("*.json")):
            data = json.loads(path.read_text())
            if data.get("main"):
                self.main = data
            else:
                self.workers.append(data)
        if not self.main:
            raise ValueError(f"no main span dump under {out_dir}")

    @property
    def marks(self) -> dict:
        return self.main.get("marks", {})

    def processes(self) -> list[dict]:
        return [self.main, *self.workers]


def span_table(procs, since: float = float("-inf")) -> dict:
    """name -> [calls, total s, self s] over the given processes' spans
    that start at or after ``since``."""
    table: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for proc in procs:
        for spans in proc.get("threads", []):
            child = defaultdict(float)
            for name, t0, t1, parent in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for i, (name, t0, t1, parent) in enumerate(spans):
                if t0 < since:
                    continue
                row = table[name]
                row[0] += 1
                row[1] += t1 - t0
                row[2] += (t1 - t0) - child[i]
    return table


def layer_self_s(table: dict) -> float:
    return sum(row[2] for name, row in table.items()
               if name.split(".")[0] in LAYERS)


def _self(table: dict, *names: str) -> float:
    return sum(table[n][2] for n in names if n in table)


def _calls(table: dict, *names: str) -> int:
    return sum(table[n][0] for n in names if n in table)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics_from(table: dict, counts: dict, main_table: dict) -> dict:
    """The layer metrics a span table and the driver counters give.
    ``table`` covers every process; ``main_table`` the main one (for the
    pool's elapsed time)."""
    c = defaultdict(float, counts)
    prove = {o: _self(table, f"pure.prove.{o}")
             for o in ("default", "named", "lemma", "failed")}
    prove_calls = sum(_calls(table, f"pure.prove.{o}") for o in prove) \
        + _calls(table, "pure.prove")
    check_s = _self(table, "lithium.check")
    run_units_s = main_table["pool.run_units"][1] \
        if "pool.run_units" in main_table else 0.0
    jobs = max(1.0, c["driver.jobs"])
    planned = c["incremental.functions_clean"] \
        + c["incremental.functions_dirty"]
    gets = _calls(table, "cache.get")
    return {
        "lang.parse_s": _self(table, "lang.parse"),
        "lang.elaborate_s": _self(table, "lang.elaborate"),
        "lang.units": _calls(table, "lang.parse"),
        "pool.tasks": c["pool.tasks"],
        "pool.start_s": _self(table, "pool.start"),
        "pool.overhead_s": run_units_s - c["driver.check_wall_s"] / jobs,
        "pool.elab_memo_hit_ratio": _ratio(
            c["elab_memo.hits"], c["elab_memo.hits"] + c["elab_memo.misses"]),
        "incremental.plan_s": _self(table, "incremental.plan"),
        "incremental.state_io_s": _self(table, "incremental.state_io"),
        "depgraph.build_s": _self(table, "depgraph.build"),
        "incremental.functions_clean": c["incremental.functions_clean"],
        "incremental.functions_dirty": c["incremental.functions_dirty"],
        "incremental.reuse_ratio": _ratio(c["incremental.results_reused"],
                                          planned),
        "cache.get_s": _self(table, "cache.get"),
        "cache.put_s": _self(table, "cache.put"),
        "cache.hits": c["cache.hits"],
        "cache.misses": gets - c["cache.hits"],
        "lithium.check_s": check_s,
        "lithium.rule_applications": c["driver.rule_applications"],
        "lithium.rules_per_s": _ratio(c["driver.rule_applications"],
                                      check_s),
        "lithium.dispatch_table_hits": c["driver.dispatch_table_hits"],
        "pure.prove_calls": prove_calls,
        "pure.prove_s": sum(prove.values()) + _self(table, "pure.prove"),
        **{f"pure.prove_s.{o}": v for o, v in prove.items()},
        "pure.memo_hit_ratio": _ratio(c["driver.solver_cache_hits"],
                                      prove_calls),
        "pure.terms_interned": c["driver.terms_interned"],
        "caesium.exec_calls": _calls(table, "caesium.exec"),
        "caesium.exec_s": _self(table, "caesium.exec"),
        "trace.events": c["trace.events"],
        "trace.signature_s": _self(table, "trace.signature"),
        "fuzz.generate_s": _self(table, "fuzz.generate"),
        "fuzz.programs": c["fuzz.programs"],
        "fuzz.mutants": c["fuzz.mutants"],
    }


def merged_counts(dumps: Dumps, since: float = float("-inf")) -> dict:
    """Counters summed over every process from ``since`` on
    (``driver.jobs`` is the widest pool seen instead)."""
    out: dict = defaultdict(float)
    for proc in dumps.processes():
        for t, key, n in proc.get("tally", []):
            if t < since:
                continue
            out[key] = max(out[key], n) if key == "driver.jobs" \
                else out[key] + n
    return out


def process_accounting(dumps: Dumps) -> tuple[float, float]:
    """(accounted, traced wall) of one traced process.  Accounted is its
    interpreter start plus the self time of its layer spans; the wall
    runs from spawn to the end of the entry's ``main``, harness spans
    taken out."""
    main_table = span_table([dumps.main])
    h = dumps.marks
    accounted = h["t_first"] - h["t_spawn"] + layer_self_s(main_table)
    wall = h["t_end"] - h["t_spawn"] - _self(main_table,
                                             "harness.instrument")
    return accounted, wall


def in_process_metrics(dumps: Dumps) -> dict:
    """Metrics of a traced entry-point run (``ci_full``,
    ``fuzz_campaign``): every layer, plus the share of the traced wall
    no layer accounts for."""
    table = span_table(dumps.processes())
    main_table = span_table([dumps.main])
    out = metrics_from(table, merged_counts(dumps), main_table)
    accounted, wall = process_accounting(dumps)
    out["unaccounted_share"] = 1.0 - accounted / wall
    return out


def zero_metrics() -> dict:
    return {name: 0.0 for name in UNITS}


def render_table(workload: str, values: dict, targets: dict) -> str:
    lines = [f"per-layer metrics, workload {workload} (traced run)",
             f"  {'metric':30} {'value':>14} {'unit':6}  should move"]
    for name, unit in UNITS.items():
        v = values.get(name, 0.0)
        shown = f"{v:.6g}" if isinstance(v, float) else str(v)
        lines.append(f"  {name:30} {shown:>14} {unit:6}  "
                     f"{targets.get(name, '')}")
    return "\n".join(lines)
