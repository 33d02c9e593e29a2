"""Self-profile over a trace: where the proof search spends its time.

Aggregates the spans of a :class:`~.tracer.UnitTrace` — in one walk,
:func:`build_profile`, the only span-stack replay — into

* :class:`CostEntry` statistics — count, total wall, *self* wall (total
  minus the directly nested spans, so e.g. a typing rule's own cost is
  separated from the solver calls it triggers), slowest span — per
  ``rule:``/``solver:`` key (:func:`~.signature.span_key`, the slice the
  run ledger persists; per-rule rows are sums over it) and per
  ``(cat, name)`` for every other span;
* instant counts (memo hits/misses, evar events, context churn);
* every ``solver.prove`` call, for the top-N slowest goals — the first
  place to look when a verification is slow.

The driver builds one profile per traced unit and keeps it next to the
trace; ``trace_summary`` distills it into the JSON-able ``trace`` block
of the schema-v3 driver metrics.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field

from .signature import RULE_PREFIX, span_key
from .tracer import TraceEvent, UnitTrace


@dataclass
class CostEntry:
    """The aggregate cost of one key."""

    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    def add_span(self, dur_s: float, self_s: float) -> None:
        self.count += 1
        self.total_s += dur_s
        self.self_s += self_s
        if dur_s > self.max_s:
            self.max_s = dur_s

    def merge(self, other: "CostEntry") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.max_s = max(self.max_s, other.max_s)

    def to_dict(self) -> dict:
        return {"count": self.count,
                "total_s": round(self.total_s, 6),
                "self_s": round(self.self_s, 6),
                "max_s": round(self.max_s, 6)}


@dataclass
class SlowCall:
    dur_s: float
    function: str
    goal: str
    outcome: str


@dataclass
class SelfProfile:
    spans: dict[tuple[str, str], CostEntry] = field(default_factory=dict)
    costs: dict[str, CostEntry] = field(default_factory=dict)
    instants: dict[tuple[str, str], int] = field(default_factory=dict)
    # (duration, function, event) of every solver.prove span, walk order
    proves: list[tuple[float, str, TraceEvent]] = field(default_factory=list)
    events: int = 0
    dropped: int = 0

    def rules(self) -> dict[str, CostEntry]:
        """Per-typing-rule aggregate: the ``rule:<dispatch>:<name>``
        entries summed by rule name (the registry rejects names with
        ``:``)."""
        out: dict[str, CostEntry] = {}
        for key, entry in self.costs.items():
            if key.startswith(RULE_PREFIX):
                name = key.rpartition(":")[2]
                out.setdefault(name, CostEntry()).merge(entry)
        return out

    def slowest_prove(self, n: int) -> list[SlowCall]:
        """The ``n`` slowest ``solver.prove`` calls, slowest first (ties
        in walk order)."""
        return [SlowCall(dur, function, str(ev.args.get("goal", "")),
                         str(ev.args.get("outcome", "")))
                for dur, function, ev in heapq.nsmallest(
                    n, self.proves, key=lambda p: -p[0])]


def build_profile(trace: UnitTrace) -> SelfProfile:
    prof = SelfProfile(spans=defaultdict(CostEntry),
                       costs=defaultdict(CostEntry),
                       events=trace.event_count(),
                       dropped=trace.dropped_count())
    spans, costs, proves = prof.spans, prof.costs, prof.proves

    def close(stack: list, function: str) -> None:
        ev, child_dur = stack.pop()
        dur = ev.dur or 0.0
        self_s = max(0.0, dur - child_dur)
        if stack:
            stack[-1][1] += dur
        key = span_key(ev)
        if key is not None:
            costs[key].add_span(dur, self_s)
        if ev.cat != "rule":
            spans[(ev.cat, ev.name)].add_span(dur, self_s)
            if ev.cat == "solver" and ev.name == "prove":
                proves.append((dur, function, ev))

    for buf in trace.buffers:
        # Stack replay over the pre-ordered span stream: an event at depth
        # d is a direct child of the last open span at depth < d.
        stack: list[list] = []   # [event, direct_child_dur]
        for ev in buf.events:
            if ev.ph == TraceEvent.INSTANT:
                key = (ev.cat, ev.name)
                prof.instants[key] = prof.instants.get(key, 0) + 1
                continue
            while stack and stack[-1][0].depth >= ev.depth:
                close(stack, buf.function)
            stack.append([ev, 0.0])
        while stack:
            close(stack, buf.function)
    return prof


def render_profile(prof: SelfProfile, top_n: int = 10) -> str:
    """The human-readable self-profile printed by ``scripts/trace.py``."""
    lines = [f"trace profile: {prof.events} event(s)"
             + (f", {prof.dropped} dropped" if prof.dropped else "")]

    rules = sorted(prof.rules().items(), key=lambda kv: -kv[1].total_s)
    if rules:
        lines.append("")
        lines.append(f"{'rule':<24} {'count':>6} {'total':>9} {'self':>9}")
        for name, agg in rules[:top_n]:
            lines.append(f"{name:<24} {agg.count:>6} "
                         f"{agg.total_s * 1e3:>7.2f}ms "
                         f"{agg.self_s * 1e3:>7.2f}ms")

    other = sorted(prof.spans.items(), key=lambda kv: -kv[1].total_s)
    if other:
        lines.append("")
        lines.append(f"{'span':<24} {'count':>6} {'total':>9} {'self':>9}")
        for (cat, name), agg in other[:top_n]:
            label = f"{cat}.{name}"
            lines.append(f"{label:<24} {agg.count:>6} "
                         f"{agg.total_s * 1e3:>7.2f}ms "
                         f"{agg.self_s * 1e3:>7.2f}ms")

    if prof.instants:
        lines.append("")
        lines.append(f"{'instant':<24} {'count':>6}")
        for (cat, name), count in sorted(prof.instants.items(),
                                         key=lambda kv: -kv[1])[:top_n]:
            lines.append(f"{cat + '.' + name:<24} {count:>6}")

    slowest = prof.slowest_prove(top_n)
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest solver goals:")
        for c in slowest:
            where = f" [{c.function}]" if c.function else ""
            lines.append(f"  {c.dur_s * 1e3:7.2f}ms  {c.outcome:<8} "
                         f"{c.goal}{where}")
    return "\n".join(lines)


def trace_summary(prof: SelfProfile, top_n: int = 5) -> dict:
    """The ``trace`` block of the schema-v3 driver metrics: per-rule
    counts/time plus solver/memo roll-ups of one unit's profile.  Counts
    are deterministic; the ``*_s`` fields are wall-clock."""
    rules = {name: {"count": agg.count,
                    "total_s": round(agg.total_s, 6),
                    "self_s": round(agg.self_s, 6)}
             for name, agg in sorted(prof.rules().items())}
    prove = prof.spans.get(("solver", "prove"), CostEntry())
    return {
        "events": prof.events,
        "dropped": prof.dropped,
        "rules": rules,
        "solver": {
            "prove_calls": prove.count,
            "prove_total_s": round(prove.total_s, 6),
            "memo_hits": prof.instants.get(("memo", "hit"), 0),
            "memo_misses": prof.instants.get(("memo", "miss"), 0),
        },
        "slowest_prove": [
            {"dur_s": round(c.dur_s, 6), "function": c.function,
             "goal": c.goal, "outcome": c.outcome}
            for c in prof.slowest_prove(top_n)
        ],
    }
