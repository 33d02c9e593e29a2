"""In-memory spans around the verifier's layers, recorded from outside.

:func:`instrument` wraps public functions of each layer (parse,
elaborate, the driver's ``run_units``, incremental planning, the result
cache, ``check_function``, ``PureSolver.prove``, Caesium execution, the
coverage signature, the fuzz generator, the daemon's request handler)
and rebinds every module-level name that refers to them, so callers that
imported a function by name are traced too.  ``src/`` is not modified.

A span is ``(name, start, end, parent)`` with ``perf_counter`` times,
kept in a per-thread list until :meth:`Recorder.dump` writes it out.
Counters ride on the same wrappers, as timestamped ``(time, key, n)``
records, so a run can count only what happened after some moment.  A process forked from a traced one
(a pool worker) starts an empty recorder of its own and dumps it into
the same directory when it exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path


class Recorder:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._fresh()

    def _fresh(self) -> None:
        self.pid = os.getpid()
        self.threads: list[list] = []
        self.tally: list[tuple] = []
        self.marks: dict = {}
        self.local = threading.local()
        self.dumped = False

    def _spans(self) -> tuple[list, list]:
        if os.getpid() != self.pid:
            self._adopt_fork()
        local = self.local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            self.threads.append(local.spans)
        return local.spans, local.stack

    def _adopt_fork(self) -> None:
        """First traced call in a forked child: drop the parent's spans
        and dump this process's own when it exits (multiprocessing runs
        its finalizers as a worker shuts down)."""
        self._fresh()
        from multiprocessing import util
        util.Finalize(None, self.dump, exitpriority=100)

    def count(self, key: str, n: float = 1) -> None:
        if os.getpid() != self.pid:
            self._adopt_fork()
        self.tally.append((time.perf_counter(), key, n))

    def span(self, name: str, fn, after=None, rename=None):
        """Wrap ``fn``: time each call as a span called ``name`` (or
        ``rename(result)``), then call ``after(recorder, args, result)``."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = rec._spans()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = rename(result) if rename is not None \
                    and result is not None else name
                spans[idx] = (label, t0, t1, parent)
                if after is not None and result is not None:
                    after(rec, args, result)

        return wrapper

    def probe(self, fn, after):
        """Wrap ``fn`` without a span, only to read its result."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(rec, args, result)
            return result

        return wrapper

    def add_span(self, name: str, t0: float, t1: float) -> None:
        spans, stack = self._spans()
        spans.append((name, t0, t1, stack[-1] if stack else -1))

    def dump(self, tag: str = "worker") -> None:
        """Write this process's spans to ``<tag>-<pid>.json`` (once)."""
        if self.dumped:
            return
        self.dumped = True
        self.out_dir.mkdir(parents=True, exist_ok=True)
        payload = {"pid": self.pid, "main": tag == "main",
                   "threads": [[s for s in spans if s is not None]
                               for spans in self.threads],
                   "tally": self.tally, "marks": self.marks}
        (self.out_dir / f"{tag}-{self.pid}.json").write_text(
            json.dumps(payload))


# ---------------------------------------------------------------------
# Rebinding.
# ---------------------------------------------------------------------

def _rebind(orig, wrapped, extra_modules=()) -> int:
    """Point every module-level name bound to ``orig`` at ``wrapped``."""
    n = 0
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] == "repro"]
    for m in list(mods) + list(extra_modules):
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapped)
                n += 1
    return n


def _wrap_function(module: str, attr: str, make, extra_modules=()) -> None:
    mod = importlib.import_module(module)
    orig = getattr(mod, attr)
    if _rebind(orig, make(orig), extra_modules) == 0:
        raise RuntimeError(f"could not rebind {module}.{attr}")


def _wrap_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


# ---------------------------------------------------------------------
# What each wrapper reads off its result.
# ---------------------------------------------------------------------

#: function-level driver telemetry summed from DriverMetrics
_FN_COUNTERS = ("rule_applications", "solver_calls")
_FN_TELEMETRY = ("solver_cache_hits", "terms_interned",
                 "dispatch_table_hits")


def _after_run_units(rec: Recorder, _args, results) -> None:
    """Sum the per-function walls and counters the driver returns in
    ``DriverMetrics`` (the only view of work done in pool workers)."""
    for _result, m in results.values():
        rec.count("driver.jobs", m.jobs)
        rec.count("elab_memo.hits", m.elab_memo_hits)
        rec.count("elab_memo.misses", m.elab_memo_misses)
        rec.count("incremental.functions_clean", m.functions_clean)
        rec.count("incremental.functions_dirty", m.functions_dirty)
        rec.count("incremental.results_reused", m.results_reused)
        for f in m.functions:
            if f.cache in ("hit", "clean"):
                continue
            rec.count("driver.check_wall_s", f.wall_s)
            for key in _FN_COUNTERS:
                rec.count(f"driver.{key}", f.counters.get(key, 0))
            for key in _FN_TELEMETRY:
                rec.count(f"driver.{key}", getattr(f, key))


def _after_cache_get(rec: Recorder, _args, result) -> None:
    rec.count("cache.hits")


def _after_signature(rec: Recorder, args, _result) -> None:
    trace = args[0] if args else None
    if trace is not None:
        rec.count("trace.events", trace.event_count())


def _after_campaign(rec: Recorder, _args, stats) -> None:
    rec.count("fuzz.programs", stats.programs)
    rec.count("fuzz.mutants", stats.mutants)


def _prove_name(result) -> str:
    return f"pure.prove.{result.outcome.value}"


def instrument(rec: Recorder, extra_modules=()) -> None:
    """Import every traced layer and install the wrappers."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.driver import cache, incremental
    from repro.fuzz import campaign  # noqa: F401 (binds the names)
    from repro.pure.solver import PureSolver
    from repro.serve.server import VerifyDaemon

    def fn(module, attr, name, after=None):
        _wrap_function(module, attr,
                       lambda f: rec.span(name, f, after=after),
                       extra_modules)

    fn("repro.lang.parser", "parse", "lang.parse")
    fn("repro.lang.elaborate", "elaborate_unit", "lang.elaborate")
    fn("repro.driver.pool", "run_units", "pool.run_units",
       after=_after_run_units)
    fn("repro.driver.incremental", "plan_unit", "incremental.plan")
    fn("repro.driver.incremental", "load_state_cached",
       "incremental.state_io")
    fn("repro.driver.depgraph", "build_depgraph", "depgraph.build")
    fn("repro.refinedc.checker", "check_function", "lithium.check")
    fn("repro.fuzz.oracle", "execute_program", "caesium.exec")
    fn("repro.fuzz.oracle", "run_witness", "caesium.exec")
    fn("repro.trace.signature", "signature_of", "trace.signature",
       after=_after_signature)
    fn("repro.fuzz.generator", "generate_program", "fuzz.generate")
    _wrap_function("repro.fuzz.campaign", "run_campaign",
                   lambda f: rec.probe(f, _after_campaign), extra_modules)

    def method(cls, attr, name, after=None, rename=None):
        _wrap_method(cls, attr,
                     lambda f: rec.span(name, f, after=after,
                                        rename=rename))

    method(incremental.IncrementalState, "load", "incremental.state_io")
    method(incremental.IncrementalState, "save", "incremental.state_io")
    method(cache.ResultCache, "get", "cache.get", after=_after_cache_get)
    method(cache.ResultCache, "put", "cache.put")
    method(PureSolver, "prove", "pure.prove", rename=_prove_name)
    method(VerifyDaemon, "_execute_verify", "serve.request")

    # The pool layer's own cost: building an executor and its first
    # submit (which forks every worker under the fork start method).
    init = ProcessPoolExecutor.__init__
    submit = ProcessPoolExecutor.submit

    @functools.wraps(init)
    def pool_init(self, *args, **kwargs):
        t0 = time.perf_counter()
        init(self, *args, **kwargs)
        self._perfbench_started = False
        rec.add_span("pool.start", t0, time.perf_counter())

    @functools.wraps(submit)
    def pool_submit(self, *args, **kwargs):
        rec.count("pool.tasks")
        if getattr(self, "_perfbench_started", True):
            return submit(self, *args, **kwargs)
        self._perfbench_started = True
        t0 = time.perf_counter()
        try:
            return submit(self, *args, **kwargs)
        finally:
            rec.add_span("pool.start", t0, time.perf_counter())

    ProcessPoolExecutor.__init__ = pool_init
    ProcessPoolExecutor.submit = pool_submit
