"""Thread interleaving for Caesium.

Caesium gives semantics to concurrent programs by interleaving threads at
the granularity of individual memory accesses (the interpreter yields at
every access).  The :class:`Scheduler` here explores random interleavings
under a seeded RNG — the executable analogue of Caesium's non-deterministic
small-step semantics — and surfaces any undefined behaviour (including data
races, detected by the vector-clock detector in the memory model).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, Optional, Sequence

from .eval import FuelExhausted, Machine
from .memory import Memory
from .syntax import Program
from .values import UndefinedBehavior, Value


class StepBudgetExhausted(RuntimeError):
    """:meth:`Scheduler.run` took more than ``max_steps`` scheduling
    steps or block transitions (e.g. a livelock)."""


@dataclass
class ThreadResult:
    tid: int
    value: Optional[Value] = None
    finished: bool = False


class Scheduler:
    """Run several Caesium threads with randomised interleaving."""

    def __init__(self, program: Program, seed: int = 0,
                 fuel: int = 1_000_000) -> None:
        self.machine = Machine(program, Memory(detect_races=True), fuel=fuel)
        self.rng = random.Random(seed)
        self._threads: list[tuple[int, Generator[None, None, Optional[Value]]]] = []
        self._results: dict[int, ThreadResult] = {}
        self._next_tid = 1

    @property
    def memory(self) -> Memory:
        return self.machine.memory

    def spawn(self, fname: str, args: Sequence[Value]) -> int:
        """Spawn a thread running ``fname(args)``; returns its thread id."""
        tid = self._next_tid
        self._next_tid += 1
        assert self.memory.races is not None
        self.memory.races.spawn(0, tid)
        gen = self.machine.call_gen(fname, list(args), tid)
        self._threads.append((tid, gen))
        self._results[tid] = ThreadResult(tid)
        return tid

    def run(self, max_steps: int = 1_000_000) -> dict[int, ThreadResult]:
        """Interleave all spawned threads to completion.

        Raises :class:`UndefinedBehavior` if any interleaved execution step
        exhibits UB (e.g. a data race), :class:`StepBudgetExhausted` past
        ``max_steps`` scheduling steps or block transitions.
        """
        # A loop whose blocks never touch memory never yields back here.
        # The machine's fuel counts block transitions, so lend it at most
        # max_steps of it (no scheduling point is added or moved).
        machine = self.machine
        reserve = max(0, machine.fuel - max_steps)
        machine.fuel -= reserve
        live = list(self._threads)
        steps = 0
        try:
            while live:
                steps += 1
                if steps > max_steps:
                    raise StepBudgetExhausted(
                        "scheduler: step budget exhausted")
                idx = self.rng.randrange(len(live))
                tid, gen = live[idx]
                try:
                    next(gen)
                except StopIteration as stop:
                    self._results[tid] = ThreadResult(tid, stop.value, True)
                    assert self.memory.races is not None
                    self.memory.races.join_thread(0, tid)
                    live.pop(idx)
        except FuelExhausted:
            if reserve:
                raise StepBudgetExhausted(
                    "scheduler: step budget exhausted") from None
            raise
        finally:
            machine.fuel += reserve
        self._threads.clear()
        return dict(self._results)


def run_concurrently(program: Program,
                     entries: Sequence[tuple[str, Sequence[Value]]],
                     seeds: Sequence[int] = range(10),
                     setup: Optional[Callable[[Scheduler], None]] = None,
                     ) -> list[dict[int, ThreadResult]]:
    """Run the given thread entry points under several seeds.

    Each seed is a fresh machine/memory.  Returns the per-seed results;
    raises on UB in any interleaving explored.
    """
    out = []
    for seed in seeds:
        sched = Scheduler(program, seed=seed)
        if setup is not None:
            setup(sched)
        for fname, args in entries:
            sched.spawn(fname, args)
        out.append(sched.run())
    return out
