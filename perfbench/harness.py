"""Process plumbing shared by the workloads: a scrubbed environment,
timed child processes, per-run scratch directories and the check that
no process of a run outlives it."""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".perfbench"
PYTHON = sys.executable

VERIFY = ROOT / "scripts" / "verify.py"
RCD = ROOT / "scripts" / "rcd.py"
FUZZ = ROOT / "scripts" / "fuzz.py"
ENTRY_POINTS = (VERIFY, RCD, FUZZ)

#: the variables that switch the verifier away from its defaults; a
#: timed run must measure the defaults whatever the caller's shell holds
SCRUBBED = ("RC_TRACE", "RC_LEDGER", "RC_COMPILE", "RC_PURE_CACHE")
#: every process a run starts carries this variable, so the run can find
#: any that survive it (daemons and pool workers inherit it)
RUN_MARK = "PERFBENCH_RUN"

#: a user command still running after this long is hung: it is killed
#: and its operations count as failed (one normally takes 0.5-3 s)
CHILD_TIMEOUT_S = 40.0


class BenchError(Exception):
    """The benchmark cannot run here (a missing entry point, a daemon
    that would not start or stop); no result is printed."""


def require_checkout() -> None:
    missing = [p for p in ENTRY_POINTS if not p.is_file()]
    if missing or not (ROOT / "src" / "repro").is_dir():
        raise BenchError("not a checkout of the verifier: missing "
                         + ", ".join(str(p.relative_to(ROOT))
                                     for p in missing or [ROOT / "src"]))


class Run:
    """One benchmark run: its scratch directory, its environment and the
    processes it started."""

    def __init__(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        self.mark = uuid.uuid4().hex
        env = {k: v for k, v in os.environ.items()
               if k not in SCRUBBED and k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env[RUN_MARK] = self.mark
        # Temporary files stay in the checkout too, multiprocessing's
        # forkserver socket among them, unless its path would pass the
        # 107-byte AF_UNIX limit (it adds ~33 bytes to this directory).
        if len(str(self.dir)) <= 70:
            env["TMPDIR"] = str(self.dir)
        self.env = env
        self._logs = 0

    def path(self, name: str) -> Path:
        return self.dir / name

    def log_path(self, tag: str) -> Path:
        self._logs += 1
        return self.dir / f"{self._logs:05d}-{tag}.log"

    def close(self) -> list[int]:
        """Kill and reap whatever this run left behind; return the pids
        that had to be killed, then remove the scratch directory."""
        survivors = self.survivors(grace_s=5.0)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if survivors:
            wait_gone(survivors, 10.0)
        shutil.rmtree(self.dir, ignore_errors=True)
        return survivors

    def survivors(self, grace_s: float = 0.0) -> list[int]:
        """Live processes (not this one) that carry the run mark, after
        waiting up to ``grace_s`` for them to exit by themselves."""
        deadline = time.monotonic() + grace_s
        while True:
            alive = marked_processes(self.mark)
            if not alive or time.monotonic() >= deadline:
                return alive
            time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def marked_processes(mark: str) -> list[int]:
    needle = f"{RUN_MARK}={mark}".encode()
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as f:
                env = f.read()
        except OSError:
            continue
        if needle in env.split(b"\0") and _alive(int(entry)):
            out.append(int(entry))
    return sorted(out)


def wait_gone(pids, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not any(_alive(p) for p in pids):
            return True
        time.sleep(0.02)
    return not any(_alive(p) for p in pids)


def peak_rss_mb(pid: int) -> float:
    """A live process's resident high-water mark (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


@dataclass
class Child:
    """A finished child process."""

    code: int
    wall_s: float          # spawn to exit
    maxrss_mb: float       # largest RSS of the child and its reaped
    #                        descendants (pool workers), from wait4
    out: str
    t_end: float           # perf_counter() once the child was reaped
    timed_out: bool = False

    @property
    def status(self) -> str:
        return "timed out" if self.timed_out else f"exited {self.code}"


def spawn(run: Run, argv: list, tag: str,
          timeout_s: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``argv`` to completion, timing spawn to exit.  Output goes to
    a log file in the run directory (a pipe could stall the child).  A
    child still running after ``timeout_s`` is killed and comes back
    ``timed_out``.  The child finds its spawn time in
    ``PERFBENCH_T_SPAWN``."""
    log = run.log_path(tag)
    env = dict(run.env)
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        env["PERFBENCH_T_SPAWN"] = repr(t0)
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            # wait4 rather than Popen.wait: it also returns the rusage
            # of the child and of the descendants it reaped.
            _pid, status, usage = os.wait4(proc.pid, 0)
            t_end = time.perf_counter()
        finally:
            killer.cancel()
    wall = t_end - t0
    code = os.waitstatus_to_exitcode(status)
    return Child(code=code, wall_s=wall,
                 maxrss_mb=usage.ru_maxrss / 1024.0,
                 out=log.read_text(errors="replace"), t_end=t_end,
                 timed_out=code == -signal.SIGKILL and wall >= timeout_s)


def py(*args) -> list:
    return [PYTHON, *[str(a) for a in args]]


# ---------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    """The ``q`` quantile by linear interpolation between order
    statistics (q=0.9 of 100 values leaves 10 above it)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
