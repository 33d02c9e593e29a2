"""The three workloads, each driven through the entry point a user types.

``ci_full``        fresh ``scripts/verify.py --full --jobs <cpus>`` runs
                   over the seeded CI tree;
``edit_loop``      ``scripts/rcd.py start``, an initial ``rcd verify``,
                   then one closed-loop client: edit a file, run a fresh
                   ``rcd verify <file> --json``, wait, repeat;
``fuzz_campaign``  fresh ``scripts/fuzz.py --count N --seed S --jobs 1``
                   campaigns.

Every operation's verdict is compared with its known answer.  A workload
returns a :class:`Result`; with ``trace`` it measures the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import layers
from harness import (FUZZ, RCD, ROOT, VERIFY, BenchError, Run, median,
                     peak_rss_mb, py, quantile, spawn, wait_gone)
from inputs import REJECTED, VERIFIED, comment_edit, write_inputs

TRACED_ENTRY = Path(__file__).resolve().parent / "traced_entry.py"

#: timed ``--help`` (or daemon start) repetitions behind ``setup_s``
HELP_REPS = 5
DAEMON_SETUP_REPS = 3
#: repetitions of each start-up control in a traced run
CONTROL_REPS = 5
#: fewest samples a run reports a median over
MIN_REPS = 3
#: the nominal wall of one edit and its ``rcd verify``: a run makes
#: ``seconds / EDIT_S`` edits, in whole blocks of the edit script, so
#: the edits it makes depend on --seed and --seconds, never on how fast
#: it ran
EDIT_S = 0.65
#: programs per fuzz campaign, and the nominal wall of one campaign: a
#: run makes ``seconds / FUZZ_CAMPAIGN_S`` campaigns, each on its own
#: seed, so the programs it decides depend on --seed and --seconds,
#: never on how fast it ran
FUZZ_COUNT = 64
FUZZ_CAMPAIGN_S = 3.0
#: programs of the untimed warm-up campaign
WARM_UP_COUNT = 8
DAEMON_TIMEOUT_S = 30.0


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    report: list = field(default_factory=list)    # lines for stdout
    notes: list = field(default_factory=list)     # what went wrong
    halted: bool = False    # a command hung: start no more of them

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.notes.append(why)

    def wrong(self, why: str) -> None:
        self.correct = False
        self.notes.append(why)


def cpus() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------
# Start-up: setup_s and the per-layer controls.
# ---------------------------------------------------------------------

def help_walls(res: Result, run: Run, script: Path,
               reps: int) -> list[float]:
    """Walls of ``script --help``: interpreter start plus every import
    of the entry point, exiting before any work.  One untimed warm-up
    first, so byte-code compilation of a fresh checkout is not timed."""
    walls = []
    for i in range(reps + 1):
        child = spawn(run, py(script, "--help"), "help")
        if child.code != 0:
            res.wrong(f"{script.name} --help {child.status}")
            break
        if i:
            walls.append(child.wall_s)
    return walls


def startup_controls(res: Result, run: Run, script: Path) -> dict:
    def walls(argv) -> list[float]:
        out = []
        for _ in range(CONTROL_REPS):
            child = spawn(run, argv, "control")
            if child.code != 0:
                res.wrong(f"control {argv[1:]} {child.status}")
                break
            out.append(child.wall_s)
        return out

    interp = median(walls(py("-c", "pass")))
    entry = median(help_walls(res, run, script, CONTROL_REPS))
    client = median(walls(py("-c", "import repro.serve.client")))
    return {"startup.interpreter_s": interp,
            "startup.import_s": entry - interp,
            "startup.client_import_s": client - interp}


def e2e_metrics(walls: list[float], rates: list[float], setup: float,
                rss: float) -> dict:
    """The end-to-end metrics every workload reports.  ``walls`` are
    the latencies of the workload's user command (one verify.py run, one
    edit through rcd verify, one fuzz.py campaign); ``rates`` are
    verdicts decided per second of command wall."""
    return {"cmd_p50_s": (median(walls), "s"),
            "cmd_p90_s": (quantile(walls, 0.9), "s"),
            "decided_per_s": (median(rates), "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss, "MiB")}


def _samples_line(what: str, walls: list[float]) -> str:
    beyond = sum(1 for w in walls if w > quantile(walls, 0.9))
    return (f"{len(walls)} {what}: p50 {median(walls):.4f}s, p90 "
            f"{quantile(walls, 0.9):.4f}s ({beyond} beyond), min "
            f"{min(walls):.4f}s, max {max(walls):.4f}s")


def _traced_argv(dump_dir: Path, script: Path, *args) -> list:
    return py(TRACED_ENTRY, "--out", dump_dir, script, *args)


def _median_of(samples: list[dict]) -> dict:
    return {k: median([s[k] for s in samples]) for k in samples[0]}


# ---------------------------------------------------------------------
# ci_full.
# ---------------------------------------------------------------------

def _check_ci(res: Result, child, telemetry: Path, answers: dict) -> None:
    res.attempted += len(answers)
    if child.code not in (0, 1) or not telemetry.is_file():
        res.fail(len(answers), f"verify.py {child.status}")
        res.halted = res.halted or child.timed_out
        return
    data = json.loads(telemetry.read_text())
    telemetry.unlink()
    files = data.get("files", {})
    wrong = [name for name, want in answers.items()
             if files.get(Path(name).stem, {}).get("ok")
             is not (want["expect"] == VERIFIED)]
    res.fail(len(wrong), f"wrong verdicts: {wrong[:5]}")
    want_code = 1 if any(a["expect"] == REJECTED
                         for a in answers.values()) else 0
    if child.code != want_code:
        res.fail(1, f"verify.py exit code {child.code}, want {want_code}")
    tot = data.get("totals", {})
    if data.get("mode") != "full" or tot.get("clean") or tot.get("reused"):
        res.wrong("ci_full did not bypass the result cache")


def ci_full(run: Run, seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    manifest = write_inputs(seed, run.path("inputs"))
    tree = run.path("inputs") / "ci"
    answers = manifest["ci"]
    telemetry = run.path("verify.json")
    args = ["--full", "--jobs", str(cpus()), "--json", telemetry,
            *[tree / name for name in sorted(answers)]]
    res.report.append(f"ci_full: {len(answers)} files, jobs {cpus()}")
    if trace:
        return _traced_in_process(run, res, VERIFY, seconds, MIN_REPS,
                                  lambda i: args,
                                  lambda child: _check_ci(res, child,
                                                          telemetry,
                                                          answers),
                                  bypass=_ci_bypass)
    cache_before = (ROOT / ".rc-cache").exists()
    setup = median(help_walls(res, run, VERIFY, HELP_REPS))
    # one untimed run first: the pool's modules and the tree are cold
    _check_ci(res, spawn(run, py(VERIFY, *args), "warm-up"), telemetry,
              answers)
    walls, rss = [], []
    t_end = time.perf_counter() + seconds
    while not res.halted and (len(walls) < MIN_REPS
                              or time.perf_counter() < t_end):
        child = spawn(run, py(VERIFY, *args), "verify")
        _check_ci(res, child, telemetry, answers)
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
    if (tree / ".rc-cache").exists() or (
            not cache_before and (ROOT / ".rc-cache").exists()):
        res.wrong("ci_full created a result cache")
    res.metrics = e2e_metrics(walls, [len(answers) / w for w in walls],
                              setup, median(rss))
    if walls:
        res.report.append(_samples_line("verify.py runs", walls))
    return res


def _ci_bypass(res: Result, values: dict) -> None:
    calls = values["cache.hits"] + values["cache.misses"]
    if calls or values["cache.put_s"]:
        res.wrong(f"ci_full made {calls} ResultCache lookups; predicted 0")


# ---------------------------------------------------------------------
# fuzz_campaign.
# ---------------------------------------------------------------------

def _check_fuzz(res: Result, child, stats_path: Path,
                count: int = FUZZ_COUNT) -> int:
    """Check the stats of one campaign of ``count`` programs; return
    programs plus mutants decided."""
    if child.code not in (0, 1) or not stats_path.is_file():
        res.attempted += count
        res.fail(count, f"fuzz.py {child.status}")
        res.halted = res.halted or child.timed_out
        return 0
    s = json.loads(stats_path.read_text())
    stats_path.unlink()
    decided = s["programs"] + s["mutants"]
    res.attempted += decided
    failed_before = res.failed
    res.fail(s["rejected"], "a designed-sound program was rejected")
    res.fail(s["checker_crashes"] + s["mutant_crashes"], "checker crashes")
    res.fail(s["exec_errors"], "execution errors")
    res.fail(s["ub_violations"] + s["spec_violations"],
             "soundness violations")
    res.fail(s["survivors_demonstrated"] + s["survivors_undemonstrated"],
             "surviving mutants")
    if s["programs"] != count:
        res.fail(count - s["programs"], "campaign cut short")
    if child.code != 0 and res.failed == failed_before:
        res.fail(1, f"fuzz.py exited {child.code} with clean stats")
    if s.get("pool_batches", 0):
        res.wrong("fuzz_campaign used the process pool; predicted not")
    return decided


def fuzz_campaign(run: Run, seed: int, seconds: float,
                  trace: bool) -> Result:
    res = Result()
    stats_path = run.path("fuzz.json")
    campaigns = max(MIN_REPS, round(seconds / FUZZ_CAMPAIGN_S))

    def args(i: int, count: int = FUZZ_COUNT) -> list:
        # the campaign seeds of a run all derive from the run seed
        return ["--count", str(count), "--seed", str(seed * 1000 + i),
                "--jobs", "1", "--stats", stats_path]

    if trace:
        # each pair runs one campaign twice, untraced and traced
        pairs = max(MIN_REPS, campaigns // 2)
        res.report.append(f"fuzz_campaign: {pairs} campaigns of "
                          f"{FUZZ_COUNT} programs")
        return _traced_in_process(run, res, FUZZ, 0.0, pairs, args,
                                  lambda child: _check_fuzz(res, child,
                                                            stats_path),
                                  bypass=_fuzz_bypass)
    res.report.append(f"fuzz_campaign: {campaigns} campaigns of "
                      f"{FUZZ_COUNT} programs")
    setup = median(help_walls(res, run, FUZZ, HELP_REPS))
    # one small untimed campaign first, on a seed no timed one uses
    _check_fuzz(res, spawn(run, py(FUZZ, *args(campaigns, WARM_UP_COUNT)),
                           "warm-up"), stats_path, WARM_UP_COUNT)
    walls, rates, rss = [], [], []
    while not res.halted and len(walls) < campaigns:
        child = spawn(run, py(FUZZ, *args(len(walls))), "fuzz")
        decided = _check_fuzz(res, child, stats_path)
        walls.append(child.wall_s)
        rates.append(decided / child.wall_s)
        rss.append(child.maxrss_mb)
    res.metrics = e2e_metrics(walls, rates, setup, median(rss))
    if walls:
        res.report.append(_samples_line("fuzz.py campaigns", walls))
    return res


def _fuzz_bypass(res: Result, values: dict) -> None:
    if values["pool.tasks"]:
        res.wrong(f"fuzz_campaign sent {values['pool.tasks']:.0f} tasks "
                  "to the pool; predicted 0")


# ---------------------------------------------------------------------
# Traced in-process runs (ci_full, fuzz_campaign).
# ---------------------------------------------------------------------

def _traced_in_process(run: Run, res: Result, script: Path,
                       seconds: float, pairs: int, args_of, check,
                       bypass) -> Result:
    """Run pairs of an untraced and a traced run of the same operation:
    at least ``pairs`` of them, and more until ``seconds`` have passed;
    the layer metrics are medians over the traced runs."""
    controls = startup_controls(res, run, script)
    plain, traced, samples = [], [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while not res.halted and (i < pairs or time.perf_counter() < t_end):
        argv = args_of(i)
        dump_dir = run.path(f"spans-{i}")
        pair = [("plain", py(script, *argv), plain),
                ("traced", _traced_argv(dump_dir, script, *argv), traced)]
        # alternate which side of a pair runs first
        for tag, cmd, walls in pair[::-1] if i % 2 else pair:
            child = spawn(run, cmd, tag)
            check(child)
            walls.append(child.wall_s)
            if res.halted:
                break
        if res.halted:
            break
        samples.append(layers.in_process_metrics(layers.Dumps(dump_dir)))
        shutil.rmtree(dump_dir)
        i += 1
    values = layers.zero_metrics()
    if samples:
        values.update(_median_of(samples))
        values["trace.overhead"] = median(traced) / median(plain)
    values.update(controls)
    bypass(res, values)
    res.metrics = {k: (v, layers.UNITS[k]) for k, v in values.items()}
    res.report.append(f"traced {len(traced)} / untraced {len(plain)} "
                      f"runs: median wall {median(traced):.4f}s traced, "
                      f"{median(plain):.4f}s untraced")
    return res


# ---------------------------------------------------------------------
# edit_loop.
# ---------------------------------------------------------------------

class Daemon:
    """One daemon over one tree: started with ``rcd start`` (or hosted
    by the traced entry), stopped with ``rcd stop``."""

    def __init__(self, run: Run, tree: Path,
                 client_dumps: Path | None = None) -> None:
        self.run = run
        self.tree = tree
        self.client_dumps = client_dumps   # trace each rcd verify here
        self.state = tree / ".rc-serve.json"
        self.pid = 0
        self.host = None     # a traced host we spawned ourselves

    def common(self) -> list:
        return ["--root", self.tree, "--state", self.state]

    def start(self) -> None:
        child = spawn(self.run, py(RCD, "start", *self.common()), "start")
        if child.code != 0:
            raise BenchError(f"rcd start {child.status}: {child.out}")
        self.pid = json.loads(self.state.read_text())["pid"]

    def host_traced(self, dump_dir: Path) -> None:
        """Host the daemon in a traced entry process of our own."""
        log = open(self.run.log_path("host"), "wb")
        self.host = subprocess.Popen(
            _traced_argv(dump_dir, RCD, "start", "--foreground",
                         *self.common()),
            cwd=ROOT, env=self.run.env, stdout=log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        log.close()
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while not self.state.exists():
            if self.host.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("traced daemon did not come up")
            time.sleep(0.01)
        self.pid = self.host.pid

    def verify(self, *stems, dump_dir: Path | None = None) -> tuple:
        """Run ``rcd verify`` (traced into ``dump_dir`` if given);
        return the finished child and its ``--json`` payload."""
        out = self.run.path("rcd.json")
        args = ["verify", *stems, *self.common(), "--json", out]
        argv = py(RCD, *args) if dump_dir is None \
            else _traced_argv(dump_dir, RCD, *args)
        child = spawn(self.run, argv, "rcd-verify")
        payload = json.loads(out.read_text()) if out.is_file() else {}
        if out.is_file():
            out.unlink()
        return child, payload

    def stop(self) -> None:
        if not self.pid:
            return
        spawn(self.run, py(RCD, "stop", *self.common()), "stop")
        if self.host is not None:
            try:
                self.host.wait(DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.host.kill()
                self.host.wait()
                raise BenchError("traced daemon did not stop")
        elif not wait_gone([self.pid], DAEMON_TIMEOUT_S):
            os.kill(self.pid, 9)
            wait_gone([self.pid], DAEMON_TIMEOUT_S)
            raise BenchError(f"daemon {self.pid} did not stop")
        self.pid = 0


def _fresh_tree(run: Run, src: Path, name: str) -> Path:
    tree = run.path(name)
    shutil.copytree(src, tree)
    return tree


def _check_initial(res: Result, child, payload: dict,
                   answers: dict) -> None:
    res.attempted += len(answers)
    files = payload.get("files", {})
    wrong = []
    for name, want in answers.items():
        got = files.get(Path(name).stem)
        if not got or all(f["ok"] for f in got.values()) \
                is not (want["expect"] == VERIFIED):
            wrong.append(name)
    res.fail(len(wrong), f"initial verify ({child.status}): wrong "
             f"verdicts {wrong[:5]}")
    if child.code != 0 and not wrong:
        res.fail(1, f"rcd verify {child.status}")
    res.halted = res.halted or child.timed_out


@dataclass
class Edit:
    latency_s: float      # edit write to the exit of rcd verify
    client_s: float       # spawn to exit of rcd verify
    server_s: float       # the done event's wall
    queue_s: float
    rechecked: int
    client: tuple = ()    # traced client: (accounted s, traced wall s)


def _apply_edit(res: Result, daemon: Daemon, step: dict,
                answers: dict) -> Edit:
    """Make one scripted edit in ``daemon``'s tree, verify the file
    through ``rcd verify`` and check the outcome against the script."""
    path = daemon.tree / step["file"]
    old = path.read_text()
    new = comment_edit(old, step["step"]) \
        if step["kind"] == "comment" else step["text"]
    t0 = time.perf_counter()
    path.write_text(new)
    dump_dir = None
    if daemon.client_dumps is not None:
        dump_dir = daemon.client_dumps / f"client-{step['step']}"
    child, payload = daemon.verify(Path(step["file"]).stem,
                                   dump_dir=dump_dir)
    res.attempted += 1
    summary = payload.get("summary", {})
    want_ok = step["expect"] == VERIFIED
    why = ""
    res.halted = res.halted or child.timed_out
    if child.code != (0 if want_ok else 1) or not summary:
        why = child.status
    elif summary["ok"] is not want_ok:
        why = f"verdict {summary['ok']}, want {want_ok}"
    elif step["kind"] == "comment" and summary["rechecked"]:
        why = f"comment edit re-checked {summary['rechecked']}"
    elif (step["kind"] == "reparam" and new != old
          and answers[step["file"]]["template"] == "call_chain"
          and summary["rechecked"] != summary["functions"]):
        why = (f"call_chain spec change re-checked "
               f"{summary['rechecked']} of {summary['functions']}")
    if why:
        res.fail(1, f"edit {step['step']} ({step['kind']} "
                    f"{step['file']}): {why}")
    edit = Edit(child.t_end - t0, child.wall_s,
                float(summary.get("wall_s", 0.0)),
                float(summary.get("queue_wait_s", 0.0)),
                int(summary.get("rechecked", 0)))
    if dump_dir is not None and not child.timed_out:
        edit.client = layers.process_accounting(layers.Dumps(dump_dir))
        shutil.rmtree(dump_dir)
    return edit


def _edit_count(seconds: float) -> int:
    block = len(inputs.EDIT_BLOCK)
    return block * max(1, round(seconds / (EDIT_S * block)))


def _edit_loop(res: Result, daemons: list, steps: list,
               answers: dict) -> list[list[Edit]]:
    """Apply ``steps`` in order, each to every daemon's tree in turn,
    until they run out or a command hangs.  One list of edits per
    daemon."""
    edits: list[list[Edit]] = [[] for _ in daemons]
    for step in steps:
        for daemon, out in zip(daemons, edits):
            if res.halted:
                return edits
            out.append(_apply_edit(res, daemon, step, answers))
    return edits


def _daemon_setup(res: Result, run: Run, src: Path, answers: dict,
                  name: str) -> tuple[Daemon, float]:
    tree = _fresh_tree(run, src, name)
    daemon = Daemon(run, tree)
    t0 = time.perf_counter()
    try:
        daemon.start()
        child, payload = daemon.verify()
    except BaseException:
        daemon.stop()
        raise
    setup = child.t_end - t0
    _check_initial(res, child, payload, answers)
    return daemon, setup


def edit_loop(run: Run, seed: int, seconds: float, trace: bool) -> Result:
    res = Result()
    manifest = write_inputs(seed, run.path("inputs"))
    src = run.path("inputs") / "edit"
    answers = manifest["edit"]
    script = json.loads((run.path("inputs") / "edit_script.json")
                        .read_text())
    res.report.append(f"edit_loop: {len(answers)} files, edit block "
                      f"{'/'.join(inputs.EDIT_BLOCK)}")
    if trace:
        return _traced_edit_loop(run, res, seconds, src, answers, script)
    setups = []
    for i in range(DAEMON_SETUP_REPS):
        last = i == DAEMON_SETUP_REPS - 1
        daemon, setup = _daemon_setup(res, run, src, answers,
                                      "tree" if last else f"setup-{i}")
        setups.append(setup)
        if last or res.halted:
            break
        daemon.stop()
    try:
        [edits] = _edit_loop(res, [daemon], script[:_edit_count(seconds)],
                             answers)
        rss = peak_rss_mb(daemon.pid)
    finally:
        daemon.stop()
    lat = [e.latency_s for e in edits]
    res.metrics = e2e_metrics(lat, [1.0 / w for w in lat],
                              median(setups), rss)
    if lat:
        res.report.append(_samples_line("edits", lat))
    res.report.append(f"setup: {len(setups)} daemon starts, "
                      + ", ".join(f"{s:.4f}s" for s in setups))
    return res


def _traced_edit_loop(run: Run, res: Result, seconds: float, src: Path,
                      answers: dict, script: list) -> Result:
    """Two daemons on two copies of the tree: a plain ``rcd start`` one
    driven by plain clients, and one hosted by the traced entry and
    driven by traced clients.  Every scripted edit goes to both in turn,
    so both see the same edits under the same load, and the run makes
    half as many edits as an untraced one."""
    controls = startup_controls(res, run, RCD)
    plain, _ = _daemon_setup(res, run, src, answers, "plain")
    dump_dir = run.path("spans")
    traced = Daemon(run, _fresh_tree(run, src, "traced"),
                    client_dumps=run.path("clients"))
    try:
        traced.host_traced(dump_dir)
        child, payload = traced.verify()
        _check_initial(res, child, payload, answers)
        t_edits = time.perf_counter()
        steps = script[:_edit_count(seconds / 2)]
        plain_edits, edits = _edit_loop(res, [plain, traced], steps,
                                        answers)
    finally:
        plain.stop()
        traced.stop()
    if res.halted:
        res.metrics = {k: (v, layers.UNITS[k])
                       for k, v in layers.zero_metrics().items()}
        return res
    dumps = layers.Dumps(dump_dir)
    table = layers.span_table(dumps.processes(), since=t_edits)
    main_table = layers.span_table([dumps.main], since=t_edits)
    values = layers.zero_metrics()
    values.update(layers.metrics_from(
        table, layers.merged_counts(dumps, since=t_edits), main_table))
    values.update(controls)
    # The serve metrics describe the untraced daemon and clients.
    values.update({
        "serve.client_wall_s": median([e.client_s for e in plain_edits]),
        "serve.server_wall_s": median([e.server_s for e in plain_edits]),
        "serve.queue_wait_s": median([e.queue_s for e in plain_edits]),
        "serve.client_overhead_s": median([e.client_s - e.server_s
                                           for e in plain_edits]),
        "serve.rechecked": float(sum(e.rechecked for e in plain_edits)),
        "trace.overhead": median([e.client_s for e in edits])
        / median([e.client_s for e in plain_edits]),
    })
    # An edit's traced wall is its client's (harness spans excluded);
    # the client accounts for its interpreter start and imports, the
    # daemon's layer spans for the rest.
    accounted = sum(e.client[0] for e in edits) \
        + layers.layer_self_s(main_table)
    values["unaccounted_share"] = 1.0 - accounted / sum(
        e.client[1] for e in edits)
    if values["pool.tasks"]:
        res.wrong("edit_loop sent work to a pool at default jobs")
    res.metrics = {k: (v, layers.UNITS[k]) for k, v in values.items()}
    res.report.append(f"{len(edits)} edits to each of a traced and an "
                      "untraced daemon")
    return res


WORKLOADS = {"ci_full": ci_full, "edit_loop": edit_loop,
             "fuzz_campaign": fuzz_campaign}
