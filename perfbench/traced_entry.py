"""Run one of the verifier's entry scripts in this process, traced.

    python3 perfbench/traced_entry.py --out DIR SCRIPT [ARGS ...]

Loads ``SCRIPT`` (``scripts/verify.py``, ``scripts/fuzz.py`` or
``scripts/rcd.py``) as a module, times that load as the start-up span,
installs the layer wrappers of :mod:`spans`, calls the script's
``main(ARGS)`` and writes the spans to ``DIR/main-<pid>.json``; forked
pool workers write ``DIR/worker-<pid>.json``.  The exit code is the
script's.  ``PERFBENCH_T_SPAWN`` (the parent's ``perf_counter`` at
spawn time) dates the interpreter start.
"""

import time

T_FIRST = time.perf_counter()

import importlib.util  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, instrument  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--out":
        print(__doc__, file=sys.stderr)
        return 2
    out, script, script_args = Path(args[1]), Path(args[2]), args[3:]
    rec = Recorder(out)
    t_spawn = float(os.environ.get("PERFBENCH_T_SPAWN", T_FIRST))
    rec.marks["t_spawn"] = t_spawn
    rec.marks["t_first"] = T_FIRST

    t0 = time.perf_counter()
    spec = importlib.util.spec_from_file_location("perfbench_entry", script)
    entry = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_entry"] = entry
    sys.argv = [str(script), *script_args]
    spec.loader.exec_module(entry)
    t1 = time.perf_counter()
    rec.add_span("startup.import", t0, t1)
    instrument(rec, extra_modules=[entry])
    rec.add_span("harness.instrument", t1, time.perf_counter())

    try:
        code = entry.main(script_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        rec.marks["t_end"] = time.perf_counter()
        rec.dump("main")
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    raise SystemExit(main())
