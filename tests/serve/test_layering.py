"""Import layering: the client side stays checker-free, the lazy package
roots keep their public API, and the warm pool's workers import nothing
beyond the forkserver preload.

Import state is process-global, so every structural check runs in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.serve
from repro.driver.depgraph import engine_fingerprint
from repro.frontend import verify_source as frontend_verify_source
from repro.report import casestudies_dir

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

#: the checker packages no client-side import may load
CHECKER = ("repro.frontend", "repro.driver", "repro.refinedc",
           "repro.lithium", "repro.pure", "repro.lang")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         cwd=REPO)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def checker_modules(modules: list[str]) -> list[str]:
    return [m for m in modules
            if any(m == c or m.startswith(c + ".") for c in CHECKER)]


def outcome_rows(outcome) -> list:
    return sorted((name, fr.ok, fr.stats.counters())
                  for name, fr in outcome.result.functions.items())


REPRO_MODULES = ("json.dumps(sorted(m for m in sys.modules "
                 "if m.startswith('repro')))")


class TestClientImports:
    def test_client_import_loads_no_checker(self):
        mods = run_fresh("import json, sys\n"
                         "import repro.serve.client\n"
                         f"print({REPRO_MODULES})")
        assert "repro.serve.client" in mods
        assert checker_modules(mods) == []

    def test_rcd_client_path_loads_no_checker(self, tmp_path):
        missing = tmp_path / "no-daemon.json"
        argv = [str(REPO / "scripts" / "rcd.py"), "status",
                "--state", str(missing)]
        result = run_fresh(
            "import json, runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "mods = sorted(m for m in sys.modules "
            "if m.startswith('repro'))\n"
            "print(json.dumps({'code': code, 'mods': mods}))")
        assert result["code"] == 2
        assert "repro.serve.client" in result["mods"]
        assert checker_modules(result["mods"]) == []


class TestLazyRoots:
    def test_root_names_import(self):
        from repro import (VerificationOutcome, __version__, verify_file,
                           verify_source)
        assert __version__ == "0.1.0"
        assert verify_source is frontend_verify_source
        assert callable(verify_file)
        assert isinstance(VerificationOutcome, type)

    def test_root_verify_matches_frontend(self):
        path = casestudies_dir() / "queue.c"
        via_root = repro.verify_source(path.read_text(), study="queue")
        direct = frontend_verify_source(path.read_text(), study="queue")
        assert via_root.ok and direct.ok
        assert outcome_rows(via_root) == outcome_rows(direct)

    def test_serve_star_import_binds_all(self):
        ns: dict = {}
        exec("from repro.serve import *", ns)
        missing = [name for name in repro.serve.__all__ if name not in ns]
        assert missing == []
        from repro.serve.server import ServeConfig
        assert ns["ServeConfig"] is ServeConfig

    @pytest.mark.parametrize("module", [repro, repro.serve],
                             ids=["repro", "repro.serve"])
    def test_unknown_attribute_raises(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name

    def test_engine_fingerprint_is_unchanged_by_laziness(self):
        # A fresh process that never touched the checker must hash the
        # same package sources as this fully loaded one.
        fresh = run_fresh("import json\n"
                          "from repro.driver.depgraph import "
                          "engine_fingerprint\n"
                          "print(json.dumps(engine_fingerprint()))")
        assert fresh == engine_fingerprint()
        assert len(fresh) == 64


class TestWorkerPreload:
    def test_first_task_imports_nothing_new(self):
        """A forkserver worker's first real check loads no ``repro``
        module that :data:`WORKER_PRELOAD` had not already loaded."""
        result = run_fresh(
            "import json, sys\n"
            "from repro.driver.pool import (PoolSession, "
            "_session_worker_check, session_unit_key)\n"
            "from repro.report import casestudies_dir\n"
            "from repro.serve.server import VerifyDaemon\n"
            "ctx = VerifyDaemon._pool_context()\n"
            "if ctx is None:\n"
            "    print(json.dumps(None)); raise SystemExit\n"
            "VerifyDaemon.start_forkserver()\n"
            "src = (casestudies_dir() / 'queue.c').read_text()\n"
            "probe = ('sorted(m for m in __import__(\"sys\").modules '\n"
            "         'if m.startswith(\"repro\"))')\n"
            "with PoolSession(1, mp_context=ctx) as session:\n"
            "    pool = session.executor()\n"
            "    before = pool.submit(eval, probe).result()\n"
            "    fr = pool.submit(_session_worker_check, 'queue',\n"
            "                     session_unit_key('queue', src),\n"
            "                     'enqueue', src, None, False).result()[2]\n"
            "    after = pool.submit(eval, probe).result()\n"
            "print(json.dumps({'ok': fr.ok, 'before': before,\n"
            "                  'after': after}))")
        if result is None:
            return              # no forkserver on this platform
        assert result["ok"] is True
        assert sorted(set(result["after"]) - set(result["before"])) == []
