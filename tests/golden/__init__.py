"""Golden behaviour data: the recorded per-function fingerprints and the
seeded pure-engine table (see ``scripts/golden.py``, which writes them
and owns the generators both are rebuilt from)."""

import importlib.util
import json
from functools import lru_cache
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
_SCRIPT = GOLDEN_DIR.parents[1] / "scripts" / "golden.py"


@lru_cache(maxsize=None)
def golden_script():
    """``scripts/golden.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location("script_golden", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@lru_cache(maxsize=None)
def recorded(name: str) -> dict:
    """A golden file, parsed (``fingerprints.json`` / ``pure_table.json``)."""
    return json.loads((GOLDEN_DIR / name).read_text())


def fingerprint_rows(outcome) -> list:
    """An outcome's fingerprint in the golden file's JSON shape."""
    return json.loads(json.dumps(golden_script().fingerprint_rows(outcome)))
