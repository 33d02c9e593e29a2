"""The golden files themselves, and the script that writes them.

The row-by-row comparisons live with the behaviour they pin down:
``tests/driver/test_compile_driver.py`` reproduces every fingerprint in
``fingerprints.json`` and ``tests/pure/test_compiled_differential.py``
every answer in ``pure_table.json``.  Both files were recorded with the
earlier interpreted reference engine and came out identical under every
pure-cache/compile setting it had, so those tests are the differential
check against that reference, with the reference kept as data."""

import pytest

from repro.pure.memo import clear_pure_caches

from . import GOLDEN_DIR, golden_script, recorded


@pytest.mark.parametrize("name", ["fingerprints.json", "pure_table.json"])
def test_golden_files_are_canonical(name):
    """Each file is exactly the script's rendering of its content, so
    reproducing every row reproduces the file byte for byte."""
    g = golden_script()
    assert g.render(recorded(name)) == (GOLDEN_DIR / name).read_text()


def test_pure_table_is_warm_cache_independent():
    """Replaying the table on caches the first pass warmed gives the
    same answers as the cold pass."""
    g = golden_script()
    clear_pure_caches()
    cold = g.render(g.pure_table())
    assert g.render(g.pure_table()) == cold


def test_script_check_mode_reports_each_file(monkeypatch, capsys):
    g = golden_script()
    monkeypatch.setattr(g, "fingerprints",
                        lambda: recorded(g.FINGERPRINTS))
    monkeypatch.setattr(g, "pure_table", lambda: recorded(g.PURE_TABLE))
    assert g.main(["--check"]) == 0
    out = capsys.readouterr().out
    assert "fingerprints.json: identical" in out
    assert "pure_table.json: identical" in out

    monkeypatch.setattr(g, "pure_table", lambda: {"seed": 0, "cases": []})
    assert g.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "fingerprints.json: identical" in out
    assert "pure_table.json: DIFFERS" in out
