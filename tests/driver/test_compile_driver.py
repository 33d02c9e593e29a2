"""End-to-end: the pure engine reproduces the interpreted reference.

The interpreted reference engine (if-chain simplifier, ``Fraction``
Fourier–Motzkin, no flat rule table) is gone; its per-function
fingerprints — outcome, ``Stats.counters()`` and exact error text —
live on in ``tests/golden/fingerprints.json``, recorded when every
pure-cache/compile setting still gave byte-identical results.  The
compiled forms may only surface in the (non-counter) telemetry fields
``dispatch_table_hits`` / ``terms_compiled``.

This file is the one place ``fingerprints.json`` is compared: every case
study and every corpus program, row by row."""

import pytest

from repro.frontend import verify_file, verify_source
from repro.pure.memo import clear_pure_caches
from repro.report import casestudies_dir

from ..golden import fingerprint_rows, golden_script, recorded
from .conftest import study_path


def _golden():
    return recorded(golden_script().FINGERPRINTS)


STUDIES = sorted(_golden()["casestudies"])


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_pure_caches()


def test_golden_covers_every_case_study():
    assert STUDIES == sorted(p.stem for p in casestudies_dir().glob("*.c"))


@pytest.mark.parametrize("study", STUDIES)
def test_compiled_equals_interpreted(study):
    out = verify_file(study_path(study))
    assert fingerprint_rows(out) == _golden()["casestudies"][study]


def test_compiled_equals_interpreted_on_failure():
    """Error text is fingerprint-relevant: every fuzz-corpus program —
    the rejected mutants among them — reports the recorded diagnostic."""
    golden = _golden()["corpus"]
    sources = golden_script().corpus_sources()
    assert [stem for stem, _src in sources] == sorted(golden)
    rejected = 0
    for stem, source in sources:
        out = verify_source(source, study=stem)
        assert fingerprint_rows(out) == golden[stem], stem
        rejected += not out.ok
    assert rejected


def test_compile_telemetry_is_populated():
    out = verify_file(study_path("mpool"))
    m = out.metrics
    assert m.dispatch_table_hits > 0
    assert m.terms_compiled > 0
    assert m.dispatch_table_hits == sum(f.dispatch_table_hits
                                        for f in m.functions)
    assert m.terms_compiled == sum(f.terms_compiled for f in m.functions)
