"""End-to-end observational purity of the pure-stack caches.

The driver must produce byte-identical results — per-function outcome,
``Stats.counters()`` and exact error text — whether the pure engine's
caches are warm or dropped before every function check; the caches may
only surface in the (non-counter) telemetry fields
``solver_cache_hits`` / ``terms_interned``."""

import pytest

import repro.driver.pool as pool
from repro.frontend import verify_file, verify_source
from repro.pure.memo import clear_pure_caches

from ..golden import fingerprint_rows
from .conftest import study_path

STUDIES = ["alloc", "mpool", "binary_search", "hashmap"]


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_pure_caches()


@pytest.fixture
def cold_per_function(monkeypatch):
    """Drop every pure cache right before each function check."""
    check = pool.check_function

    def cold_check(tp, name):
        clear_pure_caches()
        return check(tp, name)

    monkeypatch.setattr(pool, "check_function", cold_check)


def _warm_then_cold(request, run):
    run()                               # warm every cache first
    warm = fingerprint_rows(run())
    request.getfixturevalue("cold_per_function")
    cold = fingerprint_rows(run())
    return warm, cold


@pytest.mark.parametrize("study", STUDIES)
def test_cached_equals_uncached(study, request):
    path = study_path(study)
    warm, cold = _warm_then_cold(request, lambda: verify_file(path))
    assert warm == cold


def test_cached_equals_uncached_on_failure(request):
    src = study_path("alloc").read_text().replace(
        "{n <= a} @ optional", "{n < a} @ optional")
    warm, cold = _warm_then_cold(request, lambda: verify_source(src))
    assert warm == cold
    assert not all(ok for _name, ok, _c, _e in cold)


def test_cache_telemetry_is_populated():
    out = verify_file(study_path("mpool"))
    m = out.metrics
    assert m.terms_interned > 0
    assert m.solver_cache_hits > 0
    assert m.terms_interned == sum(f.terms_interned for f in m.functions)
    assert m.solver_cache_hits == sum(f.solver_cache_hits
                                      for f in m.functions)
