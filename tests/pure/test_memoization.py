"""Observational purity of the memoized pure-solver pipeline.

The hash-consed term engine and its caches (simplify / linarith / lists /
sets / prove, plus the compiled forms stamped onto interned nodes) must
be invisible: every answer served warm must equal the answer a cold
computation gives after :func:`clear_pure_caches`, on fresh copies of the
inputs that carry no compiled forms.  These properties drive randomly
generated terms (the strategies from ``test_properties``) through both —
plus structural ``==``/hash preservation through interning and
``Subst.resolve`` round-trips.
"""

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.pure import simplify, simplify_hyp  # noqa: E402
from repro.pure import terms as T  # noqa: E402
from repro.pure.linarith import implies_linear  # noqa: E402
from repro.pure.memo import clear_pure_caches  # noqa: E402
from repro.pure.solver import PureSolver  # noqa: E402
from repro.pure.terms import Subst, fresh_evar  # noqa: E402

from .test_properties import bool_terms, int_terms  # noqa: E402


@pytest.fixture(autouse=True)
def _cold_start():
    """Each test starts with cold caches."""
    clear_pure_caches()
    yield


def warm_and_cold(fn, *args):
    """``fn(*args)`` served from warmed caches, and computed cold on
    re-interned copies of ``args`` after every cache was dropped."""
    fn(*args)
    warm = fn(*args)
    clear_pure_caches()
    cold = fn(*pickle.loads(pickle.dumps(args)))
    return warm, cold


# ---------------------------------------------------------------------
# warm == cold

@settings(max_examples=80, deadline=None)
@given(t=st.one_of(int_terms, bool_terms))
def test_simplify_agrees_with_cache_free(t):
    cached, reference = warm_and_cold(simplify, t)
    assert cached == reference
    assert hash(cached) == hash(reference)


@settings(max_examples=60, deadline=None)
@given(t=bool_terms)
def test_simplify_hyp_agrees_with_cache_free(t):
    cached, reference = warm_and_cold(simplify_hyp, t)
    assert cached == reference


@settings(max_examples=60, deadline=None)
@given(hyps=st.lists(bool_terms, max_size=3), goal=bool_terms)
def test_implies_linear_agrees_with_cache_free(hyps, goal):
    cached, reference = warm_and_cold(implies_linear, hyps, goal)
    assert cached is reference


@settings(max_examples=40, deadline=None)
@given(hyps=st.lists(bool_terms, max_size=2), goal=bool_terms)
def test_prove_agrees_with_cache_free(hyps, goal):
    cached, reference = warm_and_cold(
        lambda h, g: PureSolver().prove(h, g), hyps, goal)
    assert cached.outcome == reference.outcome
    assert cached.solver == reference.solver


@settings(max_examples=40, deadline=None)
@given(t=bool_terms)
def test_repeat_simplify_is_memoized(t):
    """The second simplify of a compound term is a cache hit — it
    returns the pointer-identical object."""
    first = simplify(t)
    second = simplify(t)
    assert first == second
    if isinstance(t, T.App):
        assert first is second


# ---------------------------------------------------------------------
# interning: == / hash through Subst.resolve round-trips

@settings(max_examples=80, deadline=None)
@given(t=int_terms)
def test_resolve_round_trip_preserves_identity(t):
    ev = fresh_evar(T.Sort.INT, "n")
    s = Subst()
    s.bind_evar(ev, t)
    assert s.resolve(ev) == t
    assert hash(s.resolve(ev)) == hash(t)
    # Resolving a compound containing the evar equals building the
    # compound from the binding directly — interning keeps both routes on
    # the same structural value (and the same object).
    compound = T.add(ev, T.intlit(1))
    expected = T.add(t, T.intlit(1))
    resolved = s.resolve(compound)
    assert resolved == expected
    assert hash(resolved) == hash(expected)
    assert resolved is expected


@settings(max_examples=60, deadline=None)
@given(t=st.one_of(int_terms, bool_terms))
def test_pickle_round_trip_reinterns(t):
    """Un-pickling re-interns: the copy is equal, equi-hashed, and
    pointer-identical to the original."""
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t
    assert hash(copy) == hash(t)
    assert copy is t
