"""Differential tests: the pure engine == the interpreted reference.

The engine's hot loops run in compiled form — ``simplify``'s per-operator
closures stamped onto interned nodes, ``simplify_hyp``'s cached
decompositions, and integer-row Gaussian/Fourier–Motzkin elimination.
The interpreted reference they replaced (an if-chain simplifier and a
``Fraction``-valued FM) is kept as data: ``tests/golden/pure_table.json``
holds its answers on a seeded term sample, every "don't know" included.
Each test rebuilds the sample, checks the inputs still match the
recorded ones (so the generator cannot drift silently), and compares
the engine's answers entry by entry.  This is the one place the table
is compared.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.pure import simplify  # noqa: E402

from ..golden import golden_script, recorded  # noqa: E402
from .test_properties import bool_terms, int_terms  # noqa: E402


def _cases(kind):
    """``(inputs, recorded row)`` of every table entry of ``kind``."""
    g = golden_script()
    rows = recorded(g.PURE_TABLE)["cases"]
    cases = g.pure_cases(recorded(g.PURE_TABLE)["seed"], len(rows))
    assert len(cases) == len(rows)
    out = []
    for (k, terms), row in zip(cases, rows):
        assert k == row["kind"] and [repr(t) for t in terms] == row["in"]
        if k == kind:
            out.append((terms, row))
    assert out
    return out


def _check(kind):
    g = golden_script()
    for terms, row in _cases(kind):
        got = g.answer(kind, terms)
        assert got == row["out"], f"{kind}({row['in']}): {got} != {row['out']}"


def test_simplify_matches_interpreter():
    _check("simplify")


def test_simplify_hyp_matches_interpreter():
    _check("simplify_hyp")


def test_implies_linear_matches_interpreter():
    """Entailment verdicts must agree — including every "don't know"."""
    _check("implies_linear")


@settings(max_examples=40, deadline=None)
@given(t=st.one_of(int_terms, bool_terms))
def test_compiled_simplify_is_idempotent(t):
    """The node-stamped normal form is a fixpoint."""
    s = simplify(t)
    assert simplify(s) == s
