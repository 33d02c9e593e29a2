"""Telemetry for the compiled forms of the pure engine's hot loops.

Where :mod:`repro.pure.memo` makes repeated work cheap by *caching*,
the pure engine makes first-time work cheap by *compiling*: the rule
registry snapshots its wildcard-resolution order into a flat dispatch
table, ``simplify`` runs per-operator closures and stores results on
the interned term nodes themselves, and linear arithmetic runs Gaussian
and Fourier--Motzkin elimination on integer rows.

:func:`compiled_count` counts term nodes whose compiled form (normal
form, hypothesis decomposition, or linear row) was computed and attached
to the node.  Like ``intern_count`` it feeds a per-function metric
(``terms_compiled``) that is excluded from ``Stats.counters()``: it
depends on how warm the caches are, which results never do.
"""

from __future__ import annotations

_TERMS_COMPILED = 0


def note_compiled(n: int = 1) -> None:
    """Record that a term node's compiled form was just materialised."""
    global _TERMS_COMPILED
    _TERMS_COMPILED += n


def compiled_count() -> int:
    """Total compiled-form materialisations in this process (telemetry)."""
    return _TERMS_COMPILED
