"""RefinedC (PLDI 2021), reproduced in Python.

The public API mirrors the paper's toolchain (Figure 2):

* :func:`repro.verify_source` / :func:`repro.verify_file` — the whole
  pipeline: annotated C in, verification outcome (with per-function
  statistics and derivations) out.
* :mod:`repro.lang` — the front end (C subset + ``[[rc::...]]``
  annotations → Caesium).
* :mod:`repro.caesium` — the core language: layouts, byte-level memory
  with poison/provenance, interpreter, interleaving scheduler with
  data-race detection.
* :mod:`repro.lithium` — separation-logic programming: the
  non-backtracking, goal-directed proof-search engine.
* :mod:`repro.refinedc` — the refinement/ownership type system and its
  rule library.
* :mod:`repro.pure` — refinement terms and the pure side-condition
  solvers.
* :mod:`repro.proofs` — the foundational substitute: semantic model,
  certificate checking, adequacy testing, manual lemma tables.
* :mod:`repro.report` — the Figure 7 evaluation reporting.

The root names resolve lazily (PEP 562): ``import repro`` loads no
checker module, so the stdlib-only ``rcd`` client path
(:mod:`repro.serve.client`) starts without paying for the checker.
"""

import importlib
import sys

__version__ = "0.1.0"

__all__ = ["VerificationOutcome", "verify_file", "verify_source",
           "__version__"]


def lazy_getattr(package: str, table: dict[str, str]):
    """A PEP 562 module ``__getattr__`` for ``package``: each name in
    ``table`` is imported from its submodule on first use, then cached
    as a plain module attribute."""

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}")
        value = getattr(importlib.import_module(table[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


__getattr__ = lazy_getattr(__name__, {
    "VerificationOutcome": ".frontend", "verify_file": ".frontend",
    "verify_source": ".frontend"})
