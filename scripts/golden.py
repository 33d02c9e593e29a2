#!/usr/bin/env python3
"""Write or check the golden behaviour files under ``tests/golden/``.

Two files pin the verifier's observable behaviour as data:

* ``fingerprints.json`` — the per-function fingerprint (outcome,
  ``Stats.counters()``, exact error text) of every case study and of
  every fuzz-corpus program (mutant applied), in function order;
* ``pure_table.json`` — a seeded table of ``simplify`` /
  ``simplify_hyp`` / ``implies_linear`` answers over generated terms,
  every "don't know" (``False``) included.

The files were recorded with the earlier interpreted reference
simplifier and the ``Fraction``-valued Fourier--Motzkin, and came out
byte-identical with every pure-cache/compile setting of that engine; the
one pure engine must keep reproducing them byte for byte.  ``--check``
regenerates both in memory and exits 1 on any difference.

Run:  PYTHONPATH=src python scripts/golden.py [--check]
"""

import argparse
import json
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.pure import terms as T                          # noqa: E402
from repro.pure.linarith import implies_linear             # noqa: E402
from repro.pure.simplify import simplify, simplify_hyp     # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"
FINGERPRINTS = "fingerprints.json"
PURE_TABLE = "pure_table.json"

PURE_SEED = 20210620
PURE_CASES = 600


# ---------------------------------------------------------------------
# per-function fingerprints
# ---------------------------------------------------------------------

def fingerprint_rows(outcome) -> list:
    """One ``[name, ok, counters, error text]`` row per function, in the
    result's function order — the behaviour contract of a unit."""
    return [[name, fr.ok, fr.stats.counters(), fr.format_error()]
            for name, fr in outcome.result.functions.items()]


def corpus_sources() -> list:
    """``(entry stem, source)`` for every fuzz-corpus entry, mutant
    applied, in file-name order."""
    from repro.fuzz.corpus import load_corpus
    from repro.fuzz.generator import TEMPLATES

    out = []
    for path, entry in sorted(load_corpus(), key=lambda pe: pe[0].name):
        prog = TEMPLATES[entry.template].build(entry.params)
        source = prog.source
        if entry.mutant is not None:
            source = next(m.source for m in prog.mutants
                          if m.name == entry.mutant)
        out.append((path.stem, source))
    return out


def fingerprints() -> dict:
    """``{"casestudies": {stem: rows}, "corpus": {entry: rows}}``."""
    from repro.frontend import verify_file, verify_source
    from repro.report import casestudies_dir

    studies = {p.stem: fingerprint_rows(verify_file(p))
               for p in sorted(casestudies_dir().glob("*.c"))}
    corpus = {stem: fingerprint_rows(verify_source(src, study=stem))
              for stem, src in corpus_sources()}
    return {"casestudies": studies, "corpus": corpus}


# ---------------------------------------------------------------------
# the seeded pure table
# ---------------------------------------------------------------------

class TermGen:
    """Small random terms over every sort the simplifier rewrites:
    linear integer arithmetic with opaque atoms (min/max/div/mod/len/
    msize/index/head), lists, multisets and a boolean skeleton."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def pick(self, options):
        return self.rng.choice(options)()

    def int_(self, depth: int = 3) -> T.Term:
        r = self.rng
        leaves = [lambda: T.intlit(r.randint(-4, 4)),
                  lambda: T.var(r.choice("abc"))]
        if depth <= 0:
            return self.pick(leaves)
        d = depth - 1
        return self.pick(leaves * 2 + [
            lambda: T.add(self.int_(d), self.int_(d)),
            lambda: T.sub(self.int_(d), self.int_(d)),
            lambda: T.mul(T.intlit(r.randint(-3, 3)), self.int_(d)),
            lambda: T.neg(self.int_(d)),
            lambda: T.app(r.choice(("min", "max")), self.int_(d),
                          self.int_(d)),
            lambda: T.app("div", self.int_(d),
                          r.choice((T.intlit(r.randint(1, 4)),
                                    T.var(r.choice("abc"))))),
            lambda: T.app("mod", self.int_(d), T.intlit(r.randint(1, 4))),
            lambda: T.length(self.list_(d)),
            lambda: T.msize(self.mset(d)),
            lambda: T.app("index", self.list_(d), self.int_(d)),
            lambda: T.app("head", self.list_(d)),
        ])

    def list_(self, depth: int = 2) -> T.Term:
        r = self.rng
        leaves = [lambda: T.nil(),
                  lambda: T.var(r.choice(("xs", "ys")), T.Sort.LIST)]
        if depth <= 0:
            return self.pick(leaves)
        d = depth - 1
        return self.pick(leaves + [
            lambda: T.cons(self.int_(d), self.list_(d)),
            lambda: T.append(self.list_(d), self.list_(d)),
            lambda: T.list_lit(*(self.int_(d)
                                 for _ in range(r.randint(0, 3)))),
            lambda: T.store(self.list_(d), self.int_(d), self.int_(d)),
            lambda: T.app("tail", self.list_(d)),
        ])

    def mset(self, depth: int = 2) -> T.Term:
        r = self.rng
        leaves = [lambda: T.mempty(),
                  lambda: T.var(r.choice(("s", "t")), T.Sort.MSET)]
        if depth <= 0:
            return self.pick(leaves)
        d = depth - 1
        return self.pick(leaves + [
            lambda: T.msingle(self.int_(d)),
            lambda: T.munion(self.mset(d), self.mset(d)),
        ])

    def atom(self) -> T.Term:
        r = self.rng
        return self.pick([
            lambda: T.le(self.int_(), self.int_()),
            lambda: T.lt(self.int_(), self.int_()),
            lambda: T.eq(self.int_(), self.int_()),
            lambda: T.le(self.int_(), self.int_()),
            lambda: T.eq(self.list_(), self.list_()),
            lambda: T.eq(self.mset(), self.mset()),
            lambda: T.mall_ge(self.mset(), self.int_(1)),
            lambda: T.mall_le(self.mset(), self.int_(1)),
            lambda: T.mmember(self.int_(1), self.mset()),
            lambda: T.Lit(r.random() < 0.5),
        ])

    def bool_(self, depth: int = 2) -> T.Term:
        if depth <= 0:
            return self.atom()
        d = depth - 1
        return self.pick([
            self.atom, self.atom, self.atom,
            lambda: T.and_(self.bool_(d), self.bool_(d)),
            lambda: T.or_(self.bool_(d), self.bool_(d)),
            lambda: T.not_(self.bool_(d)),
            lambda: T.implies(self.bool_(d), self.bool_(d)),
        ])

    def linear_atom(self) -> T.Term:
        return self.pick([
            lambda: T.le(self.int_(), self.int_()),
            lambda: T.lt(self.int_(), self.int_()),
            lambda: T.eq(self.int_(), self.int_()),
            lambda: T.not_(T.eq(self.int_(), self.int_())),
        ])

    def linear(self, depth: int = 1) -> T.Term:
        if depth <= 0:
            return self.linear_atom()
        d = depth - 1
        return self.pick([
            self.linear_atom, self.linear_atom,
            lambda: T.and_(self.linear(d), self.linear(d)),
            lambda: T.not_(self.linear(d)),
            lambda: T.implies(self.linear(d), self.linear(d)),
        ])


    def chain(self) -> list:
        """``t0 ≤ t1 ≤ … ≤ tk`` (some steps strict) against a goal about
        ``t0`` and ``tk`` that holds or fails by a small constant."""
        r = self.rng
        ts = [self.int_(1) for _ in range(r.randint(2, 4))]
        hyps = [r.choice((T.le, T.lt))(a, b) for a, b in zip(ts, ts[1:])]
        goal = r.choice((T.le, T.lt))(
            ts[0], T.add(ts[-1], T.intlit(r.randint(-1, 2))))
        return hyps + [goal]

    def opaque(self) -> list:
        """Bounding facts for the opaque atoms (div/mod/min/max/len/
        msize), the nested-entailment axioms of division included."""
        r = self.rng
        a, b, c = (T.var(v) for v in "abc")
        hyps = r.sample([T.le(T.intlit(0), a), T.le(T.intlit(1), b),
                         T.le(b, c), T.lt(a, c), T.le(c, a),
                         T.eq(T.length(T.var("xs", T.Sort.LIST)), a)],
                        r.randint(0, 4))
        x = self.int_(1)
        k = T.intlit(r.randint(1, 4))
        goal = r.choice([
            lambda: T.le(T.app("div", x, k), x),
            lambda: T.le(T.intlit(0), T.app("div", a, b)),
            lambda: T.le(T.app("div", a, b), a),
            lambda: T.lt(T.app("mod", x, k), k),
            lambda: T.le(T.app("min", a, c), T.app("max", b, c)),
            lambda: T.eq(T.app("min", a, c), c),
            lambda: T.le(T.intlit(0), T.add(T.length(self.list_(1)),
                                             T.msize(self.mset(1)))),
            lambda: T.le(T.var("a"), T.length(T.var("xs", T.Sort.LIST))),
        ])()
        return hyps + [goal]

    def dense(self) -> list:
        """8–14 random inequalities over ``a, b, c`` and a goal: systems
        large enough that Fourier–Motzkin's size cut-off decides some
        verdicts (a "don't know" on an unsatisfiable system)."""
        r = self.rng
        vs = [T.var(v) for v in "abc"]

        def row():
            return T.add(*(T.mul(T.intlit(r.randint(-3, 3)), v)
                           for v in vs))
        hyps = [T.le(row(), T.intlit(r.randint(-5, 5)))
                for _ in range(r.randint(8, 14))]
        return hyps + [T.le(row(), T.intlit(r.randint(-3, 6)))]

    def cancel(self) -> T.Term:
        """``(x + y + k) - (y + k')``-shaped terms: the additive
        cancellation rewrite, literal parts included."""
        r = self.rng
        parts = [self.int_(1) for _ in range(r.randint(1, 3))]
        parts.append(T.intlit(r.randint(-4, 4)))
        taken = [p for p in parts if r.random() < 0.6]
        if r.random() < 0.5:
            taken.append(T.intlit(r.randint(-4, 4)))
        if r.random() < 0.2:
            taken.append(self.int_(1))
        return T.sub(T.add(*parts), T.add(*taken) if taken else T.intlit(0))

    def entailment(self) -> list:
        """``hyps + [goal]`` for one ``implies_linear`` query."""
        r = self.rng
        kind = r.randrange(4)
        if kind == 0:
            return self.chain()
        if kind == 1:
            return self.opaque()
        if kind == 2:
            return self.dense()
        hyps = [self.pick([self.linear, self.bool_])
                for _ in range(r.randint(0, 4))]
        return hyps + [self.pick([self.linear, self.bool_])]


def pure_cases(seed: int = PURE_SEED, n: int = PURE_CASES) -> list:
    """The table's inputs: ``(kind, input terms)`` in table order.  Kind
    is ``simplify``, ``simplify_hyp`` or ``implies_linear`` (whose input
    is ``hyps + [goal]``)."""
    gen = TermGen(random.Random(seed))
    cases = []
    for i in range(n):
        kind = ("simplify", "simplify_hyp", "implies_linear")[i % 3]
        if kind == "simplify":
            t = gen.pick([gen.int_, gen.list_, gen.mset, gen.bool_,
                          gen.cancel])
            cases.append((kind, [t]))
        elif kind == "simplify_hyp":
            cases.append((kind, [gen.bool_()]))
        else:
            cases.append((kind, gen.entailment()))
    return cases


def answer(kind: str, terms: list):
    if kind == "simplify":
        return repr(simplify(terms[0]))
    if kind == "simplify_hyp":
        return [repr(h) for h in simplify_hyp(terms[0])]
    return implies_linear(terms[:-1], terms[-1])


def pure_table(seed: int = PURE_SEED, n: int = PURE_CASES) -> dict:
    rows = [{"kind": kind, "in": [repr(t) for t in ts],
             "out": answer(kind, ts)}
            for kind, ts in pure_cases(seed, n)]
    return {"seed": seed, "cases": rows}


# ---------------------------------------------------------------------

def render(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", action="store_true",
                    help="compare against the recorded files; exit 1 on "
                         "any difference")
    args = ap.parse_args(argv)

    produced = {PURE_TABLE: render(pure_table()),
                FINGERPRINTS: render(fingerprints())}
    if not args.check:
        for name, text in produced.items():
            (GOLDEN_DIR / name).write_text(text)
            print(f"wrote {GOLDEN_DIR / name}")
        return 0
    status = 0
    for name, text in produced.items():
        try:
            recorded = (GOLDEN_DIR / name).read_text()
        except OSError:
            recorded = None
        same = recorded == text
        print(f"{name}: {'identical' if same else 'DIFFERS'}")
        status |= not same
    return status


if __name__ == "__main__":
    raise SystemExit(main())
