"""Seeded benchmark inputs with known answers.

Everything the workloads feed the verifier is made here from one seed:

* the ``ci_full`` tree: the 14 case studies (known: verified), a
  stratified draw of generated programs from the fuzz templates
  (designed sound, known: verified) and one designed-unsound mutant of
  each (known: rejected);
* the ``edit_loop`` tree (case studies plus a smaller draw) and its edit
  script: a repeating block of a comment-only edit, a template
  re-parameterisation, a mutant swap and its restore;
* ``manifest.json``: the known answer of every file and every edit.

The draw is stratified: every template contributes the same number of
programs, and mutant kinds rotate in a fixed order, so the amount of
work barely depends on the seed and only the template parameters vary.
The same seed gives byte-identical output.

Run:  python3 perfbench/inputs.py --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASESTUDIES = ROOT / "examples" / "casestudies"

#: generated programs per template in the ci_full tree (plus as many
#: mutants); ten templates make 60 + 60 generated files
CI_PER_TEMPLATE = 6
#: generated programs per template in the edit_loop tree
EDIT_PER_TEMPLATE = 2
#: length of the edit script; a run makes only its first
#: ``--seconds / EDIT_S`` edits (see workloads.py)
EDIT_SCRIPT_LEN = 600
#: the edit kinds of one block, in order; every block starts and ends
#: with every file in its designed-sound state
EDIT_BLOCK = ("comment", "reparam", "mutant", "restore")

VERIFIED = "verified"
REJECTED = "rejected"


def _generator():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.fuzz import generator
    return generator


def _stem(*parts) -> str:
    return "_".join(str(p) for p in parts).replace("-", "_")


def casestudy_files() -> list[Path]:
    return sorted(CASESTUDIES.glob("*.c"))


def _draw(gen, seed: int, per_template: int, salt: str) -> list:
    """``per_template`` programs of every template, in template order,
    each from its own ``Random`` stream."""
    out = []
    for name in gen.DEFAULT_TEMPLATES:
        template = gen.TEMPLATES[name]
        for k in range(per_template):
            rng = random.Random(f"{seed}:{salt}:{name}:{k}")
            out.append(template.build(template.sample_params(rng), k))
    return out


def ci_tree(seed: int) -> tuple[dict[str, str], dict[str, dict]]:
    """(file name -> text, file name -> known answer) of the ci_full
    tree."""
    gen = _generator()
    files: dict[str, str] = {}
    answers: dict[str, dict] = {}
    for p in casestudy_files():
        files[p.name] = p.read_text()
        answers[p.name] = {"expect": VERIFIED, "kind": "casestudy"}
    for prog in _draw(gen, seed, CI_PER_TEMPLATE, "ci-tree"):
        k = prog.index
        name = _stem("gen", prog.template, k) + ".c"
        files[name] = prog.source
        answers[name] = {"expect": VERIFIED, "kind": "program",
                         "template": prog.template, "params": prog.params}
        mutant = prog.mutants[k % len(prog.mutants)]
        mname = _stem("mut", prog.template, k, mutant.name) + ".c"
        files[mname] = mutant.source
        answers[mname] = {"expect": REJECTED, "kind": "mutant",
                          "template": prog.template, "params": prog.params,
                          "mutant": mutant.name}
    return files, answers


def edit_tree(seed: int) -> tuple[dict[str, str], dict[str, dict],
                                  list[dict]]:
    """(file name -> text, known answers, edit script) of the edit_loop
    workload.  Every edit names its file, its kind, the full new text
    where the text is not derived from the current one, and the known
    answer of the ``rcd verify`` that follows it."""
    gen = _generator()
    files: dict[str, str] = {}
    answers: dict[str, dict] = {}
    for p in casestudy_files():
        files[p.name] = p.read_text()
        answers[p.name] = {"expect": VERIFIED, "kind": "casestudy"}
    generated: list[str] = []
    params: dict[str, dict] = {}
    for prog in _draw(gen, seed, EDIT_PER_TEMPLATE, "edit-tree"):
        name = _stem("gen", prog.template, prog.index) + ".c"
        files[name] = prog.source
        answers[name] = {"expect": VERIFIED, "kind": "program",
                         "template": prog.template, "params": prog.params}
        generated.append(name)
        params[name] = prog.params
    rng = random.Random(f"{seed}:edit-script")
    everything = sorted(files)
    script: list[dict] = []
    swapped = ""
    while len(script) < EDIT_SCRIPT_LEN:
        kind = EDIT_BLOCK[len(script) % len(EDIT_BLOCK)]
        step = {"step": len(script), "kind": kind}
        if kind == "comment":
            step.update(file=everything[rng.randrange(len(everything))],
                        expect=VERIFIED)
        elif kind == "reparam":
            name = generated[rng.randrange(len(generated))]
            template = gen.TEMPLATES[answers[name]["template"]]
            new = template.sample_params(rng)
            params[name] = new
            step.update(file=name, params=new, text=template.source(new),
                        expect=VERIFIED)
        elif kind == "mutant":
            swapped = generated[rng.randrange(len(generated))]
            template = gen.TEMPLATES[answers[swapped]["template"]]
            mutants = template.mutants(params[swapped])
            mutant = mutants[rng.randrange(len(mutants))]
            step.update(file=swapped, mutant=mutant.name,
                        text=mutant.source, expect=REJECTED)
        else:
            template = gen.TEMPLATES[answers[swapped]["template"]]
            step.update(file=swapped,
                        text=template.source(params[swapped]),
                        expect=VERIFIED)
        script.append(step)
    return files, answers, script


#: the comment-only edit: rewrite a trailing marker comment, so the text
#: changes while no function's body or spec does
EDIT_MARKER = "// perfbench edit "


def comment_edit(text: str, step: int) -> str:
    lines = text.rstrip("\n").split("\n")
    if lines and lines[-1].startswith(EDIT_MARKER):
        lines.pop()
    return "\n".join(lines) + f"\n{EDIT_MARKER}{step}\n"


def _write_tree(out: Path, files: dict[str, str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        (out / name).write_text(text)


def write_inputs(seed: int, out: Path) -> dict:
    """Write ``ci/``, ``edit/``, ``edit_script.json`` and
    ``manifest.json`` under ``out`` (replacing what is there); return
    the manifest."""
    if out.exists():
        shutil.rmtree(out)
    ci_files, ci_answers = ci_tree(seed)
    ed_files, ed_answers, script = edit_tree(seed)
    _write_tree(out / "ci", ci_files)
    _write_tree(out / "edit", ed_files)
    (out / "edit_script.json").write_text(
        json.dumps(script, indent=1, sort_keys=True) + "\n")
    manifest = {"seed": seed, "ci": ci_answers, "edit": ed_answers,
                "edit_steps": len(script)}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.
                                 RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    manifest = write_inputs(args.seed, args.out)
    print(f"seed {args.seed}: {len(manifest['ci'])} ci_full files, "
          f"{len(manifest['edit'])} edit_loop files, "
          f"{manifest['edit_steps']} edit steps -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
