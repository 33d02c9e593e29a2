"""The benchmark's own checks.

    python3 -m pytest -q perfbench/test_perfbench.py

Seeded inputs are byte-identical per seed and differ across seeds,
every known answer is of the right kind, ``BENCHMARK.json`` has the
benchmark's shape, and the self-time arithmetic is right.
"""

import filecmp
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from inputs import (EDIT_BLOCK, REJECTED, VERIFIED, comment_edit,  # noqa: E402
                    write_inputs)
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def _same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _match, mismatch, errors = filecmp.cmpfiles(
        a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_tree(a / d, b / d) for d in cmp.common_dirs)


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    write_inputs(11, tmp_path / "a")
    write_inputs(11, tmp_path / "b")
    assert _same_tree(tmp_path / "a", tmp_path / "b")


def test_seeds_differ(tmp_path):
    write_inputs(11, tmp_path / "a")
    write_inputs(12, tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "b")


def test_known_answers(tmp_path):
    manifest = write_inputs(SPEC["default_seed"], tmp_path)
    ci = manifest["ci"]
    kinds = {a["kind"] for a in ci.values()}
    assert kinds == {"casestudy", "program", "mutant"}
    for name, a in ci.items():
        want = REJECTED if a["kind"] == "mutant" else VERIFIED
        assert a["expect"] == want, name
        assert (tmp_path / "ci" / name).is_file()
    programs = sum(1 for a in ci.values() if a["kind"] == "program")
    mutants = sum(1 for a in ci.values() if a["kind"] == "mutant")
    assert programs == mutants > 0
    script = json.loads((tmp_path / "edit_script.json").read_text())
    assert [s["kind"] for s in script[:len(EDIT_BLOCK)]] == list(EDIT_BLOCK)
    for step in script:
        assert step["file"] in manifest["edit"]
        want = REJECTED if step["kind"] == "mutant" else VERIFIED
        assert step["expect"] == want


def test_comment_edit_only_touches_the_marker():
    text = "int f(void) { return 0; }\n"
    once = comment_edit(text, 1)
    twice = comment_edit(once, 2)
    assert twice.startswith(text.rstrip("\n"))
    assert twice.count("perfbench edit") == 1 and twice.endswith(" 2\n")


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(SPEC["layers"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "setup_s" in e2e and all(
        0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_self_time_subtracts_children():
    proc = {"threads": [[("pool.run_units", 0.0, 10.0, -1),
                         ("lithium.check", 1.0, 5.0, 0),
                         ("pure.prove.default", 2.0, 3.0, 1),
                         ("harness.x", 6.0, 7.0, 0)]]}
    table = layers.span_table([proc])
    assert table["pool.run_units"][2] == 5.0
    assert table["lithium.check"][2] == 3.0
    assert table["pure.prove.default"][2] == 1.0
    assert layers.layer_self_s(table) == 9.0
    late = layers.span_table([proc], since=1.5)
    assert "pool.run_units" not in late and "harness.x" in late
