"""Rule registry tests: dispatch-key lookup, wildcards, priorities."""

from dataclasses import dataclass

import pytest

from repro.lithium.goals import BasicGoal, GTrue
from repro.lithium.rules import Rule, RuleError, RuleRegistry


@dataclass(frozen=True)
class J(BasicGoal):
    key: tuple

    def dispatch_key(self):
        return self.key


def r(name, key, priority=0):
    return Rule(name, key, lambda f, s: GTrue(), priority)


class TestLookup:
    def test_exact_match(self):
        reg = RuleRegistry()
        reg.register(r("exact", ("j", "a", "b")))
        assert reg.lookup(J(("j", "a", "b"))).name == "exact"

    def test_exact_beats_wildcard(self):
        reg = RuleRegistry()
        reg.register(r("wild", ("j", "*", "b")))
        reg.register(r("exact", ("j", "a", "b")))
        assert reg.lookup(J(("j", "a", "b"))).name == "exact"

    def test_wildcard_order_is_deterministic(self):
        # Among equal wildcard counts the candidate order is fixed:
        # generalising later positions first means ("j", "*", "b") is
        # tried before ("j", "a", "*").
        reg = RuleRegistry()
        reg.register(r("late", ("j", "a", "*")))
        reg.register(r("early", ("j", "*", "b")))
        assert reg.lookup(J(("j", "a", "b"))).name == "early"

    def test_double_wildcard(self):
        reg = RuleRegistry()
        reg.register(r("anyany", ("j", "*", "*")))
        assert reg.lookup(J(("j", "x", "y"))).name == "anyany"

    def test_prefix_fallback(self):
        reg = RuleRegistry()
        reg.register(r("generic", ("j",)))
        assert reg.lookup(J(("j", "x", "y"))).name == "generic"

    def test_no_rule(self):
        reg = RuleRegistry()
        with pytest.raises(RuleError):
            reg.lookup(J(("nothing",)))

    def test_priority_selects(self):
        reg = RuleRegistry()
        reg.register(r("low", ("j",), priority=0))
        reg.register(r("high", ("j",), priority=5))
        assert reg.lookup(J(("j",))).name == "high"

    def test_equal_priority_ambiguity_rejected(self):
        reg = RuleRegistry()
        reg.register(r("one", ("j",)))
        reg.register(r("two", ("j",)))
        with pytest.raises(RuleError):
            reg.lookup(J(("j",)))

    def test_colon_in_name_rejected(self):
        with pytest.raises(RuleError, match="contains ':'"):
            RuleRegistry().register(r("A:B", ("j",)))

    def test_duplicate_name_rejected(self):
        reg = RuleRegistry()
        reg.register(r("dup", ("j",)))
        with pytest.raises(RuleError):
            reg.register(r("dup", ("j",)))

    def test_len_counts_rules(self):
        reg = RuleRegistry()
        reg.register(r("a", ("x",)))
        reg.register(r("b", ("y",)))
        assert len(reg) == 2


class TestStandardLibrary:
    """Properties of the shipped RefinedC rule library."""

    def test_library_size(self):
        # The paper's standard library has ~200 rules over ~30 types; ours
        # is smaller but must stay a real library, not a handful of hacks.
        from repro.refinedc.rules import REGISTRY
        assert len(REGISTRY) >= 80

    def test_figure6_rules_present(self):
        from repro.refinedc.rules import REGISTRY
        names = {rule.name for rule in REGISTRY.all_rules()}
        for expected in ("IF-BOOL", "IF-INT", "T-BINOP", "O-ADD-UNINIT",
                         "S-OWN", "S-NULL", "CAS-BOOL"):
            assert expected in names, expected

    def test_optional_eq_rules_present(self):
        from repro.refinedc.rules import REGISTRY
        names = {rule.name for rule in REGISTRY.all_rules()}
        assert any(n.startswith("O-OPTIONAL-EQ") for n in names)

    def test_every_rule_documented(self):
        from repro.refinedc.rules import REGISTRY
        undocumented = [rule.name for rule in REGISTRY.all_rules()
                        if not (rule.doc or "").strip()
                        and not rule.name.startswith(("O-ARITH", "O-CMP",
                                                      "O-OPTIONAL",
                                                      "O-OWN", "O-NULL",
                                                      "S-TOK", "HOOK"))]
        assert not undocumented, undocumented
