"""Suppression syntax: # repro: noqa[RULE] and the blanket form."""

from repro.analysis.engine import analyze_source
from repro.analysis.noqa import BLANKET, is_suppressed, line_suppressions


class TestParsing:
    def test_rule_list(self):
        table = line_suppressions("x = 1  # repro: noqa[RA101, RA102]\n")
        assert table == {1: frozenset({"RA101", "RA102"})}

    def test_blanket(self):
        table = line_suppressions("x = 1  # repro: noqa\n")
        assert table[1] is BLANKET

    def test_case_insensitive_codes(self):
        table = line_suppressions("x = 1  # repro: noqa[ra102]\n")
        assert is_suppressed(table, 1, "RA102")

    def test_unrelated_comments_ignored(self):
        assert line_suppressions("x = 1  # just a comment\n") == {}
        assert line_suppressions("x = 1  # noqa\n") == {}  # flake8 form ≠ ours

    def test_only_the_annotated_line(self):
        table = line_suppressions("x = 1  # repro: noqa[RA101]\ny = 2\n")
        assert is_suppressed(table, 1, "RA101")
        assert not is_suppressed(table, 2, "RA101")


class TestEndToEnd:
    def test_suppressed_finding_dropped(self):
        source = (
            "import random\n"
            "jitter = random.random()  # repro: noqa[RA102] -- demo only\n"
        )
        assert analyze_source(source, "src/module.py") == []

    def test_wrong_rule_does_not_suppress(self):
        source = (
            "import random\n"
            "jitter = random.random()  # repro: noqa[RA101]\n"
        )
        findings = analyze_source(source, "src/module.py")
        assert [f.rule for f in findings] == ["RA102"]

    def test_blanket_suppresses_everything(self):
        source = (
            "import random\n"
            "jitter = random.random()  # repro: noqa\n"
        )
        assert analyze_source(source, "src/module.py") == []

    def test_unknown_rule_suppresses_nothing_and_reports_nothing(self):
        # a noqa naming a rule that no longer exists (RA806 was deleted)
        # neither hides the real finding nor is itself a finding
        violating = (
            "import random\n"
            "jitter = random.random()  # repro: noqa[RA806]\n"
        )
        assert [f.rule for f in analyze_source(violating, "src/module.py")] == [
            "RA102"]
        quiet = "rows = [1, 2]  # repro: noqa[RA806]\n"
        assert analyze_source(quiet, "src/module.py") == []
