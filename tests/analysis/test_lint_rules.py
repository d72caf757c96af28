"""Each lint rule fires on its planted fixture and stays quiet on clean code.

:class:`TestRuleCatalog` is the one cross-check over the whole registry:
every rule in ``rule_catalog()`` has a planted fixture that fires it and
a clean counterexample, and every ``# repro: noqa[...]`` in the tree
names a rule that exists.
"""

import io
import tokenize
from pathlib import Path

import pytest

from repro.analysis import analyze_file, analyze_paths, analyze_source
from repro.analysis.noqa import BLANKET, line_suppressions
from repro.analysis.rules import rule_catalog

FIXTURES = Path(__file__).parent / "fixtures"
TREE = FIXTURES / "tree"
REPO_ROOT = Path(__file__).resolve().parents[2]


def rules_found(findings) -> set[str]:
    return {finding.rule for finding in findings}


class TestPlantedViolations:
    def test_ra101_builtin_hash_in_indexes_dir(self):
        findings = analyze_file(TREE / "indexes" / "bad_hashing.py")
        assert rules_found(findings) == {"RA101"}
        assert findings[0].line == 8

    def test_ra101_scoped_to_index_and_core_dirs(self):
        # the same source outside indexes//core/ must not fire
        source = (TREE / "indexes" / "bad_hashing.py").read_text()
        findings = analyze_source(source, "somewhere/else/hashing_user.py")
        assert findings == []

    def test_ra102_unseeded_random(self):
        findings = analyze_file(TREE / "bad_random.py")
        assert rules_found(findings) == {"RA102"}
        assert len(findings) == 3  # global, numpy-global, unseeded default_rng

    def test_ra103_mutation_while_iterating(self):
        findings = analyze_file(TREE / "bad_mutation.py")
        assert rules_found(findings) == {"RA103"}
        assert len(findings) == 2  # list.remove and dict-view update

    def test_whole_fixture_tree_covers_every_rule(self):
        findings = analyze_paths([TREE])
        assert {"RA101", "RA102", "RA103"} <= rules_found(findings)


class TestCleanCode:
    def test_clean_fixture_has_no_findings(self):
        assert analyze_paths([FIXTURES / "clean"]) == []

    def test_seeded_rng_is_fine(self):
        source = "import random\nrng = random.Random(7)\n"
        assert analyze_source(source, "src/module.py") == []

    def test_seeded_default_rng_is_fine(self):
        source = "import numpy as np\nrng = np.random.default_rng(3)\n"
        assert analyze_source(source, "src/module.py") == []

    def test_iterating_a_copy_is_fine(self):
        source = (
            "def prune(nodes):\n"
            "    for node in list(nodes):\n"
            "        nodes.remove(node)\n"
        )
        assert analyze_source(source, "src/module.py") == []

    def test_rng_method_named_random_not_confused(self):
        # rng.random() is a *seeded generator method*, not the global module
        source = (
            "import random\n"
            "rng = random.Random(1)\n"
            "value = rng.random()\n"
        )
        assert analyze_source(source, "src/module.py") == []


class TestEngineBehaviour:
    def test_syntax_error_reported_as_ra001(self):
        findings = analyze_source("def broken(:\n", "src/module.py")
        assert rules_found(findings) == {"RA001"}

    def test_findings_sorted_by_location(self):
        findings = analyze_paths([TREE])
        assert findings == sorted(findings)

    def test_rule_filter(self):
        from repro.analysis import select_rules

        only = select_rules(["RA102"])
        findings = analyze_paths([TREE], rules=only)
        assert rules_found(findings) == {"RA102"}


#: rule -> (planted fixture that fires it, clean counterexample that
#: exercises the same construct without firing), relative to FIXTURES
CATALOG_FIXTURES = {
    "RA101": ("tree/indexes/bad_hashing.py", "clean/indexes/hashing_ok.py"),
    "RA102": ("tree/bad_random.py", "clean/ok.py"),
    "RA103": ("tree/bad_mutation.py", "clean/ok.py"),
    "RA701": ("concurrency/bad_global_registry.py",
              "concurrency/clean_guarded.py"),
    "RA703": ("concurrency/bad_unguarded_write.py",
              "concurrency/clean_guarded.py"),
    "RA707": ("concurrency/bad_borrowed_lock.py",
              "concurrency/clean_guarded.py"),
}


def _noqa_codes(path: Path) -> "list[tuple[int, frozenset[str]]]":
    """The rule lists of the real ``# repro: noqa`` comments in a file
    (comment tokens only: docstrings that show the syntax don't count)."""
    found = []
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    for token in tokens:
        if token.type == tokenize.COMMENT:
            for codes in line_suppressions(token.string).values():
                found.append((token.start[0], codes))
    return found


class TestRuleCatalog:
    def test_catalog_matches_fixture_table(self):
        assert {entry["code"] for entry in rule_catalog()} == set(
            CATALOG_FIXTURES)

    def test_every_planted_fixture_is_in_the_table(self):
        on_disk = {str(p.relative_to(FIXTURES))
                   for p in FIXTURES.rglob("bad_*.py")}
        assert on_disk == {planted for planted, _ in
                           CATALOG_FIXTURES.values()}

    @pytest.mark.parametrize("code", sorted(CATALOG_FIXTURES))
    def test_planted_fixture_fires(self, code):
        planted, _ = CATALOG_FIXTURES[code]
        assert code in rules_found(analyze_file(FIXTURES / planted))

    @pytest.mark.parametrize("code", sorted(CATALOG_FIXTURES))
    def test_clean_counterexample_stays_clean(self, code):
        _, clean = CATALOG_FIXTURES[code]
        assert analyze_file(FIXTURES / clean) == []

    def test_every_noqa_in_the_tree_names_a_catalog_rule(self):
        known = {entry["code"] for entry in rule_catalog()}
        files = [*(REPO_ROOT / "src").rglob("*.py"),
                 *(p for p in (REPO_ROOT / "benchmarks").rglob("*.py")
                   if "e2e" not in p.relative_to(REPO_ROOT).parts)]
        unknown = [f"{path.relative_to(REPO_ROOT)}:{line} {sorted(codes)}"
                   for path in files for line, codes in _noqa_codes(path)
                   if codes is not BLANKET and not codes <= known]
        assert unknown == []
