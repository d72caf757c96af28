"""RA8xx numeric-kernel rules: detection, suppression, fixture coverage."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths, analyze_source

FIXTURES = Path(__file__).parent / "fixtures" / "numeric"

ANY_PATH = "src/repro/anywhere.py"
CORE_PATH = "src/repro/core/anywhere.py"


def rules_at(source, path=ANY_PATH):
    return {f.rule for f in analyze_source(source, path)}


def ra8_at(source, path=ANY_PATH):
    return {r for r in rules_at(source, path) if r.startswith("RA8")}


class TestDtypeTracking:
    def test_object_array_into_kernel_is_error(self):
        findings = analyze_source(
            "import numpy as np\n"
            "def f(values, needles):\n"
            "    keys = np.asarray(values, dtype=object)\n"
            "    return np.searchsorted(keys, needles)\n",
            ANY_PATH,
        )
        ra801 = [f for f in findings if f.rule == "RA801"]
        assert [(f.line, str(f.severity)) for f in ra801] == [(4, "error")]

    def test_object_array_into_a_trie_probe_is_error(self):
        assert "RA801" in ra8_at(
            "import numpy as np\n"
            "def f(trie, parents, values):\n"
            "    wanted = np.asarray(values, dtype=object)\n"
            "    return trie.probe(1, parents, wanted)\n"
        )

    def test_int64_array_into_kernel_is_clean(self):
        assert "RA801" not in rules_at(
            "import numpy as np\n"
            "def f(values, needles):\n"
            "    keys = np.asarray(values, dtype=np.int64)\n"
            "    keys.sort()\n"
            "    return np.searchsorted(keys, needles)\n"
        )

    def test_dtype_flows_through_views_and_copies(self):
        # the object verdict survives a reshape (view) and a .copy()
        assert "RA801" in ra8_at(
            "import numpy as np\n"
            "def f(values, needles):\n"
            "    keys = np.asarray(values, dtype=object)\n"
            "    flat = keys.reshape(-1).copy()\n"
            "    return np.searchsorted(flat, needles)\n"
        )

    def test_mixing_definite_dtypes_flagged(self):
        assert "RA802" in ra8_at(
            "import numpy as np\n"
            "def f(count, labels):\n"
            "    ints = np.arange(count)\n"
            "    tags = np.asarray(labels, dtype=object)\n"
            "    return ints == tags\n"
        )

    def test_mixing_with_unknown_dtype_is_silent(self):
        # one side unknown: no definite mix, no finding
        assert "RA802" not in rules_at(
            "import numpy as np\n"
            "def f(count, other):\n"
            "    ints = np.arange(count)\n"
            "    return ints == other\n"
        )


class TestHotPathHygiene:
    def test_loop_alloc_flagged_in_core_paths(self):
        assert "RA803" in ra8_at(
            "import numpy as np\n"
            "def f(data, rounds):\n"
            "    rows = np.asarray(data)\n"
            "    out = []\n"
            "    for _ in range(rounds):\n"
            "        out.append(np.concatenate((rows, rows)))\n"
            "    return out\n",
            CORE_PATH,
        )

    def test_loop_alloc_outside_kernel_dirs_is_silent(self):
        # same shape in benchmark-setup territory: out of RA803's scope
        assert "RA803" not in rules_at(
            "import numpy as np\n"
            "def f(data, rounds):\n"
            "    rows = np.asarray(data)\n"
            "    out = []\n"
            "    for _ in range(rounds):\n"
            "        out.append(np.concatenate((rows, rows)))\n"
            "    return out\n",
            "benchmarks/setup.py",
        )

    def test_hoisted_alloc_is_clean(self):
        assert "RA803" not in rules_at(
            "import numpy as np\n"
            "def f(data, rounds):\n"
            "    rows = np.asarray(data)\n"
            "    doubled = np.concatenate((rows, rows))\n"
            "    out = []\n"
            "    for _ in range(rounds):\n"
            "        out.append(doubled)\n"
            "    return out\n",
            CORE_PATH,
        )

    def test_per_element_iteration_flagged(self):
        assert "RA804" in ra8_at(
            "import numpy as np\n"
            "def f(batch):\n"
            "    values = np.asarray(batch)\n"
            "    total = 0\n"
            "    for value in values:\n"
            "        total += value\n"
            "    return total\n"
        )

    def test_tolist_outside_hot_scope_is_clean(self):
        assert "RA804" not in rules_at(
            "import numpy as np\n"
            "def f(batch):\n"
            "    values = np.asarray(batch)\n"
            "    return values.tolist()\n"
        )


class TestKernelPreconditions:
    def test_unsorted_into_searchsorted_flagged(self):
        assert "RA805" in ra8_at(
            "import numpy as np\n"
            "def f(keys, probes):\n"
            "    haystack = np.concatenate((np.asarray(keys),\n"
            "                               np.asarray(probes)))\n"
            "    return np.searchsorted(haystack, probes)\n"
        )

    def test_sorted_into_searchsorted_is_clean(self):
        assert "RA805" not in rules_at(
            "import numpy as np\n"
            "def f(keys, probes):\n"
            "    haystack = np.sort(np.asarray(keys))\n"
            "    return np.searchsorted(haystack, probes)\n"
        )

    def test_unsorted_values_argument_is_fine(self):
        # only the *first* argument must be sorted; the probe vector
        # may arrive in any order
        assert "RA805" not in rules_at(
            "import numpy as np\n"
            "def f(keys, probes):\n"
            "    haystack = np.sort(np.asarray(keys))\n"
            "    needles = np.concatenate((np.asarray(probes),\n"
            "                              np.asarray(probes)))\n"
            "    return np.searchsorted(haystack, needles)\n"
        )


class TestBuildPathRules:
    def test_per_tuple_build_loop_flagged(self):
        assert "RA806" in ra8_at(
            "from repro.core import SonicIndex\n"
            "def f(rows):\n"
            "    index = SonicIndex(2)\n"
            "    for row in rows:\n"
            "        index.insert(row)\n"
            "    return index\n"
        )

    def test_make_index_literal_name_tracked(self):
        assert "RA806" in ra8_at(
            "from repro.indexes import make_index\n"
            "def f(rows):\n"
            "    index = make_index('sortedtrie', 2)\n"
            "    for row in rows:\n"
            "        index.insert(row)\n"
            "    return index\n"
        )

    def test_non_bulk_index_loop_is_clean(self):
        # a hash set has no vectorized build path; nothing to win
        assert "RA806" not in rules_at(
            "from repro.indexes import make_index\n"
            "def f(rows):\n"
            "    index = make_index('hashset', 2)\n"
            "    for row in rows:\n"
            "        index.insert(row)\n"
            "    return index\n"
        )

    def test_bulk_build_is_clean(self):
        assert "RA806" not in rules_at(
            "from repro.core import SonicIndex\n"
            "def f(columns):\n"
            "    index = SonicIndex(len(columns))\n"
            "    index.build_bulk(columns)\n"
            "    return index\n"
        )


class TestColumnarContract:
    def test_kernel_consumer_without_dtype_branch_is_error(self):
        findings = analyze_source(
            "import numpy as np\n"
            "def f(relation, probes):\n"
            "    column = relation.column_array('a')\n"
            "    return np.searchsorted(np.sort(column), probes)\n",
            ANY_PATH,
        )
        ra807 = [f for f in findings if f.rule == "RA807"]
        assert len(ra807) == 1
        assert str(ra807[0].severity) == "error"

    def test_dtype_branch_satisfies_contract(self):
        assert "RA807" not in rules_at(
            "import numpy as np\n"
            "def f(relation, probes):\n"
            "    column = relation.column_array('a')\n"
            "    if column.dtype == np.int64:\n"
            "        return np.searchsorted(np.sort(column), probes)\n"
            "    return sorted(column.tolist())\n"
        )

    def test_cached_verdict_accessor_satisfies_contract(self):
        assert "RA807" not in rules_at(
            "import numpy as np\n"
            "def f(relation, probes):\n"
            "    if relation.column_dtype_class('a') == 'int64':\n"
            "        column = relation.column_array('a')\n"
            "        return np.searchsorted(np.sort(column), probes)\n"
            "    return None\n"
        )

    def test_dead_materialisation_flagged(self):
        assert "RA808" in ra8_at(
            "import numpy as np\n"
            "def f(values):\n"
            "    snapshot = np.asarray(values).copy()\n"
            "    return len(snapshot)\n"
        )

    def test_materialised_array_with_real_use_is_clean(self):
        assert "RA808" not in rules_at(
            "import numpy as np\n"
            "def f(values):\n"
            "    snapshot = np.asarray(values).copy()\n"
            "    return len(snapshot), snapshot.sum()\n"
        )


class TestSuppressionAndFixtures:
    def test_noqa_silences_numeric_rule(self):
        assert ra8_at(
            "from repro.core import SonicIndex\n"
            "def f(rows):\n"
            "    index = SonicIndex(2)\n"
            "    for row in rows:\n"
            "        index.insert(row)  # repro: noqa[RA806] -- measured\n"
            "    return index\n"
        ) == set()

    EXPECTED = {
        "bad_object_kernel.py": {"RA801"},
        "bad_dtype_mix.py": {"RA802"},
        "core/bad_hot_alloc.py": {"RA803"},
        "bad_scalarised.py": {"RA804"},
        "bad_unsorted_searchsorted.py": {"RA805"},
        "bad_scalar_build.py": {"RA806"},
        "bad_columnar_contract.py": {"RA807"},
        "bad_dead_materialisation.py": {"RA808"},
    }

    @pytest.mark.parametrize("relative,expected", sorted(EXPECTED.items()))
    def test_planted_fixture_caught(self, relative, expected):
        findings = analyze_paths([FIXTURES / relative])
        assert expected <= {f.rule for f in findings}

    def test_numeric_fixture_tree_fails_as_a_whole(self):
        findings = analyze_paths([FIXTURES])
        got = {f.rule for f in findings}
        assert {f"RA80{i}" for i in range(1, 9)} <= got

    def test_clean_counterexample_stays_clean(self):
        findings = analyze_paths([FIXTURES / "clean_vectorised.py"])
        assert [f.rule for f in findings] == []


class TestRegistryCrossCheck:
    """Every registered RA8xx rule must have a fixture that fires it."""

    def test_every_ra8_rule_has_a_firing_fixture(self):
        from repro.analysis.rules import rule_catalog

        registered = {entry["code"] for entry in rule_catalog()
                      if entry["code"].startswith("RA8")}
        assert registered, "RA8xx rules failed to register"
        covered = set().union(
            *TestSuppressionAndFixtures.EXPECTED.values())
        assert registered == covered

    def test_fixture_table_matches_directory(self):
        on_disk = {p.relative_to(FIXTURES).as_posix()
                   for p in FIXTURES.rglob("bad_*.py")}
        assert on_disk == set(TestSuppressionAndFixtures.EXPECTED)
