"""RA701/RA703/RA707: detection and suppression.

Planted fixtures and clean counterexamples for these rules are checked
with every other rule's by ``test_lint_rules.TestRuleCatalog``.
"""

from repro.analysis import analyze_source

ANY_PATH = "src/repro/anywhere.py"


def rules_at(source, path=ANY_PATH):
    return {f.rule for f in analyze_source(source, path)}


def ra7_at(source, path=ANY_PATH):
    return {r for r in rules_at(source, path) if r.startswith("RA7")}


class TestSharedStateDetection:
    def test_module_registry_write_flagged(self):
        findings = analyze_source(
            "_CACHE = {}\n"
            "def put(k, v):\n"
            "    _CACHE[k] = v\n",
            ANY_PATH,
        )
        assert [(f.rule, f.line) for f in findings
                if f.rule == "RA701"] == [("RA701", 3)]

    def test_lock_guarded_global_write_is_clean(self):
        assert "RA701" not in rules_at(
            "import threading\n"
            "_CACHE = {}\n"
            "_LOCK = threading.Lock()\n"
            "def put(k, v):\n"
            "    with _LOCK:\n"
            "        _CACHE[k] = v\n"
        )

    def test_local_shadow_not_flagged(self):
        assert "RA701" not in rules_at(
            "_CACHE = {}\n"
            "def scratch(k, v):\n"
            "    _CACHE = {}\n"   # local rebind shadows the global
            "    _CACHE[k] = v\n"
            "    return _CACHE\n"
        )


class TestLockDiscipline:
    ANNOTATED = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []  # repro: shared[lock=_lock]\n"
    )

    def test_explicit_violation_is_error(self):
        findings = analyze_source(
            self.ANNOTATED +
            "    def add(self, x):\n"
            "        self._items.append(x)\n",
            ANY_PATH,
        )
        ra703 = [f for f in findings if f.rule == "RA703"]
        assert len(ra703) == 1
        assert str(ra703[0].severity) == "error"

    def test_guarded_write_is_clean(self):
        assert "RA703" not in rules_at(
            self.ANNOTATED +
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
        )

    def test_inferred_designation_is_warning(self):
        findings = analyze_source(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._items.append(x)\n"
            "    def sneak(self, x):\n"
            "        self._items.append(x)\n",
            ANY_PATH,
        )
        ra703 = [f for f in findings if f.rule == "RA703"]
        assert [(f.line, str(f.severity)) for f in ra703] == [
            (10, "warning")]

    def test_borrows_annotation_satisfies_ra703(self):
        assert "RA703" not in rules_at(
            self.ANNOTATED +
            "    def _flush(self):  # repro: borrows-lock[_lock]\n"
            "        self._items.clear()\n"
        )


class TestEntryPointsAndBorrows:
    def test_borrowed_call_without_lock_is_error(self):
        findings = analyze_source(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._d = {}  # repro: shared[lock=_lock]\n"
            "    def _wipe(self):  # repro: borrows-lock[_lock]\n"
            "        self._d.clear()\n"
            "    def reset(self):\n"
            "        self._wipe()\n",
            ANY_PATH,
        )
        ra707 = [f for f in findings if f.rule == "RA707"]
        assert len(ra707) == 1
        assert str(ra707[0].severity) == "error"
        assert ra707[0].line == 9

    def test_borrowed_call_under_lock_is_clean(self):
        assert "RA707" not in rules_at(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._d = {}  # repro: shared[lock=_lock]\n"
            "    def _wipe(self):  # repro: borrows-lock[_lock]\n"
            "        self._d.clear()\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._wipe()\n"
        )


class TestSuppressionAndFixtures:
    def test_noqa_silences_concurrency_rule(self):
        assert ra7_at(
            "_CACHE = {}\n"
            "def put(k, v):\n"
            "    _CACHE[k] = v  # repro: noqa[RA701] -- tested memo\n"
        ) == set()
