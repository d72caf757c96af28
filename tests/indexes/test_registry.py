"""Index registry tests."""

import pytest

from repro.errors import ConfigurationError
from repro.indexes import (
    SwissTableSet,
    make_index,
    register_index,
    registered_indexes,
)
from repro.indexes.registry import prefix_capable_indexes


class TestRegistry:
    def test_builtins_present(self):
        names = registered_indexes()
        for expected in ("sonic", "hashset", "robinhood", "btree", "art",
                         "hattrie", "hiermap", "hashtrie", "surf",
                         "sortedtrie"):
            assert expected in names

    def test_make_index(self):
        index = make_index("hashset", 3)
        assert isinstance(index, SwissTableSet)
        assert index.arity == 3

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_index("nope", 2)

    def test_double_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_index("hashset", SwissTableSet)

    def test_replace_allowed(self):
        register_index("hashset", SwissTableSet, replace=True)
        assert isinstance(make_index("hashset", 2), SwissTableSet)

    def test_prefix_capable_subset(self):
        capable = prefix_capable_indexes()
        assert "sonic" in capable
        assert "btree" in capable
        assert "hashset" not in capable
        assert "surf" not in capable
