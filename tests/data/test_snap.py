"""Synthetic SNAP stand-in tests."""

import pytest

from repro.data import DATASETS, load_snap_dataset
from repro.data.graphs import triangle_count_truth
from repro.errors import ConfigurationError


class TestDatasets:
    def test_all_datasets_load(self):
        for name in DATASETS:
            relation = load_snap_dataset(name, scale=0.3, seed=1)
            assert len(relation) > 0
            assert relation.arity == 2

    def test_deterministic(self):
        a = load_snap_dataset("facebook", scale=0.3, seed=2)
        b = load_snap_dataset("facebook", scale=0.3, seed=2)
        assert sorted(a) == sorted(b)

    def test_scale_changes_size(self):
        small = load_snap_dataset("wikivote", scale=0.2, seed=3)
        large = load_snap_dataset("wikivote", scale=0.6, seed=3)
        assert len(large) > len(small)

    def test_facebook_symmetric(self):
        relation = load_snap_dataset("facebook", scale=0.3, seed=4)
        present = set(relation.rows)
        assert all((dst, src) in present for src, dst in present)

    def test_directed_datasets_not_fully_symmetric(self):
        relation = load_snap_dataset("epinions", scale=0.3, seed=5)
        present = set(relation.rows)
        asymmetric = sum(1 for s, d in present if (d, s) not in present)
        assert asymmetric > 0

    def test_relative_sizes_preserved(self):
        summary = {name: len(load_snap_dataset(name, scale=0.4, seed=6))
                   for name in DATASETS}
        assert summary["twitter"] > summary["epinions"] > summary["wikivote"]

    def test_social_graphs_have_triangles(self):
        relation = load_snap_dataset("facebook", scale=0.25, seed=7)
        assert triangle_count_truth(relation) > 0

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError):
            load_snap_dataset("friendster")

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            load_snap_dataset("facebook", scale=0)
