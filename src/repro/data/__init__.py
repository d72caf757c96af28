"""Workload generators for every experiment in the evaluation."""

from repro.data.graphs import (
    cycle_count_truth,
    edges_relation,
    powerlaw_cluster_graph,
    random_edge_relation,
    triangle_count_truth,
)
from repro.data.imdb import job_light_queries, make_imdb
from repro.data.snap import DATASETS, load_snap_dataset
from repro.data.synthetic import (
    adversarial_triangle_tables,
    lookup_workload,
    prefix_workload,
    string_table,
    umbra_adversarial_tables,
    zipf_table,
)
from repro.data.zipf import ZipfGenerator

__all__ = [
    "DATASETS",
    "ZipfGenerator",
    "adversarial_triangle_tables",
    "cycle_count_truth",
    "edges_relation",
    "job_light_queries",
    "load_snap_dataset",
    "lookup_workload",
    "make_imdb",
    "powerlaw_cluster_graph",
    "prefix_workload",
    "random_edge_relation",
    "string_table",
    "triangle_count_truth",
    "umbra_adversarial_tables",
    "zipf_table",
]
