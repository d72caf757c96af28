"""The paper harness feeds the tuple drivers relations without repeats.

The tuple drivers (``engine="tuple"``, Hash-Trie Join, Leapfrog
Triejoin) join sets, and refuse a relation that repeats a row.  Every
generator a ``benchmarks/bench_*.py`` join or an end-to-end workload
feeds to a join is held here — at reduced scale, on the figures' seeds
— to relations in which no row repeats, so that the refusal cannot
fire on a figure.
"""

from repro.data import (
    DATASETS,
    adversarial_triangle_tables,
    edges_relation,
    job_light_queries,
    load_snap_dataset,
    make_imdb,
    powerlaw_cluster_graph,
    random_edge_relation,
    umbra_adversarial_tables,
    zipf_table,
)


def paper_inputs():
    """``(where, relations)`` per generator call."""
    yield "fig14", [random_edge_relation(60, 420, seed=14)]
    yield "ablation_hashtrie", [random_edge_relation(70, 480, seed=34)]
    yield "e2e triangle", [random_edge_relation(300, 3000, seed=13)]
    yield "e2e clique4", [edges_relation(
        powerlaw_cluster_graph(200, 6, 0.3, seed=13))]
    for titles, seed in ((400, 22), (300, 13)):
        catalog = make_imdb(titles, seed=seed)
        yield f"make_imdb({titles})", list(catalog)
        yield f"job_light_queries({titles})", [
            relation for job in job_light_queries(catalog, seed=seed + 1)
            for relation in job.relations.values()]
    yield "e2e index_ops", [zipf_table("T", 1000, 3, alpha=0.8, seed=13)]
    for adversity in (0.0, 0.25, 0.5, 0.75, 1.0):
        yield f"fig01 adversity={adversity}", list(
            adversarial_triangle_tables(300, adversity, seed=1).values())
    for rows, seed in ((350, 15), (300, 32), (260, 33)):
        yield f"umbra seed={seed}", list(
            umbra_adversarial_tables(rows, alpha=0.95, seed=seed).values())
    for name in DATASETS:
        yield f"table1 {name}", [load_snap_dataset(name, scale=0.05,
                                                   seed=21)]


def test_no_generator_repeats_a_row():
    for where, relations in paper_inputs():
        assert relations, where
        for relation in relations:
            assert len(set(relation.rows)) == len(relation), \
                (where, relation.name)
