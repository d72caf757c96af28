"""Synthetic IMDB / JOB-light tests."""

from repro.data import job_light_queries, make_imdb
from repro.joins import join
from repro.planner import Hypergraph
from repro.planner.optimizer import is_alpha_acyclic


class TestCatalog:
    def test_schema_shape(self):
        catalog = make_imdb(300, seed=1)
        assert catalog.get("title").schema.attributes == ("t", "kind", "year")
        for name in ("cast_info", "movie_info", "movie_keyword",
                     "movie_companies", "movie_info_idx"):
            assert "t" in catalog.get(name).schema

    def test_fanouts_scale_with_titles(self):
        catalog = make_imdb(400, seed=2)
        assert len(catalog.get("cast_info")) > len(catalog.get("title"))

    def test_fk_skew(self):
        catalog = make_imdb(400, seed=3)
        column = catalog.get("cast_info").column("t")
        counts = sorted((column.count(v) for v in set(column)), reverse=True)
        assert counts[0] > 4 * max(counts[len(counts) // 2], 1)

    def test_deterministic(self):
        a = make_imdb(200, seed=4)
        b = make_imdb(200, seed=4)
        assert sorted(a.get("title")) == sorted(b.get("title"))


class TestJobLightQueries:
    def test_workload_covers_combinations(self):
        catalog = make_imdb(200, seed=5)
        queries = job_light_queries(catalog, seed=6, max_satellites=2)
        # 5 choose 1 + 5 choose 2 = 15
        assert len(queries) == 15
        assert len({q.name for q in queries}) == 15

    def test_queries_are_acyclic_stars(self):
        catalog = make_imdb(150, seed=7)
        for job in job_light_queries(catalog, seed=8, max_satellites=3):
            graph = Hypergraph.from_query(job.query)
            assert is_alpha_acyclic(graph), job.name

    def test_queries_execute_consistently(self):
        catalog = make_imdb(150, seed=9)
        queries = job_light_queries(catalog, seed=10, max_satellites=2)
        for job in queries[:4]:
            binary = join(job.query, job.relations, algorithm="binary")
            generic = join(job.query, job.relations, algorithm="generic",
                           index="btree", engine="tuple")
            assert binary.count == generic.count, job.name

    def test_filters_reduce_inputs(self):
        catalog = make_imdb(300, seed=11)
        job = job_light_queries(catalog, seed=12, max_satellites=1)[0]
        assert len(job.relations["title"]) < len(catalog.get("title"))
