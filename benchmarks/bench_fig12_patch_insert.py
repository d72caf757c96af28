"""Fig 12 — insert cost vs number of patched buckets (§5.13).

The paper's conclusion: the patch structure's computational cost on
inserts is *negligible* — the disambiguation mechanism is effectively
free at build time.  We insert into indexes whose buckets were
pre-patched at increasing fractions and verify the flat shape.
"""

from conftest import bench_rows, measure_seconds, run_report
from repro.bench import print_series
from repro.core import SonicConfig, SonicIndex

BASE_ROWS = 4000
EXTRA_ROWS = 1500
COLUMNS = 3
FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0]


def prepared(fraction):
    rows = bench_rows(BASE_ROWS + EXTRA_ROWS, COLUMNS, seed=12)
    base, extra = rows[:BASE_ROWS], rows[BASE_ROWS:]
    config = SonicConfig.for_tuples(len(rows))
    index = SonicIndex(COLUMNS, config)
    index.build(base)
    for level in range(1, index.num_levels):
        index.force_patch_fraction(level, fraction)
    return index, extra


def run_inserts(index, extra):
    for row in extra:
        # the per-tuple path IS the thing under measurement (Fig 12 is
        # insert cost vs patched fraction), so no build_bulk here
        index.insert(row)


def test_bench_fig12_unpatched(benchmark):
    benchmark.pedantic(lambda: run_inserts(*prepared(0.0)),
                       rounds=3, iterations=1)


def test_bench_fig12_fully_patched(benchmark):
    benchmark.pedantic(lambda: run_inserts(*prepared(1.0)),
                       rounds=3, iterations=1)


def test_report_fig12(benchmark):
    def body():
        wall = []
        for fraction in FRACTIONS:
            seconds = measure_seconds(lambda: run_inserts(*prepared(fraction)),
                                      repeats=3)
            wall.append(round(seconds * 1e3, 2))
        print_series(f"Fig 12: {EXTRA_ROWS} inserts (ms) vs patched fraction",
                     "patched", FRACTIONS, {"wall_ms": wall})
        # §5.13 shape: "the computational cost of the patch structure is
        # negligible" — fully patched must stay within 2x of unpatched
        assert wall[-1] < 2.0 * wall[0], wall
        return {"patched": FRACTIONS, "insert_ms": wall}

    run_report(benchmark, body, "fig12")
