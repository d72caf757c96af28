"""Fig 1 — Binary Join vs Sonic (Generic) Join vs Hash-Trie Join.

The paper's motivating experiment: a triangle counting query over three
relations whose distribution sweeps from uniform random to maximally
adversarial.  Expected shape: the binary join wins on uniform data (cheap
hash build, no exploding intermediates) and collapses on adversarial data,
while both WCOJ algorithms stay flat; Sonic-backed Generic Join leads the
WCOJ pair.
"""

import pytest

from conftest import measure_seconds, run_report
from repro.bench import print_series
from repro.data import adversarial_triangle_tables
from repro.joins import join

ROWS = 1000
ADVERSITIES = [0.0, 0.25, 0.5, 0.75, 1.0]
QUERY = "R(a,b), S(b,c), T(c,a)"
ALGORITHMS = {
    "binary": dict(algorithm="binary"),
    "sonic_gj": dict(algorithm="generic", index="sonic", engine="tuple"),
    "hashtrie": dict(algorithm="hashtrie"),
}


def run(tables, options):
    return join(QUERY, tables, **options).count


@pytest.mark.parametrize("adversity", [0.0, 1.0])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_bench_fig01(benchmark, name, adversity):
    tables = adversarial_triangle_tables(ROWS, adversity, seed=1)
    benchmark(run, tables, ALGORITHMS[name])


def test_report_fig01(benchmark):
    def body():
        series = {name: [] for name in ALGORITHMS}
        counts = []
        for adversity in ADVERSITIES:
            tables = adversarial_triangle_tables(ROWS, adversity, seed=1)
            reference = None
            for name, options in ALGORITHMS.items():
                result = join(QUERY, tables, **options)
                if reference is None:
                    reference = result.count
                assert result.count == reference, (name, adversity)
                seconds = measure_seconds(lambda: run(tables, options),
                                          repeats=2)
                series[name].append(round(seconds * 1e3, 2))
            counts.append(reference)
        series["triangles"] = counts
        print_series("Fig 1: triangle join runtime (ms) vs data adversity",
                     "adversity", ADVERSITIES, series)
        # the paper's shape: the binary join wins on uniform data, loses
        # on adversarial data — the crossover that motivates WCOJ
        assert series["binary"][0] < series["sonic_gj"][0]
        assert series["binary"][-1] > series["sonic_gj"][-1]
        binary_blowup = series["binary"][-1] / max(series["binary"][0], 1e-9)
        sonic_blowup = series["sonic_gj"][-1] / max(series["sonic_gj"][0], 1e-9)
        assert binary_blowup > 2 * sonic_blowup, (binary_blowup, sonic_blowup)
        return {"adversity": ADVERSITIES, **series}

    run_report(benchmark, body, "fig01")
