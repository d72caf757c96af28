"""Stand-ins for the paper's SNAP datasets (§5.3, Table 1).

The paper evaluates on four SNAP graphs [32]; those files are not
available offline, so — per the substitution policy in DESIGN.md — each is
replaced by a *seeded synthetic graph* matching the original's qualitative
shape (directedness, density, degree skew, clustering) at a configurable
scale.  Published statistics of the originals, for reference:

=============  ========  ===========  ==========  ==================
dataset        nodes     edges        directed?   character
=============  ========  ===========  ==========  ==================
ego-Facebook   4,039     88,234       no          dense ego nets, high clustering
wiki-Vote      7,115     103,689      yes         bipartite-ish voting, hub-heavy
soc-Epinions1  75,879    508,837      yes         power-law trust network
ego-Twitter    81,306    1,768,149    yes         large, very skewed
=============  ========  ===========  ==========  ==================

``scale=1.0`` reproduces roughly 1/10 of the original node counts (full
originals are far beyond pure-Python joins); relative sizes and density
orderings between the four datasets are preserved, which is what Table 1's
cross-dataset comparison exercises.
"""

from __future__ import annotations

from repro.data.graphs import edges_relation, powerlaw_cluster_graph
from repro.errors import ConfigurationError
from repro.storage.relation import Relation

#: per-dataset synthetic recipe: (nodes at scale=1, model parameters)
_RECIPES = {
    "facebook": {"nodes": 400, "attached": 11, "clustering": 0.6,
                 "directed": False},
    "wikivote": {"nodes": 700, "attached": 7, "clustering": 0.15,
                 "directed": True},
    "epinions": {"nodes": 1500, "attached": 6, "clustering": 0.2,
                 "directed": True},
    "twitter": {"nodes": 2500, "attached": 14, "clustering": 0.3,
                "directed": True},
}

DATASETS = tuple(sorted(_RECIPES))


def load_snap_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Relation:
    """A synthetic edge relation shaped like the named SNAP dataset.

    Undirected sources (Facebook) are symmetrized; directed sources get a
    random orientation over a power-law-cluster backbone plus a fraction
    of reciprocal edges (social graphs have many).
    """
    try:
        recipe = _RECIPES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dataset {name!r}; available: {DATASETS}"
        ) from None
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    nodes = max(int(recipe["nodes"] * scale), recipe["attached"] + 2)
    backbone = powerlaw_cluster_graph(nodes, recipe["attached"],
                                      recipe["clustering"], seed=seed)
    if not recipe["directed"]:
        return edges_relation(backbone, name=name)

    import networkx as nx

    rng = nx.utils.create_random_state(seed + 1)
    rows: set[tuple] = set()
    for u, v in backbone.edges():
        if u == v:
            continue
        if rng.random_sample() < 0.7:
            rows.add((u, v))
        else:
            rows.add((v, u))
        if rng.random_sample() < 0.25:  # reciprocal edges
            rows.add((v, u))
            rows.add((u, v))
    return Relation(name, ("src", "dst"), rows)
