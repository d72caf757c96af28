"""QP-tree and total order tests (§2.3.1)."""

from repro.planner import (
    build_qp_tree,
    cycle_query,
    is_compatible,
    parse_query,
    total_order,
)


class TestQPTree:
    def test_root_universe_is_all_attributes(self):
        query = parse_query("R(a,b), S(b,c), T(c,a)")
        root = build_qp_tree(query)
        assert root.universe == frozenset({"a", "b", "c"})
        assert root.edge == "R"

    def test_children_partition_universe(self):
        query = parse_query("R(a,b), S(b,c), T(c,a)")
        root = build_qp_tree(query)
        if root.right is not None:
            assert root.right.universe <= root.attributes
        if root.left is not None:
            assert root.left.universe.isdisjoint(root.attributes)

    def test_paper_fig2_query_builds(self):
        query = parse_query(
            "RA(a,b,d,e), RB(a,d,f,c), RC(g,c,h,i), RD(a,b,d,h), RE(f,c,e,h)")
        root = build_qp_tree(query)
        assert root.universe == frozenset("abdefghic")


class TestTotalOrder:
    def test_is_permutation_of_attributes(self):
        for text in ("R(a,b), S(b,c), T(c,a)",
                     "R(a,b,c), S(c,d), T(d,e,a)",
                     "RA(a,b,d,e), RB(a,d,f,c), RC(g,c,h,i), RD(a,b,d,h), "
                     "RE(f,c,e,h)"):
            query = parse_query(text)
            order = total_order(query)
            assert sorted(order) == sorted(query.attributes)

    def test_deterministic(self):
        query = cycle_query(4)
        assert total_order(query) == total_order(query)

    def test_fig2_query_order_valid(self):
        # the paper's Fig 2 query: our emission order differs from the
        # paper's γ (the intra-group order is unspecified) but must be a
        # complete, deterministic permutation
        query = parse_query(
            "RA(a,b,d,e), RB(a,d,f,c), RC(g,c,h,i), RD(a,b,d,h), RE(f,c,e,h)")
        order = total_order(query)
        assert sorted(order) == sorted(query.attributes)
        assert order == total_order(query)

    def test_triangle_order_is_compatible(self):
        query = parse_query("R(a,b), S(b,c), T(c,a)")
        assert is_compatible(total_order(query), query)


class TestCompatibility:
    def test_suffix_detection(self):
        query = parse_query("R(a,b), S(b,c)")
        assert is_compatible(("a", "b", "c"), query)     # S is a suffix
        assert is_compatible(("c", "a", "b"), query)     # R is a suffix
        assert not is_compatible(("b", "a", "c"), query)  # neither


class TestConnectivityOrder:
    """The execution-default order (join keys first, always connected)."""

    def test_star_query_binds_hub_first(self):
        from repro.planner.qptree import connectivity_order

        query = parse_query("title(t,kind,year), ci(t,person), mk(t,kw)")
        order = connectivity_order(query)
        assert order[0] == "t"  # degree 3, everything else degree 1
        assert sorted(order) == sorted(query.attributes)

    def test_order_stays_connected(self):
        from repro.planner.qptree import connectivity_order

        query = parse_query("R(a,b), S(b,c), T(c,d), U(d,e)")
        order = connectivity_order(query)
        bound_atoms = set()
        for position, attribute in enumerate(order):
            atoms = {atom.alias for atom in query.atoms_with(attribute)}
            if position > 0:
                assert atoms & bound_atoms, (order, attribute)
            bound_atoms |= atoms

    def test_deterministic(self):
        from repro.planner.qptree import connectivity_order

        query = cycle_query(5)
        assert connectivity_order(query) == connectivity_order(query)
        assert sorted(connectivity_order(query)) == sorted(query.attributes)

    def test_join_accepts_explicit_qptree_order(self):
        # the paper's raw QP-tree order remains usable via order=
        from repro.joins import join
        from repro.storage import Relation

        edges = Relation("E", ("s", "d"), [(0, 1), (1, 2), (2, 0)])
        query = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
        source = {"E1": edges, "E2": edges, "E3": edges}
        default = join(query, source).count
        qp = join(query, source, order=total_order(query)).count
        assert default == qp == 3
