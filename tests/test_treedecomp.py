import numpy as np
import pytest

from limid import InfluenceDiagram, Variable
from limid.treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    root_and_order,
    validate_decomposition,
)

from conftest import small_random_diagram, two_agent_diagram


def chain_diagram(n=3):
    variables = [Variable(f"c{i}", "chance", 2) for i in range(n)]
    arcs = [(f"c{i}", f"c{i+1}") for i in range(n - 1)]
    cpts = {"c0": [0.5, 0.5]}
    for i in range(1, n):
        cpts[f"c{i}"] = [[0.5, 0.5], [0.5, 0.5]]
    return InfluenceDiagram(variables, arcs, cpts, {})


def clique_diagram(k=4):
    variables = [Variable(f"c{i}", "chance", 2) for i in range(k)] + [Variable("v", "value")]
    arcs = [(f"c{i}", "v") for i in range(k)]
    cpts = {f"c{i}": [0.5, 0.5] for i in range(k)}
    return InfluenceDiagram(variables, arcs, cpts, {"v": np.zeros((2,) * k)})


def pipeline(d):
    shaped = ensure_value_leaves(d, binarize(build_decomposition(d)))
    return root_and_order(shaped, default_root(shaped))


# -- construction ----------------------------------------------------------------

def test_chain_has_width_one():
    t = build_decomposition(chain_diagram())
    assert t.width() == 1
    assert validate_decomposition(chain_diagram(), t) == []


def test_two_agent_width_two_certified():
    # 2 is the optimal width of this diagram's moral graph
    d = two_agent_diagram()
    t = build_decomposition(d)
    assert t.width() == 2
    assert validate_decomposition(d, t) == []


def test_clique_width():
    assert build_decomposition(clique_diagram(4)).width() == 3


def test_empty_diagram_single_empty_cluster():
    d = InfluenceDiagram([], [], {}, {})
    t = build_decomposition(d)
    assert t.clusters == ((),)
    assert validate_decomposition(d, t) == []


# -- validation -------------------------------------------------------------------

def test_validate_flags_running_intersection():
    d = chain_diagram(3)
    t = TreeDecomposition((("c0", "c1"), ("c1", "c2"), ("c0",)), ((0, 1), (1, 2)))
    assert any("running intersection" in line and "'c0'" in line
               for line in validate_decomposition(d, t))


def test_validate_flags_missing_family():
    d = two_agent_diagram()
    t = TreeDecomposition((("c1", "d1"), ("c1",)), ((0, 1),))
    report = validate_decomposition(d, t)
    assert any("family of 'c2'" in line for line in report)
    assert any("value variable" in line and "'v2'" in line for line in report)


def test_validate_flags_non_tree():
    d = chain_diagram(3)
    t = TreeDecomposition((("c0", "c1"), ("c1", "c2"), ("c1",)), ((0, 1),))
    assert any("tree" in line for line in validate_decomposition(d, t))


def bfs_running_intersection(t):
    """Variables whose holding nodes are not connected, by a search from
    the first holder over holders only."""
    clusters = [set(c) for c in t.clusters]
    broken = []
    for var in sorted(set().union(*clusters)):
        holders = {i for i, c in enumerate(clusters) if var in c}
        seen, stack = {min(holders)}, [min(holders)]
        while stack:
            for j in t.neighbors(stack.pop()):
                if j in holders and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != holders:
            broken.append(var)
    return broken


def test_running_intersection_matches_a_search_on_random_trees():
    rng = np.random.default_rng(5)
    d = chain_diagram(6)
    names = [f"c{i}" for i in range(6)]
    violated = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        edges = [(int(rng.integers(i)), i) for i in range(1, n)]
        clusters = [[v for v in names if rng.uniform() < 0.4] for _ in range(n)]
        t = TreeDecomposition(clusters, edges)
        want = bfs_running_intersection(t)
        got = [line for line in validate_decomposition(d, t) if "running intersection" in line]
        assert got == [f"running intersection violated for {v!r}" for v in want]
        violated += bool(want)
    # both outcomes are well represented
    assert 50 < violated < 250


# -- binarize ----------------------------------------------------------------------

def test_binarize_star():
    star = TreeDecomposition(
        (("x",),) * 6, tuple((0, j) for j in range(1, 6)))
    got = binarize(star)
    assert max(got.degree(i) for i in range(got.n)) <= 3
    assert got.width() == star.width()
    assert set(star.clusters) <= set(got.clusters)
    assert got.is_tree()


def test_binarize_identity_cases():
    already = TreeDecomposition((("a",), ("a", "b"), ("b",)), ((0, 1), (1, 2)))
    assert binarize(already) is already
    single = TreeDecomposition((("a",),), ())
    assert binarize(single) is single


# -- value leaves ------------------------------------------------------------------

def test_value_leaf_already_met():
    d = InfluenceDiagram(
        [Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "v")], {}, {"v": [0.0, 1.0]})
    t = build_decomposition(d)
    got = ensure_value_leaves(d, t)
    assert got.clusters == t.clusters
    assert got.value_leaf_map == {"v": 0}


def test_two_value_nodes_sharing_a_covering_node():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v1", "value"), Variable("v2", "value")],
        [("c", "v1"), ("c", "v2")],
        {"c": [0.5, 0.5]}, {"v1": [0.0, 1.0], "v2": [1.0, 0.0]})
    t = build_decomposition(d)
    got = ensure_value_leaves(d, t)
    assert got.n == t.n + 2
    assert got.width() == t.width()
    leaves = got.value_leaf_map
    assert set(leaves) == {"v1", "v2"}
    assert len(set(leaves.values())) == 2
    for v, leaf in leaves.items():
        assert set(got.clusters[leaf]) == set(d.parents(v))
        assert got.degree(leaf) == 1
    assert validate_decomposition(d, got) == []


def test_no_value_variables_is_identity():
    d = chain_diagram()
    t = build_decomposition(d)
    assert ensure_value_leaves(d, t) is t


def test_value_leaves_require_binary_input():
    d = clique_diagram(2)
    star = TreeDecomposition((("c0", "c1"),) * 5, tuple((0, j) for j in range(1, 5)))
    with pytest.raises(ValueError):
        ensure_value_leaves(d, star)


# -- rooting and tours ---------------------------------------------------------------

def test_root_path_at_end():
    t = TreeDecomposition((("a",), ("a", "b"), ("b",)), ((0, 1), (1, 2)))
    rooted = root_and_order(t, 0)
    assert rooted.parent(0) is None
    assert rooted.parent(1) == 0 and rooted.parent(2) == 1
    assert rooted.children(0) == (1,)
    assert [i for i in range(rooted.n) if not rooted.children(i)] == [2]


def test_single_node_tour():
    t = root_and_order(TreeDecomposition((("a",),), ()), 0)
    assert t.euler_tour() == (0,)
    assert t.children(0) == ()


def test_unknown_root_rejected():
    t = TreeDecomposition((("a",),), ())
    with pytest.raises(ValueError):
        root_and_order(t, 3)


def test_tour_length_and_visit_counts():
    for seed in range(10):
        d = small_random_diagram(seed)
        t = pipeline(d)
        tour = t.euler_tour()
        assert len(tour) == 2 * t.n - 1
        counts = {i: 0 for i in range(t.n)}
        for node in tour:
            counts[node] += 1
        for i in range(t.n):
            if not t.children(i):
                assert counts[i] == 1
        for i in range(t.n):
            assert counts[i] <= 3


def test_tour_of_a_deep_path_needs_no_recursion():
    n = 5000
    t = TreeDecomposition(tuple((f"x{i}",) for i in range(n)),
                          tuple((i, i + 1) for i in range(n - 1)), root=0)
    assert t.euler_tour() == tuple(range(n)) + tuple(range(n - 2, -1, -1))


def test_default_root_prefers_unique_value_leaf():
    d = InfluenceDiagram(
        [Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "v")], {}, {"v": [0.0, 1.0]})
    shaped = ensure_value_leaves(d, binarize(build_decomposition(d)))
    assert default_root(shaped) == shaped.value_leaf_map["v"]


# -- pipeline properties ----------------------------------------------------------------

def test_pipeline_round_trip_validates():
    for seed in range(12):
        d = small_random_diagram(seed)
        t0 = build_decomposition(d)
        assert validate_decomposition(d, t0) == []
        t1 = binarize(t0)
        assert validate_decomposition(d, t1) == []
        assert t1.width() <= t0.width()
        t2 = ensure_value_leaves(d, t1)
        assert validate_decomposition(d, t2) == []
        assert t2.width() <= t1.width()
        t3 = root_and_order(t2, default_root(t2))
        assert validate_decomposition(d, t3) == []
        assert max(t3.degree(i) for i in range(t3.n)) <= 3
        assert all(len(t3.children(i)) <= 2 for i in range(t3.n))
