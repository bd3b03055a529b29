import dataclasses
import re

import numpy as np
import pytest

from limid import InfluenceDiagram, Variable
from limid.cli import generate_diagram
from limid.treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    homes,
    moral_graph,
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
    shaped, leaves = ensure_value_leaves(d, binarize(build_decomposition(d)))
    return root_and_order(shaped, default_root(shaped, leaves))


# -- construction ----------------------------------------------------------------

def test_numpy_integer_node_ids_are_stored_as_python_ints():
    t = TreeDecomposition([["x"], ["x"]], [(np.int64(1), np.int32(0))], root=np.int64(1))
    assert t == TreeDecomposition([["x"], ["x"]], [(0, 1)], root=1)
    ids = [*t.edges[0], t.root]
    assert [type(i) for i in ids] == [int] * 3


@pytest.mark.parametrize("field, fields", [
    ("edges", {"edges": [(0, 1.0)]}),
    ("edges", {"edges": [(True, 0)]}),
    ("edges", {"edges": [(0, 1), (True, 0)]}),
    ("root", {"root": 1.0}),
    ("root", {"root": True}),
])
def test_a_float_or_bool_node_id_is_refused_naming_its_field(field, fields):
    with pytest.raises(ValueError, match=f"^{field} takes integer node ids, got "):
        TreeDecomposition(**{"clusters": [["x"], ["x"]], "edges": [(0, 1)], **fields})


@pytest.mark.parametrize("fields, message", [
    ({"edges": [(0, 0)]}, "bad edge (0, 0)"),
    ({"edges": [(0, 2)]}, "bad edge (0, 2)"),
    ({"edges": [(-1, 0)]}, "bad edge (-1, 0)"),
    ({"root": 2}, "unknown node id 2"),
    ({"root": -1}, "unknown node id -1"),
])
def test_an_edge_or_root_off_the_nodes_is_refused(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TreeDecomposition(**{"clusters": [["x"], ["x"]], "edges": [(0, 1)], **fields})


def test_a_decomposition_without_nodes_is_reported():
    assert validate_decomposition(chain_diagram(), TreeDecomposition((), ())) == \
        ["decomposition has no nodes"]


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


def reference_min_fill(d):
    """Min-fill by recounting every remaining vertex's fill at each step."""
    work = moral_graph(d)

    def fill(v):
        nb = sorted(work[v])
        return sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in work[a])

    order, neighbors = [], []
    while work:
        v = min(work, key=lambda u: (fill(u), u))
        nb = sorted(work.pop(v))
        for a in nb:
            work[a].update(nb)
            work[a].discard(a)
            work[a].discard(v)
        order.append(v)
        neighbors.append(nb)
    return order, neighbors


@pytest.mark.parametrize("pool", [
    small_random_diagram,
    lambda s: generate_diagram(12, 5, 3, 2, 3, s, decision_max_parents=2),
    lambda s: generate_diagram(30, 8, 3, 4, 5, s),
], ids=["corpus", "hard", "dense"])
def test_min_fill_eliminates_in_the_reference_order(pool):
    for seed in range(30):
        d = pool(seed)
        order, neighbors = reference_min_fill(d)
        bags = tuple(tuple(sorted([v] + nb)) for v, nb in zip(order, neighbors))
        assert build_decomposition(d).clusters == bags, seed


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
            for j in t.adjacency[stack.pop()]:
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


def test_homes_match_the_smallest_covering_cluster_on_random_trees():
    rng = np.random.default_rng(11)
    names = [f"c{i}" for i in range(6)]
    values = [f"v{k}" for k in range(3)]
    uncovered = parentless = 0
    for _ in range(300):
        arcs = [(a, b) for j, b in enumerate(names) for a in names[:j] if rng.uniform() < 0.3]
        arcs += [(a, v) for v in values for a in names if rng.uniform() < 0.2]
        d = InfluenceDiagram([Variable(x, "chance", 2) for x in names]
                             + [Variable(v, "value") for v in values], arcs)
        n = int(rng.integers(1, 9))
        edges = [(int(rng.integers(i)), i) for i in range(1, n)]
        t = TreeDecomposition([[x for x in names if rng.uniform() < 0.5] for _ in range(n)], edges)
        got = homes(d, t)
        for v in d.variables:
            family = {a for a, b in arcs if b == v.id} | ({v.id} if v.kind != "value" else set())
            want = min((i for i, c in enumerate(t.clusters) if family <= set(c)), default=None)
            assert got[v.id] == want
            uncovered += want is None
            parentless += not family
    # both corner cases are well represented
    assert uncovered > 100 and parentless > 100


# -- binarize ----------------------------------------------------------------------

def test_binarize_star():
    star = TreeDecomposition(
        (("x",),) * 6, tuple((0, j) for j in range(1, 6)))
    got = binarize(star)
    assert max(map(len, got.adjacency)) <= 3
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
    got, leaves = ensure_value_leaves(d, t)
    assert got.clusters == t.clusters
    assert leaves == {"v": 0}


def test_two_value_nodes_sharing_a_covering_node():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v1", "value"), Variable("v2", "value")],
        [("c", "v1"), ("c", "v2")],
        {"c": [0.5, 0.5]}, {"v1": [0.0, 1.0], "v2": [1.0, 0.0]})
    t = build_decomposition(d)
    got, leaves = ensure_value_leaves(d, t)
    assert got.n == t.n + 2
    assert got.width() == t.width()
    # the leaf map rides beside the tree, which equals the tree its document gives
    assert got == TreeDecomposition(got.clusters, got.edges)
    assert set(leaves) == {"v1", "v2"}
    assert len(set(leaves.values())) == 2
    for v, leaf in leaves.items():
        assert set(got.clusters[leaf]) == set(d.parents(v))
        assert len(got.adjacency[leaf]) == 1
    assert validate_decomposition(d, got) == []


def test_a_twin_left_by_a_split_becomes_a_later_free_leaf():
    # v1's split copies the lone leaf {a, b} into a childless twin, which is
    # then exactly the parent set of v2
    d = InfluenceDiagram(
        [Variable("a", "chance", 2), Variable("b", "chance", 2),
         Variable("v1", "value"), Variable("v2", "value")],
        [("a", "v1"), ("a", "v2"), ("b", "v2")],
        {"a": [0.5, 0.5], "b": [0.5, 0.5]}, {"v1": [0.0, 1.0], "v2": np.eye(2)})
    t = TreeDecomposition((("a", "b"),), ())
    got, leaves = ensure_value_leaves(d, t)
    assert got.clusters == (("a", "b"), ("a", "b"), ("a",))
    assert leaves == {"v1": 2, "v2": 1}
    assert validate_decomposition(d, got) == []


def test_no_value_variables_is_identity():
    d = chain_diagram()
    t = build_decomposition(d)
    got, leaves = ensure_value_leaves(d, t)
    assert got is t and leaves == {}


def test_value_leaves_require_binary_input():
    d = clique_diagram(2)
    star = TreeDecomposition((("c0", "c1"),) * 5, tuple((0, j) for j in range(1, 5)))
    with pytest.raises(ValueError, match="decomposition must be binary"):
        ensure_value_leaves(d, star)


def test_a_value_leaf_needs_a_cluster_covering_its_parents():
    d = clique_diagram(2)
    t = TreeDecomposition((("c0",), ("c1",)), ((0, 1),))
    with pytest.raises(ValueError, match="^no cluster covers the parents of value variable 'v'$"):
        ensure_value_leaves(d, t)


# -- rooting and tours ---------------------------------------------------------------

def test_root_path_at_end():
    t = TreeDecomposition((("a",), ("a", "b"), ("b",)), ((0, 1), (1, 2)))
    rooted = root_and_order(t, 0)
    parents, children, _ = rooted.orientation
    assert parents == (None, 0, 1)
    assert children[0] == (1,)
    assert [i for i in range(rooted.n) if not children[i]] == [2]


def test_single_node_tour():
    t = root_and_order(TreeDecomposition((("a",),), ()), 0)
    assert t.euler_tour() == (0,)
    assert t.orientation[1] == ((),)


def test_unknown_root_rejected():
    t = TreeDecomposition((("a",),), ())
    with pytest.raises(ValueError):
        root_and_order(t, 3)


def test_rerooting_shares_what_does_not_depend_on_the_root():
    for seed in range(12):
        t = binarize(build_decomposition(generate_diagram(8, 3, 3, 2, 3, seed)))
        t.adjacency, t._holders  # computed before the trees that share them are made
        for r in range(t.n):
            rooted = root_and_order(t, r)
            fresh = dataclasses.replace(t, root=r)
            assert rooted == fresh
            assert rooted.adjacency is t.adjacency and rooted._holders is t._holders
            again = root_and_order(rooted, t.n - 1 - r)
            # the orientation depends on the root, so it is never carried over
            assert again == dataclasses.replace(t, root=t.n - 1 - r)
            for tree, reference in ((rooted, fresh),
                                    (again, dataclasses.replace(t, root=t.n - 1 - r))):
                assert tree.orientation == reference.orientation
        for r in (-1, t.n):
            with pytest.raises(ValueError, match=f"unknown node id {r}"):
                root_and_order(t, r)


def test_tour_length_and_visit_counts():
    for seed in range(10):
        d = small_random_diagram(seed)
        t = pipeline(d)
        tour = t.euler_tour()
        assert len(tour) == 2 * t.n - 1
        counts = {i: 0 for i in range(t.n)}
        for node in tour:
            counts[node] += 1
        for i, kids in enumerate(t.orientation[1]):
            if not kids:
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
    shaped, leaves = ensure_value_leaves(d, binarize(build_decomposition(d)))
    assert default_root(shaped, leaves) == leaves["v"]


def test_default_root_falls_back_to_a_value_leaf_when_every_candidate_is_one():
    # both nodes of the path are value leaves, and no other node has degree two or less
    t = TreeDecomposition((("a",), ("b",)), ((0, 1),))
    assert default_root(t, {"v1": 1, "v2": 0}) == 0


# -- pipeline properties ----------------------------------------------------------------

def test_pipeline_round_trip_validates():
    for seed in range(12):
        d = small_random_diagram(seed)
        t0 = build_decomposition(d)
        assert validate_decomposition(d, t0) == []
        t1 = binarize(t0)
        assert validate_decomposition(d, t1) == []
        assert t1.width() <= t0.width()
        t2, leaves = ensure_value_leaves(d, t1)
        assert validate_decomposition(d, t2) == []
        assert t2.width() <= t1.width()
        t3 = root_and_order(t2, default_root(t2, leaves))
        assert validate_decomposition(d, t3) == []
        assert max(map(len, t3.adjacency)) <= 3
        assert all(len(kids) <= 2 for kids in t3.orientation[1])
