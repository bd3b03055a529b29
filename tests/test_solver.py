import tracemalloc

import numpy as np
import pytest

import limid.solver
from limid import (
    InfluenceDiagram,
    InstanceTooLargeError,
    Variable,
    brute_force_meu,
    expected_utility,
    pure_policy,
)
from limid.cli import generate_diagram
from limid.solver import SolverConfig, assign_factors, solve, solve_full
from limid.treedecomp import (
    TreeDecomposition,
    binarize,
    build_decomposition,
    default_root,
    ensure_value_leaves,
    root_and_order,
)

from conftest import pick_diagram, small_random_diagram, two_agent_diagram


def rooted_decomposition(d):
    shaped = ensure_value_leaves(d, binarize(build_decomposition(d)))
    return root_and_order(shaped, default_root(shaped))


# -- configuration ------------------------------------------------------------------

def test_config_zero_epsilon_forces_exact():
    assert SolverConfig(epsilon=0.0).exact_mode
    assert not SolverConfig(epsilon=0.5).exact_mode
    with pytest.raises(ValueError):
        SolverConfig(epsilon=-0.1)


def test_an_epsilon_too_small_to_move_alpha_solves_exactly():
    d = two_agent_diagram()
    exact = solve_full(d, SolverConfig(epsilon=0.0))
    tiny = solve_full(d, SolverConfig(epsilon=1e-15))
    assert tiny.stats.alpha == 1.0 and tiny.stats.exact
    assert tiny.value == exact.value
    assert not solve_full(d, SolverConfig(epsilon=0.5)).stats.exact


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig(epsilon=epsilon)


@pytest.mark.parametrize("cap", [0, -3, 1.5, "10"])
def test_config_rejects_bad_max_set_size(cap):
    with pytest.raises(ValueError, match="max_set_size"):
        SolverConfig(epsilon=0.5, max_set_size=cap)


def test_config_accepts_positive_or_no_cap():
    assert SolverConfig(max_set_size=1).max_set_size == 1
    assert SolverConfig(max_set_size=None).max_set_size is None


# -- solve on a prepared diagram -------------------------------------------------------

def test_two_strategy_diagram_exact_and_approximate():
    d = pick_diagram()  # utilities already in [0, 1], one value variable
    t = rooted_decomposition(d)
    exact = solve(d, t, SolverConfig(epsilon=0.0))
    assert exact.value == pytest.approx(0.8, abs=1e-12)
    loose = solve(d, t, SolverConfig(epsilon=0.5))
    assert loose.value in (pytest.approx(0.3, abs=1e-12), pytest.approx(0.8, abs=1e-12))
    assert loose.value >= 0.8 / 1.5 - 1e-9


def test_alpha_follows_node_count():
    d = pick_diagram()
    # four duplicated clusters in a path: all families and Pa(v) covered
    t = TreeDecomposition(
        (("c", "d"), ("c", "d"), ("c", "d"), ("c", "d")),
        ((0, 1), (1, 2), (2, 3)), root=0)
    result = solve(d, t, SolverConfig(epsilon=0.4))
    assert result.stats.m == 4
    assert result.stats.alpha == pytest.approx(1.05, abs=1e-15)
    assert result.value == pytest.approx(0.8, abs=1e-9)


def test_no_decision_diagram_any_epsilon():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.25, 0.75]}, {"v": [1.0, 0.0]})
    t = rooted_decomposition(d)
    for eps in (0.0, 0.3, 1.0):
        result = solve(d, t, SolverConfig(epsilon=eps))
        assert result.value == pytest.approx(0.25, abs=1e-12)
        assert result.strategy.policies == ()


def test_solve_preconditions():
    cfg = SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        solve(two_agent_diagram(), rooted_decomposition(two_agent_diagram()), cfg)
    scaled = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.5, 0.5]}, {"v": [5.0, 0.0]})
    with pytest.raises(ValueError):
        solve(scaled, rooted_decomposition(scaled), cfg)
    d = pick_diagram()
    unrooted = ensure_value_leaves(d, binarize(build_decomposition(d)))
    with pytest.raises(ValueError):
        solve(d, unrooted, cfg)


def test_max_set_size_reports_node():
    d = pick_diagram()
    t = rooted_decomposition(d)
    with pytest.raises(InstanceTooLargeError) as err:
        solve(d, t, SolverConfig(epsilon=0.0, max_set_size=1))
    assert "cap" in str(err.value)


def test_cap_fires_before_the_product_is_built():
    d = generate_diagram(12, 5, 3, 2, 3, 0, decision_max_parents=2)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError) as err:
            solve_full(d, SolverConfig(epsilon=0.0, max_set_size=20000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == \
        "set size 4782969 at node 7 (combination) exceeds the cap 20000"
    assert peak < 64 * 2**20


def test_hard_solve_builds_no_per_node_initial_sets():
    # a node's own tables wait unmultiplied until the node is reached
    d = generate_diagram(12, 5, 3, 2, 3, 18, decision_max_parents=2)
    tracemalloc.start()
    try:
        solve_full(d, SolverConfig(epsilon=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_ties_go_to_the_smallest_policy_indices():
    # "a" changes nothing; actions 1 and 2 of "b" are equally good
    p_good = np.array([0.2, 0.9, 0.9])
    d = InfluenceDiagram(
        [Variable("a", "decision", 3), Variable("b", "decision", 3),
         Variable("c", "chance", 2), Variable("v", "value")],
        [("a", "c"), ("b", "c"), ("c", "v")],
        {"c": np.stack([np.tile(1.0 - p_good, (3, 1)), np.tile(p_good, (3, 1))])},
        {"v": [0.0, 1.0]})
    for eps in (0.0, 0.5):
        got = solve_full(d, SolverConfig(epsilon=eps))
        assert got.value == pytest.approx(0.9, abs=1e-12)
        want = (pure_policy(d, "a", 0), pure_policy(d, "b", 1))
        assert [p.table.tolist() for p in got.strategy.policies] == \
               [p.table.tolist() for p in want]


# -- factor assignment -------------------------------------------------------------------

def test_assign_factors_single_node():
    d = pick_diagram()
    t = TreeDecomposition((("c", "d"),), (), root=0)
    assert assign_factors(d, t) == {"c": 0, "d": 0, "v": 0}


def test_assign_factors_prefers_value_leaf_and_smallest_node():
    d = pick_diagram()
    t = rooted_decomposition(d)
    sigma = assign_factors(d, t)
    assert sigma["v"] == t.value_leaf_map["v"]
    plain = TreeDecomposition((("c", "d"), ("c",)), ((0, 1),), root=0)
    sigma = assign_factors(d, plain)
    assert sigma == {"c": 0, "d": 0, "v": 0}


def test_assign_factors_rejects_uncovered_family():
    d = two_agent_diagram()
    t = TreeDecomposition((("c1", "d1"),), (), root=0)
    with pytest.raises(ValueError):
        assign_factors(d, t)


# -- the full pipeline ----------------------------------------------------------------------

def test_solve_full_matches_direct_solve():
    d = pick_diagram()
    direct = solve(d, rooted_decomposition(d), SolverConfig(epsilon=0.0))
    full = solve_full(d, SolverConfig(epsilon=0.0))
    assert full.value == pytest.approx(direct.value, abs=1e-12)


def test_solve_full_exact_matches_oracle():
    for seed in range(10):
        d = small_random_diagram(seed)
        oracle, _ = brute_force_meu(d)
        got = solve_full(d, SolverConfig(epsilon=0.0))
        assert got.value == pytest.approx(oracle, abs=1e-9)


def test_solve_full_approximation_sandwich():
    for seed in range(8):
        d = small_random_diagram(seed)
        oracle, _ = brute_force_meu(d)
        for eps in (0.1, 0.5, 1.0):
            got = solve_full(d, SolverConfig(epsilon=eps))
            assert got.value <= oracle + 1e-9
            assert oracle <= (1 + eps) * got.value + 1e-9


def test_returned_strategy_reproduces_value():
    for seed in range(8):
        d = small_random_diagram(seed)
        for eps in (0.0, 0.5):
            got = solve_full(d, SolverConfig(epsilon=eps))
            assert expected_utility(d, got.strategy) == pytest.approx(got.value, abs=1e-9)
            assert all(p.is_pure() for p in got.strategy.policies)


def test_constant_utility_diagram():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "c"), ("c", "v")],
        {"c": [[0.8, 0.3], [0.2, 0.7]]}, {"v": [2.5, 2.5]})
    got = solve_full(d, SolverConfig(epsilon=0.5))
    assert got.value == pytest.approx(2.5, abs=1e-9)


def test_zero_value_variables():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2)],
        [("d", "c")], {"c": [[0.8, 0.3], [0.2, 0.7]]}, {})
    got = solve_full(d, SolverConfig(epsilon=0.0))
    assert got.value == 0.0
    assert [p.decision for p in got.strategy.policies] == ["d"]


def test_solve_full_accepts_supplied_decomposition():
    d = two_agent_diagram()
    supplied = build_decomposition(d)
    got = solve_full(d, SolverConfig(epsilon=0.0), decomposition=supplied)
    oracle, _ = brute_force_meu(d)
    assert got.value == pytest.approx(oracle, abs=1e-9)
    broken = TreeDecomposition((("c1",),), ())
    with pytest.raises(ValueError):
        solve_full(d, SolverConfig(epsilon=0.0), decomposition=broken)


def test_solve_full_rejects_invalid_diagram():
    bad = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("v", "value")],
        [("c", "v")], {"c": [0.6, 0.3]}, {"v": [0.0, 1.0]})
    with pytest.raises(ValueError):
        solve_full(bad, SolverConfig(epsilon=0.0))


def test_negative_rewards_round_trip():
    d = InfluenceDiagram(
        [Variable("c", "chance", 2), Variable("d", "decision", 2), Variable("v", "value")],
        [("d", "c"), ("c", "v")],
        {"c": [[0.8, 0.3], [0.2, 0.7]]}, {"v": [-1.0, -4.0]})
    oracle, _ = brute_force_meu(d)
    got = solve_full(d, SolverConfig(epsilon=0.0))
    assert got.value == pytest.approx(oracle, abs=1e-9)
    assert got.value == pytest.approx(-1.0 * 0.8 + -4.0 * 0.2, abs=1e-9)


# -- statistics and determinism -----------------------------------------------------------------

def test_exact_work_upper_bounds_pruned_work():
    for seed in range(8):
        d = small_random_diagram(seed)
        exact = solve_full(d, SolverConfig(epsilon=0.0))
        for eps in (0.1, 0.5, 1.0):
            pruned = solve_full(d, SolverConfig(epsilon=eps))
            assert pruned.stats.total_pruned_size <= exact.stats.total_pruned_size


def test_stats_shape():
    d = pick_diagram()
    got = solve_full(d, SolverConfig(epsilon=0.5))
    assert len(got.stats.nodes) == got.stats.m
    for s in got.stats.nodes:
        assert s.c_size <= s.b_size <= s.a_size
        assert s.k_size >= 1


def test_pass_through_nodes_are_not_covered_again(monkeypatch):
    covered, passed = [], []
    real_covering, real_bound = limid.solver.covering, limid.solver.covering_bound

    def bound(k, alpha):
        passed.append((k, alpha))
        return real_bound(k, alpha)

    monkeypatch.setattr(limid.solver, "covering",
                        lambda k, alpha: covered.append(len(k)) or real_covering(k, alpha))
    monkeypatch.setattr(limid.solver, "covering_bound", bound)
    got = solve_full(two_agent_diagram(), SolverConfig(epsilon=0.3))
    assert passed and len(covered) + len(passed) == got.stats.m
    for k, alpha in passed:
        # the message handed on is already a covering: pruning it again keeps it whole
        again, stats = real_covering(k, alpha)
        assert again.values.tobytes() == k.values.tobytes()
        assert np.array_equal(again.policies, k.policies)
        assert real_bound(k, alpha) == (stats.smallest_positive, stats.size_bound)


def test_determinism():
    for seed in (2, 9):
        d = small_random_diagram(seed)
        a = solve_full(d, SolverConfig(epsilon=0.3))
        b = solve_full(d, SolverConfig(epsilon=0.3))
        assert a.value == b.value
        for pa, pb in zip(a.strategy.policies, b.strategy.policies):
            assert pa.table.tobytes() == pb.table.tobytes()
        assert [(s.b_size, s.c_size) for s in a.stats.nodes] == \
               [(s.b_size, s.c_size) for s in b.stats.nodes]
