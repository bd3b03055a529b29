import tracemalloc

import numpy as np
import pytest

import limid.solver
from limid.potential import (
    CoveringStats,
    PotentialSet,
    combine_sets,
    concat_sets,
    covering,
    covering_bound,
    floor_log,
    is_covering,
)
from limid.solver import node_message


def single(cards: dict, values, decisions=(), policies=None) -> PotentialSet:
    """A one-member set over the id-sorted scope of ``cards``."""
    scope = tuple(sorted(cards))
    return PotentialSet(scope, tuple(cards[v] for v in scope), np.asarray(values)[np.newaxis],
                        decisions, policies)


def members_set(cards: dict, tables, decision="d") -> PotentialSet:
    """Member i takes pure policy i of ``decision``."""
    scope = tuple(sorted(cards))
    shape = tuple(cards[v] for v in scope)
    values = np.array([np.reshape(t, shape) for t in tables], dtype=float)
    return PotentialSet(scope, shape, values, (decision,),
                        np.arange(len(tables)).reshape(-1, 1))


def random_set(rng, cards: dict, n: int, zeros: bool = False) -> PotentialSet:
    scope = tuple(sorted(cards))
    shape = (n,) + tuple(cards[v] for v in scope)
    values = rng.uniform(0.0, 1.0, size=shape)
    if zeros:
        values[rng.uniform(size=shape) < 0.3] = 0.0
    return PotentialSet(scope, shape[1:], values, ("d",), np.arange(n).reshape(-1, 1))


# -- single potentials, as one-member sets -------------------------------------------

def test_unit_examples():
    unit = combine_sets([])
    assert unit.scope == () and np.array_equal(unit.values, [1.0])
    assert np.array_equal(combine_sets([unit, single({"a": 2}, [1.0, 1.0])]).values,
                          [[1.0, 1.0]])
    ones = combine_sets([single({"a": 2}, [1.0, 1.0]), single({"b": 3}, [1.0] * 3)])
    assert ones.values.size == 6
    assert np.all(ones.values == 1.0)


def test_potential_rejects_bad_entries():
    with pytest.raises(ValueError):
        single({"a": 2}, [-0.1, 0.5])
    with pytest.raises(ValueError):
        single({"a": 2}, [np.inf, 0.5])
    with pytest.raises(ValueError):
        PotentialSet(("b", "a"), (2, 2), np.ones((1, 2, 2)))


def test_multiply_examples():
    p = single({"a": 2}, [0.4, 0.6])
    assert np.array_equal(combine_sets([p, single({"a": 2}, [1.0, 1.0])]).values, p.values)
    assert combine_sets([single({}, 2.0), single({}, 3.0)]).values.tolist() == [6.0]
    q = single({"a": 2}, [0.5, 0.5])
    assert np.allclose(combine_sets([p, q]).values, [[0.2, 0.3]])


def test_multiply_scope_union_and_card_mismatch():
    p = single({"a": 2}, [0.4, 0.6])
    q = single({"b": 3}, [0.1, 0.2, 0.7])
    got = combine_sets([p, q])
    assert got.scope == ("a", "b")
    assert np.allclose(got.values[0], np.outer([0.4, 0.6], [0.1, 0.2, 0.7]))
    with pytest.raises(ValueError):
        combine_sets([p, single({"a": 3}, [0.1, 0.2, 0.7])])


def test_sum_out_examples():
    p = single({"a": 2, "b": 2}, [[0.2, 0.3], [0.1, 0.4]])
    assert np.allclose(combine_sets([p], {"b"}).values, [[0.5, 0.5]])
    assert np.array_equal(combine_sets([p], set()).values, p.values)
    cpt_column = single({"a": 2}, [0.4, 0.6])
    assert float(combine_sets([cpt_column], {"a"}).values[0]) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        combine_sets([p], {"z"})


def test_distributivity(rng):
    for _ in range(20):
        p = single({"a": 2, "b": 3}, rng.uniform(size=(2, 3)))
        q = single({"b": 3, "c": 2}, rng.uniform(size=(3, 2)))
        left = combine_sets([p, q], {"c"})
        right = combine_sets([p, combine_sets([q], {"c"})])
        assert np.allclose(left.values, right.values, atol=1e-12)


# -- potential sets ---------------------------------------------------------------

def test_combine_singletons_and_sizes():
    a = members_set({"a": 2}, [[0.4, 0.6]])
    b = single({"a": 2}, [0.5, 0.5], ("e",), [[0]])
    got = combine_sets([a, b])
    assert len(got) == 1
    assert np.allclose(got.values[0], [0.2, 0.3])
    assert got.decisions == ("d", "e") and got.policies.tolist() == [[0, 0]]

    two = members_set({"a": 2}, [[0.1, 0.9], [0.2, 0.8]], decision="f")
    three = members_set({"b": 2}, [[1, 0], [0, 1], [0.5, 0.5]], decision="e")
    got = combine_sets([two, three])
    assert len(got) == 6
    # lexicographic pair order, columns in decision id order
    assert got.decisions == ("e", "f")
    assert got.policies.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
    assert np.allclose(got.values[3], np.outer([0.2, 0.8], [1, 0]))


def test_combine_with_unit_is_identity():
    k = members_set({"a": 2}, [[0.4, 0.6], [0.2, 0.8]])
    unit = single({"a": 2}, [1.0, 1.0])
    got = combine_sets([k, unit])
    assert np.array_equal(got.values, k.values)
    assert got.decisions == k.decisions
    assert np.array_equal(got.policies, k.policies)


def test_combine_rejects_shared_decisions():
    a = members_set({"a": 2}, [[1.0, 0.0]])
    b = single({"a": 2}, [0.0, 1.0], ("d",), [[1]])
    with pytest.raises(RuntimeError):
        combine_sets([a, b])


def test_combine_empty_list_gives_scalar_unit():
    got = combine_sets([])
    assert got.scope == () and len(got) == 1 and float(got.values[0]) == 1.0


def test_sum_out_set_examples():
    k = members_set({"a": 2, "b": 2}, [[[0.2, 0.3], [0.1, 0.4]]])
    got = combine_sets([k], {"b"})
    assert np.allclose(got.values, [[0.5, 0.5]])
    same = combine_sets([k], set())
    assert np.array_equal(same.values, k.values) and np.array_equal(same.policies, k.policies)
    three = members_set({"a": 2, "b": 2},
                        [np.full((2, 2), 0.25), np.eye(2), np.zeros((2, 2))])
    scalars = combine_sets([three], {"a", "b"})
    assert scalars.scope == () and len(scalars) == 3
    assert np.allclose(scalars.values, [1.0, 2.0, 0.0])
    assert np.array_equal(scalars.policies, three.policies)


def test_combine_member_ranges_rebuild_the_product(rng):
    a = random_set(rng, {"a": 2, "b": 3}, 5)
    b = PotentialSet(("b", "c"), (3, 2), rng.uniform(size=(4, 3, 2)), ("e",),
                     np.arange(4).reshape(-1, 1))
    c = PotentialSet(("c",), (2,), rng.uniform(size=(3, 2)), ("f",),
                     np.arange(3).reshape(-1, 1))
    for gone in (set(), {"b"}, {"a", "c"}):
        whole = combine_sets([a, b, c], gone)
        assert len(whole) == 60
        # the whole product matches the pairwise products summed afterwards
        pairwise = combine_sets([combine_sets([combine_sets([a, b]), c])], gone)
        assert whole.values.tobytes() == pairwise.values.tobytes()
        assert np.array_equal(whole.policies, pairwise.policies)
        pieces = concat_sets([combine_sets([a, b, c], gone, lo, min(lo + 7, 60))
                              for lo in range(0, 60, 7)])
        assert pieces.values.tobytes() == whole.values.tobytes()
        assert np.array_equal(pieces.policies, whole.policies)
    assert len(combine_sets([a, b], (), 3, 3)) == 0
    with pytest.raises(ValueError):
        combine_sets([a, b], (), 5, 21)


# -- the blocked node kernel ---------------------------------------------------------

def unblocked(parts, gone, alpha):
    """The node message built whole: product, sum-out, then one covering call."""
    whole = combine_sets(parts, gone)
    if alpha is None:
        return whole, None, None
    pruned, stats = covering(whole, alpha)
    return pruned, stats.smallest_positive, stats.size_bound


def assert_same_message(got, want):
    assert got[0].scope == want[0].scope and got[0].decisions == want[0].decisions
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert np.array_equal(got[0].policies, want[0].policies)
    assert got[1:] == want[1:]


def test_blocked_kernel_matches_the_whole_product(rng, monkeypatch):
    monkeypatch.setattr(limid.solver, "BLOCK_BYTES", 400)  # three members per block
    for trial in range(40):
        a = random_set(rng, {"a": 2, "b": 2}, int(rng.integers(1, 12)), zeros=trial % 2 == 0)
        nb = int(rng.integers(1, 9))
        # coarse entries: many equal signatures, some of them in different blocks
        b = PotentialSet(("b", "c"), (2, 3), np.round(rng.uniform(size=(nb, 2, 3)), 1),
                         ("e",), np.arange(nb).reshape(-1, 1))
        gone = [set(), {"a"}, {"b", "c"}, {"a", "b", "c"}][trial % 4]
        for alpha in (None, 1.05, 2.0):
            blocked = node_message([a, b], gone, alpha)
            assert_same_message(blocked, unblocked([a, b], gone, alpha))


def test_blocked_kernel_keeps_the_first_signature_across_blocks(monkeypatch):
    # eight members per block; members 6..9 share one signature across the boundary
    k = members_set({"a": 2}, [[0.9, 0.9]] * 6 + [[0.5, 0.4], [0.6, 0.3], [0.5, 0.4],
                                                   [0.55, 0.26], [0.0, 0.2], [0.0, 0.2]])
    unit = single({"a": 2}, [1.0, 1.0], ("e",), [[0]])
    monkeypatch.setattr(limid.solver, "BLOCK_BYTES", 8 * 8 * (2 + 2))
    got = node_message([k, unit], set(), 2.0)
    assert got[0].policies.tolist() == [[0, 0], [6, 0], [10, 0]]
    assert_same_message(got, unblocked([k, unit], set(), 2.0))
    exact = node_message([k, unit], {"a"}, None)
    assert_same_message(exact, unblocked([k, unit], {"a"}, None))


def test_blocked_contraction_never_holds_the_product(rng):
    # 729 x 1269 members over 18 entries: the whole product would take 133 MB
    a = PotentialSet(("x", "y"), (3, 3), rng.uniform(size=(729, 3, 3)), ("d",),
                     np.arange(729).reshape(-1, 1))
    b = PotentialSet(("y", "z"), (3, 2), rng.uniform(size=(1269, 3, 2)), ("e",),
                     np.arange(1269).reshape(-1, 1))
    tracemalloc.start()
    try:
        message, _, _ = node_message([a, b], {"y", "z"}, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message.scope == ("x",) and 0 < len(message) < 729 * 1269
    assert peak < 40e6


# -- covering ----------------------------------------------------------------------

def test_floor_log_signatures():
    assert [floor_log(v, 2.0) for v in (1.0, 0.5)] == [0, -1]
    assert [floor_log(v, 2.0) for v in (0.6, 0.3)] == [-1, -2]
    assert [floor_log(v, 2.0) for v in (0.7, 0.35)] == [-1, -2]


def test_covering_frozen_example():
    k = members_set({"a": 2}, [[1.0, 0.5], [0.6, 0.3], [0.7, 0.35]])
    pruned, stats = covering(k, 2.0)
    assert len(pruned) == 2
    assert np.array_equal(pruned.values[0], [1.0, 0.5])
    assert np.array_equal(pruned.values[1], [0.6, 0.3])
    assert is_covering(k, pruned, 2.0)
    assert 0.7 <= 2.0 * 0.6 and 0.35 <= 2.0 * 0.3
    assert stats == CoveringStats(3, 2, 0.3, 2, (1 - floor_log(0.3, 2.0)) ** 2, 2.0, False)


def test_covering_singleton_and_zero_sentinel():
    one = members_set({"a": 2}, [[0.4, 0.6]])
    pruned, _ = covering(one, 3.0)
    assert len(pruned) == 1
    disjoint = members_set({"a": 2}, [[0.0, 1.0], [1.0, 0.0]])
    for alpha in (1.5, 2.0, 100.0):
        pruned, stats = covering(disjoint, alpha)
        assert len(pruned) == 2
        assert stats.had_zero


def test_covering_rejects_bad_alpha():
    k = members_set({"a": 2}, [[0.4, 0.6]])
    with pytest.raises(ValueError):
        covering(k, 1.0)
    with pytest.raises(ValueError):
        covering(k, 0.5)


def test_covering_property_and_bounds(rng):
    for trial in range(30):
        zeros = trial % 3 == 0
        k = random_set(rng, {"a": 2, "b": 2}, n=int(rng.integers(1, 40)), zeros=zeros)
        alpha = float(rng.uniform(1.01, 3.0))
        pruned, stats = covering(k, alpha)
        assert is_covering(k, pruned, alpha)
        # survivors are verbatim members of the input
        originals = {(k.values[i].tobytes(), k.policies[i].tobytes()) for i in range(len(k))}
        for i in range(len(pruned)):
            assert (pruned.values[i].tobytes(), pruned.policies[i].tobytes()) in originals
        if stats.smallest_positive is not None:
            base = 1 - floor_log(stats.smallest_positive, alpha)
            if stats.had_zero:
                assert len(pruned) <= (base + 1) ** stats.assignments
            else:
                assert len(pruned) <= base ** stats.assignments


def test_covering_bound_is_the_covering_stats(rng):
    for trial in range(10):
        k = random_set(rng, {"a": 2, "b": 3}, n=int(rng.integers(1, 30)), zeros=trial % 2 == 0)
        _, stats = covering(k, 1.3)
        assert covering_bound(k, 1.3) == (stats.smallest_positive, stats.size_bound)
    assert covering_bound(members_set({"a": 2}, [[0.0, 0.0]]), 2.0) == (None, None)


def test_covering_all_zero_members():
    k = members_set({"a": 2}, [[0.0, 0.0], [0.0, 0.0]])
    pruned, stats = covering(k, 2.0)
    assert len(pruned) == 1
    assert stats.smallest_positive is None and stats.size_bound is None
