import numpy as np
import pytest

from limid.potential import (
    CoveringStats,
    PotentialSet,
    combine_sets,
    covering,
    floor_log,
    is_covering,
    sum_out_set,
)


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
    assert np.allclose(sum_out_set(p, {"b"}).values, [[0.5, 0.5]])
    assert sum_out_set(p, set()) is p
    cpt_column = single({"a": 2}, [0.4, 0.6])
    assert float(sum_out_set(cpt_column, {"a"}).values[0]) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sum_out_set(p, {"z"})


def test_distributivity(rng):
    for _ in range(20):
        p = single({"a": 2, "b": 3}, rng.uniform(size=(2, 3)))
        q = single({"b": 3, "c": 2}, rng.uniform(size=(3, 2)))
        left = sum_out_set(combine_sets([p, q]), {"c"})
        right = combine_sets([p, sum_out_set(q, {"c"})])
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
    got = sum_out_set(k, {"b"})
    assert np.allclose(got.values, [[0.5, 0.5]])
    assert sum_out_set(k, set()) is k
    three = members_set({"a": 2, "b": 2},
                        [np.full((2, 2), 0.25), np.eye(2), np.zeros((2, 2))])
    scalars = sum_out_set(three, {"a", "b"})
    assert scalars.scope == () and len(scalars) == 3
    assert np.allclose(scalars.values, [1.0, 2.0, 0.0])
    assert np.array_equal(scalars.policies, three.policies)


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


def test_covering_all_zero_members():
    k = members_set({"a": 2}, [[0.0, 0.0], [0.0, 0.0]])
    pruned, stats = covering(k, 2.0)
    assert len(pruned) == 1
    assert stats.smallest_positive is None and stats.size_bound is None
