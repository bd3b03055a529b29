import math
import re
import tracemalloc

import numpy as np
import pytest

import limid.potential
import limid.solver
from limid.potential import (
    CoveringStats,
    PotentialSet,
    combine_sets,
    concat_sets,
    covering,
    covering_bound,
    floor_log,
)
from limid.solver import _blocks, node_message

from conftest import is_covering


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


@pytest.mark.parametrize("cards", [(2,), (2, 2, 1), (-1, 2), (2.5, 2), (True, 2), (0, 2),
                                   (2, 2.0), (2, None)])
def test_cards_that_do_not_describe_the_scope_are_refused(cards):
    # (2,) once dropped b from the scope, -1 was inferred by reshape, 2.5 became 2
    # and 0 broke covering with a bare "range() arg 3 must not be zero"
    with pytest.raises(ValueError, match=re.escape(f"potential set cards {cards!r} are not "
                                                   "one positive integer per scope variable")):
        PotentialSet(("a", "b"), cards, np.full((1, 2, 2), 0.25))


@pytest.mark.parametrize("policies", [np.zeros((2, 2)), np.zeros((1, 1)), np.zeros(2)])
def test_policies_need_one_index_per_member_and_decision(policies):
    with pytest.raises(ValueError, match="^one policy index per member and decision required$"):
        PotentialSet(("a",), (2,), np.ones((2, 2)), ("d",), policies)


def test_numpy_integer_cards_are_stored_as_python_ints():
    k = PotentialSet(("a", "b"), (np.int64(2), np.int32(1)), np.ones((1, 2, 1)))
    assert k.cards == (2, 1) and all(type(c) is int for c in k.cards)


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


def test_combine_places_interleaved_decisions_in_id_order():
    # "d" and "f" of one set are not neighbours among the joint decisions
    two = PotentialSet(("a",), (2,), np.ones((2, 2)), ("d", "f"), [[0, 5], [1, 6]])
    three = PotentialSet(("a",), (2,), np.ones((3, 2)), ("e",), [[7], [8], [9]])
    got = combine_sets([two, three])
    assert got.decisions == ("d", "e", "f")
    assert got.policies.tolist() == [[0, 7, 5], [0, 8, 5], [0, 9, 5],
                                     [1, 7, 6], [1, 8, 6], [1, 9, 6]]


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
    c = single({"a": 2}, [0.0, 1.0], ("d", "e"), [[1, 0]])
    d = single({"a": 2}, [0.0, 1.0], ("e",), [[0]])
    with pytest.raises(RuntimeError, match=re.escape("decisions ['d', 'e'] met twice")):
        combine_sets([a, c, d])


def test_combine_rejects_a_product_that_overflows():
    big = single({"a": 2}, [1e200, 1.0])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            combine_sets([big, single({"a": 2}, [1e200, 1.0], ("e",), [[0]])])
        with pytest.raises(ValueError, match="finite"):
            combine_sets([big, single({"b": 2}, [1e200, 0.0], ("e",), [[0]])], {"a"})


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
        # runs of the first set, then one member of it with runs of the second
        by_first = [[a.members(0, 2), b, c], [a.members(2, 5), b, c]]
        by_second = [[a.members(i, i + 1), b.members(lo, hi), c]
                     for i in range(5) for lo, hi in ((0, 3), (3, 4))]
        for slices in (by_first, by_second):
            pieces = concat_sets([combine_sets(parts, gone) for parts in slices], len(whole))
            assert pieces.values.tobytes() == whole.values.tobytes()
            assert np.array_equal(pieces.policies, whole.policies)


def test_member_slices_view_the_set(rng):
    a = random_set(rng, {"a": 2}, 5)
    part = a.members(1, 4)
    assert (part.scope, part.cards, part.decisions) == (a.scope, a.cards, a.decisions)
    assert part.values.tobytes() == a.values[1:4].tobytes()
    assert part.policies[:, 0].tolist() == [1, 2, 3]
    assert np.shares_memory(part.values, a.values) and np.shares_memory(part.policies, a.policies)
    assert not (part.values.flags.writeable or part.policies.flags.writeable)
    assert len(a.members(3, 3)) == 0 and len(combine_sets([a.members(3, 3)], {"a"})) == 0
    for start, stop in ((-1, 2), (3, 2), (4, 6)):
        with pytest.raises(ValueError):
            a.members(start, stop)


# -- the blocked node kernel ---------------------------------------------------------

def unblocked(parts, gone, alpha):
    """The node message built whole: product, sum-out, then one covering call."""
    whole = combine_sets(parts, gone)
    return (whole, CoveringStats()) if alpha is None else covering(whole, alpha)


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


def block_indices(sizes, ranges):
    """The lexicographic product indices of the members of one block."""
    grid = np.meshgrid(*(np.arange(lo, hi) for lo, hi in ranges), indexing="ij")
    return np.ravel_multi_index(grid, sizes).ravel()


def split_runs(sizes, step, blocks):
    """The split set's index and its run lengths under the first prefix, after
    checking that a block takes one member of each set before the split set,
    the whole of each set after it, and the same runs under every prefix."""
    split = next(k for k in range(len(sizes)) if math.prod(sizes[k + 1:]) <= step)
    runs = [hi - lo for lo, hi in (ranges[split] for ranges in blocks)]
    per = len(runs) // math.prod(sizes[:split])
    assert runs == runs[:per] * math.prod(sizes[:split])
    for ranges in blocks:
        assert all(hi - lo == 1 for lo, hi in ranges[:split])
        assert ranges[split + 1:] == [(0, size) for size in sizes[split + 1:]]
    return split, runs[:per]


def check_tiling(sizes, step):
    blocks = list(_blocks(sizes, step))
    assert np.array_equal(np.concatenate([block_indices(sizes, r) for r in blocks]),
                          np.arange(math.prod(sizes)))
    assert max(math.prod(hi - lo for lo, hi in r) for r in blocks) <= step
    split, runs = split_runs(sizes, step, blocks)
    # as few runs as fit in a block, all of one length but a shorter last one
    assert len(runs) == -(-sizes[split] // (step // math.prod(sizes[split + 1:])))
    assert set(runs[:-1]) <= {runs[0]} and runs[-1] <= runs[0]
    return split, runs


@pytest.mark.parametrize("sizes,step", [((3, 4, 5), 7), ((2, 3, 4, 5), 9), ((7, 1, 6), 5),
                                        ((5, 9), 10), ((11,), 10), ((4, 4), 16)])
def test_blocks_tile_the_product(sizes, step):
    check_tiling(sizes, step)


def test_the_empty_product_is_one_empty_block():
    for step in (1, 10):
        assert list(_blocks([], step)) == [[]]


@pytest.mark.parametrize("alpha", [None, 2.0])
def test_a_node_without_parts_gives_the_scalar_unit(alpha):
    message, stats = node_message([], set(), alpha)
    assert message.scope == () and message.decisions == ()
    assert message.values.tolist() == [1.0] and message.policies.shape == (1, 0)
    assert stats == (CoveringStats() if alpha is None else CoveringStats(1.0, 1))


def test_a_split_set_just_over_a_block_gives_two_halves():
    # eleven members of the split set, ten to a block: runs of 6 and 5, not 10 and 1
    assert check_tiling((3, 11), 10) == (1, [6, 5])
    assert check_tiling((3, 11, 2), 20) == (1, [6, 5])


def test_blocks_tile_random_products(rng):
    prefixed = 0
    for _ in range(300):
        sizes = tuple(int(x) for x in rng.integers(1, 8, size=int(rng.integers(1, 5))))
        step = int(rng.integers(1, math.prod(sizes) // 2 + 2))
        split, _ = check_tiling(sizes, step)
        prefixed += math.prod(sizes[:split]) > 1
    # many of the splits fall on a later set with a multi-member prefix
    assert prefixed > 50


def three_parts(rng, sizes):
    """Three sets sharing variables and coarse entries: many equal signatures."""
    def part(scope, cards, n, dec):
        values = np.round(rng.uniform(size=(n,) + cards), 1)
        values[rng.uniform(size=values.shape) < 0.15] = 0.0
        return PotentialSet(scope, cards, values, (dec,), np.arange(n).reshape(-1, 1))
    return [part(("a", "b"), (2, 2), sizes[0], "f"), part(("b", "c"), (2, 3), sizes[1], "d"),
            part(("c",), (3,), sizes[2], "e")]


def test_node_message_is_independent_of_the_block_size(rng, monkeypatch):
    member_bytes = 8 * (2 * 2 * 3 + 3)  # joint tables plus three policy columns
    for trial in range(12):
        sizes = tuple(int(x) for x in rng.integers(1, 8, size=3))
        parts = three_parts(rng, sizes)
        gone = [set(), {"a"}, {"b", "c"}, {"a", "b", "c"}][trial % 4]
        want = {alpha: unblocked(parts, gone, alpha) for alpha in (None, 1.2, 3.0)}
        # one member per block, splits on the last, middle and first set, one block
        for members in (1, 2, 3, 5, 9, 20, 70, 400):
            monkeypatch.setattr(limid.solver, "BLOCK_BYTES", members * member_bytes)
            for alpha, message in want.items():
                assert_same_message(node_message(parts, gone, alpha), message)


def test_own_sets_fold_into_the_node_product(rng, monkeypatch):
    """A node's own sets and its children's messages, as one product, give
    the message their combined own sets would give: the leading set split
    into its factors keeps the member order and the multiplication order."""
    for trial in range(12):
        sizes = tuple(int(x) for x in rng.integers(1, 8, size=3))
        table = single({"a": 2, "c": 3}, rng.uniform(size=(2, 3)))
        parts = three_parts(rng, sizes)
        own = [table, parts[0], parts[1]][:trial % 4]
        children = parts[2:] if trial % 4 else parts[1:]
        scope = sorted(set().union(*(p.scope for p in own + children)))
        gone = set(scope[:trial % 3])
        for block_bytes in (100, 300, 1000, 5000, 1 << 23):
            monkeypatch.setattr(limid.solver, "BLOCK_BYTES", block_bytes)
            for alpha in (None, 1.2, 3.0):
                assert_same_message(node_message(own + children, gone, alpha),
                                    node_message([combine_sets(own)] + children, gone, alpha))


def traced_peak(run):
    """``run()`` and the peak bytes ``tracemalloc`` saw while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def contraction_parts(rng):
    """729 x 1269 members over 18 entries: the whole product would take 133 MB."""
    a = PotentialSet(("x", "y"), (3, 3), rng.uniform(size=(729, 3, 3)), ("d",),
                     np.arange(729).reshape(-1, 1))
    b = PotentialSet(("y", "z"), (3, 2), rng.uniform(size=(1269, 3, 2)), ("e",),
                     np.arange(1269).reshape(-1, 1))
    return [a, b]


def test_blocked_contraction_never_holds_the_product(rng):
    (message, _), peak = traced_peak(
        lambda: node_message(contraction_parts(rng), {"y", "z"}, 2.0))
    assert message.scope == ("x",) and 0 < len(message) < 729 * 1269
    assert peak < 40e6


def test_exact_contraction_holds_one_message_and_one_block(rng):
    parts = contraction_parts(rng)
    (message, _), peak = traced_peak(lambda: node_message(parts, {"y", "z"}, None))
    assert message.scope == ("x",) and len(message) == 729 * 1269
    assert message.policies[1270].tolist() == [1, 1]
    # the message is written block by block into one array, never copied whole
    assert peak < 1.75 * (message.values.nbytes + message.policies.nbytes)


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
    assert stats == CoveringStats(0.3, (1 - floor_log(0.3, 2.0)) ** 2)


def test_covering_singleton_and_zero_sentinel():
    one = members_set({"a": 2}, [[0.4, 0.6]])
    pruned, _ = covering(one, 3.0)
    assert len(pruned) == 1
    disjoint = members_set({"a": 2}, [[0.0, 1.0], [1.0, 0.0]])
    for alpha in (1.5, 2.0, 100.0):
        pruned, _ = covering(disjoint, alpha)
        assert len(pruned) == 2


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
            # a zero entry takes one more signature, the zero sentinel
            had_zero = bool(np.any(k.values == 0.0))
            assert len(pruned) <= (base + had_zero) ** math.prod(k.cards)


def test_covering_bound_is_the_covering_stats(rng):
    for trial in range(10):
        k = random_set(rng, {"a": 2, "b": 3}, n=int(rng.integers(1, 30)), zeros=trial % 2 == 0)
        _, stats = covering(k, 1.3)
        assert covering_bound(k, 1.3) == stats
    assert covering_bound(members_set({"a": 2}, [[0.0, 0.0]]), 2.0) == CoveringStats()


def reference_first_rows(sig):
    """First rows of every distinct row by ``np.unique`` on opaque byte rows."""
    rows = sig.view(np.dtype((np.void, 8 * sig.shape[1]))).ravel()
    return np.sort(np.unique(rows, return_index=True)[1])


def reference_signatures(values: np.ndarray, alpha: float) -> np.ndarray:
    """Every entry's signature by the direct formula, all at once, with the
    least ``int64`` standing in for zero entries."""
    flat = values.reshape(len(values), -1)
    positive = flat > 0.0
    sig = np.full(flat.shape, np.iinfo(np.int64).min, dtype=np.int64)
    q = np.log(flat[positive]) / math.log(alpha)
    r = np.rint(q)
    sig[positive] = np.where(np.abs(q - r) <= 1e-12, r, np.floor(q)).astype(np.int64)
    return sig


def reference_survivors(values: np.ndarray, alpha: float) -> np.ndarray:
    """Covering's survivors by the direct formula: rows of signatures grouped as raw bytes."""
    return reference_first_rows(reference_signatures(values, alpha))


def packed_keys(values: np.ndarray, alpha: float) -> np.ndarray:
    """The key words covering packs for the rows of ``values``."""
    positive = values[values > 0.0]
    smallest = float(positive.min()) if positive.size else None
    return limid.potential._packed_keys(values, alpha, smallest)


@pytest.mark.parametrize("chunked", [False, True])
def test_covering_matches_the_direct_formula(rng, monkeypatch, chunked):
    if chunked:
        # small chunks spread the signature pass over many row chunks
        monkeypatch.setattr(limid.potential, "_CHUNK_ENTRIES", 40)
    for trial in range(24):
        # coarse entries and zeros: many rows share a signature
        k = random_set(rng, {"a": 2, "b": 3}, n=int(rng.integers(8, 300)), zeros=True)
        k = PotentialSet(k.scope, k.cards, np.round(k.values, 1), k.decisions, k.policies)
        for alpha in (1.01, 1.3, 2.0, 10.0):
            pruned, _ = covering(k, alpha)
            want = reference_survivors(k.values, alpha)
            assert pruned.policies[:, 0].tolist() == want.tolist()
            assert pruned.values.tobytes() == k.values[want].tobytes()


@pytest.mark.parametrize("rows", ["mixed", "first column only", "all colliding"])
def test_first_rows_match_a_unique_reference(rng, rows):
    for trial in range(12):
        alpha = (1.01, 1.3, 10.0)[trial % 3]
        width = int(rng.integers(1, 6))
        pool = rng.integers(-4, 2, size=(int(rng.integers(1, 40)), width))
        if rows == "first column only":
            # rows that agree after their first column
            pool[:, 1:] = pool[0, 1:]
        elif rows == "all colliding":
            # one signature in every column, rows told apart by their zeros only
            pool[:] = pool[0, 0]
        pool = np.where(rng.uniform(size=pool.shape) < 0.2, 0.0, alpha ** pool.astype(float))
        # heavily duplicated rows
        values = pool[rng.integers(len(pool), size=int(rng.integers(1, 20_000)))]
        got = limid.potential._first_rows(packed_keys(values, alpha))
        assert got.tolist() == reference_survivors(values, alpha).tolist()


def split_cases(rng):
    """Sets for both sides of covering's row split, with their alpha."""
    alpha = 1.3
    for n in (1, 2, 5, 40, 300):
        for zeros in (False, True):
            k = random_set(rng, {"a": 2, "b": 3}, n, zeros=zeros)
            # coarse entries, so many rows share a signature
            yield PotentialSet(k.scope, k.cards, np.round(k.values, 1), k.decisions,
                               k.policies), alpha
    yield members_set({"a": 2}, [[0.0, 0.0]] * 4), alpha  # all zero
    # entries exactly at powers of alpha, and zeros, in every pair
    entries = [0.0] + [alpha ** e for e in range(-6, 1)]
    yield members_set({"a": 2}, [[a, b] for a in entries for b in entries] * 2), alpha
    # 1 - 1e-15 snaps to the signature of 1.0 from below, where rint gives -0.0:
    # it shares a bucket with 1.0 on both sides of the split
    yield members_set({"a": 2}, [[1.0, 0.5], [1.0 - 1e-15, 0.5], [0.5, 1.0 - 1e-15]]), 1.01


@pytest.mark.parametrize("dict_rows", [1 << 30, 0], ids=["dict", "sorted"])
def test_covering_agrees_whether_grouped_in_a_dict_or_sorted(rng, monkeypatch, dict_rows):
    for k, alpha in split_cases(rng):
        want = reference_survivors(k.values, alpha)
        with monkeypatch.context() as m:
            m.setattr(limid.potential, "_DICT_ROWS", dict_rows)
            pruned, stats = covering(k, alpha)
        assert pruned.policies[:, 0].tolist() == want.tolist()
        assert pruned.values.tobytes() == k.values[want].tobytes()
        assert stats == covering_bound(k, alpha)


@pytest.mark.parametrize("chunk", [1 << 14, 7])
def test_covering_bound_is_the_masked_min(rng, monkeypatch, chunk):
    # small chunks mix chunks of positive entries with chunks holding zeros
    monkeypatch.setattr(limid.potential, "_CHUNK_ENTRIES", chunk)
    for trial in range(20):
        k = random_set(rng, {"a": 2, "b": 3}, n=int(rng.integers(1, 30)), zeros=trial % 2 == 1)
        want = float(np.min(k.values, where=k.values > 0.0, initial=math.inf))
        stats = covering_bound(k, 1.3)
        if want == math.inf:
            assert stats == CoveringStats()
        else:
            assert stats == CoveringStats(want, (1 - floor_log(want, 1.3)) ** 6)


def duplicated_rows(rng, pool: np.ndarray, n: int) -> np.ndarray:
    """``n`` rows drawn from ``pool``, some zeroed, followed by copies of its
    first row with one entry changed in each column."""
    rows = pool[rng.integers(len(pool), size=n)]
    rows[rng.uniform(size=rows.shape) < 0.1] = 0.0
    variants = np.repeat(pool[:1], pool.shape[1], axis=0)
    variants[np.diag_indices(pool.shape[1])] = pool[1, 0]
    return np.concatenate([rows, variants])


@pytest.mark.parametrize("case", ["single member", "all zero", "above one",
                                  "extreme alpha", "several words", "bucket edges"])
def test_packed_keys_match_the_reference(rng, monkeypatch, case):
    alpha = 1.3
    if case == "single member":
        values = rng.uniform(size=(1, 4))
    elif case == "all zero":
        values = np.zeros((5, 3))
    elif case == "above one":
        values = duplicated_rows(rng, rng.uniform(1.0, 1e6, size=(20, 6)), 300)
    elif case == "extreme alpha":
        alpha = 1 + 1e-15
        values = duplicated_rows(rng, 10.0 ** rng.uniform(-300, 300, size=(20, 4)), 300)
    elif case == "several words":
        alpha = 1.01
        values = duplicated_rows(rng, rng.uniform(1e-6, 1.0, size=(30, 40)), 500)
    else:
        # every pair of zero and the powers alpha**-6..alpha**0, whose
        # signatures fill a 3-bit field exactly
        entries = [0.0] + [alpha ** k for k in range(-6, 1)]
        values = np.array([[a, b] for a in entries for b in entries])
    want = reference_survivors(values, alpha).tolist()
    # the smallest and largest entries of a bucket-edge set sit where the range
    # (math.log) and the codes (np.log) may disagree in the last bit; the
    # margin absorbs a range read one signature off on both ends
    for shift in (-1, 0, 1) if case == "bucket edges" else (0,):
        with monkeypatch.context() as m:
            m.setattr(limid.potential, "floor_log", lambda value, a: floor_log(value, a) + shift)
            words = packed_keys(values, alpha)
        assert limid.potential._first_rows(words).tolist() == want
    if case == "extreme alpha":
        assert words.shape[1] == values.shape[1]  # one code a word
    elif case == "several words":
        assert words.shape[1] >= 3
    k = PotentialSet(("a",), values.shape[1:], values, ("d",), np.arange(len(values))[:, None])
    assert covering(k, alpha)[0].policies[:, 0].tolist() == want


def test_rows_differing_only_in_their_zeros_get_distinct_keys():
    # every zero pattern over nine entries of one signature: only a code of its
    # own for the zero sentinel keeps all 512 rows apart
    patterns = (np.arange(512)[:, None] >> np.arange(9)) & 1
    for filler in (1.0, 0.5, 1e-9):
        k = PotentialSet(("a",), (9,), patterns * filler)
        assert len(covering(k, 2.0)[0]) == 512


def test_covering_memory_stays_near_its_input(rng):
    # 150,000 x 9 members, all surviving: covering holds no temporary as large
    # as its input, such as a signature matrix
    k = random_set(rng, {"a": 3, "b": 3}, n=150_000)
    (pruned, _), peak = traced_peak(lambda: covering(k, 1.001))
    assert len(pruned) == len(k)
    assert peak < k.values.nbytes


def test_sets_never_alias_a_callers_arrays(rng):
    values = rng.uniform(size=(4, 2))
    policies = np.arange(4).reshape(-1, 1)
    k = PotentialSet(("a",), (2,), values, ("d",), policies)
    before = (k.values.copy(), k.policies.copy())
    values[:] = 7.0
    policies[:] = 3
    assert np.array_equal(k.values, before[0]) and np.array_equal(k.policies, before[1])
    built = [k, combine_sets([k], {"a"}), concat_sets([k, k], 8), covering(k, 1.5)[0]]
    for s in built:
        assert not (s.values.flags.writeable or s.policies.flags.writeable)
        assert not np.shares_memory(s.values, values)
        assert not np.shares_memory(s.policies, policies)


def test_covering_all_zero_members():
    k = members_set({"a": 2}, [[0.0, 0.0], [0.0, 0.0]])
    pruned, stats = covering(k, 2.0)
    assert len(pruned) == 1
    assert stats.smallest_positive is None and stats.size_bound is None
