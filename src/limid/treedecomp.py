"""Tree decompositions of influence diagrams.

Clusters hold chance and decision variables only; reward parent sets enter
the moral graph as cliques so that some cluster covers each of them.  A
decomposition is valid when the edges form a tree, every family (and every
reward parent set) fits in some cluster, and the clusters containing any
given variable induce a connected subtree.

Construction eliminates the moral graph in a min-fill ordering.  The
solver's guarantee needs a decomposition of bounded width, not an optimal
one, so no exact ordering search is made.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property

from .model import InfluenceDiagram, VALUE, _integer


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree of variable clusters, optionally rooted: what a document's
    ``decomposition`` block holds.  Instances are canonical: cluster
    contents and edges are sorted, so two decompositions compare equal
    exactly when their documents do.
    """

    clusters: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]
    root: int | None = None

    def __post_init__(self) -> None:
        def node(i: object, field: str) -> int:
            j = _integer(i)
            if j is None:
                raise ValueError(f"{field} takes integer node ids, got {i!r}")
            return j

        clusters = tuple(tuple(sorted(set(c))) for c in self.clusters)
        n = len(clusters)
        ends = ((node(i, "edges"), node(j, "edges")) for i, j in self.edges)
        edges = tuple(sorted({(min(i, j), max(i, j)) for i, j in ends}))
        for i, j in edges:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i}, {j})")
        root = None if self.root is None else node(self.root, "root")
        if root is not None and not 0 <= root < n:
            raise ValueError(f"unknown node id {root}")
        # the fields of a frozen dataclass, written past its __setattr__
        vars(self).update(clusters=clusters, edges=edges, root=root)

    def _sharing(self, caches: tuple[str, ...], **fields: object) -> TreeDecomposition:
        """This decomposition with ``fields`` replaced by values already in
        canonical form, taking over those of the cached ``caches`` that this
        one has computed; only the caller knows that they still hold."""
        out = object.__new__(TreeDecomposition)
        mine = vars(self)
        # the fields of a frozen dataclass, written past its __setattr__
        vars(out).update({name: mine[name] for name in ("clusters", "edges", "root") + caches
                          if name in mine},
                         **fields)
        return out

    @property
    def n(self) -> int:
        return len(self.clusters)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adjacency[i]

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])

    def width(self) -> int:
        return max((len(c) for c in self.clusters), default=0) - 1

    def is_tree(self) -> bool:
        """``n - 1`` edges that join all ``n`` nodes: the orientation walk
        from node 0 (:func:`_orient`) reaches every one of them."""
        return (self.n > 0 and len(self.edges) == self.n - 1
                and len(_orient(self._adjacency, 0)[2]) == self.n)

    def is_binary(self) -> bool:
        """Every node has at most three neighbors."""
        return max(map(len, self._adjacency), default=0) <= 3

    @cached_property
    def _holders(self) -> dict[str, set[int]]:
        holders: dict[str, set[int]] = {}
        for i, c in enumerate(self.clusters):
            for v in c:
                holders.setdefault(v, set()).add(i)
        return holders

    # -- rooted structure ---------------------------------------------------

    @cached_property
    def _orientation(self) -> tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...],
                                    tuple[int, ...]]:
        if self.root is None:
            raise ValueError("decomposition is not rooted")
        return _orient(self._adjacency, self.root)

    def parent(self, i: int) -> int | None:
        return self._orientation[0][i]

    def children(self, i: int) -> tuple[int, ...]:
        return self._orientation[1][i]

    def euler_tour(self) -> tuple[int, ...]:
        """Walk printing each node once more than its child count (2m - 1 symbols).

        The walk keeps its own stack, so a deep tree cannot exhaust Python's
        recursion limit.
        """
        children = self._orientation[1]
        tour = [self.root]
        stack = [(self.root, iter(children[self.root]))]
        while stack:
            child = next(stack[-1][1], None)
            if child is None:
                stack.pop()
                if stack:
                    tour.append(stack[-1][0])
            else:
                tour.append(child)
                stack.append((child, iter(children[child])))
        return tuple(tour)


def _orient(adjacency: tuple[tuple[int, ...], ...], root: int
            ) -> tuple[tuple[int | None, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each node's parent and children in the tree of ``adjacency`` rooted at
    ``root``, and the nodes in the order the walk reaches them.

    The walk pops each node once and takes its last child first, so the
    order is a preorder: reversed, it lists every subtree before its root.
    On a graph that is no tree it reaches only ``root``'s component and
    drops every edge that closes a cycle.
    """
    parent: list[int | None] = [None] * len(adjacency)
    children: list[tuple[int, ...]] = [()] * len(adjacency)
    order: list[int] = []
    seen, stack = {root}, [root]
    while stack:
        i = stack.pop()
        order.append(i)
        kids = children[i] = tuple(j for j in adjacency[i] if j not in seen)
        seen.update(kids)
        for j in kids:
            parent[j] = i
        stack += kids
    return tuple(parent), tuple(children), tuple(order)


# -- construction -------------------------------------------------------------

def moral_graph(d: InfluenceDiagram) -> dict[str, set[str]]:
    """Undirected graph over chance/decision variables with every family
    and every reward parent set completed into a clique."""
    adj: dict[str, set[str]] = {v: set() for v in sorted(d.chance_ids + d.decision_ids)}
    for v in d.variables:
        group = d.family(v.id)
        for a in group:
            for b in group:
                if a != b:
                    adj[a].add(b)
    return adj


def build_decomposition(d: InfluenceDiagram) -> TreeDecomposition:
    """Tree decomposition of the moral graph of ``d``, eliminated in min-fill order.

    The vertex needing the fewest fill edges goes next (ties to the smallest
    id).  It leaves the bag of itself and its remaining neighbors, and that
    bag hangs off the bag of the neighbor eliminated next.  Fill counts sit
    in a heap keyed on (fill, id); an elimination changes only the counts of
    its neighbors and of their neighbors, which are pushed again, and an
    entry whose count is no longer current is skipped when it comes up.
    """
    work = moral_graph(d)
    if not work:
        return TreeDecomposition(((),), ())

    def fill(v: str) -> int:
        nb = work[v]
        # a neighbor misses itself and each neighbor it has no edge to, so
        # every missing edge is counted from both of its ends
        return (sum(len(nb - work[a]) for a in nb) - len(nb)) // 2

    fills = {v: fill(v) for v in work}
    heap = [(f, v) for v, f in fills.items()]
    heapq.heapify(heap)
    order: list[str] = []
    neighbors: list[list[str]] = []
    while work:
        f, v = heapq.heappop(heap)
        if v not in work or fills[v] != f:
            continue
        nb = sorted(work.pop(v))
        for a in nb:
            work[a].update(nb)
            work[a].discard(a)
            work[a].discard(v)
        order.append(v)
        neighbors.append(nb)
        for u in set(nb).union(*(work[a] for a in nb)):
            f = fill(u)
            if f != fills[u]:
                fills[u] = f
                heapq.heappush(heap, (f, u))
    position = {v: i for i, v in enumerate(order)}
    edges = [(i, min(position[u] for u in nb)) for i, nb in enumerate(neighbors) if nb]
    # a disconnected moral graph yields one subtree per component: chain them
    roots = [i for i, nb in enumerate(neighbors) if not nb]
    edges += zip(roots, roots[1:])
    bags = tuple(tuple(sorted([v] + nb)) for v, nb in zip(order, neighbors))
    return TreeDecomposition(bags, tuple(edges))


# -- validation ---------------------------------------------------------------

def homes(d: InfluenceDiagram, t: TreeDecomposition) -> dict[str, int | None]:
    """Each variable's home: the smallest node whose cluster holds its whole
    family (:meth:`~limid.model.InfluenceDiagram.family`), else ``None``."""
    get, none = t._holders.get, set()
    out: dict[str, int | None] = {}
    for v in d.variables:
        family = d.family(v.id)
        common = get(family[0], none) if family else range(t.n)
        for x in family[1:]:
            common = common & get(x, none)  # walks the smaller set
        out[v.id] = min(common, default=None)
    return out


def validate_decomposition(d: InfluenceDiagram, t: TreeDecomposition) -> list[str]:
    """All violations of tree-ness, family preservation and running intersection."""
    report: list[str] = []
    if t.n == 0:
        return ["decomposition has no nodes"]
    tree = t.is_tree()
    if not tree:
        report.append("decomposition edges do not form a tree")
    home = homes(d, t)
    allowed = set(d.chance_ids) | set(d.decision_ids)
    for i, c in enumerate(t.clusters):
        # clusters are sorted, so each one's strays come out sorted
        for v in c:
            if v not in allowed:
                report.append(f"cluster {i} contains {v!r}, which is not a chance or "
                              f"decision variable of the diagram")
    for v in d.variables:
        if home[v.id] is None:
            what = "parent set of value variable" if v.kind == VALUE else "family of"
            report.append(f"{what} {v.id!r} not covered by any cluster")
    if tree:
        cluster_sets = [set(c) for c in t.clusters]
        # the nodes holding a variable induce a forest of the tree, which is
        # connected exactly when it has one edge fewer than nodes
        joins = Counter(v for i, j in t.edges for v in cluster_sets[i] & cluster_sets[j])
        for var, nodes in sorted(t._holders.items()):
            if joins[var] != len(nodes) - 1:
                report.append(f"running intersection violated for {var!r}")
    return report


# -- shape transforms ----------------------------------------------------------

def binarize(t: TreeDecomposition) -> TreeDecomposition:
    """Split high-degree nodes until every node has at most three neighbors.

    New nodes duplicate existing clusters, so the width is unchanged and the
    original clusters survive verbatim.  Already-binary input is returned
    as is.
    """
    if t.is_binary():
        return t
    clusters = [set(c) for c in t.clusters]
    adj: list[set[int]] = [set(t.neighbors(i)) for i in range(t.n)]
    i = 0
    while i < len(clusters):
        if len(adj[i]) <= 3:
            i += 1
            continue
        nbs = sorted(adj[i])
        moved = nbs[2:]
        twin = len(clusters)
        clusters.append(set(clusters[i]))
        adj.append(set(moved) | {i})
        for j in moved:
            adj[j].discard(i)
            adj[j].add(twin)
        adj[i] = set(nbs[:2]) | {twin}
        # the twin may still exceed the degree bound; revisit it later
    edges = {(min(a, b), max(a, b)) for a, nbset in enumerate(adj) for b in nbset}
    return TreeDecomposition(tuple(tuple(sorted(c)) for c in clusters), tuple(sorted(edges)),
                             root=t.root)


def ensure_value_leaves(d: InfluenceDiagram, t: TreeDecomposition
                        ) -> tuple[TreeDecomposition, dict[str, int]]:
    """Give every value variable its own leaf whose cluster equals its parents.

    Returns the reshaped tree and the map from each value variable to its
    leaf; without value variables that is ``(t, {})``.  Unmet requirements
    are fixed by splitting a covering node i: a twin j takes over i's
    children and a fresh leaf k with cluster Pa(V) hangs off i.  Widths and
    degrees stay within the binary bound.
    """
    if not t.is_binary():
        raise ValueError("decomposition must be binary")
    if not d.value_ids:
        return t, {}

    # orient at a low-degree node so splits never push a degree past three
    adjacency = t._adjacency
    orient = min(i for i, nb in enumerate(adjacency) if len(nb) <= 2) if t.n > 1 else 0
    parents, kids, _ = _orient(adjacency, orient)
    parent = dict(enumerate(parents))
    children = {i: list(c) for i, c in enumerate(kids)}

    clusters = [set(c) for c in t.clusters]
    claimed: dict[int, str] = {}
    # childless, unclaimed nodes by cluster in ascending id order; a node is claimed
    # only when taken from its queue, and one that gained children is dropped there
    free: defaultdict[frozenset[str], deque[int]] = defaultdict(deque)
    for i in range(t.n):
        if not children[i]:
            free[frozenset(clusters[i])].append(i)
    # splits only copy clusters to higher ids, so input homes stay the smallest
    home = homes(d, t)
    for v in sorted(d.value_ids):
        pa = frozenset(d.family(v))
        queue = free[pa]
        while queue and children[queue[0]]:
            queue.popleft()
        if queue:
            leaf = queue.popleft()
        else:
            i = home[v]
            if i is None:
                raise ValueError(f"no cluster covers the parents of value variable {v!r}")
            twin = len(clusters)
            clusters.append(set(clusters[i]))
            leaf = len(clusters)
            clusters.append(set(pa))
            children[twin] = children[i]
            for c in children[twin]:
                parent[c] = twin
            children[leaf] = []
            parent[twin] = i
            parent[leaf] = i
            children[i] = [twin, leaf]
            if i in claimed:
                claimed[twin] = claimed.pop(i)
            elif not children[twin]:
                # the largest id yet, so its queue stays in ascending order
                free[frozenset(clusters[twin])].append(twin)
        claimed[leaf] = v

    edges = sorted((min(i, p), max(i, p)) for i, p in parent.items() if p is not None)
    return t._sharing((), clusters=tuple(tuple(sorted(c)) for c in clusters),
                      edges=tuple(edges)), {v: i for i, v in claimed.items()}


def root_and_order(t: TreeDecomposition, r: int) -> TreeDecomposition:
    """``dataclasses.replace(t, root=r)``, made without canonicalizing ``t``
    again: it shares ``t``'s fields and the caches that do not depend on the
    root (adjacency and the nodes holding each variable).  ``bench/spans.py``
    traces it by name."""
    if not 0 <= r < t.n:
        raise ValueError(f"unknown node id {r}")
    return t._sharing(("_adjacency", "_holders"), root=r)


def default_root(t: TreeDecomposition, leaves: dict[str, int]) -> int:
    """Root choice for the solving pipeline, given :func:`ensure_value_leaves`'
    map ``leaves`` from value variables to their leaves.

    A single value leaf becomes the root; otherwise the smallest node of
    degree at most two, preferring one that is not a value leaf (such a
    root keeps every node at two children or fewer).
    """
    leaf_nodes = set(leaves.values())
    if len(leaf_nodes) == 1:
        return next(iter(leaf_nodes))
    return min((i for i in range(t.n) if t.degree(i) <= 2), key=lambda i: (i in leaf_nodes, i))
