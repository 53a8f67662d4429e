"""Graph partitioning, layered overlap, and the Boolean partition of unity.

Subdomains are index sets over the rows of the matrix.  A partition assigns
every node to exactly one owner ("interior" sets); overlap is added as layers
of breadth-first neighbors around each interior set.  The local ordering of a
subdomain is always: interior nodes first, then layer 1, layer 2, ... with
each group sorted by ascending global index.

The graph is the boolean scipy CSR pattern from ``symmetrized_graph``, read
through its ``indptr``/``indices``.  Components and seed distances come from
``scipy.sparse.csgraph``; overlap layers and the subdomain conflict graph
are sparse products with the subdomain incidence matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


@dataclass(frozen=True)
class Partition:
    """Nonoverlapping node-to-subdomain assignment."""

    n_subdomains: int
    owner: np.ndarray  # shape (n,), owner[i] in [0, n_subdomains)

    def __post_init__(self):
        owner = np.asarray(self.owner, dtype=np.int64)
        object.__setattr__(self, "owner", owner)
        if owner.ndim != 1:
            raise ValueError("owner must be a flat vector")
        if self.n_subdomains < 1 or self.n_subdomains > owner.size:
            raise ValueError("subdomain count out of range")
        if owner.min() < 0 or owner.max() >= self.n_subdomains:
            raise ValueError("owner ids out of range")
        counts = np.bincount(owner, minlength=self.n_subdomains)
        if (counts == 0).any():
            empty = int(np.nonzero(counts == 0)[0][0])
            raise ValueError(f"subdomain {empty} is empty")


@dataclass(frozen=True)
class SubdomainMap:
    """One subdomain: interior set plus ordered overlap layers.

    ``indices`` is the local-to-global map (interior, then each layer);
    ``pou_mask`` is True exactly on the interior positions, so that the
    Boolean partition-of-unity weights are mask multiplications and
    sum(scatter(mask)) over all subdomains is the identity.
    """

    index: int
    n_global: int
    interior: np.ndarray
    layers: tuple
    indices: np.ndarray = field(init=False)
    pou_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        interior = np.asarray(self.interior, dtype=np.int64)
        layers = tuple(np.asarray(l, dtype=np.int64) for l in self.layers)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "layers", layers)
        if interior.size == 0:
            raise ValueError(f"subdomain {self.index} has empty interior")
        idx = np.concatenate([interior, *layers]) if layers else interior.copy()
        if np.unique(idx).size != idx.size:
            raise ValueError(f"subdomain {self.index} has repeated indices")
        mask = np.zeros(idx.size, dtype=bool)
        mask[: interior.size] = True
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "pou_mask", mask)

    @property
    def n_local(self):
        return self.indices.size


def boolean_pou(smap):
    """Partition-of-unity weights for one subdomain (1 on interior, 0 on layers)."""
    return smap.pou_mask.astype(np.float64)


def _grow_subdomain(graph, seed, target, sid, owner):
    """Grow subdomain ``sid`` breadth-first from seed, writing ``owner``.

    Free nodes are taken in whole rings in distance order; the final ring is
    truncated by ascending global index to hit the target size exactly.
    Returns the nodes taken.
    """
    ptr, nbrs = graph.indptr, graph.indices
    owner[seed] = sid
    rings = [np.asarray([seed], dtype=np.int64)]
    size = 1
    while size < target:
        ring = np.unique(np.concatenate([nbrs[ptr[u]:ptr[u + 1]] for u in rings[-1]]))
        ring = ring[owner[ring] < 0][: target - size]  # sorted: keep smallest indices
        if ring.size == 0:
            break
        owner[ring] = sid
        rings.append(ring)
        size += ring.size
    return np.concatenate(rings)


def partition_graph(graph, n_subdomains):
    """Partition a graph into connected-ish subdomains by greedy BFS growing.

    The first seed in a component is its smallest node index; every later
    seed is the free node farthest (in hops) from all assigned nodes,
    ties broken by smallest index.  Each subdomain grows breadth-first to
    about ceil(n/N) nodes; nodes left over when growth gets blocked are
    attached to the adjacent subdomain with the fewest nodes.  Deterministic
    for a given graph and subdomain count.

    Components come from ``csgraph.connected_components``, and the subdomain
    budget is split across them in proportion to their sizes.  Within a
    component, one score array holds each free node's hop distance to the
    assigned nodes (-1 once a node is taken), so the next seed is its
    argmax.  It is lowered after each new subdomain by a multi-source
    ``csgraph.dijkstra`` from that subdomain alone: the distance to a union
    of sets is the minimum over the sets, and the search is cut off at the
    largest score, beyond which no free node can improve.  ``owner``
    (negative while a node is free) and a running node count per subdomain
    are the only assignment state.
    """
    n = graph.shape[0]
    if not (1 <= n_subdomains <= n):
        raise ValueError(f"subdomain count {n_subdomains} out of range for {n} nodes")

    graph = graph.astype(np.float64)  # csgraph's dtype: convert once, not per search
    _, labels = csgraph.connected_components(graph, directed=False)
    by_label = np.argsort(labels, kind="stable")
    comps = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    comps.sort(key=lambda c: (-c.size, int(c[0])))
    budgets = _component_budgets([c.size for c in comps], n_subdomains)

    owner = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(n_subdomains, dtype=np.int64)
    next_id = 0
    zero_budget = []
    for comp, n_parts in zip(comps, budgets):
        if n_parts == 0:
            zero_budget.append(comp)
            continue
        _partition_component(graph, comp, n_parts, next_id, owner, sizes)
        next_id += n_parts

    # Components that got no subdomain of their own are appended to the
    # currently smallest subdomain (only possible when N < #components).
    for comp in zero_budget:
        target = int(np.argmin(sizes))
        owner[comp] = target
        sizes[target] += comp.size

    return Partition(n_subdomains, owner)


def _component_budgets(sizes, n_parts):
    """Split n_parts across components proportionally (largest remainder).

    Every component gets at least one subdomain when the budget allows;
    with fewer subdomains than components the surplus components get zero
    and are merged into an existing subdomain by the caller.  The rounded
    quotas are corrected one subdomain at a time: handed out by largest
    remainder ``quota - budget``, or taken back by smallest, ties going to
    the larger then lower-indexed component when handing out and the
    reverse when taking back.  A heap keeps each step O(log #components).
    """
    total = sum(sizes)
    quotas = [s * n_parts / total for s in sizes]
    floor = 1 if len(sizes) <= n_parts else 0
    budget = [max(floor, int(q)) for q in quotas]
    short = n_parts - sum(budget)
    step = 1 if short > 0 else -1

    def key(i):  # the heap's smallest key is the next component to step
        return (-step * (quotas[i] - budget[i]), -step * sizes[i], step * i)

    def movable(i):
        return budget[i] < sizes[i] if step > 0 else budget[i] > floor

    heap = [key(i) for i in range(len(sizes)) if movable(i)]
    heapq.heapify(heap)
    for _ in range(abs(short)):
        i = step * heapq.heappop(heap)[2]
        budget[i] += step
        if movable(i):
            heapq.heappush(heap, key(i))
    return budget


def _partition_component(graph, comp, n_parts, first_id, owner, sizes):
    target = -(-comp.size // n_parts)  # ceil
    free = comp.size
    seed = int(comp[0])
    # per node of comp (sorted): hop distance to the assigned nodes, -1 once taken
    score = np.full(comp.size, np.inf)
    for sid in range(first_id, first_id + n_parts):
        remaining_after = first_id + n_parts - 1 - sid
        taken = _grow_subdomain(graph, seed, min(target, free - remaining_after), sid, owner)
        sizes[sid] = taken.size
        free -= taken.size
        if remaining_after:
            score[np.searchsorted(comp, taken)] = -1
            near = csgraph.dijkstra(graph, indices=taken, unweighted=True,
                                    min_only=True, limit=score.max())
            np.minimum(score, near[comp], out=score)
            seed = int(comp[np.argmax(score)])

    # Attach blocked leftovers to the adjacent subdomain with fewest nodes.
    left = comp[owner[comp] < 0]
    while left.size:
        for u in left:
            nbr_owners = owner[graph.indices[graph.indptr[u]:graph.indptr[u + 1]]]
            nbr_owners = np.unique(nbr_owners[nbr_owners >= 0])
            if nbr_owners.size:
                owner[u] = nbr_owners[np.argmin(sizes[nbr_owners])]
                sizes[owner[u]] += 1
        if (owner[left] < 0).all():
            raise RuntimeError("leftover nodes not adjacent to any subdomain")
        left = left[owner[left] < 0]


def extend_overlap(graph, part, overlap):
    """Add ``overlap`` layers of BFS neighbors around every interior set.

    Layer k of subdomain i contains exactly the nodes at hop distance k from
    the interior set, sorted by ascending global index.  Trailing layers are
    empty once a subdomain saturates the graph.  With S the n-by-N owner
    incidence and G the graph, layer k is the pattern of (G+I)^k S minus
    that of (G+I)^(k-1) S; the products are formed transposed, so that each
    subdomain is one sorted CSR row.
    """
    if overlap < 1:
        raise ValueError("overlap must be at least 1")
    n = graph.shape[0]
    n_sub = part.n_subdomains
    reach = sp.csr_matrix((np.ones(n, dtype=bool), (part.owner, np.arange(n))),
                          shape=(n_sub, n))
    step = (graph + sp.identity(n, format="csr")).astype(bool)
    interiors = _row_sets(reach)
    layers = []
    for _ in range(overlap):
        grown = (reach @ step).tocsr()
        layers.append(_row_sets((grown != reach).tocsr()))
        reach = grown
    return [SubdomainMap(i, n, interiors[i], tuple(layer[i] for layer in layers))
            for i in range(n_sub)]


def _row_sets(m):
    """Sorted column indices of every row of a CSR matrix."""
    m.sort_indices()
    return np.split(m.indices, m.indptr[1:-1])


def color_subdomains(maps):
    """Greedy coloring of the subdomain intersection graph.

    Two subdomains conflict when their overlapping index sets intersect,
    i.e. the conflict graph is the off-diagonal pattern of S^T S, with S the
    n-by-N incidence of the overlapping index sets.  Subdomains are colored
    largest-degree-first (ties by index) with the smallest available color.
    Returns (number of colors, color per subdomain); the count bounds how
    many subdomains can touch any node.
    """
    n_sub = len(maps)
    if n_sub == 0:
        raise ValueError("no subdomains to color")
    sizes = [s.n_local for s in maps]
    cover = sp.csr_matrix(
        (np.ones(sum(sizes), dtype=bool),
         (np.repeat([s.index for s in maps], sizes), np.concatenate([s.indices for s in maps]))),
        shape=(n_sub, maps[0].n_global),
    )
    adj = (cover @ cover.T).tocsr()
    adj.setdiag(False)
    adj.eliminate_zeros()
    degree = np.diff(adj.indptr)
    colors = np.full(n_sub, -1, dtype=np.int64)
    for i in np.argsort(-degree, kind="stable"):
        used = colors[adj.indices[adj.indptr[i]:adj.indptr[i + 1]]]
        colors[i] = np.setdiff1d(np.arange(used.size + 1), used)[0]
    return int(colors.max()) + 1, colors
