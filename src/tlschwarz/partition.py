"""Graph partitioning, layered overlap, and the Boolean partition of unity.

Subdomains are index sets over the rows of the matrix.  A partition assigns
every node to exactly one owner ("interior" sets); overlap is added as layers
of breadth-first neighbors around each interior set.  The local ordering of a
subdomain is always: interior nodes first, then layer 1, layer 2, ... with
each group sorted by ascending global index.

The graph is the boolean scipy CSR pattern from ``symmetrized_graph``.
Components and seed distances come from ``scipy.sparse.csgraph``; overlap
layers and the subdomain conflict graph are sparse products with the
subdomain incidence matrix.
"""

from __future__ import annotations

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

    def interior(self, i):
        return np.nonzero(self.owner == i)[0]


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

    @property
    def n_boundary(self):
        """Size of the outermost layer (zero when there are no layers)."""
        return self.layers[-1].size if self.layers else 0


def boolean_pou(smap):
    """Partition-of-unity weights for one subdomain (1 on interior, 0 on layers)."""
    return smap.pou_mask.astype(np.float64)


def _grow_subdomain(graph, seed, target, unassigned):
    """Grow one subdomain breadth-first from seed through unassigned nodes.

    Rings are taken whole in distance order; the final ring is truncated by
    ascending global index to hit the target size exactly.
    """
    picked = [seed]
    unassigned[seed] = False
    frontier = np.asarray([seed], dtype=np.int64)
    while len(picked) < target and frontier.size:
        ring = np.unique(graph[frontier].indices)
        ring = ring[unassigned[ring]]
        if ring.size == 0:
            break
        room = target - len(picked)
        if ring.size > room:
            ring = ring[:room]  # rings come out sorted; keep smallest indices
        unassigned[ring] = False
        picked.extend(ring.tolist())
        frontier = ring
    return picked


def partition_graph(graph, n_subdomains):
    """Partition a graph into connected-ish subdomains by greedy BFS growing.

    The first seed in a component is its smallest node index; every later
    seed is the unassigned node farthest (in hops) from all assigned nodes,
    ties broken by smallest index.  Each subdomain grows breadth-first to
    about ceil(n/N) nodes; nodes left over when growth gets blocked are
    attached to the adjacent subdomain with the fewest nodes.  Deterministic
    for a given graph and subdomain count.

    Components come from ``csgraph.connected_components``, and the subdomain
    budget is split across them in proportion to their sizes.  The hop
    distance to the assigned nodes is kept in one array and lowered after
    each new subdomain by a multi-source ``csgraph.dijkstra`` from that
    subdomain alone: the distance to a union of sets is the minimum over the
    sets, and the search is cut off at the current largest distance, beyond
    which no node can improve.
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
    unassigned = np.ones(n, dtype=bool)
    dist = np.full(n, np.inf)
    next_id = 0
    zero_budget = []
    for comp, n_parts in zip(comps, budgets):
        if n_parts == 0:
            zero_budget.append(comp)
            continue
        _partition_component(graph, comp, n_parts, next_id, owner, unassigned, dist)
        next_id += n_parts

    # Components that got no subdomain of their own are appended to the
    # currently smallest subdomain (only possible when N < #components).
    for comp in zero_budget:
        counts = np.bincount(owner[owner >= 0], minlength=n_subdomains)
        target = int(np.argmin(counts))
        owner[comp] = target

    return Partition(n_subdomains, owner)


def _component_budgets(sizes, n_parts):
    """Split n_parts across components proportionally (largest remainder).

    Every component gets at least one subdomain when the budget allows;
    with fewer subdomains than components the surplus components get zero
    and are merged into an existing subdomain by the caller.
    """
    total = sum(sizes)
    quotas = [s * n_parts / total for s in sizes]
    budget = [int(q) for q in quotas]
    if len(sizes) <= n_parts:
        budget = [max(1, b) for b in budget]
    while sum(budget) < n_parts:
        cand = [i for i in range(len(budget)) if budget[i] < sizes[i]]
        i = max(cand, key=lambda i: (quotas[i] - budget[i], sizes[i], -i))
        budget[i] += 1
    while sum(budget) > n_parts:
        floor = 1 if len(sizes) <= n_parts else 0
        cand = [i for i in range(len(budget)) if budget[i] > floor]
        i = min(cand, key=lambda i: (quotas[i] - budget[i], sizes[i], -i))
        budget[i] -= 1
    return budget


def _partition_component(graph, comp, n_parts, first_id, owner, unassigned, dist):
    target = -(-comp.size // n_parts)  # ceil
    seed = int(comp[0])
    for s in range(n_parts):
        remaining_after = n_parts - 1 - s
        goal = min(target, int(unassigned[comp].sum()) - remaining_after)
        picked = _grow_subdomain(graph, seed, goal, unassigned)
        owner[picked] = first_id + s
        if remaining_after:
            near = csgraph.dijkstra(graph, indices=picked, unweighted=True,
                                    min_only=True, limit=dist[comp].max())
            np.minimum(dist, near, out=dist)
            cand = comp[unassigned[comp]]
            seed = int(cand[np.argmax(dist[cand])])

    # Attach blocked leftovers to the adjacent subdomain with fewest nodes.
    while unassigned[comp].any():
        progressed = False
        for u in comp[unassigned[comp]]:
            nbr_owners = owner[graph.indices[graph.indptr[u]:graph.indptr[u + 1]]]
            nbr_owners = np.unique(nbr_owners[nbr_owners >= 0])
            if nbr_owners.size == 0:
                continue
            counts = np.bincount(owner[owner >= 0], minlength=int(owner.max()) + 2)
            owner[u] = int(nbr_owners[np.argmin(counts[nbr_owners])])
            unassigned[u] = False
            progressed = True
        if not progressed:
            raise RuntimeError("leftover nodes not adjacent to any subdomain")


def read_owner_file(text, n_subdomains=None):
    """Parse an externally computed partition: one owner id per line."""
    owners = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        try:
            owners.append(int(line))
        except ValueError:
            raise ValueError(f"line {lineno}: expected an integer owner id, got {line!r}") from None
    owner = np.asarray(owners, dtype=np.int64)
    if n_subdomains is None:
        n_subdomains = int(owner.max()) + 1 if owner.size else 0
    return Partition(n_subdomains, owner)


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
