"""Pinned fingerprints of the graph layer's output.

Partitions, overlap layers and colorings feed every later stage, so any
change to how they are computed must reproduce them bit for bit.  Each case
hashes (sha256 of the int64 bytes) the owner vector, every subdomain's
indices and layers, and the coloring; the digests were recorded from the
breadth-first reference implementation.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from tlschwarz import (
    ProblemSpec,
    SparseMat,
    color_subdomains,
    extend_overlap,
    generate,
    partition_graph,
    symmetrized_graph,
)

from conftest import laplace1d, random_spd


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a, dtype=np.int64)
        h.update(np.int64(a.size).tobytes())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _disconnected():
    """Three components of sizes 16, 12 and 5 (n = 33)."""
    grid, _ = generate(ProblemSpec("poisson2d", 4))
    blocks = [grid.scipy(), random_spd(12, seed=3).scipy(), laplace1d(5).scipy()]
    return SparseMat(sp.block_diag(blocks).tocsr())


def _isolated():
    """A poisson2d m=20 block plus 300 identity rows, one isolated node each."""
    grid, _ = generate(ProblemSpec("poisson2d", 20))
    return SparseMat(sp.block_diag([grid.scipy(), sp.identity(300)]).tocsr())


def _problem(kind, m):
    return lambda: generate(ProblemSpec(kind, m))[0]


CASES = {
    "poisson2d-m60-N16": (_problem("poisson2d", 60), 16, 2),
    "poisson3d-m10-N8": (_problem("poisson3d", 10), 8, 2),
    "advection2d-m30-N4": (_problem("advection2d", 30), 4, 2),
    "disconnected-N2": (_disconnected, 2, 2),
    "disconnected-N3": (_disconnected, 3, 1),
    "disconnected-N7": (_disconnected, 7, 3),
    "disconnected-N33": (_disconnected, 33, 2),
    # N < #components: 299 components get no subdomain of their own.
    "isolated-N4": (_isolated, 4, 2),
    # The benchmark's own partition: blocked growths and 1804 leftover nodes.
    "poisson2d-m200-N256": (_problem("poisson2d", 200), 256, 2),
}

EXPECTED = {
    "poisson2d-m60-N16": ("8627209f46ca9279", "fc6c81e1fb3c5541", "87d67a91f806f958"),
    "poisson3d-m10-N8": ("478fa2a921cfa0fb", "78f1cde50e2683c0", "b5fce6a16d42562d"),
    "advection2d-m30-N4": ("3878a508ea49a777", "910c34b7516b1c97", "793340a762aeae85"),
    "disconnected-N2": ("e1a45a33e34cf78d", "70df23ae5d0db953", "68f34dc5eafdfb66"),
    "disconnected-N3": ("27f09505efc29dcd", "c8814fc53b34ffb7", "84f2a3ecb02cbddb"),
    "disconnected-N7": ("1080f8ae2641df24", "bc80837de2f9710c", "7a9092642c522ef6"),
    "disconnected-N33": ("e127fb5bf1a0866e", "38c19d18debcb99c", "8bdca19f296ae737"),
    "isolated-N4": ("35a650517e918cfd", "3cf47ae0610b5395", "6c3b975ddf3d561d"),
    "poisson2d-m200-N256": ("eb3a811f0d9ad511", "378a936a40edce45", "2889353d75c892d9"),
}


def fingerprint(matrix, n_subdomains, overlap):
    g = symmetrized_graph(matrix)
    part = partition_graph(g, n_subdomains)
    maps = extend_overlap(g, part, overlap)
    k_c, colors = color_subdomains(maps)
    layer_arrays = []
    for smap in maps:
        layer_arrays += [smap.indices, smap.interior, *smap.layers]
    return (_digest([part.owner]), _digest(layer_arrays), _digest([[k_c], colors]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_layer_fingerprint(name):
    build, n_subdomains, overlap = CASES[name]
    assert fingerprint(build(), n_subdomains, overlap) == EXPECTED[name]
