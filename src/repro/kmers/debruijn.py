"""Weighted de Bruijn graph construction from a k-mer spectrum.

The paper positions k-mer histograms as the substrate for "a (weighted) de
Bruijn graph representation" used by assemblers (Section II-A, refs [4],
[11], [25]).  This module closes that loop: it builds the weighted de
Bruijn graph from a counted spectrum — nodes are (k-1)-mers, each counted
k-mer is an edge from its prefix to its suffix with its count as weight —
and provides the standard compaction (unitig extraction) that assemblers
like MEGAHIT/HipMer perform first.

Graphs are ``networkx.DiGraph`` with packed-integer node ids; ``graph.graph
["k"]`` records k so nodes/edges can be decoded back to strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..dna.encoding import kmer_to_string
from .spectrum import KmerSpectrum

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["build_debruijn", "unitigs", "DebruijnStats", "graph_stats", "node_string", "edge_string"]


def build_debruijn(spectrum: KmerSpectrum, *, min_count: int = 1) -> nx.DiGraph:
    """Build the weighted de Bruijn graph of all k-mers with count >= min_count.

    Edge ``u -> v`` exists for k-mer ``x`` where ``u = x[:-1]`` and
    ``v = x[1:]`` (packed as (k-1)-mers); ``weight`` is the k-mer's count.
    Vectorized: prefixes/suffixes come from shifts and masks on the packed
    key array, no per-k-mer string work.
    """
    # Imported here: networkx is a large import that only graph users need.
    import networkx as nx

    if spectrum.k < 2:
        raise ValueError("de Bruijn construction needs k >= 2")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    keep = spectrum.counts >= min_count
    values = spectrum.values[keep]
    counts = spectrum.counts[keep]
    k = spectrum.k
    prefixes = values >> np.uint64(2)
    mask = np.uint64((1 << (2 * (k - 1))) - 1)
    suffixes = values & mask

    graph = nx.DiGraph(k=k)
    graph.add_weighted_edges_from(
        zip(prefixes.tolist(), suffixes.tolist(), counts.tolist()), weight="weight"
    )
    return graph


def node_string(graph: nx.DiGraph, node: int) -> str:
    """Decode a node id to its (k-1)-mer string."""
    return kmer_to_string(node, graph.graph["k"] - 1)


def edge_string(graph: nx.DiGraph, u: int, v: int) -> str:
    """Decode an edge back to its k-mer string."""
    k = graph.graph["k"]
    value = (u << 2) | (v & 0b11)
    return kmer_to_string(value, k)


def _is_path_internal(graph: nx.DiGraph, node: int) -> bool:
    return graph.in_degree(node) == 1 and graph.out_degree(node) == 1


def unitigs(graph: nx.DiGraph) -> list[str]:
    """Extract maximal non-branching paths as base strings (compaction).

    A unitig starts at every edge whose source is not path-internal (a
    branch, tip, or start node) and extends while nodes remain
    path-internal; cycles of purely internal nodes are emitted once.
    Returns decoded strings; every graph edge appears in exactly one unitig.
    """
    out: list[str] = []
    visited_edges: set[tuple[int, int]] = set()

    def walk(u: int, v: int) -> str:
        bases = [node_string(graph, u)]
        visited_edges.add((u, v))
        bases.append(node_string(graph, v)[-1])
        while _is_path_internal(graph, v):
            nxt = next(iter(graph.successors(v)))
            if (v, nxt) in visited_edges:
                break
            visited_edges.add((v, nxt))
            bases.append(node_string(graph, nxt)[-1])
            v = nxt
        return "".join(bases)

    for u in graph.nodes:
        if _is_path_internal(graph, u):
            continue
        for v in graph.successors(u):
            if (u, v) not in visited_edges:
                out.append(walk(u, v))
    # Remaining edges belong to isolated simple cycles.
    for u, v in list(graph.edges):
        if (u, v) not in visited_edges:
            out.append(walk(u, v))
    assert len(visited_edges) == graph.number_of_edges()
    return out


@dataclass(frozen=True)
class DebruijnStats:
    """Summary statistics of a weighted de Bruijn graph."""

    n_nodes: int
    n_edges: int
    n_unitigs: int
    mean_unitig_length: float
    max_unitig_length: int
    total_edge_weight: int
    n_branch_nodes: int


def graph_stats(graph: nx.DiGraph) -> DebruijnStats:
    """Compute :class:`DebruijnStats` (runs compaction once)."""
    paths = unitigs(graph)
    lengths = [len(p) for p in paths]
    branches = sum(1 for n in graph.nodes if graph.out_degree(n) > 1 or graph.in_degree(n) > 1)
    return DebruijnStats(
        n_nodes=graph.number_of_nodes(),
        n_edges=graph.number_of_edges(),
        n_unitigs=len(paths),
        mean_unitig_length=float(np.mean(lengths)) if lengths else 0.0,
        max_unitig_length=max(lengths, default=0),
        total_edge_weight=int(sum(d["weight"] for _, _, d in graph.edges(data=True))),
        n_branch_nodes=branches,
    )
