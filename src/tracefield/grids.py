"""Finite metric grids and scalar fields on them.

A grid is a connected weighted graph with an optional set of designated
"infinity" nodes; fields are plain ``(n,)`` numpy arrays indexed by node id.
Continuity-type statements are always *measured* on the grid (edge jumps,
refinement trends), never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


class GridError(ValueError):
    """Invalid grid data or field/grid mismatch."""


class Grid:
    """Connected weighted graph with designated infinity nodes.

    Parameters
    ----------
    kind : str
        "path", "circle", or "graph".
    n : int
        Number of nodes (ids ``0 .. n-1``).
    edges : array_like, shape (m, 2)
        Node id pairs.
    lengths : array_like, shape (m,)
        Strictly positive edge lengths.
    infinity : iterable of int
        Node ids treated as the points at infinity (may be empty).
    positions : array_like or None
        Finite arc-length coordinate per node for path/circle grids; used by
        generators and reports, not by the graph metric.
    """

    def __init__(self, kind, n, edges, lengths, infinity=(), positions=None):
        if kind not in ("path", "circle", "graph"):
            raise GridError(f"unknown grid kind {kind!r}")
        n = int(n)
        edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        lengths = np.asarray(lengths, dtype=float).reshape(-1)
        if n < 1:
            raise GridError("grid needs at least one node")
        if edges.shape[0] != lengths.shape[0]:
            raise GridError("edges and lengths disagree in count")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GridError("edge endpoint out of range")
        if not np.all(np.isfinite(lengths) & (lengths > 0)):
            raise GridError("edge lengths must be positive and finite")
        loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
        if loops.size:
            raise GridError(f"edge {loops[0]} is a self-loop at node "
                            f"{edges[loops[0], 0]}")
        infinity = tuple(sorted(int(i) for i in infinity))
        if any(i < 0 or i >= n for i in infinity):
            raise GridError("infinity node id out of range")
        self.kind = kind
        self.n = n
        self.edges = edges
        self.lengths = lengths
        self.infinity = infinity
        if positions is not None:
            positions = np.asarray(positions, dtype=float).reshape(-1)
            if positions.shape != (n,):
                raise GridError(f"grid has {n} nodes but "
                                f"{positions.shape[0]} positions")
            if not np.all(np.isfinite(positions)):
                raise GridError("node positions must be finite")
        self.positions = positions
        self._neighbors = None
        self._adj = self._adjacency()
        if self._adj.nnz < 2 * edges.shape[0]:
            # csr_matrix summed the lengths of parallel edges into one entry
            _, first, which = np.unique(np.sort(edges, axis=1), axis=0,
                                        return_index=True,
                                        return_inverse=True)
            first = first[which.reshape(-1)]  # first edge with the same ends
            j = np.flatnonzero(first != np.arange(edges.shape[0]))[0]
            raise GridError(f"edges {first[j]} and {j} both join nodes "
                            f"{edges[j, 0]} and {edges[j, 1]}")
        if connected_components(self._adj, directed=False,
                                return_labels=False) != 1:
            raise GridError("grid is not connected")

    def _adjacency(self) -> csr_matrix:
        """Symmetric (n, n) CSR matrix of edge lengths."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        w = self.lengths
        return csr_matrix((np.concatenate([w, w]),
                           (np.concatenate([i, j]), np.concatenate([j, i]))),
                          shape=(self.n, self.n))

    def neighbors(self, i: int):
        """``(node, length)`` pairs of node i, in edge order."""
        if self._neighbors is None:
            self._neighbors = [[] for _ in range(self.n)]
            for (a, b), w in zip(self.edges.tolist(), self.lengths.tolist()):
                self._neighbors[a].append((b, w))
                self._neighbors[b].append((a, w))
        return self._neighbors[i]

    def check_field(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float).reshape(-1)
        if g.shape != (self.n,):
            raise GridError(f"field has {g.shape[0]} values, grid has {self.n}")
        if not np.all(np.isfinite(g)):
            raise GridError("field contains non-finite values")
        return g


def path_grid(n, length=1.0, infinity=()) -> Grid:
    """Uniform path on [0, length] with n nodes."""
    if n < 2:
        raise GridError("path grid needs at least two nodes")
    step = length / (n - 1)
    edges = [(i, i + 1) for i in range(n - 1)]
    pos = np.linspace(0.0, length, n)
    return Grid("path", n, edges, [step] * (n - 1), infinity, pos)


def circle_grid(n, circumference=1.0, infinity=()) -> Grid:
    """Uniform circle with n nodes."""
    if n < 3:
        raise GridError("circle grid needs at least three nodes")
    step = circumference / n
    edges = [(i, (i + 1) % n) for i in range(n)]
    pos = np.arange(n) * step
    return Grid("circle", n, edges, [step] * n, infinity, pos)


def refine(grid: Grid):
    """Split every edge at its midpoint.

    Returns ``(fine, prolong)`` where ``prolong`` is the (n_new, n_old)
    linear-interpolation matrix in CSR form: original nodes keep their ids
    and values (identity rows), and the midpoint of edge e is node
    ``n_old + e`` with 0.5 at both endpoints of that edge.
    """
    n, m = grid.n, grid.edges.shape[0]
    i, j = grid.edges[:, 0], grid.edges[:, 1]
    mid = n + np.arange(m)
    half = grid.lengths / 2
    edges = np.stack([i, mid, mid, j], axis=1).reshape(2 * m, 2)
    lengths = np.repeat(half, 2)
    positions = None
    if grid.positions is not None:
        positions = np.concatenate([grid.positions, grid.positions[i] + half])
    # column indices ascend within each row, so the CSR matrix is canonical
    cols = np.concatenate([np.arange(n), np.sort(grid.edges, axis=1).ravel()])
    indptr = np.concatenate([np.arange(n), n + 2 * np.arange(m + 1)])
    prolong = csr_matrix((np.concatenate([np.ones(n), np.full(2 * m, 0.5)]),
                          cols, indptr), shape=(n + m, n))
    return (Grid(grid.kind, n + m, edges, lengths, grid.infinity, positions),
            prolong)


@dataclass(frozen=True)
class ContinuityModulus:
    lipschitz: float   # max |g(u)-g(v)| / length(u,v) over edges
    max_jump: float    # max raw jump |g(u)-g(v)| over edges


def modulus_of_continuity(g, grid: Grid) -> ContinuityModulus:
    """Edge-wise continuity surrogate: difference-quotient and raw-jump maxima."""
    g = grid.check_field(g)
    if grid.edges.shape[0] == 0:
        return ContinuityModulus(0.0, 0.0)
    jumps = np.abs(g[grid.edges[:, 0]] - g[grid.edges[:, 1]])
    return ContinuityModulus(float(np.max(jumps / grid.lengths)),
                             float(np.max(jumps)))
