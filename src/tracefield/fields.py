"""Map fields: one functional per grid node, evaluated by trace pairing.

A :class:`MapField` models a selfadjoint linear map from the algebra into the
functions on a grid.  The representing matrices are stored as per-block
stacks of shape ``(n_nodes, d, d)`` so that evaluation, pointwise norms, and
spectral splits run batched over all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (HERM_TOL, IMAG_TOL, AlgebraDescriptor, AlgebraError,
                      Element, FunctionalRep)
from .grids import Grid, modulus_of_continuity

INFINITY_CUTOFF = 1e-6   # smallness threshold at infinity nodes


@dataclass(frozen=True)
class MapField:
    """Nodewise family of functionals on a common algebra.

    ``stacks[b]`` has shape ``(grid.n, d_b, d_b)`` and holds the block-``b``
    pairing matrix of every node's functional.  No interpolation between
    nodes is ever implied.
    """

    grid: Grid
    algebra: AlgebraDescriptor
    stacks: list = field(repr=False)

    def __post_init__(self):
        stacks = []
        for b, d in enumerate(self.algebra.blocks):
            s = np.asarray(self.stacks[b], dtype=complex)
            if s.shape != (self.grid.n, d, d):
                raise AlgebraError(
                    f"MapField block {b}: shape {s.shape}, expected "
                    f"{(self.grid.n, d, d)}")
            defect = np.max(np.abs(s - np.conj(np.transpose(s, (0, 2, 1)))))
            if defect > HERM_TOL:
                raise AlgebraError(
                    f"MapField block {b}: Hermitian defect {defect:.3e}")
            stacks.append(0.5 * (s + np.conj(np.transpose(s, (0, 2, 1)))))
        if len(self.stacks) != len(self.algebra.blocks):
            raise AlgebraError("MapField: block count mismatch")
        object.__setattr__(self, "stacks", stacks)

    def scaled(self, a) -> "MapField":
        a = np.asarray(a, dtype=float)
        if a.ndim == 0:
            return MapField(self.grid, self.algebra,
                            [a * s for s in self.stacks])
        a = self.grid.check_field(a)
        return MapField(self.grid, self.algebra,
                        [a[:, None, None] * s for s in self.stacks])


def constant_map_field(grid: Grid, rho: FunctionalRep) -> MapField:
    stacks = [np.broadcast_to(m, (grid.n,) + m.shape).copy()
              for m in rho.blocks]
    return MapField(grid, rho.algebra, stacks)


def map_field_from_nodes(grid: Grid, reps) -> MapField:
    reps = list(reps)
    if len(reps) != grid.n:
        raise AlgebraError("need one functional per node")
    algebra = reps[0].algebra
    stacks = [np.stack([r.blocks[b] for r in reps])
              for b in range(len(algebra.blocks))]
    return MapField(grid, algebra, stacks)


def diagonal_map_field(grid: Grid, c) -> MapField:
    """Multiplication-type field over the algebra of functions on the grid.

    The algebra has one size-one block per node and the node-t functional is
    ``x -> c(t) * x(t)``.
    """
    c = grid.check_field(c)
    algebra = AlgebraDescriptor((1,) * grid.n)
    stacks = [np.zeros((grid.n, 1, 1), dtype=complex) for _ in range(grid.n)]
    for t in range(grid.n):
        stacks[t][t, 0, 0] = c[t]
    return MapField(grid, algebra, stacks)


def evaluate(phi: MapField, x: Element) -> np.ndarray:
    """Scalar field t -> trace pairing of the node-t functional with x."""
    if not x.selfadjoint:
        raise AlgebraError("evaluate expects a selfadjoint element")
    if x.algebra.blocks != phi.algebra.blocks:
        raise AlgebraError("element and map field live on different algebras")
    vals = np.zeros(phi.grid.n, dtype=complex)
    for s, m in zip(phi.stacks, x.blocks):
        vals += np.einsum("nij,ji->n", s, m)
    resid = float(np.max(np.abs(vals.imag))) if phi.grid.n else 0.0
    if resid > IMAG_TOL:
        raise AlgebraError(f"evaluation has imaginary residue {resid:.3e}")
    return vals.real


def pointwise_norm(phi: MapField) -> np.ndarray:
    """Field of functional norms: sum of |eigenvalues| per node."""
    out = np.zeros(phi.grid.n)
    for s in phi.stacks:
        w = np.linalg.eigvalsh(s)
        out += np.sum(np.abs(w), axis=1)
    return out


@dataclass(frozen=True)
class AbsoluteContinuityReport:
    passes: bool
    max_jump: float
    epsilon: float
    infinity_defect: float
    cutoff: float


def is_absolutely_continuous(phi: MapField, epsilon: float,
                             cutoff: float = None) -> AbsoluteContinuityReport:
    """Test the norm field for edge-jump smallness and convergence at infinity.

    Only the pointwise norm function is constrained; the individual matrix
    entries may jump without failing this test.
    """
    if cutoff is None:
        cutoff = INFINITY_CUTOFF
    norms = pointwise_norm(phi)
    mod = modulus_of_continuity(norms, phi.grid)
    if phi.grid.infinity:
        vals = norms[list(phi.grid.infinity)]
        defect = float(np.max(np.abs(vals - np.mean(vals))))
    else:
        defect = 0.0
    passes = (mod.max_jump <= epsilon) and (defect <= cutoff)
    return AbsoluteContinuityReport(passes, mod.max_jump, epsilon,
                                    defect, cutoff)


def refine_map_field(phi: MapField, fine_grid: Grid, prolong) -> MapField:
    """Transfer a map field to a refined grid by linear interpolation.

    ``prolong`` is the sparse matrix from :func:`grids.refine`; each fine
    node's matrices are the prolongation-weighted sum of coarse ones.
    """
    n = phi.grid.n
    stacks = [(prolong @ s.reshape(n, -1)).reshape((-1,) + s.shape[1:])
              for s in phi.stacks]
    return MapField(fine_grid, phi.algebra, stacks)
