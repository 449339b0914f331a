"""Seeded instance families for tests and the command line.

All generators are deterministic functions of their seed: smooth
trigonometric map fields, eigenvalue-crossing families, random fields for
fuzzing, and extension problems with a prescribed coercivity margin.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor
from .errors import InputError
from .extension import ExtensionProblem, sphere_table
from .fields import MapField
from .grids import Grid, path_grid
from .seminorms import BaseNorm, MaxAbsLinear, ScaledNorm, VectorSpaceModel
from .solvers import orthonormal_rows


def _positions(grid: Grid):
    if grid.positions is None:
        raise InputError("generator needs a grid with node positions")
    span = float(np.max(grid.positions) - np.min(grid.positions)) or 1.0
    return (grid.positions - np.min(grid.positions)) / span


def _hermitian_coeffs(rng, d, scale):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (g + g.conj().T)


def smooth_map_field(blocks, grid: Grid, seed, harmonics: int = 2,
                     scale: float = 1.0) -> MapField:
    """Trigonometric field: per block a Hermitian trig polynomial in the
    normalized node position."""
    algebra = AlgebraDescriptor(tuple(blocks))
    rng = np.random.default_rng(seed)
    u = _positions(grid)
    stacks = []
    for d in algebra.blocks:
        s = np.zeros((grid.n, d, d), dtype=complex)
        s += _hermitian_coeffs(rng, d, scale)
        for k in range(1, harmonics + 1):
            a = _hermitian_coeffs(rng, d, scale / k)
            b = _hermitian_coeffs(rng, d, scale / k)
            s += (np.cos(2 * np.pi * k * u)[:, None, None] * a
                  + np.sin(2 * np.pi * k * u)[:, None, None] * b)
        stacks.append(s)
    return MapField(grid, algebra, stacks)


def crossing_map_field(grid: Grid, angle: float = 0.0) -> MapField:
    """Eigenvalue-crossing family diag(u - 1/2, 1/2 - u), optionally rotated."""
    algebra = AlgebraDescriptor((2,))
    u = _positions(grid)
    diag = np.zeros((grid.n, 2, 2), dtype=complex)
    diag[:, 0, 0] = u - 0.5
    diag[:, 1, 1] = 0.5 - u
    if angle:
        c, s = np.cos(angle), np.sin(angle)
        r = np.array([[c, -s], [s, c]], dtype=complex)
        diag = np.einsum("ij,njk,lk->nil", r, diag, r.conj())
    return MapField(grid, algebra, [diag])


def random_map_field(blocks, grid: Grid, seed, scale: float = 1.0) -> MapField:
    """Independent random Hermitian functional per node (no smoothness)."""
    algebra = AlgebraDescriptor(tuple(blocks))
    rng = np.random.default_rng(seed)
    stacks = []
    for d in algebra.blocks:
        g = rng.standard_normal((grid.n, d, d)) \
            + 1j * rng.standard_normal((grid.n, d, d))
        stacks.append(scale * 0.5 * (g + np.conj(np.transpose(g, (0, 2, 1)))))
    return MapField(grid, algebra, stacks)


def _smooth_rows(rng, n_nodes, k, u, scale=1.0):
    rows = np.zeros((n_nodes, k))
    rows += rng.standard_normal(k) * scale
    for h in (1, 2):
        rows += (np.cos(2 * np.pi * h * u)[:, None]
                 * rng.standard_normal(k) * scale / h)
        rows += (np.sin(2 * np.pi * h * u)[:, None]
                 * rng.standard_normal(k) * scale / h)
    return rows


def extension_instance(seed, n_nodes: int = 100, dim: int = 4,
                       dim_y: int = 2, delta: float = 0.1,
                       margin: float = 0.5, gauge_kind: str = "scaled_norm",
                       grid: Grid = None) -> ExtensionProblem:
    """Extension problem with a prescribed coercivity margin.

    For the scaled-norm kind the gauge scale is the map's nodewise dual norm
    plus the margin, which makes the sphere margin exactly the requested
    value; the max-abs-linear kind scales the map so that the margin on
    :func:`~tracefield.extension.radius_bound`'s sphere sample is exactly
    the requested value.
    """
    if not 0 < dim_y < dim:
        raise InputError("need 0 < dim_y < dim")
    rng = np.random.default_rng(seed)
    grid = grid or path_grid(n_nodes)
    u = _positions(grid)
    basis = orthonormal_rows(rng.standard_normal((dim, dim)))
    if basis.shape[0] != dim:
        raise InputError("degenerate random basis (change the seed)")
    subspace, complement = basis[:dim_y], basis[dim_y:]
    model = VectorSpaceModel(dim, BaseNorm(2.0), subspace, complement)

    phi = _smooth_rows(rng, grid.n, dim_y, u)
    if gauge_kind == "scaled_norm":
        c = np.linalg.norm(phi, axis=1) + margin
        gauge = ScaledNorm(c, grid.n, dim, model.norm)
        return ExtensionProblem(grid, model, gauge, phi, delta)
    if gauge_kind != "max_abs_linear":
        raise InputError(f"unknown gauge kind {gauge_kind!r}")

    rows = rng.standard_normal((dim + 2, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    scale = 1.0 + 0.25 * np.sin(2 * np.pi * u)
    gauge = MaxAbsLinear(rows, grid.n, scale=scale)

    # On the sphere table radius_bound certifies, the margin of s * phi is
    # min(g - s p), a minimum of affine functions of s; it exceeds the
    # request exactly for s below min over p > 0 of (g - margin) / p.
    g, p, _ = sphere_table(model, gauge, phi)
    base = float(np.min(g))
    if base <= margin:
        # lift the gauge floor above the requested margin
        if base <= 0:
            raise InputError("degenerate gauge rows (change the seed)")
        scale = scale * (2.2 * margin / base)
        gauge = MaxAbsLinear(rows, grid.n, scale=scale)
        g, p, _ = sphere_table(model, gauge, phi)
        base = float(np.min(g))
    if base <= margin:
        raise InputError("requested margin exceeds the gauge floor; "
                         "lower the margin or rescale the gauge")
    rising = p > 0
    s = float(np.min((g[rising] - margin) / p[rising]))
    return ExtensionProblem(grid, model, gauge, s * phi, delta)
