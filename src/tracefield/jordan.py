"""Nodewise minimal decomposition of map fields into positive parts.

The split is purely local: every node's functional is separated into its
positive and negative spectral parts, which reconstruct the original exactly
and add their norms.  Whether the two parts vary continuously across the
grid is then *measured* (edge jumps under refinement), never imposed; for
inputs whose norm field is discontinuous the reports simply display the
discontinuity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraDescriptor, Element, _eigh, random_contraction
from .config import Tolerances, DEFAULT_TOLS
from .fields import (MapField, evaluate, pointwise_norm, refine_map_field)
from .grids import modulus_of_continuity, refine

_TEST_ELEMENT_SEED = 271828182


@dataclass(frozen=True)
class DecompositionResult:
    phi: MapField
    plus: MapField
    minus: MapField
    norms: np.ndarray        # pointwise norm of phi
    norms_plus: np.ndarray
    norms_minus: np.ndarray
    reconstruction_residual: float
    min_eigenvalue: float    # most negative eigenvalue across both parts


def split_map(phi: MapField, tols: Tolerances = DEFAULT_TOLS):
    """Positive and negative parts ``(plus, minus)`` of every node's map.

    Per node and block this is the spectral sign decomposition with kernel
    threshold ``tols.eig_zero``.
    """
    plus_stacks, minus_stacks = [], []
    for b, s in enumerate(phi.stacks):
        w, u = _eigh(s, f"split_map block {b}")
        wp = np.where(w > tols.eig_zero, w, 0.0)
        wm = np.where(w < -tols.eig_zero, -w, 0.0)
        uc = np.conj(np.transpose(u, (0, 2, 1)))
        plus_stacks.append(np.einsum("nij,nj,njk->nik", u, wp, uc))
        minus_stacks.append(np.einsum("nij,nj,njk->nik", u, wm, uc))
    return (MapField(phi.grid, phi.algebra, plus_stacks),
            MapField(phi.grid, phi.algebra, minus_stacks))


def decompose_map(phi: MapField, tols: Tolerances = DEFAULT_TOLS) -> DecompositionResult:
    """Split every node's functional into positive and negative parts.

    Works for any map field; absolute continuity is not required (it only
    governs whether the output varies continuously).  The split is
    :func:`split_map`; the result adds the norm fields, the reconstruction
    residual and the most negative eigenvalue of the parts.
    """
    plus, minus = split_map(phi, tols)
    recon = 0.0
    for s, p, q in zip(phi.stacks, plus.stacks, minus.stacks):
        recon = max(recon, float(np.max(np.abs(s - (p - q)))))
    min_eig = 0.0
    for part in (plus, minus):
        for s in part.stacks:
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(s))))
    return DecompositionResult(phi, plus, minus, pointwise_norm(phi),
                               pointwise_norm(plus), pointwise_norm(minus),
                               recon, min_eig)


def verify_norm_additivity(result: DecompositionResult) -> float:
    """max over nodes of | ||phi|| - ||phi_plus|| - ||phi_minus|| |."""
    return float(np.max(np.abs(result.norms - result.norms_plus
                               - result.norms_minus)))


def default_test_elements(algebra: AlgebraDescriptor, seed=_TEST_ELEMENT_SEED):
    """Unit, a random contraction h with 0 <= h <= 1, and 1 - h."""
    one = algebra.unit()
    h = random_contraction(algebra, seed)
    one_minus_h = Element(algebra, [i - m for i, m in zip(one.blocks, h.blocks)],
                          selfadjoint=True)
    return [("unit", one), ("h", h), ("one_minus_h", one_minus_h)]


@dataclass(frozen=True)
class ContinuityReport:
    element_names: list
    jumps: np.ndarray        # (n_elements, 2, refinements + 1): plus/minus rows
    ratios: np.ndarray       # jump shrink factors between successive levels
    min_ratio: float
    passes: bool


def continuity_report(result: DecompositionResult, test_elements=None,
                      refinements: int = 3, min_factor: float = 1.5,
                      negligible: float = 1e-13,
                      tols: Tolerances = DEFAULT_TOLS) -> ContinuityReport:
    """Track edge jumps of the two parts under grid refinement.

    The input field is transferred to each refined grid by linear
    interpolation of the representing matrices and re-split there with
    ``tols`` (pass the tolerances of the level-0 split); for every
    test element the raw maximal edge jump of the evaluated parts must
    shrink by ``min_factor`` per level.  Levels whose jumps are negligible
    count as converged.
    """
    if test_elements is None:
        test_elements = default_test_elements(result.phi.algebra)
    names = [n for n, _ in test_elements]
    n_el = len(test_elements)
    jumps = np.zeros((n_el, 2, refinements + 1))

    grid, phi = result.phi.grid, result.phi
    plus, minus = result.plus, result.minus
    for level in range(refinements + 1):
        if level:
            grid, prolong = refine(grid)
            phi = refine_map_field(phi, grid, prolong)
            plus, minus = split_map(phi, tols)
        for e, (_, x) in enumerate(test_elements):
            jumps[e, 0, level] = modulus_of_continuity(
                evaluate(plus, x), grid).max_jump
            jumps[e, 1, level] = modulus_of_continuity(
                evaluate(minus, x), grid).max_jump

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = jumps[:, :, :-1] / jumps[:, :, 1:]
    converged = jumps[:, :, 1:] <= negligible
    ratios = np.where(converged, np.inf, ratios)
    min_ratio = float(np.min(ratios)) if ratios.size else np.inf
    return ContinuityReport(names, jumps, ratios, min_ratio,
                            bool(min_ratio >= min_factor))
