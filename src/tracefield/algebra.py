"""Finite block-matrix algebras, selfadjoint elements, and functionals.

An algebra is a direct sum of full matrix blocks, described by the list of
block dimensions.  Blocks of size one model functions on a finite set; the
algebra is commutative exactly when every block has size one.  Functionals
are stored through trace pairing: a functional is a tuple of Hermitian
matrices ``rho`` with

    phi(x) = sum over blocks of trace(rho_b @ x_b),

which is lossless in finite dimension and reduces every statement about
functionals to linear algebra on the representing matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-12    # max allowed deviation from Hermitian symmetry
IMAG_TOL = 1e-10    # max imaginary residue on selfadjoint data


class AlgebraError(ValueError):
    """Invalid algebra, element, or functional data."""


class EigensolverError(RuntimeError):
    """Raised when a Hermitian eigensolver fails; never silenced."""


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Direct sum of full matrix blocks.

    Parameters
    ----------
    blocks : tuple of int
        Dimensions of the matrix blocks, all >= 1.  ``(1,) * k`` gives the
        commutative algebra of functions on ``k`` points.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if len(blocks) == 0:
            raise AlgebraError("descriptor needs at least one block")
        if any(b < 1 for b in blocks):
            raise AlgebraError(f"block dimensions must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        """Real dimension of the selfadjoint part."""
        return sum(b * b for b in self.blocks)

    @property
    def commutative(self) -> bool:
        return all(b == 1 for b in self.blocks)

    def unit(self) -> "Element":
        return Element(self, [np.eye(b, dtype=complex) for b in self.blocks],
                       selfadjoint=True)

    def zero_functional(self) -> "FunctionalRep":
        return FunctionalRep(self, [np.zeros((b, b), dtype=complex)
                                    for b in self.blocks])


def _check_blocks(descriptor, mats, what, require_herm):
    if len(mats) != len(descriptor.blocks):
        raise AlgebraError(
            f"{what}: expected {len(descriptor.blocks)} blocks, got {len(mats)}")
    out = []
    for b, (d, m) in enumerate(zip(descriptor.blocks, mats)):
        m = np.asarray(m, dtype=complex)
        if m.shape != (d, d):
            raise AlgebraError(f"{what}: block {b} has shape {m.shape}, "
                               f"expected {(d, d)}")
        if require_herm:
            defect = np.max(np.abs(m - m.conj().T)) if d else 0.0
            if defect > HERM_TOL:
                raise AlgebraError(
                    f"{what}: block {b} deviates from Hermitian by {defect:.3e} "
                    f"(tolerance {HERM_TOL:.1e})")
            m = 0.5 * (m + m.conj().T)
        out.append(m)
    return out


@dataclass(frozen=True)
class Element:
    """Algebra element as per-block complex matrices."""

    algebra: AlgebraDescriptor
    blocks: list = field(repr=False)
    selfadjoint: bool = False

    def __post_init__(self):
        mats = _check_blocks(self.algebra, self.blocks, "Element",
                             self.selfadjoint)
        object.__setattr__(self, "blocks", mats)

    def scaled(self, a: float) -> "Element":
        return Element(self.algebra, [a * m for m in self.blocks],
                       selfadjoint=self.selfadjoint and np.isreal(a))


@dataclass(frozen=True)
class FunctionalRep:
    """Selfadjoint functional stored as per-block Hermitian pairing matrices."""

    algebra: AlgebraDescriptor
    blocks: list = field(repr=False)

    def __post_init__(self):
        mats = _check_blocks(self.algebra, self.blocks, "FunctionalRep",
                             True)
        object.__setattr__(self, "blocks", mats)

    def pair(self, x: Element) -> float:
        """Trace pairing with a selfadjoint element; the value is real."""
        val = sum(np.trace(r @ m) for r, m in zip(self.blocks, x.blocks))
        if abs(val.imag) > IMAG_TOL:
            raise AlgebraError(
                f"pairing has imaginary residue {val.imag:.3e} "
                "(element not selfadjoint?)")
        return float(val.real)

    def scaled(self, a: float) -> "FunctionalRep":
        return FunctionalRep(self.algebra, [a * m for m in self.blocks])


def _eigh(mat, context):
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:   # pragma: no cover - numpy rarely fails
        raise EigensolverError(f"eigendecomposition failed in {context}: {exc}")


def op_norm(x: Element) -> float:
    """Norm of a selfadjoint element: largest |eigenvalue| over all blocks."""
    if not x.selfadjoint:
        raise AlgebraError("op_norm is defined for selfadjoint elements only")
    best = 0.0
    for b, m in enumerate(x.blocks):
        w, _ = _eigh(m, f"op_norm block {b}")
        best = max(best, float(np.max(np.abs(w))))
    return best


def random_selfadjoint(descriptor: AlgebraDescriptor, seed,
                       scale: float = 1.0) -> Element:
    """Seeded random selfadjoint element (Gaussian entries, symmetrized)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for d in descriptor.blocks:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(scale * 0.5 * (g + g.conj().T))
    return Element(descriptor, blocks, selfadjoint=True)


def random_contraction(descriptor: AlgebraDescriptor, seed) -> Element:
    """Seeded random element h with 0 <= h <= 1 (affine eigenvalue squash)."""
    h = random_selfadjoint(descriptor, seed)
    blocks = []
    for m in h.blocks:
        w, u = _eigh(m, "random_contraction")
        lo, hi = float(np.min(w)), float(np.max(w))
        span = max(hi - lo, 1e-30)
        blocks.append((u * ((w - lo) / span)) @ u.conj().T)
    return Element(descriptor, blocks, selfadjoint=True)


def random_state(descriptor: AlgebraDescriptor, seed) -> FunctionalRep:
    """Seeded random state: positive semidefinite with total trace one."""
    rng = np.random.default_rng(seed)
    blocks = []
    for d in descriptor.blocks:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(g @ g.conj().T)
    total = sum(float(np.trace(b).real) for b in blocks)
    return FunctionalRep(descriptor, [b / total for b in blocks])


def random_functional(descriptor: AlgebraDescriptor, seed,
                      scale: float = 1.0) -> FunctionalRep:
    """Seeded random selfadjoint functional (not normalized, mixed signs)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for d in descriptor.blocks:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(scale * 0.5 * (g + g.conj().T))
    return FunctionalRep(descriptor, blocks)
