"""Shared numerical tolerances.

The split, the extension engine and the CLI verdicts read these thresholds
from a :class:`Tolerances` value so that a run can override any of them (CLI
flag ``--tol KEY=VAL``) and reports can echo the effective settings.
"""

from dataclasses import dataclass, replace, asdict


@dataclass(frozen=True)
class Tolerances:
    eig_zero: float = 1e-12    # eigenvalues below this count as kernel
    residual: float = 1e-10    # exact-identity residuals (reconstruction etc.)
    solver: float = 1e-8       # convex solver / certificate slack
    select_guard: float = 1e-9      # tube shrink guard before selection

    def override(self, **kwargs) -> "Tolerances":
        unknown = set(kwargs) - set(self.as_dict())
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOLS = Tolerances()
