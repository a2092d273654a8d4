"""Basis matrices expanding the inverse working-correlation matrix.

The inverse of a structured working correlation is represented as a linear
combination of known 0/1 matrices; estimation only needs the matrices, the
combination coefficients being nuisance quantities that drop out of the
quadratic objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionTooSmall


class CorrelationStructure(Enum):
    INDEPENDENCE = "ind"
    COMPOUND_SYMMETRY = "cs"
    AR1 = "ar1"

    @classmethod
    def from_name(cls, name: str) -> "CorrelationStructure":
        key = name.strip().lower()
        aliases = {
            "ind": cls.INDEPENDENCE,
            "independence": cls.INDEPENDENCE,
            "identity": cls.INDEPENDENCE,
            "cs": cls.COMPOUND_SYMMETRY,
            "exchangeable": cls.COMPOUND_SYMMETRY,
            "ar1": cls.AR1,
            "ar(1)": cls.AR1,
        }
        if key not in aliases:
            raise ValueError(f"unknown correlation structure {name!r}")
        return aliases[key]


@dataclass(frozen=True)
class BasisSet:
    """Ordered basis matrices M_1..M_L; M_1 is always the identity."""

    q: int
    matrices: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        if len(mats) < 1:
            raise ValueError("basis set needs at least one matrix")
        for m in mats:
            if m.shape != (self.q, self.q):
                raise ValueError("basis matrices must be q x q")
            if not np.array_equal(m, m.T):
                raise ValueError("basis matrices must be symmetric")
            if not np.isin(m, (0.0, 1.0)).all():
                raise ValueError("basis matrices must have 0/1 entries")
        if not np.array_equal(mats[0], np.eye(self.q)):
            raise ValueError("first basis matrix must be the identity")
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return len(self.matrices)

    def stacked(self) -> np.ndarray:
        """(L, q, q) array view for vectorized score assembly."""
        return np.stack(self.matrices)


def build_basis(structure: CorrelationStructure, q: int) -> BasisSet:
    """Basis matrices for the requested working-correlation structure.

    Independence uses [I]. Compound symmetry adds the all-off-diagonal
    matrix J - I. AR(1) adds the first super/sub-diagonal matrix; the
    end-point correction matrix is deliberately omitted.
    """
    if q < 1:
        raise DimensionTooSmall("cluster size q must be at least 1")
    identity = np.eye(q)
    if structure is CorrelationStructure.INDEPENDENCE:
        return BasisSet(q, (identity,))
    if q < 2:
        raise DimensionTooSmall(
            f"{structure.value} working correlation needs q >= 2, got q={q}"
        )
    if structure is CorrelationStructure.COMPOUND_SYMMETRY:
        off = np.ones((q, q)) - identity
        return BasisSet(q, (identity, off))
    if structure is CorrelationStructure.AR1:
        tri = np.diag(np.ones(q - 1), 1) + np.diag(np.ones(q - 1), -1)
        return BasisSet(q, (identity, tri))
    raise ValueError(f"unknown structure {structure!r}")


def correlation_matrix(structure: CorrelationStructure, q: int, rho: float) -> np.ndarray:
    """Unit-variance correlation matrix for data generation and tests."""
    if structure is CorrelationStructure.INDEPENDENCE:
        return np.eye(q)
    if structure is CorrelationStructure.COMPOUND_SYMMETRY:
        return (1.0 - rho) * np.eye(q) + rho * np.ones((q, q))
    if structure is CorrelationStructure.AR1:
        idx = np.arange(q)
        return rho ** np.abs(idx[:, None] - idx[None, :])
    raise ValueError(f"unknown structure {structure!r}")

