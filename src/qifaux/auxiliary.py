"""Subgroup partitions of covariate space and auxiliary mean information.

Auxiliary information arrives as subgroup means phi_k = E(Y | X in Omega_k)
over a partition Omega_1..Omega_K. Each pair (Omega_k, phi_k) contributes a
q-dimensional estimating function
    Psi_k(beta, X) = 1{X in Omega_k} * (mu(beta, X) - phi_k),
which has mean zero at the true parameter by double expectation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EmptySubgroup, PartitionViolation
from .model import LongitudinalDataset

_ATOM_RE = re.compile(
    r"^\s*col\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*(>=|<|==)\s*([-+0-9.eE]+)\s*$"
)


@dataclass(frozen=True)
class Predicate:
    """Atomic condition on one covariate cell, 1-based (time, column)."""

    time: int
    column: int
    op: str
    value: float

    def __post_init__(self):
        if self.time < 1 or self.column < 1:
            raise ValueError(f"cell indices in {self} are 1-based")

    def holds_batch(self, covariates: np.ndarray) -> np.ndarray:
        """(n,) truth values on an (n, q, p) covariate stack."""
        q, p = covariates.shape[1:]
        if self.time > q or self.column > p:
            raise PartitionViolation(
                f"predicate {self} reads a cell outside data with q={q}, p={p}"
            )
        x = covariates[:, self.time - 1, self.column - 1]
        if self.op == ">=":
            return x >= self.value
        if self.op == "<":
            return x < self.value
        return x == self.value

    def __str__(self) -> str:
        return f"col[{self.time},{self.column}] {self.op} {self.value:g}"


def parse_predicate(text: str) -> Predicate:
    m = _ATOM_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse predicate {text!r}")
    return Predicate(int(m.group(1)), int(m.group(2)), m.group(3), float(m.group(4)))


def parse_group(line: str) -> tuple[Predicate, ...]:
    """One group: a conjunction of atoms joined by '&' (or 'and')."""
    atoms = re.split(r"&|\band\b", line)
    return tuple(parse_predicate(a) for a in atoms)


@dataclass(frozen=True)
class SubgroupPartition:
    """Disjoint, exhaustive split of covariate space into K groups.

    ``assign`` maps the (n, q, p) covariate stack to n group indices in
    0..K-1, one per subject.
    """

    n_groups: int
    assign: callable
    labels: tuple = ()

    def group_indices(self, dataset: LongitudinalDataset) -> np.ndarray:
        """(n,) int array of group memberships; checks index range."""
        if self.n_groups == 0:
            return np.zeros(dataset.n, dtype=int)
        idx = np.asarray(self.assign(dataset.covariates), dtype=int)
        if idx.shape != (dataset.n,):
            raise PartitionViolation("membership must yield one index per subject")
        if ((idx < 0) | (idx >= self.n_groups)).any():
            bad = int(np.argmax((idx < 0) | (idx >= self.n_groups)))
            raise PartitionViolation(
                f"subject {bad} mapped to group {idx[bad]} outside 0..{self.n_groups - 1}"
            )
        return idx

    @classmethod
    def from_predicates(cls, groups) -> "SubgroupPartition":
        """Build from per-group predicate conjunctions.

        Membership evaluates every group and demands exactly one match,
        so a malformed partition surfaces as PartitionViolation at use.
        """
        groups = [tuple(g) for g in groups]

        def assign(covariates):
            n = covariates.shape[0]
            match = np.zeros((len(groups), n), dtype=bool)
            for k, atoms in enumerate(groups):
                hit = np.ones(n, dtype=bool)
                for a in atoms:
                    hit &= a.holds_batch(covariates)
                match[k] = hit
            counts = match.sum(axis=0)
            if (counts != 1).any():
                bad = int(np.argmax(counts != 1))
                raise PartitionViolation(
                    f"subject {bad} matched {counts[bad]} groups; "
                    "predicates do not partition"
                )
            return np.argmax(match, axis=0)

        labels = tuple(" & ".join(str(a) for a in atoms) for atoms in groups)
        return cls(len(groups), assign, labels)


def parse_subgroup_file(text: str) -> SubgroupPartition:
    """Parse subgroup definitions, one conjunction per non-comment line."""
    groups = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            groups.append(parse_group(line))
    if not groups:
        raise ValueError("subgroup file defines no groups")
    return SubgroupPartition.from_predicates(groups)


@dataclass(frozen=True)
class AuxiliaryInfo:
    """Partition plus the target mean vector for each subgroup."""

    partition: SubgroupPartition
    phi: tuple

    def __post_init__(self):
        phi = tuple(np.asarray(v, dtype=float) for v in self.phi)
        if len(phi) != self.partition.n_groups:
            raise ValueError("need one phi vector per subgroup")
        if phi and any(v.ndim != 1 or v.shape != phi[0].shape for v in phi):
            raise ValueError("phi vectors must share a common length")
        if any(not np.isfinite(v).all() for v in phi):
            raise ValueError("phi vectors must be finite")
        object.__setattr__(self, "phi", phi)

    @property
    def n_groups(self) -> int:
        return self.partition.n_groups

    def phi_matrix(self) -> np.ndarray:
        """(K, q) array of targets, empty (0, 0) when K = 0."""
        if not self.phi:
            return np.zeros((0, 0))
        return np.stack(self.phi)


def estimate_phi(
    dataset: LongitudinalDataset, partition: SubgroupPartition
) -> tuple[list[np.ndarray], np.ndarray]:
    """Componentwise response means per subgroup, with subject counts.

    Raises EmptySubgroup for any group that captured no subjects.
    """
    idx = partition.group_indices(dataset)
    phis = []
    counts = np.zeros(partition.n_groups, dtype=int)
    for k in range(partition.n_groups):
        mask = idx == k
        counts[k] = int(mask.sum())
        if counts[k] == 0:
            raise EmptySubgroup(k)
        phis.append(dataset.responses[mask].mean(axis=0))
    return phis, counts
