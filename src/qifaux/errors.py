"""Exception types raised across the package."""


class QifauxError(Exception):
    """Base class for all package-specific errors."""


class DimensionTooSmall(QifauxError, ValueError):
    """Cluster size too small for the requested correlation structure."""


class PartitionViolation(QifauxError, ValueError):
    """A subject matched zero or more than one subgroup."""


class EmptySubgroup(QifauxError, ValueError):
    """A subgroup contains no subjects."""

    def __init__(self, group):
        self.group = group
        super().__init__(f"subgroup {group} contains no subjects")


class SingularWeightMatrix(QifauxError, RuntimeError):
    """Moment weight matrix has rank below the parameter dimension."""


class RankDeficient(QifauxError, RuntimeError):
    """Moment Jacobian lost rank; the parameter is not identified."""


class NotConverged(QifauxError, RuntimeError):
    """A restricted solve stopped before its convergence rules were met."""

    def __init__(self, iterations, flat):
        self.iterations = iterations
        why = "no achievable decrease of Q_n" if flat else "reached MAX_ITER"
        super().__init__(f"restricted solve unconverged at iteration {iterations}: {why}")


class TooManyFailures(QifauxError, RuntimeError):
    """More than the tolerated share of Monte Carlo replications failed."""


class MalformedRow(QifauxError, ValueError):
    """A data file row could not be parsed."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class UnbalancedSubject(QifauxError, ValueError):
    """A subject has contradictory rows (duplicate time index)."""

    def __init__(self, subject_id, line_number=None):
        self.subject_id = subject_id
        self.line_number = line_number
        where = "" if line_number is None else f"line {line_number}: "
        super().__init__(f"{where}subject {subject_id!r} has duplicate time indices")


class EmptyDataset(QifauxError, ValueError):
    """No usable subjects remain after loading."""


class ZeroVariance(QifauxError, ValueError):
    """A column selected for standardization is constant."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"column {column!r} has zero variance")


class InvalidSize(QifauxError, ValueError):
    """Requested split size is out of range."""


class WeightRankWarning(RuntimeWarning):
    """Weight matrix was rank-deficient; a pseudo-inverse was used."""
