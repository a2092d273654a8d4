"""Closed-form coefficients of structured inverse correlations, q = 3.

Estimation never needs these: the quadratic objective eliminates the
combination coefficients of the basis matrices. They serve as oracles
that the basis spans the inverse working correlation.
"""


def cs_inverse_coefficients(alpha: float) -> tuple[float, float]:
    """Coefficients (a0, a1) with R(alpha)^-1 = a0*I + a1*(J - I) for q = 3."""
    denom = 2.0 * alpha**2 - alpha - 1.0
    return -(alpha + 1.0) / denom, alpha / denom


def ar1_inverse_coefficients(alpha: float) -> tuple[float, float]:
    """Coefficients (b0, b1) with R(alpha)^-1 ~ b0*I + b1*T for AR(1), q = 3.

    Exact only after adding back the end-point correction matrix
    alpha^2/(1-alpha^2) * diag(1, 0, 1) that the basis omits.
    """
    denom = 1.0 - alpha**2
    return (1.0 + alpha**2) / denom, -alpha / denom
