"""Working-correlation basis construction and decomposition identities."""

import numpy as np
import pytest

from qifaux import CorrelationStructure, DimensionTooSmall, build_basis, correlation_matrix

from inverse_coefficients import ar1_inverse_coefficients, cs_inverse_coefficients

CS = CorrelationStructure.COMPOUND_SYMMETRY
AR1 = CorrelationStructure.AR1
IND = CorrelationStructure.INDEPENDENCE


class TestBuildBasis:
    def test_independence_is_identity_only(self):
        b = build_basis(IND, 5)
        assert len(b) == 1
        np.testing.assert_array_equal(b.matrices[0], np.eye(5))

    def test_compound_symmetry_q3(self):
        b = build_basis(CS, 3)
        assert len(b) == 2
        np.testing.assert_array_equal(b.matrices[0], np.eye(3))
        expected = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_array_equal(b.matrices[1], expected)

    def test_ar1_q3_tridiagonal(self):
        b = build_basis(AR1, 3)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(b.matrices[1], expected)

    @pytest.mark.parametrize("structure", [CS, AR1])
    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_symmetric_zero_one_entries(self, structure, q):
        b = build_basis(structure, q)
        np.testing.assert_array_equal(b.matrices[0], np.eye(q))
        for m in b.matrices:
            np.testing.assert_array_equal(m, m.T)
            assert np.isin(m, (0.0, 1.0)).all()

    @pytest.mark.parametrize("structure", [CS, AR1])
    def test_dimension_too_small(self, structure):
        with pytest.raises(DimensionTooSmall):
            build_basis(structure, 1)

    def test_name_parsing_case_insensitive(self):
        assert CorrelationStructure.from_name("CS") is CS
        assert CorrelationStructure.from_name("Ar1") is AR1
        assert CorrelationStructure.from_name("IND") is IND
        with pytest.raises(ValueError):
            CorrelationStructure.from_name("toeplitz")


class TestInverseDecompositions:
    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_cs_inverse_identity_q3(self, alpha):
        """a0*I + a1*(J - I) reproduces the direct inverse of R(alpha)."""
        r = np.eye(3) + alpha * (np.ones((3, 3)) - np.eye(3))
        a0, a1 = cs_inverse_coefficients(alpha)
        reconstructed = a0 * np.eye(3) + a1 * (np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(reconstructed, np.linalg.inv(r), atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_ar1_inverse_with_endpoint_correction(self, alpha):
        """b0*I + b1*T is the AR(1) inverse up to the omitted corner matrix."""
        r = correlation_matrix(AR1, 3, alpha)
        b0, b1 = ar1_inverse_coefficients(alpha)
        tri = build_basis(AR1, 3).matrices[1]
        corner = np.diag([1.0, 0.0, 1.0])
        reconstructed = b0 * np.eye(3) + b1 * tri - alpha**2 / (1 - alpha**2) * corner
        np.testing.assert_allclose(reconstructed, np.linalg.inv(r), atol=1e-10)


class TestCorrelationMatrix:
    @pytest.mark.parametrize("structure", [CS, AR1])
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.8])
    def test_positive_definite(self, structure, rho):
        c = correlation_matrix(structure, 3, rho)
        assert np.linalg.eigvalsh(c).min() > 0

    def test_ar1_powers(self):
        c = correlation_matrix(AR1, 4, 0.3)
        assert c[0, 3] == pytest.approx(0.3**3)
        np.testing.assert_allclose(np.diag(c), 1.0)
