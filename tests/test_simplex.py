from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from primelab.errors import ValidationError
from oracles import complement_moments, power_sum_moments, simplex_monomial_integral
from primelab.simplex import _weight_power


class TestMonomialIntegral:
    def test_one_dimensional_square(self):
        assert simplex_monomial_integral(1, [2]) == Fraction(1, 3)

    def test_triangle_area(self):
        assert simplex_monomial_integral(2, [0, 0]) == Fraction(1, 2)

    def test_three_dim_mixed(self):
        exact = simplex_monomial_integral(3, [1, 1, 0])
        assert exact == Fraction(1, 120)
        approx = oracles.nested_quadrature_simplex(3, [1, 1, 0])
        assert float(exact) == pytest.approx(approx, abs=1e-8)

    @given(
        st.integers(1, 4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_against_quadrature(self, k, exps):
        exps = (exps * k)[:k]
        exact = float(simplex_monomial_integral(k, exps))
        approx = oracles.nested_quadrature_simplex(k, exps)
        assert exact == pytest.approx(approx, abs=1e-8)

    def test_permutation_symmetry(self):
        assert simplex_monomial_integral(3, [2, 1, 0]) == simplex_monomial_integral(
            3, [0, 1, 2]
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            simplex_monomial_integral(0, [])
        with pytest.raises(ValidationError):
            simplex_monomial_integral(2, [1])
        with pytest.raises(ValidationError):
            simplex_monomial_integral(2, [1, -1])


class TestPowerSumMoments:
    def test_known_two_dim_values(self):
        m = power_sum_moments(2, 2, 1)
        assert m[0][0] == Fraction(1, 2)  # area
        assert m[1][0] == Fraction(1, 3)  # int (t1 + t2)
        assert m[0][1] == Fraction(1, 6)  # int (t1^2 + t2^2)
        assert m[2][0] == Fraction(1, 4)  # int (t1 + t2)^2

    def test_one_dim_reduces_to_monomials(self):
        m = power_sum_moments(1, 4, 2)
        for j in range(5):
            for B in range(3):
                assert m[j][B] == Fraction(1, j + 2 * B + 1)

    def test_zero_dim_point_mass(self):
        m = power_sum_moments(0, 2, 2)
        assert m[0][0] == 1
        assert m[1][0] == 0
        assert m[0][1] == 0

    def test_against_monomial_expansion(self):
        # int P1 P2 over R_3 expands into pure monomial integrals
        m = power_sum_moments(3, 1, 1)
        direct = 3 * simplex_monomial_integral(3, [3, 0, 0]) + 6 * simplex_monomial_integral(
            3, [1, 2, 0]
        )
        assert m[1][1] == direct

    def test_against_quadrature(self):
        m = power_sum_moments(2, 2, 2)
        # int (t1+t2)^2 (t1^2+t2^2) over the triangle, via monomials
        expansion = (
            2 * simplex_monomial_integral(2, [4, 0])
            + 2 * simplex_monomial_integral(2, [3, 1])
            + 2 * simplex_monomial_integral(2, [1, 3])
            + 2 * simplex_monomial_integral(2, [2, 2])
        )
        assert m[2][1] == expansion


class TestComplementMoments:
    def test_linear_case(self):
        m = power_sum_moments(2, 2, 1)
        n = complement_moments(m, 2, 1)
        assert n[0][0] == Fraction(1, 2)
        assert n[1][0] == Fraction(1, 2) - Fraction(1, 3)

    def test_binomial_consistency(self):
        m = power_sum_moments(3, 4, 2)
        n = complement_moments(m, 4, 2)
        # (1-P1)^2 = 1 - 2 P1 + P1^2
        assert n[2][1] == m[0][1] - 2 * m[1][1] + m[2][1]

    def test_insufficient_table(self):
        m = power_sum_moments(2, 1, 1)
        with pytest.raises(ValidationError):
            complement_moments(m, 3, 1)


class TestWeightPower:
    def test_zero_dim_point_mass(self):
        assert _weight_power(0, 4) == [1, 0, 0, 0, 0]

    def test_one_dim_is_the_weight(self):
        # w(b) = (2b)! / b!
        assert _weight_power(1, 4) == [1, 2, 12, 120, 1680]

