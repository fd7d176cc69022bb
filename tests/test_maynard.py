import copy
import gc
import json
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracles
from oracles import ldl_pivots
from primelab import maynard
from primelab.cli import dispatch
from primelab.errors import (
    CapacityError,
    ConsistencyError,
    ConvergenceError,
    ValidationError,
)
from primelab.maynard import (
    BasisIndex,
    GBoundParams,
    QuadraticFormPair,
    basis_size,
    build_quadratic_forms,
    enumerate_basis,
    gap_bound_chain,
    ij_monte_carlo,
    mk_lower_bound_g,
    mk_lower_bound_poly,
    optimize_g_bound,
    rayleigh_quotient,
)
from primelab.tuples import AdmissibleTuple, greedy_narrow_tuple


def synthetic_pair(a1, a2):
    n = len(a1)
    basis = tuple(BasisIndex(i, 0) for i in range(n))
    image = lambda mat: oracles.integer_image([[Fraction(x) for x in row] for row in mat])
    return QuadraticFormPair(k=1, degree=n, basis=basis, image1=image(a1), image2=image(a2))


_ENTRIES = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def symmetric_rational(draw):
    """Symmetric n x n rational matrix, n <= 8: positive definite
    (B B^T plus a positive diagonal), singular (B B^T with B of rank < n)
    or unconstrained (mostly indefinite)."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("definite", "singular", "any")))
    if kind == "any":
        upper = {(i, j): draw(_ENTRIES) for i in range(n) for j in range(i, n)}
        return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    rank = n if kind == "definite" else draw(st.integers(0, n - 1))
    b = [[draw(_ENTRIES) for _ in range(rank)] for _ in range(n)]
    m = [
        [sum((b[i][t] * b[j][t] for t in range(rank)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    if kind == "definite":
        for i in range(n):
            m[i][i] += draw(
                st.fractions(min_value=Fraction(1, 12), max_value=5, max_denominator=12)
            )
    return m


class TestBasis:
    def test_enumeration(self):
        assert enumerate_basis(0) == [BasisIndex(0, 0)]
        assert enumerate_basis(2) == [
            BasisIndex(0, 0),
            BasisIndex(0, 1),
            BasisIndex(1, 0),
            BasisIndex(2, 0),
        ]

    @pytest.mark.parametrize("degree,size", [(3, 6), (11, 42), (12, 49)])
    def test_sizes(self, degree, size):
        assert len(enumerate_basis(degree)) == size

    @pytest.mark.parametrize("degree", range(41))
    def test_counted_size_and_order(self, degree):
        basis = enumerate_basis(degree)
        assert basis_size(degree) == len(basis)
        assert basis == sorted(basis)


class TestBuildQuadraticForms:
    def test_k1_constant(self):
        pair = build_quadratic_forms(1, 0)
        assert pair.A1 == [[Fraction(1)]]
        assert pair.A2 == [[Fraction(1)]]

    def test_k2_constant_ratio(self):
        pair = build_quadratic_forms(2, 0)
        assert pair.A1 == [[Fraction(1, 2)]]
        assert pair.A2 == [[Fraction(2, 3)]]

    def test_symmetry_and_definiteness(self):
        pair = build_quadratic_forms(4, 3)
        n = len(pair.basis)
        for _, s in (pair.image1, pair.image2):
            for i in range(n):
                for j in range(n):
                    assert s[i][j] == s[j][i]
        assert all(p > 0 for p in ldl_pivots(pair.A1))
        assert all(p > 0 for p in maynard._decimal_ldl(pair.image1)[2])

    def test_entries_against_monte_carlo(self):
        pair = build_quadratic_forms(3, 2)
        basis = pair.basis
        a1, a2 = pair.A1, pair.A2
        m1, s1, m2, s2 = oracles.mc_form_entries(3, basis, 2_000_000, seed=20240811)
        n = len(basis)
        for i in range(n):
            for j in range(n):
                assert abs(float(a1[i][j]) - m1[i, j]) <= 3 * s1[i, j] + 1e-12
                assert abs(float(a2[i][j]) - m2[i, j]) <= 3 * s2[i, j] + 1e-12

    @pytest.mark.parametrize(
        "k,degree,cap",
        [(k, d, 64) for k in (*range(1, 9), 20, 50, 105, 400) for d in range(9)]
        + [(105, 16, 81), (50, 14, 64), (8000, 3, 64)],
    )
    def test_equals_fraction_oracle(self, k, degree, cap):
        pair = build_quadratic_forms(k, degree, basis_cap=cap)
        a1, a2 = oracles.quadratic_forms_fraction(k, pair.basis)
        assert pair.A1 == a1
        assert pair.A2 == a2

    @pytest.mark.parametrize("k,degree", [(k, d) for k in (1, 2, 5, 105) for d in range(9)] + [(1600, 0)])
    def test_image_in_lowest_terms(self, k, degree):
        # each form is stored once as (den, S): the lcm image of the oracle's
        # Fractions, so den is least and shares no factor with all of S
        pair = build_quadratic_forms(k, degree)
        a1, a2 = oracles.quadratic_forms_fraction(k, pair.basis)
        assert pair.image1 == oracles.integer_image(a1)
        assert pair.image2 == oracles.integer_image(a2)

    def test_basis_cap(self):
        with pytest.raises(CapacityError):
            build_quadratic_forms(5, 12, basis_cap=10)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("degree", range(13))
    def test_basis_size_checked_before_listing(self, monkeypatch, k, degree):
        # the size is counted, not listed: a degree of 2^31 once listed the
        # basis and ended in a MemoryError
        n = len([idx for idx in enumerate_basis(degree) if k > 1 or idx.b == 0])
        assert len(build_quadratic_forms(k, degree, basis_cap=n).basis) == n

        def unreachable(degree):
            raise AssertionError("basis listed")

        monkeypatch.setattr(maynard, "enumerate_basis", unreachable)
        with pytest.raises(CapacityError, match=f"^basis size {n} exceeds cap {n - 1};"):
            build_quadratic_forms(k, degree, basis_cap=n - 1)
        with pytest.raises(CapacityError, match=f"^basis size {(2**30 + 1) ** 2} exceeds"):
            build_quadratic_forms(k + 1, 2**31)


def rounded_oracle(matrix):
    """(prec, rows of L^T, pivots) from the exact factor, rounded as the
    decimal LDL must give them: prec = 20 + the digits of
    max floor(A[i][i] / pivot_i), every entry rounded once to prec."""
    pivots, factor = oracles.ldl_bareiss(matrix)
    prec = 20 + len(str(max(matrix[i][i] // p for i, p in enumerate(pivots))))
    with localcontext() as ctx:
        ctx.prec = prec
        rows = [[Decimal(x) / row[0] for x in row] for row in factor]
        return prec, rows, [Decimal(p.numerator) / p.denominator for p in pivots]


def decimal_factor(image):
    """`_decimal_ldl` of an integer image, in the oracle's layout."""
    prec, lt, pivots = maynard._decimal_ldl(image)
    return prec, [list(lt[i, i:]) for i in range(len(image[1]))], pivots


def decimal_ldl(matrix):
    """`_decimal_ldl` of a Fraction matrix, through the lcm image."""
    return maynard._decimal_ldl(oracles.integer_image(matrix))


def failing_pivot(exc):
    return int(re.match(r"pivot (\d+) of the LDL decomposition is .+ <= 0: "
                        r"matrix is not positive definite$", str(exc)).group(1))


def working_precisions(monkeypatch):
    """Record the digits of every factorisation `_decimal_ldl` attempts."""
    seen = []
    factor = maynard._ldl_at

    def record(b, den, wp):
        seen.append(wp)
        return factor(b, den, wp)

    monkeypatch.setattr(maynard, "_ldl_at", record)
    return seen


# c + ulp/2 at prec 21 for a c of 21 digits in [0.1, 1): the rounding
# boundary between c and c + 10^-21
_EVEN_TIE = Fraction(123456789012345678902, 10**21) + Fraction(5, 10**22)
_ODD_TIE = _EVEN_TIE + Fraction(1, 10**21)


def near_tie(tie, side):
    """Within 10^-75 of the tie, past the first attempt's 70 digits
    (_PREC_GUESS + _GUARD): there the value reads as the tie itself, which
    half-even rounding may send to the wrong side. Side 0 is the tie: no
    interval rounds alike there, and the bound on the entry's denominator
    pins it to the tie, which rounds half to even."""
    return tie + side * Fraction(1, 10**75)


RANK_ONE = [
    [Fraction(1, 3**600), Fraction(1, 21**300)],
    [Fraction(1, 21**300), Fraction(1, 7**600)],
]


class TestLdl:
    def test_rejects_indefinite(self):
        with pytest.raises(ConsistencyError, match="^pivot 1 of the LDL decomposition is -3 <= 0"):
            decimal_ldl([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]])

    def test_pivots_match_minor_ratios(self):
        mat = [[Fraction(4), Fraction(2)], [Fraction(2), Fraction(3)]]
        prec, rows, pivots = decimal_factor(oracles.integer_image(mat))
        assert (prec, pivots) == (21, [4, 2])
        assert rows == [[1, Fraction(1, 2)], [1]]

    @given(symmetric_rational())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, mat):
        try:
            expected = rounded_oracle(mat)
        except ConsistencyError as exc:
            with pytest.raises(ConsistencyError) as got:
                decimal_ldl(mat)
            assert failing_pivot(got.value) == failing_pivot(exc)
        else:
            assert decimal_factor(oracles.integer_image(mat)) == expected

    def test_maynard_a1_matches_fraction_oracle(self):
        pair = build_quadratic_forms(105, 12)
        assert decimal_factor(pair.image1) == rounded_oracle(pair.A1)

    def test_exact_zeros_in_l(self, monkeypatch):
        # some entries of L are exactly 0 at k=2, d=14: no interval around
        # them rounds alike, and Hadamard's bound certifies them at once
        pair = build_quadratic_forms(2, 14)
        expected = rounded_oracle(pair.A1)
        assert any(x == 0 for row in expected[1] for x in row)
        seen = working_precisions(monkeypatch)
        assert decimal_factor(pair.image1) == expected
        assert len(seen) == 1

    def test_diagonal_past_the_int_str_digit_limit(self):
        # A1[0][0] = 1/k! at every k; k! has over 4300 digits from k = 1600,
        # past what str() of an int accepts by default
        mat = [[Fraction(1, 10**5000), Fraction(1, 10**5001)],
               [Fraction(1, 10**5001), Fraction(1, 10**5000)]]
        assert decimal_factor(oracles.integer_image(mat)) == rounded_oracle(mat)

    @pytest.mark.parametrize("k,degree,cap", [(105, 12, 64), (105, 16, 81), (50, 14, 64), (2, 14, 64)])
    def test_scaled_diagonal_lies_in_a_tenth_to_a_hundred(self, monkeypatch, k, degree, cap):
        # the digit shift is read from the reduced diagonal A[i][i] = p / q:
        # with D the digits of p less those of q, B's diagonal entry lies in
        # [0.1, 10) for an even D and in [1, 100) for an odd one. Shifts read
        # from the unreduced S_ii and den stay inside [0.1, 100) on these
        # forms, but move some entry by a factor of 100, out of its half
        # of that range
        seen, factor = [], maynard._ldl_at

        def record(b, den, wp):
            seen.append((b, den))
            return factor(b, den, wp)

        monkeypatch.setattr(maynard, "_ldl_at", record)
        maynard._decimal_ldl(build_quadratic_forms(k, degree, basis_cap=cap).image1)
        assert seen
        for b, den in seen:
            for (x, e), *_ in b:
                a = Fraction(x, den)
                low = Fraction(1, 10) if (len(str(a.numerator)) - len(str(a.denominator))) % 2 == 0 else 1
                assert low <= a / Fraction(10) ** e < 100 * low, (x, den, e)

    def test_first_attempt_certifies(self, monkeypatch):
        seen = working_precisions(monkeypatch)
        prec, _, _ = maynard._decimal_ldl(build_quadratic_forms(105, 12).image1)
        assert len(seen) == 1 and seen[0] >= prec + maynard._GUARD

    @pytest.mark.parametrize("tie", [_EVEN_TIE, _ODD_TIE])
    @pytest.mark.parametrize("side", [1, -1, 0])
    def test_l_entry_at_or_near_rounding_boundary(self, monkeypatch, tie, side):
        x = near_tie(tie, side)
        mat = [[Fraction(1), x], [x, Fraction(1)]]
        seen = working_precisions(monkeypatch)
        got = decimal_factor(oracles.integer_image(mat))
        assert got[0] == 21 and len(seen) == (1 if side == 0 else 2)
        assert got == rounded_oracle(mat)

    @pytest.mark.parametrize("tie", [_EVEN_TIE, _ODD_TIE])
    @pytest.mark.parametrize("side", [1, -1, 0])
    def test_pivot_at_or_near_rounding_boundary(self, monkeypatch, tie, side):
        # pivot 1 is x + 1/9 - (1/3)^2 = x
        x = near_tie(tie, side)
        mat = [[Fraction(1), Fraction(1, 3)], [Fraction(1, 3), x + Fraction(1, 9)]]
        seen = working_precisions(monkeypatch)
        got = decimal_factor(oracles.integer_image(mat))
        assert got[0] == 21 and len(seen) == (1 if side == 0 else 2)
        assert got == rounded_oracle(mat)

    @pytest.mark.parametrize("side", [1, -1, 0])
    def test_digit_count_at_or_near_power_of_ten(self, monkeypatch, side):
        # A[1][1] / pivot_1 lies about 10^-72 below 10 (side 1, 1 digit),
        # above it (side -1, 2 digits) or on it: (1/10) / (1/100) = 10
        delta = side * Fraction(1, 10**75)
        mat = [[Fraction(1), Fraction(3, 10)], [Fraction(3, 10), Fraction(1, 10) + delta]]
        seen = working_precisions(monkeypatch)
        got = decimal_factor(oracles.integer_image(mat))
        assert got[0] == (21 if side == 1 else 22) and len(seen) == (1 if side == 0 else 2)
        assert got == rounded_oracle(mat)

    @pytest.mark.parametrize(
        "mat,index,attempts",
        [
            ([[0, 0], [0, 1]], 0, 1),
            ([[1, 2], [2, 4]], 1, 1),
            ([[Fraction(1, 3), Fraction(2, 7), 1],
              [Fraction(2, 7), Fraction(12, 49), Fraction(6, 7)],
              [1, Fraction(6, 7), 5]], 1, 1),
            # v v^T with v = (3^-300, 7^-300): the rounding noise in pivot 1
            # falls below Hadamard's floor (about 10^-790 after scaling)
            # only at a guard of 960 digits
            (RANK_ONE, 1, 6),
        ],
    )
    def test_exactly_singular_raises(self, monkeypatch, mat, index, attempts):
        mat = [[Fraction(x) for x in row] for row in mat]
        seen = working_precisions(monkeypatch)
        with pytest.raises(ConsistencyError, match=f"^pivot {index} of the LDL decomposition is 0 <= 0"):
            decimal_ldl(mat)
        assert len(seen) == attempts

    def test_gives_up_after_the_last_attempt(self, monkeypatch):
        monkeypatch.setattr(maynard, "_ATTEMPTS", 2)
        with pytest.raises(ConvergenceError, match="in 2 attempts"):
            decimal_ldl(RANK_ONE)


class TestEigen:
    def test_identity_pair(self):
        pair = synthetic_pair([[1, 0], [0, 1]], [[1, 0], [0, 2]])
        lam, vec, _ = maynard._eigen_stage(pair, 1e-9)
        assert lam == pytest.approx(2.0, rel=1e-12)
        assert abs(vec[1]) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal_pair(self):
        pair = synthetic_pair([[2, 0], [0, 1]], [[2, 0], [0, 3]])
        lam, _, _ = maynard._eigen_stage(pair, 1e-9)
        assert lam == pytest.approx(3.0, rel=1e-12)

    def test_random_spd_pair_rayleigh_maximality(self):
        rng = np.random.default_rng(5)
        r1 = rng.integers(-3, 4, size=(5, 5))
        r2 = rng.integers(-3, 4, size=(5, 5))
        a1 = r1 @ r1.T + 5 * np.eye(5, dtype=int)
        a2 = (r2 + r2.T) // 1
        pair = synthetic_pair(a1.tolist(), a2.tolist())
        lam, vec, _ = maynard._eigen_stage(pair, 1e-9)
        witness = [Fraction(float(v)) for v in vec]
        exact = rayleigh_quotient(pair, witness)
        assert float(exact) == pytest.approx(lam, rel=1e-9)
        for _ in range(100):
            probe = [Fraction(float(v)) for v in rng.normal(size=5)]
            assert rayleigh_quotient(pair, probe) <= exact + Fraction(1, 10**12)

    def test_structural_error_on_indefinite_a1(self):
        pair = synthetic_pair([[1, 2], [2, 1]], [[1, 0], [0, 1]])
        with pytest.raises(ConsistencyError):
            maynard._eigen_stage(pair, 1e-9)

    def test_numerically_singular_a1_solves_exactly(self):
        # exactly definite (pivots 1 and 10^-30) but singular in doubles;
        # the exact factor whitens it, so the float solve never sees A1
        tiny = Fraction(1, 10**30)
        pair = synthetic_pair([[1, 1], [1, 1 + tiny]], [[1, 0], [0, 1]])
        assert ldl_pivots(pair.A1) == [1, tiny]
        assert maynard._decimal_ldl(pair.image1)[2] == [1, Decimal("1E-30")]
        lam, vec, _ = maynard._eigen_stage(pair, 1e-9)
        assert lam == pytest.approx(2e30, rel=1e-12)
        exact = rayleigh_quotient(pair, [Fraction(float(v)) for v in vec])
        assert float(exact) == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 12, 13, 14])
    def test_hilbert_pencil(self, n):
        # max (a_1)^2 / a^T H_n a is (H_n^-1)[0][0] = n^2. A float solve
        # of the pencil misses a 1e-9 residual at n = 12 and 13, and its
        # Cholesky of H_n breaks down at n = 14
        hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        e1 = [[int(i == j == 0) for j in range(n)] for i in range(n)]
        pair = synthetic_pair(hilbert, e1)
        lam, vec, residual = maynard._eigen_stage(pair, 1e-9)
        assert lam == pytest.approx(n * n, rel=1e-12)
        assert residual <= 1e-9
        exact = rayleigh_quotient(pair, [Fraction(float(v)) for v in vec])
        assert float(exact) == pytest.approx(n * n, rel=1e-12)


class TestMkLowerBoundPoly:
    def test_k1_is_exactly_one(self):
        for degree in (0, 1, 2, 3):
            cert = mk_lower_bound_poly(1, degree)
            assert abs(cert.lower_bound - 1.0) <= 1e-9
            pair = build_quadratic_forms(1, degree)
            constant = [Fraction(0)] * len(pair.basis)
            constant[0] = Fraction(1)
            assert rayleigh_quotient(pair, constant) == 1

    def test_k5_degree3_exceeds_two(self):
        cert = mk_lower_bound_poly(5, 3)
        assert cert.lower_bound > 2.0
        assert cert.lower_bound == pytest.approx(2.002747193962, abs=1e-9)
        assert cert.residual <= 1e-9

    def test_certificate_self_verifies(self):
        cert = mk_lower_bound_poly(4, 2)
        pair = build_quadratic_forms(4, 2)
        requote = rayleigh_quotient(pair, cert.witness)
        assert requote == cert.exact_value
        assert abs(float(requote) - cert.lower_bound) <= 1e-9 * abs(cert.lower_bound)
        assert Fraction(cert.lower_bound) <= requote  # rounded down, never up

    def test_monotone_in_degree(self):
        bounds = [mk_lower_bound_poly(4, d).lower_bound for d in range(4)]
        assert bounds == sorted(bounds)

    def test_json_round_trip_recertifies(self, capsys):
        # the CLI report alone carries enough to recertify the bound
        assert dispatch(["mk", "poly", "--k", "3", "--degree", "2"]) == 0
        blob = json.loads(capsys.readouterr().out)["result"]
        witness = [Fraction(int(w["num"]), int(w["den"])) for w in blob["witness"]]
        pair = build_quadratic_forms(3, 2)
        value = oracles.exact_rational_requote(pair.A1, pair.A2, witness)
        exact = blob["exact_value"]
        assert value == Fraction(int(exact["num"]), int(exact["den"]))
        assert value == mk_lower_bound_poly(3, 2).exact_value


class TestFormerBreakdowns:
    """Cases on which the float pencil solve exited 3; bounds from the
    whitened solve, each recertified exactly from the report alone."""

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (("mk", "poly", "--k", "2", "--degree", "14"), 1.385933275998194),
            (("mk", "poly", "--k", "400", "--degree", "14"), 4.281099699189973),
            (("--basis-cap", "100", "mk", "poly", "--k", "54", "--degree", "16"),
             3.7012023924449413),
        ],
    )
    def test_exits_0_and_recertifies(self, capsys, argv, bound):
        assert dispatch(list(argv)) == 0
        blob = json.loads(capsys.readouterr().out)["result"]
        assert blob["lower_bound"] == pytest.approx(bound, abs=1e-9)
        witness = [Fraction(int(w["num"]), int(w["den"])) for w in blob["witness"]]
        pair = build_quadratic_forms(blob["k"], blob["degree"], basis_cap=100)
        exact = rayleigh_quotient(pair, witness)
        assert exact == Fraction(int(blob["exact_value"]["num"]), int(blob["exact_value"]["den"]))
        assert Fraction(blob["lower_bound"]) <= exact


class TestGBound:
    def test_flat_g_limit(self):
        # A -> 0 turns g constant: mass-center factor T/2, squared factor T
        p1 = GBoundParams(A=1e-9, T=0.5, k=10, variant="as-printed")
        p2 = GBoundParams(A=1e-9, T=0.5, k=10, variant="ratio-squared")
        gg_corr = 1 - 0.5 / (10 * (1 - 0.05 - p1.mu) ** 2)
        assert mk_lower_bound_g(p1) == pytest.approx(0.25 * gg_corr, rel=1e-6)
        assert mk_lower_bound_g(p2) == pytest.approx(0.5 * gg_corr, rel=1e-6)

    def test_closed_forms_against_quadrature(self):
        for A, T, k in ((0.7, 2.0, 30), (2.5, 4.0, 60), (5.0, 9.0, 200)):
            g = lambda t: 1.0 / (1.0 + A * t)
            gg = quad(lambda t: g(t) ** 2, 0, T)[0]
            tg = quad(lambda t: t * g(t) ** 2, 0, T)[0]
            g1 = quad(g, 0, T)[0]
            mu = tg / gg
            params = GBoundParams(A=A, T=T, k=k, variant="ratio-squared")
            assert params.mu == pytest.approx(mu, rel=1e-9)
            expected = (g1 * g1 / gg) * (1 - T / (k * (1 - T / k - mu) ** 2))
            assert mk_lower_bound_g(params) == pytest.approx(expected, rel=1e-9)

    def test_useless_bound_is_reported_not_raised(self):
        # large A concentrates g near 0, so mu is tiny, the preconditions
        # hold, and the correction factor goes strongly negative
        value = mk_lower_bound_g(GBoundParams(A=50.0, T=4.0, k=5, variant="ratio-squared"))
        assert value <= 0

    def test_preconditions_named(self):
        with pytest.raises(ValidationError, match="mu < 1"):
            mk_lower_bound_g(GBoundParams(A=0.001, T=900.0, k=1000))
        with pytest.raises(ValidationError, match="T < k"):
            mk_lower_bound_g(GBoundParams(A=50.0, T=90.0, k=100))

    def test_optimizer_feasible_at_k2(self):
        A, T, bound = optimize_g_bound(2)
        assert math.isfinite(bound)

    def test_optimizer_monotone_trend(self):
        _, _, b100 = optimize_g_bound(100)
        _, _, b1000 = optimize_g_bound(1000)
        assert b1000 >= b100

    def test_optimizer_reproducible(self):
        assert optimize_g_bound(300) == optimize_g_bound(300)

    def test_growth_target_split_by_variant(self):
        for k in (1000, 10000):
            target = math.log(k) - 2 * math.log(math.log(k)) - 2
            _, _, squared = optimize_g_bound(k, "ratio-squared")
            assert squared > target
            _, _, printed = optimize_g_bound(k, "as-printed")
            assert printed < target  # stays below 1, cannot reach the target


# at a few thousand samples a last-bit change in one row's P1 or P2 still
# reaches the means; k = 2 ends on a partial chunk
_MC_CASES = [
    (1, 2, 20_000), (2, 3, maynard._MC_CHUNK + 1234), (3, 2, 1000), (6, 3, 1000),
    (7, 2, 1000), (8, 2, 1000), (8, 3, 1000), (16, 3, 3000), (170, 2, 20_000),
]


class TestMonteCarlo:
    def test_constant_f_on_triangle(self):
        est = ij_monte_carlo(2, [1.0], 0, 200_000, seed=9)
        assert est.i_value == pytest.approx(0.5, abs=1e-12)
        assert abs(est.j_value - 2.0 / 3.0) <= 3 * est.j_stderr

    def test_zero_coefficients(self):
        est = ij_monte_carlo(3, [0.0] * len(enumerate_basis(2)), 2, 10_000, seed=1)
        assert est.i_value == 0.0 and est.j_value == 0.0

    def test_agrees_with_exact_rayleigh(self):
        cert = mk_lower_bound_poly(3, 2)
        coeffs = [float(c) for c in cert.witness]
        est = ij_monte_carlo(3, coeffs, 2, 2_000_000, seed=20240812)
        ratio = est.j_value / est.i_value
        se = abs(ratio) * math.hypot(
            est.i_stderr / est.i_value, est.j_stderr / est.j_value
        )
        assert abs(ratio - cert.lower_bound) <= 3 * se

    @pytest.mark.parametrize("dim", [*range(18), 169, 170])
    def test_power_sums_equal_row_sums(self, dim):
        # rows of 8 or more entries are where numpy switches to pairwise sums
        p1, p2 = maynard._simplex_power_sums(np.random.default_rng(dim), 2000, dim)
        r1, r2 = oracles.simplex_row_power_sums(np.random.default_rng(dim), 2000, dim)
        assert np.array_equal(p1, r1) and np.array_equal(p2, r2)

    @pytest.mark.parametrize(
        "k,degree,samples,block_entries",
        [
            *(pytest.param(*case, None, id="-".join(map(str, case))) for case in _MC_CASES),
            # block sizes that divide no chunk, and one that makes every
            # chunk a single block
            *(
                pytest.param(*case, entries, id="-".join(map(str, (*case, entries))))
                for case in _MC_CASES
                for entries in (1000, 7919, maynard._MC_CHUNK * 171)
            ),
        ],
    )
    def test_bit_identical_to_row_sums(self, k, degree, samples, block_entries, monkeypatch):
        if block_entries is not None:
            monkeypatch.setattr(maynard, "_MC_BLOCK_ENTRIES", block_entries)
        basis = enumerate_basis(degree)
        coeffs = [(-1) ** i * (1.0 + 0.37 * i) for i in range(len(basis))]
        est = ij_monte_carlo(k, coeffs, degree, samples, seed=11)
        got = (est.i_value, est.j_value, est.i_stderr, est.j_stderr)
        assert got == oracles.ij_monte_carlo_row_sums(k, coeffs, basis, samples, seed=11)

    @pytest.mark.parametrize("a,b,width", [(1, 1, 1), (37, 91, 4), (1000, 7, 9), (5, 3000, 61)])
    def test_split_draws_read_one_stream(self, a, b, width):
        # the estimator draws each chunk in row blocks on the strength of this
        one, two = np.random.default_rng(a + b), np.random.default_rng(a + b)
        whole = one.standard_exponential((a + b, width))
        parts = two.standard_exponential((a, width)), two.standard_exponential((b, width))
        assert np.array_equal(whole, np.concatenate(parts))
        assert np.array_equal(one.random(a + b), np.concatenate([two.random(a), two.random(b)]))
        # and draws J's U2 beside U1 from a copy advanced past U1's draws
        three = np.random.default_rng(a + b)
        ahead = copy.deepcopy(three)
        ahead.bit_generator.advance(a)
        assert np.array_equal(ahead.random(b), three.random(a + b)[a:])

    @pytest.mark.parametrize("rows", [1, 8, 127, 128, 129, 766, 2**17])
    def test_pairwise_sum_is_numpy_sum(self, rows):
        # guards the assumption that the weight sums rest on: numpy sums a
        # contiguous float64 array pairwise, as the sum of its halves split at
        # n // 2 rounded down to a multiple of 8 above 128 entries
        rng = np.random.default_rng(rows)
        x = rng.standard_normal(10**6) * 10.0 ** rng.integers(-8, 9, 10**6)
        reordered = 0
        for n in [*range(1, 1001), 10**6 - 1, 10**6]:
            v, leaves = x[:n], []

            def leaf(lo, hi):
                leaves.append((lo, hi))
                return v[lo:hi].sum()

            assert maynard._pairwise_sum(leaf, n, rows) == v.sum()
            assert [lo for lo, _ in leaves] == [0, *(hi for _, hi in leaves[:-1])]
            assert leaves[-1][1] == n and max(hi - lo for lo, hi in leaves) <= max(rows, 128)
            reordered += np.cumsum(v)[-1] != v.sum()
        assert reordered  # a left-to-right sum differs somewhere, so the test has teeth

    @pytest.mark.parametrize("k", [3, 40, 170])
    def test_memory_does_not_grow_with_k(self, k):
        # two chunk-length buffers (15.3 MiB) and blocks of about 1 MiB at
        # every k. With the collector off, a reference cycle through the leaf
        # closures would keep both buffers alive after the call.
        gc.disable()
        tracemalloc.start()
        try:
            ij_monte_carlo(k, [1.0, -0.5, 0.25, 0.75], 2, 1_000_000, seed=1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak < 24 * 2**20 and current < 2**20

    def test_combo_multiplies_each_term_left_to_right(self):
        # every seeded report depends on the product order, c (1-P1)^a P2^b
        rng = np.random.default_rng(3)
        p1, p2 = rng.random(4096), rng.random(4096) / 3
        basis = enumerate_basis(6)
        coeffs = [0.0 if i % 5 == 0 else rng.normal() for i in range(len(basis))]
        want = np.zeros_like(p1)
        for c, (a, b) in zip(coeffs, basis):
            if c != 0.0:
                term = np.full_like(p1, c)
                if a:
                    term = term * (1.0 - p1) ** a
                if b:
                    term = term * p2**b
                want += term
        assert np.array_equal(maynard._eval_combo(coeffs, basis, p1, p2), want)

    @pytest.mark.parametrize("degree", [2, 2**31, 2**63])
    def test_coefficients_counted_before_listing(self, monkeypatch, degree):
        def unreachable(degree):
            raise AssertionError("basis listed")

        monkeypatch.setattr(maynard, "enumerate_basis", unreachable)
        with pytest.raises(ValidationError, match=f"^need {basis_size(degree)} coefficients, got 1$"):
            ij_monte_carlo(3, [1.0], degree, 1000, seed=0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ij_monte_carlo(2, [1.0], 0, 10, seed=0)
        with pytest.raises(ValidationError):
            ij_monte_carlo(2, [1.0, 2.0], 0, 10_000, seed=0)
        for c in (math.nan, math.inf, 1e200):
            with pytest.raises(ValidationError):
                ij_monte_carlo(2, [c], 0, 10_000, seed=0)


class TestInference:
    def test_strictness_table(self):
        # the chain's inference is the strict test M_k bound > 2m/theta
        assert 4.01 > maynard._dhl_threshold(0.5, 1)
        assert 2.1 > maynard._dhl_threshold(1.0, 1)
        assert not 4.0 > maynard._dhl_threshold(0.5, 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            maynard._dhl_threshold(0.0, 1)
        with pytest.raises(ValidationError):
            maynard._dhl_threshold(1.5, 1)
        with pytest.raises(ValidationError):
            maynard._dhl_threshold(0.5, 0)
        with pytest.raises(ValidationError, match="overflows a double"):
            maynard._dhl_threshold(0.5, 10**309)
        with pytest.raises(ValidationError, match="overflows a double"):
            maynard._dhl_threshold(1e-308, 1)

    def test_chain_k5_conditional(self):
        tup = greedy_narrow_tuple(5, 16)
        report = gap_bound_chain(5, 3, 1.0, 1, tup)
        assert report.dhl_holds is True
        assert report.claimed_gap_bound == tup.diameter == 14
        assert report.failing_inequality is None

    def test_chain_failure_reports_inequality(self):
        tup = greedy_narrow_tuple(5, 16)
        report = gap_bound_chain(5, 3, 0.5, 1, tup)  # needs M_5 > 4
        assert report.dhl_holds is False
        assert report.claimed_gap_bound is None
        assert "does not strictly exceed" in report.failing_inequality

    def test_chain_checks_threshold_before_solve(self, monkeypatch):
        # an m past the doubles once raised OverflowError after the solve
        def no_solve(*args, **kwargs):
            raise AssertionError("the M_k solve ran")

        monkeypatch.setattr("primelab.maynard.mk_lower_bound_poly", no_solve)
        with pytest.raises(ValidationError, match="overflows a double"):
            gap_bound_chain(5, 3, 0.5, 10**309, greedy_narrow_tuple(5, 16))

    def test_chain_rejects_inadmissible_tuple(self):
        fake = AdmissibleTuple(offsets=(0, 2, 4), certificate={})
        with pytest.raises(ValidationError):
            gap_bound_chain(3, 2, 0.5, 1, fake)
