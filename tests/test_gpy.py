import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from primelab import gpy, sieve
from primelab.errors import CapacityError, ConsistencyError, ValidationError
from primelab.gpy import (
    GpyParams,
    ZHANG_LEVEL_EXPONENT,
    _class_counts,
    _direct_weight_blocks,
    _lambda_table,
    _power_floor,
    _residues,
    _row_fsums,
    error_sum_E,
    lambda_d,
    level_of_distribution_sum,
    remainder_R,
    residue_set_C,
    weighted_sums,
)
from primelab.sieve import DEFAULT_RANGE_CAP, _simple_prime_array, mangoldt_range
from primelab.tuples import is_admissible

TUPLE_026 = is_admissible([0, 2, 6])
TUPLE_02 = is_admissible([0, 2])


def params_026(x=10**4, b=0.25, l=1):
    return GpyParams(k=3, l=l, b=b, x=x, tuple=TUPLE_026)


class TestParams:
    def test_d_limit(self):
        assert params_026().D_limit == 10
        assert params_026(x=10**4, b=0.2).D_limit == 6

    @pytest.mark.parametrize(
        "x,b,expected",
        [
            # the float x**0.25 rounds 157529609999**0.25 up to 630.0
            (630**4 - 1, 0.25, 629),
            (630**4, 0.25, 630),
            (10**5, 0.25, 17),
            (2**35 - 1, 0.2, 127),
            (2**35, 0.2, 128),
        ],
    )
    def test_d_limit_exact_at_perfect_powers(self, x, b, expected):
        assert params_026(x=x, b=b).D_limit == expected

    @pytest.mark.parametrize(
        "x,b,expected",
        [
            # d < x^(2b) for error_sum_E: the float ceil gave 1500625 and 1889568
            (35**5, 2 * 0.4, 35**4 - 1),
            (18**6, 2 * (5 / 12), 18**5 - 1),
            (35**5 + 1, 2 * 0.4, 35**4),
            (100, 2 * 0.25, 9),
        ],
    )
    def test_strict_power_floor_at_perfect_powers(self, x, b, expected):
        assert _power_floor(x, b, strict=True) == expected

    def test_zhang_constant(self):
        assert ZHANG_LEVEL_EXPONENT == pytest.approx(0.25 + 1 / 1168, abs=0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            GpyParams(k=3, l=1, b=0.5, x=10**4, tuple=TUPLE_026)
        with pytest.raises(ValidationError):
            GpyParams(k=3, l=0, b=0.25, x=10**4, tuple=TUPLE_026)
        with pytest.raises(ValidationError):
            GpyParams(k=2, l=1, b=0.25, x=10**4, tuple=TUPLE_026)

    @pytest.mark.parametrize("x", [DEFAULT_RANGE_CAP + 1, 10**309])
    def test_x_past_cap(self, monkeypatch, x):
        # x**b in D_limit overflowed a double at 10**309, and error_sum_E
        # listed the von Mangoldt support of [x, 2x) first
        def unreachable(*args):
            raise AssertionError("table built")

        monkeypatch.setattr(gpy, "mangoldt_range", unreachable)
        monkeypatch.setattr(gpy, "primes_between", unreachable)
        params = GpyParams(k=3, l=1, b=0.25, x=x, tuple=TUPLE_026)
        for run in (weighted_sums, error_sum_E):
            with pytest.raises(CapacityError, match=f"^x = {x} exceeds the cap of {DEFAULT_RANGE_CAP} integers$"):
                run(params)


class TestLambdaD:
    def test_d1(self):
        p = params_026()
        expected = (p.b * math.log(p.x)) ** (p.k + p.l) / math.factorial(p.k + p.l)
        assert lambda_d(1, p) == pytest.approx(expected, rel=1e-15)

    def test_squarefull_vanishes(self):
        assert lambda_d(4, params_026()) == 0.0
        assert lambda_d(8, params_026()) == 0.0
        assert lambda_d(9, params_026()) == 0.0

    def test_top_divisor_with_integral_power(self):
        # x^b = 10 exactly, so log(x^b / 10) = 0 and the weight vanishes
        assert lambda_d(10, params_026()) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            lambda_d(11, params_026())
        with pytest.raises(ValidationError):
            lambda_d(0, params_026())

    @given(st.integers(1, 10))
    @settings(max_examples=10, deadline=None)
    def test_matches_slow_oracle(self, d):
        p = params_026()
        assert lambda_d(d, p) == pytest.approx(
            oracles.lambda_slow(d, p.x, p.b, p.k, p.l), rel=1e-15, abs=1e-300
        )


def direct_weights(p, lo, hi, block=1 << 16):
    """{n: f(n)} for n in [lo, hi) from the vectorised direct scan."""
    return {
        n: f
        for ns, fs in _direct_weight_blocks(p, _lambda_table(p), lo, hi, block)
        for n, f in zip(ns.tolist(), fs.tolist())
    }


class TestFWeight:
    # f_weight is the scalar oracle; the direct scan's weights must equal it
    def test_single_divisor_collapse(self):
        p = GpyParams(k=2, l=1, b=0.05, x=1000, tuple=TUPLE_02)
        assert p.D_limit == 1
        lam1 = lambda_d(1, p)
        fs = direct_weights(p, 1000, 2000)
        for n in (1000, 1500, 1999):
            assert fs[n] == oracles.f_weight(n, p) == lam1 * lam1

    def test_nonnegative(self):
        p = params_026()
        fs = direct_weights(p, 10**4, 10**4 + 50)
        for n in range(10**4, 10**4 + 50):
            assert fs[n] == oracles.f_weight(n, p)
            assert fs[n] >= 0.0

    def test_against_brute_force(self):
        p = params_026()
        fs = direct_weights(p, 10**4, 2 * 10**4)
        # fixed stride covers varied residue patterns without RNG noise
        for n in range(10**4 + 7, 2 * 10**4, 397):
            expected = oracles.f_weight_slow(n, p.x, p.b, p.tuple.offsets, p.l)
            assert fs[n] == oracles.f_weight(n, p)
            assert fs[n] == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            oracles.f_weight(5, params_026())

    @pytest.mark.parametrize(
        "offsets,x,b,l,lo,hi",
        [
            ((0, 2, 6), 10**4, 0.25, 1, 10**4, 2 * 10**4),
            ((-2, 0), 100, 0.25, 1, 100, 200),
            ((-6, -4, 0), 1000, 0.3, 2, 1000, 2000),
            ((-8, -6, -2), 5000, 0.33, 1, 9000, 10000),
            ((0, 4, 6, 10, 12), 10**5, 0.25, 1, 10**5, 10**5 + 3000),
            # D = 396 with 78 primes <= D: the prime sets span two words
            ((0, 2, 6), 2 * 10**5, 0.49, 1, 2 * 10**5, 2 * 10**5 + 600),
            # after sorting, n = 370281 sits beside an n whose set shares
            # word 0 and differs in word 1: the group boundary needs both words
            ((0, 2, 6), 2 * 10**5, 0.49, 1, 370235, 370235 + 97),
        ],
    )
    def test_direct_scan_equals_oracle(self, offsets, x, b, l, lo, hi):
        tup = is_admissible(list(offsets))
        p = GpyParams(k=tup.k, l=l, b=b, x=x, tuple=tup)
        # a block size that splits the range, so sets recur across blocks
        fs = direct_weights(p, lo, hi, block=97)
        assert list(fs) == list(range(lo, hi))
        for n, f in fs.items():
            assert f == oracles.f_weight(n, p), n

    def test_more_than_64_primes(self):
        p = GpyParams(k=3, l=1, b=0.49, x=2 * 10**5, tuple=TUPLE_026)
        assert _simple_prime_array(p.D_limit).size > 64


class TestRowFsums:
    @given(
        st.lists(
            st.lists(st.sampled_from([0.0, 1.0, 1e-16, -1e-16, 3.7, 2.0**-60, 1e300]), min_size=5, max_size=5),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_fsum_per_row(self, rows):
        sums = _row_fsums(np.array(rows, dtype=np.float64).reshape(len(rows), 5))
        assert sums.tolist() == [math.fsum(row) for row in rows]

    def test_three_terms_take_fsum(self):
        # (1 + 1e-16) + 1e-16 rounds twice to 1.0; fsum gives the next double
        assert _row_fsums(np.array([[1.0, 1e-16, 1e-16]]))[0] == math.fsum([1.0, 1e-16, 1e-16]) > 1.0


class TestWeightedSums:
    def test_single_divisor_closed_form(self):
        p = GpyParams(k=2, l=1, b=0.05, x=1000, tuple=TUPLE_02)
        rep = weighted_sums(p)
        lam1 = lambda_d(1, p)
        assert rep.S1 == pytest.approx(lam1**2 * 1000, rel=1e-12)
        assert rep.objective == rep.S2 - rep.S1

    def test_direct_and_rearranged_agree(self):
        # agreement is asserted inside; any disagreement raises
        rep = weighted_sums(params_026())
        assert rep.D_limit == 10
        assert rep.S1 > 0
        assert rep.S2_theta > rep.S2  # log n > 1 weighting dominates counting

    @pytest.mark.parametrize("offsets", [(-2, 0), (-6, -4, 0), (-8, -6, -2)])
    def test_negative_offsets_match_brute_force(self, offsets):
        # n + h with h < 0 once read bits from before the sieved window
        tup = is_admissible(list(offsets))
        p = GpyParams(k=tup.k, l=1, b=0.25, x=100, tuple=tup)
        rep = weighted_sums(p)
        fs = {n: oracles.f_weight_slow(n, p.x, p.b, offsets, p.l) for n in range(100, 200)}
        S2 = math.fsum(
            fs[n] * sum(oracles.trial_division_is_prime(n + h) for h in offsets)
            for n in fs
        )
        assert rep.S1 == pytest.approx(math.fsum(fs.values()), rel=1e-12)
        assert rep.S2 == pytest.approx(S2, rel=1e-12)

    def test_window_below_zero_rejected(self):
        tup = is_admissible([-200, 0])
        with pytest.raises(ValidationError, match="x \\+ h_1 >= 0"):
            weighted_sums(GpyParams(k=2, l=1, b=0.25, x=100, tuple=tup))

    @pytest.mark.parametrize(
        "offsets,message",
        [
            ((0, 2, 6), "S1 disagree: 443627.8244299498 vs 443627.82442994986"),
            ((0, 4, 6, 10, 12), "S2_theta disagree: 290568.31355517724 vs 290568.31355517695"),
        ],
    )
    def test_rearranged_bits_pinned(self, offsets, message):
        # with no tolerance the message quotes both sides' exact reprs
        tup = is_admissible(list(offsets))
        p = GpyParams(k=tup.k, l=1, b=0.25, x=10**5, tuple=tup)
        with pytest.raises(ConsistencyError) as info:
            weighted_sums(p, rel_tol=0.0)
        assert str(info.value) == f"direct and rearranged {message}"

    def test_rearranged_memory_bounded_by_largest_modulus(self):
        # per-modulus class tables, not one per (modulus, offset) at once
        p = params_026(b=0.45)
        tracemalloc.start()
        try:
            weighted_sums(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_table_spans_only_the_offsets_read(self, monkeypatch):
        # the primality table covers only [x + h_1, 2x + h_k], the n + h read:
        # x + (h_k - h_1) + 1 integers, not the h_1 below x + h_1 as well
        x, h = 319, 28691795
        kernel, sieved = sieve._odd_segments, []

        def spy(lo, hi, segment_size, **kwargs):
            if (lo, segment_size) != (0, hi):  # not a base primes' one-segment table
                sieved.append(hi - lo)
                assert sum(sieved) <= x + 1
            return kernel(lo, hi, segment_size, **kwargs)

        monkeypatch.setattr(sieve, "_odd_segments", spy)
        rep = weighted_sums(GpyParams(k=1, l=106, b=0.25, x=x, tuple=is_admissible([h])), segment_size=100)
        assert sum(sieved) == x + 1
        assert repr(rep) == (
            "GpyReport(S1=1.994052463520879e-308, S2=1.25018963230149e-309, "
            "objective=-1.86903350029073e-308, S2_theta=2.146842817717132e-308, D_limit=4)"
        )

    @pytest.mark.parametrize(
        "x,report",
        [
            (10**5, "S1=443627.8244299498, S2=169473.68348451608, objective=-274154.14094543376, "
                    "S2_theta=2016096.1504431278, D_limit=17"),
            (10**6, "S1=14451467.894253867, S2=5305675.958345236, objective=-9145791.93590863, "
                    "S2_theta=75334937.64656685, D_limit=31"),
        ],
        ids=["1e5", "1e6"],
    )
    def test_direct_sums_stream_in_bounded_memory(self, x, report):
        # each block's terms go into exact sums: lists of x floats would
        # trace about 50 MiB at 10^6, the exact sums about 9.4 MiB
        tracemalloc.start()
        try:
            rep = weighted_sums(params_026(x=x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert repr(rep) == f"GpyReport({report})"
        assert peak < 16 * 2**20

    @pytest.mark.slow
    def test_objective_sign_exploration(self):
        # exploratory scan; only internal consistency is asserted
        for x in (10**4, 10**5):
            for b in (0.2, 0.3):
                if b >= 0.5:
                    continue
                rep = weighted_sums(
                    GpyParams(k=3, l=1, b=b, x=x, tuple=TUPLE_026)
                )
                assert math.isfinite(rep.objective)


class TestResidueSetC:
    def test_degenerate_modulus(self):
        assert residue_set_C(1, 1, TUPLE_026) == frozenset({1})

    def test_two_with_twin_tuple(self):
        assert residue_set_C(1, 2, TUPLE_02) == frozenset()

    def test_brute_force_small(self):
        for d in range(1, 51):
            if oracles.mobius_slow(d) == 0:
                continue
            for i in (1, 2, 3):
                got = residue_set_C(i, d, TUPLE_026)
                want = oracles.residue_set_slow(i, d, TUPLE_026.offsets)
                assert set(got) == want, (i, d)

    @pytest.mark.slow
    def test_brute_force_to_thousand(self):
        for d in range(1, 1001):
            if oracles.mobius_slow(d) == 0:
                continue
            got = residue_set_C(1, d, TUPLE_026)
            want = oracles.residue_set_slow(1, d, TUPLE_026.offsets)
            assert set(got) == want, d

    def test_validation(self):
        with pytest.raises(ValidationError):
            residue_set_C(0, 5, TUPLE_026)
        with pytest.raises(ValidationError):
            residue_set_C(1, 4, TUPLE_026)


class TestRemainderR:
    def test_modulus_one_is_small_relative_to_x(self):
        assert abs(remainder_R(10**6, 1, 1)) <= 0.05 * 10**6

    def test_modulus_two(self):
        value = remainder_R(10**4, 2, 1)
        assert abs(value) <= 0.1 * 10**4 / 1  # phi(2) = 1

    def test_matches_direct_scan(self):
        for d, c in ((1, 1), (2, 1), (3, 2), (6, 5)):
            assert remainder_R(2000, d, c) == oracles.remainder_slow(2000, d, c)

    def test_class_sum_identity(self):
        # summing R over invertible classes leaves the coprime log sum minus x
        x, d = 10**4, 6
        support = mangoldt_range(x, 2 * x)
        total = math.fsum(
            remainder_R(x, d, c, support=support) for c in (1, 5)
        )
        ns, ps, _ = support
        coprime_mass = math.fsum(
            math.log(p) for n, p in zip(ns.tolist(), ps.tolist()) if math.gcd(n, d) == 1
        )
        assert total == pytest.approx(coprime_mass - x, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            remainder_R(10**4, 6, 2)  # gcd(2, 6) > 1
        with pytest.raises(ValidationError):
            remainder_R(10**4, 6, 7)  # outside [1, d]


class TestErrorSum:
    def test_single_term_when_range_collapses(self):
        p = GpyParams(k=3, l=1, b=0.05, x=100, tuple=TUPLE_026)
        assert error_sum_E(p) == abs(remainder_R(100, 1, 1))

    def test_matches_brute_force_exactly(self):
        p = params_026(b=0.2)
        assert error_sum_E(p) == oracles.error_sum_slow(p.x, p.b, TUPLE_026.offsets)

    def test_monotone_in_b(self):
        assert error_sum_E(params_026(b=0.15)) <= error_sum_E(params_026(b=0.2))

    def test_index_parameter(self):
        values = {i: error_sum_E(params_026(b=0.2), i=i) for i in (1, 2, 3)}
        assert all(v >= 0 for v in values.values())

    @pytest.mark.slow
    def test_normalized_decay(self):
        ratios = []
        for x in (10**4, 10**5, 10**6):
            p = GpyParams(k=3, l=1, b=0.2, x=x, tuple=TUPLE_026)
            ratios.append(error_sum_E(p) / x)
        assert ratios[0] > ratios[1] > ratios[2]


class TestLevelOfDistribution:
    def test_first_modulus_contributes_nothing(self):
        assert level_of_distribution_sum(100, 0.1) == 0.0

    def test_second_modulus_contributes_one(self):
        # E_2 = 1: the prime 2 sits in the non-invertible class
        assert level_of_distribution_sum(100, 0.2) == 1.0

    def test_weighted_variant_runs(self):
        assert level_of_distribution_sum(100, 0.1, weighted=True) == 0.0
        assert level_of_distribution_sum(10**4, 0.3, weighted=True) > 0.0

    @pytest.mark.slow
    def test_normalized_decay(self):
        values = [
            level_of_distribution_sum(x, 0.4) / x for x in (10**5, 10**6)
        ]
        assert values[0] > values[1]

    @pytest.mark.parametrize("x", [100, 123457, 3 * 10**6])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_narrow_residues_equal_int64(self, x, weighted):
        # residues are taken in the narrowest unsigned type holding x
        got = level_of_distribution_sum(x, 0.4, weighted=weighted)
        want = oracles.level_of_distribution_sum_int64(x, 0.4, weighted)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("theta", [0.3, 0.5])  # q_max = 31 and 316
    @pytest.mark.parametrize("weighted", [False, True])
    def test_folded_counts_equal_int64(self, theta, weighted):
        # counts mod q <= q_max / 2 are folded from counts mod 2q; the
        # weighted sums keep one bincount per q
        got = level_of_distribution_sum(10**5, theta, weighted=weighted)
        want = oracles.level_of_distribution_sum_int64(10**5, theta, weighted)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_memory_bounded_by_one_count_array(self, weighted):
        # q_max = 3162: holding the counts of every even q above q_max / 2
        # until q / 2 folds them took about 15 MB; one array at a time
        # stays under 1 MB beside the 9,592 primes
        tracemalloc.start()
        try:
            level_of_distribution_sum(10**5, 0.7, weighted=weighted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "size,q_max",
        [
            # q_max * (q_max - 1) = size - 1, size, size + 1: the pair (392, 391)
            # shares one pass on the first two, and the third leaves 392 alone
            (392 * 391 + 1, 392),
            (392 * 391, 392),
            (392 * 391 - 1, 392),
            # an odd number of moduli above q_max / 2 (3..5, 4..6, 21..41, 1),
            # past the cap at the top of 21..41 and under it lower down
            (1000, 5),
            (1000, 6),
            (10**4, 41),
            (5, 1),
            (6, 3),
        ],
    )
    @pytest.mark.parametrize("weighted", [False, True])
    def test_class_counts_equal_a_bincount_per_modulus(self, size, q_max, weighted):
        ns = np.random.default_rng(size).integers(0, 3 * 10**6, size=size).astype(np.uint32)
        weights = np.random.default_rng(q_max).random(size) if weighted else None
        seen = []
        for q, per_class in _class_counts(ns, q_max, weights):
            want = np.bincount(ns % q, weights=weights, minlength=q)
            assert per_class.dtype == want.dtype and np.array_equal(per_class, want), q
            seen.append(q)
        assert sorted(seen) == list(range(1, q_max + 1))

    def test_class_counts_on_the_primes_to_3e6(self):
        # q_max = 392: every pair of moduli above 196 shares a pass over the
        # 216,816 primes
        ns = _simple_prime_array(3 * 10**6).astype(np.uint32)
        q_max = int((3 * 10**6) ** 0.4 + 1e-9)
        assert q_max * (q_max - 1) <= ns.size
        seen = {q: per_class for q, per_class in _class_counts(ns, q_max, None)}
        assert sorted(seen) == list(range(1, q_max + 1))
        for q, per_class in seen.items():
            assert np.array_equal(per_class, np.bincount(ns % q, minlength=q)), q

    @pytest.mark.parametrize("x", [100, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**64 - 1])
    def test_residues_equal_mod(self, x):
        # each dtype np.min_scalar_type picks for an x >= 100, up to its maximum
        dtype = np.min_scalar_type(x)
        top = int(np.iinfo(dtype).max)
        for q in (1, 2, 3, 7, 97, 100, x // 3, x - 1, x):
            # multiples of q, their neighbours, and the top of the dtype
            near = {m * q + e for m in (0, 1, 2, top // q) for e in (-1, 0, 1)} | {top - 1, top}
            small = list(range(min(top, 5000) + 1))
            ns = np.array(sorted(v for v in near if 0 <= v <= top) + small, dtype=dtype)
            out = np.empty_like(ns)
            assert _residues(ns, q, out) is out
            assert np.array_equal(out, ns % q), (x, q)

    def test_validation(self):
        with pytest.raises(ValidationError):
            level_of_distribution_sum(10, 0.4)
        with pytest.raises(ValidationError):
            level_of_distribution_sum(1000, 1.5)
