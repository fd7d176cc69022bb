import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from primelab import sieve
from primelab.errors import CapacityError, EmptyRangeError, ValidationError
from primelab.sieve import (
    DEFAULT_RANGE_CAP,
    _omega_blocks,
    _simple_prime_array,
    gap_scan,
    iter_prime_segments,
    mangoldt_range,
    prime_count,
    primes_between,
    primorial,
    sieve_range,
)

# primes p with p**2 - 1 <= 5000
_SMALL_PRIMES = [p for p in range(2, 71) if oracles.trial_division_is_prime(p)]
# near 10**12 the base primes reach 10**6, past every small segment
_NEAR_1E12 = st.integers(min_value=10**12, max_value=10**12 + 10**6)
# 3163 is the first prime above sqrt(10**7); 999983 the last below 10**6
_SQUARES = [p * p + e for p in (3, 1009, 3163, 999983) for e in (-1, 0, 1)]
# integers in one period of the wheel pattern: 2 * 3 * 5 * 7 * 11 * 13
_WHEEL_SPAN = 30030


class TestSieveRange:
    def test_small_range(self):
        table = sieve_range(0, 11)
        assert table.primes().tolist() == [2, 3, 5, 7]

    def test_empty_prefix(self):
        table = sieve_range(0, 2)
        assert table.primes().tolist() == []

    def test_high_window_against_trial_division(self):
        lo, hi = 10**8 - 100, 10**8
        table = sieve_range(lo, hi)
        for n in range(lo, hi):
            assert table.primality[n - lo] == oracles.trial_division_is_prime(n), n

    def test_segmentation_is_invisible(self):
        # same range, very different segment sizes, identical bits
        a = sieve_range(0, 10**5, segment_size=257)
        b = sieve_range(0, 10**5, segment_size=1 << 20)
        assert np.array_equal(a.primality, b.primality)

    def test_matches_unsegmented_oracle(self):
        table = sieve_range(0, 10**5, segment_size=4096)
        assert np.array_equal(table.primality, oracles.simple_sieve_bits(10**5))

    def test_capacity_error(self):
        # raised before the table is allocated
        with pytest.raises(CapacityError, match=f"exceeds the cap of {DEFAULT_RANGE_CAP}"):
            sieve_range(0, DEFAULT_RANGE_CAP + 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            sieve_range(5, 5)
        with pytest.raises(ValidationError):
            sieve_range(-1, 10)



class TestSegmentKernel:
    """The segments, concatenated, against a one-slice-per-prime oracle.

    Each segment starts from the wheel pattern, which clears the odd
    multiples of 3..13 with a period of 30,030 integers; only base primes
    above 13 strike. Segment sizes below 544 send all of those through the
    next-multiple array; larger ones split them between the strided slices
    (p <= segment_size // 32) and that array.
    """

    @given(
        st.one_of(st.integers(min_value=0, max_value=10**7), _NEAR_1E12),
        st.integers(min_value=1, max_value=3 * 10**4),
        st.one_of(
            st.integers(min_value=1, max_value=7),
            st.integers(min_value=1, max_value=70000),
            st.sampled_from([1 << e for e in range(17)]),
        ),
    )
    @settings(max_examples=100, deadline=None)
    @example(0, 1, 1)
    @example(0, 3, 1)
    @example(1, 30, 2)
    @example(2, 100, 7)
    @example(3, 5000, 8)
    @example(0, 30000, 64)
    @example(999983 * 999983 - 1, 300, 5)
    # one-integer segments at even and odd seg_lo: [8, 9), [7, 8), [6, 7), ...
    @example(4, 5, 2)
    @example(3, 5, 2)
    @example(1, 10, 1)
    # [2, 3): the prime 2 has no odd slot
    @example(2, 1, 1)
    @example(2, 1, 7)
    # 17, the first base prime that strikes, enters the slice tier at segment 544
    @example(0, 30000, 543)
    @example(0, 30000, 544)
    @example(0, 30000, 545)
    @example(10**6 + 1, 30000, 544)
    # at 2^16 the tiers split at 2048: base primes 2039 and 2053 both strike
    @example(2053 * 2053 - 10000, 30000, 1 << 16)
    # slice primes whose p^2 lies beyond the first segments
    @example(0, 10**6, 4096)
    def test_matches_slow_oracle(self, lo, span, segment_size):
        self._check(lo, lo + span, segment_size)

    @pytest.mark.parametrize("segment_size", [1 << 12, 1 << 16, 1 << 20])
    def test_bucket_heavy_window(self, segment_size):
        # base primes reach 1.16e6: nearly all strike through the buckets
        lo = 1346294310749 - 10**5
        self._check(lo, lo + 10**6, segment_size)

    @pytest.mark.parametrize("square", _SQUARES)
    @pytest.mark.parametrize("segment_size", [3, 8, 1000, 1 << 16])
    def test_square_boundaries(self, square, segment_size):
        # lo or hi at p^2 - 1, p^2, p^2 + 1: p enters the base primes, or
        # its first strike lands on the range's first or last integer
        self._check(square, square + 2000, segment_size)
        self._check(max(square - 2000, 0), square, segment_size)

    @pytest.mark.parametrize("segment_size", [_WHEEL_SPAN - 1, _WHEEL_SPAN, _WHEEL_SPAN + 1, 5 * _WHEEL_SPAN + 1])
    @pytest.mark.parametrize("lo", [0, 3 * _WHEEL_SPAN - 1])
    def test_segments_near_the_wheel_period(self, lo, segment_size):
        # the pattern is tiled from one period, then doubled, at every
        # offset; a segment of five periods and one integer doubles thrice
        self._check(lo, lo + 11 * _WHEEL_SPAN + 7, segment_size)

    @pytest.mark.parametrize("segment_size", [1, 2, 7, 17, 33, 4096, 1 << 20])
    @pytest.mark.parametrize("m", [_WHEEL_SPAN, 17 * _WHEEL_SPAN, 33300033 * _WHEEL_SPAN])
    @pytest.mark.parametrize("e", [-1, 0, 1])
    def test_lo_at_wheel_multiples(self, m, e, segment_size):
        # the range starts just before, at and just after a period's start
        self._check(m + e, m + e + 3000, segment_size)

    @pytest.mark.parametrize("segment_size", [1, 2, 3, 9, 33, 34, 1 << 20])
    @pytest.mark.parametrize("lo,hi", [(0, 19), (0, 2), (2, 3), (0, 3), (3, 18)])
    def test_wheel_primes_and_one(self, lo, hi, segment_size):
        # the wheel primes 3..13 are set back to prime, the slot of 1 cleared
        self._check(lo, hi, segment_size)

    @staticmethod
    def _check(lo, hi, segment_size):
        segments = list(iter_prime_segments(lo, hi, segment_size))
        assert [seg_lo for seg_lo, _ in segments] == list(range(lo, hi, segment_size))
        for seg_lo, primes in segments:
            assert primes.dtype == np.int64
            assert np.all(np.diff(primes) > 0)
            seg_hi = min(seg_lo + segment_size, hi)
            assert primes.size == 0 or seg_lo <= primes[0] <= primes[-1] < seg_hi
        got = np.concatenate([primes for _, primes in segments])
        want = np.flatnonzero(oracles.segment_bits_slow(lo, hi)) + lo
        assert np.array_equal(got, want), (lo, hi, segment_size)

    @pytest.mark.parametrize(
        "lo,hi,segment_size",
        [(0, 2**32, 2**32), (0, DEFAULT_RANGE_CAP + 1, 2**40), (10**15, 10**15 + 2**31, 2**31)],
    )
    def test_segment_past_cap_raises_before_allocating(self, monkeypatch, lo, hi, segment_size):
        # a 2^32 segment once asked numpy for 2 GiB; the base primes are
        # the kernel's first allocation, so the check must come before them
        def unreachable(limit):
            raise AssertionError("base primes allocated")

        monkeypatch.setattr(sieve, "_simple_prime_array", unreachable)
        with pytest.raises(CapacityError, match=f"integers exceeds the cap of {DEFAULT_RANGE_CAP}"):
            next(sieve._odd_segments(lo, hi, segment_size))

    def test_simple_prime_array(self):
        for n in range(5001):
            want = np.flatnonzero(oracles.simple_sieve_bits(n + 1))
            assert np.array_equal(_simple_prime_array(n), want), n


class TestPrimeCount:
    @pytest.mark.parametrize("x,expected", [(10, 4), (1, 0), (2, 1), (0, 0)])
    def test_small(self, x, expected):
        assert prime_count(x) == expected

    def test_million(self):
        assert prime_count(10**6) == oracles.simple_prime_count(10**6) == 78498

    @pytest.mark.parametrize("x", [0, 1, 2, 3, 4] + [p * p + e for p in (3, 5, 31, 97) for e in (-1, 1)])
    @pytest.mark.parametrize("segment_size", [1, 2, 7, 1 << 20])
    def test_odd_bit_count(self, x, segment_size):
        # counted from the odd slots, plus one for 2
        assert prime_count(x, segment_size=segment_size) == oracles.simple_prime_count(x)

    @pytest.mark.parametrize("segment_size", [0, -5])
    def test_non_positive_segment_size_rejected(self, segment_size):
        # -5 once returned the uninitialised sieve buffer as a count of 0
        with pytest.raises(ValidationError, match="segment_size must be >= 1"):
            prime_count(10**6, segment_size=segment_size)
        with pytest.raises(ValidationError, match="segment_size must be >= 1"):
            next(iter_prime_segments(0, 100, segment_size))
        with pytest.raises(ValidationError, match="segment_size must be >= 1"):
            sieve_range(0, 10**6, segment_size=segment_size)

    @given(st.integers(min_value=2, max_value=3000))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing_and_popcount(self, x):
        assert prime_count(x) >= prime_count(x - 1)
        lo = x // 2
        table = sieve_range(lo, x)
        assert table.primes().size == prime_count(x - 1) - prime_count(lo - 1)


class TestArithTables:
    def test_mobius_examples(self):
        t = oracles.arith_tables(30)
        assert t.mobius[1] == 1
        assert t.mobius[4] == 0
        assert t.mobius[30] == -1

    def test_mangoldt_examples(self):
        ns, ps, ms = mangoldt_range(2, 11)
        support = {int(n): (int(p), int(m)) for n, p, m in zip(ns, ps, ms)}
        assert support[8] == (2, 3)
        assert 6 not in support
        # Lambda(8) = log 2, Lambda(6) = 0
        assert math.log(support[8][0]) == math.log(2)
        assert support == oracles.prime_powers_slow(2, 11)

    def test_omega_phi_examples(self):
        t = oracles.arith_tables(12)
        assert t.omega[12] == 2
        assert t.totient[12] == 4

    def test_against_slow_oracle(self):
        t = oracles.arith_tables(2000)
        for n in range(1, 2001):
            assert t.mobius[n] == oracles.mobius_slow(n), n
            assert t.omega[n] == oracles.omega_slow(n), n
            assert t.totient[n] == oracles.totient_slow(n), n

    def test_squarefree_consistency_with_spf(self):
        # mu(n) != 0 iff the trial-division factorization is squarefree
        t = oracles.arith_tables(5000)
        for n in range(2, 5001):
            squarefree = all(e == 1 for e in oracles.factorize(n).values())
            assert (t.mobius[n] != 0) == squarefree, n

    def test_mangoldt_range_matches_factorization(self):
        for lo, hi in [(2, 10**4), (0, 2), (1, 3), (1000, 1400), (8, 9)]:
            ns, ps, ms = mangoldt_range(lo, hi)
            assert np.all(np.diff(ns) > 0)
            got = {int(n): (int(p), int(m)) for n, p, m in zip(ns, ps, ms)}
            assert got == oracles.prime_powers_slow(lo, hi), (lo, hi)

    def test_matches_all_primes_oracle_at_million(self, tables_1e6):
        expected = oracles.arith_tables_all_primes(10**6)
        for got, want in zip(
            (tables_1e6.mobius, tables_1e6.totient, tables_1e6.omega), expected
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @given(
        st.one_of(
            st.integers(min_value=1, max_value=5000),
            st.sampled_from(_SMALL_PRIMES).map(lambda p: p * p),
            st.sampled_from(_SMALL_PRIMES).map(lambda p: p * p - 1),
            st.sampled_from(_SMALL_PRIMES).map(lambda p: p * p + 1),
        )
    )
    @settings(max_examples=60, deadline=None)
    @example(1)
    @example(2)
    @example(3)
    @example(4)
    @example(67 * 67 - 1)
    @example(67 * 67)
    @example(67 * 67 + 1)
    def test_matches_all_primes_oracle(self, n):
        t = oracles.arith_tables(n)
        expected = oracles.arith_tables_all_primes(n)
        for got, want in zip((t.mobius, t.totient, t.omega), expected):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), n


# prime powers p^k <= 8191 with k >= 2
_PRIME_POWERS = sorted(p**k for p in _SMALL_PRIMES for k in range(2, 14) if p**k <= 8191)


@st.composite
def _spans(draw):
    """(lo, hi): anywhere, or with a multiple of a prime power on the
    first or the last slot of the range (so of its first or last block)."""
    length = draw(st.integers(1, 9000))
    if draw(st.booleans()):
        lo = draw(st.integers(1, 20000))
        return lo, lo + length
    n = draw(st.sampled_from(_PRIME_POWERS)) * draw(st.integers(1, 4))
    return (n, n + length) if draw(st.booleans()) else (max(1, n + 1 - length), n + 1)


def _omega_stream(lo, hi, block):
    """(block starts, block sizes, concatenated omega) at a given block size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_OMEGA_BLOCK", block)
        blocks = list(_omega_blocks(lo, hi))
    starts = [b for b, _ in blocks]
    return starts, [om.size for _, om in blocks], np.concatenate([om for _, om in blocks])


class TestOmegaBlocks:
    @pytest.mark.parametrize("block", [1, 7, 64, 4096])
    @given(_spans())
    @settings(max_examples=40, deadline=None)
    # the first multiple of p^k on an inner block's first slot (49 at 7,
    # 64 at 64, 4096 at 4096) and last slot (27 at 7, 1215 = 81 * 15 at 64)
    @example((1, 300))
    @example((1150, 1250))
    @example((4000, 4300))
    def test_matches_dense_oracle(self, block, span):
        lo, hi = span
        if block == 1:  # every slot is a first and a last one; keep it quick
            lo = max(lo, hi - 400)
        starts, sizes, omega = _omega_stream(lo, hi, block)
        ends = [min(b - b % block + block, hi) for b in starts]
        assert starts == [lo] + ends[:-1] and ends[-1] == hi
        assert sizes == [e - b for b, e in zip(starts, ends)]
        assert omega.dtype == np.int8
        assert np.array_equal(omega, oracles.arith_tables(hi - 1).omega[lo:hi]), (lo, hi)

    def test_block_edges_at_default_size(self):
        hi = 4 * sieve._OMEGA_BLOCK + 2
        starts, sizes, omega = _omega_stream(3, hi, sieve._OMEGA_BLOCK)
        assert sizes[-1] == 2 and starts[1] == sieve._OMEGA_BLOCK
        assert np.array_equal(omega, oracles.arith_tables(hi - 1).omega[3:])

    def test_cap(self):
        # n = 2^30 is the last integer below the cap: 2^30 itself, omega 1
        ((start, omega),) = _omega_blocks(DEFAULT_RANGE_CAP, DEFAULT_RANGE_CAP + 1)
        assert (start, omega.tolist()) == (DEFAULT_RANGE_CAP, [1])
        with pytest.raises(CapacityError, match=f"the cap of {DEFAULT_RANGE_CAP} integers"):
            next(_omega_blocks(3, DEFAULT_RANGE_CAP + 2))


class TestPrimorial:
    def test_small(self):
        assert primorial(2) == 2
        assert primorial(10) == 210

    def test_factor_back(self):
        value = primorial(100)
        count = 0
        for p in primes_between(2, 101).tolist():
            assert value % p == 0
            count += 1
            value_over = value
            assert (value_over // p) % p != 0  # each prime exactly once
        assert count == 25

    def test_validation(self):
        with pytest.raises(ValidationError):
            primorial(1)


class TestGapScan:
    def test_hand_range(self):
        scan = gap_scan(1, 20)
        assert scan.min_gap.p == 2 and scan.min_gap.gap == 1
        # two gaps of 4 exist, (7,11) and (13,17); smaller p wins the tie
        assert (scan.max_gap.p, scan.max_gap.q, scan.max_gap.gap) == (7, 11, 4)

    def test_thousand(self):
        scan = gap_scan(1, 1000)
        assert (scan.max_gap.p, scan.max_gap.q, scan.max_gap.gap) == (887, 907, 20)

    @pytest.mark.slow
    def test_twin_pair_in_large_window(self):
        scan = gap_scan(10**6, 2 * 10**6)
        assert scan.min_gap.gap == 2

    def test_interior_composite(self):
        scan = gap_scan(1, 1000, keep_all=True)
        for rec in scan.records:
            assert rec.q - rec.p == rec.gap
            for n in range(rec.p + 1, rec.q):
                assert not oracles.trial_division_is_prime(n)

    def test_segment_boundaries_do_not_split_gaps(self):
        a = gap_scan(1, 5000, segment_size=64)
        b = gap_scan(1, 5000, segment_size=1 << 20)
        assert a.max_gap == b.max_gap and a.min_gap == b.min_gap

    def test_empty_range_error(self):
        with pytest.raises(EmptyRangeError):
            gap_scan(24, 28)

    def test_single_prime_raises(self):
        # 97 is the only prime in [90, 100): no gap has both ends inside
        with pytest.raises(EmptyRangeError):
            gap_scan(90, 100)
