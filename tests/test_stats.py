import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from primelab.errors import CapacityError, ValidationError
from primelab import sieve, stats
from primelab.stats import (
    StatReport,
    _ExactSum,
    erdos_kac,
    hardy_ramanujan_proportion,
    mertens_sums,
    normal_interval,
    pigeonhole_experiment,
    pnt_ratio,
    reports_to_csv,
)

INF = float("inf")


class TestPntRatio:
    def test_x10(self):
        assert pnt_ratio(10) == pytest.approx(4 * math.log(10) / 10, rel=1e-12)

    def test_million_window(self):
        assert 1.0 < pnt_ratio(10**6) < 1.15

    @pytest.mark.slow
    def test_hundred_million_closer_to_one(self):
        assert abs(pnt_ratio(10**8) - 1) < abs(pnt_ratio(10**6) - 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            pnt_ratio(9)


class TestPigeonhole:
    def test_exact_window_sum_exceeds_one(self):
        rep = pigeonhole_experiment(10**6, 30, 0, exact=True)
        assert rep.prob_sum == pytest.approx(2.113051, abs=1e-6)
        assert rep.prob_sum > 1
        assert rep.min_gap_found == 2

    def test_exact_single_term(self):
        rep = pigeonhole_experiment(10**6, 1, 0, exact=True)
        assert rep.prob_sum == pytest.approx(0.070435, abs=1e-9)
        assert rep.prob_sum < 1

    def test_empty_window(self):
        rep = pigeonhole_experiment(10**6, 0, 0, exact=True)
        assert rep.prob_sum == 0.0

    def test_sampled_mode_reproducible(self):
        a = pigeonhole_experiment(10**5, 30, 10**4, seed=11)
        b = pigeonhole_experiment(10**5, 30, 10**4, seed=11)
        assert a == b

    def test_sampled_close_to_exact(self):
        exact = pigeonhole_experiment(10**5, 20, 0, exact=True)
        sampled = pigeonhole_experiment(10**5, 20, 10**5, seed=3)
        assert sampled.prob_sum == pytest.approx(exact.prob_sum, abs=0.1)

    @pytest.mark.parametrize("X,H", [(10**4, 15), (10**5, 20), (10**6, 30)])
    def test_pigeonhole_soundness_zero_tolerance(self, X, H):
        # with exact frequencies, a window sum above 1 forces two primes
        # into one window, hence a gap of at most H in the scanned range
        rep = pigeonhole_experiment(X, H, 0, exact=True)
        if rep.prob_sum > 1.0:
            assert rep.min_gap_found <= H

    @pytest.mark.parametrize("chunk", [1, 7, 1000, 4096])
    def test_chunked_draws_keep_the_report(self, monkeypatch, chunk):
        whole = pigeonhole_experiment(10**4, 15, 4096, seed=5)
        monkeypatch.setattr(stats, "_DRAW_CHUNK", chunk)
        assert pigeonhole_experiment(10**4, 15, 4096, seed=5) == whole

    @pytest.mark.parametrize("a,b", [(3, 5), (1, 1), (1_000_001, 999_999)])
    def test_split_draws_read_one_stream(self, a, b):
        # the sampled mode draws in chunks on the strength of this
        one, two = np.random.default_rng(a), np.random.default_rng(a)
        whole = one.integers(1000, 2000, size=a + b)
        parts = two.integers(1000, 2000, size=a), two.integers(1000, 2000, size=b)
        assert np.array_equal(whole, np.concatenate(parts))

    @given(
        st.integers(min_value=100, max_value=5000),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 7, 1 << 20]),
    )
    @settings(max_examples=100, deadline=None)
    # H = 0 and 1 at X = 100: the draw n = 199 has no prime left in [X, 2X + H]
    @example(100, 0, 1000, 0, 1)
    @example(100, 1, 1000, 0, 7)
    # 2X + H = 211 is prime: the last prime of the list ends no window
    @example(100, 11, 1000, 1, 1 << 20)
    @example(5000, 40, 1000, 2, 1)
    def test_matches_one_table(self, X, H, samples, seed, chunk):
        # the sorted prime list gives the counts of one primality table, so
        # prob_sum keeps its bits in both modes, for any draw chunk
        with mock.patch.object(stats, "_DRAW_CHUNK", chunk):
            for exact in (True, False):
                rep = pigeonhole_experiment(X, H, samples, seed, exact=exact)
                want = oracles.pigeonhole_from_bits(X, H, samples, seed, exact)
                assert (rep.samples, rep.prob_sum, rep.min_gap_found, rep.exact) == (*want, exact)

    def test_samples_past_cap_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(stats, "primes_between", None)  # no prime list either
        with pytest.raises(CapacityError, match="^samples = 1073741825 exceeds the cap"):
            pigeonhole_experiment(1000, 5, sieve.DEFAULT_RANGE_CAP + 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            pigeonhole_experiment(99, 5, 10)
        with pytest.raises(ValidationError):
            pigeonhole_experiment(1000, 5, 0)


class TestMertens:
    def test_n100(self):
        d1, d2 = mertens_sums(100)
        assert d2 == pytest.approx(0.2756375752409699, abs=1e-12)
        assert d1 == pytest.approx(-1.23569931098911, abs=1e-12)

    def test_n3_closed_form(self):
        _, d2 = mertens_sums(3)
        assert d2 == pytest.approx(0.5 + 1.0 / 3.0 - math.log(math.log(3)), abs=1e-15)

    def test_bounded_deviations(self):
        for n in (10**2, 10**4, 10**6):
            d1, d2 = mertens_sums(n)
            assert -2 <= d1 <= 2
            assert -2 <= d2 <= 2

    @pytest.mark.slow
    def test_convergence_within_band(self):
        values = [mertens_sums(n)[1] for n in (10**4, 10**6, 10**8)]
        assert max(values) - min(values) < 0.05

    @pytest.mark.parametrize("n", [3, 100, 10**4, 10**6, 5 * 10**7])
    def test_equals_materialised_fsum(self, n):
        assert mertens_sums(n) == oracles.mertens_sums_materialised(n)

    def test_streams_in_bounded_memory(self):
        # the materialised array of the 3M primes <= 5e7 peaks near 46 MiB
        tracemalloc.start()
        try:
            mertens_sums(5 * 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _exact_or_overflow(values, chunk):
    total = _ExactSum()
    total.add(np.array(values[:chunk], dtype=np.float64))
    total.add(np.array(values[chunk:], dtype=np.float64))
    try:
        return float(total)
    except OverflowError:
        return "overflow"


_SPREAD = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000))


class TestExactSum:
    @given(
        st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SPREAD), max_size=40),
        st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_correctly_rounded(self, values, chunk):
        try:
            rounded = float(sum(map(Fraction, values), Fraction(0)))
        except OverflowError:
            rounded = "overflow"
        assert _exact_or_overflow(values, chunk) == rounded
        try:
            # fsum also raises on an intermediate overflow the exact sum survives
            assert _exact_or_overflow(values, chunk) == math.fsum(values)
        except OverflowError:
            pass

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [5e-324] * 3,
            [5e-324, -2.2250738585072014e-308, 1e-310],
            [2.0**1000, 1.0, -(2.0**1000), 2.0**-1000],
            [2.0**-1074, 2.0**1000, -(2.0**1000)],
            [0.1],
            [-3.5],
        ],
    )
    def test_edge_cases_equal_fsum(self, values):
        for chunk in range(len(values) + 1):
            assert _exact_or_overflow(values, chunk) == math.fsum(values)

    @pytest.mark.parametrize(
        "kind", ["monotone", "shuffled", "alternating", "mixed signs", "subnormal", "empty"]
    )
    def test_runs_in_input_order_equal_fsum(self, kind):
        # equal exponents are summed run by run as they come, unsorted: a
        # decreasing segment has a few runs, an alternating one a run per entry
        rng = np.random.default_rng(11)
        ps = np.arange(3, 20001, 2, dtype=np.float64)
        values = {
            "monotone": np.log(ps) / ps,
            "shuffled": rng.permutation(np.log(ps) / ps),
            "alternating": np.where(np.arange(ps.size) % 2 == 0, ps, 1.0 / ps),
            "mixed signs": rng.standard_normal(5000) * 2.0 ** rng.integers(-60, 60, 5000),
            "subnormal": rng.integers(-(2**52), 2**52, 5000) * 2.0**-1074,
            "empty": np.empty(0),
        }[kind]
        total = _ExactSum()
        total.add(values)
        assert float(total) == math.fsum(values.tolist())

    def test_one_sum_over_many_adds_equals_fsum(self):
        rng = np.random.default_rng(12)
        values = rng.standard_normal(20000) * 2.0 ** rng.integers(-40, 40, 20000)
        cuts = np.sort(rng.integers(0, values.size, 300))
        total = _ExactSum()
        for part in np.split(values, cuts):  # empty parts included
            total.add(part)
        assert float(total) == math.fsum(values.tolist())


# one past a multiple of the omega block: the last block holds two integers
_BLOCK_EDGE = 4 * sieve._OMEGA_BLOCK + 1


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHardyRamanujan:
    def test_huge_band_captures_everything(self):
        assert hardy_ramanujan_proportion(10**6, 1e9) == 1.0

    def test_wide_band(self):
        assert hardy_ramanujan_proportion(10**6, 3.0) >= 0.95

    def test_tiny_band(self):
        assert hardy_ramanujan_proportion(10**6, 0.01) < 0.5

    @pytest.mark.parametrize("n", [16, 10**4, 1_000_003, _BLOCK_EDGE])
    @pytest.mark.parametrize("a", [0.01, 0.5, 1.0, 3.0])
    def test_blocks_are_bit_identical_to_one_array(self, n, a):
        want = oracles.hardy_ramanujan_one_array(oracles.arith_tables(n).omega, n, a)
        assert hardy_ramanujan_proportion(n, a).hex() == want.hex()

    def test_streams_in_bounded_memory(self):
        # the dense tables and one float64 omega array peaked near 97 MiB
        assert _traced_peak(hardy_ramanujan_proportion, 3 * 10**6, 1.0) < 32 * 2**20

    @given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing_in_a(self, a, delta):
        lo = hardy_ramanujan_proportion(10**4, a)
        hi = hardy_ramanujan_proportion(10**4, a + delta)
        assert hi >= lo


class TestNormalInterval:
    def test_two_sided(self):
        assert normal_interval(-1.96, 1.96) == pytest.approx(0.9500042097035593, abs=1e-10)

    def test_one_sigma(self):
        assert normal_interval(-1.0, 1.0) == pytest.approx(0.6826894921370859, abs=1e-10)

    def test_full_line(self):
        assert normal_interval(-INF, INF) == 1.0


class TestErdosKac:
    def test_full_line_is_exactly_one(self):
        rep = erdos_kac(10**6, -INF, INF)
        assert rep.empirical == 1.0
        assert rep.gaussian == 1.0

    def test_central_interval_frozen_values(self):
        rep = erdos_kac(10**6, -1.0, 1.0)
        # deterministic count over 3 <= n <= 10^6, frozen from the table
        assert rep.empirical == pytest.approx(0.9330428660857322, abs=1e-12)
        assert rep.gaussian == pytest.approx(0.6826894921370859, abs=1e-10)
        # convergence toward the normal mass is log log slow; at this scale
        # the observed deviation sits near 0.25
        assert abs(rep.empirical - rep.gaussian) < 0.30

    def test_ks_value_at_million(self):
        rep = erdos_kac(10**6, -1.0, 1.0)
        assert rep.ks_distance == pytest.approx(0.2675733959687538, abs=1e-9)

    def test_cdf_restriction_properties(self):
        bs = [-1.0, 0.0, 0.5, 1.0, 2.0]
        masses = [erdos_kac(10**6, -INF, b).empirical for b in bs]
        assert all(0.0 <= m <= 1.0 for m in masses)
        assert masses == sorted(masses)

    @pytest.mark.parametrize("x", [16, 10**4, 3 * 10**6, 1_000_003, _BLOCK_EDGE])
    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.5, 2.0)])
    def test_in_place_standardization_is_bit_identical(self, x, a, b):
        rep = erdos_kac(x, a, b)
        empirical, ks = oracles.erdos_kac_fields(oracles.arith_tables(x).omega, x, a, b)
        assert rep.empirical.hex() == empirical.hex()
        assert rep.ks_distance.hex() == ks.hex()

    @pytest.mark.parametrize("block,x", [(1, 2000), (7, 10**4), (64, 10**4), (4096, 10**5)])
    def test_block_size_changes_no_bit(self, monkeypatch, block, x):
        want = erdos_kac(x, -0.5, 1.5), hardy_ramanujan_proportion(x, 0.7)
        monkeypatch.setattr(sieve, "_OMEGA_BLOCK", block)
        assert (erdos_kac(x, -0.5, 1.5), hardy_ramanujan_proportion(x, 0.7)) == want

    @pytest.mark.parametrize("segment_size", [1, 7, 30031])
    def test_segment_size_changes_no_bit(self, segment_size):
        x = 2000 if segment_size == 1 else 10**5
        want = erdos_kac(x, -0.5, 1.5), hardy_ramanujan_proportion(x, 0.7)
        got = (
            erdos_kac(x, -0.5, 1.5, segment_size=segment_size),
            hardy_ramanujan_proportion(x, 0.7, segment_size=segment_size),
        )
        assert got == want

    def test_streams_in_bounded_memory(self):
        # one block of omega, its float64 standardization and the log log
        # values: about 7 MiB; the dense tables and the full-length float64
        # arrays peaked near 80 MiB
        assert _traced_peak(erdos_kac, 3 * 10**6, -1.0, 1.0) < 32 * 2**20

    def test_validation(self):
        with pytest.raises(ValidationError):
            erdos_kac(15, -1, 1)
        with pytest.raises(ValidationError):
            erdos_kac(100, 1, 1)


class TestCsvInterface:
    def test_rows(self):
        rows = [StatReport(x=100, statistic="demo", value=1.5, reference=1.0)]
        text = reports_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "x,statistic,value,reference,deviation"
        assert lines[1] == "100,demo,1.5,1.0,0.5"
