import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from primelab.errors import CapacityError, TupleSearchError, ValidationError
from primelab.sieve import DEFAULT_RANGE_CAP
from primelab.tuples import (
    AdmissibleTuple,
    Refutation,
    greedy_narrow_tuple,
    is_admissible,
    prime_offset_tuple,
    read_offsets,
    write_offsets,
)


def assert_certificate_valid(tup: AdmissibleTuple):
    for p, r in tup.certificate.items():
        assert all(h % p != r for h in tup.offsets), (p, r)


class TestIsAdmissible:
    def test_twin_offsets(self):
        result = is_admissible([0, 2])
        assert isinstance(result, AdmissibleTuple)
        assert result.certificate == {2: 1}

    def test_refuted_triple(self):
        result = is_admissible([0, 2, 4])
        assert isinstance(result, Refutation)
        assert result.prime == 3
        assert sorted(result.covering) == [0, 1, 2]
        for r, h in result.covering.items():
            assert h % 3 == r

    def test_admissible_triple(self):
        result = is_admissible([0, 2, 6])
        assert isinstance(result, AdmissibleTuple)
        assert result.certificate[2] == 1
        assert result.certificate[3] == 1
        assert_certificate_valid(result)

    def test_validation(self):
        with pytest.raises(ValidationError):
            is_admissible([3, 3, 5])
        with pytest.raises(ValidationError):
            is_admissible([])

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, raw):
        offsets = sorted(raw)
        verdict = is_admissible(offsets)
        ok, refuting = oracles.admissible_slow(offsets)
        if ok:
            assert isinstance(verdict, AdmissibleTuple)
            assert_certificate_valid(verdict)
        else:
            assert isinstance(verdict, Refutation)
            assert verdict.prime == refuting

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=6, unique=True),
        st.integers(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, raw, shift):
        offsets = sorted(raw)
        shifted = [h + shift for h in offsets]
        assert isinstance(is_admissible(offsets), AdmissibleTuple) == isinstance(
            is_admissible(shifted), AdmissibleTuple
        )


def assert_matches_census(offsets):
    """is_admissible gives the dict census's whole certificate, or its
    refuting prime and whole covering, in the same order."""
    certificate, prime, covering = oracles.admissible_census(offsets)
    verdict = is_admissible(offsets)
    if prime is None:
        assert isinstance(verdict, AdmissibleTuple)
        assert list(verdict.certificate.items()) == list(certificate.items())
    else:
        assert isinstance(verdict, Refutation)
        assert verdict.prime == prime
        assert list(verdict.covering.items()) == list(covering.items())
    return verdict


@st.composite
def sieved_offsets(draw):
    """Distinct offsets, some classes mod the primes below 15 struck so that
    larger primes refute too, shifted across the ends of int64 or by +-2^64."""
    raw = draw(st.lists(st.integers(-400, 400), min_size=1, max_size=40, unique=True))
    for p in (2, 3, 5, 7, 11, 13):
        r = draw(st.none() | st.integers(0, p - 1))
        if r is not None:
            raw = [h for h in raw if h % p != r] or raw[:1]
    shift = draw(st.sampled_from([0, 2**64, -(2**64), 2**63 - 200, -(2**63) + 200]))
    return sorted(h + shift for h in raw)


def refuted_variant(offsets, q):
    """offsets plus one x past them that hits the class mod q the offsets
    avoid and, mod each smaller prime, the class of the last offset (CRT)."""
    h = offsets[-1]
    m = math.prod(p for p in range(2, q) if oracles.trial_division_is_prime(p))
    avoided = is_admissible(offsets).certificate[q]
    return [*offsets, h + m * ((avoided - h) * pow(m, -1, q) % q)]


class TestAdmissibleCensus:
    @given(sieved_offsets())
    @settings(max_examples=300, deadline=None)
    def test_matches_census(self, offsets):
        assert_matches_census(offsets)

    @pytest.mark.parametrize("k", [500, 2000])
    def test_prime_offset_tuples(self, k):
        offsets = prime_offset_tuple(k).offsets
        for shift in (0, -(2**64), 2**64):
            verdict = assert_matches_census([h + shift for h in offsets])
            assert isinstance(verdict, AdmissibleTuple)

    @pytest.mark.parametrize("k", [500, 2000])
    @pytest.mark.parametrize("q", [2, 3, 31, 97])
    def test_refuted_prime_offset_tuples(self, k, q):
        refuted = refuted_variant(prime_offset_tuple(k).offsets, q)
        for shift in (0, -(2**64)):
            verdict = assert_matches_census([h + shift for h in refuted])
            assert isinstance(verdict, Refutation) and verdict.prime == q

    def test_offsets_past_int64(self):
        assert is_admissible([0, 2**64]).certificate == {2: 1}
        assert is_admissible([-(2**63) - 2, 2**63]).certificate == {2: 1}
        # numpy would infer float64 here, where 2^63 + 1 rounds to even
        assert is_admissible([1, 2**63 + 1]).certificate == {2: 0}
        verdict = is_admissible([-(2**64), 0, 4])
        assert verdict == Refutation(prime=3, covering={0: 0, 1: 4, 2: -(2**64)})


class TestPrimeOffsetTuple:
    def test_k2(self):
        assert prime_offset_tuple(2).offsets == (0, 2)

    def test_k3(self):
        assert prime_offset_tuple(3).offsets == (0, 2, 6)

    def test_k105_diameter(self):
        tup = prime_offset_tuple(105)
        assert tup.k == 105
        assert tup.diameter == 636  # first 105 primes above 105 span [107, 743]
        assert tup.diameter <= 720
        assert_certificate_valid(tup)

    @given(st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_always_admissible(self, k):
        tup = prime_offset_tuple(k)
        assert tup.k == k
        ok, _ = oracles.admissible_slow(tup.offsets)
        assert ok


class TestGreedyNarrowTuple:
    def test_k2(self):
        assert greedy_narrow_tuple(2, 10).diameter == 2

    def test_k3_minimal_diameter(self):
        assert greedy_narrow_tuple(3, 10).diameter == 6

    def test_k3_exhaustively_minimal(self):
        # every 3-tuple of diameter at most 5 is refuted, so 6 is minimal
        for b in range(2, 6):
            for a in range(1, b):
                ok, _ = oracles.admissible_slow([0, a, b])
                assert not ok, (a, b)

    def test_k105_window_720(self):
        tup = greedy_narrow_tuple(105, 720)
        assert tup.k == 105
        assert tup.diameter <= 720
        ok, _ = oracles.admissible_slow(tup.offsets)
        assert ok

    def test_greedy_beats_prime_offset_baseline(self):
        baseline = prime_offset_tuple(105).diameter
        tup = greedy_narrow_tuple(105, baseline)
        assert tup.diameter <= baseline

    def test_failure_carries_survivor_count(self):
        with pytest.raises(TupleSearchError) as exc_info:
            greedy_narrow_tuple(105, 600)
        assert exc_info.value.survivors == 103

    def test_determinism(self):
        assert greedy_narrow_tuple(20, 200).offsets == greedy_narrow_tuple(20, 200).offsets

    def test_validation(self):
        with pytest.raises(ValidationError):
            greedy_narrow_tuple(5, 4)

    def test_window_past_cap(self):
        # raised before the survivors are allocated
        with pytest.raises(CapacityError, match=f"exceeds the cap of {DEFAULT_RANGE_CAP}"):
            greedy_narrow_tuple(2, DEFAULT_RANGE_CAP + 1)

    @pytest.mark.parametrize("k", range(1, 121))
    def test_matches_list_oracle(self, k):
        # same offsets, or the same survivor count in the TupleSearchError
        for window in (k, 2 * k, 5 * k, 10 * k):
            survivors = oracles.greedy_tuple_survivors(k, window)
            if len(survivors) < k:
                with pytest.raises(TupleSearchError) as exc_info:
                    greedy_narrow_tuple(k, window)
                assert exc_info.value.survivors == len(survivors), window
            else:
                first = survivors[:k]
                expected = tuple(h - first[0] for h in first)
                assert greedy_narrow_tuple(k, window).offsets == expected, window


class TestFileInterface:
    def test_round_trip(self, tmp_path):
        tup = prime_offset_tuple(7)
        path = tmp_path / "tuple.txt"
        write_offsets(str(path), tup)
        text = path.read_text()
        assert text.splitlines() == [str(h) for h in tup.offsets]
        assert read_offsets(str(path)) == list(tup.offsets)

    def test_os_and_parse_errors_are_validation_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0\nx\n")
        with pytest.raises(ValidationError, match="cannot read offsets file"):
            read_offsets(str(tmp_path / "missing.txt"))
        with pytest.raises(ValidationError, match="cannot parse offsets file"):
            read_offsets(str(bad))
        with pytest.raises(ValidationError, match="cannot write offsets file"):
            write_offsets(str(tmp_path / "no" / "dir.txt"), prime_offset_tuple(3))
