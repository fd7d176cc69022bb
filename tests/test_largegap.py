import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from primelab.errors import CapacityError, ValidationError
from primelab.largegap import (
    CompositeRun,
    CoveringSystem,
    composite_run_from_cover,
    crt_shift,
    greedy_cover,
    max_gap_G,
    primorial_run,
    run_length_ratio,
    verify_composite_run,
    widest_covered_length,
)
from primelab.sieve import DEFAULT_RANGE_CAP, _crt_combine, primorial


class TestPrimorialRun:
    def test_n7(self):
        run = primorial_run(7)
        assert run.y == 210
        assert list(run.offsets()) == [2, 3, 4, 5, 6, 7]
        assert run.witnesses == (2, 3, 2, 5, 2, 7)

    def test_n3(self):
        run = primorial_run(3)
        assert run.y == 6
        assert [run.y + j for j in run.offsets()] == [8, 9]
        assert not any(oracles.trial_division_is_prime(run.y + j) for j in run.offsets())

    def test_n20_fully_verified(self):
        run = primorial_run(20)
        assert run.length == 19
        assert verify_composite_run(run)
        for j in run.offsets():
            assert not oracles.trial_division_is_prime(run.y + j)

    def test_validation(self):
        with pytest.raises(ValidationError):
            primorial_run(2)


class TestVerifyCompositeRun:
    def test_length_is_the_witness_count(self):
        # a declared length of 9 once let the run claim 30 + 7 = 37, a
        # prime, while zip checked only the two witnessed offsets
        run = CompositeRun(y=30, first_offset=2, witnesses=(2, 3))
        assert run.length == 2 and list(run.offsets()) == [2, 3]
        assert verify_composite_run(run)
        with pytest.raises(TypeError):
            CompositeRun(y=30, first_offset=2, length=9, witnesses=(2, 3))

    @pytest.mark.parametrize(
        "witnesses",
        [
            (),  # claims nothing
            (2, 3, 2, 5, 2, 37),  # 30 + 7 = 37 is prime: its only prime divisor is itself
            (4, 3),  # 4 divides 32 but is not prime
            (2, 5),  # 5 does not divide 33
        ],
    )
    def test_rejects_unwitnessed_offsets(self, witnesses):
        assert not verify_composite_run(CompositeRun(y=30, first_offset=2, witnesses=witnesses))

    def test_rejects_improper_witness(self):
        # 2 divides 0 + 2 but is not a proper divisor
        assert not verify_composite_run(CompositeRun(y=0, first_offset=2, witnesses=(2,)))


class TestGreedyCover:
    def test_n50_covers_itself(self):
        system = greedy_cover(50, 50)
        assert system.covered()
        assert sorted(system.residues) == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        ]

    def test_uncovered_is_definitionally_correct(self):
        system = greedy_cover(11, 40)
        assert system.uncovered == tuple(
            m for m in range(1, 41) if all(m % p != c for p, c in system.residues.items())
        )

    def test_determinism(self):
        assert greedy_cover(31, 60) == greedy_cover(31, 60)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_set_oracle(self, data):
        n = data.draw(st.integers(5, 300))
        y_len = data.draw(st.integers(n, 8 * n))
        system = greedy_cover(n, y_len)
        assert (system.residues, system.uncovered) == oracles.greedy_cover_sets(n, y_len)

    def test_widest_cover_at_2000_equals_set_oracle(self):
        system = widest_covered_length(2000)
        assert system.covered() and system.y_len >= 7753
        assert (system.residues, system.uncovered) == oracles.greedy_cover_sets(
            2000, system.y_len
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            greedy_cover(4, 10)
        with pytest.raises(ValidationError):
            greedy_cover(7, 6)

    def test_y_len_past_cap(self):
        # raised before the uncovered array is allocated
        with pytest.raises(CapacityError, match=f"exceeds the cap of {DEFAULT_RANGE_CAP}"):
            greedy_cover(5, DEFAULT_RANGE_CAP + 1)


class TestCrtShift:
    def test_hand_case(self):
        # classes 0 mod 2 and 1 mod 3 cover {1, 2}; y = 0 mod 2, 2 mod 3
        # gives 2 <= n, bumped by 6 to 8, so the run is {9, 10}
        system = CoveringSystem(n=3, residues={2: 0, 3: 1}, y_len=2, uncovered=())
        run = composite_run_from_cover(system)
        assert run.y == crt_shift(system) == 8
        assert [run.y + j for j in run.offsets()] == [9, 10]
        assert run.witnesses == (3, 2)
        assert verify_composite_run(run)

    def test_all_zero_system_reproduces_primorial(self):
        (y,), mod = _crt_combine((p, [0]) for p in (2, 3, 5, 7))
        assert (y, mod) == (0, primorial(7)) and primorial_run(7).y == primorial(7)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_crt_combine_matches_definition(self, data):
        primes = data.draw(st.lists(st.sampled_from([2, 3, 5, 7, 11]), unique=True))
        allowed = {p: data.draw(st.sets(st.integers(0, p - 1), max_size=2)) for p in primes}
        residues, mod = _crt_combine((p, sorted(allowed[p])) for p in primes)
        assert mod == math.prod(primes)
        assert sorted(residues) == [
            r for r in range(mod) if all(r % p in allowed[p] for p in primes)
        ]

    def test_uncovered_raises_with_holes(self):
        system = CoveringSystem(n=3, residues={2: 0, 3: 0}, y_len=4, uncovered=(1,))
        with pytest.raises(ValidationError, match=r"\b1\b"):
            crt_shift(system)
        with pytest.raises(ValidationError, match="holes"):
            composite_run_from_cover(system)

    @pytest.mark.parametrize("n", [50, 100])
    def test_greedy_chain_beats_primorial_baseline(self, n):
        system = greedy_cover(n, n)
        assert system.covered()
        run = composite_run_from_cover(system)
        assert run.length >= n - 1
        assert verify_composite_run(run)
        assert run_length_ratio(run) > 0

    def test_witnesses_divide(self):
        system = greedy_cover(23, 30)
        if system.covered():
            run = composite_run_from_cover(system)
            for j, w in zip(run.offsets(), run.witnesses):
                assert (run.y + j) % w == 0
                assert 1 < w < run.y + j


class TestWidestCover:
    @pytest.mark.parametrize("n", [50, 100])
    def test_extends_beyond_n(self, n):
        system = widest_covered_length(n)
        assert system.covered()
        assert system.y_len >= n
        run = composite_run_from_cover(system)
        assert run.length == system.y_len
        assert verify_composite_run(run)


class TestRunWitnesses:
    """The painted witnesses equal a search over the primes in ascending order."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_covered_greedy_systems(self, data):
        n = data.draw(st.integers(5, 300))
        system = greedy_cover(n, data.draw(st.integers(n, 3 * n)))
        assume(system.covered())
        expected = oracles.least_prime_witnesses(system.residues, 1, system.y_len)
        assert composite_run_from_cover(system).witnesses == expected

    def test_widest_cover_at_2000(self):
        system = widest_covered_length(2000)
        expected = oracles.least_prime_witnesses(system.residues, 1, system.y_len)
        assert composite_run_from_cover(system).witnesses == expected

    @given(st.integers(3, 2000))
    @example(3)
    @example(2000)
    @settings(max_examples=30, deadline=None)
    def test_primorial_runs(self, n):
        zeros = {p: 0 for p in range(2, n + 1) if oracles.trial_division_is_prime(p)}
        assert primorial_run(n).witnesses == oracles.least_prime_witnesses(zeros, 2, n - 1)


class TestMaxGap:
    def test_x10(self):
        rec = max_gap_G(10)
        assert rec.gap == 2
        assert (rec.p, rec.q) == (3, 5)  # ties break to the smaller p

    def test_x1000(self):
        rec = max_gap_G(1000)
        assert (rec.p, rec.q, rec.gap) == (887, 907, 20)

    @given(st.integers(6, 400))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing(self, X):
        assert max_gap_G(X + 1).gap >= max_gap_G(X).gap

    def test_matches_gap_scan(self):
        from primelab.sieve import gap_scan

        assert max_gap_G(1000) == gap_scan(2, 1001).max_gap

    def test_validation(self):
        with pytest.raises(ValidationError):
            max_gap_G(4)
