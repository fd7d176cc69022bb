"""The streamed reductions split over forked pieces (sieve._fan_out).

Each fanned-out consumer gives the one-piece result bit for bit at 1, 2
and 3 pieces and at every segment size; a failure inside a piece keeps
its type and message, or becomes a PrimelabError when the child dies; no
child outlives its call.
"""

import os
import signal
import time

import pytest

from primelab import sieve, stats
from primelab.cli import dispatch
from primelab.errors import CapacityError, ConsistencyError, EmptyRangeError, PrimelabError, ValidationError
from primelab.sieve import DEFAULT_SEGMENT_SIZE, _plan, gap_scan, prime_census

SEGMENT_SIZES = [1, 7, 30031, DEFAULT_SEGMENT_SIZE]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pieces(monkeypatch):
    """force(n): plan n pieces (one per step at most) for any range."""

    def force(n):
        monkeypatch.setattr(sieve, "_cores", lambda: n)
        monkeypatch.setattr(sieve, "_PIECE_MIN", 1)

    yield force
    assert_no_child_left()


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EmptyRangeError as exc:
        return type(exc), str(exc)


def _ranges(segment_size):
    """(gap ranges, kernel census ranges, Mertens n, omega x), each spanning
    at least three steps of the segment size (of the omega block)."""
    if segment_size < 30031:
        gaps = [(6, 20), (0, 50), (0, 38), (4, 14), (113, 128), (114, 128), (24, 28), (90, 100), (1000, 3000)]
        return gaps, [(113, 128), (24, 28), (1000, 3000)], 2000, 2000
    span = 3 * segment_size + 5
    lo = 10**7  # [lo, lo + span) is too narrow for the lattice count
    assert not sieve._uses_lattice(lo, lo + span)
    block = min(segment_size, sieve._OMEGA_BLOCK)
    return [(0, span), (lo, lo + span)], [(lo, lo + span)], span, 3 * block + 5


def _results(segment_size):
    gaps, censuses, n, x = _ranges(segment_size)
    return (
        [_outcome(gap_scan, lo, hi, segment_size=segment_size) for lo, hi in gaps],
        [prime_census(lo, hi, segment_size) for lo, hi in censuses],
        stats.mertens_sums(n, segment_size=segment_size),
        stats.erdos_kac(x, -0.5, 1.5, segment_size=segment_size),
        stats.hardy_ramanujan_proportion(x, 0.7, segment_size=segment_size),
    )


class TestPlan:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("lo,hi,step", [(0, 10, 1), (3, 100, 7), (5, 5 + 3 * 30031 + 1, 30031), (0, 2, 7)])
    def test_cuts_on_the_segment_grid(self, pieces, n, lo, hi, step):
        pieces(n)
        cuts = _plan(lo, hi, step)
        steps = -(-(hi - lo) // step)
        assert cuts[0] == lo and cuts[-1] == hi and len(cuts) == min(n, steps) + 1
        assert all(a < b for a, b in zip(cuts, cuts[1:]))
        assert all((c - lo) % step == 0 for c in cuts[:-1])
        sizes = [-(-(b - a) // step) for a, b in zip(cuts, cuts[1:])]
        assert max(sizes) - min(sizes) <= 1

    def test_short_ranges_run_as_one_piece(self, monkeypatch):
        monkeypatch.setattr(sieve, "_cores", lambda: 3)
        assert _plan(0, sieve._PIECE_MIN - 1, 1) == [0, sieve._PIECE_MIN - 1]
        assert len(_plan(0, sieve._PIECE_MIN, 1)) == 4

    def test_one_piece_without_fork(self, monkeypatch):
        assert sieve._cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "fork")
        assert sieve._cores() == 1

    def test_omega_cuts_on_the_block_grid(self, pieces):
        pieces(3)
        cuts, _ = sieve._omega_plan(3, 1000, 64)
        assert cuts[0] == 3 and cuts[-1] == 1000 and len(cuts) == 4
        assert all(c % 64 == 0 for c in cuts[1:-1])


class TestExactMerge:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("segment_size", SEGMENT_SIZES)
    def test_pieces_equal_one_piece(self, pieces, n, segment_size):
        pieces(1)
        want = _results(segment_size)
        pieces(n)
        got = _results(segment_size)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "segment_size,n,lo,hi,kind,record",
        [
            # the first largest gap, 3 -> 5, crosses the cut at 5; 5 -> 7 ties it
            (1, 2, 0, 10, "max_gap", (3, 5, 2)),
            # 7 -> 11 crosses the cut at 8; 13 -> 17 and 19 -> 23 tie it
            (1, 3, 0, 24, "max_gap", (7, 11, 4)),
            # the first smallest, 11 -> 13, crosses the cut at 13; 17 -> 19 ties it
            (1, 2, 6, 20, "min_gap", (11, 13, 2)),
            (7, 2, 6, 20, "min_gap", (11, 13, 2)),
            # 23 -> 29 crosses the cut at 28; 31 -> 37 and 43 -> 47 tie it
            (7, 2, 0, 50, "max_gap", (23, 29, 6)),
        ],
    )
    def test_boundary_ties_stay_with_the_smaller_p(self, pieces, segment_size, n, lo, hi, kind, record):
        pieces(n)
        p, q, gap = record
        assert any(p < c <= q for c in _plan(lo, hi, segment_size)[1:-1])
        ps = sieve.primes_between(lo, hi).tolist()
        assert [b - a for a, b in zip(ps, ps[1:]) if a > p].count(gap) >= 1
        found = getattr(gap_scan(lo, hi, segment_size=segment_size), kind)
        assert (found.p, found.q, found.gap) == record

    def test_a_piece_without_a_prime(self, pieces):
        pieces(3)
        # 113 and 127 are consecutive primes; the middle piece [118, 123) holds none
        assert _plan(113, 128, 1) == [113, 118, 123, 128]
        scan = gap_scan(113, 128, segment_size=1)
        assert scan.min_gap == scan.max_gap == sieve.GapRecord(113, 127, 14)
        assert prime_census(113, 128, 1) == (2, 113, 127)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lo,hi", [(114, 128), (24, 28), (90, 100)])
    def test_fewer_than_two_primes_in_all_pieces(self, pieces, n, lo, hi):
        pieces(n)
        with pytest.raises(EmptyRangeError, match=rf"^fewer than two primes in \[{lo}, {hi}\)$"):
            gap_scan(lo, hi, segment_size=1)

    def test_keep_all_runs_in_one_piece(self, pieces, monkeypatch):
        pieces(3)
        seen = []
        monkeypatch.setattr(sieve, "_fan_out", lambda cuts, piece: seen.append(cuts) or [piece(*cuts)])
        scan = gap_scan(0, 100, keep_all=True, segment_size=7)
        assert seen == [[0, 100]] and len(scan.records) == 24

    def test_refusals_come_before_any_fork(self, pieces, monkeypatch):
        pieces(3)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValidationError, match="segment_size must be >= 1"):
            gap_scan(0, 1000, segment_size=0)
        with pytest.raises(ValidationError, match="segment_size must be >= 1"):
            stats.erdos_kac(1000, -1, 1, segment_size=0)
        with pytest.raises(ValidationError, match="need 0 <= lo < hi"):
            prime_census(100, 10)
        with pytest.raises(CapacityError, match="use a smaller segment_size"):
            gap_scan(0, 2**61, segment_size=2**31)
        with pytest.raises(CapacityError, match="^prime table up to "):
            stats.mertens_sums(2**62, segment_size=2**20)
        with pytest.raises(CapacityError, match="^tables up to "):
            stats.hardy_ramanujan_proportion(2**31, 0.5)

    def test_base_primes_before_the_fork(self, pieces, monkeypatch):
        pieces(3)
        parent, calls = os.getpid(), []
        count = sieve.primes_between(10**6, 10**6 + 3000).size

        def spy(name):
            real = getattr(sieve, name)

            def once(*args):
                if os.getpid() != parent:
                    raise AssertionError(f"{name} in a piece")
                calls.append(args[0])
                return real(*args)

            monkeypatch.setattr(sieve, name, once)

        spy("_base_primes")
        spy("_omega_primes")
        gap_scan(10**6, 10**6 + 3000, segment_size=1000)
        stats.mertens_sums(3000, segment_size=1000)
        stats.erdos_kac(3000, -1, 1, segment_size=1000)
        assert prime_census(10**6, 10**6 + 3000, 1000)[0] == count
        assert [calls.count(hi) for hi in (10**6 + 3000, 3001)] == [2, 2]

    def test_a_fork_that_fails_runs_the_piece_here(self, pieces, monkeypatch):
        pieces(1)
        want = gap_scan(0, 3000, segment_size=100), stats.mertens_sums(3000, segment_size=100)
        pieces(3)

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        assert (gap_scan(0, 3000, segment_size=100), stats.mertens_sums(3000, segment_size=100)) == want


def _in_children(monkeypatch, action):
    """Make every kernel pass outside this process call action(lo)."""
    parent, real = os.getpid(), sieve._odd_segments

    def kernel(lo, hi, segment_size, **kwargs):
        if os.getpid() != parent:
            action(lo)
        return real(lo, hi, segment_size, **kwargs)

    monkeypatch.setattr(sieve, "_odd_segments", kernel)


class TestChildFailures:
    @pytest.mark.parametrize("error,code,head", [
        (ValidationError, 2, "error: "), (ConsistencyError, 3, "internal consistency failure: "),
    ])
    def test_exception_raised_again_with_type_and_message(self, pieces, monkeypatch, capsys, error, code, head):
        pieces(2)

        def fail(lo):
            raise error(f"piece at {lo} failed")

        _in_children(monkeypatch, fail)
        with pytest.raises(error, match=r"^piece at 0 failed$") as info:
            gap_scan(0, 1000, segment_size=100)
        assert type(info.value) is error
        assert_no_child_left()
        assert dispatch(["--segment-size", "100", "gaps", "--lo", "0", "--hi", "1000"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{head}piece at 0 failed\n")

    @pytest.mark.parametrize("how,status", [
        (lambda lo: os._exit(7), 7), (lambda lo: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ])
    def test_a_child_that_dies_raises_a_primelab_error(self, pieces, monkeypatch, capsys, how, status):
        pieces(3)
        _in_children(monkeypatch, how)
        message = f"the piece [2, 302) ended without a result (exit status {status})"
        with pytest.raises(PrimelabError) as info:
            stats.mertens_sums(999, segment_size=100)
        assert type(info.value) is PrimelabError and str(info.value) == message
        assert_no_child_left()
        assert dispatch(["--segment-size", "100", "stats", "mertens", "--n", "999"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_the_first_failing_piece_wins(self, pieces, monkeypatch):
        pieces(3)

        def kernel(lo, hi, segment_size, **kwargs):
            raise ValidationError(f"piece at {lo} failed")

        monkeypatch.setattr(sieve, "_odd_segments", kernel)
        with pytest.raises(ValidationError, match=r"^piece at 0 failed$"):
            gap_scan(0, 900, segment_size=100)
        assert_no_child_left()

    def test_an_interrupt_kills_and_reaps_the_children(self, pieces, monkeypatch):
        pieces(3)
        parent, real = os.getpid(), sieve._odd_segments

        def kernel(lo, hi, segment_size, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            else:
                raise KeyboardInterrupt
            return real(lo, hi, segment_size, **kwargs)

        monkeypatch.setattr(sieve, "_odd_segments", kernel)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            gap_scan(0, 900, segment_size=100)
        assert time.monotonic() - start < 30
        assert_no_child_left()
