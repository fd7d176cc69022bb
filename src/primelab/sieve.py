"""Segmented sieve of Eratosthenes plus a streamed omega kernel.

Everything else in the package consumes the primes produced here:
PrimeTable (the primality bits of a range) for range queries, GapRecord
scans for consecutive-prime gaps, and blocks of omega, the
distinct-prime-factor count. The sieve
kernel, _odd_segments, keeps one byte per odd integer of a segment. Each
segment starts as a tiled copy of one wheel pattern, the odd slots of a
period of 2 * 3 * 5 * 7 * 11 * 13 = 30,030 integers with the multiples
of 3..13 cleared (15 KB): two slices of the pattern fill one period,
which is then doubled within the segment. The wheel primes are set back
to prime and 1 is cleared. Each base prime p > 13 then strikes its odd
multiples from p^2 on, its next one carried from segment to segment.
Primes up to a thirty-second of the segment (at least sixteen
strikes per segment) strike by strided slices, their next multiples kept
in one array and advanced together. The rest sit in a second
next-multiple array (the buckets of Oliveira e Silva, Herzog and Pardi,
Math. Comp. 2014, whose segments are odd-only too): in rounds, its
entries below the segment's end are struck and advanced by 2p until none
is left. The public view is iter_prime_segments, a stream of each
segment's primes (2 included where in range). prime_census counts the
bits of each segment instead, reading the first and last prime by argmax,
and prime_count and the sieve command go through it. sieve_range builds
the only full-length table, one primality byte per integer; no
smallest-factor table is built.
_omega_blocks yields omega over a range in blocks of _OMEGA_BLOCK
integers, in O(block + sqrt(hi)) memory: each prime p <= sqrt(hi) adds 1
at its multiples by slices and multiplies a per-integer product by p at
the multiples of p, p^2, ... that fall in the block; an integer whose
product falls short of it has exactly one more prime factor, above
sqrt(hi). mangoldt_range gives the von Mangoldt support as (n, prime,
exponent) arrays; log(p) floats only appear where summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CapacityError, EmptyRangeError, ValidationError

DEFAULT_SEGMENT_SIZE = 1 << 20
DEFAULT_RANGE_CAP = 1 << 30


def _simple_prime_array(limit: int) -> np.ndarray:
    """Primes <= limit: one segment over [0, limit], base primes by recursion.

    Raises CapacityError, before allocating, when limit > DEFAULT_RANGE_CAP."""
    if limit > DEFAULT_RANGE_CAP:
        raise CapacityError(f"prime table up to {limit} exceeds the cap of {DEFAULT_RANGE_CAP} integers")
    if limit < 2:
        return np.array([], dtype=np.int64)
    ((_, primes),) = iter_prime_segments(0, limit + 1, limit + 1)
    return primes


_WHEEL_PRIMES = (3, 5, 7, 11, 13)  # presieved: they strike no segment


def _wheel() -> np.ndarray:
    """One period of odd slots with the multiples of the wheel primes cleared."""
    pattern = np.ones(math.prod(_WHEEL_PRIMES), dtype=bool)
    for p in _WHEEL_PRIMES:
        pattern[p // 2 :: p] = False  # odd n = 2s + 1 is a multiple of p iff s = p // 2 mod p
    pattern.flags.writeable = False
    return pattern


_WHEEL = _wheel()  # 15,015 slots, one period of 30,030 integers


def _presieved(s_lo: int, size: int) -> np.ndarray:
    """Slots s_lo .. s_lo + size - 1 of the wheel pattern, tiled in place:
    one period from two slices of _WHEEL, then doubled within itself."""
    bits = np.empty(size, dtype=bool)
    r = s_lo % _WHEEL.size
    head = _WHEEL[r : r + size]
    bits[: head.size] = head
    tail = _WHEEL[: min(r, size - head.size)]
    bits[head.size : head.size + tail.size] = tail
    filled = head.size + tail.size  # a whole period when it falls short of size
    while filled < size:
        n = min(filled, size - filled)
        bits[filled : filled + n] = bits[:n]
        filled += n
    return bits


def _odd_segments(lo: int, hi: int, segment_size: int) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield (seg_lo, seg_hi, first, bits) covering [lo, hi) in order.

    bits[i] is True iff first + 2i is an odd prime, with first = seg_lo | 1;
    the odd integers of [seg_lo, seg_hi) are the slots. Odd n sits at
    global slot n // 2, so a segment's slots are seg_lo // 2 .. seg_hi // 2.

    Raises:
        CapacityError: a segment would exceed DEFAULT_RANGE_CAP integers,
            before anything is allocated.
    """
    if not 0 <= lo < hi:
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if segment_size < 1:
        raise ValidationError(f"segment_size must be >= 1, got {segment_size}")
    if min(segment_size, hi - lo) > DEFAULT_RANGE_CAP:
        raise CapacityError(
            f"segment of {min(segment_size, hi - lo)} integers exceeds the cap of "
            f"{DEFAULT_RANGE_CAP}; use a smaller segment_size"
        )
    odd = _simple_prime_array(math.isqrt(hi - 1))
    odd = odd[odd > _WHEEL_PRIMES[-1]]  # the wheel primes strike no segment
    # global slot of the next odd multiple of each odd base prime at or
    # after max(p^2, lo); one slot step is one step of 2p
    nxt = np.maximum(odd * odd, -(-lo // odd) * odd)
    nxt += odd * (nxt % 2 == 0)
    nxt //= 2
    small = odd <= segment_size // 32  # at least sixteen strikes per segment
    small_step, small_nxt = odd[small], nxt[small]
    live = ~small & (nxt < hi // 2)
    step, nxt = odd[live], nxt[live]
    for seg_lo in range(lo, hi, segment_size):
        seg_hi = min(seg_lo + segment_size, hi)
        s_lo, s_hi = seg_lo // 2, seg_hi // 2
        bits = _presieved(s_lo, s_hi - s_lo)
        for p in _WHEEL_PRIMES:
            if s_lo <= p // 2 < s_hi:
                bits[p // 2 - s_lo] = True
        bits[: max(1 - s_lo, 0)] = False  # the slot of 1
        act = small_nxt < s_hi
        s, p = small_nxt[act], small_step[act]
        for o, q in zip((s - s_lo).tolist(), p.tolist()):
            bits[o::q] = False
        small_nxt[act] = s - (s - s_hi) // p * p  # first slot at or past s_hi
        idx = np.flatnonzero(nxt < s_hi)
        while idx.size:
            bits[nxt[idx] - s_lo] = False
            nxt[idx] += step[idx]
            idx = idx[nxt[idx] < s_hi]
        yield seg_lo, seg_hi, seg_lo | 1, bits


def iter_prime_segments(
    lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (segment_lo, int64 primes in the segment) covering [lo, hi) in order."""
    for seg_lo, seg_hi, first, bits in _odd_segments(lo, hi, segment_size):
        primes = np.flatnonzero(bits)
        primes *= 2
        primes += first
        if seg_lo <= 2 < seg_hi:
            primes = np.concatenate(([2], primes))
        yield seg_lo, primes


@dataclass(frozen=True)
class PrimeTable:
    """Sieved range [lo, hi) with its primality bits.

    Attributes:
        lo: inclusive range start.
        hi: exclusive range end.
        primality: bool array of length hi - lo; primality[n - lo] is True
            iff n has no divisor d with 1 < d <= sqrt(n).
        smallest_factor: always None. No factor table is built; the field
            stays only because the sieve_range hook in perfbench/spans.py
            reads it, and goes with the next change to the benchmark.
    """

    lo: int
    hi: int
    primality: np.ndarray
    smallest_factor: None = None

    def primes(self) -> np.ndarray:
        """All primes in [lo, hi) as an int64 array."""
        return np.flatnonzero(self.primality) + self.lo


def sieve_range(lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeTable:
    """Sieve [lo, hi) into a PrimeTable, segmenting internally.

    Args:
        lo: inclusive start, >= 0.
        hi: exclusive end, > lo.
        segment_size: integers per internal segment.

    Raises:
        CapacityError: hi - lo exceeds DEFAULT_RANGE_CAP.
    """
    if not 0 <= lo < hi:
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if hi - lo > DEFAULT_RANGE_CAP:
        raise CapacityError(
            f"range of {hi - lo} integers exceeds the cap of {DEFAULT_RANGE_CAP}; "
            "scan it in pieces"
        )
    bits = np.zeros(hi - lo, dtype=bool)
    for seg_lo, seg_hi, first, seg_bits in _odd_segments(lo, hi, segment_size):
        bits[first - lo : seg_hi - lo : 2] = seg_bits
    if lo <= 2 < hi:
        bits[2 - lo] = True
    bits.flags.writeable = False
    return PrimeTable(lo=lo, hi=hi, primality=bits)


def prime_census(
    lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> tuple[int, Optional[int], Optional[int]]:
    """(count, first, last) of the primes in [lo, hi), from the kernel's bits.

    Each segment is counted with count_nonzero; the first and last prime
    are read with argmax on the first and last segment that holds one, so
    no prime is listed. first and last are None when there is no prime.
    """
    count, first, last, tail = 0, None, None, None
    for seg_lo, seg_hi, start, bits in _odd_segments(lo, hi, segment_size):
        if seg_lo <= 2 < seg_hi:  # 2 has no odd slot
            count, first, last = 1, 2, 2
        odd = int(np.count_nonzero(bits))
        if odd:
            count += odd
            if first is None:
                first = start + 2 * int(np.argmax(bits))
            tail = start, bits
    if tail is not None:
        start, bits = tail
        last = start + 2 * (bits.size - 1 - int(np.argmax(bits[::-1])))
    return count, first, last


def prime_count(x: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """Exact count of primes <= x, summed segment by segment."""
    if x < 0:
        raise ValidationError(f"x must be >= 0, got {x}")
    return prime_census(0, x + 1, segment_size)[0]


def primes_between(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes in [lo, hi) as one int64 array (materialized)."""
    return np.concatenate([ps for _, ps in iter_prime_segments(lo, hi, segment_size)])


def _crt_combine(roots: Iterable[tuple[int, Sequence[int]]]) -> tuple[list[int], int]:
    """Chinese remaindering over distinct primes.

    roots yields (p, allowed residues mod p). Returns every r in [0, M)
    whose reduction mod each p is allowed, and M, the product of the
    primes; no primes give ([0], 1).
    """
    residues, mod = [0], 1
    for p, allowed in roots:
        inv = pow(mod, -1, p)
        residues = [r + mod * ((s - r) * inv % p) for r in residues for s in allowed]
        mod *= p
    return residues, mod


def primorial(n: int) -> int:
    """Product of all primes <= n, exact."""
    if n < 2:
        raise ValidationError(f"primorial needs n >= 2, got {n}")
    return math.prod(_simple_prime_array(n).tolist())


_OMEGA_BLOCK = 1 << 18  # integers per block of _omega_blocks; no output depends on it


def _omega_blocks(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (block_lo, omega) covering [lo, hi) in order, 1 <= lo < hi.

    omega[i] is the number of distinct prime factors of n = block_lo + i,
    as int8. Blocks end at multiples of _OMEGA_BLOCK (and at hi). part[i]
    is the product of the largest powers of the primes p <= sqrt(hi - 1)
    that divide n; it fits int32 under the cap, and where n > part, n / part
    is one more prime factor, above sqrt(hi - 1).

    Raises:
        CapacityError: hi - 1 > DEFAULT_RANGE_CAP, before allocating.
    """
    if hi - 1 > DEFAULT_RANGE_CAP:
        raise CapacityError(f"tables up to {hi - 1} exceed the cap of {DEFAULT_RANGE_CAP} integers")
    primes = _simple_prime_array(math.isqrt(hi - 1)).tolist()
    b_lo = lo
    while b_lo < hi:
        b_hi = min(b_lo - b_lo % _OMEGA_BLOCK + _OMEGA_BLOCK, hi)
        omega = np.zeros(b_hi - b_lo, dtype=np.int8)
        part = np.ones(b_hi - b_lo, dtype=np.int32)
        for p in primes:
            omega[-b_lo % p :: p] += 1
            pk = p
            # a power with no multiple in the block has no higher one with one
            while (first := -b_lo % pk) < b_hi - b_lo:
                part[first::pk] *= p
                pk *= p
        omega += part != np.arange(b_lo, b_hi, dtype=np.int32)
        yield b_lo, omega
        b_lo = b_hi


def mangoldt_range(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Von Mangoldt support on [lo, hi): arrays (n, p, m) sorted by n.

    n = p**m runs over the prime powers in range; log values are left to
    the caller so sums can control their own rounding.
    """
    if not 0 <= lo < hi:
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    primes = primes_between(lo, hi)
    powers = []
    for p in _simple_prime_array(math.isqrt(hi - 1)).tolist():
        pe, m = p * p, 2
        while pe < hi:
            if pe >= lo:
                powers.append((pe, p, m))
            pe *= p
            m += 1
    e = np.array(powers, dtype=np.int64).reshape(-1, 3)
    ns = np.concatenate([primes, e[:, 0]])
    order = np.argsort(ns)
    ps = np.concatenate([primes, e[:, 1]])
    ms = np.concatenate([np.ones(primes.size, dtype=np.int64), e[:, 2]])
    return ns[order], ps[order], ms[order]


@dataclass(frozen=True)
class GapRecord:
    """Consecutive-prime pair with its gap.

    Invariants: q is the next prime after p, gap = q - p, and the gap is
    even for p > 2.
    """

    p: int
    q: int
    gap: int


@dataclass(frozen=True)
class GapScan:
    lo: int
    hi: int
    min_gap: GapRecord
    max_gap: GapRecord
    records: Optional[tuple[GapRecord, ...]] = None


def gap_scan(
    lo: int,
    hi: int,
    *,
    keep_all: bool = False,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> GapScan:
    """Scan consecutive-prime gaps with both endpoints in [lo, hi).

    Returns the minimum and maximum gap; ties go to the smaller p. With
    keep_all the full gap list is materialized (small ranges only).

    Raises:
        EmptyRangeError: fewer than two primes in [lo, hi).
    """
    lo = max(lo, 0)
    best_min: Optional[GapRecord] = None
    best_max: Optional[GapRecord] = None
    all_records: list[GapRecord] = []
    prev = np.empty(0, dtype=np.int64)  # the last prime so far, if any
    for _, ps in iter_prime_segments(lo, hi, segment_size):
        ps = np.concatenate((prev, ps))
        if ps.size >= 2:
            gaps = np.diff(ps)
            i_min = int(np.argmin(gaps))
            i_max = int(np.argmax(gaps))
            cand_min = GapRecord(int(ps[i_min]), int(ps[i_min + 1]), int(gaps[i_min]))
            cand_max = GapRecord(int(ps[i_max]), int(ps[i_max + 1]), int(gaps[i_max]))
            if best_min is None or cand_min.gap < best_min.gap:
                best_min = cand_min
            if best_max is None or cand_max.gap > best_max.gap:
                best_max = cand_max
            if keep_all:
                all_records.extend(map(GapRecord, ps[:-1].tolist(), ps[1:].tolist(), gaps.tolist()))
        prev = ps[-1:]
    if best_min is None:
        raise EmptyRangeError(f"fewer than two primes in [{lo}, {hi})")
    return GapScan(
        lo=lo,
        hi=hi,
        min_gap=best_min,
        max_gap=best_max,
        records=tuple(all_records) if keep_all else None,
    )
