"""Segmented sieve of Eratosthenes plus arithmetic-function tables.

Everything else in the package consumes the primes produced here:
PrimeTable for range queries, GapRecord scans for consecutive-prime gaps,
and dense tables of mu, phi and omega. The kernel, _odd_segments, keeps
one byte per odd integer of a segment. Each odd base prime p strikes its
odd multiples from p^2 on, its next one carried from segment to segment.
Primes up to an eighth of the segment strike by strided slices. The rest
sit in one next-multiple array (the buckets of Oliveira e Silva, Herzog
and Pardi, Math. Comp. 2014, whose segments are odd-only too): in rounds,
its entries below the segment's end are struck and advanced by 2p until
none is left. The public view is iter_prime_segments, a stream of each
segment's primes (2 included where in range); prime_count counts the odd
bits instead. sieve_range builds the only full-length table. The tables
take slices over p <= sqrt(n) plus one vectorised pass for the one prime
factor above sqrt(n) an integer can have. mangoldt_range gives the von
Mangoldt support as (n, prime, exponent) arrays; log(p) floats only
appear where summed.
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
    """Primes <= limit: one segment over [0, limit], base primes by recursion."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    ((_, primes),) = iter_prime_segments(0, limit + 1, limit + 1)
    return primes


def _odd_segments(lo: int, hi: int, segment_size: int) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield (seg_lo, seg_hi, first, bits) covering [lo, hi) in order.

    bits[i] is True iff first + 2i is an odd prime, with first = seg_lo | 1;
    the odd integers of [seg_lo, seg_hi) are the slots. Odd n sits at
    global slot n // 2, so a segment's slots are seg_lo // 2 .. seg_hi // 2.
    """
    if not 0 <= lo < hi:
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if segment_size < 1:
        raise ValidationError(f"segment_size must be >= 1, got {segment_size}")
    odd = _simple_prime_array(math.isqrt(hi - 1))[1:]
    # global slot of the next odd multiple of each odd base prime at or
    # after max(p^2, lo); one slot step is one step of 2p
    nxt = np.maximum(odd * odd, -(-lo // odd) * odd)
    nxt += odd * (nxt % 2 == 0)
    nxt //= 2
    small = odd <= segment_size // 8  # at least four strikes per segment
    small_step = odd[small].tolist()
    small_nxt = nxt[small].tolist()
    live = ~small & (nxt < hi // 2)
    step, nxt = odd[live], nxt[live]
    for seg_lo in range(lo, hi, segment_size):
        seg_hi = min(seg_lo + segment_size, hi)
        s_lo, s_hi = seg_lo // 2, seg_hi // 2
        bits = np.ones(s_hi - s_lo, dtype=bool)
        bits[: max(1 - s_lo, 0)] = False  # the slot of 1
        for i, (s, p) in enumerate(zip(small_nxt, small_step)):
            if s < s_hi:
                bits[s - s_lo :: p] = False
                small_nxt[i] = s + p * -(-(s_hi - s) // p)
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
    """Sieved range [lo, hi) with primality bits and optional factor table.

    Attributes:
        lo: inclusive range start.
        hi: exclusive range end.
        primality: bool array of length hi - lo; primality[n - lo] is True
            iff n has no divisor d with 1 < d <= sqrt(n).
        smallest_factor: optional int64 array; for composite n the smallest
            prime factor, for prime n the value n itself, and 1 for n <= 1.
    """

    lo: int
    hi: int
    primality: np.ndarray
    smallest_factor: Optional[np.ndarray] = None

    def primes(self) -> np.ndarray:
        """All primes in [lo, hi) as an int64 array."""
        return np.flatnonzero(self.primality) + self.lo


def sieve_range(
    lo: int,
    hi: int,
    *,
    with_factors: bool = False,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> PrimeTable:
    """Sieve [lo, hi) into a PrimeTable, segmenting internally.

    Args:
        lo: inclusive start, >= 0.
        hi: exclusive end, > lo.
        with_factors: also build the smallest-prime-factor table (one int64
            per integer in range; skip for very large ranges).
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

    spf = None
    if with_factors:
        spf = np.zeros(hi - lo, dtype=np.int64)
        for p in _simple_prime_array(math.isqrt(hi - 1)).tolist():
            view = spf[max(p, -(-lo // p) * p) - lo :: p]
            view[view == 0] = p
        ns = np.arange(lo, hi, dtype=np.int64)
        unset = spf == 0
        spf[unset] = ns[unset]  # untouched entries are primes (or 0/1)
        spf[ns <= 1] = 1
        spf.flags.writeable = False

    bits.flags.writeable = False
    return PrimeTable(lo=lo, hi=hi, primality=bits, smallest_factor=spf)


def prime_count(x: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """Exact count of primes <= x, summed segment by segment."""
    if x < 0:
        raise ValidationError(f"x must be >= 0, got {x}")
    segments = _odd_segments(0, x + 1, segment_size)
    return int(x >= 2) + sum(int(np.count_nonzero(bits)) for *_, bits in segments)


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


@dataclass(frozen=True)
class ArithTables:
    """Dense mu, phi and omega tables for 1..n (index 0 holds 0)."""

    n: int
    mobius: np.ndarray
    totient: np.ndarray
    omega: np.ndarray


def arith_tables(n: int) -> ArithTables:
    """Build mu, phi, omega tables for 1..n from the primes p <= sqrt(n).

    Each p strikes its multiples and divides its powers out of a cofactor;
    a cofactor still above 1 is the one prime factor q > sqrt(n).
    """
    if n < 1:
        raise ValidationError(f"arith_tables needs n >= 1, got {n}")
    mobius = np.ones(n + 1, dtype=np.int8)
    totient = np.arange(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int8)
    cofactor = np.arange(n + 1, dtype=np.int64)
    for p in _simple_prime_array(math.isqrt(n)).tolist():
        mobius[p::p] *= -1
        omega[p::p] += 1
        totient[p::p] -= totient[p::p] // p
        mobius[p * p :: p * p] = 0
        pe = p
        while pe <= n:
            cofactor[pe::pe] //= p
            pe *= p
    big = np.flatnonzero(cofactor > 1)
    q = cofactor[big]
    mobius[big] *= -1
    omega[big] += 1
    totient[big] -= totient[big] // q
    mobius[0] = 0  # slices start at p, so phi(0) and omega(0) stay 0

    for arr in (mobius, totient, omega):
        arr.flags.writeable = False
    return ArithTables(n=n, mobius=mobius, totient=totient, omega=omega)


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
