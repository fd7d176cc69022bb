"""Segmented sieve of Eratosthenes plus arithmetic-function tables.

Everything else in the package consumes the primality data produced here:
PrimeTable for range queries, GapRecord scans for consecutive-prime gaps,
and dense tables of mu, phi and omega. One strike loop serves them all:
slices over the base primes p <= sqrt(n) mark the composites of a segment,
and the tables take the same slices plus one vectorised pass for the
single prime factor above sqrt(n) that an integer can have. The von
Mangoldt support comes from mangoldt_range as (n, prime, exponent) arrays;
log(p) floats only appear at summation sites.
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
    base = _simple_prime_array(math.isqrt(limit))
    return np.flatnonzero(_segment_bits(0, limit + 1, base)).astype(np.int64)


def _segment_bits(seg_lo: int, seg_hi: int, base: np.ndarray) -> np.ndarray:
    """Primality bits for [seg_lo, seg_hi) given base primes <= sqrt(seg_hi)."""
    bits = np.ones(seg_hi - seg_lo, dtype=bool)
    for n in range(seg_lo, min(seg_hi, 2)):
        bits[n - seg_lo] = False
    for p in base.tolist():
        p2 = p * p
        if p2 >= seg_hi:
            break
        start = max(p2, ((seg_lo + p - 1) // p) * p)
        if start < seg_hi:
            bits[start - seg_lo :: p] = False
    return bits


def iter_prime_segments(
    lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (segment_lo, primality bits) covering [lo, hi) in order."""
    if not 0 <= lo < hi:
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if segment_size < 1:
        raise ValidationError(f"segment_size must be >= 1, got {segment_size}")
    base = _simple_prime_array(math.isqrt(hi - 1))
    for seg_lo in range(lo, hi, segment_size):
        seg_hi = min(seg_lo + segment_size, hi)
        yield seg_lo, _segment_bits(seg_lo, seg_hi, base)


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

    def is_prime(self, n: int) -> bool:
        if not self.lo <= n < self.hi:
            raise ValidationError(f"{n} outside table range [{self.lo}, {self.hi})")
        return bool(self.primality[n - self.lo])

    def primes(self) -> np.ndarray:
        """All primes in [lo, hi) as an int64 array."""
        return np.flatnonzero(self.primality) + self.lo

    def count(self) -> int:
        return int(np.count_nonzero(self.primality))


def sieve_range(
    lo: int,
    hi: int,
    *,
    with_factors: bool = False,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    max_range: int = DEFAULT_RANGE_CAP,
) -> PrimeTable:
    """Sieve [lo, hi) into a PrimeTable, segmenting internally.

    Args:
        lo: inclusive start, >= 0.
        hi: exclusive end, > lo.
        with_factors: also build the smallest-prime-factor table (one int64
            per integer in range; skip for very large ranges).
        segment_size: integers per internal segment.
        max_range: capacity guard; hi - lo beyond this raises CapacityError.
    """
    if not 0 <= lo < hi:
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if hi - lo > max_range:
        raise CapacityError(
            f"range of {hi - lo} integers exceeds the cap of {max_range}; "
            "raise max_range or scan in pieces"
        )
    bits = np.empty(hi - lo, dtype=bool)
    for seg_lo, seg_bits in iter_prime_segments(lo, hi, segment_size):
        bits[seg_lo - lo : seg_lo - lo + seg_bits.size] = seg_bits

    spf = None
    if with_factors:
        spf = np.zeros(hi - lo, dtype=np.int64)
        base = _simple_prime_array(math.isqrt(hi - 1))
        for p in base.tolist():
            start = max(p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            view = spf[start - lo :: p]
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
    segments = iter_prime_segments(0, x + 1, segment_size)
    return sum(int(np.count_nonzero(bits)) for _, bits in segments)


def primes_between(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes in [lo, hi) as one int64 array (materialized)."""
    chunks = [
        np.flatnonzero(bits) + seg_lo
        for seg_lo, bits in iter_prime_segments(lo, hi, segment_size)
    ]
    return np.concatenate(chunks)


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
    prev: Optional[int] = None
    for seg_lo, bits in iter_prime_segments(lo, hi, segment_size):
        ps = np.flatnonzero(bits) + seg_lo
        if ps.size == 0:
            continue
        if prev is not None:
            ps = np.concatenate(([prev], ps))
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
                all_records.extend(
                    GapRecord(int(a), int(b), int(g))
                    for a, b, g in zip(ps[:-1], ps[1:], gaps)
                )
        prev = int(ps[-1])
    if best_min is None:
        raise EmptyRangeError(f"fewer than two primes in [{lo}, {hi})")
    return GapScan(
        lo=lo,
        hi=hi,
        min_gap=best_min,
        max_gap=best_max,
        records=tuple(all_records) if keep_all else None,
    )
