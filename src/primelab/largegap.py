"""Long composite runs: primorial shifts and CRT covering systems.

A covering system assigns one residue class c_p to every prime p <= n,
aiming to cover [1, y_len]. The Chinese Remainder Theorem then produces a
shift y with p | y + m whenever m = c_p (mod p), so the covered stretch of
[y + 1, y + y_len] turns composite with small witnesses. The primorial
shift is the all-zero special case covering the offsets [2, n].

The greedy cover picks its classes with tuples._strike, the tuple search's
loop. Both runs witness each m by the least p with m = c_p (mod p) (_paint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .sieve import DEFAULT_RANGE_CAP, DEFAULT_SEGMENT_SIZE, GapRecord, _crt_combine, _simple_prime_array, gap_scan, primorial
from .tuples import _strike


@dataclass(frozen=True)
class CoveringSystem:
    """One residue class per prime <= n, aimed at covering [1, y_len].

    uncovered lists exactly the m in [1, y_len] hit by no class; an empty
    tuple means the full interval is ready for the CRT shift.
    """

    n: int
    residues: dict[int, int]
    y_len: int
    uncovered: tuple[int, ...]

    def covered(self) -> bool:
        return not self.uncovered


@dataclass(frozen=True)
class CompositeRun:
    """Shift y and witnesses: for each offset j, a prime divisor of y + j.

    Offsets are consecutive, one per witness; length counts them, so a run
    cannot claim an offset it has no witness for. Witness validity means
    witness | y + j with 1 < witness < y + j.
    """

    y: int
    first_offset: int
    witnesses: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.witnesses)

    def offsets(self) -> range:
        return range(self.first_offset, self.first_offset + self.length)


def verify_composite_run(run: CompositeRun) -> bool:
    """Each witness must be prime, divide its element, and be proper."""
    if not run.witnesses:
        return False
    small = set(_simple_prime_array(max(run.witnesses)).tolist())
    for j, w in zip(run.offsets(), run.witnesses):
        value = run.y + j
        if w not in small or value % w != 0 or not 1 < w < value:
            return False
    return True


def primorial_run(n: int) -> CompositeRun:
    """Composites P(n) + 2, ..., P(n) + n with witness p | j for each j.

    Every prime factor of j <= n also divides the primorial P(n), so it
    divides P(n) + j; the run has length n - 1.
    """
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    zeros = dict.fromkeys(_simple_prime_array(n).tolist(), 0)
    return CompositeRun(y=primorial(n), first_offset=2, witnesses=_paint(zeros, 2, n - 1))


def _paint(residues: dict[int, int], first: int, length: int) -> tuple[int, ...]:
    """For each offset m in [first, first + length), the least prime p with
    m = residues[p] (mod p), or 0 where none is: each class is written with
    its prime, in descending p, so the least prime is written last."""
    witnesses = np.zeros(length, dtype=np.int64)
    for p in sorted(residues, reverse=True):
        witnesses[(residues[p] - first) % p :: p] = p
    return tuple(witnesses.tolist())


def greedy_cover(n: int, y_len: int) -> CoveringSystem:
    """Pick residue classes greedily, most newly covered elements first.

    Primes are processed in ascending order; for each, the class covering
    the most currently uncovered elements of [1, y_len] wins, ties to the
    smallest class (tuples._strike with argmax).

    Raises:
        CapacityError: y_len > DEFAULT_RANGE_CAP, before allocating.
    """
    if n < 5:
        raise ValidationError(f"n must be >= 5, got {n}")
    if y_len < n:
        raise ValidationError(f"y_len must be >= n, got y_len={y_len} n={n}")
    if y_len > DEFAULT_RANGE_CAP:
        raise CapacityError(f"y_len of {y_len} exceeds the cap of {DEFAULT_RANGE_CAP} integers")
    primes = _simple_prime_array(n).tolist()
    # argmax returns the first maximum: ties go to the smallest class
    uncovered, residues = _strike(np.arange(1, y_len + 1, dtype=np.int64), primes, np.argmax)
    return CoveringSystem(
        n=n,
        residues=residues,
        y_len=y_len,
        uncovered=tuple(uncovered.tolist()),
    )


def crt_shift(system: CoveringSystem) -> int:
    """Smallest workable y with y = -c_p (mod p) for every prime p <= n.

    Then p | y + m whenever m = c_p (mod p), so covered offsets turn
    composite. The smallest positive solution is bumped by the modulus
    when it is <= n, keeping every witness a proper divisor.

    Raises:
        ValidationError: the system leaves holes (the holes are listed).
    """
    if not system.covered():
        holes = ", ".join(str(m) for m in system.uncovered[:10])
        more = " ..." if len(system.uncovered) > 10 else ""
        raise ValidationError(
            f"covering system leaves {len(system.uncovered)} holes "
            f"in [1, {system.y_len}]: {holes}{more}"
        )
    (y,), mod = _crt_combine((p, [-c % p]) for p, c in sorted(system.residues.items()))
    if y <= system.n:
        y += mod
    return y


def composite_run_from_cover(system: CoveringSystem) -> CompositeRun:
    """CRT shift plus witnesses: the run [y + 1, y + y_len] of a covered system.

    Raises:
        ValidationError: the system leaves holes.
    """
    y = crt_shift(system)
    return CompositeRun(y=y, first_offset=1, witnesses=_paint(system.residues, 1, system.y_len))


def widest_covered_length(n: int) -> CoveringSystem:
    """A y_len <= 8n that the greedy fully covers, found by doubling from
    n and then bisecting between the last covered and the first uncovered
    width.

    Greedy coverage is not monotone in y_len, so the bisection can stop
    short of the widest length the greedy covers: for n = 29 it returns 35,
    while the greedy covers 39. The result is a covered length, not the
    widest one.
    """
    cap = 8 * n
    best = greedy_cover(n, n)
    if not best.covered():
        raise ValidationError(f"greedy cannot even cover [1, {n}] for n={n}")
    width = n
    while width * 2 <= cap:
        trial = greedy_cover(n, width * 2)
        if not trial.covered():
            break
        best, width = trial, width * 2
    lo_w, hi_w = width, min(width * 2, cap)
    while lo_w + 1 < hi_w:
        mid = (lo_w + hi_w) // 2
        trial = greedy_cover(n, mid)
        if trial.covered():
            best, lo_w = trial, mid
        else:
            hi_w = mid
    return best


def run_length_ratio(run: CompositeRun) -> float:
    """length / log(y): how the construction compares to the typical gap."""
    return run.length / math.log(run.y)


def max_gap_G(X: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> GapRecord:
    """Largest consecutive-prime gap with both primes <= X."""
    if X < 5:
        raise ValidationError(f"X must be >= 5, got {X}")
    return gap_scan(2, X + 1, segment_size=segment_size).max_gap
