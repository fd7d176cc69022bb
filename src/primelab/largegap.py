"""Long composite runs: primorial shifts and CRT covering systems.

A covering system assigns one residue class c_p to every prime p <= n,
aiming to cover [1, y_len]. The Chinese Remainder Theorem then produces a
shift y with p | y + m whenever m = c_p (mod p), so the covered stretch of
[y + 1, y + y_len] turns composite with small witnesses. The primorial
shift is the all-zero special case covering the offsets [2, n].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .sieve import GapRecord, _crt_combine, _simple_prime_array, gap_scan, primorial


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


def uncovered_in(residues: dict[int, int], y_len: int) -> tuple[int, ...]:
    """The m in [1, y_len] missed by every class."""
    uncovered = np.arange(1, y_len + 1, dtype=np.int64)
    for p, c in residues.items():
        uncovered = uncovered[uncovered % p != c]
    return tuple(uncovered.tolist())


def make_covering_system(n: int, residues: dict[int, int], y_len: int) -> CoveringSystem:
    """Validate a residue assignment and compute its uncovered remainder."""
    expected = set(_simple_prime_array(n).tolist())
    if set(residues) != expected:
        raise ValidationError(
            f"residues must be keyed by exactly the primes <= {n}"
        )
    for p, c in residues.items():
        if not 0 <= c < p:
            raise ValidationError(f"class {c} out of range for prime {p}")
    return CoveringSystem(
        n=n,
        residues=dict(sorted(residues.items())),
        y_len=y_len,
        uncovered=uncovered_in(residues, y_len),
    )


@dataclass(frozen=True)
class CompositeRun:
    """Shift y and witnesses: for each offset j, a prime divisor of y + j.

    Offsets are consecutive; length counts them. Witness validity means
    witness | y + j with 1 < witness < y + j.
    """

    y: int
    first_offset: int
    length: int
    witnesses: tuple[int, ...]

    def offsets(self) -> range:
        return range(self.first_offset, self.first_offset + self.length)

    def to_json(self) -> str:
        return json.dumps(
            {
                "y": str(self.y),
                "first_offset": self.first_offset,
                "length": self.length,
                "witnesses": list(self.witnesses),
            },
            sort_keys=True,
        )


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
    y = primorial(n)
    primes = _simple_prime_array(n).tolist()
    witnesses = []
    for j in range(2, n + 1):
        witnesses.append(next(p for p in primes if j % p == 0))
    return CompositeRun(y=y, first_offset=2, length=n - 1, witnesses=tuple(witnesses))


def greedy_cover(n: int, y_len: int) -> CoveringSystem:
    """Pick residue classes greedily, most newly covered elements first.

    Primes are processed in ascending order; for each, the class covering
    the most currently uncovered elements of [1, y_len] wins, ties to the
    smallest class.
    """
    if n < 5:
        raise ValidationError(f"n must be >= 5, got {n}")
    if y_len < n:
        raise ValidationError(f"y_len must be >= n, got y_len={y_len} n={n}")
    uncovered = np.arange(1, y_len + 1, dtype=np.int64)
    residues: dict[int, int] = {}
    for p in _simple_prime_array(n).tolist():
        classes = uncovered % p
        # argmax returns the first maximum: ties go to the smallest class
        best = int(np.argmax(np.bincount(classes, minlength=p)))
        residues[p] = best
        uncovered = uncovered[classes != best]
    return CoveringSystem(
        n=n,
        residues=residues,
        y_len=y_len,
        uncovered=tuple(uncovered.tolist()),
    )


def crt_shift(system: CoveringSystem, *, allow_partial: bool = False) -> int:
    """Smallest workable y with y = -c_p (mod p) for every prime p <= n.

    Then p | y + m whenever m = c_p (mod p), so covered offsets turn
    composite. The smallest positive solution is bumped by the modulus
    when it is <= n, keeping every witness a proper divisor.

    Raises:
        ValidationError: the system leaves holes and allow_partial is
            False (the holes are listed).
    """
    if not system.covered() and not allow_partial:
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


def composite_run_from_cover(
    system: CoveringSystem, *, allow_partial: bool = False
) -> CompositeRun:
    """CRT shift plus witnesses over the longest contiguous covered block.

    A fully covered system yields the whole run [y + 1, y + y_len]; a
    partial one (with allow_partial) yields the widest gap-free stretch.
    """
    y = crt_shift(system, allow_partial=allow_partial)
    holes = set(system.uncovered)
    best_start, best_len = None, 0
    start = None
    for m in range(1, system.y_len + 2):
        if m <= system.y_len and m not in holes:
            if start is None:
                start = m
        else:
            if start is not None and m - start > best_len:
                best_start, best_len = start, m - start
            start = None
    if best_start is None:
        raise ValidationError("no covered offsets at all")
    ordered = sorted(system.residues.items())
    witnesses = []
    for m in range(best_start, best_start + best_len):
        witnesses.append(next(p for p, c in ordered if m % p == c))
    return CompositeRun(
        y=y, first_offset=best_start, length=best_len, witnesses=tuple(witnesses)
    )


def widest_covered_length(
    n: int, *, start: Optional[int] = None, limit: Optional[int] = None
) -> CoveringSystem:
    """Largest y_len <= limit the greedy fully covers: doubling then bisection.

    Greedy coverage is not guaranteed monotone in y_len, so the result is
    the widest length at which this particular greedy succeeded.
    """
    lo = start if start is not None else n
    cap = limit if limit is not None else 8 * n
    best = greedy_cover(n, lo)
    if not best.covered():
        raise ValidationError(f"greedy cannot even cover [1, {lo}] for n={n}")
    width = lo
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


def max_gap_G(X: int) -> GapRecord:
    """Largest consecutive-prime gap with both primes <= X."""
    if X < 5:
        raise ValidationError(f"X must be >= 5, got {X}")
    return gap_scan(2, X + 1).max_gap
