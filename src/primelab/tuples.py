"""Admissible k-tuples: verification with certificates and narrow search.

A tuple of offsets h_1 < ... < h_k is admissible when, for every prime p,
the offsets avoid at least one residue class mod p. Only primes p <= k can
fail (k residues cannot cover more than k classes), so a certificate is a
map from each prime p <= k to one avoided residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import CapacityError, TupleSearchError, ValidationError
from .sieve import DEFAULT_RANGE_CAP, _simple_prime_array


@dataclass(frozen=True)
class AdmissibleTuple:
    """Strictly increasing offsets plus a per-prime avoided-residue certificate."""

    offsets: tuple[int, ...]
    certificate: dict[int, int]

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def diameter(self) -> int:
        return self.offsets[-1] - self.offsets[0]


@dataclass(frozen=True)
class Refutation:
    """Smallest prime whose residue classes are all covered by the offsets.

    covering maps every residue class mod prime to one offset hitting it.
    """

    prime: int
    covering: dict[int, int]


def _check_offsets(offsets: Sequence[int]) -> tuple[int, ...]:
    offs = tuple(int(h) for h in offsets)
    if len(offs) < 1:
        raise ValidationError("tuple must have at least one offset")
    if any(b <= a for a, b in zip(offs, offs[1:])):
        raise ValidationError(f"offsets must be strictly increasing, got {offs}")
    return offs


def is_admissible(offsets: Sequence[int]) -> Union[AdmissibleTuple, Refutation]:
    """Verify admissibility, returning a certificate or the refuting prime.

    The certificate records the smallest avoided residue for every prime
    p <= k. A refutation names the smallest prime whose classes are all
    hit, with one witnessing offset per class.
    """
    offs = _check_offsets(offsets)
    k = len(offs)
    certificate: dict[int, int] = {}
    for p in _simple_prime_array(k).tolist():
        hit: dict[int, int] = {}
        for h in offs:
            hit.setdefault(h % p, h)
        if len(hit) == p:
            return Refutation(prime=p, covering=dict(sorted(hit.items())))
        certificate[p] = min(r for r in range(p) if r not in hit)
    return AdmissibleTuple(offsets=offs, certificate=certificate)


def require_admissible(offsets: Sequence[int]) -> AdmissibleTuple:
    """is_admissible, but a refutation raises ValidationError."""
    result = is_admissible(offsets)
    if isinstance(result, Refutation):
        raise ValidationError(
            f"tuple is not admissible: all {result.prime} residue classes "
            f"mod {result.prime} are covered"
        )
    return result


def prime_offset_tuple(k: int) -> AdmissibleTuple:
    """The first k primes exceeding k, shifted so the first offset is 0.

    Always admissible: each prime in the tuple exceeds k, so offsets avoid
    class -first_prime mod p (no element is divisible by any p <= k).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    # primes thin out like 1/log, so a small multiplicative margin suffices
    limit = max(4 * k, 64)
    primes = [p for p in _simple_prime_array(limit).tolist() if p > k]
    while len(primes) < k:
        limit *= 2
        primes = [p for p in _simple_prime_array(limit).tolist() if p > k]
    chosen = primes[:k]
    offsets = [p - chosen[0] for p in chosen]
    return require_admissible(offsets)


def greedy_narrow_tuple(k: int, window: int) -> AdmissibleTuple:
    """Search [0, window] for k admissible offsets by greedy class removal.

    For each prime p <= k in ascending order, one residue class mod p is
    sieved out: the class whose removal keeps the most survivors (ties to
    the smaller class). The first k survivors, shifted to start at 0, form
    the result.

    Raises:
        TupleSearchError: fewer than k survivors remain; carries the count
            so the caller can widen the window.
        CapacityError: window > DEFAULT_RANGE_CAP, before allocating.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if window < k:
        raise ValidationError(f"window must be >= k, got window={window} k={k}")
    if window > DEFAULT_RANGE_CAP:
        raise CapacityError(f"window of {window} exceeds the cap of {DEFAULT_RANGE_CAP} integers")
    survivors = np.arange(window + 1)
    for p in _simple_prime_array(k).tolist():
        classes = survivors % p
        # argmin returns the first minimum: ties go to the smallest class
        doomed = int(np.argmin(np.bincount(classes, minlength=p)))
        survivors = survivors[classes != doomed]
    if survivors.size < k:
        raise TupleSearchError(
            f"only {survivors.size} survivors in [0, {window}] for k={k}",
            survivors=int(survivors.size),
        )
    return require_admissible((survivors[:k] - survivors[0]).tolist())


def write_offsets(path: str, tup: AdmissibleTuple) -> None:
    """One offset per line, decimal, sorted."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            for h in tup.offsets:
                fh.write(f"{h}\n")
    except OSError as exc:
        raise ValidationError(f"cannot write offsets file {path}: {exc}") from exc


def read_offsets(path: str) -> list[int]:
    """Parse a one-offset-per-line file; blank lines are skipped."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [int(line) for line in fh if line.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read offsets file {path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"cannot parse offsets file {path}: {exc}") from exc
