"""Empirical checks of classical prime statistics at desk scale.

Covers the prime-counting ratio, a seeded pigeonhole experiment on prime
gaps in [X, 2X), Mertens-type partial sums, the concentration of the
distinct-prime-factor count, and its Gaussian limit law. All sums that
feed assertions are correctly rounded regardless of summation order:
math.fsum, or for the streamed Mertens sums an exact sum rounded once.
The Mertens sums and the two omega statistics fold (sieve._fold) exact
summaries of each segment or omega block, added item by item, so they hold
O(segment + sqrt(x)) memory and give the same bits as one pass over a full
table, on any number of cores.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .sieve import (
    DEFAULT_RANGE_CAP,
    DEFAULT_SEGMENT_SIZE,
    _fold,
    _omega_plan,
    _segment_plan,
    _segment_primes,
    gap_scan,
    prime_count,
    primes_between,
)

# Limit constants for the Mertens-type sums (reference targets only).
MERTENS_RECIPROCAL_CONSTANT = 0.2614972128476428  # lim sum 1/p - log log n
MERTENS_LOGP_CONSTANT = -1.3325822757332208  # lim sum log(p)/p - log n


@dataclass(frozen=True)
class StatReport:
    """One measured statistic against its theoretical target."""

    x: int
    statistic: str
    value: float
    reference: float

    @property
    def deviation(self) -> float:
        return abs(self.value - self.reference)


def reports_to_csv(reports: list[StatReport]) -> str:
    """CSV rendering, one StatReport per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "statistic", "value", "reference", "deviation"])
    for r in reports:
        writer.writerow([r.x, r.statistic, repr(r.value), repr(r.reference), repr(r.deviation)])
    return buf.getvalue()


def pnt_ratio(x: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> float:
    """pi(x) * log(x) / x; approaches 1 slowly from above. pi(x) is
    prime_count's, which sieves in segments of segment_size integers where
    it does not count on the lattice."""
    if x < 10:
        raise ValidationError(f"x must be >= 10, got {x}")
    return prime_count(x, segment_size=segment_size) * math.log(x) / x


# pigeonhole_experiment draws its samples in chunks of this many. The chunk
# is not part of the seeded output: consecutive draws read the generator
# exactly as one draw of their total size does.
_DRAW_CHUNK = 1 << 20


@dataclass(frozen=True)
class PigeonholeReport:
    """Window-sum of prime probabilities plus the true minimum gap; X and
    H stay with the caller.

    prob_sum estimates sum over 1 <= h <= H of P(n + h prime) for n drawn
    from [X, 2X). min_gap_found is the exact minimum consecutive-prime gap
    with both primes in [X, 2X + H); the window is widened by H so that
    prob_sum > 1 in exact mode forces min_gap_found <= H with no slack.
    samples is the number of n counted: X in exact mode.
    """

    samples: int
    prob_sum: float
    min_gap_found: int
    exact: bool


def pigeonhole_experiment(
    X: int,
    H: int,
    samples: int,
    seed: int = 0,
    *,
    exact: bool = False,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> PigeonholeReport:
    """Estimate the window-sum of prime probabilities over [X, 2X).

    In sampled mode, `samples` values of n are drawn uniformly (seeded);
    the frequency of n + h being prime estimates each term. In exact mode
    every n in [X, 2X) is counted once, making prob_sum an exact rational
    count divided by X, and the pigeonhole implication testable with zero
    tolerance. Both modes read the sorted primes in [X, 2X + H] with
    np.searchsorted; sampled mode steps each draw n through the primes in
    (n, n + H], so its integer counts do not depend on the draw order.

    Raises:
        CapacityError: more than DEFAULT_RANGE_CAP samples, before any draw;
            X + H + 1 past DEFAULT_RANGE_CAP integers, before any sieving.
    """
    if X < 100:
        raise ValidationError(f"X must be >= 100, got {X}")
    if H < 0:
        raise ValidationError(f"H must be >= 0, got {H}")
    if not exact and samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if not exact and samples > DEFAULT_RANGE_CAP:
        raise CapacityError(f"samples = {samples} exceeds the cap of {DEFAULT_RANGE_CAP} integers")
    ps = primes_between(X, 2 * X + H + 1, segment_size)
    if exact:
        # frequency of n + h prime over all n in [X, 2X): the primes in [X + h, 2X + h)
        hs = np.arange(1, H + 1)
        counts = (np.searchsorted(ps, 2 * X + hs) - np.searchsorted(ps, X + hs)).tolist()
        prob_sum = math.fsum(c / X for c in counts)
        n_used = X
    else:
        rng = np.random.default_rng(seed)
        hits = np.zeros(H + 2, dtype=np.int64)  # hits[h]: draws with n + h prime; H + 1 is dropped
        for done in range(0, samples, _DRAW_CHUNK):
            ns = rng.integers(X, 2 * X, size=min(_DRAW_CHUNK, samples - done))
            ns.sort()
            i = np.searchsorted(ps, ns, side="right")  # each draw's next prime; ps holds all up to n + H
            while ns.size:
                live = np.searchsorted(i, ps.size)  # i is nondecreasing: the draws past the list are a suffix
                ns, i = ns[:live], i[:live]
                gap = ps[i]
                gap -= ns
                keep = gap <= H
                np.add.at(hits, np.minimum(gap, H + 1, out=gap), 1)  # O(draws) a pass; a bincount costs O(H)
                del gap  # freed before the compaction
                ns = ns[keep]
                i = i[keep]
                i += 1
        prob_sum = math.fsum(c / samples for c in hits[1 : H + 1].tolist())
        n_used = samples
    scan = gap_scan(X, 2 * X + H + 1, segment_size=segment_size)
    return PigeonholeReport(
        samples=n_used, prob_sum=prob_sum, min_gap_found=scan.min_gap.gap, exact=exact
    )


class _ExactSum:
    """Exact running sum of finite float64 values; float() rounds it once.

    np.frexp writes each value as m * 2^(e - 53) with an integer |m| < 2^53.
    The m of each run of equal e, in input order, go into a Python int per e
    via int64 halves of 26 and 27 bits that cannot overflow; add loops once
    per run, so callers sort values that come in many runs. float() divides
    one integer by a power of two: the correctly rounded sum, as math.fsum
    returns it.
    """

    def __init__(self) -> None:
        self._by_exponent: dict[int, int] = {}

    def add(self, values: np.ndarray) -> "_ExactSum":
        if not values.size:
            return self
        frac, exp = np.frexp(values)
        mant = np.multiply(frac, 2.0**53, out=frac).astype(np.int64)
        starts = np.flatnonzero(np.r_[True, exp[1:] != exp[:-1]])
        high = np.add.reduceat(mant >> 27, starts).tolist()
        low = np.add.reduceat(mant & (2**27 - 1), starts).tolist()
        for e, h, l in zip(exp[starts].tolist(), high, low):
            self._by_exponent[e] = self._by_exponent.get(e, 0) + (h << 27) + l
        return self

    def __iadd__(self, other: "_ExactSum") -> "_ExactSum":
        """Add another exact sum to this one, exactly."""
        for e, m in other._by_exponent.items():
            self._by_exponent[e] = self._by_exponent.get(e, 0) + m
        return self

    def __float__(self) -> float:
        if not self._by_exponent:
            return 0.0
        low = min(self._by_exponent)
        total = sum(m << (e - low) for e, m in self._by_exponent.items())
        shift = low - 53
        return float(total << shift) if shift >= 0 else total / (1 << -shift)


def _add_items(a: tuple, b: tuple) -> tuple:
    """a + b item by item, in place where an item allows it (exact sums, arrays)."""
    return tuple(map(operator.iadd, a, b))


def mertens_sums(n: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> tuple[float, float]:
    """Deviations of the two Mertens-type prime sums from their leading terms.

    Returns (d1, d2) with
        d1 = sum_{p <= n} log(p)/p - log(n)
        d2 = sum_{p <= n} 1/p - log(log(n))
    Each prime sum is exact and rounded once (the value math.fsum gives over
    all the terms): sieve._fold adds each segment's pair of _ExactSum.
    """
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    cuts, walk = _segment_plan(2, n + 1, segment_size)

    def sums(segment) -> tuple[_ExactSum, _ExactSum]:
        ps = _segment_primes(segment).astype(np.float64)
        return _ExactSum().add(np.log(ps) / ps), _ExactSum().add(1.0 / ps)

    log_sum, reciprocal_sum = _fold(cuts, walk, sums, _add_items)
    d1 = float(log_sum) - math.log(n)
    d2 = float(reciprocal_sum) - math.log(math.log(n))
    return d1, d2


def hardy_ramanujan_proportion(n: int, a: float, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> float:
    """Fraction of N in {2..n} with |omega(N) - log log n| <= a sqrt(log log n).

    The centering uses log log n at the top of the range, so the band is
    common to every N; the proportion is nondecreasing in a. omega streams
    in blocks of at most segment_size integers (see sieve._omega_blocks),
    and sieve._fold adds the count of each block.
    """
    if n < 16:
        raise ValidationError(f"n must be >= 16, got {n}")
    if not a > 0:
        raise ValidationError(f"a must be > 0, got {a}")
    loglog = math.log(math.log(n))
    band = a * math.sqrt(loglog)
    cuts, walk = _omega_plan(2, n + 1, segment_size)
    # the band test once per value the int8 omega can take
    within = np.abs(np.arange(128, dtype=np.float64) - loglog) <= band

    def inside(block) -> int:  # block = (block_lo, omega)
        return int(np.count_nonzero(within[block[1]]))

    return float(_fold(cuts, walk, inside, operator.add)) / (n - 1)


def normal_interval(a: float, b: float) -> float:
    """Standard normal probability of [a, b] via the error function."""
    if not a < b:
        raise ValidationError(f"need a < b, got a={a} b={b}")

    def cdf(z: float) -> float:
        if math.isinf(z):
            return 0.0 if z < 0 else 1.0
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    return cdf(b) - cdf(a)


_KS_GRID_POINTS = 1000  # erdos_kac's grid in [-5, 5]


@dataclass(frozen=True)
class ErdosKacReport:
    empirical: float
    gaussian: float
    ks_distance: float


def erdos_kac(x: int, a: float, b: float, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> ErdosKacReport:
    """Empirical law of the standardized distinct-prime-factor count.

    Standardizes omega(n) by log log n per n over 3 <= n <= x (smaller n
    have no usable normalization), compares the [a, b] mass with the
    normal law, and reports the sup-distance between the empirical CDF and
    the normal CDF over a fixed grid of _KS_GRID_POINTS points in [-5, 5].

    The grid value is a lower bound on the true supremum over the real
    line. Both CDFs are monotone between grid points, so there the gap is
    at most phi(0) * dz = 0.0040, the normal density's maximum times the
    grid step dz = 10 / (_KS_GRID_POINTS - 1); outside [-5, 5] it is at
    most Phi(-5) < 3e-7. sieve._fold adds the integer counts of each omega
    block, so no bit depends on segment_size or on the core count.
    """
    if x < 16:
        raise ValidationError(f"x must be >= 16, got {x}")
    if not a < b:
        raise ValidationError(f"need a < b, got a={a} b={b}")
    zs = np.linspace(-5.0, 5.0, _KS_GRID_POINTS)
    cuts, walk = _omega_plan(3, x + 1, segment_size)
    scratch = [np.empty(0)]  # one buffer for all blocks: a fresh one per block faults its pages in

    def counts(block) -> tuple[int, np.ndarray]:
        n_lo, omega = block
        if scratch[0].size < omega.size:
            scratch[0] = np.empty(omega.size)
        loglog = np.arange(n_lo, n_lo + omega.size, dtype=np.float64)
        np.log(loglog, out=loglog)
        np.log(loglog, out=loglog)
        std = scratch[0][: omega.size]
        std[:] = omega
        std -= loglog
        std /= np.sqrt(loglog, out=loglog)
        inside = int(np.count_nonzero((std >= a) & (std <= b)))
        std.sort()
        return inside, np.searchsorted(std, zs, side="right")

    inside, below = _fold(cuts, walk, counts, _add_items)
    total = x - 2
    empirical = float(inside) / total
    gaussian = normal_interval(a, b)
    ecdf = below / total
    ncdf = 0.5 * (1.0 + np.array([math.erf(z / math.sqrt(2.0)) for z in zs]))
    ks = float(np.max(np.abs(ecdf - ncdf)))
    return ErdosKacReport(empirical=empirical, gaussian=gaussian, ks_distance=ks)
