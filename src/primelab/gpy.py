"""Divisor-weighted sums over [x, 2x) for an admissible tuple.

The weight f(n) squares a truncated Mobius-smoothed divisor sum over
d <= x^b dividing the product of the shifted values n + h_i. The module
computes the weighted count of prime tuple entries two independent ways
(a direct scan over n and a rearranged double sum over divisor pairs with
residue-class counts), the arithmetic-progression remainder terms those
sums hide, and empirical level-of-distribution error sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import CapacityError, ConsistencyError, ValidationError
from .sieve import DEFAULT_RANGE_CAP, _crt_combine, _simple_prime_array, mangoldt_range, primes_between, sieve_range
from .tuples import AdmissibleTuple

# Level exponent sufficient for the remainder sum to stay negligible in
# Zhang's bounded-gap argument. Recorded as context; nothing here depends
# on it and nothing here proves it.
ZHANG_LEVEL_EXPONENT = 0.25 + 1.0 / 1168.0

SupportArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _factorise(d: int) -> dict[int, int]:
    """{prime: exponent} of d >= 1 by trial division (small d only)."""
    out: dict[int, int] = {}
    m, p = d, 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = 1
    return out


def _mobius(d: int) -> int:
    exponents = _factorise(d).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


@dataclass(frozen=True)
class GpyParams:
    """Parameters of one weighted-sum run.

    k is the tuple length, l >= 1 the smoothing exponent, b in (0, 1/2)
    the truncation exponent (divisors run to x^b), x the scale.
    """

    k: int
    l: int
    b: float
    x: int
    tuple: AdmissibleTuple

    def __post_init__(self):
        if not 0 < self.b < 0.5:
            raise ValidationError(f"b must lie in (0, 1/2), got {self.b}")
        if self.l < 1:
            raise ValidationError(f"l must be >= 1, got {self.l}")
        if self.k + self.l > 170:
            # lambda_d divides by (k+l)!, and 171! overflows a double
            raise ValidationError(f"k + l must be <= 170, got {self.k + self.l}")
        if self.x < 100:
            raise ValidationError(f"x must be >= 100, got {self.x}")
        if self.k != self.tuple.k:
            raise ValidationError(
                f"k={self.k} does not match tuple length {self.tuple.k}"
            )

    @property
    def D_limit(self) -> int:
        """floor(x^b), exact where _power_floor is."""
        return _power_floor(self.x, self.b)


def _power_floor(x: int, b: float, *, strict: bool = False) -> int:
    """The largest D with D <= x^b (D < x^b when strict). When b is the
    double nearest p/q with q <= 12 (1/4, 1/3, 1/5, 2/7, ...) it is exact:
    D^q <= x^p (D^q < x^p). Other b use floats with a 1e-9 slack."""
    value = x**b
    guess = math.ceil(value - 1e-9) - 1 if strict else int(value + 1e-9)
    ratio = Fraction(b).limit_denominator(12)
    if float(ratio) != b:
        return guess
    q, target = ratio.denominator, x**ratio.numerator - int(strict)
    while guess**q > target:
        guess -= 1
    while (guess + 1) ** q <= target:
        guess += 1
    return guess


@dataclass(frozen=True)
class GpyReport:
    """S1 = sum of f(n), S2 = sum of f(n) times the prime count in the tuple.

    S2_theta is the log-weighted variant of S2 (each prime counted with
    weight log(n + h_i)); reported side by side, never asserted equal.
    """

    params: GpyParams
    S1: float
    S2: float
    objective: float
    S2_theta: float
    D_limit: int


def lambda_d(d: int, params: GpyParams) -> float:
    """Weight mu(d) * (log(x^b / d))^(k+l) / (k+l)! for d <= x^b."""
    if d < 1 or d > params.D_limit:
        raise ValidationError(
            f"d must satisfy 1 <= d <= {params.D_limit}, got {d}"
        )
    mu = _mobius(d)
    if mu == 0:
        return 0.0
    logterm = max(params.b * math.log(params.x) - math.log(d), 0.0)
    e = params.k + params.l
    return mu * logterm**e / math.factorial(e)


def _prime_sets(values: np.ndarray, primes: list[int], offsets: tuple[int, ...]) -> np.ndarray:
    """Bit j of row i, in uint64 words: primes[j] | values[i] + h for some h."""
    words = np.zeros((values.size, len(primes) // 64 + 1), dtype=np.uint64)
    for j, p in enumerate(primes):
        rem = values % p  # p | n + h exactly when n = -h mod p
        hit = np.any([rem == -h % p for h in offsets], axis=0)
        words[:, j // 64] |= hit.astype(np.uint64) << np.uint64(j % 64)
    return words


def _lambda_table(params: GpyParams) -> dict[int, float]:
    """{d: lambda_d} for the d <= D_limit with lambda_d != 0, ascending."""
    lam = ((d, lambda_d(d, params)) for d in range(1, params.D_limit + 1))
    return {d: v for d, v in lam if v != 0.0}


def _direct_weight_blocks(
    params: GpyParams, lam: dict[int, float], lo: int, hi: int, block: int = 1 << 16
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (ns, f(ns)) over [lo, hi) in blocks of n, by divisibility tests.

    A squarefree d divides (n+h_1)...(n+h_k) exactly when each of its
    primes does, so f(n) depends only on the set of primes p <= D dividing
    some n + h. The n of a block are sorted by set; each set sums once.
    lam is _lambda_table(params).
    """
    lams = np.array(list(lam.values()))
    primes = _simple_prime_array(params.D_limit).tolist()
    factors = _prime_sets(np.array(list(lam), dtype=np.int64), primes, (0,))
    square_by_set: dict[bytes, float] = {}
    for start in range(lo, hi, block):
        ns = np.arange(start, min(start + block, hi), dtype=np.int64)
        sets = _prime_sets(ns, primes, params.tuple.offsets)
        order = np.lexsort(sets.T)
        sets = sets[order]
        first = np.r_[True, (sets[1:] != sets[:-1]).any(axis=1)]
        squares = []
        for key in sets[first]:
            tag = key.tobytes()
            if tag not in square_by_set:
                # the d with no prime factor outside the set divide the product
                inner = math.fsum(lams[~(factors & ~key).any(axis=1)].tolist())
                square_by_set[tag] = inner * inner
            squares.append(square_by_set[tag])
        f = np.empty(ns.size)
        f[order] = np.array(squares)[np.cumsum(first) - 1]
        yield ns, f


def _row_fsums(rows: np.ndarray) -> np.ndarray:
    """math.fsum of each row. A row with at most two nonzero entries rounds
    once in any summation order, so only the others go through fsum."""
    sums = rows.sum(axis=1)
    many = np.count_nonzero(rows, axis=1) > 2
    sums[many] = [math.fsum(row) for row in rows[many].tolist()]
    return sums


def _count_in_class(lo: int, hi: int, r: int, m: int) -> int:
    """#{n in [lo, hi): n = r mod m}, exact."""
    return (hi - 1 - r) // m - (lo - 1 - r) // m


def _valid_residues(m: int, offsets: tuple[int, ...]) -> list[int]:
    """Residues r mod m with m | (r+h_1)...(r+h_k), for squarefree m, via CRT."""
    residues, _ = _crt_combine((p, sorted({(-h) % p for h in offsets})) for p in _factorise(m))
    return sorted(residues)


def weighted_sums(params: GpyParams, *, rel_tol: float = 1e-9) -> GpyReport:
    """Compute S1 and S2 two independent ways and insist they agree.

    The direct pipeline scans every n in [x, 2x), evaluating the weight by
    divisibility tests, grouped by the set of primes p <= D dividing some
    n + h: one fsum of lambda_d per distinct set (_direct_weight_blocks).
    The rearranged pipeline expands the square into a double sum over
    divisor pairs (d1, d2) and walks the moduli m = lcm(d1, d2) in
    ascending order, one at a time. For each m it takes three totals over
    the residues r mod m with m | (r+h_1)...(r+h_k): the exact count of n
    in [x, 2x) in those classes, the count of (n, h) with n + h prime, and
    the sum of log(n + h) over those (one bincount per offset, one fsum).
    Each pair with that modulus contributes lambda_d1 * lambda_d2 times
    each total, so memory is bounded by the largest modulus. Both
    pipelines read one table of the nonzero lambda_d. Disagreement beyond
    rel_tol raises ConsistencyError. The error sum E is not part of the
    report; error_sum_E computes it on its own.
    """
    x, D = params.x, params.D_limit
    offsets = params.tuple.offsets
    lam = _lambda_table(params)
    # both pipelines index the bits from lo, the least n + h they read
    lo = x + min(offsets[0], 0)
    if lo < 0:
        raise ValidationError(f"need x + h_1 >= 0, got x={x} h_1={offsets[0]}")
    bits = sieve_range(lo, 2 * x + offsets[-1] + 1).primality

    # direct scan
    f_terms, s2_terms, s2_theta_terms = [], [], []
    for ns, f in _direct_weight_blocks(params, lam, x, 2 * x):
        ns, f = ns[f != 0.0], f[f != 0.0]
        hits = np.stack([bits[ns + h - lo] for h in offsets], axis=1)
        logs = np.zeros(hits.shape)
        logs[hits] = [math.log(v) for v in (ns[:, None] + offsets)[hits].tolist()]
        count, theta = hits.sum(axis=1), _row_fsums(logs)
        f_terms.append(f)
        s2_terms.append(f[count > 0] * count[count > 0])
        s2_theta_terms.append(f[count > 0] * theta[count > 0])
    S1_direct = math.fsum(np.concatenate(f_terms).tolist())
    S2_direct = math.fsum(np.concatenate(s2_terms).tolist())
    S2_theta_direct = math.fsum(np.concatenate(s2_theta_terms).tolist())

    # rearranged double sum over divisor pairs, one modulus at a time
    pairs_by_m: dict[int, list[tuple[int, int]]] = {}
    for d1 in lam:
        for d2 in lam:
            pairs_by_m.setdefault(math.lcm(d1, d2), []).append((d1, d2))
    # per offset: the n in [x, 2x) with n + h prime, and log(n + h)
    prime_ns = []
    for h in offsets:
        qs = np.flatnonzero(bits[x + h - lo : 2 * x + h - lo]).astype(np.int64) + x
        prime_ns.append((qs, np.log((qs + h).astype(np.float64))))

    re_s1, re_s2, re_s2_theta = [], [], []
    for m in sorted(pairs_by_m):
        rs = _valid_residues(m, offsets)
        n_count = sum(_count_in_class(x, 2 * x, r, m) for r in rs)
        prime_hits, class_logs = 0, []
        for qs, logq in prime_ns:
            cls = qs % m
            counts = np.bincount(cls, minlength=m)
            prime_hits += sum(int(counts[r]) for r in rs)
            class_logs += np.bincount(cls, weights=logq, minlength=m)[rs].tolist()
        logsum = math.fsum(class_logs)
        for d1, d2 in pairs_by_m[m]:
            coef = lam[d1] * lam[d2]
            re_s1.append(coef * n_count)
            re_s2.append(coef * prime_hits)
            re_s2_theta.append(coef * logsum)
    S1_re = math.fsum(re_s1)
    S2_re = math.fsum(re_s2)
    S2_theta_re = math.fsum(re_s2_theta)

    for name, a, b in (
        ("S1", S1_direct, S1_re),
        ("S2", S2_direct, S2_re),
        ("S2_theta", S2_theta_direct, S2_theta_re),
    ):
        if abs(a - b) > rel_tol * max(1.0, abs(a)):
            raise ConsistencyError(
                f"direct and rearranged {name} disagree: {a!r} vs {b!r}"
            )

    return GpyReport(
        params=params,
        S1=S1_direct,
        S2=S2_direct,
        objective=S2_direct - S1_direct,
        S2_theta=S2_theta_direct,
        D_limit=D,
    )


def residue_set_C(i: int, d: int, tup: AdmissibleTuple) -> frozenset[int]:
    """Residues c in [1, d], coprime to d, with d | prod_j (c - h_i + h_j).

    i is 1-based. For squarefree d the set is assembled per prime factor
    and combined by CRT; d = 1 gives the single degenerate class {1}.
    """
    if not 1 <= i <= tup.k:
        raise ValidationError(f"i must lie in [1, {tup.k}], got {i}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if _mobius(d) == 0:
        raise ValidationError(f"d must be squarefree, got {d}")
    hi = tup.offsets[i - 1]
    # per prime p | d: the roots of prod_j (c - h_i + h_j) mod p, except c = 0
    residues, _ = _crt_combine(
        (p, sorted({(hi - h) % p for h in tup.offsets} - {0})) for p in _factorise(d)
    )
    return frozenset(c if c != 0 else d for c in residues)


def remainder_R(
    x: int, d: int, c: int, *, support: Optional[SupportArrays] = None
) -> float:
    """Prime-power log sum over n in [x, 2x) with n = c mod d, minus x/phi(d).

    The sum runs over the von Mangoldt support (each prime power p**m
    contributes log p); support arrays can be shared across calls.
    """
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if not 1 <= c <= d:
        raise ValidationError(f"c must lie in [1, {d}], got {c}")
    if math.gcd(c, d) != 1:
        raise ValidationError(f"need gcd(c, d) = 1, got c={c} d={d}")
    if support is None:
        support = mangoldt_range(x, 2 * x)
    ns, ps, _ = support
    mask = ns % d == (c % d)
    # math.log per element keeps the value multiset identical to any
    # scalar re-summation, and fsum is order-insensitive
    lam_sum = math.fsum(math.log(p) for p in ps[mask].tolist())
    totient = math.prod((p - 1) * p ** (e - 1) for p, e in _factorise(d).items())
    return lam_sum - x / totient


def error_sum_E(params: GpyParams, i: int = 1) -> float:
    """Sum of |remainder_R| over squarefree d < x^(2b) and c in the residue set.

    The index i selects which tuple offset anchors the residue sets; it is
    a free choice and defaults to 1. The bound d < x^(2b) is exact where
    _power_floor is.
    """
    x = params.x
    d_max = _power_floor(x, 2 * params.b, strict=True)
    support = mangoldt_range(x, 2 * x)
    terms = []
    for d in range(1, d_max + 1):
        if _mobius(d) == 0:
            continue
        for c in sorted(residue_set_C(i, d, params.tuple)):
            terms.append(abs(remainder_R(x, d, c, support=support)))
    return math.fsum(terms)


def _residues(ns: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """ns % q into out, as ns - ns // q * q: numpy divides an integer array
    by a scalar with a multiply and a shift, where % takes one hardware
    divide per element."""
    np.floor_divide(ns, q, out=out)
    out *= q
    return np.subtract(ns, out, out=out)


def _class_counts(ns: np.ndarray, q_max: int, weights: Optional[np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (q, per-class sums of weights over ns mod q) once for each q <= q_max.

    Without weights (a count per class), each q in (q_max / 2, q_max] takes
    a residue pass and a bincount, and its even chain q/2, q/4, ... down to
    the first odd q is folded from it, as counts.reshape(2, q).sum(0),
    exactly in integers. Every q <= q_max / 2 lies on one such chain, and
    only one count array is held at a time. Float weights keep one bincount
    per q: folding would reorder their additions and change their bits.
    """
    residues = np.empty_like(ns)
    for q in range(q_max, 0 if weights is not None else q_max // 2, -1):
        per_class = np.bincount(_residues(ns, q, residues), weights=weights, minlength=q)
        yield q, per_class
        while weights is None and q % 2 == 0:
            q //= 2
            per_class = per_class.reshape(2, q).sum(0)
            yield q, per_class


def level_of_distribution_sum(x: int, theta: float, *, weighted: bool = False) -> float:
    """Sum over q <= x^theta of the worst residue-class error E_q.

    E_q compares the prime count in each invertible class a mod q with the
    equidistributed share pi(x)/phi(q) and takes the worst class. With
    weighted=True the count is replaced by the prime-power log sum (the
    same comparison against its total divided by phi(q)).

    Only q > q_max / 2 take a residue pass and a bincount over the primes
    (see _class_counts); the counts mod a smaller q are folded from them.
    """
    if x < 100:
        raise ValidationError(f"x must be >= 100, got {x}")
    if x > DEFAULT_RANGE_CAP:
        raise CapacityError(f"x = {x} exceeds the cap of {DEFAULT_RANGE_CAP} integers")
    if not 0 < theta < 1:
        raise ValidationError(f"theta must lie in (0, 1), got {theta}")
    q_max = int(x**theta + 1e-9)
    if weighted:
        ns, ps, _ = mangoldt_range(2, x + 1)
        vals = np.log(ps.astype(np.float64))
        total = math.fsum(vals.tolist())
    else:
        ns = primes_between(2, x + 1)
        vals = None
        total = float(ns.size)
    ns = ns.astype(np.min_scalar_type(x))  # the narrowest unsigned type holding x
    terms = []  # fsum rounds their exact sum once, so their order is free
    for q, per_class in _class_counts(ns, q_max, vals):
        coprime = np.gcd(np.arange(q, dtype=np.int64), q) == 1
        phi_q = int(np.count_nonzero(coprime))
        errs = np.abs(per_class[coprime] - total / phi_q)
        terms.append(float(np.max(errs)) if errs.size else 0.0)
    return math.fsum(terms)
